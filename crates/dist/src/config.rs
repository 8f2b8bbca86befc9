//! Distributed-run configuration.

use std::time::Duration;

use cuts_core::error::{ConfigError, CutsError};
use cuts_core::fault::FaultPlan;
use cuts_core::EngineConfig;
use cuts_gpu_sim::DeviceConfig;
use cuts_obs::{Registry, Trace};

use crate::worker::Partition;

/// Configuration for a distributed run.
#[derive(Clone)]
pub struct DistConfig {
    /// Per-rank device (each node of the paper's cluster has one V100).
    pub device: DeviceConfig,
    /// Per-rank engine configuration.
    pub engine: EngineConfig,
    /// Paths per job batch — the §4.2 outer chunk granularity.
    pub dist_chunk: usize,
    /// Root-candidate partitioning.
    pub partition: Partition,
    /// When a peer is idle and the local queue holds a single heavy job,
    /// expand it one level and re-chunk so part of its subtree can be
    /// donated (the finer-granularity mid-trie donation of §4.2).
    pub progressive_deepening: bool,
    /// Wall-clock pacing factor: after each job, sleep
    /// `sim_millis × pacing` milliseconds so the host timeline tracks the
    /// simulated device timeline. 0 disables. Without pacing, host wall
    /// time (which drives when FREE broadcasts happen) is dominated by
    /// per-job overhead rather than modelled cost, so the donation
    /// protocol cannot react to *simulated* stragglers.
    pub pacing: f64,
    /// Deterministic fault schedule injected at the message/worker layer.
    /// Empty (the default) means a fault-free run.
    pub fault_plan: FaultPlan,
    /// How long a rank may go unheard-from (no message, no heartbeat)
    /// before idle peers treat it as unresponsive and reclaim its pending
    /// chunks. Also bounds how long a donor waits on an unresolved claim.
    pub rank_timeout: Duration,
    /// Interval between heartbeat broadcasts from each worker's main
    /// loop, refreshing peers' liveness views even when no protocol
    /// traffic flows.
    pub heartbeat_interval: Duration,
    /// Trace every rank's kernel launches, chunk lifecycle, donations,
    /// heartbeats, and injected faults are journalled into (rank-tagged).
    /// Disabled by default.
    pub trace: Trace,
    /// Serving-metrics registry the run records per-rank busy gauges,
    /// balance gauges, and recovery counters into; the same handle comes
    /// back on [`crate::DistResult::telemetry`]. Enabled by default —
    /// pass [`Registry::disabled`] to measure the zero-cost path.
    pub telemetry: Registry,
}

impl std::fmt::Debug for DistConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistConfig")
            .field("device", &self.device)
            .field("engine", &self.engine)
            .field("dist_chunk", &self.dist_chunk)
            .field("partition", &self.partition)
            .field("progressive_deepening", &self.progressive_deepening)
            .field("pacing", &self.pacing)
            .field("fault_plan", &self.fault_plan)
            .field("rank_timeout", &self.rank_timeout)
            .field("heartbeat_interval", &self.heartbeat_interval)
            .field("trace_enabled", &self.trace.is_enabled())
            .field("telemetry_enabled", &self.telemetry.is_enabled())
            .finish()
    }
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            device: DeviceConfig::v100_like(),
            engine: EngineConfig::default(),
            dist_chunk: 512,
            partition: Partition::RoundRobin,
            progressive_deepening: true,
            pacing: 0.0,
            fault_plan: FaultPlan::default(),
            rank_timeout: Duration::from_millis(50),
            heartbeat_interval: Duration::from_millis(10),
            trace: Trace::disabled(),
            telemetry: Registry::enabled(),
        }
    }
}

impl DistConfig {
    /// A validating builder: illegal values (zero ranks, a trie budget
    /// that cannot fit the per-rank device, a fault plan naming ranks
    /// outside the world) surface as typed [`ConfigError`] /
    /// [`cuts_core::error::DistError`] conversions at
    /// [`DistConfigBuilder::build`] time
    /// instead of failing deep inside a run.
    pub fn builder() -> DistConfigBuilder {
        DistConfigBuilder {
            config: DistConfig::default(),
            ranks: None,
        }
    }
}

/// Validating builder for [`DistConfig`] (see [`DistConfig::builder`]).
#[derive(Debug, Clone)]
pub struct DistConfigBuilder {
    config: DistConfig,
    ranks: Option<usize>,
}

impl DistConfigBuilder {
    /// Per-rank device model.
    pub fn device(mut self, d: DeviceConfig) -> Self {
        self.config.device = d;
        self
    }

    /// Per-rank engine configuration.
    pub fn engine(mut self, e: EngineConfig) -> Self {
        self.config.engine = e;
        self
    }

    /// Paths per job batch (must be ≥ 1).
    pub fn dist_chunk(mut self, n: usize) -> Self {
        self.config.dist_chunk = n;
        self
    }

    /// Root-candidate partitioning.
    pub fn partition(mut self, p: Partition) -> Self {
        self.config.partition = p;
        self
    }

    /// Mid-trie donation of a lone heavy job.
    pub fn progressive_deepening(mut self, on: bool) -> Self {
        self.config.progressive_deepening = on;
        self
    }

    /// Wall-clock pacing factor (must be ≥ 0).
    pub fn pacing(mut self, p: f64) -> Self {
        self.config.pacing = p;
        self
    }

    /// Deterministic fault schedule.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.config.fault_plan = plan;
        self
    }

    /// Unresponsive-rank reclaim timeout (must be non-zero).
    pub fn rank_timeout(mut self, d: Duration) -> Self {
        self.config.rank_timeout = d;
        self
    }

    /// Heartbeat broadcast interval (must be non-zero).
    pub fn heartbeat_interval(mut self, d: Duration) -> Self {
        self.config.heartbeat_interval = d;
        self
    }

    /// Attaches a trace every rank journals into.
    pub fn trace(mut self, t: Trace) -> Self {
        self.config.trace = t;
        self
    }

    /// Explicit serving-metrics registry (default: a fresh enabled one).
    pub fn telemetry(mut self, r: Registry) -> Self {
        self.config.telemetry = r;
        self
    }

    /// Validates against a concrete world size: `build` rejects zero
    /// ranks and fault-plan clauses naming ranks outside `0..ranks`.
    pub fn for_ranks(mut self, ranks: usize) -> Self {
        self.ranks = Some(ranks);
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<DistConfig, CutsError> {
        let c = &self.config;
        if c.dist_chunk == 0 {
            return Err(ConfigError::Invalid {
                field: "dist_chunk",
                reason: "must be at least 1",
            }
            .into());
        }
        if c.pacing.is_nan() || c.pacing < 0.0 {
            return Err(ConfigError::Invalid {
                field: "pacing",
                reason: "must be non-negative",
            }
            .into());
        }
        if c.rank_timeout.is_zero() {
            return Err(ConfigError::Invalid {
                field: "rank_timeout",
                reason: "must be positive",
            }
            .into());
        }
        if c.heartbeat_interval.is_zero() {
            return Err(ConfigError::Invalid {
                field: "heartbeat_interval",
                reason: "must be positive",
            }
            .into());
        }
        if let Some(ranks) = self.ranks {
            if ranks == 0 {
                return Err(ConfigError::Invalid {
                    field: "ranks",
                    reason: "must be at least 1",
                }
                .into());
            }
            c.fault_plan.check_ranks(ranks)?;
        }
        // The engine's trie budget must fit the per-rank device.
        let budget_entries =
            (c.device.global_mem_words as f64 * c.engine.trie_fraction) as usize / 2;
        if budget_entries == 0 {
            return Err(ConfigError::Budget {
                required_words: 2,
                device_words: c.device.global_mem_words,
            }
            .into());
        }
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DistConfig::default();
        assert_eq!(c.dist_chunk, 512);
        assert_eq!(c.partition, Partition::RoundRobin);
        assert!(c.progressive_deepening);
        assert_eq!(c.pacing, 0.0);
        assert!(c.fault_plan.is_empty());
        assert_eq!(c.rank_timeout, Duration::from_millis(50));
        assert_eq!(c.heartbeat_interval, Duration::from_millis(10));
    }

    #[test]
    fn builder_validates() {
        let ok = DistConfig::builder()
            .dist_chunk(64)
            .pacing(1.5)
            .for_ranks(4)
            .build()
            .unwrap();
        assert_eq!(ok.dist_chunk, 64);

        assert!(matches!(
            DistConfig::builder().for_ranks(0).build(),
            Err(CutsError::Config(ConfigError::Invalid {
                field: "ranks",
                ..
            }))
        ));
        assert!(matches!(
            DistConfig::builder().dist_chunk(0).build(),
            Err(CutsError::Config(ConfigError::Invalid {
                field: "dist_chunk",
                ..
            }))
        ));
        // A fault plan naming a rank outside the world is caught at
        // build time, not silently dropped at run time.
        let plan = FaultPlan::parse("crash:7@0").unwrap();
        assert!(matches!(
            DistConfig::builder().fault_plan(plan).for_ranks(2).build(),
            Err(CutsError::Dist(
                cuts_core::error::DistError::RankOutOfRange { rank: 7, ranks: 2 }
            ))
        ));
        // Trie budget must fit the device.
        let tiny = DeviceConfig {
            global_mem_words: 1,
            ..DeviceConfig::test_small()
        };
        assert!(matches!(
            DistConfig::builder().device(tiny).build(),
            Err(CutsError::Config(ConfigError::Budget { .. }))
        ));
    }
}
