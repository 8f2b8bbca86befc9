//! Distributed-run configuration.

use std::time::Duration;

use cuts_core::error::{ConfigError, CutsError};
use cuts_core::fault::FaultPlan;
use cuts_core::EngineConfig;
use cuts_gpu_sim::DeviceConfig;
use cuts_obs::Trace;

use crate::worker::Partition;

/// Configuration for a distributed run. Every chunk runs whole on the
/// rank that holds it and donation ships whole chunks (Algorithm 3);
/// heartbeats go out every 10 ms.
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
    /// Trace every rank's kernel launches, chunk lifecycle, donations,
    /// heartbeats, and injected faults are journalled into (rank-tagged).
    /// Disabled by default.
    pub trace: Trace,
}

impl std::fmt::Debug for DistConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistConfig")
            .field("device", &self.device)
            .field("engine", &self.engine)
            .field("dist_chunk", &self.dist_chunk)
            .field("partition", &self.partition)
            .field("pacing", &self.pacing)
            .field("fault_plan", &self.fault_plan)
            .field("rank_timeout", &self.rank_timeout)
            .field("trace_enabled", &self.trace.is_enabled())
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
            pacing: 0.0,
            fault_plan: FaultPlan::default(),
            rank_timeout: Duration::from_millis(50),
            trace: Trace::disabled(),
        }
    }
}

impl DistConfig {
    /// A validating builder: illegal values (zero ranks, an engine that
    /// fails [`EngineConfig::validate`] on the per-rank device, a fault
    /// plan naming ranks outside the world) surface as typed [`ConfigError`] /
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

    /// Attaches a trace every rank journals into.
    pub fn trace(mut self, t: Trace) -> Self {
        self.config.trace = t;
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
        // The engine's ranges, and its trie budget on the per-rank device.
        c.engine.validate(c.device.global_mem_words)?;
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
        assert_eq!(c.pacing, 0.0);
        assert!(c.fault_plan.is_empty());
        assert_eq!(c.rank_timeout, Duration::from_millis(50));
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
        // The engine's own ranges are checked, not only its budget.
        assert!(matches!(
            DistConfig::builder()
                .engine(EngineConfig {
                    chunk_size: 0,
                    ..Default::default()
                })
                .build(),
            Err(CutsError::Config(ConfigError::Invalid {
                field: "chunk_size",
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
