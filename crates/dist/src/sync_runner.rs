//! The §4.2 "first strategy" the paper rejects, implemented as an
//! ablation baseline: synchronise all nodes after every outer iteration,
//! exchange partial-path counts, and redistribute paths evenly.
//!
//! The paper's two objections are modelled measurably: (i) **wasted
//! compute cycles** — a barrier after each level means every node waits
//! for the slowest, so the lock-step makespan is `Σ_l max_r t(r, l)`
//! rather than `max_r Σ_l t(r, l)`; and (ii) **expensive copying** —
//! rebalancing ships actual path data every level (tries must be
//! extracted and re-integrated), which we charge to the communication
//! volume. Counts still come out identical, which is the point of an
//! ablation.

use cuts_core::{ExecSession, MatchOrder};
use cuts_gpu_sim::{CounterSink, Device};
use cuts_graph::Graph;
use cuts_trie::HostTrie;

use crate::config::DistConfig;
use crate::metrics::{DistResult, RankMetrics, RecoveryStats};
use crate::worker::{root_candidates, WorkerError};

/// Outcome of a synchronous run: the usual per-rank metrics plus the
/// lock-step makespan (which includes barrier idling).
#[derive(Debug, Clone)]
pub struct SyncResult {
    /// Standard result view (per-rank busy times exclude barrier waits).
    pub dist: DistResult,
    /// Lock-step makespan: `Σ_levels max_rank level_time`.
    pub barrier_makespan_sim_millis: f64,
    /// Mean per-rank idle time spent waiting at barriers:
    /// `Σ_levels mean_rank (max_level_time − own_level_time)` — the
    /// "wasted compute cycles" of §4.2's objection (i).
    pub barrier_idle_sim_millis: f64,
    /// Words of path data moved by rebalancing — objection (ii).
    pub rebalanced_words: u64,
}

/// Runs the synchronous rebalance-every-level strategy. Deterministic and
/// single-threaded: each simulated rank owns a device, and the barrier is
/// the loop structure itself.
pub fn run_synchronous(
    data: &Graph,
    query: &Graph,
    ranks: usize,
    config: &DistConfig,
) -> Result<SyncResult, WorkerError> {
    assert!(ranks >= 1);
    let start = std::time::Instant::now();
    let plan = MatchOrder::compute(query)?;
    let n = plan.len();

    let devices: Vec<Device> = (0..ranks)
        .map(|_| Device::new(config.device.clone()))
        .collect();
    // One session per rank, reused across all levels: the plan is built
    // once and the trie chains stay on one arena carve for the whole run.
    let sessions: Vec<ExecSession<'_>> = devices
        .iter()
        .map(|d| ExecSession::new(d, config.engine.clone()))
        .collect();
    let mut metrics: Vec<RankMetrics> = (0..ranks)
        .map(|rank| RankMetrics {
            rank,
            ..Default::default()
        })
        .collect();

    // Initial partition of root candidates (always round-robin here; the
    // strategy rebalances every level anyway).
    let mut frontiers: Vec<Vec<Vec<u32>>> = vec![Vec::new(); ranks];
    for (i, v) in root_candidates(data, &plan).into_iter().enumerate() {
        frontiers[i % ranks].push(vec![v]);
    }

    let mut barrier_makespan = 0.0f64;
    let mut barrier_idle = 0.0f64;
    let mut rebalanced_words = 0u64;

    for _depth in 1..n {
        // Each rank expands its share one level (the paper's outer
        // iteration), then the barrier.
        let mut level_times = vec![0.0f64; ranks];
        let mut next: Vec<Vec<Vec<u32>>> = vec![Vec::new(); ranks];
        for r in 0..ranks {
            if frontiers[r].is_empty() {
                continue;
            }
            let seed = HostTrie::from_flat_paths(&frontiers[r]);
            let sink = CounterSink::install();
            let expanded = sessions[r].expand_seed_once(data, query, &seed)?;
            let counters = sink.snapshot();
            let t = cuts_gpu_sim::CostModel::default().millis(&counters, devices[r].config());
            level_times[r] = t;
            metrics[r].busy_sim_millis += t;
            metrics[r].counters += counters;
            metrics[r].jobs_processed += 1;
            next[r] = expanded.paths_at_level(expanded.depth() - 1);
        }
        let level_max = level_times.iter().cloned().fold(0.0, f64::max);
        barrier_makespan += level_max;
        barrier_idle += level_times.iter().map(|&t| level_max - t).sum::<f64>() / ranks as f64;

        // Rebalance: gather everything, redistribute evenly. Every path
        // that changes owner is charged as moved words.
        let mut all: Vec<(usize, Vec<u32>)> = Vec::new();
        for (r, paths) in next.into_iter().enumerate() {
            for p in paths {
                all.push((r, p));
            }
        }
        let mut redistributed: Vec<Vec<Vec<u32>>> = vec![Vec::new(); ranks];
        for (i, (origin, p)) in all.into_iter().enumerate() {
            let dest = i % ranks;
            if dest != origin {
                rebalanced_words += p.len() as u64;
                metrics[origin].bytes_sent += 4 * p.len() as u64;
                metrics[origin].messages_sent += 1;
            }
            redistributed[dest].push(p);
        }
        frontiers = redistributed;
        if frontiers.iter().all(|f| f.is_empty()) {
            break;
        }
    }

    let mut total = 0u64;
    for (r, f) in frontiers.iter().enumerate() {
        metrics[r].matches = f.len() as u64;
        total += f.len() as u64;
    }
    Ok(SyncResult {
        dist: DistResult {
            total_matches: total,
            per_rank: metrics,
            wall_millis: start.elapsed().as_secs_f64() * 1e3,
            recovery: RecoveryStats::default(),
            postmortem: None,
        },
        barrier_makespan_sim_millis: barrier_makespan,
        barrier_idle_sim_millis: barrier_idle,
        rebalanced_words,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuts_core::{EngineConfig, ExecSession};
    use cuts_gpu_sim::DeviceConfig;
    use cuts_graph::generators::{barabasi_albert, clique, erdos_renyi};

    fn cfg() -> DistConfig {
        DistConfig {
            device: DeviceConfig::test_small(),
            ..Default::default()
        }
    }

    #[test]
    fn sync_counts_match_single_node() {
        let data = erdos_renyi(50, 200, 31);
        let query = clique(3);
        let device = Device::new(DeviceConfig::test_small());
        let want = ExecSession::new(&device, EngineConfig::default())
            .run(&data, &query)
            .unwrap()
            .num_matches;
        for ranks in [1usize, 2, 4] {
            let r = run_synchronous(&data, &query, ranks, &cfg()).unwrap();
            assert_eq!(r.dist.total_matches, want, "ranks {ranks}");
        }
    }

    #[test]
    fn sync_rebalances_paths() {
        let data = barabasi_albert(80, 3, 5);
        let query = clique(3);
        let r = run_synchronous(&data, &query, 3, &cfg()).unwrap();
        assert!(r.rebalanced_words > 0, "redistribution should move paths");
        // Every rank ends with a near-even share of the final level.
        let counts: Vec<u64> = r.dist.per_rank.iter().map(|m| m.matches).collect();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max - min <= 1, "even redistribution: {counts:?}");
    }

    #[test]
    fn barrier_makespan_at_least_any_rank_busy() {
        let data = erdos_renyi(60, 240, 3);
        let query = clique(4);
        let r = run_synchronous(&data, &query, 2, &cfg()).unwrap();
        for m in &r.dist.per_rank {
            assert!(
                r.barrier_makespan_sim_millis >= m.busy_sim_millis - 1e-9,
                "barrier makespan {} vs rank busy {}",
                r.barrier_makespan_sim_millis,
                m.busy_sim_millis
            );
        }
    }
}
