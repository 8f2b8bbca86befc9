//! Top-level distributed driver: spins up one worker thread per rank over
//! a shared [`Comm`] universe and aggregates results.
//!
//! Failure handling: a worker thread that returns an error or panics is
//! treated as a lost rank, not a lost run. Its death flips the shared
//! [`AliveBoard`] (via a drop guard that fires even during unwinding),
//! surviving ranks reclaim its pending chunks from the
//! [`ChunkLedger`], and the run completes
//! with the identical match count — the ledger sum — plus populated
//! [`RecoveryStats`]. Only when *no* rank survives (or registration
//! itself fails everywhere) does [`run`] return the first rank's error.

use std::sync::Arc;
use std::time::Instant;

use cuts_core::fault::FaultInjector;
use cuts_graph::Graph;
use cuts_obs::flight;
use cuts_obs::{Arg, EventKind};

pub use crate::config::DistConfig;
use crate::metrics::{DistResult, RankMetrics, RecoveryStats};
use crate::mpi::Comm;
use crate::worker::{Shared, Worker, WorkerError};
use crate::{AliveBoard, ChunkLedger};

/// Flips the rank's liveness flag on *any* exit from the worker thread —
/// clean return, error return, or panic unwind — and starts the recovery
/// clock on the unclean ones.
struct ExitGuard<'a> {
    alive: &'a AliveBoard,
    ledger: &'a ChunkLedger,
    rank: usize,
    clean: bool,
}

impl Drop for ExitGuard<'_> {
    fn drop(&mut self) {
        self.alive.set_dead(self.rank);
        if !self.clean {
            self.ledger.note_loss();
        }
    }
}

/// Runs `query` against `data` on `ranks` simulated nodes — the single
/// distributed entry point. The returned total equals the single-node
/// count — including under any fault plan that leaves at least one rank
/// alive; per-rank metrics feed Figures 4-5.
///
/// Set [`DistConfig::trace`] to journal every rank's kernel launches,
/// chunk lifecycle, donations, heartbeats, and injected faults
/// (rank-tagged, wrapped in one `distributed` span on the caller's lane).
/// The flight ring records their lifecycle instants and each rank death
/// either way; the first death dumps it to [`DistResult::postmortem`].
///
/// For a *stream of jobs* over long-lived ranks, use the serving tier
/// (`cuts_core::serve::ServeTier`) instead — it subsumes this path and
/// adds one job queue that every rank's idle lanes pull from, and job
/// re-admission.
///
/// ```
/// use cuts_dist::{run, DistConfig};
/// use cuts_gpu_sim::DeviceConfig;
/// use cuts_graph::generators::{clique, erdos_renyi};
///
/// let data = erdos_renyi(40, 160, 1);
/// let config = DistConfig {
///     device: DeviceConfig::test_small(),
///     dist_chunk: 8,
///     ..Default::default()
/// };
/// let two = run(&data, &clique(3), 2, &config).unwrap();
/// let four = run(&data, &clique(3), 4, &config).unwrap();
/// assert_eq!(two.total_matches, four.total_matches);
/// ```
pub fn run(
    data: &Graph,
    query: &Graph,
    ranks: usize,
    config: &DistConfig,
) -> Result<DistResult, WorkerError> {
    assert!(ranks >= 1);
    let trace = &config.trace;
    let mut run_span = trace.span(EventKind::Run, "distributed");
    run_span.arg("ranks", Arg::U64(ranks as u64));
    let injector = if config.fault_plan.is_empty() {
        None
    } else {
        Some(Arc::new(FaultInjector::new(
            config.fault_plan.clone(),
            ranks,
        )))
    };
    let shared = Shared::with_trace(ranks, injector.clone(), trace.clone());
    let comms = Comm::universe_with_faults(ranks, injector.clone());
    let start = Instant::now();
    let outcomes: Vec<Result<(u64, RankMetrics), WorkerError>> = std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                let cfg = config.clone();
                let shared = shared.clone();
                s.spawn(move || {
                    let mut guard = ExitGuard {
                        alive: &shared.alive,
                        ledger: &shared.ledger,
                        rank: comm.rank(),
                        clean: false,
                    };
                    let r = Worker::new(comm, cfg, data, query, shared.clone()).run();
                    guard.clean = r.is_ok();
                    r
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| match h.join() {
                Ok(r) => r,
                Err(_) => Err(WorkerError::Panicked { rank }),
            })
            .collect()
    });

    let mut per_rank = Vec::with_capacity(ranks);
    let mut lost_ranks = Vec::new();
    let mut first_error = None;
    let mut postmortem = None;
    for (rank, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok((_, metrics)) => per_rank.push(metrics),
            Err(e) => {
                lost_ranks.push(rank);
                trace.with_rank(rank).instant_with(
                    EventKind::Fault,
                    "rank_dead",
                    &[
                        ("rank", Arg::U64(rank as u64)),
                        (
                            "panicked",
                            Arg::U64(matches!(e, WorkerError::Panicked { .. }) as u64),
                        ),
                    ],
                );
                // One post-mortem per run: the flight rings hold the
                // typed events leading up to the first death.
                if first_error.is_none() {
                    first_error = Some(e);
                    postmortem = flight::postmortem("rank_death").map(|p| p.display().to_string());
                }
                per_rank.push(RankMetrics {
                    rank,
                    lost: true,
                    ..Default::default()
                });
            }
        }
    }
    // A rank only exits cleanly once every chunk has committed, so an
    // incomplete ledger means every rank failed: the run is unrecoverable
    // and the first failure is the cause. Likewise when no rank survived,
    // even if they happened to finish the work first.
    if !shared.ledger.all_completed() || lost_ranks.len() == ranks {
        return Err(first_error.expect("incomplete run implies a failed rank"));
    }

    if let Some(inj) = &injector {
        for m in per_rank.iter_mut() {
            m.messages_dropped = inj.messages_dropped(m.rank);
            m.messages_delayed = inj.messages_delayed(m.rank);
        }
    }
    per_rank.sort_by_key(|m| m.rank);
    let recovery = RecoveryStats {
        ranks_lost: lost_ranks.len(),
        lost_ranks,
        chunks_reassigned: shared.ledger.reassigned(),
        duplicate_chunks: per_rank.iter().map(|m| m.duplicate_chunks).sum(),
        messages_dropped: per_rank.iter().map(|m| m.messages_dropped).sum(),
        messages_delayed: per_rank.iter().map(|m| m.messages_delayed).sum(),
        recovery_millis: shared.ledger.recovery_millis(),
    };
    let result = DistResult {
        // The ledger sum, not the per-rank sum: immune to duplicated or
        // re-executed chunks.
        total_matches: shared.ledger.total_matches(),
        per_rank,
        wall_millis: start.elapsed().as_secs_f64() * 1e3,
        recovery,
        postmortem,
    };
    run_span.arg("matches", Arg::U64(result.total_matches));
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::Partition;
    use cuts_core::fault::FaultPlan;
    use cuts_core::{EngineConfig, ExecSession};
    use cuts_gpu_sim::{Device, DeviceConfig};
    use cuts_graph::generators::{barabasi_albert, clique, erdos_renyi};

    fn single_node_count(data: &Graph, query: &Graph) -> u64 {
        let device = Device::new(DeviceConfig::test_small());
        ExecSession::new(&device, EngineConfig::default())
            .run(data, query)
            .unwrap()
            .num_matches
    }

    fn cfg() -> DistConfig {
        DistConfig {
            device: DeviceConfig::test_small(),
            dist_chunk: 8,
            ..Default::default()
        }
    }

    #[test]
    fn matches_single_node_across_rank_counts() {
        let data = erdos_renyi(60, 240, 17);
        let query = clique(3);
        let want = single_node_count(&data, &query);
        for ranks in [1, 2, 4] {
            let r = run(&data, &query, ranks, &cfg()).unwrap();
            assert_eq!(r.total_matches, want, "ranks = {ranks}");
            assert_eq!(r.per_rank.len(), ranks);
            assert!(r.recovery.is_clean(), "fault-free run: {:?}", r.recovery);
        }
    }

    #[test]
    fn donation_rebalances_all_to_rank_zero() {
        let data = barabasi_albert(80, 3, 7);
        let query = clique(3);
        let want = single_node_count(&data, &query);
        let mut c = cfg();
        c.partition = Partition::AllToRankZero;
        c.dist_chunk = 4;
        let r = run(&data, &query, 3, &c).unwrap();
        assert_eq!(r.total_matches, want);
        // Rank 0 must have donated; someone must have received.
        assert!(r.per_rank[0].donations_sent > 0, "{:?}", r.per_rank);
        let received: usize = r.per_rank.iter().map(|m| m.donations_received).sum();
        assert!(received > 0);
        // And ranks 1/2 actually did work.
        assert!(r.per_rank[1].matches + r.per_rank[2].matches > 0);
    }

    #[test]
    fn single_heavy_job_runs_whole() {
        // One root candidate only (a star hub): the whole search is one
        // chunk, which runs on the rank holding it. There is nothing
        // spare to donate, so no donation happens.
        let data = cuts_graph::generators::star(40);
        let query = cuts_graph::generators::star(4);
        let want = single_node_count(&data, &query);
        assert!(want > 0);
        let mut c = cfg();
        c.dist_chunk = 4;
        let r = run(&data, &query, 2, &c).unwrap();
        assert_eq!(r.total_matches, want);
        let jobs: usize = r.per_rank.iter().map(|m| m.jobs_processed).sum();
        assert_eq!(jobs, 1, "{:?}", r.per_rank);
        assert_eq!(
            r.per_rank.iter().map(|m| m.donations_sent).sum::<usize>(),
            0,
            "{:?}",
            r.per_rank
        );
    }

    #[test]
    fn zero_match_case_terminates() {
        let data = erdos_renyi(30, 60, 1);
        let query = clique(6); // no degree-5 vertices in this sparse graph
        let r = run(&data, &query, 2, &cfg()).unwrap();
        assert_eq!(r.total_matches, 0);
    }

    #[test]
    fn metrics_populated() {
        let data = erdos_renyi(50, 200, 23);
        let query = clique(3);
        let r = run(&data, &query, 2, &cfg()).unwrap();
        for m in &r.per_rank {
            assert!(m.jobs_processed > 0);
            assert!(m.busy_sim_millis > 0.0);
            assert!(m.messages_sent > 0);
        }
        assert!(r.balance_ratio() > 0.0 && r.balance_ratio() <= 1.0);
        assert!(r.makespan_sim_millis() > 0.0);
    }

    #[test]
    fn crashed_rank_recovered_by_survivor() {
        let data = erdos_renyi(60, 240, 17);
        let query = clique(3);
        let want = single_node_count(&data, &query);
        let mut c = cfg();
        c.fault_plan = FaultPlan::parse("crash:1@0").unwrap();
        let r = run(&data, &query, 2, &c).unwrap();
        assert_eq!(r.total_matches, want);
        assert_eq!(r.recovery.lost_ranks, vec![1]);
        assert!(r.per_rank[1].lost);
        assert!(r.recovery.chunks_reassigned > 0);
        assert!(r.recovery.recovery_millis > 0.0);
    }

    #[test]
    fn rank_death_writes_postmortem() {
        let data = erdos_renyi(60, 240, 17);
        let query = clique(3);
        let mut c = cfg();
        c.fault_plan = FaultPlan::parse("crash:1@0").unwrap();
        let r = run(&data, &query, 2, &c).unwrap();
        assert_eq!(r.recovery.lost_ranks, vec![1]);
        // The dump exists, parses, and holds the dead rank's last events.
        let path = r.postmortem.as_ref().expect("postmortem on rank death");
        let text = std::fs::read_to_string(path).unwrap();
        let (reason, events) = cuts_obs::flight::parse_dump(&text).unwrap();
        assert_eq!(reason, "rank_death");
        let has = |kind: EventKind, name: &str, rank: Option<u32>| {
            events
                .iter()
                .any(|e| e.kind == kind && e.name == name && (rank.is_none() || e.rank == rank))
        };
        assert!(has(EventKind::Fault, "crash", Some(1)));
        assert!(has(EventKind::Fault, "rank_dead", Some(1)));
        assert!(has(EventKind::Chunk, "commit", None));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn fault_free_run_keeps_clean_recovery_with_observation() {
        // The observed variant must not perturb results: same counts,
        // clean recovery, no postmortem.
        let data = erdos_renyi(60, 240, 17);
        let query = clique(3);
        let want = single_node_count(&data, &query);
        let r = run(&data, &query, 2, &cfg()).unwrap();
        assert_eq!(r.total_matches, want);
        assert!(r.recovery.is_clean());
        assert!(r.postmortem.is_none());
    }

    #[test]
    fn worker_panic_becomes_error_not_panic() {
        // All ranks panic immediately: the runner must return Err, never
        // propagate the unwind (the satellite regression for the old
        // `join().expect(...)`).
        let data = erdos_renyi(30, 90, 5);
        let query = clique(3);
        let mut c = cfg();
        c.fault_plan = FaultPlan::parse("panic:0@0").unwrap();
        let r = run(&data, &query, 1, &c);
        match r {
            Err(WorkerError::Panicked { rank: 0 }) => {}
            other => panic!("expected Panicked {{ rank: 0 }}, got {other:?}"),
        }
    }
}
