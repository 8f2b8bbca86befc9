//! Deterministic fault-injection and recovery suite for the distributed
//! runtime.
//!
//! The invariant under test everywhere: **an injected failure never
//! changes `total_matches`** — any seeded or hand-written `FaultPlan`
//! that leaves at least one rank alive produces a run that completes
//! `Ok` with a count bit-identical to the fault-free single-node count,
//! and reports what recovery cost instead of panicking.

use std::time::Duration;

use cuts::dist::worker::WorkerError;
use cuts::dist::{run, DistConfig, FaultPlan, Partition, RecoveryStats};
use cuts::graph::generators::{barabasi_albert, clique, erdos_renyi};
use cuts::graph::Graph;
use cuts::prelude::*;

fn single_node_count(data: &Graph, query: &Graph) -> u64 {
    let device = Device::new(DeviceConfig::test_small());
    ExecSession::new(&device, EngineConfig::default())
        .run(data, query)
        .unwrap()
        .num_matches
}

fn cfg(partition: Partition) -> DistConfig {
    DistConfig {
        device: DeviceConfig::test_small(),
        dist_chunk: 8,
        partition,
        // Short enough that recovery paths actually exercise within the
        // test budget; long enough that healthy ranks never look stale.
        rank_timeout: Duration::from_millis(40),
        ..Default::default()
    }
}

/// The hand-written schedules of the deterministic suite: crashes (both
/// failure modes), message drops on protocol-critical edges, delays
/// long enough to trigger staleness suspicion, and combinations.
fn schedules() -> Vec<(&'static str, &'static str)> {
    vec![
        ("early-crash", "crash:1@0"),
        ("late-panic", "panic:0@2"),
        ("two-rank-crash", "crash:1@1, crash:2@0"),
        ("drop-free-and-work", "drop:1->0@1, drop:0->1@3"),
        ("delayed-claims", "delay:0->1@1+60, delay:1->0@2+45"),
        (
            "crash-plus-drops",
            "crash:2@1, drop:0->1@2, delay:1->0@1+50",
        ),
    ]
}

#[test]
fn injected_faults_never_change_total_matches() {
    let data = erdos_renyi(60, 240, 17);
    let query = clique(3);
    let want = single_node_count(&data, &query);
    for partition in [Partition::RoundRobin, Partition::Block] {
        for (name, spec) in schedules() {
            let mut c = cfg(partition);
            c.fault_plan = FaultPlan::parse(spec).unwrap();
            let r =
                run(&data, &query, 3, &c).unwrap_or_else(|e| panic!("{name}/{partition:?}: {e}"));
            assert_eq!(
                r.total_matches, want,
                "count changed under {name} with {partition:?}"
            );
            assert!(
                !r.recovery.is_clean(),
                "{name}/{partition:?}: fault run must report recovery activity"
            );
        }
    }
}

#[test]
fn seeded_plans_recover_across_partitions_and_ranks() {
    let data = barabasi_albert(70, 3, 9);
    let query = clique(3);
    let want = single_node_count(&data, &query);
    for partition in [Partition::RoundRobin, Partition::AllToRankZero] {
        for seed in [1u64, 7, 42] {
            for ranks in [2usize, 4] {
                let plan = FaultPlan::seeded(seed, ranks);
                assert!(
                    plan.distinct_victims() < ranks,
                    "seeded plan must leave a survivor"
                );
                let mut c = cfg(partition);
                c.fault_plan = plan;
                let r = run(&data, &query, ranks, &c)
                    .unwrap_or_else(|e| panic!("seed {seed}, ranks {ranks}, {partition:?}: {e}"));
                assert_eq!(
                    r.total_matches, want,
                    "seed {seed}, ranks {ranks}, {partition:?}"
                );
            }
        }
    }
}

#[test]
fn fault_run_is_deterministic() {
    let data = erdos_renyi(50, 200, 3);
    let query = clique(3);
    let mut c = cfg(Partition::RoundRobin);
    c.fault_plan = FaultPlan::parse("crash:1@1, drop:0->2@2").unwrap();
    let a = run(&data, &query, 3, &c).unwrap();
    let b = run(&data, &query, 3, &c).unwrap();
    assert_eq!(a.total_matches, b.total_matches);
    assert_eq!(a.recovery.lost_ranks, b.recovery.lost_ranks);
    assert_eq!(a.recovery.messages_dropped, b.recovery.messages_dropped);
}

#[test]
fn recovery_metrics_populated_only_under_faults() {
    let data = erdos_renyi(60, 240, 17);
    let query = clique(3);

    let clean = run(&data, &query, 3, &cfg(Partition::RoundRobin)).unwrap();
    assert_eq!(clean.recovery, RecoveryStats::default(), "fault-free run");
    assert!(clean.per_rank.iter().all(|m| !m.lost));

    let mut c = cfg(Partition::RoundRobin);
    c.fault_plan = FaultPlan::parse("crash:2@0, drop:0->1@1").unwrap();
    let faulty = run(&data, &query, 3, &c).unwrap();
    assert_eq!(faulty.recovery.ranks_lost, 1);
    assert_eq!(faulty.recovery.lost_ranks, vec![2]);
    assert!(faulty.per_rank[2].lost);
    assert!(
        faulty.recovery.chunks_reassigned > 0,
        "{:?}",
        faulty.recovery
    );
    assert!(faulty.recovery.messages_dropped >= 1);
    assert!(faulty.recovery.recovery_millis > 0.0);
    assert_eq!(faulty.total_matches, clean.total_matches);
}

#[test]
fn all_but_one_rank_may_die() {
    let data = erdos_renyi(50, 200, 11);
    let query = clique(3);
    let want = single_node_count(&data, &query);
    let mut c = cfg(Partition::RoundRobin);
    c.fault_plan = FaultPlan::parse("crash:0@0, panic:1@0, crash:3@1").unwrap();
    let r = run(&data, &query, 4, &c).unwrap();
    assert_eq!(r.total_matches, want);
    assert_eq!(r.recovery.ranks_lost, 3);
    // The sole survivor re-ran everything the victims left behind.
    assert!(r.recovery.chunks_reassigned > 0);
}

#[test]
fn worker_panic_surfaces_as_error_not_unwind() {
    // Regression for the runner's old `join().expect(...)`: a panicking
    // worker with no survivors must surface as `Err(Panicked)`, never
    // propagate the unwind out of `run`.
    let data = erdos_renyi(30, 90, 5);
    let query = clique(3);
    let mut c = cfg(Partition::RoundRobin);
    c.fault_plan = FaultPlan::parse("panic:0@0").unwrap();
    match run(&data, &query, 1, &c) {
        Err(WorkerError::Panicked { rank: 0 }) => {}
        other => panic!("expected Err(Panicked), got {other:?}"),
    }
}

#[test]
fn losing_every_rank_is_an_error_not_a_hang() {
    let data = erdos_renyi(30, 90, 5);
    let query = clique(3);
    let mut c = cfg(Partition::RoundRobin);
    c.fault_plan = FaultPlan::parse("crash:0@0, crash:1@0").unwrap();
    match run(&data, &query, 2, &c) {
        Err(WorkerError::InjectedCrash { .. }) => {}
        other => panic!("expected Err(InjectedCrash), got {other:?}"),
    }
}

#[test]
fn message_drops_alone_still_terminate_and_count() {
    // No crashes at all: drop a FREE broadcast and a WORK payload. The
    // old all-peers-free termination would hang on the first and lose
    // work on the second; the ledger-driven runtime shrugs both off.
    let data = barabasi_albert(60, 3, 5);
    let query = clique(3);
    let want = single_node_count(&data, &query);
    let mut c = cfg(Partition::AllToRankZero);
    c.dist_chunk = 4;
    c.fault_plan = FaultPlan::parse("drop:1->0@1, drop:0->1@3, drop:0->2@2").unwrap();
    let r = run(&data, &query, 3, &c).unwrap();
    assert_eq!(r.total_matches, want);
    assert_eq!(r.recovery.ranks_lost, 0);
    assert!(r.recovery.messages_dropped >= 1);
}
