//! Plan/session equivalence suite: the QueryPlan / ExecSession split is
//! a pure restructuring of the execution pipeline, so every reuse path —
//! plan-cache hits, warm sessions over arena slab chains, batched runs,
//! and fault-recovery replays in the distributed runtime — must produce
//! results bit-identical to a fresh one-shot engine, and warm runs must
//! perform **zero** new device allocations.

use std::time::Duration;

use cuts::dist::{run, DistConfig, FaultPlan, Partition};
use cuts::graph::generators::{clique, cycle, erdos_renyi, mesh2d};
use cuts::graph::Graph;
use cuts::prelude::*;

fn workloads() -> Vec<(&'static str, Graph, Graph)> {
    vec![
        ("clique/triangle", clique(6), clique(3)),
        ("mesh/4-cycle", mesh2d(8, 8), cycle(4)),
        ("erdos-renyi/k4", erdos_renyi(60, 300, 23), clique(4)),
    ]
}

/// Fresh-engine ground truth: a new device and engine per call, exactly
/// what callers did before the session API existed.
fn fresh(data: &Graph, query: &Graph) -> MatchResult {
    let device = Device::new(DeviceConfig::test_small());
    ExecSession::new(&device, EngineConfig::default())
        .run(data, query)
        .unwrap()
}

fn assert_same(name: &str, how: &str, got: &MatchResult, want: &MatchResult) {
    assert_eq!(got.num_matches, want.num_matches, "{name}: {how} count");
    assert_eq!(
        got.level_counts, want.level_counts,
        "{name}: {how} level counts"
    );
}

#[test]
fn warm_session_runs_equal_fresh_engine_runs() {
    for (name, data, query) in workloads() {
        let want = fresh(&data, &query);
        let device = Device::new(DeviceConfig::test_small());
        let session = ExecSession::new(&device, EngineConfig::default());
        for i in 0..3 {
            let got = session.run(&data, &query).unwrap();
            assert_same(name, &format!("session run {i}"), &got, &want);
        }
        let s = session.stats();
        assert_eq!(s.plans.misses, 1, "{name}: plan built once");
        assert_eq!(s.plans.hits, 2, "{name}: later runs hit the cache");
    }
}

#[test]
fn warm_runs_perform_zero_new_device_allocations() {
    for (name, data, query) in workloads() {
        let device = Device::new(DeviceConfig::test_small());
        let session = ExecSession::new(&device, EngineConfig::default());
        session.run(&data, &query).unwrap();
        let cold_allocs = device.alloc_calls();
        assert!(cold_allocs > 0, "{name}: cold run must allocate");
        for _ in 0..4 {
            session.run(&data, &query).unwrap();
        }
        assert_eq!(
            device.alloc_calls(),
            cold_allocs,
            "{name}: warm runs must be served entirely from the arena carve"
        );
    }
}

#[test]
fn plan_cache_disabled_still_equivalent() {
    for (name, data, query) in workloads() {
        let want = fresh(&data, &query);
        let device = Device::new(DeviceConfig::test_small());
        let session = ExecSession::with_cache_capacity(&device, EngineConfig::default(), 0);
        let got = session.run(&data, &query).unwrap();
        assert_same(name, "uncached run", &got, &want);
        let again = session.run(&data, &query).unwrap();
        assert_same(name, "second uncached run", &again, &want);
        assert_eq!(
            session.stats().plans.hits,
            0,
            "{name}: capacity 0 never hits"
        );
    }
}

#[test]
fn explicit_plan_reuse_equals_fresh_runs() {
    for (name, data, query) in workloads() {
        let want = fresh(&data, &query);
        let device = Device::new(DeviceConfig::test_small());
        let session = ExecSession::new(&device, EngineConfig::default());
        let plan = session.plan_for(&query).unwrap();
        for i in 0..2 {
            let got = session.run_with_plan(&plan, &data).unwrap();
            assert_same(name, &format!("run_with_plan {i}"), &got, &want);
        }
    }
}

#[test]
fn batched_runs_equal_per_graph_fresh_runs() {
    let graphs: Vec<Graph> = vec![
        clique(6),
        mesh2d(6, 6),
        erdos_renyi(50, 220, 7),
        erdos_renyi(50, 220, 8),
    ];
    let query = clique(3);
    let device = Device::new(DeviceConfig::test_small());
    let session = ExecSession::new(&device, EngineConfig::default());
    for (i, g) in graphs.iter().enumerate() {
        let got = session.run(g, &query).expect("batch job succeeds");
        let want = fresh(g, &query);
        assert_same("batch", &format!("graph {i}"), &got, &want);
    }
    // One plan serves the whole batch.
    assert_eq!(session.stats().plans.misses, 1);
}

#[test]
fn fault_replays_reuse_the_rank_plan_and_hold_counts_stable() {
    let data = erdos_renyi(60, 240, 17);
    let query = clique(3);
    let want = fresh(&data, &query).num_matches;

    let mut config = DistConfig {
        device: DeviceConfig::test_small(),
        dist_chunk: 8,
        partition: Partition::RoundRobin,
        rank_timeout: Duration::from_millis(40),
        ..Default::default()
    };
    config.fault_plan = FaultPlan::parse("crash:2@1, drop:0->1@2, delay:1->0@1+50").unwrap();

    let r = run(&data, &query, 3, &config).unwrap();
    assert_eq!(r.total_matches, want, "replays must not change the count");
    assert!(!r.recovery.is_clean(), "the fault plan must actually fire");
    for m in &r.per_rank {
        if m.lost {
            continue;
        }
        assert!(
            m.plan_builds <= 1,
            "rank {}: plan must be built at most once, got {}",
            m.rank,
            m.plan_builds
        );
        assert!(
            m.plan_reuses > 0,
            "rank {}: recovered/replayed chunks must reuse the rank plan",
            m.rank
        );
    }
}
