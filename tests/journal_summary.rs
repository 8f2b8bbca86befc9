//! The journal summary behind `cuts profile` and `--metrics-out`: its
//! kernel totals count launch spans only, so per-block tracing adds
//! events without changing them, and its arena counters balance once a
//! session is idle.

use cuts::graph::generators::clique;
use cuts::prelude::*;
use cuts_obs::{JournalSummary, Trace, TraceConfig};

/// Runs one traced session over the enron stand-in and summarises the
/// journal.
fn traced_run(per_block: bool) -> JournalSummary {
    let trace = Trace::with_config(TraceConfig { per_block });
    let mut device = Device::new(DeviceConfig::test_small());
    device.set_trace(trace.clone());
    let data = Dataset::Enron.generate(Scale::Tiny);
    let session = ExecSession::new(&device, EngineConfig::default());
    let r = session.run(&data, &clique(3)).unwrap();
    assert!(r.num_matches > 0);
    drop(session);
    JournalSummary::from_events(&trace.journal().unwrap().snapshot_sorted())
}

#[test]
fn per_block_tracing_leaves_kernel_totals_unchanged() {
    let launches = traced_run(false);
    let blocks = traced_run(true);
    assert!(
        blocks.census["kernel"] > launches.census["kernel"],
        "per-block tracing records one span per block"
    );
    assert!(!launches.kernels.is_empty());
    let totals = |s: &JournalSummary| {
        s.kernels
            .iter()
            .map(|(name, k)| (name.clone(), k.spans, k.instructions, k.dram_reads))
            .collect::<Vec<_>>()
    };
    assert_eq!(totals(&launches), totals(&blocks));
}

#[test]
fn arena_slabs_balance_at_quiescence() {
    let s = traced_run(false);
    let acquires = s.arena["acquire"];
    assert!(acquires > 0);
    assert_eq!(acquires, s.arena["release"]);
    assert!(s.arena_high_water <= acquires);
    let prom = s.metrics(0).render();
    assert!(prom.contains(&format!("cuts_arena_slab_acquires_total {acquires}\n")));
    assert!(prom.contains(&format!("cuts_arena_slab_releases_total {acquires}\n")));
}
