//! Intersection micro-kernel gate: the paper's fixed c-intersection
//! (prefilter off — the cuTS baseline) against the shipped default (the
//! plan-time auto policy plus the signature prefilter), on workloads
//! spanning both win sources:
//!
//! * heavy-tailed degree distributions (wikitalk, the star) where the
//!   per-path hedge routes hub paths to the p-kernel while fixed-c
//!   streams every adjacency list in full;
//! * selective root predicates (labelled graphs, dense queries on
//!   sparse road networks) where the signature prefilter prunes level-0
//!   candidates before any adjacency list is touched.
//!
//! Match counts must agree on every case, and the geomean reduction in
//! simulated DRAM words (reads + writes) must be ≥ 1.25×. Simulated
//! counters are deterministic, so the gate is too.
//!
//! ```sh
//! cargo test --release -p cuts-bench --test intersect_gate -- --nocapture
//! ```

use cuts_bench::{geomean, Machine};
use cuts_core::{EngineConfig, ExecSession, IntersectStrategy};
use cuts_gpu_sim::Device;
use cuts_graph::generators::{chain, clique, star};
use cuts_graph::labels::random_labels;
use cuts_graph::{Dataset, Graph, Scale};

/// One run; returns (matches, dram words).
fn run(data: &Graph, query: &Graph, config: EngineConfig) -> (u64, u64) {
    let device = Device::new(Machine::V100.device_config(Scale::Tiny));
    let r = ExecSession::new(&device, config)
        .run(data, query)
        .expect("gate case fits the device");
    (r.num_matches, r.counters.dram_total())
}

#[test]
fn auto_policy_and_prefilter_cut_dram_words_by_a_quarter() {
    let s = Scale::Custom(1.0 / 1024.0);
    let roadnet = Dataset::RoadNetPA.generate(s);
    let roadnet_l = {
        let l = random_labels(roadnet.num_vertices(), 4, 9);
        roadnet.with_labels(l)
    };
    let cases = [
        ("star/K3", star(400), clique(3)),
        (
            "wikitalk/K3",
            Dataset::WikiTalk.generate(Scale::Custom(1.0 / 2048.0)),
            clique(3),
        ),
        (
            "roadnet-l/chain3",
            roadnet_l,
            chain(3).with_labels(vec![0, 1, 2]),
        ),
        ("enron/K4", Dataset::Enron.generate(s), clique(4)),
    ];
    let mut ratios = Vec::new();
    for (name, data, query) in &cases {
        let (m_base, dram_base) = run(
            data,
            query,
            EngineConfig::default()
                .with_intersect(IntersectStrategy::CIntersection)
                .with_signature_prefilter(false),
        );
        let (m_auto, dram_auto) = run(data, query, EngineConfig::default());
        assert_eq!(
            m_base, m_auto,
            "{name}: strategies must agree on the match count"
        );
        let ratio = dram_base as f64 / dram_auto.max(1) as f64;
        println!("{name:<18} {m_base:>10} matches {dram_base:>12} -> {dram_auto:>12} dram words ({ratio:.2}x)");
        ratios.push(ratio);
    }
    let g = geomean(&ratios).unwrap_or(0.0);
    println!("geomean dram reduction {g:.2}x (gate >= 1.25x)");
    assert!(
        g >= 1.25,
        "geomean dram reduction {g:.2}x below the 1.25x gate"
    );
}
