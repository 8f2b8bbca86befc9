//! Cross-strategy equivalence: the intersection micro-kernel (c, p, or
//! bitmap), the plan-time kernel policy, and the signature prefilter are
//! pure execution-strategy knobs — none of them may change *what* is
//! matched, only *how fast*. Every workload here must produce identical
//! match counts and identical per-level trie counts across all four
//! `--intersect` arms with the prefilter both on and off, against the
//! fixed c-intersection run as ground truth.

use cuts::graph::datasets::{Dataset, Scale};
use cuts::graph::generators::{chain, clique, cycle, erdos_renyi, mesh2d, star};
use cuts::graph::Graph;
use cuts::prelude::*;
use cuts_core::IntersectStrategy;

/// Cyclic labels, enough classes to prune but not empty the result.
fn labels(n: usize, classes: u32) -> Vec<u32> {
    (0..n as u32).map(|v| v % classes).collect()
}

fn data_graphs() -> Vec<(&'static str, Graph)> {
    vec![
        (
            "enron-tiny",
            Dataset::Enron.generate(Scale::Custom(1.0 / 4096.0)),
        ),
        (
            "gowalla-tiny",
            Dataset::Gowalla.generate(Scale::Custom(1.0 / 4096.0)),
        ),
        ("mesh-8x8", mesh2d(8, 8)),
        ("er-60-300", erdos_renyi(60, 300, 23)),
        ("star-hub", star(48)),
        ("clique-7", clique(7)),
        (
            "er-labeled",
            erdos_renyi(50, 220, 7).with_labels(labels(50, 3)),
        ),
    ]
}

fn queries(labeled: bool) -> Vec<(&'static str, Graph)> {
    let mut qs = vec![
        ("triangle", clique(3)),
        ("k4", clique(4)),
        ("chain4", chain(4)),
        ("cycle4", cycle(4)),
    ];
    if labeled {
        qs = qs
            .into_iter()
            .map(|(n, q)| {
                let l = labels(q.num_vertices(), 3);
                (n, q.with_labels(l))
            })
            .collect();
    }
    qs
}

fn run(data: &Graph, query: &Graph, config: EngineConfig) -> MatchResult {
    let device = Device::new(DeviceConfig::test_small());
    ExecSession::new(&device, config).run(data, query).unwrap()
}

#[test]
fn all_strategies_and_prefilter_settings_agree() {
    for (dname, data) in data_graphs() {
        for (qname, query) in queries(data.is_labeled()) {
            // Ground truth per prefilter setting: the paper's fixed
            // c-intersection. The prefilter may shrink *intermediate*
            // trie levels (pruning candidates that could never complete),
            // so level counts are compared within a prefilter setting;
            // the final match count must be invariant across everything.
            let want: Vec<MatchResult> = [false, true]
                .iter()
                .map(|&pf| {
                    run(
                        &data,
                        &query,
                        EngineConfig::default()
                            .with_intersect(IntersectStrategy::CIntersection)
                            .with_signature_prefilter(pf),
                    )
                })
                .collect();
            assert_eq!(
                want[0].num_matches, want[1].num_matches,
                "{dname}/{qname}: prefilter must never change the count"
            );
            for (on, off) in want[1].level_counts.iter().zip(&want[0].level_counts) {
                assert!(
                    on <= off,
                    "{dname}/{qname}: prefilter may only shrink levels"
                );
            }
            for strat in [
                IntersectStrategy::Auto,
                IntersectStrategy::CIntersection,
                IntersectStrategy::PIntersection,
                IntersectStrategy::Bitmap,
            ] {
                for prefilter in [false, true] {
                    let got = run(
                        &data,
                        &query,
                        EngineConfig::default()
                            .with_intersect(strat)
                            .with_signature_prefilter(prefilter),
                    );
                    let want = &want[prefilter as usize];
                    let how = format!("{strat:?}/prefilter={prefilter}");
                    assert_eq!(
                        got.num_matches, want.num_matches,
                        "{dname}/{qname}: {how} count"
                    );
                    assert_eq!(
                        got.level_counts, want.level_counts,
                        "{dname}/{qname}: {how} level counts"
                    );
                }
            }
        }
    }
}

#[test]
fn prefilter_never_prunes_on_unlabeled_regular_graphs_incorrectly() {
    // A clique query on a clique data graph: every vertex satisfies the
    // signature, so the prefilter must be a no-op on the result.
    let data = clique(6);
    let query = clique(4);
    let on = run(
        &data,
        &query,
        EngineConfig::default().with_signature_prefilter(true),
    );
    let off = run(
        &data,
        &query,
        EngineConfig::default().with_signature_prefilter(false),
    );
    assert_eq!(on.num_matches, off.num_matches);
    assert_eq!(on.level_counts, off.level_counts);
}
