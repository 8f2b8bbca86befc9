//! Labelled subgraph matching (the extension the GSI comparator's design
//! centres on): labels constrain candidates when both graphs carry them,
//! and every engine must agree with the reference under that rule.

use cuts::baseline::{vf2, GsiEngine, GunrockEngine};
use cuts::engine::reference;
use cuts::graph::generators::{chain, clique, erdos_renyi};
use cuts::graph::labels::{degree_band_labels, random_labels, zipf_labels};
use cuts::prelude::*;

fn labeled_pair(seed: u64) -> (Graph, Graph) {
    let data = erdos_renyi(60, 240, seed);
    let dl = random_labels(60, 3, seed + 1);
    let data = data.with_labels(dl);
    let query = clique(3).with_labels(vec![0, 1, 2]);
    (data, query)
}

#[test]
fn engines_agree_on_labeled_graphs() {
    for seed in [1u64, 2, 3] {
        let (data, query) = labeled_pair(seed);
        let want = reference::count_embeddings(&data, &query);
        let device = Device::new(DeviceConfig::test_small());
        let cuts = ExecSession::new(&device, EngineConfig::default())
            .run(&data, &query)
            .unwrap();
        assert_eq!(cuts.num_matches, want, "cuts, seed {seed}");
        let gsi = GsiEngine::new(&device).run(&data, &query).unwrap();
        assert_eq!(gsi.num_matches, want, "gsi, seed {seed}");
        let gr = GunrockEngine::new(&device).run(&data, &query).unwrap();
        assert_eq!(gr.num_matches, want, "gunrock, seed {seed}");
        assert_eq!(vf2::count(&data, &query), want, "vf2, seed {seed}");
    }
}

#[test]
fn labels_prune_candidates() {
    let (data, query) = labeled_pair(7);
    let device = Device::new(DeviceConfig::test_small());
    let labeled = ExecSession::new(&device, EngineConfig::default())
        .run(&data, &query)
        .unwrap();
    // Same structure without labels admits strictly more embeddings
    // (unless the unlabeled count is already 0).
    let unl_data = erdos_renyi(60, 240, 7);
    let unl_query = clique(3);
    let unlabeled = ExecSession::new(&device, EngineConfig::default())
        .run(&unl_data, &unl_query)
        .unwrap();
    assert!(labeled.num_matches <= unlabeled.num_matches);
    assert!(labeled.level_counts[0] < unlabeled.level_counts[0]);
}

#[test]
fn labeled_embeddings_respect_labels() {
    let (data, query) = labeled_pair(11);
    let device = Device::new(DeviceConfig::test_small());
    let mut n = 0u64;
    ExecSession::new(&device, EngineConfig::default())
        .run_enumerate(&data, &query, &mut |m| {
            n += 1;
            for q in 0..3u32 {
                assert_eq!(data.label(m[q as usize]), query.label(q));
            }
        })
        .unwrap();
    assert!(n > 0, "labelled workload should still find matches");
}

#[test]
fn wildcard_semantics() {
    // Labelled data + unlabelled query behaves exactly like unlabelled.
    let data = erdos_renyi(40, 160, 13);
    let labeled_data = erdos_renyi(40, 160, 13).with_labels(random_labels(40, 4, 5));
    let query = chain(3);
    let device = Device::new(DeviceConfig::test_small());
    let a = ExecSession::new(&device, EngineConfig::default())
        .run(&data, &query)
        .unwrap();
    let b = ExecSession::new(&device, EngineConfig::default())
        .run(&labeled_data, &query)
        .unwrap();
    assert_eq!(a.num_matches, b.num_matches);
}

#[test]
fn distributed_labeled_matches_single_node() {
    let data = erdos_renyi(50, 200, 17).with_labels(zipf_labels(50, 4, 3));
    let query = clique(3).with_labels(vec![0, 0, 1]);
    let device = Device::new(DeviceConfig::test_small());
    let want = ExecSession::new(&device, EngineConfig::default())
        .run(&data, &query)
        .unwrap()
        .num_matches;
    let config = cuts::dist::DistConfig {
        device: DeviceConfig::test_small(),
        dist_chunk: 4,
        ..Default::default()
    };
    let r = cuts::dist::run(&data, &query, 3, &config).unwrap();
    assert_eq!(r.total_matches, want);
}

#[test]
fn degree_band_labels_work_as_selectors() {
    // Band labels let a query pin its root to hubs only.
    let data = Dataset::Enron.generate(Scale::Custom(1.0 / 8192.0));
    let bands = degree_band_labels(&data, 8);
    let max_band = *bands.iter().max().unwrap();
    let data = data.with_labels(bands.clone());
    // A single-vertex query labelled with the top band matches exactly
    // the vertices in that band.
    let q = Graph::undirected(1, &[]).with_labels(vec![max_band]);
    let device = Device::new(DeviceConfig::test_small());
    let got = ExecSession::new(&device, EngineConfig::default())
        .run(&data, &q)
        .unwrap()
        .num_matches;
    let expect = bands.iter().filter(|&&b| b == max_band).count() as u64;
    assert_eq!(got, expect);
}
