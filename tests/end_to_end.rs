//! Cross-crate integration tests: every engine (cuTS, GSI-style,
//! Gunrock-style, VF2, reference) must agree on every dataset stand-in,
//! and the paper-workload pipelines must compose.

use cuts::baseline::{vf2, GsiEngine, GunrockEngine};
use cuts::engine::reference;
use cuts::graph::generators::{chain, clique, cycle, star};
use cuts::graph::query_gen::query_set;
use cuts::prelude::*;

fn tiny_device() -> Device {
    Device::new(DeviceConfig::test_small())
}

#[test]
fn all_engines_agree_on_all_datasets() {
    for ds in Dataset::ALL {
        // Skewed stand-ins get an extra size reduction: their hubs make
        // chain-query embedding counts explode combinatorially, and the
        // sequential reference must enumerate every one.
        let scale = if ds.is_skewed() {
            1.0 / 16384.0
        } else {
            1.0 / 2048.0
        };
        let data = ds.generate(Scale::Custom(scale));
        for q in [clique(3), chain(3), cycle(4)] {
            let device = tiny_device();
            // GSI's flat storage needs a roomier budget on the skewed
            // stand-ins (its OOM behaviour is covered elsewhere; here we
            // compare counts where every engine completes).
            let roomy = Device::new(DeviceConfig::test_small().with_global_mem_words(32 << 20));
            let want = reference::count_embeddings(&data, &q);
            let cuts = ExecSession::new(&device, EngineConfig::default())
                .run(&data, &q)
                .unwrap()
                .num_matches;
            assert_eq!(cuts, want, "cuts vs reference on {ds}");
            let gsi = GsiEngine::new(&roomy).run(&data, &q).unwrap().num_matches;
            assert_eq!(gsi, want, "gsi vs reference on {ds}");
            let vf2c = vf2::count(&data, &q);
            assert_eq!(vf2c, want, "vf2 vs reference on {ds}");
            if GunrockEngine::encoding_fits(data.num_vertices(), q.num_vertices()) {
                let gr = GunrockEngine::new(&roomy)
                    .run(&data, &q)
                    .unwrap()
                    .num_matches;
                assert_eq!(gr, want, "gunrock vs reference on {ds}");
            }
        }
    }
}

#[test]
fn paper_query_suite_on_enron_standin() {
    // The 5-vertex top-11 suite end-to-end against the reference.
    let data = Dataset::Enron.generate(Scale::Custom(1.0 / 2048.0));
    let device = tiny_device();
    let session = ExecSession::new(&device, EngineConfig::default());
    for q in query_set(5, 11) {
        let want = reference::count_embeddings(&data, &q.graph);
        let got = session.run(&data, &q.graph).unwrap().num_matches;
        assert_eq!(got, want, "{}", q.name);
    }
}

#[test]
fn distributed_equals_single_node_on_suite() {
    let data = Dataset::Gowalla.generate(Scale::Custom(1.0 / 2048.0));
    let device = tiny_device();
    let session = ExecSession::new(&device, EngineConfig::default());
    let config = cuts::dist::DistConfig {
        device: DeviceConfig::test_small(),
        dist_chunk: 8,
        ..Default::default()
    };
    for q in query_set(4, 6) {
        let want = session.run(&data, &q.graph).unwrap().num_matches;
        for ranks in [2usize, 3] {
            let got = cuts::dist::run(&data, &q.graph, ranks, &config)
                .unwrap()
                .total_matches;
            assert_eq!(got, want, "{} @ {ranks} ranks", q.name);
        }
    }
}

#[test]
fn chunked_and_unchunked_agree_on_standins() {
    let data = Dataset::WikiTalk.generate(Scale::Custom(1.0 / 4096.0));
    let q = clique(4);
    let roomy = tiny_device();
    let want = ExecSession::new(&roomy, EngineConfig::default())
        .run(&data, &q)
        .unwrap();
    // Find a budget that forces chunking but still completes.
    let need = 2 * want.level_counts.iter().sum::<u64>() as usize;
    let tight = Device::new(DeviceConfig::test_small().with_global_mem_words(need / 2));
    let got = ExecSession::new(&tight, EngineConfig::default().with_chunk_size(16))
        .run(&data, &q)
        .unwrap();
    assert!(got.used_chunking);
    assert_eq!(got.num_matches, want.num_matches);
    assert_eq!(got.level_counts, want.level_counts);
}

#[test]
fn storage_accounting_matches_run() {
    // The MatchResult's space view must equal recomputing from counts.
    let data = Dataset::RoadNetPA.generate(Scale::Custom(1.0 / 2048.0));
    let device = tiny_device();
    let r = ExecSession::new(&device, EngineConfig::default())
        .run(&data, &chain(4))
        .unwrap();
    let counts = cuts::trie::space::LevelCounts(r.level_counts.clone());
    assert_eq!(r.cuts_words(), counts.cuts_words(r.level_counts.len()));
    assert_eq!(r.naive_words(), counts.naive_words(r.level_counts.len()));
    // Depth-1 ratio is always 0.5 (PA+CA vs one word per root).
    assert!((counts.compression_ratio(1) - 0.5).abs() < 1e-12);
}

#[test]
fn enumeration_roundtrips_through_wire_format() {
    // Enumerate embeddings, ship their roots as a donation payload,
    // decode, and re-enumerate from the decoded roots — the full §4.2
    // data path without threads.
    use cuts::dist::protocol::{Chunk, WorkPayload};
    use cuts::trie::HostTrie;
    let data = Dataset::Enron.generate(Scale::Custom(1.0 / 4096.0));
    let q = clique(3);
    let device = tiny_device();
    let session = ExecSession::new(&device, EngineConfig::default());
    let plan = session.plan_over(&data, &q).unwrap();
    let mut paths = Vec::new();
    session
        .run_enumerate(&data, &q, &mut |m| paths.push(m.to_vec()))
        .unwrap();
    let mut roots: Vec<u32> = paths
        .iter()
        .map(|m| m[plan.order.order[0] as usize])
        .collect();
    roots.sort_unstable();
    roots.dedup();
    let sent = WorkPayload {
        jobs: vec![Chunk { id: 0, roots }],
    };
    let back = WorkPayload::decode(sent.encode()).unwrap();
    let seed = HostTrie::from_roots(&back.jobs[0].roots);
    let mut got = Vec::new();
    session
        .run_seeded_enumerate(&plan, &data, &seed, &mut |m| got.push(m.to_vec()))
        .unwrap();
    got.sort();
    let mut want = paths.clone();
    want.sort();
    assert_eq!(got, want);
}

#[test]
fn star_queries_and_hubs() {
    // Star queries stress the degree filter: only hubs can host the root.
    // Keep the star small: a hub of degree d hosts d!/(d-k+1)! embeddings
    // of star(k), so large k on a hubby graph is combinatorially explosive.
    let data = Dataset::RoadNetPA.generate(Scale::Custom(1.0 / 2048.0));
    let device = tiny_device();
    let session = ExecSession::new(&device, EngineConfig::default());
    for k in [3usize, 4] {
        let q = star(k);
        let want = reference::count_embeddings(&data, &q);
        assert_eq!(
            session.run(&data, &q).unwrap().num_matches,
            want,
            "star({k})"
        );
    }
}
