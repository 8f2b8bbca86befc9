//! Property-based invariants across the whole stack (proptest).

use proptest::prelude::*;

use cuts::baseline::{vf2, GsiEngine};
use cuts::dist::protocol::{Chunk, WorkPayload};
use cuts::engine::intersect::{c_intersection, p_intersection, ScatterScratch};
use cuts::engine::reference;
use cuts::gpu::BlockCounters;
use cuts::prelude::*;
use cuts::trie::HostTrie;

/// Random undirected graph as an edge list over `n` vertices.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..max_m)
            .prop_map(move |edges| Graph::undirected(n, &edges))
    })
}

/// Small connected query graph (from the exact enumeration).
fn arb_query() -> impl Strategy<Value = Graph> {
    (3usize..=5, 0usize..11).prop_map(|(n, i)| {
        let qs = cuts::graph::query_set(n, 11);
        qs[i % qs.len()].graph.clone()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_matches_reference(data in arb_graph(24, 80), query in arb_query()) {
        let device = Device::new(DeviceConfig::test_small());
        let got = ExecSession::new(&device, EngineConfig::default()).run(&data, &query).unwrap().num_matches;
        let want = reference::count_embeddings(&data, &query);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn gsi_and_vf2_match_reference(data in arb_graph(20, 60), query in arb_query()) {
        let device = Device::new(DeviceConfig::test_small());
        let want = reference::count_embeddings(&data, &query);
        let gsi = GsiEngine::new(&device).run(&data, &query).unwrap().num_matches;
        prop_assert_eq!(gsi, want);
        prop_assert_eq!(vf2::count(&data, &query), want);
    }

    #[test]
    fn chunking_never_changes_counts(data in arb_graph(20, 60), query in arb_query(), chunk in 1usize..16) {
        let roomy = Device::new(DeviceConfig::test_small());
        let want = ExecSession::new(&roomy, EngineConfig::default()).run(&data, &query).unwrap().num_matches;
        let tight = Device::new(DeviceConfig::test_small().with_global_mem_words(4096));
        let cfg = EngineConfig::default().with_chunk_size(chunk);
        // Tight runs may legitimately fail on capacity; when they
        // complete, the count must be identical.
        if let Ok(r) = ExecSession::new(&tight, cfg).run(&data, &query) {
            prop_assert_eq!(r.num_matches, want);
        }
    }

    #[test]
    fn intersection_kernels_agree(
        a in proptest::collection::btree_set(0u32..200, 0..60),
        b in proptest::collection::btree_set(0u32..200, 0..60),
        c in proptest::collection::btree_set(0u32..200, 0..60),
        vwarp in prop::sample::select(vec![1usize, 2, 4, 8, 16, 32]),
    ) {
        let a: Vec<u32> = a.into_iter().collect();
        let b: Vec<u32> = b.into_iter().collect();
        let c: Vec<u32> = c.into_iter().collect();
        let lists: Vec<&[u32]> = vec![&a, &b, &c];
        let mut ctr = BlockCounters::default();
        let (mut rc, mut rp, mut rs) = (Vec::new(), Vec::new(), Vec::new());
        c_intersection(&lists, vwarp, &mut ctr, &mut rc);
        p_intersection(&lists, vwarp, &mut ctr, &mut rp);
        ScatterScratch::new(200).scatter_vector(&lists, &mut ctr, &mut rs);
        prop_assert_eq!(&rc, &rp);
        prop_assert_eq!(&rc, &rs);
        prop_assert!(rc.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn trie_wire_roundtrip(paths in proptest::collection::vec(
        proptest::collection::vec(0u32..1000, 3), 0..50)) {
        let host = HostTrie::from_flat_paths(&paths);
        // A donated chunk is the root level of its seed trie: the roots
        // cross the wire unchanged, and the receiver's seed trie is that
        // root level.
        let roots = host.levels.first().map_or(Vec::new(), |l| host.ca[l.clone()].to_vec());
        let sent = WorkPayload {
            jobs: vec![Chunk { id: 1, roots: roots.clone() }],
        };
        let back = WorkPayload::decode(sent.encode()).unwrap();
        prop_assert_eq!(&back, &sent);
        let seed = HostTrie::from_roots(&back.jobs[0].roots);
        prop_assert_eq!(&seed.ca, &roots);
        if !paths.is_empty() {
            prop_assert_eq!(seed.paths_at_level(0), host.paths_at_level(0));
            let mut got = host.paths_at_level(2);
            got.sort();
            let mut want: Vec<_> = paths.clone();
            want.sort();
            want.dedup();
            got.dedup();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn distributed_equals_local(data in arb_graph(18, 50), ranks in 2usize..4) {
        let query = cuts::graph::generators::clique(3);
        let device = Device::new(DeviceConfig::test_small());
        let want = ExecSession::new(&device, EngineConfig::default()).run(&data, &query).unwrap().num_matches;
        let config = cuts::dist::DistConfig {
            device: DeviceConfig::test_small(),
            dist_chunk: 4,
            ..Default::default()
        };
        let got = cuts::dist::run(&data, &query, ranks, &config)
            .unwrap()
            .total_matches;
        prop_assert_eq!(got, want);
    }

    #[test]
    fn insert_then_inverse_restores_csr_and_always_bumps_fingerprint(
        g0 in arb_graph(24, 80),
        picks in proptest::collection::vec((0u32..24, 0u32..24), 1..12),
    ) {
        use cuts::graph::EdgeBatch;
        let mut g = g0.clone();
        let n = g.num_vertices() as u32;
        // Distinct absent non-loop edges: the only inserts a batch accepts.
        let mut batch = EdgeBatch::new();
        let mut chosen = std::collections::BTreeSet::new();
        for (a, b) in picks {
            let (u, v) = (a % n, b % n);
            let key = (u.min(v), u.max(v));
            if u != v && !g.has_edge(u, v) && chosen.insert(key) {
                batch.insert(key.0, key.1);
            }
        }
        if batch.is_empty() {
            continue; // dense draw left nothing insertable; next case
        }

        let bytes = |g: &Graph| {
            (
                g.out_csr().offsets().to_vec(),
                g.out_csr().targets().to_vec(),
                g.in_csr().offsets().to_vec(),
                g.in_csr().targets().to_vec(),
            )
        };
        let (before, fp0, v0) = (bytes(&g), g.fingerprint(), g.version());

        let delta = g.apply_batch(&batch).unwrap();
        prop_assert_eq!(delta.inserted.len(), 2 * batch.inserts().len());
        prop_assert!(g.version() > v0);
        let fp1 = g.fingerprint();
        prop_assert_ne!(fp1, fp0, "insert batch must move the fingerprint");

        g.apply_batch(&batch.inverse()).unwrap();
        prop_assert_eq!(bytes(&g), before, "inverse batch must restore the CSR bytes");
        let fp2 = g.fingerprint();
        // The CSR is back but history is not: the version-inclusive
        // fingerprint keeps moving so stale snapshots stay detectable.
        prop_assert_ne!(fp2, fp0);
        prop_assert_ne!(fp2, fp1);
    }

    #[test]
    fn snapshots_go_stale_on_any_committed_batch(
        g0 in arb_graph(20, 60),
        a in 0u32..20, b in 0u32..20,
    ) {
        use cuts::engine::{Snapshot, SnapshotError};
        use cuts::graph::EdgeBatch;
        let mut g = g0.clone();
        let n = g.num_vertices() as u32;
        let (u, v) = (a % n, b % n);
        if u == v || g.has_edge(u, v) {
            continue; // the drawn edit would be rejected; next case
        }

        let device = Device::new(DeviceConfig::test_small());
        let session = ExecSession::new(&device, EngineConfig::default());
        let snap = Snapshot::capture(&g, &session);
        prop_assert!(snap.validate_for(&g).is_ok(), "fresh snapshot validates");

        let mut batch = EdgeBatch::new();
        batch.insert(u, v);
        g.apply_batch(&batch).unwrap();
        prop_assert!(matches!(
            snap.validate_for(&g),
            Err(SnapshotError::StaleGraph { .. })
        ));
        // Undoing the edit does not resurrect the snapshot: the edit
        // happened, and anything derived from the old graph is suspect.
        g.apply_batch(&batch.inverse()).unwrap();
        prop_assert!(matches!(
            snap.validate_for(&g),
            Err(SnapshotError::StaleGraph { .. })
        ));
    }

    #[test]
    fn csf_equivalent_to_trie(paths in proptest::collection::vec(
        proptest::collection::vec(0u32..50, 4), 1..40)) {
        let host = HostTrie::from_flat_paths(&paths);
        let csf = cuts::trie::csf::Csf::from_host_trie(&host);
        let mut a = csf.full_paths();
        let mut b = host.paths_at_level(3);
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
        // CSF never larger than PA/CA for the same path set.
        prop_assert!(csf.words_used() <= 2 * host.len() + host.levels.len());
    }
}
