//! Property tests for the donation wire format
//! (`cuts_dist::protocol::WorkPayload`): the codec the donation protocol
//! trusts with work that crosses rank boundaries.
//!
//! Three families of properties:
//! * **round-trip identity** — encode→decode is the identity on valid
//!   payloads, byte-stably (re-encoding the decode yields the same bytes);
//! * **hostile input safety** — truncations, corruptions, and random
//!   garbage must come back as `WireError`, never a panic or an
//!   allocation sized by a hostile count, because a faulty interconnect
//!   hands the decoder exactly such bytes;
//! * **layout round-trips** — chunking partitions an entry range exactly
//!   (so chunk-at-a-time processing covers every path once), and the CSF
//!   layout reproduces the trie's path set and the closed-form word cost
//!   of the space model.

use bytes::Bytes;
use cuts::dist::protocol::{Chunk, WorkPayload};
use cuts::engine::WireError;
use cuts::trie::csf::Csf;
use cuts::trie::space::LevelCounts;
use cuts::trie::{Chunks, HostTrie};
use proptest::prelude::*;

/// Uniform-depth path sets (the `from_flat_paths` contract).
fn arb_paths(depth: usize, max: usize) -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..500, depth), 0..max)
}

/// Donation payloads: up to `max` chunks of up to 12 roots each.
fn arb_payload(max: usize) -> impl Strategy<Value = WorkPayload> {
    proptest::collection::vec(
        (any::<u64>(), proptest::collection::vec(0u32..500, 0..12)),
        0..max,
    )
    .prop_map(|jobs| WorkPayload {
        jobs: jobs
            .into_iter()
            .map(|(id, roots)| Chunk { id, roots })
            .collect(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn work_payload_roundtrip_identity(p in arb_payload(12)) {
        let enc = p.encode();
        let back = WorkPayload::decode(enc.clone()).expect("valid encoding");
        prop_assert_eq!(&back, &p);
        // Byte-stable: decode→encode reproduces the wire image.
        prop_assert_eq!(back.encode(), enc);
    }

    #[test]
    fn truncation_errors_never_panic(p in arb_payload(6), cut in 0usize..400) {
        let enc = p.encode();
        if cut < enc.len() {
            // Every proper prefix is missing bytes its counts promise.
            prop_assert_eq!(WorkPayload::decode(enc.slice(0..cut)), Err(WireError::Truncated));
        }
    }

    #[test]
    fn corruption_errors_never_panic(
        p in arb_payload(6),
        pos in 0usize..400,
        xor in 1u8..=255,
    ) {
        let mut raw = p.encode().to_vec();
        let pos = pos % raw.len();
        raw[pos] ^= xor;
        // Any outcome but a panic is acceptable; a successful decode of
        // corrupted bytes must be the canonical reading of those bytes.
        if let Ok(back) = WorkPayload::decode(Bytes::from(raw.clone())) {
            prop_assert_eq!(back.encode().to_vec(), raw);
        }
    }

    #[test]
    fn random_garbage_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..120)) {
        let _ = WorkPayload::decode(Bytes::from(bytes));
    }

    #[test]
    fn chunks_partition_range_exactly(
        start in 0usize..10_000,
        len in 0usize..5_000,
        size in 1usize..1_000,
    ) {
        let range = start..start + len;
        let chunks: Vec<_> = Chunks::new(range.clone(), size).collect();
        // Every chunk is non-empty and within the size bound, and their
        // concatenation reproduces the range exactly — contiguous, in
        // order, nothing skipped or repeated.
        let mut cursor = range.start;
        for c in &chunks {
            prop_assert!(!c.is_empty());
            prop_assert!(c.len() <= size);
            prop_assert_eq!(c.start, cursor);
            cursor = c.end;
        }
        prop_assert_eq!(cursor, range.end);
        // count() and the ExactSizeIterator length agree with the
        // closed form.
        prop_assert_eq!(Chunks::new(range.clone(), size).count(), len.div_ceil(size));
        prop_assert_eq!(Chunks::new(range, size).len(), len.div_ceil(size));
    }

    #[test]
    fn csf_roundtrips_trie_paths(paths in arb_paths(4, 30)) {
        let t = HostTrie::from_flat_paths(&paths);
        let csf = Csf::from_host_trie(&t);
        let depth = t.levels.len();
        prop_assert_eq!(csf.num_levels(), depth);
        if depth > 0 {
            // Same path set, independent of the per-parent reordering the
            // two-pass build performs.
            let mut a = csf.full_paths();
            let mut b = t.paths_at_level(depth - 1);
            a.sort();
            b.sort();
            prop_assert_eq!(a, b);
        } else {
            prop_assert!(csf.full_paths().is_empty());
        }
    }

    #[test]
    fn csf_words_match_space_model(paths in arb_paths(3, 40)) {
        // The concrete CSF layout must cost exactly what the closed-form
        // accounting in the space model predicts from level sizes alone.
        let t = HostTrie::from_flat_paths(&paths);
        let csf = Csf::from_host_trie(&t);
        let counts = LevelCounts(t.levels.iter().map(|r| r.len() as u64).collect());
        prop_assert_eq!(csf.words_used() as u64, counts.csf_words(t.levels.len()));
    }
}

// ---------------------------------------------------------------------------
// Snapshot codecs (`cuts_core::snapshot`): the warm-start container's
// building blocks obey the same property families — round-trip identity
// with byte-stable re-encoding, and garbage safety.
// ---------------------------------------------------------------------------

use cuts::engine::snapshot::{
    decode_graph, decode_plan, decode_profile, encode_graph, encode_plan, encode_profile, Snapshot,
};
use cuts::engine::{
    DeviceClass, EngineConfig, ExecSession, IntersectStrategy, OrderPolicy, QueryPlan,
};
use cuts::gpu::{Device, DeviceConfig};
use cuts::graph::generators::{chain, clique, cycle, erdos_renyi, star};
use cuts::graph::profile::{DataProfile, DegreeBucketStats};

/// Arbitrary degree statistics with an encodable (finite, non-negative)
/// mean.
fn arb_bucket() -> impl Strategy<Value = DegreeBucketStats> {
    (proptest::collection::vec(0u32..50_000, 11), 0u32..1_000_000).prop_map(|(d, avg_q)| {
        let mut deciles = [0u32; 11];
        deciles.copy_from_slice(&d);
        DegreeBucketStats {
            deciles,
            avg: avg_q as f64 / 16.0,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn profile_codec_roundtrip(
        out in arb_bucket(),
        inn in arb_bucket(),
        sigs in proptest::collection::vec(any::<u64>(), 0..48),
        labeled in any::<bool>(),
    ) {
        let p = DataProfile {
            out_degrees: out,
            in_degrees: inn,
            vertices: sigs.len(),
            signatures: sigs,
            labeled,
        };
        let enc = encode_profile(&p);
        let back = decode_profile(&enc).expect("valid profile encoding");
        prop_assert_eq!(&back, &p);
        prop_assert_eq!(encode_profile(&back), enc);
    }

    #[test]
    fn graph_codec_roundtrip(
        n in 2usize..40,
        m in 0usize..120,
        seed in any::<u64>(),
        classes in 1u32..5,
        labeled in any::<bool>(),
    ) {
        let mut g = erdos_renyi(n, m, seed);
        if labeled {
            g = g.with_labels((0..n as u32).map(|v| v % classes).collect());
        }
        let enc = encode_graph(&g);
        let back = decode_graph(&enc).expect("valid graph encoding");
        prop_assert_eq!(back.num_vertices(), g.num_vertices());
        prop_assert_eq!(back.num_edges(), g.num_edges());
        prop_assert_eq!(back.is_labeled(), g.is_labeled());
        let a: Vec<_> = back.edges().collect();
        let b: Vec<_> = g.edges().collect();
        prop_assert_eq!(a, b);
        // Byte-stable: the canonical form admits exactly one encoding.
        prop_assert_eq!(encode_graph(&back), enc);
    }

    #[test]
    fn plan_codec_roundtrip(
        qsel in 0usize..4,
        k in 2usize..6,
        cfg in 0usize..16,
        dev in 0usize..3,
        labeled in any::<bool>(),
    ) {
        let mut query = match qsel {
            0 => clique(k),
            1 => chain(k),
            2 => cycle(k.max(3)),
            _ => star(k),
        };
        if labeled {
            let n = query.num_vertices() as u32;
            query = query.with_labels((0..n).map(|v| v % 3).collect());
        }
        let config = EngineConfig::default()
            .with_order_policy(if cfg & 1 == 0 {
                OrderPolicy::DegreeGreedy
            } else {
                OrderPolicy::IdBfs
            })
            .with_intersect(match (cfg >> 1) & 3 {
                0 => IntersectStrategy::Auto,
                1 => IntersectStrategy::CIntersection,
                2 => IntersectStrategy::PIntersection,
                _ => IntersectStrategy::Bitmap,
            })
            .with_signature_prefilter(cfg & 8 == 0);
        let class = DeviceClass::of(&match dev {
            0 => DeviceConfig::test_small(),
            1 => DeviceConfig::v100_like(),
            _ => DeviceConfig::a100_like(),
        });
        let plan = QueryPlan::build(&query, &config, &class).expect("plannable query");
        let enc = encode_plan(&plan);
        let back = decode_plan(&enc).expect("valid plan encoding");
        // Structural equality covers the order, back-edge constraints,
        // per-level kernel schedule, fingerprints, and budget.
        prop_assert_eq!(&back, &plan);
        prop_assert_eq!(encode_plan(&back), enc);
    }

    #[test]
    fn snapshot_container_roundtrip_byte_stable(
        n in 8usize..30,
        m in 10usize..80,
        seed in any::<u64>(),
    ) {
        let data = erdos_renyi(n, m, seed);
        let device = Device::new(DeviceConfig::test_small());
        let session = ExecSession::new(&device, EngineConfig::default());
        session.run(&data, &clique(3)).unwrap();
        let snap = Snapshot::capture(&data, &session);
        let enc = snap.encode();
        let back = Snapshot::decode(&enc).expect("own encoding decodes");
        prop_assert_eq!(back.encode(), enc);
    }

    #[test]
    fn container_garbage_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..200)) {
        // Any outcome but a panic; random bytes cannot carry the magic
        // *and* a valid table *and* matching checksums by accident at
        // these sizes, so both decoders must report a typed error.
        prop_assert!(Snapshot::decode(&bytes).is_err());
        prop_assert!(cuts::engine::snapshot::inspect(&bytes).is_err());
    }
}

// ---------------------------------------------------------------------------
// Arena slab chains (`cuts_trie::table`): a trie stored as a chain of
// arena slabs must be observationally identical to one stored in a flat
// buffer — same paths out for the same paths in, regardless of slab
// size, growth schedule, or `into_table`/`from_table` recycling.
// ---------------------------------------------------------------------------

use cuts::gpu::{Arena, ClassSpec};
use cuts::trie::Trie;

/// Builds a chained trie from `host` level by level, growing the chain
/// only when a reservation overflows — the session's growth discipline.
fn load_growing(t: &mut Trie, host: &HostTrie) {
    for level in &host.levels {
        loop {
            match t.table().reserve(level.len()) {
                Ok(r) => {
                    for (k, i) in level.clone().enumerate() {
                        r.write(k, host.pa[i], host.ca[i]);
                    }
                    break;
                }
                Err(_) => {
                    let need = t.table().len() + level.len();
                    let target = (t.capacity() * 2).max(need).min(t.table().max_entries());
                    assert!(target > t.capacity(), "limit must cover the host trie");
                    t.grow_to(target).expect("chain growth within the limit");
                }
            }
        }
        t.seal_level();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn chained_trie_equals_flat_trie(
        paths in arb_paths(4, 30),
        slab_pow in 3u32..7,
    ) {
        let host = HostTrie::from_flat_paths(&paths);
        let total = host.pa.len().max(1);

        let mut flat = Trie::on_host(total);
        flat.load(&host).expect("flat capacity covers the host trie");

        let device = Device::new(DeviceConfig::test_small());
        let arena = Arena::new(
            &device,
            &[ClassSpec { slab_words: 1 << slab_pow, slabs: 64 }],
        )
        .expect("carve fits test_small");
        let table = cuts::trie::PairTable::chained_on_arena(&arena, 0, total, total)
            .expect("chain fits the class");
        let mut chained = Trie::from_table(table);
        chained.load(&host).expect("chain capacity covers the host trie");

        prop_assert!(chained.table().is_chained());
        prop_assert_eq!(chained.to_host(), flat.to_host());
        prop_assert_eq!(chained.to_host(), host);
    }

    #[test]
    fn grown_chain_equals_flat_trie(
        paths in arb_paths(5, 24),
        slab_pow in 3u32..6,
    ) {
        // Start the chain at a single slab and let reservation overflows
        // drive growth; committed entries and sealed levels must survive
        // every append.
        let host = HostTrie::from_flat_paths(&paths);
        let total = host.pa.len().max(1);

        let device = Device::new(DeviceConfig::test_small());
        let arena = Arena::new(
            &device,
            &[ClassSpec { slab_words: 1 << slab_pow, slabs: 64 }],
        )
        .expect("carve fits test_small");
        let table = cuts::trie::PairTable::chained_on_arena(&arena, 0, 1, total)
            .expect("chain fits the class");
        let mut chained = Trie::from_table(table);
        load_growing(&mut chained, &host);
        prop_assert_eq!(chained.to_host(), host.clone());

        // Slab acquire/release is the only storage traffic: exactly one
        // device allocation (the carve) regardless of how often we grew.
        prop_assert_eq!(arena.stats().device_allocs, 1);

        // Recycling the grown chain keeps its capacity and produces the
        // same trie again from a clean cursor.
        let cap = chained.capacity();
        let mut recycled = Trie::from_table(chained.into_table());
        prop_assert_eq!(recycled.capacity(), cap);
        prop_assert!(recycled.table().is_empty());
        recycled.load(&host).expect("recycled chain retains capacity");
        prop_assert_eq!(recycled.to_host(), host);
    }
}

#[test]
fn truncated_work_payload_is_wire_error() {
    let p = WorkPayload {
        jobs: vec![Chunk {
            id: 7,
            roots: vec![1, 2, 3],
        }],
    };
    let enc = p.encode();
    for cut in [0, 3, 4, enc.len() / 2, enc.len() - 1] {
        assert!(WorkPayload::decode(enc.slice(0..cut)).is_err(), "cut {cut}");
    }
}

#[test]
fn hostile_chunk_count_is_truncated_not_an_allocation() {
    // A count of u32::MAX chunks backed by one chunk's bytes must fail
    // on the missing bytes, without reserving room for the count first.
    let mut raw = u32::MAX.to_le_bytes().to_vec();
    raw.extend_from_slice(&9u64.to_le_bytes());
    raw.extend_from_slice(&0u32.to_le_bytes());
    assert_eq!(
        WorkPayload::decode(Bytes::from(raw)),
        Err(WireError::Truncated)
    );
}
