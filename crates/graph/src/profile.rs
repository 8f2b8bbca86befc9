//! Data-graph profiling pass: degree-bucket statistics plus a GSI-style
//! label+degree neighbourhood signature per vertex.
//!
//! The profile is computed once per data graph (lazily, cached on
//! [`Graph`], and patched in place by [`Graph::apply_batch`]) and
//! consumed at plan time: the degree quantiles drive the
//! per-level micro-kernel policy, and the signatures prefilter level-0
//! candidates before the Definition 5 degree test — both pure data-graph
//! properties, independent of any particular query.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::graph::{Graph, VertexId};

/// Process-wide count of full profiling passes ([`DataProfile::build`]).
static PROFILE_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Number of profiling passes run so far in this process. Warm-start
/// tests diff this counter around a snapshot restore to prove the graph
/// was never re-profiled (a decoded profile is installed into the
/// [`Graph`] cache without a build).
pub fn profile_builds() -> u64 {
    PROFILE_BUILDS.load(Ordering::Relaxed)
}

/// Mask covering the four label lanes of a [`vertex_signature`] (bytes
/// 4–7). A query-side signature must have these lanes zeroed unless both
/// graphs are labelled, mirroring the wildcard semantics of
/// [`Graph::label_compatible`].
pub const SIG_LABEL_MASK: u64 = 0xFFFF_FFFF_0000_0000;

/// Packed 8-lane neighbourhood signature of vertex `v` (one byte per
/// lane, saturating at 255):
///
/// * lane 0 — out-neighbours whose out-degree is ≥ 2
/// * lane 1 — out-neighbours whose out-degree is ≥ 8
/// * lane 2 — in-neighbours whose in-degree is ≥ 2
/// * lane 3 — in-neighbours whose in-degree is ≥ 8
/// * lanes 4–7 — out-neighbours whose label is ≡ lane−4 (mod 4); all
///   zero on unlabelled graphs.
///
/// **Soundness.** Any embedding maps the (out/in-)neighbours of a query
/// vertex *injectively* onto (out/in-)neighbours of its image whose
/// degrees dominate and whose labels match. Each lane counts neighbours
/// satisfying a property preserved under that mapping, so every lane of
/// the query signature is a lower bound for the corresponding lane of
/// the data signature — byte-wise dominance is a *necessary* condition
/// and the prefilter can never drop a true match (label lanes only when
/// both sides are labelled; see [`required_signature`]).
pub fn vertex_signature(g: &Graph, v: VertexId) -> u64 {
    let mut lanes = [0u16; 8];
    for &w in g.out_neighbors(v) {
        let d = g.out_degree(w);
        if d >= 2 {
            lanes[0] += 1;
        }
        if d >= 8 {
            lanes[1] += 1;
        }
        if let Some(l) = g.label(w) {
            lanes[4 + (l % 4) as usize] += 1;
        }
    }
    for &w in g.in_neighbors(v) {
        let d = g.in_degree(w);
        if d >= 2 {
            lanes[2] += 1;
        }
        if d >= 8 {
            lanes[3] += 1;
        }
    }
    let mut sig = 0u64;
    for (i, &c) in lanes.iter().enumerate() {
        sig |= (c.min(255) as u64) << (8 * i);
    }
    sig
}

/// Byte-wise dominance test: every lane of `data_sig` is ≥ the matching
/// lane of `query_sig`. SWAR-free for clarity; eight byte compares.
#[inline]
pub fn sig_dominates(data_sig: u64, query_sig: u64) -> bool {
    let (mut d, mut q) = (data_sig, query_sig);
    for _ in 0..8 {
        if (d & 0xFF) < (q & 0xFF) {
            return false;
        }
        d >>= 8;
        q >>= 8;
    }
    true
}

/// Masks a query-side signature down to the lanes that are sound to
/// require: label lanes participate only when *both* graphs are
/// labelled (an unlabelled side is a wildcard, so label counts carry no
/// constraint).
#[inline]
pub fn required_signature(query_sig: u64, query_labeled: bool, data_labeled: bool) -> u64 {
    if query_labeled && data_labeled {
        query_sig
    } else {
        query_sig & !SIG_LABEL_MASK
    }
}

/// Degree-bucket statistics of one adjacency direction, summarised as
/// deciles of the sorted degree array (plus mean). Deciles are all the
/// plan-time policy needs: it reasons about "the short list among χ
/// draws" and "a typical list", not exact histograms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeBucketStats {
    /// `deciles[i]` is the i·10-th percentile degree; `deciles[0]` is
    /// the minimum and `deciles[10]` the maximum.
    pub deciles: [u32; 11],
    /// Mean degree.
    pub avg: f64,
}

impl DegreeBucketStats {
    /// Deciles and mean of `degs` from one counting pass: a histogram
    /// indexed by degree stands in for sorting the array.
    fn from_degrees(degs: impl IntoIterator<Item = u32>) -> Self {
        let mut counts: Vec<u32> = Vec::new();
        let (mut n, mut sum) = (0usize, 0u64);
        for d in degs {
            if d as usize >= counts.len() {
                counts.resize(d as usize + 1, 0);
            }
            counts[d as usize] += 1;
            n += 1;
            sum += d as u64;
        }
        let mut deciles = [0u32; 11];
        if n == 0 {
            return DegreeBucketStats { deciles, avg: 0.0 };
        }
        // `le` counts the degrees ≤ `d`; decile `i` is the sorted
        // array's element at `idx`, the first degree whose `le` passes it.
        let (mut d, mut le) = (0usize, counts[0] as usize);
        for (i, slot) in deciles.iter_mut().enumerate() {
            let idx = (i * (n - 1)).div_ceil(10).min(n - 1);
            while le <= idx {
                d += 1;
                le += counts[d] as usize;
            }
            *slot = d as u32;
        }
        DegreeBucketStats {
            deciles,
            avg: sum as f64 / n as f64,
        }
    }

    /// Nearest-decile percentile lookup, `p` in `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u32 {
        let i = (p / 10.0).round().clamp(0.0, 10.0) as usize;
        self.deciles[i]
    }

    /// Median degree.
    #[inline]
    pub fn p50(&self) -> u32 {
        self.deciles[5]
    }

    /// 90th-percentile degree.
    #[inline]
    pub fn p90(&self) -> u32 {
        self.deciles[9]
    }

    /// Maximum degree.
    #[inline]
    pub fn max(&self) -> u32 {
        self.deciles[10]
    }
}

/// The cached per-graph profile: degree statistics for both adjacency
/// directions and one packed signature per vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct DataProfile {
    /// Out-degree statistics (constraint lists are adjacency slices, so
    /// these are the list-length distribution the policy prices).
    pub out_degrees: DegreeBucketStats,
    /// In-degree statistics.
    pub in_degrees: DegreeBucketStats,
    /// `signatures[v]` is [`vertex_signature`] of `v`.
    pub signatures: Vec<u64>,
    /// Number of vertices (bitmap-span upper bound at plan time).
    pub vertices: usize,
    /// Whether the profiled graph carries labels.
    pub labeled: bool,
}

impl DataProfile {
    /// Runs the profiling pass over `g`. O(V + E).
    pub fn build(g: &Graph) -> DataProfile {
        PROFILE_BUILDS.fetch_add(1, Ordering::Relaxed);
        let n = g.num_vertices() as VertexId;
        DataProfile::with_signatures(g, (0..n).map(|v| vertex_signature(g, v)).collect())
    }

    /// The profile of `g` after a batch whose changed arcs all have an
    /// endpoint in `touched`, given `self`, the profile of `g` before
    /// it. Equal to [`DataProfile::build`] of `g` (not counted as a
    /// build), but only the signatures that can have changed are
    /// recomputed: a signature reads its vertex's own arcs and the
    /// degrees of its neighbours, so it is stale only on a touched
    /// vertex or a neighbour of one in `g`.
    pub fn patched(&self, g: &Graph, touched: &[VertexId]) -> DataProfile {
        let mut stale: Vec<VertexId> = touched
            .iter()
            .flat_map(|&t| {
                std::iter::once(t)
                    .chain(g.out_neighbors(t).iter().copied())
                    .chain(g.in_neighbors(t).iter().copied())
            })
            .collect();
        stale.sort_unstable();
        stale.dedup();
        let mut signatures = self.signatures.clone();
        for v in stale {
            signatures[v as usize] = vertex_signature(g, v);
        }
        DataProfile::with_signatures(g, signatures)
    }

    /// Degree statistics of `g` around already-computed signatures.
    fn with_signatures(g: &Graph, signatures: Vec<u64>) -> DataProfile {
        let n = g.num_vertices() as VertexId;
        DataProfile {
            out_degrees: DegreeBucketStats::from_degrees((0..n).map(|v| g.out_degree(v))),
            in_degrees: DegreeBucketStats::from_degrees((0..n).map(|v| g.in_degree(v))),
            signatures,
            vertices: n as usize,
            labeled: g.is_labeled(),
        }
    }

    /// Arc-wrapped build, the form [`Graph::profile`] caches.
    pub fn build_arc(g: &Graph) -> Arc<DataProfile> {
        Arc::new(DataProfile::build(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{chain, clique, star};
    use proptest::prelude::*;

    #[test]
    fn dominance_is_per_byte() {
        assert!(sig_dominates(0x0303, 0x0203));
        assert!(!sig_dominates(0x0103, 0x0203));
        // High-lane deficit must not be hidden by low-lane surplus.
        assert!(!sig_dominates(0x00FF, 0x0100));
        assert!(sig_dominates(u64::MAX, u64::MAX));
        assert!(sig_dominates(0, 0));
    }

    #[test]
    fn signature_counts_degree_lanes() {
        // Star centre: 4 spokes, each of degree 1 → no lane-0 hits.
        let g = star(5);
        let sig_centre = vertex_signature(&g, 0);
        assert_eq!(sig_centre & 0xFF, 0);
        // Spoke: one neighbour (the centre) of degree 4 → lane 0 = 1.
        let sig_spoke = vertex_signature(&g, 1);
        assert_eq!(sig_spoke & 0xFF, 1);
        // Symmetric graph: in-lanes mirror out-lanes.
        assert_eq!((sig_spoke >> 16) & 0xFF, 1);
    }

    #[test]
    fn signature_saturates() {
        // Star with 600 spokes: centre degree 600 ≥ 8, every spoke sees
        // it in lanes 0–3; the centre's lanes stay 0 but each spoke's
        // count of high-degree neighbours is 1. Build a clique instead
        // to hit saturation: K20 gives 19 qualifying neighbours; use a
        // synthetic heavy case via labels.
        let n = 300;
        let edges: Vec<_> = (1..n as VertexId).map(|v| (0, v)).collect();
        let g = Graph::undirected(n, &edges).with_labels(vec![0; n]);
        // Centre has 299 out-neighbours all labelled 0: lane 4 saturates.
        let sig = vertex_signature(&g, 0);
        assert_eq!((sig >> 32) & 0xFF, 255);
    }

    #[test]
    fn embedding_signature_dominance_holds() {
        // Chain(3) embeds into clique(4): every clique vertex must
        // dominate every chain vertex's signature (necessary condition).
        let q = chain(3);
        let d = clique(4);
        for qv in 0..3 {
            let qs = required_signature(vertex_signature(&q, qv), q.is_labeled(), d.is_labeled());
            for dv in 0..4 {
                assert!(
                    sig_dominates(vertex_signature(&d, dv), qs),
                    "clique vertex {dv} must dominate chain vertex {qv}"
                );
            }
        }
    }

    #[test]
    fn label_lanes_masked_unless_both_labeled() {
        let q = clique(3).with_labels(vec![1, 1, 1]);
        let qs = vertex_signature(&q, 0);
        assert_ne!(qs & SIG_LABEL_MASK, 0);
        // Unlabelled data graph: label lanes must not constrain.
        assert_eq!(required_signature(qs, true, false) & SIG_LABEL_MASK, 0);
        assert_eq!(required_signature(qs, true, true), qs);
    }

    #[test]
    fn decile_stats_of_star() {
        let g = star(11);
        let p = DataProfile::build(&g);
        // Ten spokes of degree 1, one centre of degree 10.
        assert_eq!(p.out_degrees.p50(), 1);
        assert_eq!(p.out_degrees.max(), 10);
        assert!((p.out_degrees.avg - 20.0 / 11.0).abs() < 1e-12);
        assert_eq!(p.vertices, 11);
        assert!(!p.labeled);
    }

    #[test]
    fn empty_graph_profile() {
        let g = Graph::directed(0, &[]);
        let p = DataProfile::build(&g);
        assert_eq!(p.out_degrees.max(), 0);
        assert_eq!(p.signatures.len(), 0);
    }

    #[test]
    fn counting_deciles_match_a_sort() {
        let degs = [7u32, 0, 3, 3, 9, 1, 1, 4, 12, 2, 0, 5, 3];
        let mut sorted = degs.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let stats = DegreeBucketStats::from_degrees(degs);
        for (i, &d) in stats.deciles.iter().enumerate() {
            assert_eq!(
                d,
                sorted[(i * (n - 1)).div_ceil(10).min(n - 1)],
                "decile {i}"
            );
        }
        assert_eq!(stats.avg, 50.0 / 13.0);
    }

    // After random insert/delete batches on symmetric, directed and
    // labelled graphs, the patched profile equals a fresh profiling pass
    // over the edited graph.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn patched_profile_equals_rebuild(
            n in 2usize..24,
            arcs in prop::collection::vec((0u32..24, 0u32..24), 0..120),
            kind in 0u8..3,
            ops in prop::collection::vec((any::<bool>(), 0u32..24, 0u32..24), 1..60),
        ) {
            use crate::batch::EdgeBatch;
            use std::collections::BTreeSet;
            let n32 = n as VertexId;
            let arcs: Vec<_> = arcs.iter().map(|&(u, v)| (u % n32, v % n32)).collect();
            let mut g = match kind {
                0 => Graph::undirected(n, &arcs),
                1 => Graph::directed(n, &arcs),
                _ => Graph::directed(n, &arcs).with_labels((0..n as u32).map(|v| v * 7 % 6).collect()),
            };
            for chunk in ops.chunks(5) {
                let before = g.profile();
                let mut batch = EdgeBatch::new();
                let mut named = BTreeSet::new();
                for &(insert, u, v) in chunk {
                    let (u, v) = (u % n32, v % n32);
                    let key = if g.is_symmetric() { (u.min(v), u.max(v)) } else { (u, v) };
                    if u == v || g.has_edge(u, v) == insert || !named.insert(key) {
                        continue;
                    }
                    if insert { batch.insert(u, v); } else { batch.delete(u, v); }
                }
                g.apply_batch(&batch).unwrap();
                let after = g.profile();
                prop_assert_eq!(&*after, &DataProfile::build(&g));
                if !batch.is_empty() {
                    prop_assert!(!Arc::ptr_eq(&before, &after));
                }
            }
        }
    }

    #[test]
    fn profile_cache_resets_on_relabel() {
        let g = clique(4);
        let before = g.profile();
        assert!(!before.labeled);
        let g = g.with_labels(vec![0, 1, 2, 3]);
        let after = g.profile();
        assert!(after.labeled);
        assert_ne!(before.signatures, after.signatures);
    }
}
