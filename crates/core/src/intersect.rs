//! Intersection micro-kernels (§4.1.3, Algorithm 2).
//!
//! Three strategies intersect the adjacency lists of the already-matched
//! neighbours of the query vertex being extended:
//!
//! * [`ScatterScratch::scatter_vector`] — the SpGEMM-style scatter-vector:
//!   O(χ·δ) time but O(|V|) scratch *per worker*, which the paper rules
//!   out on device; kept as the CPU reference and ablation baseline.
//! * [`c_intersection`] — stream each subsequent list against a shared-
//!   memory buffer holding the running intersection.
//! * [`p_intersection`] — keep only the first list and verify each of its
//!   candidates against the remaining constraints by probing their sorted
//!   adjacency. (Probing `v ∈ children(a_k)` is exactly the paper's
//!   "parent set of `v` includes `a_k`" check, expressed on the same CSR.)
//! * [`b_intersection`] — the GSI-style bitmap probe: encode the shortest
//!   list as a word-packed bitmap over its value span in shared memory,
//!   then stream every other list against it with O(1) probes.
//!
//! [`choose`] implements the adaptive selection the paper alludes to: pick
//! whichever of c/p/b moves fewer words for the lists at hand *and* fits
//! the block's shared-memory budget (the c and b arms both keep state
//! resident in shared memory; an arm whose buffer cannot fit is never
//! selected).
//!
//! All kernels are instrumented: they charge DRAM/shared traffic and the
//! masked-lane idle slots implied by the virtual-warp width, which is how
//! the thread-idling claims of §4.1.2 become measurable.
//!
//! The host computes every arm the same way (`merge_passes`): the
//! running set starts as the first list and each later one narrows it in
//! place. A later list that is a hub's ([`Adj::row`], see
//! [`cuts_graph::hubs`]) narrows it by one branch-free bit probe per
//! running element; any other list by a linear merge when sizes are
//! close, or by galloping when one side is at least `GALLOP_RATIO` (8)
//! times the other. What distinguishes the arms is their counters, and
//! those are each arm's cost model, charged from each pass's list length
//! and running-set sizes alone — so a hub row changes no counter, and
//! the probes, buffers and bitmaps the device would use never exist on
//! the host.

use cuts_gpu_sim::BlockCounters;
use cuts_graph::{Graph, HubRow, VertexId};

use crate::order::Dir;

/// A list as the arms read it: its ids and, when it has one, a bit row
/// that answers membership in O(1).
pub trait AdjList {
    /// The list, sorted and duplicate-free.
    fn ids(&self) -> &[VertexId];

    /// The list's membership test by bit probe, if it has a bit row; a
    /// pass narrows by it instead of merging through [`AdjList::ids`].
    fn row(&self) -> Option<impl Fn(VertexId) -> bool + '_> {
        None::<fn(VertexId) -> bool>
    }
}

/// Any borrowed id list, without a row.
impl<T: AsRef<[VertexId]> + ?Sized> AdjList for &T {
    #[inline]
    fn ids(&self) -> &[VertexId] {
        (**self).as_ref()
    }
}

/// A data vertex's adjacency in one direction, with its hub row if it
/// has one.
#[derive(Clone, Copy, Debug, Default)]
pub struct Adj<'a> {
    /// The sorted neighbour ids.
    pub ids: &'a [VertexId],
    /// The same set as bits, for a hub.
    pub row: Option<HubRow<'a>>,
}

impl AdjList for Adj<'_> {
    #[inline]
    fn ids(&self) -> &[VertexId] {
        self.ids
    }

    #[inline]
    fn row(&self) -> Option<impl Fn(VertexId) -> bool + '_> {
        self.row.map(|r| move |v| r.contains(v))
    }
}

/// Adjacency list that constrains the next candidate: neighbours of the
/// already-matched data vertex in the direction the query edge demands.
#[inline]
pub fn constraint_list(g: &Graph, matched: VertexId, dir: Dir) -> Adj<'_> {
    match dir {
        Dir::In => Adj {
            ids: g.in_neighbors(matched),
            row: g.in_row(matched),
        },
        Dir::Out => Adj {
            ids: g.out_neighbors(matched),
            row: g.out_row(matched),
        },
    }
}

/// Ceil-log2 with a floor of 1 (binary-search probe cost in words).
#[inline]
pub(crate) fn probe_cost(len: usize) -> usize {
    usize::BITS as usize - len.max(2).leading_zeros() as usize
}

/// Device words (u32) of a bit-per-value bitmap covering `span` values.
#[inline]
pub(crate) fn bitmap_words(span: usize) -> usize {
    span.div_ceil(32)
}

/// Value span (`last − first + 1`) of a sorted non-empty list.
#[inline]
fn list_span(list: &[VertexId]) -> usize {
    match (list.first(), list.last()) {
        (Some(&lo), Some(&hi)) => (hi - lo) as usize + 1,
        _ => 0,
    }
}

/// Charges the masked-lane idle slots of processing `len` elements with a
/// virtual warp of `width` lanes: lanes in the final, partially-filled
/// group execute predicated no-ops.
#[inline]
fn charge_idle(ctr: &mut BlockCounters, len: usize, width: usize) {
    let slots = len.div_ceil(width.max(1)) * width;
    let idle = slots - len;
    if idle > 0 {
        ctr.alu(idle);
        ctr.diverge();
    }
}

/// A running set at least this many times shorter than the list it meets
/// gallops through that list; closer sizes take a linear merge.
const GALLOP_RATIO: usize = 8;

/// Index of the first element of sorted `s` that is `>= v`: exponential
/// probes from the front, then a binary search inside the last step.
#[inline]
fn gallop(s: &[VertexId], v: VertexId) -> usize {
    let mut end = 1;
    while end < s.len() && s[end] < v {
        end *= 2;
    }
    let start = end / 2;
    start + s[start..(end + 1).min(s.len())].partition_point(|&x| x < v)
}

/// Narrows the sorted running set `run`, in place, to the values it
/// shares with sorted `list`. Survivors are a subsequence of `run`, so
/// each is written over a prefix slot the merge has already passed.
fn retain_common(run: &mut Vec<VertexId>, list: &[VertexId]) {
    let (n, m) = (run.len(), list.len());
    let skewed = n.min(m) * GALLOP_RATIO <= n.max(m);
    let (mut i, mut j, mut w) = (0, 0, 0);
    while i < n && j < m {
        let (a, b) = (run[i], list[j]);
        run[w] = a;
        w += (a == b) as usize;
        if skewed && a < b {
            i += gallop(&run[i..], b);
        } else if skewed && b < a {
            j += gallop(&list[j..], a);
        } else {
            i += (a <= b) as usize;
            j += (b <= a) as usize;
        }
    }
    run.truncate(w);
}

/// Narrows `run`, in place, to the values `has` accepts: one probe per
/// element, and the write cursor advances by the probe's bit, with no
/// branch.
fn retain_probed(run: &mut Vec<VertexId>, has: impl Fn(VertexId) -> bool) {
    let mut w = 0;
    for i in 0..run.len() {
        let v = run[i];
        run[w] = v;
        w += has(v) as usize;
    }
    run.truncate(w);
}

/// The host computation behind every arm: `out` starts as the first list
/// and each later list narrows it, in order, by its bit row when it has
/// one and by a merge otherwise, until it runs empty (later lists are
/// then never visited). `pass(list, before, after)` sees each visited
/// list with the running-set sizes around it — all an arm's cost model
/// charges from.
fn merge_passes<L: AdjList>(
    lists: &[L],
    out: &mut Vec<VertexId>,
    mut pass: impl FnMut(&[VertexId], usize, usize),
) {
    out.clear();
    let Some((first, rest)) = lists.split_first() else {
        return;
    };
    out.extend_from_slice(first.ids());
    for list in rest {
        if out.is_empty() {
            return;
        }
        let before = out.len();
        match list.row() {
            Some(has) => retain_probed(out, has),
            None => retain_common(out, list.ids()),
        }
        pass(list.ids(), before, out.len());
    }
}

/// c-intersection (Algorithm 2, lines 19-31). `lists` must be sorted;
/// the result in `out` is sorted. Empty `lists` yields an empty result.
pub fn c_intersection<L: AdjList>(
    lists: &[L],
    vwarp: usize,
    ctr: &mut BlockCounters,
    out: &mut Vec<VertexId>,
) {
    if let Some(first) = lists.first() {
        c_load(first.ids(), vwarp, ctr);
    }
    merge_passes(lists, out, |list, before, after| {
        // Lanes load this constraint's children to registers, coalesced,
        // then each binary-probes the shared buffer; interset2 replaces
        // interset1 in shared memory.
        ctr.dram_read_coalesced(list.len());
        charge_idle(ctr, list.len(), vwarp);
        ctr.shmem_read(list.len() * probe_cost(before));
        ctr.shmem_write(after);
    });
}

/// p-intersection (Algorithm 2, lines 33-42). `lists` must be sorted; the
/// result is sorted (subsequence of the first list).
pub fn p_intersection<L: AdjList>(
    lists: &[L],
    vwarp: usize,
    ctr: &mut BlockCounters,
    out: &mut Vec<VertexId>,
) {
    let Some(first) = lists.first() else {
        out.clear();
        return;
    };
    p_load(first.ids(), vwarp, ctr);
    merge_passes(lists, out, |list, before, _| {
        // Every candidate still standing binary-probes the constraint's
        // adjacency in global memory: uncoalesced, log(len) words each.
        ctr.dram_read_random_n(before, probe_cost(list.len()));
    });
    p_store(out.len(), ctr);
}

/// b-intersection (bitmap probe). The shortest list is encoded as a
/// word-packed bitmap over its value span in shared memory, then every
/// other list is streamed against it: one coalesced read per constraint
/// word, one O(1) shared probe per in-span element — no log-cost probes
/// at all. Hits are re-encoded into a second bitmap (double-buffered like
/// the c-kernel's interset1/interset2), and the survivors are extracted
/// in ascending order at the end.
///
/// `lists` must be sorted and duplicate-free (CSR adjacency guarantees
/// both); the result in `out` is sorted. When the double-buffered bitmap
/// would not fit `shared_words`, the kernel degrades to
/// [`c_intersection`] — identical results, honestly charged.
pub fn b_intersection<L: AdjList>(
    lists: &[L],
    vwarp: usize,
    shared_words: usize,
    ctr: &mut BlockCounters,
    out: &mut Vec<VertexId>,
) {
    out.clear();
    let Some(first) = lists.first().map(L::ids) else {
        return;
    };
    let (Some(&lo), Some(&hi)) = (first.first(), first.last()) else {
        return;
    };
    let Some(words) = bitmap_fit(first, shared_words) else {
        // Span too wide for the double-buffered bitmap: fall back.
        return c_intersection(lists, vwarp, ctr, out);
    };
    b_load(first, words, vwarp, ctr);
    merge_passes(lists, out, |list, _, after| {
        // Stream the constraint coalesced and zero the target bitmap; one
        // shared probe per in-span element (the out-of-span bounds test is
        // register-only ALU), one bit set per hit.
        let in_span = list.partition_point(|&v| v <= hi) - list.partition_point(|&v| v < lo);
        ctr.dram_read_coalesced(list.len());
        ctr.alu(list.len());
        charge_idle(ctr, list.len(), vwarp);
        ctr.shmem_write(words);
        ctr.shmem_read(in_span);
        ctr.shmem_write(after);
    });
    b_store(words, out.len(), vwarp, ctr);
}

/// The c arm's first list: the warp loads it into the shared buffer,
/// coalesced.
fn c_load(first: &[VertexId], vwarp: usize, ctr: &mut BlockCounters) {
    ctr.dram_read_coalesced(first.len());
    ctr.shmem_write(first.len());
    charge_idle(ctr, first.len(), vwarp);
}

/// The p arm's first list: loaded to registers, coalesced.
fn p_load(first: &[VertexId], vwarp: usize, ctr: &mut BlockCounters) {
    ctr.dram_read_coalesced(first.len());
    charge_idle(ctr, first.len(), vwarp);
}

/// The p arm's survivors, written to shared memory.
fn p_store(kept: usize, ctr: &mut BlockCounters) {
    ctr.shmem_write(kept);
}

/// Words of the b arm's bitmap over `first`'s span, when its double
/// buffer fits `shared_words`.
fn bitmap_fit(first: &[VertexId], shared_words: usize) -> Option<usize> {
    let words = bitmap_words(list_span(first));
    (2 * words <= shared_words.max(1)).then_some(words)
}

/// The b arm's encode: stream the shortest list once (coalesced), zero
/// the bitmap, set one bit per element.
fn b_load(first: &[VertexId], words: usize, vwarp: usize, ctr: &mut BlockCounters) {
    ctr.dram_read_coalesced(first.len());
    ctr.shmem_write(words + first.len());
    charge_idle(ctr, first.len(), vwarp);
}

/// The b arm's extraction of `kept` surviving bits: one read per bitmap
/// word.
fn b_store(words: usize, kept: usize, vwarp: usize, ctr: &mut BlockCounters) {
    if kept > 0 {
        ctr.shmem_read(words);
        charge_idle(ctr, kept, vwarp);
    }
}

/// What `method`'s arm bills to "intersect" the single list `list`: its
/// load and its store of every element, with no pass between (b falls
/// back to c when the bitmap does not fit). The result is `list` itself,
/// so a caller with one constraint reads it in place.
pub(crate) fn charge_one_list(
    method: Method,
    list: &[VertexId],
    vwarp: usize,
    shared_words: usize,
    ctr: &mut BlockCounters,
) {
    match method {
        Method::C => c_load(list, vwarp, ctr),
        Method::P => {
            p_load(list, vwarp, ctr);
            p_store(list.len(), ctr);
        }
        Method::B => match bitmap_fit(list, shared_words) {
            Some(words) => {
                b_load(list, words, vwarp, ctr);
                b_store(words, list.len(), vwarp, ctr);
            }
            None => c_load(list, vwarp, ctr),
        },
    }
}

/// Micro-kernel choice for one partial path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Stream-and-probe against the shared buffer.
    C,
    /// Probe-first-list against the other adjacencies.
    P,
    /// Bitmap-encode the first list, stream the others against it.
    B,
}

impl Method {
    /// Short lower-case name, used in kernel labels and obs events.
    pub fn name(&self) -> &'static str {
        match self {
            Method::C => "c",
            Method::P => "p",
            Method::B => "bitmap",
        }
    }
}

/// The shared cost model behind [`choose`] and the plan-time
/// `KernelPolicy`, expressed over scalar list statistics so both exact
/// per-path lists and plan-time estimates can be priced identically.
///
/// * `first_len` — length of the shortest (buffered/encoded) list
/// * `bmp_words` — bitmap words covering the first list's value span
/// * `stream` — total length of the remaining lists (words each of c/b
///   streams from DRAM)
/// * `probe_words` — Σ log-probe cost over the remaining lists (p's
///   per-candidate random-read bill)
/// * `shared_words` — the block's shared-memory budget in words
pub(crate) fn pick_method(
    first_len: usize,
    bmp_words: usize,
    stream: usize,
    probe_words: usize,
    shared_words: usize,
) -> Method {
    let budget = shared_words.max(1);
    // Feasibility: c double-buffers the running intersection
    // (interset1/interset2 — 2·|first| words resident); b double-buffers
    // the span bitmap. p keeps nothing resident and always fits.
    let c_fits = first_len != 0 && 2 * first_len <= budget;
    let b_fits = first_len != 0 && 2 * bmp_words <= budget;
    if stream == 0 {
        // Single-list case: copy through shared if it fits.
        return if c_fits { Method::C } else { Method::P };
    }
    // Subgraph isomorphism is memory-bound (§6), so DRAM words decide
    // first: c and b both stream every other list once (`stream`), while
    // p issues log-cost random probes per buffered candidate.
    let cost_p = first_len * probe_words;
    if cost_p < stream || (!c_fits && !b_fits) {
        return Method::P;
    }
    // c vs b move the same DRAM words; break the tie on shared-memory
    // traffic: c pays a log-probe per streamed element, b pays O(1)
    // probes plus the encode (zero + set + per-pass clears).
    let shmem_c = stream * probe_cost(first_len);
    let shmem_b = first_len + 2 * bmp_words + stream;
    if b_fits && (!c_fits || shmem_b < shmem_c) {
        Method::B
    } else if c_fits {
        Method::C
    } else {
        Method::B
    }
}

/// Adaptive per-path selection: estimated words moved by each method
/// (the paper's "we adaptively choose the intersection method, which
/// enables higher performance"), constrained by the block's shared-
/// memory budget — an arm whose resident buffer cannot fit
/// `shared_words` is never picked.
pub fn choose<L: AdjList>(lists: &[L], shared_words: usize) -> Method {
    let Some((first, rest)) = lists.split_first() else {
        return Method::C;
    };
    let stream: usize = rest.iter().map(|l| l.ids().len()).sum();
    let probe_words: usize = rest.iter().map(|l| probe_cost(l.ids().len())).sum();
    pick_method(
        first.ids().len(),
        bitmap_words(list_span(first.ids())),
        stream,
        probe_words,
        shared_words,
    )
}

/// O(|V|)-scratch scatter-vector intersection (Algorithm 2, lines 7-17).
/// The scratch is reusable across calls via epoch tagging, so repeated use
/// costs O(χ·δ), not O(|V|).
pub struct ScatterScratch {
    mark: Vec<u32>,
    count: Vec<u32>,
    epoch: u32,
}

impl ScatterScratch {
    /// Scratch for graphs with up to `n` vertices.
    pub fn new(n: usize) -> Self {
        ScatterScratch {
            mark: vec![0; n],
            count: vec![0; n],
            epoch: 0,
        }
    }

    /// Intersects sorted `lists`; result sorted. Charges counters like a
    /// single-thread device worker (the paper's point is that parallel
    /// workers would each need their own O(|V|) scratch).
    pub fn scatter_vector(
        &mut self,
        lists: &[&[VertexId]],
        ctr: &mut BlockCounters,
        out: &mut Vec<VertexId>,
    ) {
        out.clear();
        let Some((first, _)) = lists.split_first() else {
            return;
        };
        self.epoch += 1;
        let chi = lists.len() as u32;
        for list in lists {
            ctr.dram_read_coalesced(list.len());
            for &v in *list {
                if self.mark[v as usize] != self.epoch {
                    self.mark[v as usize] = self.epoch;
                    self.count[v as usize] = 0;
                }
                self.count[v as usize] += 1;
                ctr.alu(2);
            }
        }
        // Collect from the first list (a superset of the intersection).
        for &v in *first {
            ctr.alu(1);
            if self.mark[v as usize] == self.epoch && self.count[v as usize] == chi {
                out.push(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn naive_intersection(lists: &[&[u32]]) -> Vec<u32> {
        let Some((first, rest)) = lists.split_first() else {
            return Vec::new();
        };
        first
            .iter()
            .copied()
            .filter(|v| rest.iter().all(|l| l.contains(v)))
            .collect()
    }

    /// Generous shared budget (the test_small device config).
    const SHARED: usize = 4096;

    fn all_methods(lists: &[&[u32]]) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>) {
        let mut ctr = BlockCounters::default();
        let (mut c, mut p, mut b, mut s) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        c_intersection(lists, 4, &mut ctr, &mut c);
        p_intersection(lists, 4, &mut ctr, &mut p);
        b_intersection(lists, 4, SHARED, &mut ctr, &mut b);
        ScatterScratch::new(1000).scatter_vector(lists, &mut ctr, &mut s);
        (c, p, b, s)
    }

    #[test]
    fn methods_agree_on_examples() {
        let cases: Vec<Vec<Vec<u32>>> = vec![
            vec![vec![1, 3, 5, 7], vec![2, 3, 5, 8], vec![3, 5, 9]],
            vec![vec![1, 2, 3]],
            vec![vec![], vec![1, 2]],
            vec![vec![1, 2], vec![]],
            vec![vec![1, 2, 3], vec![4, 5, 6]],
            vec![vec![0, 999], vec![0, 999], vec![0, 999]],
        ];
        for case in cases {
            let lists: Vec<&[u32]> = case.iter().map(|v| v.as_slice()).collect();
            let want = naive_intersection(&lists);
            let (c, p, b, s) = all_methods(&lists);
            assert_eq!(c, want, "c-intersection {case:?}");
            assert_eq!(p, want, "p-intersection {case:?}");
            assert_eq!(b, want, "b-intersection {case:?}");
            assert_eq!(s, want, "scatter-vector {case:?}");
        }
    }

    #[test]
    fn empty_input() {
        let (c, p, b, s) = all_methods(&[]);
        assert!(c.is_empty() && p.is_empty() && b.is_empty() && s.is_empty());
    }

    #[test]
    fn results_stay_sorted() {
        let a: Vec<u32> = (0..100).step_by(3).collect();
        let b: Vec<u32> = (0..100).step_by(2).collect();
        let (c, p, bm, s) = all_methods(&[&a, &b]);
        for r in [&c, &p, &bm, &s] {
            assert!(r.windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(c, (0..100).step_by(6).collect::<Vec<u32>>());
    }

    #[test]
    fn bitmap_falls_back_when_span_exceeds_budget() {
        // Span 1M values → ~31k bitmap words, far over a 4096-word
        // budget even though the list itself is short.
        let a: Vec<u32> = vec![0, 1_000_000];
        let b: Vec<u32> = vec![0, 5, 1_000_000];
        let mut ctr = BlockCounters::default();
        let mut out = Vec::new();
        b_intersection(&[&a, &b], 4, SHARED, &mut ctr, &mut out);
        assert_eq!(out, vec![0, 1_000_000]);
        // And the chooser never picks the bitmap arm for that span.
        assert_ne!(choose(&[&a, &b], SHARED), Method::B);
    }

    #[test]
    fn adaptive_prefers_p_for_tiny_buffer() {
        let small: Vec<u32> = vec![5];
        let huge: Vec<u32> = (0..10_000).collect();
        assert_eq!(choose(&[&small, &huge], SHARED), Method::P);
        // Similar dense sizes: streaming wins, and the bitmap arm beats
        // c on shared traffic (O(1) probes vs log-probes).
        let a: Vec<u32> = (0..32).collect();
        let b: Vec<u32> = (0..32).collect();
        assert_eq!(choose(&[&a, &b], SHARED), Method::B);
        assert_eq!(choose(&[&a], SHARED), Method::C);
        // Wide sparse span: bitmap infeasible, c carries the day.
        let sp: Vec<u32> = (0..32).map(|v| v * 100_000).collect();
        let sq: Vec<u32> = (0..32).map(|v| v * 100_000 + (v % 2)).collect();
        assert_eq!(choose(&[&sp, &sq], SHARED), Method::C);
    }

    #[test]
    fn choose_respects_shared_budget() {
        // Satellite fix: the old model ignored the device budget and
        // happily picked c with a running buffer bigger than shared
        // memory. first = 3000 words → c needs 6000 resident words.
        let first: Vec<u32> = (0..3000).collect();
        let second: Vec<u32> = (0..3000).collect();
        assert_ne!(choose(&[&first, &second], 4096), Method::C);
        // The bitmap double-buffer covers the same span in
        // 2·ceil(3000/32) = 188 words: feasible and picked.
        assert_eq!(choose(&[&first, &second], 4096), Method::B);
        // A budget too small for either resident arm forces p.
        assert_eq!(choose(&[&first, &second], 64), Method::P);
        // Sweep: whatever is picked, its resident footprint must fit.
        for budget in [1usize, 16, 64, 256, 4096, 1 << 20] {
            match choose(&[&first, &second], budget) {
                Method::C => assert!(2 * first.len() <= budget, "c overflows {budget}"),
                Method::B => assert!(
                    2 * bitmap_words(first.len()) <= budget,
                    "bitmap overflows {budget}"
                ),
                Method::P => {}
            }
        }
    }

    #[test]
    fn bitmap_counters_model_o1_probes() {
        // Dense same-span lists: b's shared reads are one per streamed
        // element (+ final extraction scan), strictly below c's
        // log-probe bill for lists this long.
        let a: Vec<u32> = (0..2000).collect();
        let b: Vec<u32> = (0..2000).collect();
        let (mut cc, mut cb) = (BlockCounters::default(), BlockCounters::default());
        let (mut outc, mut outb) = (Vec::new(), Vec::new());
        c_intersection(&[&a, &b], 4, &mut cc, &mut outc);
        b_intersection(&[&a, &b], 4, SHARED, &mut cb, &mut outb);
        assert_eq!(outc, outb);
        assert!(
            cb.c.shmem_reads < cc.c.shmem_reads,
            "bitmap probes {} must undercut c probes {}",
            cb.c.shmem_reads,
            cc.c.shmem_reads
        );
        // Both arms stream the same DRAM words.
        assert_eq!(cb.c.dram_reads, cc.c.dram_reads);
    }

    #[test]
    fn wide_warps_charge_more_idle() {
        let a: Vec<u32> = (0..3).collect(); // list shorter than a warp
        let b: Vec<u32> = (0..3).collect();
        let mut narrow = BlockCounters::default();
        let mut wide = BlockCounters::default();
        let mut out = Vec::new();
        c_intersection(&[&a, &b], 2, &mut narrow, &mut out);
        c_intersection(&[&a, &b], 32, &mut wide, &mut out);
        assert!(
            wide.c.instructions > narrow.c.instructions,
            "32-wide {} vs 2-wide {}",
            wide.c.instructions,
            narrow.c.instructions
        );
    }

    #[test]
    fn scatter_scratch_reusable_across_epochs() {
        let mut s = ScatterScratch::new(10);
        let mut ctr = BlockCounters::default();
        let mut out = Vec::new();
        s.scatter_vector(&[&[1, 2, 3], &[2, 3]], &mut ctr, &mut out);
        assert_eq!(out, vec![2, 3]);
        // Second call must not see stale counts.
        s.scatter_vector(&[&[2, 4], &[4]], &mut ctr, &mut out);
        assert_eq!(out, vec![4]);
    }

    #[test]
    fn constraint_list_direction() {
        let g = Graph::directed(3, &[(0, 1), (2, 1)]);
        assert_eq!(constraint_list(&g, 0, Dir::Out).ids, &[1]);
        assert_eq!(constraint_list(&g, 1, Dir::In).ids, &[0, 2]);
        assert_eq!(constraint_list(&g, 1, Dir::Out).ids, &[] as &[u32]);
        // A hub's list carries its row, in its own direction only.
        let spokes: Vec<_> = (1..=20).map(|v| (0, v)).collect();
        let g = Graph::directed(21, &spokes);
        let hub = constraint_list(&g, 0, Dir::Out);
        let row = hub.row.expect("degree 20 gets a row");
        assert!((0..21).all(|v| row.contains(v) == hub.ids.contains(&v)));
        assert!(constraint_list(&g, 0, Dir::In).row.is_none());
        assert!(constraint_list(&g, 5, Dir::In).row.is_none());
    }

    /// The arms as they were before the host path became one sorted
    /// merge: per-element binary searches, a per-call `tmp` buffer, and
    /// two zeroed bitmaps per path. Their counters are the contract the
    /// merge must reproduce exactly.
    mod oracle {
        use super::super::{bitmap_words, charge_idle, list_span, probe_cost};
        use cuts_gpu_sim::BlockCounters;
        use cuts_graph::VertexId;

        pub fn c_intersection(
            lists: &[&[VertexId]],
            vwarp: usize,
            ctr: &mut BlockCounters,
            out: &mut Vec<VertexId>,
        ) {
            out.clear();
            let Some((first, rest)) = lists.split_first() else {
                return;
            };
            // Warp loads children of a1 into the shared buffer, coalesced.
            ctr.dram_read_coalesced(first.len());
            ctr.shmem_write(first.len());
            charge_idle(ctr, first.len(), vwarp);
            out.extend_from_slice(first);
            let mut tmp: Vec<VertexId> = Vec::with_capacity(out.len());
            for list in rest {
                if out.is_empty() {
                    return;
                }
                // Lanes load this constraint's children to registers, coalesced,
                // then probe the shared buffer.
                ctr.dram_read_coalesced(list.len());
                charge_idle(ctr, list.len(), vwarp);
                tmp.clear();
                for &v in *list {
                    ctr.shmem_read(probe_cost(out.len()));
                    if out.binary_search(&v).is_ok() {
                        tmp.push(v);
                    }
                }
                // interset2 replaces interset1 in shared memory.
                ctr.shmem_write(tmp.len());
                std::mem::swap(out, &mut tmp);
            }
        }

        pub fn p_intersection(
            lists: &[&[VertexId]],
            vwarp: usize,
            ctr: &mut BlockCounters,
            out: &mut Vec<VertexId>,
        ) {
            out.clear();
            let Some((first, rest)) = lists.split_first() else {
                return;
            };
            ctr.dram_read_coalesced(first.len());
            charge_idle(ctr, first.len(), vwarp);
            'cand: for &v in *first {
                for list in rest {
                    // Binary probe into the constraint's adjacency in global
                    // memory: uncoalesced, log(len) words touched.
                    ctr.dram_read_random(probe_cost(list.len()));
                    if list.binary_search(&v).is_err() {
                        continue 'cand;
                    }
                }
                out.push(v);
            }
            ctr.shmem_write(out.len());
        }

        pub fn b_intersection(
            lists: &[&[VertexId]],
            vwarp: usize,
            shared_words: usize,
            ctr: &mut BlockCounters,
            out: &mut Vec<VertexId>,
        ) {
            out.clear();
            let Some((first, rest)) = lists.split_first() else {
                return;
            };
            if first.is_empty() {
                return;
            }
            let lo = first[0] as usize;
            let words = bitmap_words(list_span(first));
            if 2 * words > shared_words.max(1) {
                // Span too wide for the double-buffered bitmap: fall back.
                return c_intersection(lists, vwarp, ctr, out);
            }
            // Encode: stream the shortest list once (coalesced), zero the bitmap,
            // set one bit per element.
            ctr.dram_read_coalesced(first.len());
            ctr.shmem_write(words + first.len());
            charge_idle(ctr, first.len(), vwarp);
            let mut cur = vec![0u32; words];
            for &v in *first {
                let b = v as usize - lo;
                cur[b / 32] |= 1 << (b % 32);
            }
            let hi = lo + list_span(first) - 1;
            let mut next = vec![0u32; words];
            for list in rest {
                // Stream the constraint coalesced; one shared probe per in-span
                // element (the out-of-span bounds test is register-only ALU).
                ctr.dram_read_coalesced(list.len());
                ctr.alu(list.len());
                charge_idle(ctr, list.len(), vwarp);
                ctr.shmem_write(words); // zero the target buffer
                let mut kept = 0usize;
                for &v in *list {
                    let v = v as usize;
                    if v < lo || v > hi {
                        continue;
                    }
                    let b = v - lo;
                    ctr.shmem_read(1);
                    if cur[b / 32] & (1 << (b % 32)) != 0 {
                        next[b / 32] |= 1 << (b % 32);
                        kept += 1;
                    }
                }
                ctr.shmem_write(kept);
                std::mem::swap(&mut cur, &mut next);
                next.iter_mut().for_each(|w| *w = 0);
                if kept == 0 {
                    return;
                }
            }
            // Extract set bits ascending: result is sorted by construction.
            ctr.shmem_read(words);
            for (wi, &w) in cur.iter().enumerate() {
                let mut w = w;
                while w != 0 {
                    let b = w.trailing_zeros() as usize;
                    out.push((lo + wi * 32 + b) as VertexId);
                    w &= w - 1;
                }
            }
            charge_idle(ctr, out.len(), vwarp);
        }
    }

    /// A drawn list, with a hash set standing in for a hub's bit row when
    /// `row` is set (any O(1) membership test narrows alike).
    struct Rowed<'a> {
        ids: &'a [u32],
        row: Option<&'a std::collections::HashSet<u32>>,
    }

    impl AdjList for Rowed<'_> {
        fn ids(&self) -> &[VertexId] {
            self.ids
        }

        fn row(&self) -> Option<impl Fn(VertexId) -> bool + '_> {
            self.row.map(|set| move |v| set.contains(&v))
        }
    }

    /// Draws a sorted, duplicate-free list: `len` values from `pool` when
    /// `shared`, otherwise from a private value range (disjoint lists).
    fn draw_list(rng: &mut SmallRng, pool: &[u32], len: usize, shared: bool) -> Vec<u32> {
        let mut v: Vec<u32> = if shared && !pool.is_empty() {
            (0..len)
                .map(|_| pool[rng.random_range(0..pool.len())])
                .collect()
        } else {
            let base = rng.random_range(0..1u32 << 20) + (1 << 21);
            (0..len)
                .map(|_| base + rng.random_range(0..4 * len as u32 + 1))
                .collect()
        };
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn merge_arms_match_the_oracle_counters() {
        let mut rng = SmallRng::seed_from_u64(0x1D_E77);
        // Rows come from their own stream, so the lists drawn stay the
        // same with or without them.
        let mut row_rng = SmallRng::seed_from_u64(0x0B_175);
        let (mut gallops, mut fallbacks, mut early_exits) = (0, 0, 0);
        let (mut one_lists, mut one_list_fallbacks) = (0, 0);
        let (mut row_passes, mut row_gallops, mut row_exits) = (0, 0, 0);
        for case in 0..3000 {
            // A shared value pool over a narrow, medium or wide span: wide
            // spans make the bitmap infeasible at either budget.
            let span = [64u32, 4000, 3_000_000][case % 3];
            let pool: Vec<u32> = (0..rng.random_range(1..400usize))
                .map(|_| rng.random_range(0..span))
                .collect();
            let k = rng.random_range(1..=4usize);
            let lists: Vec<Vec<u32>> = (0..k)
                .map(|_| {
                    // Skewed lengths so both galloping branches run.
                    let len = match rng.random_range(0..4u32) {
                        0 => rng.random_range(0..3usize),
                        1 => rng.random_range(3..20),
                        2 => rng.random_range(20..120),
                        _ => rng.random_range(120..900),
                    };
                    let shared = rng.random_bool(0.85);
                    draw_list(&mut rng, &pool, len, shared)
                })
                .collect();
            let refs: Vec<&[u32]> = lists.iter().map(|l| l.as_slice()).collect();
            // About half the lists carry a row (the first list's is never
            // read): the merge must narrow by rows to the same sets.
            let sets: Vec<Option<std::collections::HashSet<u32>>> = lists
                .iter()
                .map(|l| {
                    row_rng
                        .random_bool(0.5)
                        .then(|| l.iter().copied().collect())
                })
                .collect();
            let rowed: Vec<Rowed> = refs
                .iter()
                .zip(&sets)
                .map(|(&ids, row)| Rowed {
                    ids,
                    row: row.as_ref(),
                })
                .collect();
            let lens: Vec<usize> = refs.iter().map(|l| l.len()).collect();
            if lens
                .iter()
                .any(|&a| lens.iter().any(|&b| a > 0 && a * GALLOP_RATIO <= b))
            {
                gallops += 1;
            }
            for vwarp in [1usize, 4, 32] {
                for budget in [64usize, 4096] {
                    type Arm<L> = fn(&[L], usize, usize, &mut BlockCounters, &mut Vec<u32>);
                    type Pair<'a> = (Method, Arm<Rowed<'a>>, Arm<&'a [u32]>);
                    let arms: [Pair; 3] = [
                        (
                            Method::C,
                            |l, w, _, c, o| c_intersection(l, w, c, o),
                            |l, w, _, c, o| oracle::c_intersection(l, w, c, o),
                        ),
                        (
                            Method::P,
                            |l, w, _, c, o| p_intersection(l, w, c, o),
                            |l, w, _, c, o| oracle::p_intersection(l, w, c, o),
                        ),
                        (
                            Method::B,
                            |l, w, s, c, o| b_intersection(l, w, s, c, o),
                            oracle::b_intersection,
                        ),
                    ];
                    for (method, new, old) in arms {
                        let name = method.name();
                        let (mut cn, mut co) = (BlockCounters::default(), BlockCounters::default());
                        let (mut on, mut oo) = (vec![7], vec![7]);
                        new(&rowed, vwarp, budget, &mut cn, &mut on);
                        old(&refs, vwarp, budget, &mut co, &mut oo);
                        assert_eq!(on, oo, "{name} result, {lists:?}");
                        assert_eq!(
                            cn.c, co.c,
                            "{name} counters, vwarp {vwarp}, budget {budget}, {lists:?}"
                        );
                        if let [only] = refs[..] {
                            // One list is read in place, billed alone.
                            let mut c1 = BlockCounters::default();
                            charge_one_list(method, only, vwarp, budget, &mut c1);
                            assert_eq!(oo, only, "{name} one-list result");
                            assert_eq!(c1.c, co.c, "{name} one-list counters, {lists:?}");
                        }
                    }
                }
            }
            let first = refs.first().map_or(0, |l| l.len());
            if first > 0 && 2 * bitmap_words(list_span(refs[0])) > 64 {
                fallbacks += 1;
                one_list_fallbacks += (refs.len() == 1) as usize;
            }
            one_lists += (refs.len() == 1 && first > 0) as usize;
            let mut out = Vec::new();
            let mut passes = Vec::new();
            merge_passes(&rowed, &mut out, |list, before, after| {
                passes.push((list.len(), before, after))
            });
            if passes.len() + 1 < refs.len() {
                early_exits += 1;
            }
            for (i, &(len, before, after)) in passes.iter().enumerate() {
                if sets[i + 1].is_some() {
                    row_passes += 1;
                    row_gallops += (len.min(before) * GALLOP_RATIO <= len.max(before)) as usize;
                    row_exits += (after == 0 && i + 2 < refs.len()) as usize;
                }
            }
        }
        // The draw must actually reach every branch it is meant to cover.
        assert!(
            gallops > 100 && fallbacks > 100 && early_exits > 100,
            "gallop {gallops}, fallback {fallbacks}, early exit {early_exits}"
        );
        assert!(
            one_lists > 100 && one_list_fallbacks > 20,
            "one list {one_lists}, of which fall back {one_list_fallbacks}"
        );
        assert!(
            row_passes > 100 && row_gallops > 100 && row_exits > 100,
            "row passes {row_passes}, gallop-sized {row_gallops}, emptying {row_exits}"
        );
    }

    use cuts_graph::Graph;
}
