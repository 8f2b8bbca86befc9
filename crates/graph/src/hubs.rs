//! Hub rows: bit-per-vertex copies of the adjacency of a graph's
//! highest-degree vertices.
//!
//! A host-side index for the search kernels' intersection: a running
//! candidate set is narrowed against a hub's long neighbour list by one
//! bit probe per candidate instead of a merge through the list (DESIGN
//! §11, "Host mechanism vs. cost model"). Rows model no device state:
//! no counter is ever charged for one, and snapshots never carry them.
//!
//! **Selection** has no knob. Vertices of degree ≥ [`MIN_HUB_DEGREE`]
//! qualify in descending degree order (ties by id), and rows are added
//! while the row bytes plus a 4-byte index entry per row stay within
//! that direction's CSR target bytes — rows at most double adjacency
//! memory, and no per-vertex table exists. A symmetric graph's one row
//! set serves both directions; a directed graph has out- and in-rows.
//!
//! Rows are built on first use and cached on the [`Graph`] (clones share
//! them). [`Graph::apply_batch`] re-fills the rows of touched vertices
//! and never rebuilds the set: membership stays fixed until a fresh
//! build, except that the lowest-degree rows are dropped if deletions
//! shrink the budget below the rows' bytes.

use crate::csr::Csr;
use crate::graph::{Graph, VertexId};

/// Shortest neighbour list that gets a row: one 64-byte line of ids.
/// Shorter lists merge as fast as they probe.
pub const MIN_HUB_DEGREE: u32 = 16;

/// One vertex's row: bit `v` is set iff `v` is a neighbour.
#[derive(Clone, Copy, Debug)]
pub struct HubRow<'a>(&'a [u64]);

impl HubRow<'_> {
    /// Whether `v` is a neighbour: one word load, no branch.
    #[inline]
    pub fn contains(self, v: VertexId) -> bool {
        self.0[v as usize / 64] >> (v % 64) & 1 != 0
    }
}

/// The rows of one adjacency direction.
#[derive(Clone, Debug)]
pub(crate) struct RowSet {
    /// Vertices with a row, ascending (the lookup index).
    ids: Vec<VertexId>,
    /// Row `i`, of `ids[i]`, is `bits[i * stride..(i + 1) * stride]`.
    bits: Vec<u64>,
    /// Words per row: one bit per vertex.
    stride: usize,
}

impl RowSet {
    /// Bytes one row costs, its index entry included.
    fn row_bytes(stride: usize) -> usize {
        stride * 8 + 4
    }

    /// The rows `csr` gets under the selection rule.
    fn build(csr: &Csr) -> RowSet {
        let n = csr.num_vertices();
        let stride = n.div_ceil(64);
        let mut ids: Vec<VertexId> = (0..n as VertexId)
            .filter(|&v| csr.degree(v) >= MIN_HUB_DEGREE)
            .collect();
        ids.sort_unstable_by_key(|&v| (std::cmp::Reverse(csr.degree(v)), v));
        ids.truncate(4 * csr.num_edges() / RowSet::row_bytes(stride));
        ids.sort_unstable();
        let mut set = RowSet {
            bits: vec![0; ids.len() * stride],
            ids,
            stride,
        };
        set.refresh(csr, &set.ids.clone());
        set
    }

    /// Re-fills the rows of `touched` vertices that have one from `csr`,
    /// and drops the lowest-degree rows while the set is over its
    /// budget.
    fn refresh(&mut self, csr: &Csr, touched: &[VertexId]) {
        for t in touched {
            if let Ok(i) = self.ids.binary_search(t) {
                let row = &mut self.bits[i * self.stride..(i + 1) * self.stride];
                row.fill(0);
                for &v in csr.neighbors(*t) {
                    row[v as usize / 64] |= 1 << (v % 64);
                }
            }
        }
        while self.bytes() > 4 * csr.num_edges() {
            let i = (0..self.ids.len())
                .min_by_key(|&i| (csr.degree(self.ids[i]), std::cmp::Reverse(self.ids[i])))
                .expect("an over-budget set has a row");
            self.ids.remove(i);
            self.bits.drain(i * self.stride..(i + 1) * self.stride);
        }
    }

    /// The row of `v`, if it has one.
    fn row(&self, v: VertexId) -> Option<HubRow<'_>> {
        let i = self.ids.binary_search(&v).ok()?;
        Some(HubRow(&self.bits[i * self.stride..(i + 1) * self.stride]))
    }

    /// Row bytes plus index bytes.
    fn bytes(&self) -> usize {
        self.ids.len() * RowSet::row_bytes(self.stride)
    }
}

/// A graph's hub rows: out-rows, and in-rows unless the graph is
/// symmetric (its out-rows then serve both directions).
#[derive(Clone, Debug)]
pub(crate) struct HubRows {
    out: RowSet,
    inn: Option<RowSet>,
}

impl HubRows {
    /// Builds the rows of `g` under the selection rule.
    pub(crate) fn build(g: &Graph) -> HubRows {
        HubRows {
            out: RowSet::build(&g.out),
            inn: (!g.symmetric).then(|| RowSet::build(&g.inn)),
        }
    }

    /// Re-fills the rows of `touched` after a batch whose changed arcs
    /// all have both endpoints in `touched`; `g` is the edited graph.
    pub(crate) fn patch(&mut self, g: &Graph, touched: &[VertexId]) {
        self.out.refresh(&g.out, touched);
        if let Some(inn) = &mut self.inn {
            inn.refresh(&g.inn, touched);
        }
    }
}

impl Graph {
    fn hub_rows(&self) -> &HubRows {
        self.hubs.get_or_init(|| HubRows::build(self).into())
    }

    /// The row of `v` in the in- or out-rows. Out of line: the search
    /// kernel resolves a row for every constraint list, and only long
    /// lists get this far.
    #[inline(never)]
    fn find_row(&self, inn: bool, v: VertexId) -> Option<HubRow<'_>> {
        let rows = self.hub_rows();
        match &rows.inn {
            Some(in_rows) if inn => in_rows.row(v),
            _ => rows.out.row(v),
        }
    }

    /// The hub row of `v`'s out-neighbours, if `v` has one (see
    /// [`crate::hubs`]); the rows are built on the first call that
    /// reaches them. A list shorter than [`MIN_HUB_DEGREE`] is decided
    /// inline, with no call: a call per list cost road-network jobs,
    /// which have no rows, about 15% of their host time.
    #[inline(always)]
    pub fn out_row(&self, v: VertexId) -> Option<HubRow<'_>> {
        if self.out_degree(v) < MIN_HUB_DEGREE {
            return None;
        }
        self.find_row(false, v)
    }

    /// The hub row of `v`'s in-neighbours, if `v` has one.
    #[inline(always)]
    pub fn in_row(&self, v: VertexId) -> Option<HubRow<'_>> {
        if self.in_degree(v) < MIN_HUB_DEGREE {
            return None;
        }
        self.find_row(true, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{Dataset, Scale};
    use crate::generators::mesh2d;
    use proptest::prelude::*;

    /// Every row of `set` is its vertex's adjacency in `csr`, bit for
    /// bit; the set fits its budget; and `lookup`, the graph's lookup in
    /// that direction, finds the row of every member long enough to
    /// have one, and nothing else.
    fn check<'g>(set: &RowSet, csr: &Csr, lookup: impl Fn(VertexId) -> Option<HubRow<'g>>) {
        assert!(set.bytes() <= 4 * csr.num_edges(), "rows over budget");
        assert!(set.ids.windows(2).all(|w| w[0] < w[1]));
        for (i, &h) in set.ids.iter().enumerate() {
            let mut want = vec![0u64; set.stride];
            for &v in csr.neighbors(h) {
                want[v as usize / 64] |= 1 << (v % 64);
            }
            assert_eq!(&set.bits[i * set.stride..(i + 1) * set.stride], &want[..]);
        }
        for v in 0..csr.num_vertices() as VertexId {
            let row = lookup(v);
            let long = csr.degree(v) >= MIN_HUB_DEGREE;
            assert_eq!(row.is_some(), long && set.ids.binary_search(&v).is_ok());
            if let Some(row) = row {
                for u in 0..csr.num_vertices() as VertexId {
                    assert_eq!(row.contains(u), csr.has_edge(v, u));
                }
            }
        }
    }

    fn check_graph(g: &Graph) {
        let rows = g.hub_rows();
        check(&rows.out, &g.out, |v| g.out_row(v));
        match &rows.inn {
            Some(inn) => check(inn, &g.inn, |v| g.in_row(v)),
            None => {
                assert!(g.is_symmetric());
                check(&rows.out, &g.inn, |v| g.in_row(v))
            }
        }
    }

    #[test]
    fn selection_takes_the_highest_degrees_within_budget() {
        // Two stars of 20 spokes over 70 vertices: both centres qualify
        // (degree 20 ≥ 16); 80 arcs give 320 budget bytes, and a row of
        // 2 words plus its index entry costs 20.
        let mut edges: Vec<(VertexId, VertexId)> = (1..=20).map(|v| (0, v)).collect();
        edges.extend((30..50).map(|v| (21, v)));
        let g = Graph::undirected(70, &edges);
        assert_eq!(g.hub_rows().out.ids, vec![0, 21]);
        assert!(g.in_row(0).is_some() && g.out_row(21).is_some());
        assert!(g.out_row(1).is_none(), "a spoke is too short for a row");
        // Directed: the centres have out-rows only.
        let g = Graph::directed(70, &edges);
        assert_eq!(g.hub_rows().out.ids, vec![0, 21]);
        assert!(g.in_row(0).is_none() && g.hub_rows().inn.as_ref().unwrap().ids.is_empty());
        // A budget of one row keeps the higher degree: 40 spokes of
        // vertex 0 beat 20 of vertex 41, over 1000 vertices (16 words
        // a row).
        let mut edges: Vec<(VertexId, VertexId)> = (1..=40).map(|v| (0, v)).collect();
        edges.extend((50..70).map(|v| (41, v)));
        let g = Graph::directed(1000, &edges);
        assert_eq!(g.hub_rows().out.ids, vec![0], "60 arcs afford 240 bytes");
        // Deleting all but two arcs leaves 8 budget bytes, under one
        // 12-byte row over 64 vertices: the row is dropped, not stale.
        let mut g = Graph::directed(64, &(1..=16).map(|v| (0, v)).collect::<Vec<_>>());
        assert!(g.out_row(0).is_some());
        let mut batch = crate::batch::EdgeBatch::new();
        for v in 3..=16 {
            batch.delete(0, v);
        }
        g.apply_batch(&batch).unwrap();
        assert!(g.out_row(0).is_none());
        check_graph(&g);
    }

    #[test]
    fn lattices_get_no_rows() {
        let mut graphs = vec![mesh2d(80, 80)];
        for d in [Dataset::RoadNetPA, Dataset::RoadNetTX, Dataset::RoadNetCA] {
            graphs.push(d.generate(Scale::Tiny));
        }
        for g in &graphs {
            let rows = g.hub_rows();
            assert!(rows.out.ids.is_empty());
            assert!(rows.inn.as_ref().is_none_or(|r| r.ids.is_empty()));
        }
    }

    #[test]
    fn skewed_stand_ins_get_rows_within_budget() {
        for d in [Dataset::WikiTalk, Dataset::Gowalla, Dataset::Enron] {
            let g = d.generate(Scale::Tiny);
            assert!(!g.hub_rows().out.ids.is_empty(), "{d:?} has hubs");
            check_graph(&g);
        }
    }

    // Over undirected, directed and labelled graphs, every row equals its
    // vertex's adjacency bits and the rows fit their budget, after a
    // fresh build and after every batch of a random sequence; patching
    // never adds a row.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn patched_rows_equal_adjacency(
            n in 2usize..90,
            hubs in prop::collection::vec((0u32..90, 14usize..40), 1..5),
            arcs in prop::collection::vec((0u32..90, 0u32..90), 0..200),
            kind in 0u8..3,
            ops in prop::collection::vec((any::<bool>(), 0u32..90, 0u32..90), 1..80),
        ) {
            use crate::batch::EdgeBatch;
            use std::collections::BTreeSet;
            let n32 = n as VertexId;
            // A few vertices get star-sized neighbourhoods, so some graphs
            // have rows and batches move vertices across the threshold.
            let mut arcs: Vec<_> = arcs.iter().map(|&(u, v)| (u % n32, v % n32)).collect();
            for &(h, deg) in &hubs {
                arcs.extend((1..=deg as u32).map(|k| (h % n32, (h + k * 7) % n32)));
            }
            let mut g = match kind {
                0 => Graph::undirected(n, &arcs),
                1 => Graph::directed(n, &arcs),
                _ => Graph::directed(n, &arcs).with_labels((0..n as u32).map(|v| v * 7 % 6).collect()),
            };
            check_graph(&g);
            let members = |g: &Graph| {
                let rows = g.hub_rows();
                (rows.out.ids.clone(), rows.inn.as_ref().map(|r| r.ids.clone()))
            };
            for chunk in ops.chunks(8) {
                let before = members(&g);
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
                check_graph(&g);
                let after = members(&g);
                prop_assert!(after.0.iter().all(|v| before.0.contains(v)), "a batch added an out-row");
                if let (Some(a), Some(b)) = (&after.1, &before.1) {
                    prop_assert!(a.iter().all(|v| b.contains(v)), "a batch added an in-row");
                }
            }
        }
    }
}
