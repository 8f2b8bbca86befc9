//! Incremental edge-list builder with vertex relabelling.

use std::collections::HashMap;

use crate::graph::{Graph, VertexId};

/// Accumulates edges (possibly with sparse, non-contiguous external ids —
/// SNAP files routinely skip ids) and produces a [`Graph`] over a dense
/// `0..n` id space.
#[derive(Default, Debug, Clone)]
pub struct GraphBuilder {
    edges: Vec<(VertexId, VertexId)>,
    relabel: HashMap<u64, VertexId>,
}

impl GraphBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn intern(&mut self, ext: u64) -> VertexId {
        let next = self.relabel.len() as VertexId;
        *self.relabel.entry(ext).or_insert(next)
    }

    /// Adds an edge between external ids.
    pub fn add_edge(&mut self, u: u64, v: u64) -> &mut Self {
        let (u, v) = (self.intern(u), self.intern(v));
        self.edges.push((u, v));
        self
    }

    /// Number of distinct vertices seen so far.
    pub fn num_vertices(&self) -> usize {
        self.relabel.len()
    }

    /// Number of edges added so far (before dedup).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finishes into a directed graph.
    pub fn build_directed(&self) -> Graph {
        Graph::directed(self.relabel.len(), &self.edges)
    }

    /// Finishes into an undirected (symmetrised) graph.
    pub fn build_undirected(&self) -> Graph {
        Graph::undirected(self.relabel.len(), &self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relabels_sparse_ids() {
        let mut b = GraphBuilder::new();
        b.add_edge(1000, 7).add_edge(7, 999_999);
        assert_eq!(b.num_vertices(), 3);
        let g = b.build_directed();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        // Dense ids follow first appearance: 1000 -> 0, 7 -> 1, 999999 -> 2.
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2));
    }

    #[test]
    fn duplicate_edges_collapse() {
        let mut b = GraphBuilder::new();
        b.add_edge(1, 2).add_edge(1, 2).add_edge(2, 1);
        let g = b.build_undirected();
        assert_eq!(g.num_edges(), 2); // one undirected edge, two arcs
    }
}
