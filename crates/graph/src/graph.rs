//! The directed graph type used throughout cuTS.

use std::sync::{Arc, OnceLock};

use crate::csr::Csr;
use crate::profile::DataProfile;

/// Vertex identifier. 32 bits suffices for every dataset in the paper
/// (largest is wikiTalk at 2.4M vertices) and halves the trie footprint
/// relative to `usize`, which matters because intermediate storage is the
/// whole point of the paper.
pub type VertexId = u32;

/// A directed graph with both out- and in-adjacency in CSR form.
///
/// Undirected inputs are symmetrised per Definition 1 of the paper: every
/// undirected edge `{u, v}` is stored as both `(u, v)` and `(v, u)`.
#[derive(Clone, Debug)]
pub struct Graph {
    pub(crate) out: Csr,
    pub(crate) inn: Csr,
    /// True if the graph was built from an undirected edge list (so `out`
    /// and `inn` are identical by construction).
    pub(crate) symmetric: bool,
    /// Optional vertex labels (the "meta information" §4.1.1 sets aside;
    /// provided as an extension because the labelled setting is where
    /// comparators like GSI live). `None` = unlabelled.
    pub(crate) labels: Option<Box<[u32]>>,
    /// Lazily computed statistics/signature profile (see
    /// [`crate::profile`]); shared by clones until the graph changes.
    pub(crate) profile: OnceLock<Arc<DataProfile>>,
    /// Monotone mutation counter: 0 for a freshly constructed graph,
    /// bumped by every [`Graph::apply_batch`]. Part of the
    /// [`Graph::fingerprint`], so artifacts captured against an earlier
    /// state of this graph can be rejected even if a later batch happens
    /// to restore the original adjacency byte-for-byte.
    pub(crate) version: u64,
    /// Lazily computed content+version fingerprint; invalidated on every
    /// mutation.
    pub(crate) fingerprint: OnceLock<u64>,
}

impl Graph {
    /// Builds a directed graph from an edge list. Self-loops are removed,
    /// parallel edges collapsed.
    pub fn directed(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let filtered: Vec<_> = edges.iter().copied().filter(|&(u, v)| u != v).collect();
        let out = Csr::from_edges(n, &filtered);
        let inn = out.transpose();
        Graph {
            out,
            inn,
            symmetric: false,
            labels: None,
            profile: OnceLock::new(),
            version: 0,
            fingerprint: OnceLock::new(),
        }
    }

    /// Builds an undirected graph (symmetrised per Definition 1).
    pub fn undirected(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let mut sym = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            if u != v {
                sym.push((u, v));
                sym.push((v, u));
            }
        }
        let out = Csr::from_edges(n, &sym);
        let inn = out.clone();
        Graph {
            out,
            inn,
            symmetric: true,
            labels: None,
            profile: OnceLock::new(),
            version: 0,
            fingerprint: OnceLock::new(),
        }
    }

    /// Builds a graph directly from its out-adjacency CSR, the zero-copy
    /// ingestion path for validated wire input: no edge-list detour, no
    /// sorting — one `O(|V| + |E|)` transpose is the only derived work.
    /// Self-loops are rejected (the edge-list constructors silently drop
    /// them, so a loop here means the input was never canonical). For
    /// `symmetric` graphs the CSR must equal its own transpose.
    pub fn from_out_csr(out: Csr, symmetric: bool) -> Result<Self, &'static str> {
        let n = out.num_vertices();
        let inn = if symmetric {
            // Fused symmetry + self-loop sweep: every arc `(u, v)` must be
            // matched by `(v, u)`. Arcs are visited in `(u, v)` order, so
            // within each row `v` the sources `u` arrive ascending and a
            // monotone cursor per row pairs them off; the arc count equals
            // the slot count, so E successful pairings fill every row
            // exactly. One pass, no transpose materialised.
            let offsets = out.offsets();
            let targets = out.targets();
            let mut cursor: Vec<u64> = offsets[..n].to_vec();
            for u in 0..n {
                for &v in out.neighbors(u as VertexId) {
                    if v as usize == u {
                        return Err("self-loop in adjacency");
                    }
                    let c = &mut cursor[v as usize];
                    if *c >= offsets[v as usize + 1] || targets[*c as usize] != u as VertexId {
                        return Err("adjacency is not symmetric");
                    }
                    *c += 1;
                }
            }
            out.clone()
        } else {
            for u in 0..n as VertexId {
                if out.neighbors(u).binary_search(&u).is_ok() {
                    return Err("self-loop in adjacency");
                }
            }
            out.transpose()
        };
        Ok(Graph {
            out,
            inn,
            symmetric,
            labels: None,
            profile: OnceLock::new(),
            version: 0,
            fingerprint: OnceLock::new(),
        })
    }

    /// The same arcs and labels, flagged directed: a symmetric graph's
    /// *directed closure*, in which each undirected edge is two arcs that
    /// a matcher must constrain independently.
    pub fn to_directed(&self) -> Graph {
        Graph {
            out: self.out.clone(),
            inn: self.inn.clone(),
            symmetric: false,
            labels: self.labels.clone(),
            profile: OnceLock::new(),
            version: 0,
            fingerprint: OnceLock::new(),
        }
    }

    /// Attaches vertex labels (one per vertex).
    pub fn with_labels(mut self, labels: Vec<u32>) -> Self {
        assert_eq!(
            labels.len(),
            self.num_vertices(),
            "one label per vertex required"
        );
        self.labels = Some(labels.into_boxed_slice());
        // Labels feed the signature lanes; a cached profile (and the
        // content fingerprint, which covers labels) is stale now.
        self.profile = OnceLock::new();
        self.fingerprint = OnceLock::new();
        self
    }

    /// The graph's [`DataProfile`], computed on first use and cached
    /// (clones made after the first call share the same profile).
    pub fn profile(&self) -> Arc<DataProfile> {
        self.profile
            .get_or_init(|| DataProfile::build_arc(self))
            .clone()
    }

    /// Installs an already-computed profile into the cache, so later
    /// [`Graph::profile`] calls return it without a profiling pass.
    /// The warm-start path uses this to hand a snapshot-decoded profile
    /// to the engine with zero re-profiling.
    ///
    /// # Panics
    ///
    /// If the profile does not describe a graph of this vertex count or
    /// labelling — callers must validate decoded profiles first.
    pub fn with_cached_profile(mut self, profile: Arc<DataProfile>) -> Self {
        assert_eq!(
            profile.vertices,
            self.num_vertices(),
            "profile vertex count must match the graph"
        );
        assert_eq!(
            profile.labeled,
            self.is_labeled(),
            "profile labelling must match the graph"
        );
        self.profile = OnceLock::new();
        let _ = self.profile.set(profile);
        self
    }

    /// Vertex label, if the graph is labelled.
    #[inline]
    pub fn label(&self, v: VertexId) -> Option<u32> {
        self.labels.as_ref().map(|l| l[v as usize])
    }

    /// True when the graph carries vertex labels.
    #[inline]
    pub fn is_labeled(&self) -> bool {
        self.labels.is_some()
    }

    /// Label-compatibility test for matching `q` (a vertex of `query`)
    /// onto `d` (a vertex of `self`): labels constrain the match only
    /// when both graphs are labelled; an unlabelled side is a wildcard.
    #[inline]
    pub fn label_compatible(&self, d: VertexId, query: &Graph, q: VertexId) -> bool {
        match (self.label(d), query.label(q)) {
            (Some(ld), Some(lq)) => ld == lq,
            _ => true,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    /// Number of stored directed edges (an undirected edge counts twice).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out.num_edges()
    }

    /// Number of undirected edges if symmetric, otherwise directed count.
    #[inline]
    pub fn num_input_edges(&self) -> usize {
        if self.symmetric {
            self.out.num_edges() / 2
        } else {
            self.out.num_edges()
        }
    }

    /// Whether this graph was symmetrised from an undirected input.
    #[inline]
    pub fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    /// Sorted out-neighbours of `v`.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.out.neighbors(v)
    }

    /// Sorted in-neighbours of `v`.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.inn.neighbors(v)
    }

    /// Out-degree.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u32 {
        self.out.degree(v)
    }

    /// In-degree.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> u32 {
        self.inn.degree(v)
    }

    /// Directed edge test `(u, v) ∈ E`.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.out.has_edge(u, v)
    }

    /// The degree filter of Definition 5 extended to directed graphs: `d`
    /// can host `q` only if it dominates both in- and out-degree.
    #[inline]
    pub fn degree_dominates(&self, d: VertexId, q_out: u32, q_in: u32) -> bool {
        self.out_degree(d) >= q_out && self.in_degree(d) >= q_in
    }

    /// Maximum out-degree over all vertices (the paper's δ).
    pub fn max_out_degree(&self) -> u32 {
        (0..self.num_vertices() as VertexId)
            .map(|v| self.out_degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Maximum in-degree over all vertices.
    pub fn max_in_degree(&self) -> u32 {
        (0..self.num_vertices() as VertexId)
            .map(|v| self.in_degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Average out-degree, used to size virtual warps (§4.1.2).
    pub fn avg_out_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Underlying out-CSR.
    #[inline]
    pub fn out_csr(&self) -> &Csr {
        &self.out
    }

    /// Underlying in-CSR.
    #[inline]
    pub fn in_csr(&self) -> &Csr {
        &self.inn
    }

    /// Iterates all stored directed edges.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.out.edges()
    }

    /// Mutation counter: 0 at construction, bumped by every
    /// [`Graph::apply_batch`]. Clones carry the version of the graph
    /// they were cloned from.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Deterministic fingerprint of the graph's full matching-relevant
    /// state: adjacency, symmetry, labels, **and** the mutation
    /// [`Graph::version`]. Computed lazily and cached; invalidated by
    /// [`Graph::apply_batch`] and [`Graph::with_labels`].
    ///
    /// Including the version means a batch followed by its exact inverse
    /// still changes the fingerprint — any artifact (snapshot, cached
    /// result trie) captured before a mutation is permanently
    /// distinguishable from the live graph, which is what makes
    /// stale-artifact rejection sound without tracking history.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            use std::hash::{Hash, Hasher};
            // DefaultHasher with fixed keys: stable within a build, the
            // same scheme the plan-cache keys use.
            let mut h = std::collections::hash_map::DefaultHasher::new();
            self.version.hash(&mut h);
            self.symmetric.hash(&mut h);
            self.num_vertices().hash(&mut h);
            self.out.offsets().hash(&mut h);
            self.out.targets().hash(&mut h);
            match &self.labels {
                Some(l) => {
                    true.hash(&mut h);
                    l.hash(&mut h);
                }
                None => false.hash(&mut h),
            }
            h.finish()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undirected_symmetrises() {
        let g = Graph::undirected(3, &[(0, 1), (1, 2)]);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(g.has_edge(1, 2) && g.has_edge(2, 1));
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_input_edges(), 2);
        assert!(g.is_symmetric());
    }

    #[test]
    fn directed_keeps_direction() {
        let g = Graph::directed(3, &[(0, 1), (1, 2)]);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.in_degree(2), 1);
        assert_eq!(g.out_degree(2), 0);
        assert!(!g.is_symmetric());
    }

    #[test]
    fn self_loops_removed() {
        let g = Graph::undirected(2, &[(0, 0), (0, 1)]);
        assert_eq!(g.num_edges(), 2);
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn degree_dominates_checks_both_sides() {
        let g = Graph::directed(3, &[(0, 1), (0, 2), (1, 0)]);
        // vertex 0: out 2, in 1.
        assert!(g.degree_dominates(0, 2, 1));
        assert!(!g.degree_dominates(0, 3, 0));
        assert!(!g.degree_dominates(0, 0, 2));
    }

    #[test]
    fn labels_attach_and_filter() {
        let g = Graph::undirected(3, &[(0, 1), (1, 2)]).with_labels(vec![7, 8, 7]);
        assert!(g.is_labeled());
        assert_eq!(g.label(1), Some(8));
        let q = Graph::undirected(2, &[(0, 1)]).with_labels(vec![7, 8]);
        assert!(g.label_compatible(0, &q, 0)); // 7 == 7
        assert!(!g.label_compatible(1, &q, 0)); // 8 != 7
                                                // Unlabelled side is a wildcard.
        let unlabeled = Graph::undirected(2, &[(0, 1)]);
        assert!(g.label_compatible(1, &unlabeled, 0));
        assert!(unlabeled.label_compatible(0, &q, 1));
    }

    #[test]
    #[should_panic(expected = "one label per vertex")]
    fn wrong_label_count_panics() {
        let _ = Graph::undirected(3, &[(0, 1)]).with_labels(vec![1]);
    }

    #[test]
    fn from_out_csr_round_trips_and_validates() {
        let und = Graph::undirected(5, &[(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]);
        let back = Graph::from_out_csr(und.out_csr().clone(), true).unwrap();
        assert!(back.is_symmetric());
        assert_eq!(back.out_csr(), und.out_csr());
        assert_eq!(back.in_csr(), und.in_csr());

        let dir = Graph::directed(4, &[(0, 1), (1, 2), (3, 1)]);
        let back = Graph::from_out_csr(dir.out_csr().clone(), false).unwrap();
        assert!(!back.is_symmetric());
        assert_eq!(back.in_csr(), dir.in_csr());

        // An asymmetric adjacency must not pass as symmetric, and a
        // self-loop is never canonical.
        assert!(Graph::from_out_csr(dir.out_csr().clone(), true).is_err());
        let loopy = Csr::from_edges(2, &[(0, 0), (0, 1), (1, 0)]);
        assert!(Graph::from_out_csr(loopy.clone(), false).is_err());
        assert!(Graph::from_out_csr(loopy, true).is_err());
    }

    #[test]
    fn degree_extremes() {
        let g = Graph::undirected(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.max_out_degree(), 3);
        assert_eq!(g.max_in_degree(), 3);
        assert!((g.avg_out_degree() - 1.5).abs() < 1e-12);
    }
}
