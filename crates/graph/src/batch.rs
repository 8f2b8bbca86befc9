//! Streaming edge updates: validated insert/delete batches over the CSR.
//!
//! A live graph takes mutations as [`EdgeBatch`]es —
//! [`Graph::apply_batch`] validates the whole batch up front (every edge
//! named exists or is genuinely new, no self-loops, no duplicates),
//! rebuilds the affected CSR rows with a sorted merge, and returns a
//! [`GraphDelta`] naming exactly the arcs that changed and the vertices
//! they touch. The delta is what the incremental matcher in `cuts-core`
//! consumes to decide which trie subtrees are dirty.
//!
//! Every successful application bumps the graph's mutation
//! [`Graph::version`] and invalidates the content
//! [`Graph::fingerprint`] — so cached plans, snapshots, and result tries
//! keyed on the old state can never be silently reused. A cached
//! [`DataProfile`] is patched in place rather than dropped: only the
//! signatures around touched vertices are recomputed, so a live graph
//! is profiled once, not once per batch.
//!
//! [`DataProfile`]: crate::profile::DataProfile

use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

use crate::csr::Csr;
use crate::graph::{Graph, VertexId};

/// A validated-on-application batch of edge insertions and deletions.
///
/// For symmetric (undirected) graphs each entry names the logical edge
/// `{u, v}` in either orientation; [`Graph::apply_batch`] stores and
/// removes both arcs. For directed graphs entries are arcs as given.
#[derive(Debug, Clone, Default)]
pub struct EdgeBatch {
    inserts: Vec<(VertexId, VertexId)>,
    deletes: Vec<(VertexId, VertexId)>,
}

impl EdgeBatch {
    /// An empty batch.
    pub fn new() -> Self {
        EdgeBatch::default()
    }

    /// Queues an edge insertion.
    pub fn insert(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.inserts.push((u, v));
        self
    }

    /// Queues an edge deletion.
    pub fn delete(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.deletes.push((u, v));
        self
    }

    /// Queued insertions, as given.
    pub fn inserts(&self) -> &[(VertexId, VertexId)] {
        &self.inserts
    }

    /// Queued deletions, as given.
    pub fn deletes(&self) -> &[(VertexId, VertexId)] {
        &self.deletes
    }

    /// Total queued operations.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// True when no operations are queued.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Builds a batch that exactly undoes this one (deletes what it
    /// inserted, re-inserts what it deleted). Applying a batch and then
    /// its inverse restores the original adjacency byte-for-byte — but
    /// not the original fingerprint, which tracks the mutation count.
    pub fn inverse(&self) -> EdgeBatch {
        EdgeBatch {
            inserts: self.deletes.clone(),
            deletes: self.inserts.clone(),
        }
    }
}

/// Why a batch was rejected. Validation is all-or-nothing: a rejected
/// batch leaves the graph untouched (same version, same fingerprint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchError {
    /// An edge names a vertex outside `0..num_vertices`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// The graph's vertex count.
        vertices: usize,
    },
    /// An edge connects a vertex to itself (never canonical here; the
    /// edge-list constructors drop loops on ingestion).
    SelfLoop {
        /// The looping vertex.
        vertex: VertexId,
    },
    /// The same logical edge appears twice in the batch (in either list,
    /// or once in each).
    DuplicateInBatch {
        /// Edge source (canonical orientation for symmetric graphs).
        u: VertexId,
        /// Edge target.
        v: VertexId,
    },
    /// An insertion names an edge the graph already has.
    AlreadyPresent {
        /// Edge source.
        u: VertexId,
        /// Edge target.
        v: VertexId,
    },
    /// A deletion names an edge the graph does not have.
    NotPresent {
        /// Edge source.
        u: VertexId,
        /// Edge target.
        v: VertexId,
    },
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::VertexOutOfRange { vertex, vertices } => {
                write!(f, "vertex {vertex} out of range (graph has {vertices})")
            }
            BatchError::SelfLoop { vertex } => write!(f, "self-loop on vertex {vertex}"),
            BatchError::DuplicateInBatch { u, v } => {
                write!(f, "edge ({u}, {v}) appears more than once in the batch")
            }
            BatchError::AlreadyPresent { u, v } => {
                write!(f, "insert of edge ({u}, {v}) which is already present")
            }
            BatchError::NotPresent { u, v } => {
                write!(f, "delete of edge ({u}, {v}) which is not present")
            }
        }
    }
}

impl std::error::Error for BatchError {}

/// What one applied batch changed: the stored arcs that were added and
/// removed (both orientations for symmetric graphs), the set of vertices
/// incident to any change, and the graph's new mutation version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphDelta {
    /// Arcs added to the out-CSR, sorted.
    pub inserted: Vec<(VertexId, VertexId)>,
    /// Arcs removed from the out-CSR, sorted.
    pub removed: Vec<(VertexId, VertexId)>,
    /// Endpoints of every changed arc, sorted and deduplicated — the
    /// seed set for dirty-subtree marking.
    pub touched: Vec<VertexId>,
    /// The graph's [`Graph::version`] after this batch.
    pub version: u64,
}

impl GraphDelta {
    /// Total arcs changed.
    pub fn arcs_changed(&self) -> usize {
        self.inserted.len() + self.removed.len()
    }
}

/// Applies sorted arc edits to one CSR: rows named by `adds`/`dels` are
/// re-merged, every other row is copied verbatim. `O(|V| + |E| + |Δ|)`.
fn edit_csr(csr: &Csr, adds: &[(VertexId, VertexId)], dels: &[(VertexId, VertexId)]) -> Csr {
    let n = csr.num_vertices();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut targets = Vec::with_capacity((csr.num_edges() + adds.len()).saturating_sub(dels.len()));
    offsets.push(0u64);
    let (mut ai, mut di) = (0usize, 0usize);
    for u in 0..n as VertexId {
        let row = csr.neighbors(u);
        let row_adds_start = ai;
        while ai < adds.len() && adds[ai].0 == u {
            ai += 1;
        }
        let row_dels_start = di;
        while di < dels.len() && dels[di].0 == u {
            di += 1;
        }
        if row_adds_start == ai && row_dels_start == di {
            targets.extend_from_slice(row);
        } else {
            // Merge the sorted row with its sorted add list, skipping
            // deletions. Validation guarantees adds are absent and dels
            // present, so the merge never sees a conflict.
            let row_adds = &adds[row_adds_start..ai];
            let row_dels = &dels[row_dels_start..di];
            let (mut r, mut a, mut d) = (0usize, 0usize, 0usize);
            while r < row.len() || a < row_adds.len() {
                let next_add = row_adds.get(a).map(|&(_, v)| v);
                match (row.get(r).copied(), next_add) {
                    (Some(t), add) if add.is_none_or(|x| t < x) => {
                        if row_dels.get(d).is_some_and(|&(_, x)| x == t) {
                            d += 1;
                        } else {
                            targets.push(t);
                        }
                        r += 1;
                    }
                    (_, Some(x)) => {
                        targets.push(x);
                        a += 1;
                    }
                    _ => unreachable!("merge cursors exhausted together"),
                }
            }
            debug_assert_eq!(d, row_dels.len(), "unmatched deletion in row {u}");
        }
        offsets.push(targets.len() as u64);
    }
    Csr::from_sorted_parts(offsets, targets).expect("edited CSR keeps every invariant")
}

impl Graph {
    /// Applies a validated batch of edge insertions and deletions,
    /// returning exactly what changed.
    ///
    /// The whole batch is checked before anything is touched — out-of-
    /// range vertices, self-loops, duplicate edges within the batch,
    /// inserts of present edges, and deletes of absent edges all reject
    /// the batch and leave the graph (version, fingerprint, profile)
    /// unchanged. An empty batch is a no-op and does **not** bump the
    /// version.
    ///
    /// On success the mutation [`Graph::version`] increments and the
    /// [`Graph::fingerprint`] is invalidated, so plans or snapshots
    /// keyed against the previous state cannot be reused silently. A
    /// cached [`crate::profile::DataProfile`] is patched in place
    /// ([`crate::profile::DataProfile::patched`]): the new profile equals
    /// a fresh build but recomputes only the signatures of touched
    /// vertices and their neighbours, and does not count as a build. An
    /// uncached profile stays uncached. Built hub rows
    /// ([`crate::hubs`]) are patched the same way: touched vertices'
    /// rows are re-filled, and no row is added.
    pub fn apply_batch(&mut self, batch: &EdgeBatch) -> Result<GraphDelta, BatchError> {
        let n = self.num_vertices();
        // Canonical key per logical edge: sorted pair when symmetric
        // (either orientation names the same edge), the arc as given
        // when directed.
        let canon = |u: VertexId, v: VertexId| -> (VertexId, VertexId) {
            if self.symmetric && u > v {
                (v, u)
            } else {
                (u, v)
            }
        };
        let mut seen: BTreeSet<(VertexId, VertexId)> = BTreeSet::new();
        let mut check = |u: VertexId, v: VertexId| -> Result<(), BatchError> {
            for w in [u, v] {
                if w as usize >= n {
                    return Err(BatchError::VertexOutOfRange {
                        vertex: w,
                        vertices: n,
                    });
                }
            }
            if u == v {
                return Err(BatchError::SelfLoop { vertex: u });
            }
            let key = canon(u, v);
            if !seen.insert(key) {
                return Err(BatchError::DuplicateInBatch { u: key.0, v: key.1 });
            }
            Ok(())
        };
        for &(u, v) in &batch.inserts {
            check(u, v)?;
            if self.has_edge(u, v) {
                return Err(BatchError::AlreadyPresent { u, v });
            }
        }
        for &(u, v) in &batch.deletes {
            check(u, v)?;
            if !self.has_edge(u, v) {
                return Err(BatchError::NotPresent { u, v });
            }
        }
        if batch.is_empty() {
            return Ok(GraphDelta {
                inserted: Vec::new(),
                removed: Vec::new(),
                touched: Vec::new(),
                version: self.version,
            });
        }

        // Expand logical edges to stored arcs.
        let expand = |edges: &[(VertexId, VertexId)]| -> Vec<(VertexId, VertexId)> {
            let mut arcs = Vec::with_capacity(edges.len() * if self.symmetric { 2 } else { 1 });
            for &(u, v) in edges {
                arcs.push((u, v));
                if self.symmetric {
                    arcs.push((v, u));
                }
            }
            arcs.sort_unstable();
            arcs
        };
        let adds = expand(&batch.inserts);
        let dels = expand(&batch.deletes);

        self.out = edit_csr(&self.out, &adds, &dels);
        self.inn = if self.symmetric {
            self.out.clone()
        } else {
            let reverse = |arcs: &[(VertexId, VertexId)]| {
                let mut r: Vec<_> = arcs.iter().map(|&(u, v)| (v, u)).collect();
                r.sort_unstable();
                r
            };
            edit_csr(&self.inn, &reverse(&adds), &reverse(&dels))
        };

        let mut touched: Vec<VertexId> = adds
            .iter()
            .chain(dels.iter())
            .flat_map(|&(u, v)| [u, v])
            .collect();
        touched.sort_unstable();
        touched.dedup();

        self.version += 1;
        if let Some(profile) = self.profile.take() {
            let _ = self.profile.set(Arc::new(profile.patched(self, &touched)));
        }
        if let Some(mut hubs) = self.hubs.take() {
            Arc::make_mut(&mut hubs).patch(self, &touched);
            let _ = self.hubs.set(hubs);
        }
        self.fingerprint = OnceLock::new();
        Ok(GraphDelta {
            inserted: adds,
            removed: dels,
            touched,
            version: self.version,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(g: &Graph) -> u64 {
        g.fingerprint()
    }

    #[test]
    fn insert_and_delete_roundtrip_restores_csr() {
        let mut g = Graph::undirected(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let before_out = g.out_csr().clone();
        let f0 = fp(&g);

        let mut batch = EdgeBatch::new();
        batch.insert(0, 2).insert(4, 0).delete(1, 2);
        let delta = g.apply_batch(&batch).unwrap();
        assert_eq!(delta.version, 1);
        assert_eq!(delta.inserted.len(), 4, "two logical edges, both arcs");
        assert_eq!(delta.removed, vec![(1, 2), (2, 1)]);
        assert_eq!(delta.touched, vec![0, 1, 2, 4]);
        assert!(g.has_edge(0, 2) && g.has_edge(2, 0));
        assert!(!g.has_edge(1, 2));
        let f1 = fp(&g);
        assert_ne!(f0, f1, "first batch must bump the fingerprint");

        let delta = g.apply_batch(&batch.inverse()).unwrap();
        assert_eq!(delta.version, 2);
        assert_eq!(g.out_csr(), &before_out, "inverse restores adjacency");
        assert_eq!(g.in_csr(), &before_out);
        let f2 = fp(&g);
        assert_ne!(f1, f2, "second batch must bump the fingerprint");
        assert_ne!(f0, f2, "restored adjacency is still a new version");
    }

    #[test]
    fn directed_batches_edit_one_direction() {
        let mut g = Graph::directed(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut batch = EdgeBatch::new();
        batch.insert(3, 0).delete(1, 2);
        let delta = g.apply_batch(&batch).unwrap();
        assert_eq!(delta.inserted, vec![(3, 0)]);
        assert!(g.has_edge(3, 0) && !g.has_edge(0, 3));
        assert!(!g.has_edge(1, 2));
        // The in-CSR tracked the edits.
        assert_eq!(g.in_neighbors(0), &[3]);
        assert_eq!(g.in_neighbors(2), &[] as &[VertexId]);
    }

    #[test]
    fn validation_rejects_and_leaves_graph_untouched() {
        let mut g = Graph::undirected(3, &[(0, 1), (1, 2)]);
        let f0 = fp(&g);
        let snapshot = g.out_csr().clone();
        let mut bad = EdgeBatch::new();
        bad.insert(0, 7);
        assert!(matches!(
            g.apply_batch(&bad),
            Err(BatchError::VertexOutOfRange { vertex: 7, .. })
        ));
        let mut bad = EdgeBatch::new();
        bad.insert(1, 1);
        assert!(matches!(
            g.apply_batch(&bad),
            Err(BatchError::SelfLoop { vertex: 1 })
        ));
        let mut bad = EdgeBatch::new();
        bad.insert(0, 2).insert(2, 0); // same logical edge, both ways
        assert!(matches!(
            g.apply_batch(&bad),
            Err(BatchError::DuplicateInBatch { .. })
        ));
        let mut bad = EdgeBatch::new();
        bad.insert(0, 1);
        assert!(matches!(
            g.apply_batch(&bad),
            Err(BatchError::AlreadyPresent { .. })
        ));
        let mut bad = EdgeBatch::new();
        bad.delete(0, 2);
        assert!(matches!(
            g.apply_batch(&bad),
            Err(BatchError::NotPresent { .. })
        ));
        assert_eq!(g.version(), 0, "rejected batches never mutate");
        assert_eq!(g.out_csr(), &snapshot);
        assert_eq!(fp(&g), f0);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut g = Graph::undirected(3, &[(0, 1)]);
        let f0 = fp(&g);
        let delta = g.apply_batch(&EdgeBatch::new()).unwrap();
        assert_eq!(delta.arcs_changed(), 0);
        assert_eq!(g.version(), 0);
        assert_eq!(fp(&g), f0);
    }

    #[test]
    fn profile_invalidated_by_batch() {
        let mut g = Graph::undirected(4, &[(0, 1), (1, 2), (2, 3)]);
        let p0 = g.profile();
        let mut batch = EdgeBatch::new();
        batch.insert(0, 3);
        g.apply_batch(&batch).unwrap();
        let p1 = g.profile();
        assert!(
            !std::sync::Arc::ptr_eq(&p0, &p1),
            "stale profile must not survive a mutation"
        );
        assert_eq!(*p1, crate::profile::DataProfile::build(&g));
    }

    #[test]
    fn edited_graph_matches_fresh_construction() {
        // After arbitrary edits, the CSR must be indistinguishable from
        // building the final edge set from scratch.
        let mut g = Graph::undirected(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let mut batch = EdgeBatch::new();
        batch.insert(0, 5).insert(1, 4).delete(2, 3);
        g.apply_batch(&batch).unwrap();
        let fresh = Graph::undirected(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (0, 5), (1, 4)]);
        assert_eq!(g.out_csr(), fresh.out_csr());
        assert_eq!(g.in_csr(), fresh.in_csr());
    }
}
