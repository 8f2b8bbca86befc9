//! Batch-dynamic matching: standing queries over a mutating data graph.
//!
//! A [`DynamicSession`] owns a data graph plus a set of registered
//! standing queries, each with its current match set kept as a sorted
//! set of query-space embeddings. Applying an [`EdgeBatch`] produces one
//! [`MatchDelta`] per query by enumerating only the embeddings that use
//! an updated edge (the batch-dynamic formulation of arXiv 2401.17018).
//!
//! Matching is non-induced: a mapping is an embedding iff every query
//! arc lands on a data arc. So an embedding lost by the batch maps some
//! query arc onto a deleted arc, one gained maps some query arc onto an
//! inserted arc, and no other embedding changes. Per batch:
//!
//! 1. **Lost.** On the *old* graph, every deleted data arc `(u, v)` is
//!    anchored on every query arc `(a, b)`: `[u, v]` joins a depth-2 seed
//!    trie under a plan whose order starts `[a, b]`, and the device
//!    expands only those seeds ([`ExecSession::run_seeded_enumerate`]).
//! 2. The graph applies the batch ([`Graph::apply_batch`], which patches
//!    the cached data profile rather than rebuilding it).
//! 3. **Gained.** The same anchored expansion runs on the *new* graph
//!    from the inserted arcs.
//!
//! An embedding may map several query arcs onto updated arcs; it is
//! kept only at the first anchor (in query-arc order) that does, so it is
//! emitted once without a dedup set. When the query and the data are both
//! symmetric, each undirected query edge anchors once (`a < b`): its twin
//! `(b, a)` lands on an updated arc exactly when `(a, b)` does.
//!
//! Anchors a query automorphism maps onto each other would repeat one
//! expansion, so they are grouped into orbits
//! ([`cuts_graph::canonical::automorphisms`]) and only each orbit's
//! representative (its first anchor) launches. Every anchor `c` keeps an
//! automorphism `σ_c` mapping the representative's arc onto its own; an
//! embedding `m` the representative finds stands for `e = m∘σ_c⁻¹` at
//! each member `c`, which lands `c` where `m` lands the representative,
//! and `e` is kept only if `c` is its first landing anchor. Every
//! embedding using an updated arc arises that way from exactly one
//! `(m, c)` pair, so the exactly-once rule needs no dedup set here either
//! (DESIGN.md §16 has the argument). Queries over
//! [`cuts_graph::canonical::MAX_SMALL`] vertices keep one orbit per
//! anchor.
//!
//! The composition of emitted deltas is exactly the full-recompute
//! match set (`tests/dynamic_equivalence.rs` checks this byte for byte
//! across randomized insert/delete schedules).

use std::collections::{BTreeSet, HashMap, HashSet};

use cuts_gpu_sim::Device;
use cuts_graph::canonical::{automorphisms, MAX_SMALL};
use cuts_graph::{BatchError, EdgeBatch, Graph, GraphDelta, VertexId};
use cuts_obs::{Arg, EventKind};
use cuts_trie::HostTrie;

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::order::{label_ok, Dir, MatchOrder};
use crate::plan::QueryPlan;
use crate::session::{matched_query, ExecSession};

/// Handle to one standing query inside a [`DynamicSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StandingQueryId(pub usize);

/// The incremental matcher's output for one standing query and one
/// applied batch: which embeddings appeared and which disappeared.
/// Embeddings are in query-vertex space (`emb[q]` = data vertex matched
/// to query vertex `q`), each list sorted — two deltas over the same
/// state are byte-identical iff they agree semantically.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchDelta {
    /// The standing query this delta belongs to.
    pub query: StandingQueryId,
    /// Embeddings present after the batch but not before, sorted.
    pub added: Vec<Vec<VertexId>>,
    /// Embeddings present before the batch but not after, sorted.
    pub removed: Vec<Vec<VertexId>>,
    /// Updated data arcs anchored: the deleted arcs the graph had plus
    /// the inserted arcs.
    pub dirty_roots: usize,
    /// Seed paths (orbit representative × updated arc pairs passing the
    /// host filter) launched for device expansion; the other anchors of
    /// an orbit launch none.
    pub reseeded: usize,
    /// Trie entries the representatives' anchored runs built (seeds
    /// included) and returned to the arena.
    pub released_entries: usize,
    /// Simulated device milliseconds the anchored runs cost.
    pub sim_millis: f64,
}

impl MatchDelta {
    /// True when the batch left this query's match set untouched.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Total embeddings changed.
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }
}

/// Everything one [`DynamicSession::apply_batch`] call produced: the
/// graph-level arc delta plus one [`MatchDelta`] per standing query (in
/// registration order).
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Arc-level changes the graph accepted.
    pub graph: GraphDelta,
    /// Per-standing-query match deltas.
    pub deltas: Vec<MatchDelta>,
}

/// Failures of the batch-dynamic pipeline: either the batch itself was
/// rejected (graph untouched) or an anchored expansion failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DynamicError {
    /// The edge batch failed validation; nothing was applied.
    Batch(BatchError),
    /// A standing query's anchored expansion failed on the device.
    Engine(EngineError),
}

impl std::fmt::Display for DynamicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicError::Batch(e) => write!(f, "batch rejected: {e}"),
            DynamicError::Engine(e) => write!(f, "re-expansion failed: {e}"),
        }
    }
}

impl std::error::Error for DynamicError {}

impl From<BatchError> for DynamicError {
    fn from(e: BatchError) -> Self {
        DynamicError::Batch(e)
    }
}

impl From<EngineError> for DynamicError {
    fn from(e: EngineError) -> Self {
        DynamicError::Engine(e)
    }
}

/// A query arc `(a, b)` an embedding can land on an updated arc with,
/// and the query automorphism `sigma` (`sigma[x]` is the image of query
/// vertex `x`) that maps its orbit representative's arc onto it — the
/// identity on a representative.
struct Anchor {
    arc: (VertexId, VertexId),
    sigma: Vec<VertexId>,
}

/// The anchors one query automorphism orbit groups: `members` indexes
/// the query's anchor list in order, `members[0]` is the representative,
/// and `plan` (matching order starting with the representative's arc) is
/// the only one the orbit launches.
struct Orbit {
    members: Vec<usize>,
    plan: QueryPlan,
}

/// One registered standing query: its graph, its anchors and their
/// orbits (fixed at registration) and its current match set.
struct StandingQuery {
    query: Graph,
    anchors: Vec<Anchor>,
    orbits: Vec<Orbit>,
    matches: BTreeSet<Vec<VertexId>>,
}

/// What the anchored runs over one set of updated arcs produced.
#[derive(Default)]
struct Anchored {
    /// Each embedding using an updated arc, exactly once, unsorted.
    embeddings: Vec<Vec<VertexId>>,
    seeds: usize,
    entries: usize,
    sim_millis: f64,
}

/// The anchors of `query` over `data`, grouped into orbits. There is one
/// anchor per arc of the graph that is matched (the directed closure of a
/// symmetric query over directed data), or one per undirected edge when
/// that graph is symmetric, which it is exactly when the query and the
/// data both are. Each anchor joins the orbit of the first earlier
/// representative an automorphism of that graph (arc direction and
/// labels kept; an edge may land either way round when symmetric) maps
/// onto it, or starts its own. Queries over [`MAX_SMALL`] vertices use
/// the identity alone, one orbit per anchor. Plans are built here rather
/// than cached: their [`crate::PlanKey`] is the query's.
fn anchors(
    session: &ExecSession<'_>,
    data: &Graph,
    query: &Graph,
) -> Result<(Vec<Anchor>, Vec<Orbit>), EngineError> {
    let matched = matched_query(data, query);
    let twins = matched.is_symmetric();
    let n = matched.num_vertices();
    let group = if n <= MAX_SMALL {
        automorphisms(&matched)
    } else {
        vec![(0..n as VertexId).collect()]
    };
    let maps = |s: &[VertexId], (a, b): (VertexId, VertexId), (c, d): (VertexId, VertexId)| {
        let (x, y) = (s[a as usize], s[b as usize]);
        (x, y) == (c, d) || (twins && (y, x) == (c, d))
    };
    let mut anchors: Vec<Anchor> = Vec::new();
    let mut orbits: Vec<Orbit> = Vec::new();
    for arc in matched.edges().filter(|&(a, b)| !twins || a < b) {
        let joined = orbits.iter_mut().find_map(|o| {
            let rep = anchors[o.members[0]].arc;
            group.iter().find(|s| maps(s, rep, arc)).map(|s| (o, s))
        });
        let sigma = match joined {
            Some((orbit, sigma)) => {
                orbit.members.push(anchors.len());
                sigma.clone()
            }
            None => {
                let order = MatchOrder::grow_greedy(&matched, vec![arc.0, arc.1])?;
                let order = MatchOrder::from_order(&matched, order)?;
                let plan =
                    QueryPlan::with_order(&matched, order, session.config(), session.class())?;
                orbits.push(Orbit {
                    members: vec![anchors.len()],
                    plan,
                });
                group[0].clone()
            }
        };
        anchors.push(Anchor { arc, sigma });
    }
    Ok((anchors, orbits))
}

/// Host-side replica of the device filters on an anchored order's first
/// two levels: degree dominance and label at both, the level-1 back
/// edges, and injectivity.
fn seed_passes(data: &Graph, o: &MatchOrder, u: VertexId, v: VertexId) -> bool {
    u != v
        && [u, v].iter().enumerate().all(|(l, &w)| {
            data.degree_dominates(w, o.q_out[l], o.q_in[l]) && label_ok(data, w, o.q_label[l])
        })
        && o.back_edges[1].iter().all(|be| match be.dir {
            Dir::Out => data.has_edge(u, v),
            Dir::In => data.has_edge(v, u),
        })
}

/// Enumerates every embedding of `sq` in `data` that maps a query arc
/// onto one of `updated` (sorted, deduplicated arcs of `data`), each
/// exactly once: at the first anchor whose arc lands on an updated arc.
/// Only orbit representatives launch; each embedding `m` a
/// representative's run finds stands for one embedding `e = m∘σ⁻¹` per
/// member anchor (`e[σ[x]] = m[x]`), kept at the member that is its first
/// landing anchor.
fn anchored(
    session: &ExecSession<'_>,
    data: &Graph,
    sq: &StandingQuery,
    updated: &[(VertexId, VertexId)],
) -> Result<Anchored, EngineError> {
    let mut out = Anchored::default();
    if updated.is_empty() {
        return Ok(out);
    }
    let mut e = vec![0; sq.query.num_vertices()];
    for orbit in &sq.orbits {
        let paths: Vec<Vec<VertexId>> = updated
            .iter()
            .filter(|&&(u, v)| seed_passes(data, &orbit.plan.order, u, v))
            .map(|&(u, v)| vec![u, v])
            .collect();
        if paths.is_empty() {
            continue;
        }
        out.seeds += paths.len();
        let embeddings = &mut out.embeddings;
        let mut sink = |m: &[u32]| {
            for &c in &orbit.members {
                for (&x, &y) in sq.anchors[c].sigma.iter().zip(m) {
                    e[x as usize] = y;
                }
                let lands = |a: &Anchor| {
                    let (p, q) = a.arc;
                    updated
                        .binary_search(&(e[p as usize], e[q as usize]))
                        .is_ok()
                };
                if !sq.anchors[..c].iter().any(lands) {
                    embeddings.push(e.clone());
                }
            }
        };
        let seed = HostTrie::from_flat_paths(&paths);
        let r = session.run_seeded_enumerate(&orbit.plan, data, &seed, &mut sink)?;
        out.entries += r.level_counts.iter().sum::<u64>() as usize;
        out.sim_millis += r.sim_millis;
    }
    Ok(out)
}

/// Vertices within `radius` hops of the delta's touched set over the
/// union adjacency: the post-batch graph (which already contains every
/// inserted arc) plus the removed arcs in both directions (so
/// connectivity that existed only before the batch still counts). A
/// diagnostic of how far a batch could reach; the apply path does not
/// use it.
pub fn dirty_ball(graph: &Graph, delta: &GraphDelta, radius: usize) -> HashSet<VertexId> {
    let mut removed_adj: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
    for &(u, v) in &delta.removed {
        removed_adj.entry(u).or_default().push(v);
        removed_adj.entry(v).or_default().push(u);
    }
    let mut seen: HashSet<VertexId> = delta.touched.iter().copied().collect();
    let mut frontier: Vec<VertexId> = delta.touched.clone();
    for _ in 0..radius {
        let mut next = Vec::new();
        for &u in &frontier {
            let extra = removed_adj.get(&u).map_or(&[][..], |v| v.as_slice());
            for &v in graph
                .out_neighbors(u)
                .iter()
                .chain(graph.in_neighbors(u))
                .chain(extra)
            {
                if seen.insert(v) {
                    next.push(v);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    seen
}

/// A mutable data graph plus its standing queries. See the module docs
/// for the incremental pipeline each [`DynamicSession::apply_batch`]
/// runs.
pub struct DynamicSession<'d> {
    session: ExecSession<'d>,
    graph: Graph,
    queries: Vec<StandingQuery>,
}

impl<'d> DynamicSession<'d> {
    /// Binds `graph` to `device` for batch-dynamic matching.
    pub fn new(device: &'d Device, config: EngineConfig, graph: Graph) -> Self {
        DynamicSession {
            session: ExecSession::new(device, config),
            graph,
            queries: Vec::new(),
        }
    }

    /// The current data graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The underlying execution session.
    pub fn session(&self) -> &ExecSession<'d> {
        &self.session
    }

    /// Registers `query` (which must be weakly connected, like every
    /// [`ExecSession::run`] input) as a standing query: runs the full
    /// initial expansion, keeps its match set and groups its anchors
    /// (one per query arc) into automorphism orbits, planning one
    /// anchored run per orbit for incremental maintenance.
    pub fn register(&mut self, query: &Graph) -> Result<StandingQueryId, EngineError> {
        let mut matches = BTreeSet::new();
        self.session.run_enumerate(&self.graph, query, &mut |m| {
            matches.insert(m.to_vec());
        })?;
        let id = StandingQueryId(self.queries.len());
        let (anchors, orbits) = anchors(&self.session, &self.graph, query)?;
        self.queries.push(StandingQuery {
            query: query.clone(),
            anchors,
            orbits,
            matches,
        });
        Ok(id)
    }

    /// The standing query's current match set in query-vertex space —
    /// the composition of its initial expansion with every delta
    /// emitted since.
    pub fn match_set(&self, id: StandingQueryId) -> BTreeSet<Vec<VertexId>> {
        self.queries[id.0].matches.clone()
    }

    /// Ground truth: a fresh full expansion of the standing query over
    /// the current graph (no incremental state involved).
    pub fn recompute(&self, id: StandingQueryId) -> Result<BTreeSet<Vec<VertexId>>, EngineError> {
        let sq = &self.queries[id.0];
        let mut set = BTreeSet::new();
        let mut sink = |m: &[u32]| {
            set.insert(m.to_vec());
        };
        self.session
            .run_enumerate(&self.graph, &sq.query, &mut sink)?;
        Ok(set)
    }

    /// Applies `batch` to the graph and incrementally maintains every
    /// standing query, returning the arc delta plus one [`MatchDelta`]
    /// per query. The lost embeddings are enumerated before the batch is
    /// validated, from the deleted arcs the graph actually has; on a
    /// validation error, or an engine error on that side, nothing
    /// changes. An engine error on the gained side leaves the graph
    /// advanced and updates only the queries processed before the
    /// failure (re-register to resynchronise).
    pub fn apply_batch(&mut self, batch: &EdgeBatch) -> Result<BatchOutcome, DynamicError> {
        let deleted = present_arcs(&self.graph, batch.deletes());
        let lost = self
            .queries
            .iter()
            .map(|sq| anchored(&self.session, &self.graph, sq, &deleted))
            .collect::<Result<Vec<_>, _>>()?;
        let delta = self.graph.apply_batch(batch)?;
        let trace = self.session.device().trace();
        trace.instant_with(
            EventKind::Batch,
            "apply",
            &[
                ("inserted", Arg::U64(delta.inserted.len() as u64)),
                ("removed", Arg::U64(delta.removed.len() as u64)),
                ("touched", Arg::U64(delta.touched.len() as u64)),
                ("version", Arg::U64(delta.version)),
            ],
        );
        let mut deltas = Vec::with_capacity(self.queries.len());
        for (qi, (sq, lost)) in self.queries.iter_mut().zip(lost).enumerate() {
            let gained = anchored(&self.session, &self.graph, sq, &delta.inserted)?;
            let mut removed = lost.embeddings;
            let mut added = gained.embeddings;
            removed.sort_unstable();
            added.sort_unstable();
            for e in &removed {
                sq.matches.remove(e);
            }
            sq.matches.extend(added.iter().cloned());
            let d = MatchDelta {
                query: StandingQueryId(qi),
                added,
                removed,
                dirty_roots: deleted.len() + delta.inserted.len(),
                reseeded: lost.seeds + gained.seeds,
                released_entries: lost.entries + gained.entries,
                sim_millis: lost.sim_millis + gained.sim_millis,
            };
            trace.instant_with(
                EventKind::Batch,
                "delta",
                &[
                    ("query", Arg::U64(qi as u64)),
                    ("added", Arg::U64(d.added.len() as u64)),
                    ("removed", Arg::U64(d.removed.len() as u64)),
                    ("anchored_arcs", Arg::U64(d.dirty_roots as u64)),
                    ("seeds", Arg::U64(d.reseeded as u64)),
                    ("entries", Arg::U64(d.released_entries as u64)),
                ],
            );
            deltas.push(d);
        }
        Ok(BatchOutcome {
            graph: delta,
            deltas,
        })
    }
}

/// The arcs of `graph` that `deletes` names (both orientations on a
/// symmetric graph), sorted and deduplicated. Entries the graph does not
/// have are skipped: batch validation, which runs later, rejects them.
fn present_arcs(graph: &Graph, deletes: &[(VertexId, VertexId)]) -> Vec<(VertexId, VertexId)> {
    let n = graph.num_vertices() as VertexId;
    let mut arcs = Vec::with_capacity(2 * deletes.len());
    for &(u, v) in deletes {
        if u < n && v < n && graph.has_edge(u, v) {
            arcs.push((u, v));
            if graph.is_symmetric() {
                arcs.push((v, u));
            }
        }
    }
    arcs.sort_unstable();
    arcs.dedup();
    arcs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::enumerate_embeddings;
    use cuts_gpu_sim::DeviceConfig;
    use cuts_graph::generators::{chain, clique, cycle, erdos_renyi, mesh2d};

    fn session(graph: Graph) -> DynamicSession<'static> {
        let device = Box::leak(Box::new(Device::new(DeviceConfig::test_small())));
        DynamicSession::new(device, EngineConfig::default(), graph)
    }

    /// Applies each delta to `set` and checks internal consistency.
    fn fold_delta(set: &mut BTreeSet<Vec<u32>>, d: &MatchDelta) {
        for r in &d.removed {
            assert!(set.remove(r), "removed embedding {r:?} was not present");
        }
        for a in &d.added {
            assert!(
                set.insert(a.clone()),
                "added embedding {a:?} already present"
            );
        }
    }

    #[test]
    fn insert_creates_matches_delete_removes_them() {
        // Start from a triangle-free 2x3 mesh, then close a face.
        let mut dyn_s = session(mesh2d(2, 3));
        let q = dyn_s.register(&clique(3)).unwrap();
        assert!(dyn_s.match_set(q).is_empty());

        let mut b = EdgeBatch::new();
        b.insert(0, 4); // diagonal: 0-1-4 and 0-3-4 become triangles
        let out = dyn_s.apply_batch(&b).unwrap();
        let d = &out.deltas[0];
        assert_eq!(d.added.len(), 12); // 2 triangles x 3! orderings
        assert!(d.removed.is_empty());
        assert_eq!(dyn_s.match_set(q), dyn_s.recompute(q).unwrap());

        let mut b = EdgeBatch::new();
        b.delete(0, 4);
        let out = dyn_s.apply_batch(&b).unwrap();
        let d = &out.deltas[0];
        assert!(d.added.is_empty());
        assert_eq!(d.removed.len(), 12);
        assert!(dyn_s.match_set(q).is_empty());
        assert_eq!(dyn_s.match_set(q), dyn_s.recompute(q).unwrap());
    }

    #[test]
    fn deltas_track_recompute_on_random_graph() {
        let mut dyn_s = session(erdos_renyi(40, 120, 11));
        let q = dyn_s.register(&clique(3)).unwrap();
        let mut folded = dyn_s.match_set(q);

        // Insert a missing edge, delete an existing one, repeat.
        let g = dyn_s.graph();
        let (mut u, mut v) = (0u32, 1u32);
        'outer: for a in 0..40u32 {
            for b in (a + 1)..40u32 {
                if !g.has_edge(a, b) {
                    (u, v) = (a, b);
                    break 'outer;
                }
            }
        }
        let mut b1 = EdgeBatch::new();
        b1.insert(u, v);
        let out = dyn_s.apply_batch(&b1).unwrap();
        fold_delta(&mut folded, &out.deltas[0]);
        assert_eq!(folded, dyn_s.recompute(q).unwrap());
        assert_eq!(folded, dyn_s.match_set(q));

        let mut b2 = EdgeBatch::new();
        b2.delete(u, v);
        let out = dyn_s.apply_batch(&b2).unwrap();
        fold_delta(&mut folded, &out.deltas[0]);
        assert_eq!(folded, dyn_s.recompute(q).unwrap());
        assert_eq!(folded, dyn_s.match_set(q));
    }

    #[test]
    fn only_updated_edges_are_seeded() {
        // Far-apart regions on a long mesh: an edit in one corner seeds
        // only its own arcs, never the rest of the graph.
        let mut dyn_s = session(mesh2d(2, 20));
        let q = dyn_s.register(&clique(3)).unwrap();
        let mut b = EdgeBatch::new();
        b.insert(0, 21); // a diagonal in the left corner
        let out = dyn_s.apply_batch(&b).unwrap();
        let d = &out.deltas[0];
        assert_eq!(d.dirty_roots, 2, "both arcs of the inserted edge");
        // The triangle's three edges form one automorphism orbit: only
        // its representative seeds, once per arc of the inserted edge.
        assert_eq!(d.reseeded, 2, "one orbit x two arcs");
        assert_eq!(d.added.len(), 12, "triangles 0-1-21 and 0-20-21");
        assert_eq!(dyn_s.match_set(q), dyn_s.recompute(q).unwrap());
    }

    #[test]
    fn rejected_batch_changes_nothing() {
        let mut dyn_s = session(mesh2d(3, 3));
        let q = dyn_s.register(&clique(3)).unwrap();
        let before = dyn_s.match_set(q);
        let version = dyn_s.graph().version();
        let mut b = EdgeBatch::new();
        b.insert(0, 99); // out of range
        assert!(matches!(
            dyn_s.apply_batch(&b),
            Err(DynamicError::Batch(BatchError::VertexOutOfRange { .. }))
        ));
        assert_eq!(dyn_s.graph().version(), version);
        assert_eq!(dyn_s.match_set(q), before);
    }

    #[test]
    fn dirty_ball_covers_removed_arcs() {
        let mut g = mesh2d(2, 2); // square 0-1-3-2
        let mut b = EdgeBatch::new();
        b.delete(0, 1);
        let delta = g.apply_batch(&b).unwrap();
        // Radius 1 from {0,1}: via the removed arc both endpoints see
        // each other; via the new graph 0 sees 2 and 1 sees 3.
        let ball = dirty_ball(&g, &delta, 1);
        assert_eq!(ball, [0u32, 1, 2, 3].into_iter().collect::<HashSet<_>>());
    }

    /// Each edge of a random undirected graph as one arc (low id to high
    /// id), a third of them reciprocated.
    fn directed_data(n: usize, m: usize, seed: u64) -> Graph {
        let arcs: Vec<(VertexId, VertexId)> = erdos_renyi(n, m, seed)
            .edges()
            .filter(|&(u, v)| u < v || (u + v) % 3 == 0)
            .collect();
        Graph::directed(n, &arcs)
    }

    /// A seeded schedule of `rounds` batches, each deleting and inserting
    /// `edits` edges (arcs on directed data). After every batch the
    /// folded deltas must equal both the recompute and the reference
    /// matcher.
    fn check_schedule(data: Graph, query: &Graph, rounds: usize, edits: usize, seed: u64) {
        let n = data.num_vertices() as u64;
        let mut dyn_s = session(data);
        let q = dyn_s.register(query).unwrap();
        let mut folded = dyn_s.match_set(q);
        let mut state = seed;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % bound) as VertexId
        };
        for round in 0..rounds {
            let g = dyn_s.graph();
            let canon = |u: VertexId, v: VertexId| {
                if g.is_symmetric() {
                    (u.min(v), u.max(v))
                } else {
                    (u, v)
                }
            };
            let present: Vec<_> = g.edges().filter(|&(u, v)| canon(u, v) == (u, v)).collect();
            let mut named = BTreeSet::new();
            let mut b = EdgeBatch::new();
            while named.len() < edits {
                let (u, v) = present[next(present.len() as u64) as usize];
                if named.insert((u, v)) {
                    b.delete(u, v);
                }
            }
            while named.len() < 2 * edits {
                let (u, v) = (next(n), next(n));
                if u != v && !g.has_edge(u, v) && named.insert(canon(u, v)) {
                    b.insert(u, v);
                }
            }
            let out = dyn_s.apply_batch(&b).unwrap();
            fold_delta(&mut folded, &out.deltas[0]);
            let fresh = dyn_s.recompute(q).unwrap();
            assert_eq!(folded, fresh, "round {round}: folded deltas vs recompute");
            assert_eq!(folded, dyn_s.match_set(q), "round {round}: standing set");
            let mut want = BTreeSet::new();
            enumerate_embeddings(dyn_s.graph(), query, &mut |m| {
                want.insert(m.to_vec());
            });
            assert_eq!(fresh, want, "round {round}: recompute vs reference");
        }
    }

    #[test]
    fn directed_queries_on_directed_data_track_recompute() {
        let triangle = Graph::directed(3, &[(0, 1), (1, 2), (2, 0)]);
        let out_star = Graph::directed(4, &[(0, 1), (0, 2), (0, 3)]);
        let two_cycle = Graph::directed(2, &[(0, 1), (1, 0)]);
        for (i, query) in [triangle, out_star, two_cycle].iter().enumerate() {
            check_schedule(directed_data(30, 150, 3), query, 6, 4, 10 + i as u64);
        }
    }

    #[test]
    fn symmetric_query_on_directed_data_tracks_recompute() {
        for (i, query) in [clique(3), cycle(4), chain(3)].iter().enumerate() {
            check_schedule(directed_data(30, 150, 4), query, 6, 4, 20 + i as u64);
        }
    }

    #[test]
    fn two_vertex_query_needs_no_kernel() {
        // The depth-2 seed already is the full embedding: seeds are
        // emitted as they are, with no expansion launched.
        for (i, (data, query)) in [
            (erdos_renyi(30, 90, 2), chain(2)),
            (directed_data(30, 150, 5), Graph::directed(2, &[(0, 1)])),
        ]
        .into_iter()
        .enumerate()
        {
            let mut dyn_s = session(data.clone());
            let q = dyn_s.register(&query).unwrap();
            let mut b = EdgeBatch::new();
            let (u, v) = data.edges().next().unwrap();
            b.delete(u, v);
            let device = dyn_s.session().device();
            let launches = device.counters().kernel_launches;
            let out = dyn_s.apply_batch(&b).unwrap();
            assert_eq!(device.counters().kernel_launches, launches);
            let d = &out.deltas[0];
            assert!(d.reseeded > 0);
            assert_eq!(d.removed.len(), if data.is_symmetric() { 2 } else { 1 });
            assert_eq!(dyn_s.match_set(q), dyn_s.recompute(q).unwrap());
            check_schedule(data, &query, 4, 3, 30 + i as u64);
        }
    }

    #[test]
    fn label_mismatch_rejects_seeds() {
        // Labels 0 on the left half of a 4x4 mesh, 1 on the right; the
        // query wants three label-1 vertices.
        let labels = (0..16).map(|v| u32::from(v % 4 >= 2)).collect();
        let data = mesh2d(4, 4).with_labels(labels);
        let query = clique(3).with_labels(vec![1, 1, 1]);
        let mut dyn_s = session(data.clone());
        let q = dyn_s.register(&query).unwrap();

        let mut b = EdgeBatch::new();
        b.insert(0, 5); // a diagonal among label-0 vertices
        let d = &dyn_s.apply_batch(&b).unwrap().deltas[0];
        assert_eq!(
            (d.reseeded, d.len()),
            (0, 0),
            "no seed passes the label check"
        );

        let mut b = EdgeBatch::new();
        b.insert(2, 7); // a diagonal among label-1 vertices
        let d = &dyn_s.apply_batch(&b).unwrap().deltas[0];
        assert!(d.reseeded > 0);
        assert_eq!(d.added.len(), 12, "triangles 2-3-7 and 2-6-7");
        assert_eq!(dyn_s.match_set(q), dyn_s.recompute(q).unwrap());
        check_schedule(data, &query, 6, 3, 40);
    }

    #[test]
    fn anchors_group_into_automorphism_orbits() {
        let orbits = |data: Graph, query: &Graph| {
            let mut dyn_s = session(data);
            dyn_s.register(query).unwrap();
            let sq = &dyn_s.queries[0];
            for o in &sq.orbits {
                let (a, b) = sq.anchors[o.members[0]].arc;
                for &c in &o.members {
                    let s = &sq.anchors[c].sigma;
                    let image = (s[a as usize], s[b as usize]);
                    let arc = sq.anchors[c].arc;
                    assert!(
                        image == arc || image == (arc.1, arc.0),
                        "{image:?} vs {arc:?}"
                    );
                }
            }
            sq.orbits
                .iter()
                .map(|o| o.members.clone())
                .collect::<Vec<_>>()
        };
        let mesh = || mesh2d(3, 3);
        assert_eq!(orbits(mesh(), &cycle(4)), [vec![0, 1, 2, 3]]);
        assert_eq!(orbits(mesh(), &clique(3)), [vec![0, 1, 2]]);
        // Chain 0-1-2-3: the end edges swap, the middle one is alone.
        assert_eq!(orbits(mesh(), &chain(4)), [vec![0, 2], vec![1]]);
        // One distinct label leaves only the reflection through it.
        let labelled = mesh().with_labels(vec![0; 9]);
        let query = cycle(4).with_labels(vec![1, 0, 0, 0]);
        assert_eq!(orbits(labelled, &query).len(), 2);
        // Directed data: the 4-cycle's eight arcs form one orbit.
        assert_eq!(orbits(directed_data(12, 30, 1), &cycle(4)).len(), 1);
        let triangle = Graph::directed(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(orbits(directed_data(12, 30, 1), &triangle), [vec![0, 1, 2]]);
    }

    #[test]
    fn label_breaking_and_oversized_queries_track_recompute() {
        let labels = (0..36).map(|v| u32::from(v % 3 == 0)).collect();
        let data = erdos_renyi(36, 120, 8).with_labels(labels);
        check_schedule(data, &cycle(4).with_labels(vec![1, 0, 0, 0]), 5, 4, 50);
        // Over `MAX_SMALL` vertices: the identity group, one orbit per
        // anchor.
        let chain9 = chain(MAX_SMALL + 1);
        check_schedule(mesh2d(3, 4), &chain9, 3, 2, 51);
        let mut dyn_s = session(mesh2d(3, 4));
        dyn_s.register(&chain9).unwrap();
        assert_eq!(dyn_s.queries[0].orbits.len(), MAX_SMALL);
    }

    #[test]
    fn embedding_losing_two_edges_is_removed_once() {
        let mut dyn_s = session(clique(4));
        let q = dyn_s.register(&clique(3)).unwrap();
        let mut folded = dyn_s.match_set(q);
        let mut b = EdgeBatch::new();
        b.delete(0, 1).delete(1, 2); // both edges of triangle 0-1-2
        let d = dyn_s.apply_batch(&b).unwrap().deltas.remove(0);
        let distinct: BTreeSet<_> = d.removed.iter().collect();
        assert_eq!(distinct.len(), d.removed.len(), "no embedding twice");
        // Every triangle but 0-2-3 used one of the two edges.
        assert_eq!(d.removed.len(), 18);
        fold_delta(&mut folded, &d);
        assert_eq!(folded, dyn_s.recompute(q).unwrap());

        // And back: the triangles gaining both edges appear once.
        let d = dyn_s.apply_batch(&b.inverse()).unwrap().deltas.remove(0);
        assert_eq!(d.added.len(), 18);
        fold_delta(&mut folded, &d);
        assert_eq!(folded, dyn_s.recompute(q).unwrap());
    }
}
