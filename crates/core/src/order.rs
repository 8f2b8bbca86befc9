//! Query matching order (§4, §4.1.2).
//!
//! The root is the query vertex with maximum out-degree (minimum id breaks
//! ties) — §6.3 credits much of the speedup to this choice, since every
//! lower-degree root admits a superset of its candidates. Each subsequent
//! position takes the highest-out-degree vertex adjacent to the ordered
//! prefix, keeping every prefix connected so the `next_neigh` constraint
//! set is never empty.

use cuts_graph::{Graph, VertexId};

use crate::error::EngineError;

/// How the matching order is chosen — the paper's key heuristic (§4, §6)
/// versus the naive alternative used for ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderPolicy {
    /// cuTS: max-degree root, degree-greedy frontier (default).
    #[default]
    DegreeGreedy,
    /// Id-order BFS from vertex 0 (what an ordering-oblivious engine
    /// effectively does on unlabelled graphs).
    IdBfs,
}

/// Direction of a query edge between an earlier position and the position
/// being matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// `(S[prev], S[cur]) ∈ E_Q`: the candidate must be an out-neighbour
    /// of the earlier match.
    Out,
    /// `(S[cur], S[prev]) ∈ E_Q`: the candidate must be an in-neighbour.
    In,
}

/// A constraint tying the current position to an earlier one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackEdge {
    /// Earlier position in the order (index into the partial path).
    pub pos: usize,
    /// Which adjacency of the earlier match constrains the candidate.
    pub dir: Dir,
}

/// The complete matching plan for a query graph.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchOrder {
    /// `order[l]` = query vertex matched at depth `l`.
    pub order: Vec<VertexId>,
    /// `position[q]` = depth at which query vertex `q` is matched.
    pub position: Vec<usize>,
    /// `back_edges[l]` = constraints the depth-`l` candidate must satisfy
    /// against earlier matches (the paper's `next_neigh`, fixed per level).
    pub back_edges: Vec<Vec<BackEdge>>,
    /// Out-degree of `order[l]` in the query (Definition 5 filter).
    pub q_out: Vec<u32>,
    /// In-degree of `order[l]` in the query.
    pub q_in: Vec<u32>,
    /// Label of `order[l]`, when the query is labelled (extension: the
    /// candidate filter then also requires label equality on labelled
    /// data graphs).
    pub q_label: Vec<Option<u32>>,
}

/// Label admissibility of data vertex `c` for a query slot with label
/// `q_label`: constrains only when both sides carry labels.
#[inline]
pub fn label_ok(data: &Graph, c: VertexId, q_label: Option<u32>) -> bool {
    match (data.label(c), q_label) {
        (Some(ld), Some(lq)) => ld == lq,
        _ => true,
    }
}

impl MatchOrder {
    /// Builds a plan from an explicit order (every prefix after the first
    /// vertex must touch the preceding prefix). Used by baselines that
    /// deliberately order differently from cuTS.
    pub fn from_order(query: &Graph, order: Vec<VertexId>) -> Result<MatchOrder, EngineError> {
        let n = query.num_vertices();
        if n == 0 || order.is_empty() {
            return Err(EngineError::EmptyQuery);
        }
        assert_eq!(order.len(), n, "order must cover every query vertex");
        let mut position = vec![usize::MAX; n];
        for (l, &q) in order.iter().enumerate() {
            assert_eq!(
                position[q as usize],
                usize::MAX,
                "duplicate vertex in order"
            );
            position[q as usize] = l;
        }
        let back_edges = Self::build_back_edges(query, &order, &position);
        for (l, be) in back_edges.iter().enumerate().skip(1) {
            if be.is_empty() {
                debug_assert!(l > 0);
                return Err(EngineError::DisconnectedQuery);
            }
        }
        let q_out = order.iter().map(|&q| query.out_degree(q)).collect();
        let q_in = order.iter().map(|&q| query.in_degree(q)).collect();
        let q_label = order.iter().map(|&q| query.label(q)).collect();
        Ok(MatchOrder {
            order,
            position,
            back_edges,
            q_out,
            q_in,
            q_label,
        })
    }

    fn build_back_edges(
        query: &Graph,
        order: &[VertexId],
        position: &[usize],
    ) -> Vec<Vec<BackEdge>> {
        // For symmetric (undirected) queries each adjacency appears in both
        // directions; one constraint per edge suffices only when the data
        // graph is symmetric too. Over directed data the session plans
        // the query's directed closure instead (`ExecSession::plan_over`).
        let symmetric = query.is_symmetric();
        let n = order.len();
        let mut back_edges = Vec::with_capacity(n);
        for (l, &q) in order.iter().enumerate() {
            let mut be = Vec::new();
            for &w in query.out_neighbors(q) {
                let p = position[w as usize];
                if p < l {
                    // (q, w) with w earlier: candidate must have an edge
                    // *to* the earlier match => candidate ∈ in_neighbours
                    // of that match.
                    be.push(BackEdge {
                        pos: p,
                        dir: Dir::In,
                    });
                }
            }
            for &w in query.in_neighbors(q) {
                let p = position[w as usize];
                if p < l {
                    let dup = symmetric && be.iter().any(|b| b.pos == p && b.dir == Dir::In);
                    if dup {
                        continue;
                    }
                    be.push(BackEdge {
                        pos: p,
                        dir: Dir::Out,
                    });
                }
            }
            back_edges.push(be);
        }
        back_edges
    }

    /// Computes the order under a given policy.
    pub fn compute_with_policy(
        query: &Graph,
        policy: OrderPolicy,
    ) -> Result<MatchOrder, EngineError> {
        match policy {
            OrderPolicy::DegreeGreedy => Self::compute(query),
            OrderPolicy::IdBfs => {
                let n = query.num_vertices();
                if n == 0 {
                    return Err(EngineError::EmptyQuery);
                }
                let mut order = Vec::with_capacity(n);
                let mut visited = vec![false; n];
                while order.len() < n {
                    let next = (0..n as VertexId)
                        .filter(|&v| !visited[v as usize])
                        .find(|&v| {
                            order.is_empty()
                                || query
                                    .out_neighbors(v)
                                    .iter()
                                    .chain(query.in_neighbors(v))
                                    .any(|&w| visited[w as usize])
                        });
                    match next {
                        Some(v) => {
                            visited[v as usize] = true;
                            order.push(v);
                        }
                        None => return Err(EngineError::DisconnectedQuery),
                    }
                }
                Self::from_order(query, order)
            }
        }
    }

    /// Computes the order for a connected query graph. Fails with
    /// [`EngineError::DisconnectedQuery`] if some vertex is unreachable
    /// (callers should split components first, per §4).
    pub fn compute(query: &Graph) -> Result<MatchOrder, EngineError> {
        let n = query.num_vertices();
        if n == 0 {
            return Err(EngineError::EmptyQuery);
        }
        // Undirected degree view for selection: out-degree as the paper
        // specifies (for symmetrised graphs they coincide).
        let deg = |v: VertexId| query.out_degree(v);
        let root = (0..n as VertexId)
            .max_by(|&a, &b| deg(a).cmp(&deg(b)).then(b.cmp(&a)))
            .expect("non-empty");
        Self::from_order(query, Self::grow_greedy(query, vec![root])?)
    }

    /// Extends a connected `prefix` to a full order with the degree-greedy
    /// rule: each next position takes the highest-out-degree vertex
    /// adjacent to the ordered prefix (min id on ties). [`compute`] grows
    /// from the max-degree root; the batch-dynamic matcher grows from an
    /// anchor edge `[a, b]`.
    ///
    /// [`compute`]: MatchOrder::compute
    pub(crate) fn grow_greedy(
        query: &Graph,
        mut order: Vec<VertexId>,
    ) -> Result<Vec<VertexId>, EngineError> {
        let n = query.num_vertices();
        let deg = |v: VertexId| query.out_degree(v);
        // A vertex is marked once it is ordered or on the frontier.
        let mut marked = vec![false; n];
        for &v in &order {
            marked[v as usize] = true;
        }
        let mut frontier: Vec<VertexId> = Vec::new();
        let mut push_neighbors = |v: VertexId, frontier: &mut Vec<VertexId>| {
            for &w in query.out_neighbors(v).iter().chain(query.in_neighbors(v)) {
                if !marked[w as usize] {
                    marked[w as usize] = true;
                    frontier.push(w);
                }
            }
        };
        for &v in &order {
            push_neighbors(v, &mut frontier);
        }

        while order.len() < n {
            // Max out-degree in the frontier, min id on ties.
            let Some((idx, _)) = frontier
                .iter()
                .enumerate()
                .max_by(|(_, &a), (_, &b)| deg(a).cmp(&deg(b)).then(b.cmp(&a)))
            else {
                return Err(EngineError::DisconnectedQuery);
            };
            let v = frontier.swap_remove(idx);
            order.push(v);
            push_neighbors(v, &mut frontier);
        }
        Ok(order)
    }

    /// Number of levels (query vertices).
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True for the (disallowed) empty order.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuts_graph::generators::{chain, clique, star};

    #[test]
    fn root_is_max_degree_min_id() {
        // Star: hub (vertex 0) has max degree.
        let o = MatchOrder::compute(&star(5)).unwrap();
        assert_eq!(o.order[0], 0);
        // Chain 0-1-2-3: vertices 1 and 2 have degree 2; min id = 1 wins.
        let o = MatchOrder::compute(&chain(4)).unwrap();
        assert_eq!(o.order[0], 1);
    }

    #[test]
    fn prefix_always_connected() {
        let o = MatchOrder::compute(&chain(6)).unwrap();
        // Every level > 0 must have at least one back edge.
        for l in 1..o.len() {
            assert!(!o.back_edges[l].is_empty(), "level {l} unconstrained");
        }
    }

    #[test]
    fn clique_back_edges_full() {
        let o = MatchOrder::compute(&clique(4)).unwrap();
        for l in 0..4 {
            assert_eq!(o.back_edges[l].len(), l);
        }
    }

    #[test]
    fn undirected_dedup_one_constraint_per_edge() {
        let o = MatchOrder::compute(&clique(3)).unwrap();
        // Each back edge appears once, not twice.
        assert_eq!(o.back_edges[1].len(), 1);
        assert_eq!(o.back_edges[2].len(), 2);
    }

    #[test]
    fn directed_both_directions_kept() {
        // 0 -> 1 and 1 -> 2 and 2 -> 0 (directed 3-cycle).
        let g = Graph::directed(3, &[(0, 1), (1, 2), (2, 0)]);
        let o = MatchOrder::compute(&g).unwrap();
        // Last level closes the cycle: one In and one Out constraint.
        let last = &o.back_edges[2];
        assert_eq!(last.len(), 2);
        assert!(last.iter().any(|b| b.dir == Dir::In));
        assert!(last.iter().any(|b| b.dir == Dir::Out));
    }

    #[test]
    fn disconnected_rejected() {
        let g = Graph::undirected(4, &[(0, 1), (2, 3)]);
        assert!(matches!(
            MatchOrder::compute(&g),
            Err(EngineError::DisconnectedQuery)
        ));
    }

    #[test]
    fn empty_rejected() {
        let g = Graph::undirected(0, &[]);
        assert!(matches!(
            MatchOrder::compute(&g),
            Err(EngineError::EmptyQuery)
        ));
    }

    #[test]
    fn id_bfs_policy_orders_by_id() {
        let o = MatchOrder::compute_with_policy(&chain(4), OrderPolicy::IdBfs).unwrap();
        assert_eq!(o.order, vec![0, 1, 2, 3]);
        // Degree-greedy picks a different (better) root on the chain.
        let g = MatchOrder::compute_with_policy(&chain(4), OrderPolicy::DegreeGreedy).unwrap();
        assert_eq!(g.order[0], 1);
    }

    #[test]
    fn from_order_rejects_disconnected_prefix() {
        // Order [0, 3, ...] on a chain: vertex 3 not adjacent to vertex 0.
        let err = MatchOrder::from_order(&chain(4), vec![0, 3, 1, 2]);
        assert!(matches!(err, Err(EngineError::DisconnectedQuery)));
    }

    #[test]
    fn position_inverts_order() {
        let o = MatchOrder::compute(&clique(5)).unwrap();
        for (l, &q) in o.order.iter().enumerate() {
            assert_eq!(o.position[q as usize], l);
        }
    }
}
