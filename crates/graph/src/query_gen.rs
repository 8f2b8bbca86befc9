//! The paper's query sets (§6.2): "we generated all possible five node
//! graphs and then sorted them by the total number of edges in decreasing
//! order and selected the top 11 as the query graphs ... a similar procedure
//! was carried out for six node and seven node query graphs."
//!
//! We enumerate densest-first by *deleting* edge subsets from `K_n`: a graph
//! with `E - r` edges is `K_n` minus an `r`-subset, so enumerating `r = 0,
//! 1, 2, …` yields graphs in strictly decreasing edge order. Each candidate
//! is deduplicated by exact canonical form and filtered for connectivity.
//! Ties at equal edge count are broken deterministically by canonical form
//! (the paper broke them randomly; determinism is preferable for a
//! reproducible harness).

use crate::canonical::{canonical_form, graph_from_bits, isomorphic_backtrack};
use crate::graph::{Graph, VertexId};

/// A named query graph from the generated set.
#[derive(Debug, Clone)]
pub struct QueryGraph {
    /// e.g. `q5_0` = densest 5-vertex query (the 5-clique).
    pub name: String,
    /// Undirected query graph (symmetrised).
    pub graph: Graph,
    /// Undirected edge count.
    pub num_edges: usize,
}

fn all_pairs(n: usize) -> Vec<(VertexId, VertexId)> {
    let mut pairs = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            pairs.push((u as VertexId, v as VertexId));
        }
    }
    pairs
}

fn bits_without(n: usize, pairs: &[(VertexId, VertexId)], removed: &[usize]) -> u64 {
    let mut bits = 0u64;
    for (i, &(u, v)) in pairs.iter().enumerate() {
        if removed.contains(&i) {
            continue;
        }
        bits |= 1u64 << (u as usize * n + v as usize);
        bits |= 1u64 << (v as usize * n + u as usize);
    }
    bits
}

fn is_connected_bits(n: usize, bits: u64) -> bool {
    let mut seen = 1u64; // vertex 0
    let mut stack = vec![0usize];
    while let Some(u) = stack.pop() {
        for v in 0..n {
            if seen & (1 << v) == 0 && bits & (1u64 << (u * n + v)) != 0 {
                seen |= 1 << v;
                stack.push(v);
            }
        }
    }
    seen.count_ones() as usize == n
}

/// Enumerates all `r`-subsets of `0..m`, invoking `f` on each.
fn for_each_subset(m: usize, r: usize, f: &mut impl FnMut(&[usize])) {
    fn rec(m: usize, r: usize, start: usize, cur: &mut Vec<usize>, f: &mut impl FnMut(&[usize])) {
        if cur.len() == r {
            f(cur);
            return;
        }
        let need = r - cur.len();
        for i in start..=(m - need) {
            cur.push(i);
            rec(m, r, i + 1, cur, f);
            cur.pop();
        }
    }
    if r == 0 {
        f(&[]);
    } else if r <= m {
        rec(m, r, 0, &mut Vec::with_capacity(r), f);
    }
}

/// Generates the top-`k` densest non-isomorphic connected undirected graphs
/// on `n` vertices (the paper uses `n ∈ {5, 6, 7}`, `k = 11`). Results are
/// sorted by edge count descending, ties by canonical form ascending.
pub fn query_set(n: usize, k: usize) -> Vec<QueryGraph> {
    assert!(
        (2..=7).contains(&n),
        "query enumeration supports 2..=7 vertices"
    );
    let pairs = all_pairs(n);
    let full = pairs.len();
    let mut out: Vec<(usize, u64)> = Vec::new(); // (edges, canonical bits)
    for removed_count in 0..=full {
        if out.len() >= k {
            break;
        }
        // Dedup within the level via fast backtracking isomorphism (the
        // exhaustive canonical form would visit n! relabellings for each
        // of the thousands of removal subsets); representatives are
        // canonicalised once at the end for a deterministic ordering.
        let mut reps: Vec<(u64, Graph)> = Vec::new(); // (raw bits, graph)
        for_each_subset(full, removed_count, &mut |removed| {
            let bits = bits_without(n, &pairs, removed);
            if !is_connected_bits(n, bits) {
                return;
            }
            let g = graph_from_bits(n, bits);
            if !reps.iter().any(|(_, r)| isomorphic_backtrack(r, &g)) {
                reps.push((bits, g));
            }
        });
        let mut canon_this_level: Vec<u64> = reps
            .iter()
            .map(|&(bits, _)| canonical_form(n, bits))
            .collect();
        canon_this_level.sort_unstable();
        for canon in canon_this_level {
            out.push((full - removed_count, canon));
        }
    }
    out.truncate(k);
    out.into_iter()
        .enumerate()
        .map(|(i, (edges, canon))| {
            let directed = graph_from_bits(n, canon);
            // Rebuild as an undirected graph (the canonical bits are
            // symmetric, so collapse arcs to undirected edges).
            let und: Vec<_> = directed.edges().filter(|&(u, v)| u < v).collect();
            QueryGraph {
                name: format!("q{n}_{i}"),
                graph: Graph::undirected(n, &und),
                num_edges: edges,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::canonicalize;
    use crate::components::weakly_connected_components;

    #[test]
    fn densest_is_clique() {
        let qs = query_set(5, 11);
        assert_eq!(qs.len(), 11);
        assert_eq!(qs[0].num_edges, 10); // K5
        assert_eq!(
            canonicalize(&qs[0].graph),
            canonicalize(&crate::generators::clique(5))
        );
    }

    #[test]
    fn edge_counts_non_increasing() {
        let qs = query_set(5, 11);
        assert!(qs.windows(2).all(|w| w[0].num_edges >= w[1].num_edges));
    }

    #[test]
    fn all_pairwise_non_isomorphic() {
        let qs = query_set(5, 11);
        for i in 0..qs.len() {
            for j in (i + 1)..qs.len() {
                assert!(
                    !crate::canonical::are_isomorphic(&qs[i].graph, &qs[j].graph),
                    "{} and {} isomorphic",
                    qs[i].name,
                    qs[j].name
                );
            }
        }
    }

    #[test]
    fn all_connected() {
        for q in query_set(6, 11) {
            let c = weakly_connected_components(&q.graph);
            assert_eq!(c.num_components(), 1, "{} disconnected", q.name);
        }
    }

    #[test]
    fn known_level_counts() {
        // K5 minus 1 edge: exactly 1 graph; minus 2 edges: 2 graphs
        // (removed pair shares a vertex or not).
        let qs = query_set(5, 11);
        let at = |e: usize| qs.iter().filter(|q| q.num_edges == e).count();
        assert_eq!(at(10), 1);
        assert_eq!(at(9), 1);
        assert_eq!(at(8), 2);
    }

    #[test]
    fn seven_vertex_densest() {
        let qs = query_set(7, 3);
        assert_eq!(qs[0].num_edges, 21); // K7
        assert_eq!(qs[1].num_edges, 20);
    }
}
