//! Exact canonical forms for small graphs (≤ 8 vertices).
//!
//! The paper's query sets are built from *all possible* 5/6/7-vertex graphs;
//! enumerating those requires deduplicating up to isomorphism. For n ≤ 8 a
//! brute-force minimum over all n! adjacency-matrix relabellings is exact
//! and fast enough (8! = 40320), so we use that rather than a heuristic.

use crate::graph::{Graph, VertexId};

/// Maximum vertex count supported by the bit-matrix representation.
pub const MAX_SMALL: usize = 8;

/// Packs an undirected graph into an adjacency bit matrix: bit `u * n + v`
/// set iff the arc `(u, v)` exists. Symmetric for undirected graphs.
pub fn adjacency_bits(g: &Graph) -> u64 {
    let n = g.num_vertices();
    assert!(
        n <= MAX_SMALL,
        "graph too large for small-graph canonicalisation"
    );
    let mut bits = 0u64;
    for (u, v) in g.edges() {
        bits |= 1u64 << (u as usize * n + v as usize);
    }
    bits
}

/// Applies a relabelling `perm` (new id of old vertex `i` is `perm[i]`) to a
/// bit matrix.
fn permute_bits(n: usize, bits: u64, perm: &[usize]) -> u64 {
    let mut out = 0u64;
    for u in 0..n {
        for v in 0..n {
            if bits & (1u64 << (u * n + v)) != 0 {
                out |= 1u64 << (perm[u] * n + perm[v]);
            }
        }
    }
    out
}

/// Canonical form: the lexicographically-minimal bit matrix over all
/// relabellings. Two graphs on `n` vertices are isomorphic iff their
/// canonical forms are equal.
pub fn canonical_form(n: usize, bits: u64) -> u64 {
    assert!(n <= MAX_SMALL);
    let mut perm: Vec<usize> = (0..n).collect();
    let mut best = permute_bits(n, bits, &perm);
    // Heap's algorithm over all permutations.
    let mut c = vec![0usize; n];
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                perm.swap(0, i);
            } else {
                perm.swap(c[i], i);
            }
            let cand = permute_bits(n, bits, &perm);
            if cand < best {
                best = cand;
            }
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    best
}

/// Canonical form of a graph directly.
pub fn canonicalize(g: &Graph) -> u64 {
    canonical_form(g.num_vertices(), adjacency_bits(g))
}

/// Exact isomorphism test for graphs with ≤ 8 vertices.
pub fn are_isomorphic(a: &Graph, b: &Graph) -> bool {
    if a.num_vertices() != b.num_vertices() || a.num_edges() != b.num_edges() {
        return false;
    }
    canonicalize(a) == canonicalize(b)
}

/// Every automorphism of a small graph: the relabellings `perm` (vertex
/// `i` maps to `perm[i]`) that preserve every arc, direction included,
/// and every vertex label. Enumerated by backtracking over vertices in id
/// order, pruning a partial map as soon as a degree, a label or an arc
/// between mapped vertices disagrees; the identity comes first and the
/// rest follow in lexicographic order.
pub fn automorphisms(g: &Graph) -> Vec<Vec<VertexId>> {
    let n = g.num_vertices();
    assert!(
        n <= MAX_SMALL,
        "graph too large for automorphism enumeration"
    );
    fn rec(g: &Graph, map: &mut Vec<VertexId>, used: &mut [bool], out: &mut Vec<Vec<VertexId>>) {
        let u = map.len() as VertexId;
        if u as usize == used.len() {
            out.push(map.clone());
            return;
        }
        for w in 0..used.len() as VertexId {
            let fits = !used[w as usize]
                && g.out_degree(w) == g.out_degree(u)
                && g.in_degree(w) == g.in_degree(u)
                && g.label(w) == g.label(u)
                && (0..u).all(|p| {
                    let mp = map[p as usize];
                    g.has_edge(u, p) == g.has_edge(w, mp) && g.has_edge(p, u) == g.has_edge(mp, w)
                });
            if fits {
                used[w as usize] = true;
                map.push(w);
                rec(g, map, used, out);
                map.pop();
                used[w as usize] = false;
            }
        }
    }
    let mut out = Vec::new();
    rec(g, &mut Vec::with_capacity(n), &mut vec![false; n], &mut out);
    out
}

/// Number of automorphisms of a small graph ([`automorphisms`]).
/// Useful for relating embedding counts to subgraph-occurrence counts in
/// tests.
pub fn automorphism_count(g: &Graph) -> u64 {
    automorphisms(g).len() as u64
}

/// Backtracking isomorphism test with degree pruning — much faster than
/// the exhaustive canonical form for sparse small graphs (used by the
/// query-set enumeration, which deduplicates thousands of candidates).
/// Exact for any sizes, but intended for small graphs.
pub fn isomorphic_backtrack(a: &Graph, b: &Graph) -> bool {
    let n = a.num_vertices();
    if n != b.num_vertices() || a.num_edges() != b.num_edges() {
        return false;
    }
    // Degree-multiset invariant.
    let key = |g: &Graph, v: VertexId| (g.out_degree(v), g.in_degree(v));
    let mut da: Vec<_> = (0..n as VertexId).map(|v| key(a, v)).collect();
    let mut db: Vec<_> = (0..n as VertexId).map(|v| key(b, v)).collect();
    da.sort_unstable();
    db.sort_unstable();
    if da != db {
        return false;
    }
    // Map vertices of `a` in descending-degree order (most constrained
    // first) to same-degree vertices of `b`.
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    order.sort_unstable_by_key(|&v| std::cmp::Reverse(key(a, v)));
    let mut map = vec![u32::MAX; n];
    let mut used = vec![false; n];
    fn rec(
        a: &Graph,
        b: &Graph,
        order: &[VertexId],
        pos: usize,
        map: &mut Vec<u32>,
        used: &mut Vec<bool>,
    ) -> bool {
        if pos == order.len() {
            return true;
        }
        let u = order[pos];
        for w in 0..b.num_vertices() as VertexId {
            if used[w as usize]
                || b.out_degree(w) != a.out_degree(u)
                || b.in_degree(w) != a.in_degree(u)
            {
                continue;
            }
            // Consistency with already-mapped vertices.
            let ok = order[..pos].iter().all(|&p| {
                let mp = map[p as usize];
                a.has_edge(u, p) == b.has_edge(w, mp) && a.has_edge(p, u) == b.has_edge(mp, w)
            });
            if !ok {
                continue;
            }
            map[u as usize] = w;
            used[w as usize] = true;
            if rec(a, b, order, pos + 1, map, used) {
                return true;
            }
            used[w as usize] = false;
            map[u as usize] = u32::MAX;
        }
        false
    }
    rec(a, b, &order, 0, &mut map, &mut used)
}

/// Rebuilds a graph from a bit matrix (inverse of [`adjacency_bits`]).
pub fn graph_from_bits(n: usize, bits: u64) -> Graph {
    let mut edges = Vec::new();
    for u in 0..n {
        for v in 0..n {
            if bits & (1u64 << (u * n + v)) != 0 {
                edges.push((u as VertexId, v as VertexId));
            }
        }
    }
    Graph::directed(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{chain, clique, cycle, star};

    #[test]
    fn isomorphic_relabellings_detected() {
        // Path 0-1-2 vs path 2-0-1.
        let a = Graph::undirected(3, &[(0, 1), (1, 2)]);
        let b = Graph::undirected(3, &[(2, 0), (0, 1)]);
        assert!(are_isomorphic(&a, &b));
    }

    #[test]
    fn non_isomorphic_same_counts() {
        // Both 4 vertices, 3 edges: path vs star.
        let p = chain(4);
        let s = star(4);
        assert_eq!(p.num_edges(), s.num_edges());
        assert!(!are_isomorphic(&p, &s));
    }

    #[test]
    fn clique_automorphisms() {
        assert_eq!(automorphism_count(&clique(4)), 24);
        assert_eq!(automorphism_count(&cycle(5)), 10); // dihedral D5
        assert_eq!(automorphism_count(&chain(3)), 2);
    }

    /// Brute force over all n! relabellings of the bit matrix, labels
    /// ignored: the reference the backtracking enumerator must agree
    /// with on unlabelled graphs.
    fn brute_force(g: &Graph) -> Vec<Vec<VertexId>> {
        let n = g.num_vertices();
        let bits = adjacency_bits(g);
        let mut all = Vec::new();
        let mut perm: Vec<usize> = (0..n).collect();
        loop {
            if permute_bits(n, bits, &perm) == bits {
                all.push(perm.iter().map(|&p| p as VertexId).collect());
            }
            // Next permutation in lexicographic order.
            let Some(i) = (1..n).rev().find(|&i| perm[i - 1] < perm[i]) else {
                return all;
            };
            let j = (i..n).rev().find(|&j| perm[j] > perm[i - 1]).unwrap();
            perm.swap(i - 1, j);
            perm[i..].reverse();
        }
    }

    #[test]
    fn automorphisms_are_the_relabellings_fixing_the_graph() {
        let directed = Graph::directed(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        for g in [clique(4), cycle(5), chain(3), star(5), cycle(4), directed] {
            let auts = automorphisms(&g);
            assert_eq!(auts, brute_force(&g), "{g:?}");
            assert_eq!(
                auts[0],
                (0..g.num_vertices() as VertexId).collect::<Vec<_>>()
            );
        }
        // A directed 4-cycle keeps only its rotations.
        assert_eq!(
            automorphisms(&Graph::directed(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])).len(),
            4
        );
    }

    #[test]
    fn labels_break_automorphisms() {
        // Cycle 0-1-2-3-0 labelled a, b, a, b: rotations by two and the
        // reflections through 0-2 and 1-3 keep the labels (4 of 8).
        let alternating = cycle(4).with_labels(vec![0, 1, 0, 1]);
        let auts = automorphisms(&alternating);
        assert_eq!(auts.len(), 4);
        for p in &auts {
            assert!((0..4).all(|v| alternating.label(p[v]) == alternating.label(v as VertexId)));
        }
        // One distinct label leaves only the reflection fixing it.
        assert_eq!(
            automorphisms(&cycle(4).with_labels(vec![1, 0, 0, 0])).len(),
            2
        );
        assert_eq!(
            automorphisms(&cycle(4).with_labels(vec![0, 1, 2, 3])).len(),
            1
        );
    }

    #[test]
    fn bits_roundtrip() {
        let g = cycle(5);
        let bits = adjacency_bits(&g);
        let g2 = graph_from_bits(5, bits);
        assert_eq!(g2.num_edges(), g.num_edges());
        assert!(are_isomorphic(&g, &g2));
    }

    #[test]
    fn backtrack_agrees_with_canonical() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..200 {
            let n = rng.random_range(3..7usize);
            let m = rng.random_range(0..n * 2);
            let mk = |rng: &mut SmallRng| -> Graph {
                let edges: Vec<_> = (0..m)
                    .map(|_| {
                        (
                            rng.random_range(0..n) as VertexId,
                            rng.random_range(0..n) as VertexId,
                        )
                    })
                    .collect();
                Graph::undirected(n, &edges)
            };
            let a = mk(&mut rng);
            let b = mk(&mut rng);
            assert_eq!(
                isomorphic_backtrack(&a, &b),
                are_isomorphic(&a, &b),
                "disagreement on n={n} m={m}"
            );
            // Reflexivity under relabelling.
            assert!(isomorphic_backtrack(&a, &a));
        }
    }

    #[test]
    fn directed_asymmetry_respected() {
        let a = Graph::directed(2, &[(0, 1)]);
        let b = Graph::directed(2, &[(1, 0)]);
        // Isomorphic as directed graphs (relabel swaps them).
        assert!(are_isomorphic(&a, &b));
        let c = Graph::directed(3, &[(0, 1), (0, 2)]);
        let d = Graph::directed(3, &[(0, 1), (2, 0)]);
        assert!(!are_isomorphic(&c, &d));
    }
}
