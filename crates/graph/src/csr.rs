//! Compressed sparse row adjacency storage.

use crate::graph::VertexId;

/// Compressed-sparse-row adjacency: `offsets` has `n + 1` entries and the
/// neighbours of vertex `v` are `targets[offsets[v] .. offsets[v + 1]]`,
/// sorted ascending (which makes membership queries `O(log deg)`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
}

impl Csr {
    /// Builds a CSR for `n` vertices from an edge list, in `O(|E| log |E|)`.
    /// Parallel edges are collapsed.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let mut degree = vec![0u64; n];
        for &(u, _) in edges {
            degree[u as usize] += 1;
        }
        let mut offsets = vec![0u64; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut targets = vec![0 as VertexId; edges.len()];
        let mut cursor = offsets.clone();
        for &(u, v) in edges {
            let c = &mut cursor[u as usize];
            targets[*c as usize] = v;
            *c += 1;
        }
        // Sort and dedup each row in place.
        let mut out_targets = Vec::with_capacity(targets.len());
        let mut out_offsets = Vec::with_capacity(n + 1);
        out_offsets.push(0u64);
        for v in 0..n {
            let row = &mut targets[offsets[v] as usize..offsets[v + 1] as usize];
            row.sort_unstable();
            let mut prev: Option<VertexId> = None;
            for &t in row.iter() {
                if prev != Some(t) {
                    out_targets.push(t);
                    prev = Some(t);
                }
            }
            out_offsets.push(out_targets.len() as u64);
        }
        Csr {
            offsets: out_offsets,
            targets: out_targets,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored (directed) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Sorted neighbour slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as u32
    }

    /// Whether the directed edge `(u, v)` exists (`O(log deg(u))`).
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Raw offset array (length `n + 1`).
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Raw target array.
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Iterates `(source, target)` over all stored edges.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices()).flat_map(move |u| {
            self.neighbors(u as VertexId)
                .iter()
                .map(move |&v| (u as VertexId, v))
        })
    }

    /// Builds a CSR directly from its two arrays, validating every
    /// invariant the accessors rely on: `offsets` starts at 0, never
    /// decreases, and ends at `targets.len()`; every row is strictly
    /// ascending (sorted, no duplicates); every target is a valid vertex.
    /// This is the zero-copy ingestion path for trusted-but-verified
    /// wire input — `O(|V| + |E|)` with no sorting.
    pub fn from_sorted_parts(
        offsets: Vec<u64>,
        targets: Vec<VertexId>,
    ) -> Result<Csr, &'static str> {
        let Some(n) = offsets.len().checked_sub(1) else {
            return Err("offset array is empty");
        };
        if offsets[0] != 0 {
            return Err("offsets must start at zero");
        }
        if offsets[n] != targets.len() as u64 {
            return Err("offsets must end at the target count");
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets must be non-decreasing");
        }
        // Every offset is now known to lie in [0, targets.len()], so the
        // row slices below cannot go out of bounds. Rows are strictly
        // ascending, so only each row's last element needs the range
        // check.
        for v in 0..n {
            let row = &targets[offsets[v] as usize..offsets[v + 1] as usize];
            if row.windows(2).any(|w| w[0] >= w[1]) {
                return Err("row not strictly ascending");
            }
            if row.last().is_some_and(|&t| t as usize >= n) {
                return Err("target out of range");
            }
        }
        Ok(Csr { offsets, targets })
    }

    /// The transpose CSR (reverses every edge).
    pub fn transpose(&self) -> Csr {
        let n = self.num_vertices();
        let mut degree = vec![0u64; n];
        for &t in &self.targets {
            degree[t as usize] += 1;
        }
        let mut offsets = vec![0u64; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut targets = vec![0 as VertexId; self.targets.len()];
        let mut cursor = offsets.clone();
        for u in 0..n {
            for &v in self.neighbors(u as VertexId) {
                let c = &mut cursor[v as usize];
                targets[*c as usize] = u as VertexId;
                *c += 1;
            }
        }
        // Rows are already sorted: we visit sources in ascending order.
        Csr { offsets, targets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_sorts_and_dedups() {
        let csr = Csr::from_edges(4, &[(0, 2), (0, 1), (0, 2), (2, 3), (3, 0)]);
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.neighbors(0), &[1, 2]);
        assert_eq!(csr.neighbors(1), &[] as &[VertexId]);
        assert_eq!(csr.neighbors(2), &[3]);
        assert_eq!(csr.neighbors(3), &[0]);
        assert_eq!(csr.num_edges(), 4);
    }

    #[test]
    fn from_sorted_parts_accepts_valid_and_rejects_broken_input() {
        let good = Csr::from_edges(4, &[(0, 1), (0, 2), (2, 3), (3, 0)]);
        let rebuilt =
            Csr::from_sorted_parts(good.offsets().to_vec(), good.targets().to_vec()).unwrap();
        assert_eq!(rebuilt, good);

        assert!(Csr::from_sorted_parts(vec![], vec![]).is_err());
        assert!(Csr::from_sorted_parts(vec![1, 2], vec![0, 0]).is_err());
        assert!(Csr::from_sorted_parts(vec![0, 1], vec![0, 0]).is_err());
        // Non-monotone offsets must not panic even when an intermediate
        // value exceeds the target count.
        assert!(Csr::from_sorted_parts(vec![0, 100, 2], vec![0, 1]).is_err());
        // Unsorted and duplicated rows are rejected.
        assert!(Csr::from_sorted_parts(vec![0, 2], vec![1, 0]).is_err());
        assert!(Csr::from_sorted_parts(vec![0, 2], vec![1, 1]).is_err());
        // Targets must name real vertices.
        assert!(Csr::from_sorted_parts(vec![0, 1], vec![7]).is_err());
    }

    #[test]
    fn has_edge_and_degree() {
        let csr = Csr::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        assert!(csr.has_edge(0, 1));
        assert!(csr.has_edge(1, 2));
        assert!(!csr.has_edge(2, 1));
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.degree(2), 0);
    }

    #[test]
    fn transpose_reverses_edges() {
        let csr = Csr::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        let t = csr.transpose();
        assert!(t.has_edge(1, 0));
        assert!(t.has_edge(2, 0));
        assert!(t.has_edge(2, 1));
        assert_eq!(t.num_edges(), 3);
        assert_eq!(t.transpose(), csr);
    }

    #[test]
    fn edges_iterator_roundtrip() {
        let input = vec![(0, 1), (1, 2), (2, 0), (2, 1)];
        let csr = Csr::from_edges(3, &input);
        let mut collected: Vec<_> = csr.edges().collect();
        collected.sort_unstable();
        let mut expect = input.clone();
        expect.sort_unstable();
        assert_eq!(collected, expect);
    }

    #[test]
    fn empty_graph() {
        let csr = Csr::from_edges(0, &[]);
        assert_eq!(csr.num_vertices(), 0);
        assert_eq!(csr.num_edges(), 0);
    }

    #[test]
    fn isolated_vertices() {
        let csr = Csr::from_edges(5, &[(4, 0)]);
        for v in 0..4 {
            assert_eq!(csr.degree(v), 0);
        }
        assert_eq!(csr.degree(4), 1);
    }
}
