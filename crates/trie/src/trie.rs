//! Levelled trie over a [`PairTable`].

use std::ops::Range;

use cuts_gpu_sim::{Device, DeviceError};

use crate::table::PairTable;

/// Parent marker for root-level entries.
pub const NO_PARENT: u32 = u32::MAX;

/// The cuTS partial-path trie: a [`PairTable`] plus sealed level
/// boundaries. Level `l` holds every partial path of depth `l + 1`; an
/// entry's full path is recovered by chasing parent indices to the root.
///
/// ```
/// use cuts_trie::{Trie, NO_PARENT};
///
/// let mut t = Trie::on_host(16);
/// let r = t.table().reserve(1).unwrap();
/// r.write(0, NO_PARENT, 7); // root candidate: data vertex 7
/// t.seal_level();
/// let r = t.table().reserve(2).unwrap();
/// r.write(0, 0, 3); // two children of entry 0, written with
/// r.write(1, 0, 5); // one atomic reservation
/// t.seal_level();
/// assert_eq!(t.paths_at_level(1), vec![vec![7, 3], vec![7, 5]]);
/// assert_eq!(t.words_used(), 6); // 2 words per entry (PA + CA)
/// ```
pub struct Trie {
    table: PairTable,
    levels: Vec<Range<usize>>,
}

impl Trie {
    /// Allocates a trie with room for `entries` partial-path nodes on a
    /// device (`2 × entries` words of device memory).
    pub fn on_device(device: &Device, entries: usize) -> Result<Self, DeviceError> {
        Ok(Trie {
            table: PairTable::on_device(device, entries)?,
            levels: Vec::new(),
        })
    }

    /// Host-side trie (tests).
    pub fn on_host(entries: usize) -> Self {
        Trie {
            table: PairTable::on_host(entries),
            levels: Vec::new(),
        }
    }

    /// Wraps an existing (e.g. arena-chained or recycled) pair table as an
    /// empty trie. Chained tables keep their grown segments across the
    /// round-trip; only entries and level boundaries are discarded.
    pub fn from_table(table: PairTable) -> Self {
        table.clear();
        Trie {
            table,
            levels: Vec::new(),
        }
    }

    /// Decomposes the trie back into its pair table (for reuse by the
    /// next query). Sealed level boundaries are discarded.
    pub fn into_table(self) -> PairTable {
        self.table
    }

    /// Drops all levels and entries, leaving the allocated storage in
    /// place — the between-queries reset of a long-lived trie.
    pub fn reset(&mut self) {
        self.levels.clear();
        self.table.clear();
    }

    /// The underlying pair table (kernels append through this).
    #[inline]
    pub fn table(&self) -> &PairTable {
        &self.table
    }

    /// Entry capacity currently committed by the underlying table.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.table.capacity()
    }

    /// Grows chained (arena-backed) storage in place until the capacity
    /// covers `target` entries; committed entries and sealed levels are
    /// untouched. See [`PairTable::grow_to`].
    pub fn grow_to(&self, target: usize) -> Result<usize, DeviceError> {
        self.table.grow_to(target)
    }

    /// Number of sealed levels.
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Entry range of sealed level `l`.
    #[inline]
    pub fn level(&self, l: usize) -> Range<usize> {
        self.levels[l].clone()
    }

    /// Sizes of all sealed levels.
    pub fn level_sizes(&self) -> Vec<usize> {
        self.levels.iter().map(|r| r.len()).collect()
    }

    /// Seals everything appended since the previous seal as a new level and
    /// returns its range.
    pub fn seal_level(&mut self) -> Range<usize> {
        let start = self.levels.last().map_or(0, |r| r.end);
        let end = self.table.len();
        debug_assert!(end >= start);
        let range = start..end;
        self.levels.push(range.clone());
        range
    }

    /// Discards the last `n` sealed levels and their entries (hybrid
    /// BFS-DFS reclaims a finished chunk's subtree this way).
    pub fn pop_levels(&mut self, n: usize) {
        assert!(n <= self.levels.len());
        for _ in 0..n {
            self.levels.pop();
        }
        let keep = self.levels.last().map_or(0, |r| r.end);
        self.table.truncate(keep);
    }

    /// Parent index of entry `i` (`NO_PARENT` at the root level).
    #[inline]
    pub fn parent(&self, i: usize) -> u32 {
        self.table.parent(i)
    }

    /// Matched data-graph vertex of entry `i`.
    #[inline]
    pub fn candidate(&self, i: usize) -> u32 {
        self.table.candidate(i)
    }

    /// Words of device memory committed so far (PA + CA entries) — the
    /// quantity Table 1 reports for "our storage".
    pub fn words_used(&self) -> usize {
        2 * self.table.len()
    }

    /// Extracts the full path ending at entry `leaf`, root candidate first.
    pub fn extract_path(&self, leaf: usize) -> Vec<u32> {
        let mut rev = Vec::new();
        let mut i = leaf as u32;
        loop {
            rev.push(self.candidate(i as usize));
            let p = self.parent(i as usize);
            if p == NO_PARENT {
                break;
            }
            i = p;
        }
        rev.reverse();
        rev
    }

    /// All full paths of sealed level `l`, in entry order.
    pub fn paths_at_level(&self, l: usize) -> Vec<Vec<u32>> {
        self.level(l).map(|i| self.extract_path(i)).collect()
    }

    /// Seeds an empty device trie from a host trie (the receiving side of
    /// a §4.2 donation: "integrate it to its own local trie").
    pub fn load(&mut self, host: &HostTrie) -> Result<(), DeviceError> {
        assert!(
            self.levels.is_empty() && self.table.is_empty(),
            "load requires an empty trie"
        );
        for level in &host.levels {
            let r = self.table.reserve(level.len())?;
            for (k, i) in level.clone().enumerate() {
                r.write(k, host.pa[i], host.ca[i]);
            }
            self.seal_level();
        }
        Ok(())
    }

    /// Copies the committed trie to the host.
    pub fn to_host(&self) -> HostTrie {
        let len = self.table.len();
        HostTrie {
            pa: (0..len).map(|i| self.parent(i)).collect(),
            ca: (0..len).map(|i| self.candidate(i)).collect(),
            levels: self.levels.clone(),
        }
    }
}

impl std::fmt::Debug for Trie {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trie")
            .field("levels", &self.level_sizes())
            .field("entries", &self.table.len())
            .field("capacity", &self.table.capacity())
            .finish()
    }
}

/// Heap-resident trie copy: the seed of a resumed run
/// (`ExecSession::run_seeded`) and what verification code inspects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostTrie {
    /// Parent indices.
    pub pa: Vec<u32>,
    /// Candidate vertex ids.
    pub ca: Vec<u32>,
    /// Sealed level ranges.
    pub levels: Vec<Range<usize>>,
}

impl HostTrie {
    /// Empty host trie.
    pub fn new() -> Self {
        HostTrie {
            pa: Vec::new(),
            ca: Vec::new(),
            levels: Vec::new(),
        }
    }

    /// Extracts the path ending at `leaf`, root first.
    pub fn extract_path(&self, leaf: usize) -> Vec<u32> {
        let mut rev = Vec::new();
        let mut i = leaf as u32;
        loop {
            rev.push(self.ca[i as usize]);
            let p = self.pa[i as usize];
            if p == NO_PARENT {
                break;
            }
            i = p;
        }
        rev.reverse();
        rev
    }

    /// All paths of level `l`.
    pub fn paths_at_level(&self, l: usize) -> Vec<Vec<u32>> {
        self.levels[l]
            .clone()
            .map(|i| self.extract_path(i))
            .collect()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.ca.len()
    }

    /// True if the trie holds no entries.
    pub fn is_empty(&self) -> bool {
        self.ca.is_empty()
    }

    /// Depth (number of levels) of this trie.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// One-level host trie holding `roots` in order: the seed of a run
    /// over one chunk of root candidates.
    pub fn from_roots(roots: &[u32]) -> Self {
        HostTrie {
            pa: vec![NO_PARENT; roots.len()],
            ca: roots.to_vec(),
            levels: std::iter::once(0..roots.len()).collect(),
        }
    }

    /// Builds a host trie from flat paths of uniform depth `d`: `d`
    /// levels, each path a chain from its root, shared prefixes merged.
    /// Seeds runs from explicit partial paths (the batch-dynamic
    /// matcher's anchored arcs, the lock-step ablation's frontier).
    pub fn from_flat_paths(paths: &[Vec<u32>]) -> Self {
        let mut t = HostTrie::new();
        if paths.is_empty() {
            return t;
        }
        let depth = paths[0].len();
        assert!(paths.iter().all(|p| p.len() == depth));
        // Chain layout: every path contributes `depth` entries. Shared
        // prefixes are re-merged level by level.
        let mut level_starts = Vec::new();
        // Maps (level, path index) -> entry index, built level by level with
        // prefix sharing via a per-level map from (parent entry, vertex).
        let mut parent_of_path: Vec<u32> = vec![NO_PARENT; paths.len()];
        for l in 0..depth {
            let start = t.ca.len();
            level_starts.push(start);
            let mut seen: std::collections::HashMap<(u32, u32), u32> =
                std::collections::HashMap::new();
            for (pi, path) in paths.iter().enumerate() {
                let key = (parent_of_path[pi], path[l]);
                let entry = *seen.entry(key).or_insert_with(|| {
                    t.pa.push(key.0);
                    t.ca.push(key.1);
                    (t.ca.len() - 1) as u32
                });
                parent_of_path[pi] = entry;
            }
            t.levels.push(start..t.ca.len());
        }
        t
    }
}

impl Default for HostTrie {
    fn default() -> Self {
        HostTrie::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the Figure 3 example: root u0 with children u1(u3, u4),
    /// u2(...) etc. Here a small 2-level trie.
    fn sample() -> Trie {
        let mut t = Trie::on_host(64);
        {
            let r = t.table().reserve(2).unwrap();
            r.write(0, NO_PARENT, 0); // u0
            r.write(1, NO_PARENT, 1); // u1
        }
        t.seal_level();
        {
            let r = t.table().reserve(3).unwrap();
            r.write(0, 0, 3); // u0 -> u3
            r.write(1, 0, 4); // u0 -> u4
            r.write(2, 1, 2); // u1 -> u2
        }
        t.seal_level();
        t
    }

    #[test]
    fn seal_and_level_sizes() {
        let t = sample();
        assert_eq!(t.num_levels(), 2);
        assert_eq!(t.level_sizes(), vec![2, 3]);
        assert_eq!(t.level(1), 2..5);
        assert_eq!(t.words_used(), 10);
    }

    #[test]
    fn extract_paths() {
        let t = sample();
        assert_eq!(t.extract_path(2), vec![0, 3]);
        assert_eq!(t.extract_path(4), vec![1, 2]);
        assert_eq!(
            t.paths_at_level(1),
            vec![vec![0, 3], vec![0, 4], vec![1, 2]]
        );
    }

    #[test]
    fn pop_levels_reclaims() {
        let mut t = sample();
        t.pop_levels(1);
        assert_eq!(t.num_levels(), 1);
        assert_eq!(t.table().len(), 2);
        // Space is reusable.
        let r = t.table().reserve(1).unwrap();
        r.write(0, 1, 9);
        t.seal_level();
        assert_eq!(t.extract_path(2), vec![1, 9]);
    }

    #[test]
    fn to_host_matches() {
        let t = sample();
        let h = t.to_host();
        assert_eq!(h.len(), 5);
        assert_eq!(h.levels, vec![0..2, 2..5]);
        assert_eq!(h.extract_path(3), vec![0, 4]);
        assert_eq!(h.paths_at_level(1), t.paths_at_level(1));
    }

    #[test]
    fn from_flat_paths_shares_prefixes() {
        let paths = vec![vec![0, 3], vec![0, 4], vec![1, 2]];
        let h = HostTrie::from_flat_paths(&paths);
        // Level 0 has two distinct roots (0 and 1), not three.
        assert_eq!(h.levels[0].len(), 2);
        assert_eq!(h.levels[1].len(), 3);
        let mut got = h.paths_at_level(1);
        got.sort();
        let mut want = paths.clone();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn from_roots_is_one_level_of_paths() {
        let h = HostTrie::from_roots(&[4, 2, 9]);
        assert_eq!(h.depth(), 1);
        assert_eq!(h.paths_at_level(0), vec![vec![4], vec![2], vec![9]]);
        assert_eq!(h, HostTrie::from_flat_paths(&[vec![4], vec![2], vec![9]]));
    }

    #[test]
    fn from_flat_paths_empty() {
        let h = HostTrie::from_flat_paths(&[]);
        assert!(h.is_empty());
        assert!(h.levels.is_empty());
    }

    #[test]
    fn load_roundtrips_host_trie() {
        let host = sample().to_host();
        let mut fresh = Trie::on_host(64);
        fresh.load(&host).unwrap();
        assert_eq!(fresh.to_host(), host);
        assert_eq!(fresh.paths_at_level(1), sample().paths_at_level(1));
    }

    #[test]
    fn load_respects_capacity() {
        let host = sample().to_host();
        let mut tiny = Trie::on_host(3);
        assert!(tiny.load(&host).is_err());
    }

    #[test]
    fn reset_and_table_roundtrip() {
        let mut t = sample();
        t.reset();
        assert_eq!(t.num_levels(), 0);
        assert!(t.table().is_empty());
        // Storage is intact and reusable after the reset.
        let r = t.table().reserve(1).unwrap();
        r.write(0, NO_PARENT, 42);
        t.seal_level();
        assert_eq!(t.extract_path(0), vec![42]);

        // from_table wipes any committed entries.
        let table = t.into_table();
        assert_eq!(table.len(), 1);
        let t2 = Trie::from_table(table);
        assert_eq!(t2.num_levels(), 0);
        assert!(t2.table().is_empty());
        assert_eq!(t2.table().capacity(), 64);
    }

    #[test]
    fn chained_storage_roundtrips_through_trie() {
        use cuts_gpu_sim::{Arena, ClassSpec, DeviceConfig};
        let d = Device::new(DeviceConfig::test_small());
        let arena = Arena::new(
            &d,
            &[ClassSpec {
                slab_words: 8,
                slabs: 8,
            }],
        )
        .unwrap();
        let table = crate::table::PairTable::chained_on_arena(&arena, 0, 8, 32).unwrap();
        let mut t = Trie::from_table(table);
        {
            let r = t.table().reserve(2).unwrap();
            r.write(0, NO_PARENT, 0);
            r.write(1, NO_PARENT, 1);
        }
        t.seal_level();
        // Grow mid-build: sealed level and entries survive the append.
        assert_eq!(t.capacity(), 8);
        t.grow_to(24).unwrap();
        assert_eq!(t.capacity(), 24);
        {
            let r = t.table().reserve(16).unwrap();
            for k in 0..16u32 {
                r.write(k as usize, k % 2, 10 + k);
            }
        }
        t.seal_level();
        assert_eq!(t.extract_path(17), vec![1, 25]);

        // into_table / from_table keep the grown chain (capacity and
        // segments), discarding only entries and level boundaries.
        let table = t.into_table();
        assert_eq!(table.len(), 18);
        let t2 = Trie::from_table(table);
        assert!(t2.table().is_empty());
        assert_eq!(t2.num_levels(), 0);
        assert_eq!(t2.capacity(), 24, "grown chain survives the round-trip");
        assert!(t2.table().is_chained());
    }
}
