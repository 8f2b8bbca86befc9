//! The cuTS engine facade: the original one-shot API, now a thin shim
//! over the plan/execute split.
//!
//! [`CutsEngine`] owns a private [`ExecSession`], so code written against
//! the old API transparently gains arena-backed trie reuse and plan caching across
//! repeated calls on the same engine value. New code that wants explicit
//! control over plan reuse, batching, or session statistics should use
//! [`ExecSession`] directly.

use cuts_gpu_sim::Device;
use cuts_graph::Graph;

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::result::MatchResult;
use crate::session::ExecSession;

pub use crate::session::MatchSink;

/// Subgraph-isomorphism engine bound to a simulated device.
///
/// ```
/// use cuts_core::CutsEngine;
/// use cuts_gpu_sim::{Device, DeviceConfig};
/// use cuts_graph::generators::{clique, mesh2d};
///
/// let device = Device::new(DeviceConfig::test_small());
/// let engine = CutsEngine::new(&device);
/// // Triangles in K4: 4 x 3 x 2 ordered embeddings.
/// let r = engine.run(&clique(4), &clique(3)).unwrap();
/// assert_eq!(r.num_matches, 24);
/// assert_eq!(r.level_counts, vec![4, 12, 24]);
/// ```
pub struct CutsEngine<'d> {
    session: ExecSession<'d>,
}

impl<'d> CutsEngine<'d> {
    /// Engine with default configuration.
    pub fn new(device: &'d Device) -> Self {
        Self::with_config(device, EngineConfig::default())
    }

    /// Engine with explicit configuration.
    pub fn with_config(device: &'d Device, config: EngineConfig) -> Self {
        CutsEngine {
            session: ExecSession::new(device, config),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        self.session.config()
    }

    /// The device this engine runs on.
    pub fn device(&self) -> &'d Device {
        self.session.device()
    }

    /// The execution session backing this engine.
    pub fn session(&self) -> &ExecSession<'d> {
        &self.session
    }

    /// Consumes the engine, yielding its session.
    pub fn into_session(self) -> ExecSession<'d> {
        self.session
    }

    /// Counts all embeddings of `query` in `data`. The query must be
    /// (weakly) connected — see [`CutsEngine::run_disconnected`] otherwise.
    pub fn run(&self, data: &Graph, query: &Graph) -> Result<MatchResult, EngineError> {
        self.session.run(data, query)
    }

    /// Like [`CutsEngine::run`], additionally streaming every embedding to
    /// `sink` (no materialisation of the full result set).
    pub fn run_enumerate(
        &self,
        data: &Graph,
        query: &Graph,
        sink: MatchSink<'_>,
    ) -> Result<MatchResult, EngineError> {
        self.session.run_enumerate(data, query, sink)
    }

    /// Resumes matching from already-built partial paths: the receiving
    /// side of a §4.2 work donation. See [`ExecSession::run_seeded`].
    pub fn run_seeded(
        &self,
        data: &Graph,
        query: &Graph,
        seed: &cuts_trie::HostTrie,
    ) -> Result<MatchResult, EngineError> {
        self.session.run_seeded(data, query, seed)
    }

    /// §4 composition for disconnected query graphs. See
    /// [`ExecSession::run_disconnected`] for the aggregate's shape.
    pub fn run_disconnected(
        &self,
        data: &Graph,
        query: &Graph,
    ) -> Result<MatchResult, EngineError> {
        self.session.run_disconnected(data, query)
    }

    /// Expands seeded partial paths by exactly one level. See
    /// [`ExecSession::expand_seed_once`].
    pub fn expand_seed_once(
        &self,
        data: &Graph,
        query: &Graph,
        seed: &cuts_trie::HostTrie,
    ) -> Result<cuts_trie::HostTrie, EngineError> {
        self.session.expand_seed_once(data, query, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IntersectStrategy;
    use crate::reference;
    use cuts_gpu_sim::DeviceConfig;
    use cuts_graph::generators::{chain, clique, cycle, erdos_renyi, mesh2d, star};

    fn check_against_reference(data: &Graph, query: &Graph) {
        let device = Device::new(DeviceConfig::test_small());
        let engine = CutsEngine::new(&device);
        let got = engine.run(data, query).unwrap();
        let want = reference::count_embeddings(data, query);
        assert_eq!(got.num_matches, want, "engine vs reference");
    }

    #[test]
    fn triangles_in_k4() {
        let device = Device::new(DeviceConfig::test_small());
        let engine = CutsEngine::new(&device);
        let r = engine.run(&clique(4), &clique(3)).unwrap();
        assert_eq!(r.num_matches, 24);
        assert!(!r.used_chunking);
        assert_eq!(r.level_counts, vec![4, 12, 24]);
    }

    #[test]
    fn matches_reference_on_varied_pairs() {
        let mesh = mesh2d(4, 4);
        let er = erdos_renyi(40, 120, 3);
        for query in [chain(3), chain(4), clique(3), clique(4), cycle(4), star(4)] {
            check_against_reference(&mesh, &query);
            check_against_reference(&er, &query);
        }
    }

    #[test]
    fn strategies_agree() {
        let data = erdos_renyi(60, 240, 9);
        let query = cycle(4);
        let device = Device::new(DeviceConfig::test_small());
        let mut counts = Vec::new();
        for s in [
            IntersectStrategy::Auto,
            IntersectStrategy::Bitmap,
            IntersectStrategy::CIntersection,
            IntersectStrategy::PIntersection,
        ] {
            let engine =
                CutsEngine::with_config(&device, EngineConfig::default().with_intersect(s));
            counts.push(engine.run(&data, &query).unwrap().num_matches);
        }
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[1], counts[2]);
    }

    #[test]
    fn chunking_triggered_and_correct() {
        // Tiny trie forces the hybrid path; count must be unchanged.
        let data = erdos_renyi(50, 250, 5);
        let query = chain(4);
        let big = Device::new(DeviceConfig::test_small());
        let expect = CutsEngine::new(&big).run(&data, &query).unwrap();
        assert!(!expect.used_chunking);

        let small = Device::new(DeviceConfig::test_small().with_global_mem_words(2048));
        let engine = CutsEngine::with_config(
            &small,
            EngineConfig::default()
                .with_chunk_size(8)
                .with_trie_fraction(0.9),
        );
        let got = engine.run(&data, &query).unwrap();
        assert!(got.used_chunking, "expected hybrid fallback");
        assert_eq!(got.num_matches, expect.num_matches);
        assert_eq!(got.level_counts, expect.level_counts);
    }

    #[test]
    fn enumeration_yields_valid_embeddings() {
        let data = mesh2d(3, 3);
        let query = cycle(4);
        let device = Device::new(DeviceConfig::test_small());
        let engine = CutsEngine::new(&device);
        let mut seen = Vec::new();
        let r = engine
            .run_enumerate(&data, &query, &mut |m| seen.push(m.to_vec()))
            .unwrap();
        assert_eq!(seen.len() as u64, r.num_matches);
        for m in &seen {
            // Injective.
            let mut s = m.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), m.len());
            // Edge-preserving.
            for (u, v) in query.edges() {
                assert!(data.has_edge(m[u as usize], m[v as usize]));
            }
        }
        // 4-cycles in a 3x3 mesh: 4 squares × 8 automorphic orderings.
        assert_eq!(r.num_matches, 32);
    }

    #[test]
    fn enumeration_consistent_under_chunking() {
        let data = erdos_renyi(40, 160, 11);
        let query = chain(4);
        let big = Device::new(DeviceConfig::test_small());
        let mut a = Vec::new();
        CutsEngine::new(&big)
            .run_enumerate(&data, &query, &mut |m| a.push(m.to_vec()))
            .unwrap();
        let small = Device::new(DeviceConfig::test_small().with_global_mem_words(2048));
        let mut b = Vec::new();
        CutsEngine::with_config(&small, EngineConfig::default().with_chunk_size(4))
            .run_enumerate(&data, &query, &mut |m| b.push(m.to_vec()))
            .unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn no_match_is_zero() {
        // K5 cannot embed in a mesh (max degree 4 < 4 required... actually
        // K5 needs degree 4; mesh interior has 4). Use K6: needs degree 5.
        let device = Device::new(DeviceConfig::test_small());
        let engine = CutsEngine::new(&device);
        let r = engine.run(&mesh2d(4, 4), &clique(6)).unwrap();
        assert_eq!(r.num_matches, 0);
    }

    #[test]
    fn single_vertex_query() {
        let device = Device::new(DeviceConfig::test_small());
        let engine = CutsEngine::new(&device);
        let g = Graph::undirected(5, &[(0, 1), (1, 2)]);
        let q = Graph::undirected(1, &[]);
        // Every vertex matches a degree-0 query vertex.
        let r = engine.run(&g, &q).unwrap();
        assert_eq!(r.num_matches, 5);
    }

    #[test]
    fn disconnected_query_composition() {
        let device = Device::new(DeviceConfig::test_small());
        let engine = CutsEngine::new(&device);
        let data = clique(4);
        // Two disjoint edges as query: each edge has 12 embeddings in K4;
        // paper semantics: cross product = 144.
        let q = Graph::undirected(4, &[(0, 1), (2, 3)]);
        let r = engine.run_disconnected(&data, &q).unwrap();
        assert_eq!(r.num_matches, 144);
        assert_eq!(r.level_counts.len(), 4);
        // Connected query passes straight through.
        let c = engine.run_disconnected(&data, &clique(3)).unwrap();
        assert_eq!(c.num_matches, 24);
    }

    #[test]
    fn randomization_does_not_change_counts() {
        let data = erdos_renyi(50, 200, 21);
        let query = clique(3);
        let device = Device::new(DeviceConfig::test_small());
        let on = CutsEngine::with_config(
            &device,
            EngineConfig::default().with_randomize_placement(true),
        )
        .run(&data, &query)
        .unwrap();
        let off = CutsEngine::with_config(
            &device,
            EngineConfig::default().with_randomize_placement(false),
        )
        .run(&data, &query)
        .unwrap();
        assert_eq!(on.num_matches, off.num_matches);
    }

    #[test]
    fn capacity_exhausted_when_hopeless() {
        // Device so small even chunk size 1 cannot expand.
        let device = Device::new(DeviceConfig::test_small().with_global_mem_words(40));
        let engine = CutsEngine::new(&device);
        let data = clique(8);
        let err = engine.run(&data, &clique(4));
        match err {
            Err(EngineError::CapacityExhausted { .. }) | Err(EngineError::Device(_)) => {}
            other => panic!("expected capacity failure, got {other:?}"),
        }
    }

    #[test]
    fn seeded_runs_partition_the_count() {
        // Splitting the root-candidate set across seeded runs must
        // partition the total count (the §4.2 distribution invariant).
        let data = erdos_renyi(40, 160, 2);
        let query = clique(3);
        let device = Device::new(DeviceConfig::test_small());
        let engine = CutsEngine::new(&device);
        let full = engine.run(&data, &query).unwrap();

        let plan = crate::order::MatchOrder::compute(&query).unwrap();
        let roots: Vec<Vec<u32>> = (0..data.num_vertices() as u32)
            .filter(|&v| data.degree_dominates(v, plan.q_out[0], plan.q_in[0]))
            .map(|v| vec![v])
            .collect();
        assert_eq!(roots.len() as u64, full.level_counts[0]);
        let mid = roots.len() / 2;
        let a = cuts_trie::HostTrie::from_flat_paths(&roots[..mid]);
        let b = cuts_trie::HostTrie::from_flat_paths(&roots[mid..]);
        let ca = engine.run_seeded(&data, &query, &a).unwrap();
        let cb = engine.run_seeded(&data, &query, &b).unwrap();
        assert_eq!(ca.num_matches + cb.num_matches, full.num_matches);
    }

    #[test]
    fn seeded_run_with_deeper_paths() {
        // Seed with depth-2 partial paths extracted from a real run and
        // re-rooted; completion count must match.
        let data = mesh2d(3, 3);
        let query = chain(4);
        let device = Device::new(DeviceConfig::test_small());
        let engine = CutsEngine::new(&device);
        let full = engine.run(&data, &query).unwrap();
        // Rebuild depth-2 frontier on the host via a fresh partial "run":
        // simplest faithful source is the reference of all depth-2 paths,
        // i.e. (root candidate, extension) pairs the engine itself found.
        // Use a 2-vertex prefix query matching the first two order slots.
        let plan = crate::order::MatchOrder::compute(&query).unwrap();
        let mut prefix_paths = Vec::new();
        for v in 0..data.num_vertices() as u32 {
            if !data.degree_dominates(v, plan.q_out[0], plan.q_in[0]) {
                continue;
            }
            for &w in data.out_neighbors(v) {
                if data.degree_dominates(w, plan.q_out[1], plan.q_in[1]) && w != v {
                    prefix_paths.push(vec![v, w]);
                }
            }
        }
        let seed = cuts_trie::HostTrie::from_flat_paths(&prefix_paths);
        let seeded = engine.run_seeded(&data, &query, &seed).unwrap();
        assert_eq!(seeded.num_matches, full.num_matches);
        assert_eq!(seeded.level_counts, full.level_counts);
    }

    #[test]
    fn expand_seed_once_matches_full_run_levels() {
        let data = erdos_renyi(40, 160, 2);
        let query = clique(3);
        let device = Device::new(DeviceConfig::test_small());
        let engine = CutsEngine::new(&device);
        let full = engine.run(&data, &query).unwrap();
        // Seed with all roots, expand once: level-2 count must match.
        let plan = crate::order::MatchOrder::compute(&query).unwrap();
        let roots: Vec<Vec<u32>> = (0..data.num_vertices() as u32)
            .filter(|&v| data.degree_dominates(v, plan.q_out[0], plan.q_in[0]))
            .map(|v| vec![v])
            .collect();
        let seed = cuts_trie::HostTrie::from_flat_paths(&roots);
        let expanded = engine.expand_seed_once(&data, &query, &seed).unwrap();
        assert_eq!(expanded.levels.len(), 2);
        assert_eq!(
            expanded.levels[1].len() as u64,
            full.level_counts[1],
            "one-level expansion disagrees with the full run"
        );
        // Completing the expanded seed reproduces the full count.
        let done = engine.run_seeded(&data, &query, &expanded).unwrap();
        assert_eq!(done.num_matches, full.num_matches);
    }

    #[test]
    fn directed_semantics() {
        // Directed triangle query in a directed 6-cycle: none.
        let data = Graph::directed(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let tri = Graph::directed(3, &[(0, 1), (1, 2), (2, 0)]);
        let device = Device::new(DeviceConfig::test_small());
        let engine = CutsEngine::new(&device);
        assert_eq!(engine.run(&data, &tri).unwrap().num_matches, 0);
        // Directed 3-cycle data: 3 rotations match.
        let d3 = Graph::directed(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(engine.run(&d3, &tri).unwrap().num_matches, 3);
    }

    #[test]
    fn shim_shares_one_session() {
        // Repeated calls through the old API reuse the backing session's
        // arena slabs and cached plan.
        let device = Device::new(DeviceConfig::test_small());
        let engine = CutsEngine::new(&device);
        engine.run(&clique(4), &clique(3)).unwrap();
        let allocs = device.alloc_calls();
        engine.run(&clique(4), &clique(3)).unwrap();
        assert_eq!(device.alloc_calls(), allocs);
        assert_eq!(engine.session().stats().plans.hits, 1);
    }
}
