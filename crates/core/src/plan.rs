//! Query planning: the immutable, device-independent half of a run.
//!
//! A [`QueryPlan`] captures everything about executing one query that does
//! not depend on *which* data graph arrives or *which* device instance
//! executes it: the §4 matching order with its per-level back-edge
//! constraints, the expand-parameter schedule derived from the engine
//! configuration, and the trie budget implied by the device *class*. Build
//! it once, run it many times through a [`crate::ExecSession`] — this is
//! the plan-then-execute split every serving engine (including the GSI
//! design the paper benchmarks against) uses to keep per-query latency at
//! kernel cost rather than planning-plus-allocation cost.
//!
//! Plans are keyed by [`PlanKey`] — a fingerprint of (query structure,
//! engine configuration, device class) — so a [`crate::PlanCache`] can
//! recognise a repeat query without holding the query graph itself.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use cuts_gpu_sim::DeviceConfig;
use cuts_graph::Graph;

use crate::complexity::ComplexityModel;
use crate::config::{EngineConfig, IntersectStrategy};
use crate::error::EngineError;
use crate::order::MatchOrder;

/// The capacity-relevant equivalence class of a device: two devices of the
/// same class can execute the same plan with identical results, because
/// everything a plan depends on (trie budget, launch geometry limits) is
/// derived from these fields alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceClass {
    /// Device model name (e.g. `sim-V100`).
    pub name: &'static str,
    /// Streaming multiprocessor count.
    pub num_sms: usize,
    /// Shared memory per block, in words.
    pub shared_mem_words_per_block: usize,
    /// Global memory capacity, in words.
    pub global_mem_words: usize,
}

impl DeviceClass {
    /// The class of a concrete device configuration.
    pub fn of(config: &DeviceConfig) -> Self {
        DeviceClass {
            name: config.name,
            num_sms: config.num_sms,
            shared_mem_words_per_block: config.shared_mem_words_per_block,
            global_mem_words: config.global_mem_words,
        }
    }

    /// Fingerprint used as the [`PlanKey::device_class`] component; also
    /// recomputed when decoding a snapshot to validate a stored key.
    pub(crate) fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.name.hash(&mut h);
        self.num_sms.hash(&mut h);
        self.shared_mem_words_per_block.hash(&mut h);
        self.global_mem_words.hash(&mut h);
        h.finish()
    }
}

/// Cache key identifying a plan: fingerprints of the query structure, the
/// engine configuration, and the device class. Collisions are possible in
/// principle (64-bit hashes) but irrelevant in practice for an in-process
/// cache of tens of plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Query-structure fingerprint (vertex count, arcs, labels, symmetry).
    pub query: u64,
    /// Engine-configuration fingerprint (every field, f64s via `to_bits`).
    pub config: u64,
    /// Device-class fingerprint.
    pub device_class: u64,
}

impl PlanKey {
    /// Computes the key for a (query, config, device-class) triple.
    pub fn new(query: &Graph, config: &EngineConfig, class: &DeviceClass) -> Self {
        PlanKey {
            query: fingerprint_query(query),
            config: fingerprint_config(config),
            device_class: class.fingerprint(),
        }
    }
}

fn fingerprint_query(query: &Graph) -> u64 {
    let mut h = DefaultHasher::new();
    query.num_vertices().hash(&mut h);
    query.is_symmetric().hash(&mut h);
    for (u, v) in query.edges() {
        u.hash(&mut h);
        v.hash(&mut h);
    }
    query.is_labeled().hash(&mut h);
    if query.is_labeled() {
        for v in 0..query.num_vertices() as u32 {
            query.label(v).hash(&mut h);
        }
    }
    h.finish()
}

pub(crate) fn fingerprint_config(config: &EngineConfig) -> u64 {
    let mut h = DefaultHasher::new();
    // Discriminants + payloads, spelled out so adding a config field forces
    // a decision here (the struct is non-exhaustive at a distance).
    std::mem::discriminant(&config.order_policy).hash(&mut h);
    config.chunk_size.hash(&mut h);
    config.trie_fraction.to_bits().hash(&mut h);
    std::mem::discriminant(&config.intersect).hash(&mut h);
    config.signature_prefilter.hash(&mut h);
    config.randomize_placement.hash(&mut h);
    match config.virtual_warp {
        crate::config::VirtualWarpPolicy::AvgDegree => 0usize.hash(&mut h),
        crate::config::VirtualWarpPolicy::Fixed(w) => (1usize, w).hash(&mut h),
    }
    config.max_blocks.hash(&mut h);
    config.seed.hash(&mut h);
    h.finish()
}

/// Per-level slice of the expand-parameter schedule: the constraint shape
/// the search kernel will see at this depth, fixed at plan time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelSchedule {
    /// Depth in the matching order (`1..|V_Q|`; level 0 is init).
    pub pos: usize,
    /// Number of back-edge constraints at this depth.
    pub constraints: usize,
    /// Intersection micro-kernel selection for this depth.
    pub strategy: IntersectStrategy,
}

/// Advisory memory-budget verdict computed at plan time (the hybrid
/// BFS-DFS fallback remains the run-time safety net; this is the planner's
/// early warning).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetCheck {
    /// Estimated peak trie entries (Equation 5's geometric sum).
    pub estimated_entries: f64,
    /// Entries the device class can hold under this configuration.
    pub budget_entries: usize,
    /// Whether the estimate fits without chunking.
    pub fits: bool,
}

/// An immutable, device-independent execution plan for one query under one
/// engine configuration on one device class.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// The §4 matching order with back-edge constraint sets.
    pub order: MatchOrder,
    /// Per-level expand parameters (depths `1..|V_Q|`).
    pub schedule: Vec<LevelSchedule>,
    /// Snapshot of the configuration the plan was built under.
    pub config: EngineConfig,
    /// The device class the plan was sized for.
    pub device_class: DeviceClass,
    /// Trie entry budget for this class: `global_mem_words × trie_fraction
    /// / 2` (two words per entry — PA and CA). The session sizes its arena
    /// carve from the *actual* free words at bind time, never above this.
    pub trie_entries_budget: usize,
    /// Neighbourhood signature of the root query vertex (`order[0]`),
    /// unmasked — the init-candidates prefilter requires data vertices to
    /// dominate it (label lanes only when both graphs are labelled; see
    /// [`QueryPlan::required_root_signature`]).
    pub root_signature: u64,
    /// Whether the planned query carries labels (needed to mask the
    /// signature's label lanes against unlabelled data).
    pub query_labeled: bool,
    /// Cache key this plan answers to.
    pub key: PlanKey,
}

impl QueryPlan {
    /// Builds a plan: computes the matching order under the configured
    /// policy, derives the per-level schedule, and checks that the device
    /// class can hold a non-empty trie at all.
    pub fn build(
        query: &Graph,
        config: &EngineConfig,
        class: &DeviceClass,
    ) -> Result<QueryPlan, EngineError> {
        let order = MatchOrder::compute_with_policy(query, config.order_policy)?;
        Self::with_order(query, order, config, class)
    }

    /// [`QueryPlan::build`] over an explicit matching order (e.g. one
    /// starting from an anchor edge). The key is still the query's
    /// [`PlanKey`], so such a plan must not enter a [`crate::PlanCache`]:
    /// it would shadow the query's policy-ordered plan.
    pub(crate) fn with_order(
        query: &Graph,
        order: MatchOrder,
        config: &EngineConfig,
        class: &DeviceClass,
    ) -> Result<QueryPlan, EngineError> {
        let schedule = (1..order.len())
            .map(|pos| LevelSchedule {
                pos,
                constraints: order.back_edges[pos].len(),
                strategy: config.intersect,
            })
            .collect();
        let trie_entries_budget =
            ((class.global_mem_words as f64 * config.trie_fraction) / 2.0) as usize;
        if trie_entries_budget == 0 {
            return Err(EngineError::Device(
                cuts_gpu_sim::DeviceError::OutOfMemory {
                    requested: 2,
                    available: class.global_mem_words,
                },
            ));
        }
        let key = PlanKey::new(query, config, class);
        let root_signature = cuts_graph::profile::vertex_signature(query, order.order[0]);
        Ok(QueryPlan {
            root_signature,
            query_labeled: query.is_labeled(),
            order,
            schedule,
            config: config.clone(),
            device_class: class.clone(),
            trie_entries_budget,
            key,
        })
    }

    /// The signature every level-0 data candidate must dominate, with
    /// label lanes masked out unless both the query and the data graph
    /// are labelled (an unlabelled side is a wildcard).
    pub fn required_root_signature(&self, data_labeled: bool) -> u64 {
        cuts_graph::profile::required_signature(
            self.root_signature,
            self.query_labeled,
            data_labeled,
        )
    }

    /// Resolves the per-level micro-kernel policy for running this plan
    /// over a data graph with the given profile (see [`crate::policy`]).
    pub fn kernel_policy(&self, profile: &cuts_graph::DataProfile) -> crate::policy::KernelPolicy {
        crate::policy::KernelPolicy::compute(self, profile)
    }

    /// Number of levels (query vertices).
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True for the (disallowed) empty plan.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Estimated peak trie entries for running this plan over `data`,
    /// using the §5 model with survival ratio `sigma` (Equation 5's exact
    /// geometric sum of per-level path counts).
    pub fn space_estimate(&self, data: &Graph, sigma: f64) -> f64 {
        let m = ComplexityModel {
            data_vertices: data.num_vertices() as f64,
            query_vertices: self.len(),
            max_degree: data.max_out_degree() as f64,
            sigma,
        };
        (1..=self.len()).map(|l| m.paths_at_depth(l)).sum()
    }

    /// Plan-time budget check for `data`: does the Equation-5 estimate fit
    /// the class's trie budget without hybrid chunking? `sigma` defaults
    /// are workload-dependent; 0.25 is a reasonable unlabelled-graph prior.
    pub fn budget_check(&self, data: &Graph, sigma: f64) -> BudgetCheck {
        let estimated_entries = self.space_estimate(data, sigma);
        BudgetCheck {
            estimated_entries,
            budget_entries: self.trie_entries_budget,
            fits: estimated_entries <= self.trie_entries_budget as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuts_graph::generators::{chain, clique, mesh2d};

    fn class() -> DeviceClass {
        DeviceClass::of(&DeviceConfig::test_small())
    }

    #[test]
    fn build_captures_order_and_schedule() {
        let q = clique(4);
        let cfg = EngineConfig::default();
        let p = QueryPlan::build(&q, &cfg, &class()).unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.schedule.len(), 3);
        // K4 back edges grow one per level.
        assert_eq!(
            p.schedule.iter().map(|s| s.constraints).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(p.trie_entries_budget > 0);
    }

    #[test]
    fn key_stable_and_sensitive() {
        let cfg = EngineConfig::default();
        let c = class();
        let a = PlanKey::new(&clique(3), &cfg, &c);
        let b = PlanKey::new(&clique(3), &cfg, &c);
        assert_eq!(a, b, "same triple must key identically");
        assert_ne!(
            a,
            PlanKey::new(&clique(4), &cfg, &c),
            "different query must key differently"
        );
        assert_ne!(
            a,
            PlanKey::new(&clique(3), &cfg.clone().with_chunk_size(7), &c),
            "different config must key differently"
        );
        let other = DeviceClass::of(&DeviceConfig::v100_like());
        assert_ne!(
            a,
            PlanKey::new(&clique(3), &cfg, &other),
            "different device class must key differently"
        );
    }

    #[test]
    fn labels_participate_in_query_fingerprint() {
        let cfg = EngineConfig::default();
        let c = class();
        let plain = chain(3);
        let labeled = chain(3).with_labels(vec![1, 2, 1]);
        assert_ne!(
            PlanKey::new(&plain, &cfg, &c),
            PlanKey::new(&labeled, &cfg, &c)
        );
    }

    #[test]
    fn budget_check_flags_tight_class() {
        let q = clique(3);
        let cfg = EngineConfig::default();
        let data = mesh2d(8, 8);
        let roomy = QueryPlan::build(&q, &cfg, &class()).unwrap();
        assert!(roomy.budget_check(&data, 0.25).fits);
        let tight = DeviceClass::of(&DeviceConfig::test_small().with_global_mem_words(64));
        let p = QueryPlan::build(&q, &cfg, &tight).unwrap();
        let b = p.budget_check(&data, 0.25);
        assert!(!b.fits, "64-word class cannot hold the mesh estimate");
        assert!(b.estimated_entries > b.budget_entries as f64);
    }

    #[test]
    fn zero_budget_class_rejected() {
        let tiny = DeviceClass::of(&DeviceConfig::test_small().with_global_mem_words(1));
        let err = QueryPlan::build(&clique(3), &EngineConfig::default(), &tiny);
        assert!(matches!(err, Err(EngineError::Device(_))));
    }

    #[test]
    fn disconnected_query_rejected_at_plan_time() {
        let g = cuts_graph::Graph::undirected(4, &[(0, 1), (2, 3)]);
        let err = QueryPlan::build(&g, &EngineConfig::default(), &class());
        assert!(matches!(err, Err(EngineError::DisconnectedQuery)));
    }
}
