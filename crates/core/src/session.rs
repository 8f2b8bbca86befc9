//! Device-bound execution sessions: the mutable, reusable half of a run.
//!
//! An [`ExecSession`] binds an engine configuration to one simulated
//! device and executes [`QueryPlan`]s over data graphs. It owns the two
//! pieces of state worth keeping warm between runs:
//!
//! * a [`PlanCache`] so repeat queries skip order computation, and
//! * an [`cuts_gpu_sim::Arena`] carved once from the device — one slab
//!   class sized for PA/CA trie segments — so every run after the first
//!   performs **zero** new device allocations (the paper's "allocate two
//!   big arrays" happens once per session, not once per query —
//!   assertable through [`cuts_gpu_sim::Device::alloc_calls`]). Tries are
//!   slab *chains* over that class: undersized runs grow by appending a
//!   segment in place instead of reallocating and retrying.
//!
//! Counter accounting uses per-thread sinks
//! ([`cuts_gpu_sim::CounterSink`]): each run sees exactly the launches it
//! issued, even when other sessions — or other serving lanes — drive
//! the same device concurrently.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use cuts_gpu_sim::{Arena, ArenaStats, ClassSpec, CostModel, CounterSink, Device, DeviceError};
use cuts_graph::Graph;
use cuts_obs::flight;
use cuts_obs::{Arg, EventKind, Json, Span, ToJson};
use cuts_trie::{PairTable, Trie};

use crate::cache::{PlanCache, PlanCacheStats};
use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::kernels::{
    expand_into, expand_range, init_candidates, siblings_fit, ExpandParams, Order, SigPrefilter,
};
use crate::plan::{DeviceClass, QueryPlan};
use crate::policy::KernelPolicy;
use crate::result::MatchResult;

/// Sink receiving one complete embedding at a time; the slice is indexed
/// by *query vertex id* (`m[q]` = matched data vertex).
pub type MatchSink<'s> = &'s mut dyn FnMut(&[u32]);

/// The graph that matches `query` over `data`: `query` itself, or its
/// directed closure when a symmetric query meets directed data (see
/// [`ExecSession::plan_over`]).
pub(crate) fn matched_query<'q>(data: &Graph, query: &'q Graph) -> Cow<'q, Graph> {
    if query.is_symmetric() && !data.is_symmetric() {
        Cow::Owned(query.to_directed())
    } else {
        Cow::Borrowed(query)
    }
}

/// Default number of plans a session retains.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 16;

/// Snapshot of a session's reuse behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStats {
    /// Completed run calls (any entry point).
    pub runs: u64,
    /// Plan-cache statistics.
    pub plans: PlanCacheStats,
    /// Arena-slab statistics (`None` until the first trie acquisition
    /// carves the arena): class geometry, occupancy, high-water marks.
    pub arena: Option<ArenaStats>,
    /// Trie entry capacity the session settled on (fixed at first run).
    pub trie_entries: Option<usize>,
}

impl ToJson for SessionStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("runs", Json::U64(self.runs)),
            (
                "plans",
                Json::obj([
                    ("hits", Json::U64(self.plans.hits)),
                    ("misses", Json::U64(self.plans.misses)),
                    ("evictions", Json::U64(self.plans.evictions)),
                    ("len", Json::U64(self.plans.len as u64)),
                    ("hit_ratio", Json::F64(self.plans.hit_ratio())),
                ]),
            ),
            (
                "arena",
                match &self.arena {
                    Some(a) => a.to_json(),
                    None => Json::Null,
                },
            ),
            (
                "trie_entries",
                match self.trie_entries {
                    Some(e) => Json::U64(e as u64),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// Grants or denies trie-chain growth, in device words. The serial path
/// always grants (the whole device budget is the one job's to take); the
/// serving tier's lane ledger charges the device's admission reservation so
/// concurrent jobs can never oversubscribe the arena.
pub(crate) trait GrowthLedger: Sync {
    /// Reserve `words` more for the running job; `false` = no room now.
    fn try_grant(&self, words: usize) -> bool;
    /// Return `words` previously granted (growth that could not be used).
    fn refund(&self, words: usize);
}

/// A ledger that always grants: single-tenant execution.
pub(crate) struct GrantAll;

impl GrowthLedger for GrantAll {
    fn try_grant(&self, _words: usize) -> bool {
        true
    }
    fn refund(&self, _words: usize) {}
}

/// Failure of [`ExecSession::run_budgeted`].
#[derive(Debug)]
pub(crate) enum BudgetedRunError {
    /// The run itself failed.
    Engine(EngineError),
    /// The ledger denied in-place growth: the caller should release its
    /// reservation, re-reserve at `target_entries`, and rerun — the
    /// deterministic rerun-at-target keeps lane results byte-identical
    /// to the serial grow-in-place sequence.
    GrowthDenied {
        /// The capacity (entries) the chain wanted to grow to.
        target_entries: usize,
    },
}

impl From<EngineError> for BudgetedRunError {
    fn from(e: EngineError) -> Self {
        BudgetedRunError::Engine(e)
    }
}

impl From<DeviceError> for BudgetedRunError {
    fn from(e: DeviceError) -> Self {
        BudgetedRunError::Engine(e.into())
    }
}

/// The session's carved trie storage: one arena class of PA/CA slabs.
struct TrieArena {
    arena: Arena,
    /// Entries per slab (= slab words; one u32 per entry per array).
    seg_entries: usize,
    /// Segment pairs the class can back at once (`2 × pairs` slabs).
    pairs: usize,
}

impl TrieArena {
    /// Largest trie capacity (entries) one chain can reach.
    fn max_chain_entries(&self) -> usize {
        self.pairs * self.seg_entries
    }

    /// Device words a chain sized for `entries` occupies: both arrays,
    /// whole segments, clamped to the class (larger requests saturate at
    /// the full arena and rely on hybrid chunking past that).
    fn chain_words(&self, entries: usize) -> usize {
        let segs = entries.div_ceil(self.seg_entries).clamp(1, self.pairs);
        2 * segs * self.seg_entries
    }
}

/// Mutable growth context threaded through a budgeted run.
struct GrowthState<'a> {
    cur_entries: usize,
    limit_entries: usize,
    ledger: &'a dyn GrowthLedger,
}

/// What every expansion of one run shares: the one place a level's
/// [`ExpandParams`] are built.
struct LevelCtx<'a> {
    data: &'a Graph,
    plan: &'a QueryPlan,
    policy: KernelPolicy,
    vwarp: usize,
    shared_words: usize,
    max_blocks: usize,
}

impl<'a> LevelCtx<'a> {
    /// Kernel parameters for expanding depth `pos`.
    fn params(&'a self, pos: usize, order: Order<'a>) -> ExpandParams<'a> {
        ExpandParams {
            data: self.data,
            plan: &self.plan.order,
            pos,
            vwarp: self.vwarp,
            method: self.policy.method_at(pos),
            shared_words: self.shared_words,
            order,
            max_blocks: self.max_blocks,
        }
    }
}

/// A reusable executor binding an [`EngineConfig`] to one [`Device`].
///
/// ```
/// use cuts_core::{EngineConfig, ExecSession};
/// use cuts_gpu_sim::{Device, DeviceConfig};
/// use cuts_graph::generators::clique;
///
/// let device = Device::new(DeviceConfig::test_small());
/// let session = ExecSession::new(&device, EngineConfig::default());
/// let warmup = session.run(&clique(4), &clique(3)).unwrap();
/// let allocs = device.alloc_calls();
/// let again = session.run(&clique(4), &clique(3)).unwrap();
/// assert_eq!(again.num_matches, warmup.num_matches);
/// assert_eq!(device.alloc_calls(), allocs); // warm run: zero new mallocs
/// ```
pub struct ExecSession<'d> {
    device: &'d Device,
    config: EngineConfig,
    class: DeviceClass,
    plans: PlanCache,
    // Carved at the first trie acquisition; geometry is then fixed, so
    // every later run chains over the same slab class and never touches
    // the device allocator again.
    arena: OnceLock<TrieArena>,
    arena_init: Mutex<()>,
    runs: AtomicU64,
}

impl<'d> ExecSession<'d> {
    /// A session with the default plan-cache capacity.
    pub fn new(device: &'d Device, config: EngineConfig) -> Self {
        Self::with_cache_capacity(device, config, DEFAULT_PLAN_CACHE_CAPACITY)
    }

    /// A session retaining at most `plan_capacity` cached plans (0
    /// disables plan caching).
    pub fn with_cache_capacity(
        device: &'d Device,
        config: EngineConfig,
        plan_capacity: usize,
    ) -> Self {
        ExecSession {
            device,
            config,
            class: DeviceClass::of(device.config()),
            plans: PlanCache::new(plan_capacity),
            arena: OnceLock::new(),
            arena_init: Mutex::new(()),
            runs: AtomicU64::new(0),
        }
    }

    /// Restores a warm session from a decoded [`crate::Snapshot`]: every
    /// persisted plan whose config and device-class fingerprints match
    /// this session is inserted into the plan cache up front, so repeat
    /// queries hit with **zero** plan builds (`stats().plans.misses`
    /// stays 0), and the snapshot's graph already carries its profile, so
    /// nothing is re-profiled. Plans built for a different configuration
    /// or device class are skipped — the session stays correct, it just
    /// plans those queries on first sight like a cold session would.
    pub fn from_snapshot(
        device: &'d Device,
        config: EngineConfig,
        snapshot: &crate::snapshot::Snapshot,
    ) -> Self {
        let capacity = DEFAULT_PLAN_CACHE_CAPACITY.max(snapshot.plans().len());
        let session = Self::with_cache_capacity(device, config, capacity);
        let seeded = session.seed_plans(snapshot.plans());
        device.trace().instant_with(
            EventKind::Snapshot,
            "load",
            &[
                ("plans", Arg::U64(seeded as u64)),
                (
                    "skipped",
                    Arg::U64((snapshot.plans().len() - seeded) as u64),
                ),
                ("vertices", Arg::U64(snapshot.graph().num_vertices() as u64)),
            ],
        );
        session
    }

    /// Inserts every plan matching this session's configuration and
    /// device class into the plan cache without counting lookups.
    /// Returns how many were accepted.
    pub fn seed_plans(&self, plans: &[Arc<QueryPlan>]) -> usize {
        let config_fp = crate::plan::fingerprint_config(&self.config);
        let class_fp = self.class.fingerprint();
        let mut seeded = 0;
        for plan in plans {
            if plan.key.config == config_fp && plan.key.device_class == class_fp {
                self.plans.insert(Arc::clone(plan));
                seeded += 1;
            }
        }
        seeded
    }

    /// The plans currently resident in this session's cache, least
    /// recently used first (what [`crate::Snapshot::capture`] persists).
    pub fn cached_plans(&self) -> Vec<Arc<QueryPlan>> {
        self.plans.plans()
    }

    /// The device this session executes on.
    pub fn device(&self) -> &'d Device {
        self.device
    }

    /// The session's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The device class plans are built for.
    pub fn class(&self) -> &DeviceClass {
        &self.class
    }

    /// Reuse statistics.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            runs: self.runs.load(Ordering::Relaxed),
            plans: self.plans.stats(),
            arena: self.arena.get().map(|t| t.arena.stats()),
            trie_entries: self.arena.get().map(|t| t.max_chain_entries()),
        }
    }

    /// The (cached) plan for `query` under this session's configuration
    /// and device class.
    pub fn plan_for(&self, query: &Graph) -> Result<Arc<QueryPlan>, EngineError> {
        let trace = self.device.trace();
        if !trace.is_enabled() {
            return self.plans.get_or_build(query, &self.config, &self.class);
        }
        let hits_before = self.plans.stats().hits;
        let plan = self.plans.get_or_build(query, &self.config, &self.class);
        let name = if self.plans.stats().hits > hits_before {
            "hit"
        } else {
            "miss"
        };
        trace.instant_with(
            EventKind::Plan,
            name,
            &[("query_n", Arg::U64(query.num_vertices() as u64))],
        );
        plan
    }

    /// The (cached) plan that matches `query` over `data`. A symmetric
    /// query's plan keeps one constraint per undirected edge, which is
    /// exact only over symmetric data; over directed data the query is
    /// planned as its directed closure, so both arcs of each edge are
    /// constrained. The closure orders identically (only the back edges
    /// differ) and caches under its own key. Every `(data, query)` entry
    /// point plans through here; callers of
    /// [`ExecSession::run_with_plan`] should too.
    pub fn plan_over(&self, data: &Graph, query: &Graph) -> Result<Arc<QueryPlan>, EngineError> {
        self.plan_for(&matched_query(data, query))
    }

    /// Counts all embeddings of `query` in `data`. The query must be
    /// (weakly) connected.
    pub fn run(&self, data: &Graph, query: &Graph) -> Result<MatchResult, EngineError> {
        let plan = self.plan_over(data, query)?;
        self.run_full(&plan, data, None, None)
    }

    /// Executes an already-built plan over `data` (benchmarks use this to
    /// separate plan cost from run cost). Get the plan from
    /// [`ExecSession::plan_over`] when `data` may be directed.
    pub fn run_with_plan(
        &self,
        plan: &QueryPlan,
        data: &Graph,
    ) -> Result<MatchResult, EngineError> {
        self.run_full(plan, data, None, None)
    }

    /// Like [`ExecSession::run`], additionally streaming every embedding
    /// to `sink` (no materialisation of the full result set).
    pub fn run_enumerate(
        &self,
        data: &Graph,
        query: &Graph,
        sink: MatchSink<'_>,
    ) -> Result<MatchResult, EngineError> {
        let plan = self.plan_over(data, query)?;
        self.run_full(&plan, data, Some(sink), None)
    }

    /// Resumes matching from already-built partial paths: the receiving
    /// side of a §4.2 work donation. `seed.levels.len()` query vertices
    /// (in this session's order for `query`) are treated as matched; the
    /// run continues from there and counts only completions of the seeded
    /// paths. Arguments follow the workspace convention: data graph
    /// before query graph.
    pub fn run_seeded(
        &self,
        data: &Graph,
        query: &Graph,
        seed: &cuts_trie::HostTrie,
    ) -> Result<MatchResult, EngineError> {
        let plan = self.plan_over(data, query)?;
        self.run_full(&plan, data, None, Some(seed))
    }

    /// Streams every completion of the seeded partial paths under an
    /// explicit `plan` (seed level `l` holds query vertex
    /// `plan.order.order[l]`), as full embeddings in query-vertex space.
    /// The batch-dynamic matcher's workhorse: it seeds the data arcs of
    /// an updated edge at depth 2 under a plan whose order starts at the
    /// anchoring query edge. The plan must suit `data` (see
    /// [`ExecSession::plan_over`]).
    pub fn run_seeded_enumerate(
        &self,
        plan: &QueryPlan,
        data: &Graph,
        seed: &cuts_trie::HostTrie,
        sink: MatchSink<'_>,
    ) -> Result<MatchResult, EngineError> {
        self.run_full(plan, data, Some(sink), Some(seed))
    }

    /// Expands seeded partial paths by exactly one level and returns the
    /// extended paths as a host trie (depth `seed.depth() + 1`). Used by
    /// `cuts_dist::run_synchronous`, the lock-step ablation that
    /// rebalances paths after every level; it charges the launch through
    /// a `CounterSink`. The seed must be shallower than the query.
    pub fn expand_seed_once(
        &self,
        data: &Graph,
        query: &Graph,
        seed: &cuts_trie::HostTrie,
    ) -> Result<cuts_trie::HostTrie, EngineError> {
        let plan = self.plan_over(data, query)?;
        let depth = seed.levels.len();
        assert!(
            depth >= 1 && depth < plan.len(),
            "seed depth must be in 1..|V_Q|"
        );
        let (mut trie, ..) = self.acquire(usize::MAX, usize::MAX)?;
        let out = (|| {
            trie.load(seed)?;
            let frontier = trie.level(depth - 1);
            let ctx = self.level_ctx(&plan, data);
            let params = ctx.params(depth, Order::PerPath(None));
            expand_range(self.device, &trie, frontier, &params)?;
            trie.seal_level();
            Ok(trie.to_host())
        })();
        drop(trie); // slabs return to the arena here
        out
    }

    /// The session's trie arena, carved on first use. Geometry follows
    /// the paper's up-front allocation: `W = free_words × trie_fraction`
    /// device words give `E = W / 2` PA/CA entry pairs, split into
    /// power-of-two slabs of roughly `E / 32` entries — small enough that
    /// per-job chains track their §5 estimates closely, large enough that
    /// a full chain is a ~32-hop spine.
    fn trie_arena(&self) -> Result<&TrieArena, EngineError> {
        if let Some(t) = self.arena.get() {
            return Ok(t);
        }
        let _g = self.arena_init.lock().unwrap();
        if let Some(t) = self.arena.get() {
            return Ok(t);
        }
        let w = (self.device.free_words() as f64 * self.config.trie_fraction) as usize;
        let e = (w / 2).max(1);
        let floor_pow2 = 1usize << (usize::BITS - 1 - e.leading_zeros());
        let seg_entries = ((e / 32).max(1).next_power_of_two()).min(floor_pow2);
        let pairs = (e / seg_entries).max(1);
        let arena = Arena::new(
            self.device,
            &[ClassSpec {
                slab_words: seg_entries,
                slabs: 2 * pairs,
            }],
        )?;
        self.device.trace().instant_with(
            EventKind::Trie,
            "size",
            &[
                ("entries", Arg::U64((pairs * seg_entries) as u64)),
                ("seg_entries", Arg::U64(seg_entries as u64)),
                ("pairs", Arg::U64(pairs as u64)),
            ],
        );
        let _ = self.arena.set(TrieArena {
            arena,
            seg_entries,
            pairs,
        });
        Ok(self.arena.get().expect("arena initialised above"))
    }

    /// Forces the arena carve now (the serving tier does this before
    /// admission so its word budget matches the arena exactly).
    pub(crate) fn prepare_trie_arena(&self) -> Result<(), EngineError> {
        self.trie_arena().map(|_| ())
    }

    /// Total arena words available to trie chains — the serving tier's
    /// admission budget. Requires [`ExecSession::prepare_trie_arena`].
    pub(crate) fn trie_budget_words(&self) -> usize {
        let t = self.arena.get().expect("prepare_trie_arena first");
        2 * t.max_chain_entries()
    }

    /// Device words a chain sized for `entries` reserves (whole slabs,
    /// saturating at the full arena). The serving tier's admission ledger
    /// accounts in these units, so reservations sum to exactly what the
    /// arena can grant — a deterministic no-fit, never a surprise OOM.
    /// Requires [`ExecSession::prepare_trie_arena`].
    pub(crate) fn chain_words(&self, entries: usize) -> usize {
        self.arena
            .get()
            .expect("prepare_trie_arena first")
            .chain_words(entries)
    }

    /// A trie chain starting at `entries` whose spine can grow to
    /// `limit`, both clamped to the class (`1 ≤ entries ≤ limit ≤` the
    /// full arena); returns the chain and the clamped pair. Capacity is
    /// whole slabs — a deterministic function of the pair and the device
    /// model alone, which keeps results independent of lane count and
    /// run history. Warm-path cost is `O(slabs)` bitmap CASes: the device
    /// allocator is never involved after the first carve.
    fn acquire(&self, entries: usize, limit: usize) -> Result<(Trie, usize, usize), EngineError> {
        let t = self.trie_arena()?;
        let entries = entries.clamp(1, t.max_chain_entries());
        let limit = limit.clamp(entries, t.max_chain_entries());
        let table = PairTable::chained_on_arena(&t.arena, 0, entries, limit)?;
        Ok((Trie::from_table(table), entries, limit))
    }

    /// A run on a full-capacity chain that never grows: the budgeted run
    /// with `entries = limit =` the whole arena, which [`GrantAll`] never
    /// gets asked about.
    fn run_full(
        &self,
        plan: &QueryPlan,
        data: &Graph,
        sink: Option<MatchSink<'_>>,
        seed: Option<&cuts_trie::HostTrie>,
    ) -> Result<MatchResult, EngineError> {
        match self.run_budgeted(plan, data, sink, seed, usize::MAX, usize::MAX, &GrantAll) {
            Ok((r, _)) => Ok(r),
            Err(BudgetedRunError::Engine(e)) => Err(e),
            Err(BudgetedRunError::GrowthDenied { .. }) => {
                unreachable!("GrantAll never denies growth")
            }
        }
    }

    /// Every run's one path: run `plan` over `data` on a trie chain that
    /// starts at `entries` and may grow **in place** (a pure slab append —
    /// no copy, no retry-from-scratch) up to `limit_entries`, with every
    /// growth step charged to `ledger`. Owns the run span, the `runs`
    /// counter and the per-run counter sink. Returns the result and the
    /// capacity (entries) the run settled on, so the serving tier can
    /// reconcile its reservation.
    ///
    /// When the ledger denies a step the run aborts with
    /// [`BudgetedRunError::GrowthDenied`]; the trie is dropped (its slabs
    /// and reservation return) before the caller re-reserves and reruns
    /// at the target — growers never deadlock each other.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_budgeted(
        &self,
        plan: &QueryPlan,
        data: &Graph,
        sink: Option<MatchSink<'_>>,
        seed: Option<&cuts_trie::HostTrie>,
        entries: usize,
        limit_entries: usize,
        ledger: &dyn GrowthLedger,
    ) -> Result<(MatchResult, usize), BudgetedRunError> {
        let trace = self.device.trace();
        let mut rspan = if trace.is_enabled() {
            let mut s = trace.span(EventKind::Run, "run");
            s.arg("query_n", Arg::U64(plan.len() as u64));
            s.arg("data_n", Arg::U64(data.num_vertices() as u64));
            Some(s)
        } else {
            None
        };
        let wall_start = Instant::now();
        let counter_sink = CounterSink::install();
        let (mut trie, entries, limit) = self.acquire(entries, limit_entries)?;
        let mut growth = GrowthState {
            cur_entries: entries,
            limit_entries: limit,
            ledger,
        };
        let out = self.run_core(
            plan,
            data,
            &mut trie,
            sink,
            seed,
            wall_start,
            &counter_sink,
            &mut growth,
        );
        drop(trie); // slabs return to the arena here
        if let Ok(r) = &out {
            self.runs.fetch_add(1, Ordering::Relaxed);
            if let Some(s) = &mut rspan {
                s.arg("matches", Arg::U64(r.num_matches));
                s.counters(r.counters.into());
            }
        }
        out.map(|r| (r, growth.cur_entries))
    }

    #[allow(clippy::too_many_arguments)]
    fn run_core(
        &self,
        plan: &QueryPlan,
        data: &Graph,
        trie: &mut Trie,
        mut sink: Option<MatchSink<'_>>,
        seed: Option<&cuts_trie::HostTrie>,
        wall_start: Instant,
        counter_sink: &CounterSink,
        growth: &mut GrowthState<'_>,
    ) -> Result<MatchResult, BudgetedRunError> {
        let order = &plan.order;
        let n = order.len();
        let mut level_counts = vec![0u64; n];
        let mut rng = SmallRng::seed_from_u64(self.config.seed);
        let ctx = self.level_ctx(plan, data);
        let profile = data.profile();

        let (frontier0, start_pos) = match seed {
            None => {
                let pre = self.config.signature_prefilter.then(|| SigPrefilter {
                    sigs: &profile.signatures,
                    required: plan.required_root_signature(data.is_labeled()),
                });
                init_candidates(
                    self.device,
                    data,
                    order,
                    trie,
                    self.config.max_blocks,
                    pre.as_ref(),
                )?;
                let lvl0 = trie.seal_level();
                level_counts[0] = lvl0.len() as u64;
                (lvl0, 1)
            }
            Some(host) => {
                let depth = host.levels.len();
                assert!(depth >= 1 && depth <= n, "seed depth out of range");
                trie.load(host)?;
                for (l, r) in host.levels.iter().enumerate() {
                    level_counts[l] = r.len() as u64;
                }
                (trie.level(depth - 1), depth)
            }
        };

        let mut used_chunking = false;
        let mut frontier = frontier0;
        let mut pos = start_pos;
        let mut chunked_total: Option<u64> = None;

        let trace = self.device.trace();
        while pos < n && !frontier.is_empty() {
            let lspan = self.level_span(pos, frontier.len());
            let pre_len = trie.table().len();
            let placement = || self.placement(&mut rng, &frontier);
            match self.expand_level(&ctx, trie, pos, frontier.clone(), sink.is_some(), placement) {
                Ok(()) => {
                    let lvl = trie.seal_level();
                    level_counts[pos] += lvl.len() as u64;
                    close_level(lspan, Some(lvl.len()));
                    frontier = lvl;
                    pos += 1;
                }
                Err(DeviceError::BufferOverflow { .. }) => {
                    trie.table().truncate(pre_len);
                    close_level(lspan, None);
                    // The chain grows in place first while its limit
                    // allows — appending slabs is cheaper than spilling
                    // to the hybrid walk, and the expansion resumes exactly
                    // where it overflowed (counts are only committed on
                    // success, so the retry double-counts nothing).
                    if growth.cur_entries < growth.limit_entries {
                        let (seg, cur_cap, max_e) = {
                            let t = trie.table();
                            (t.seg_entries(), t.capacity(), t.max_entries())
                        };
                        let cap_of = |e: usize| (e.div_ceil(seg) * seg).min(max_e);
                        // Double past the slab-rounded capacity we
                        // already have, so every step adds a segment.
                        let mut target = (growth.cur_entries * 2).min(growth.limit_entries);
                        while target < growth.limit_entries && cap_of(target) <= cur_cap {
                            target = (target * 2).min(growth.limit_entries);
                        }
                        let target_cap = cap_of(target);
                        let delta_words = 2 * target_cap.saturating_sub(cur_cap);
                        if delta_words == 0 {
                            // Even the limit adds no capacity: fall
                            // through to the hybrid walk below.
                            growth.cur_entries = target;
                        } else if !growth.ledger.try_grant(delta_words) {
                            return Err(BudgetedRunError::GrowthDenied {
                                target_entries: target,
                            });
                        } else {
                            match trie.grow_to(target_cap) {
                                Ok(new_cap) => {
                                    growth.cur_entries = target;
                                    let args = [
                                        ("depth", Arg::U64(pos as u64)),
                                        ("capacity", Arg::U64(new_cap as u64)),
                                    ];
                                    // Arena instants also cover per-slab
                                    // traffic, which stays out of the
                                    // ring: this one is pushed directly.
                                    flight::record(
                                        EventKind::Arena,
                                        "chain_grow",
                                        trace.rank(),
                                        &args,
                                    );
                                    trace.instant_with(EventKind::Arena, "chain_grow", &args);
                                    continue;
                                }
                                Err(_) => {
                                    // The ledger said yes but the
                                    // class could not serve — a
                                    // protocol breach somewhere; fall
                                    // back to chunking.
                                    growth.ledger.refund(delta_words);
                                    debug_assert!(
                                        false,
                                        "ledger-granted chain growth must not fail"
                                    );
                                }
                            }
                        }
                    }
                    // Hybrid BFS-DFS (§4.1.2): walk the remaining depths
                    // chunk by chunk inside the capacity we have.
                    used_chunking = true;
                    trace.instant_with(
                        EventKind::Trie,
                        "spill",
                        &[
                            ("depth", Arg::U64(pos as u64)),
                            ("frontier", Arg::U64(frontier.len() as u64)),
                        ],
                    );
                    let total = self.process_chunks(
                        &ctx,
                        trie,
                        pos,
                        frontier.clone(),
                        self.config.chunk_size,
                        &mut level_counts,
                        &mut sink,
                    )?;
                    chunked_total = Some(total);
                    break;
                }
                Err(e) => return Err(e.into()),
            }
        }

        let num_matches = match chunked_total {
            Some(t) => t,
            None if pos == n => {
                if let Some(sink) = sink.as_mut() {
                    self.emit_level(trie, order, frontier.clone(), sink);
                }
                level_counts[n - 1]
            }
            None => 0, // frontier drained before reaching full depth
        };

        let counters = counter_sink.snapshot();
        let sim_millis = CostModel::default().millis(&counters, self.device.config());
        Ok(MatchResult {
            num_matches,
            level_counts,
            counters,
            sim_millis,
            wall_millis: wall_start.elapsed().as_secs_f64() * 1e3,
            used_chunking,
            order: order.order.clone(),
        })
    }

    /// What every expansion of a run of `plan` over `data` shares,
    /// resolving the plan-time kernel policy (see
    /// [`ExecSession::resolve_policy`]).
    fn level_ctx<'a>(&self, plan: &'a QueryPlan, data: &'a Graph) -> LevelCtx<'a> {
        LevelCtx {
            data,
            plan,
            policy: self.resolve_policy(plan, data),
            vwarp: self.config.virtual_warp.width(data.avg_out_degree()),
            shared_words: self.class.shared_mem_words_per_block,
            max_blocks: self.config.max_blocks,
        }
    }

    /// Computes the plan-time kernel policy for running `plan` over
    /// `data`, emitting one `policy` obs event per level (plus the
    /// prefilter verdict) when tracing is on.
    fn resolve_policy(&self, plan: &QueryPlan, data: &Graph) -> KernelPolicy {
        let policy = plan.kernel_policy(&data.profile());
        let trace = self.device.trace();
        if trace.is_enabled() {
            for d in &policy.levels {
                trace.instant_with(
                    EventKind::Policy,
                    d.method.name(),
                    &[
                        ("pos", Arg::U64(d.pos as u64)),
                        ("constraints", Arg::U64(d.constraints as u64)),
                        ("est_first_len", Arg::U64(d.est_first_len as u64)),
                    ],
                );
            }
            trace.instant_with(
                EventKind::Policy,
                if self.config.signature_prefilter {
                    "prefilter_on"
                } else {
                    "prefilter_off"
                },
                &[],
            );
        }
        policy
    }

    /// Shuffled frontier placement when configured (§4.1.2: randomising
    /// partial-path placement fixes id-order load imbalance).
    fn placement(&self, rng: &mut SmallRng, frontier: &Range<usize>) -> Option<Vec<u32>> {
        if !self.config.randomize_placement || frontier.len() < 2 {
            return None;
        }
        let mut p: Vec<u32> = frontier.clone().map(|i| i as u32).collect();
        p.shuffle(rng);
        Some(p)
    }

    /// Depth-first walk over frontier chunks: expand a chunk, recurse one
    /// level deeper, reclaim the chunk's scratch level, move on. Chunk
    /// sizes halve locally when even one chunk cannot fit.
    #[allow(clippy::too_many_arguments)]
    fn process_chunks(
        &self,
        ctx: &LevelCtx<'_>,
        trie: &mut Trie,
        pos: usize,
        frontier: Range<usize>,
        chunk_size: usize,
        level_counts: &mut [u64],
        sink: &mut Option<MatchSink<'_>>,
    ) -> Result<u64, EngineError> {
        let n = ctx.plan.len();
        if pos == n {
            if let Some(sink) = sink.as_mut() {
                self.emit_level(trie, &ctx.plan.order, frontier.clone(), sink);
            }
            return Ok(frontier.len() as u64);
        }
        let mut total = 0u64;
        for chunk in cuts_trie::Chunks::new(frontier, chunk_size) {
            let lspan = self.level_span(pos, chunk.len());
            let pre_len = trie.table().len();
            match self.expand_level(ctx, trie, pos, chunk.clone(), sink.is_some(), || None) {
                Ok(()) => {
                    let lvl = trie.seal_level();
                    level_counts[pos] += lvl.len() as u64;
                    close_level(lspan, Some(lvl.len()));
                    total += self.process_chunks(
                        ctx,
                        trie,
                        pos + 1,
                        lvl,
                        chunk_size,
                        level_counts,
                        sink,
                    )?;
                    trie.pop_levels(1);
                }
                Err(DeviceError::BufferOverflow { .. }) => {
                    trie.table().truncate(pre_len);
                    close_level(lspan, None);
                    if chunk.len() == 1 {
                        return Err(EngineError::CapacityExhausted { depth: pos });
                    }
                    self.device.trace().instant_with(
                        EventKind::Trie,
                        "halve",
                        &[
                            ("depth", Arg::U64(pos as u64)),
                            ("chunk", Arg::U64(chunk.len() as u64)),
                        ],
                    );
                    // Halve locally and retry this chunk.
                    total += self.process_chunks(
                        ctx,
                        trie,
                        pos,
                        chunk.clone(),
                        (chunk.len() / 2).max(1),
                        level_counts,
                        sink,
                    )?;
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(total)
    }

    /// A level span for expanding `frontier` entries at `pos`; `None` when
    /// the trace is off, so untraced runs format no span name.
    fn level_span(&self, pos: usize, frontier: usize) -> Option<Span> {
        let trace = self.device.trace();
        trace.is_enabled().then(|| {
            let mut s = trace.span(EventKind::Level, &format!("level {pos}"));
            s.arg("pos", Arg::U64(pos as u64));
            s.arg("frontier", Arg::U64(frontier as u64));
            s
        })
    }

    /// Expands `frontier` by the level at `pos`, its paths placed by
    /// `placement`. The deepest level of a run without a sink is never
    /// read, so it is counted, not stored (DESIGN §13.4): reserved and
    /// charged, but never written. A count-only such level that
    /// provably fits runs in sibling order and draws no placement
    /// ([`crate::kernels::siblings_fit`]).
    fn expand_level(
        &self,
        ctx: &LevelCtx<'_>,
        trie: &Trie,
        pos: usize,
        frontier: Range<usize>,
        has_sink: bool,
        placement: impl FnOnce() -> Option<Vec<u32>>,
    ) -> Result<(), DeviceError> {
        if has_sink || pos + 1 < ctx.plan.len() {
            let perm = placement();
            let params = ctx.params(pos, Order::PerPath(perm.as_deref()));
            return expand_range(self.device, trie, frontier, &params);
        }
        let out = trie.table().counted();
        let siblings = ctx.params(pos, Order::Siblings);
        if siblings_fit(trie, frontier.clone(), &siblings) {
            return expand_into(self.device, trie, &out, frontier, &siblings);
        }
        let perm = placement();
        let params = ctx.params(pos, Order::PerPath(perm.as_deref()));
        expand_into(self.device, trie, &out, frontier, &params)
    }

    /// Streams the full embeddings ending at `level`'s entries, remapped
    /// from order space to query-vertex space.
    fn emit_level(
        &self,
        trie: &Trie,
        order: &crate::order::MatchOrder,
        level: Range<usize>,
        sink: MatchSink<'_>,
    ) {
        let n = order.len();
        let mut m = vec![0u32; n];
        for leaf in level {
            let path = trie.extract_path(leaf);
            debug_assert_eq!(path.len(), n);
            for (l, &v) in path.iter().enumerate() {
                m[order.order[l] as usize] = v;
            }
            sink(&m);
        }
    }
}

/// Ends a level span: a finished step records the `paths` it produced,
/// an attempt that overflowed and was rolled back records `rolled_back`.
fn close_level(span: Option<Span>, paths: Option<usize>) {
    if let Some(mut s) = span {
        match paths {
            Some(p) => s.arg("paths", Arg::U64(p as u64)),
            None => s.arg("rolled_back", Arg::U64(1)),
        }
    }
}

impl std::fmt::Debug for ExecSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecSession")
            .field("device", &self.device.config().name)
            .field("stats", &self.stats())
            .finish()
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
        let session = ExecSession::new(&device, EngineConfig::default());
        let got = session.run(data, query).unwrap();
        let want = reference::count_embeddings(data, query);
        assert_eq!(got.num_matches, want, "session vs reference");
    }

    #[test]
    fn triangles_in_k4() {
        let device = Device::new(DeviceConfig::test_small());
        let session = ExecSession::new(&device, EngineConfig::default());
        let r = session.run(&clique(4), &clique(3)).unwrap();
        // 4 x 3 x 2 ordered embeddings.
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
            let session = ExecSession::new(&device, EngineConfig::default().with_intersect(s));
            counts.push(session.run(&data, &query).unwrap().num_matches);
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
        let expect = ExecSession::new(&big, EngineConfig::default())
            .run(&data, &query)
            .unwrap();
        assert!(!expect.used_chunking);

        let small = Device::new(DeviceConfig::test_small().with_global_mem_words(2048));
        let session = ExecSession::new(&small, EngineConfig::default().with_chunk_size(8));
        let got = session.run(&data, &query).unwrap();
        assert!(got.used_chunking, "expected hybrid fallback");
        assert_eq!(got.num_matches, expect.num_matches);
        assert_eq!(got.level_counts, expect.level_counts);
    }

    #[test]
    fn spilled_runs_expand_only_inside_level_spans() {
        use cuts_obs::{Event, JournalSummary, Trace};
        let data = erdos_renyi(50, 250, 5);
        let query = chain(4);
        let mut small = Device::new(DeviceConfig::test_small().with_global_mem_words(2048));
        let trace = Trace::enabled();
        small.set_trace(trace.clone());
        let session = ExecSession::new(&small, EngineConfig::default().with_chunk_size(8));
        let r = session.run(&data, &query).unwrap();
        assert!(r.used_chunking, "expected hybrid fallback");
        let mut events = trace.journal().unwrap().drain_sorted();
        // Spans are recorded as they end: an expansion launch belongs to
        // the first level span recorded after it that began before it.
        events.sort_by_key(|e| e.seq);
        let pos = |e: &Event| match e.arg("pos") {
            Some(Arg::U64(p)) => *p as usize,
            other => panic!("level span without a position: {other:?}"),
        };
        let mut pending: Vec<&Event> = Vec::new();
        let mut paths = vec![0u64; query.num_vertices()];
        let mut rolled_back = 0;
        for e in &events {
            match e.kind {
                EventKind::Kernel if e.name.starts_with("expand") => pending.push(e),
                EventKind::Level => {
                    let inside = pending.len();
                    pending.retain(|k| k.ts_us < e.ts_us);
                    assert!(pending.len() < inside, "{} ran no expansion", e.name);
                    assert_eq!(e.name, format!("level {}", pos(e)));
                    match (e.arg("paths"), e.arg("rolled_back")) {
                        (Some(Arg::U64(p)), None) => paths[pos(e)] += p,
                        (None, Some(_)) => rolled_back += 1,
                        other => panic!("level span neither finished nor rolled back: {other:?}"),
                    }
                }
                _ => {}
            }
        }
        assert!(
            pending.is_empty(),
            "{} expansion(s) outside a level span",
            pending.len()
        );
        assert!(rolled_back > 0, "the spill rolled an attempt back");
        // Finished steps account for every path, position by position;
        // a rolled-back attempt has a row of its own.
        assert_eq!(paths[1..], r.level_counts[1..]);
        let summary = JournalSummary::from_events(&events);
        for (name, row) in &summary.levels {
            match name.strip_suffix(" rolled back") {
                Some(level) => {
                    assert!(summary.levels.contains_key(level));
                    assert_eq!(row.paths, 0);
                }
                None => {
                    let at: usize = name.strip_prefix("level ").unwrap().parse().unwrap();
                    assert_eq!(row.paths, paths[at]);
                }
            }
        }
    }

    #[test]
    fn enumeration_yields_valid_embeddings() {
        let data = mesh2d(3, 3);
        let query = cycle(4);
        let device = Device::new(DeviceConfig::test_small());
        let session = ExecSession::new(&device, EngineConfig::default());
        let mut seen = Vec::new();
        let r = session
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
        ExecSession::new(&big, EngineConfig::default())
            .run_enumerate(&data, &query, &mut |m| a.push(m.to_vec()))
            .unwrap();
        let small = Device::new(DeviceConfig::test_small().with_global_mem_words(2048));
        let mut b = Vec::new();
        ExecSession::new(&small, EngineConfig::default().with_chunk_size(4))
            .run_enumerate(&data, &query, &mut |m| b.push(m.to_vec()))
            .unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn no_match_is_zero() {
        // K6 needs degree 5; a mesh's maximum degree is 4.
        let device = Device::new(DeviceConfig::test_small());
        let session = ExecSession::new(&device, EngineConfig::default());
        let r = session.run(&mesh2d(4, 4), &clique(6)).unwrap();
        assert_eq!(r.num_matches, 0);
    }

    #[test]
    fn single_vertex_query() {
        let device = Device::new(DeviceConfig::test_small());
        let session = ExecSession::new(&device, EngineConfig::default());
        let g = Graph::undirected(5, &[(0, 1), (1, 2)]);
        let q = Graph::undirected(1, &[]);
        // Every vertex matches a degree-0 query vertex.
        let r = session.run(&g, &q).unwrap();
        assert_eq!(r.num_matches, 5);
    }

    #[test]
    fn randomization_does_not_change_counts() {
        let data = erdos_renyi(50, 200, 21);
        let query = clique(3);
        let device = Device::new(DeviceConfig::test_small());
        let run = |randomize: bool| {
            ExecSession::new(
                &device,
                EngineConfig::default().with_randomize_placement(randomize),
            )
            .run(&data, &query)
            .unwrap()
        };
        assert_eq!(run(true).num_matches, run(false).num_matches);
    }

    #[test]
    fn capacity_exhausted_when_hopeless() {
        // Device so small even chunk size 1 cannot expand.
        let device = Device::new(DeviceConfig::test_small().with_global_mem_words(40));
        let session = ExecSession::new(&device, EngineConfig::default());
        let data = clique(8);
        match session.run(&data, &clique(4)) {
            Err(EngineError::CapacityExhausted { .. }) | Err(EngineError::Device(_)) => {}
            other => panic!("expected capacity failure, got {other:?}"),
        }
    }

    /// Every level-0 candidate of `query`'s first order slot in `data`.
    fn root_paths(data: &Graph, query: &Graph) -> Vec<Vec<u32>> {
        let plan = crate::order::MatchOrder::compute(query).unwrap();
        (0..data.num_vertices() as u32)
            .filter(|&v| data.degree_dominates(v, plan.q_out[0], plan.q_in[0]))
            .map(|v| vec![v])
            .collect()
    }

    #[test]
    fn seeded_runs_partition_the_count() {
        // Splitting the root-candidate set across seeded runs must
        // partition the total count (the §4.2 distribution invariant).
        let data = erdos_renyi(40, 160, 2);
        let query = clique(3);
        let device = Device::new(DeviceConfig::test_small());
        let session = ExecSession::new(&device, EngineConfig::default());
        let full = session.run(&data, &query).unwrap();

        let roots = root_paths(&data, &query);
        assert_eq!(roots.len() as u64, full.level_counts[0]);
        let mid = roots.len() / 2;
        let a = cuts_trie::HostTrie::from_flat_paths(&roots[..mid]);
        let b = cuts_trie::HostTrie::from_flat_paths(&roots[mid..]);
        let ca = session.run_seeded(&data, &query, &a).unwrap();
        let cb = session.run_seeded(&data, &query, &b).unwrap();
        assert_eq!(ca.num_matches + cb.num_matches, full.num_matches);
    }

    #[test]
    fn seeded_run_with_deeper_paths() {
        // Seed with every depth-2 partial path that passes the degree
        // filter of the first two order slots; completion count must match.
        let data = mesh2d(3, 3);
        let query = chain(4);
        let device = Device::new(DeviceConfig::test_small());
        let session = ExecSession::new(&device, EngineConfig::default());
        let full = session.run(&data, &query).unwrap();
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
        let seeded = session.run_seeded(&data, &query, &seed).unwrap();
        assert_eq!(seeded.num_matches, full.num_matches);
        assert_eq!(seeded.level_counts, full.level_counts);
    }

    #[test]
    fn expand_seed_once_matches_full_run_levels() {
        let data = erdos_renyi(40, 160, 2);
        let query = clique(3);
        let device = Device::new(DeviceConfig::test_small());
        let session = ExecSession::new(&device, EngineConfig::default());
        let full = session.run(&data, &query).unwrap();
        // Seed with all roots, expand once: level-2 count must match.
        let seed = cuts_trie::HostTrie::from_flat_paths(&root_paths(&data, &query));
        let expanded = session.expand_seed_once(&data, &query, &seed).unwrap();
        assert_eq!(expanded.levels.len(), 2);
        assert_eq!(
            expanded.levels[1].len() as u64,
            full.level_counts[1],
            "one-level expansion disagrees with the full run"
        );
        // Completing the expanded seed reproduces the full count.
        let done = session.run_seeded(&data, &query, &expanded).unwrap();
        assert_eq!(done.num_matches, full.num_matches);
    }

    #[test]
    fn directed_semantics() {
        // Directed triangle query in a directed 6-cycle: none.
        let data = Graph::directed(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let tri = Graph::directed(3, &[(0, 1), (1, 2), (2, 0)]);
        let device = Device::new(DeviceConfig::test_small());
        let session = ExecSession::new(&device, EngineConfig::default());
        assert_eq!(session.run(&data, &tri).unwrap().num_matches, 0);
        // Directed 3-cycle data: 3 rotations match.
        let d3 = Graph::directed(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(session.run(&d3, &tri).unwrap().num_matches, 3);
    }

    #[test]
    fn warm_runs_reuse_buffers_and_plans() {
        let device = Device::new(DeviceConfig::test_small());
        let session = ExecSession::new(&device, EngineConfig::default());
        let first = session.run(&clique(4), &clique(3)).unwrap();
        let allocs_after_first = device.alloc_calls();
        for _ in 0..3 {
            let r = session.run(&clique(4), &clique(3)).unwrap();
            assert_eq!(r.num_matches, first.num_matches);
            assert_eq!(r.level_counts, first.level_counts);
        }
        assert_eq!(
            device.alloc_calls(),
            allocs_after_first,
            "warm runs must not call the device allocator"
        );
        let s = session.stats();
        assert_eq!(s.runs, 4);
        assert_eq!(s.plans.hits, 3);
        assert_eq!(s.plans.misses, 1);
        let arena = s.arena.expect("arena carved at first run");
        assert_eq!(arena.device_allocs, 1, "one carve, ever");
        assert_eq!(arena.classes.len(), 1);
        assert_eq!(arena.classes[0].in_use, 0, "all slabs back after runs");
        assert_eq!(arena.classes[0].acquires, arena.classes[0].releases);
        assert!(arena.slab_acquires() > 0, "runs chained over the arena");
    }

    #[test]
    fn batch_runs_plan_once() {
        let device = Device::new(DeviceConfig::test_small());
        let session = ExecSession::new(&device, EngineConfig::default());
        let datas = vec![clique(4), mesh2d(3, 3), erdos_renyi(30, 90, 7)];
        for data in &datas {
            let r = session
                .run(data, &clique(3))
                .expect("per-graph result is Ok");
            let fresh = ExecSession::new(&device, EngineConfig::default())
                .run(data, &clique(3))
                .unwrap();
            assert_eq!(r.num_matches, fresh.num_matches);
        }
        let s = session.stats();
        assert_eq!(s.plans.misses, 1, "one plan serves every graph");
        assert_eq!(s.arena.expect("arena carved").device_allocs, 1);
    }

    #[test]
    fn batch_with_unplannable_query_fails_per_job() {
        let device = Device::new(DeviceConfig::test_small());
        let session = ExecSession::new(&device, EngineConfig::default());
        let disconnected = Graph::undirected(4, &[(0, 1), (2, 3)]);
        for data in [clique(4), mesh2d(3, 3)] {
            assert!(matches!(
                session.run(&data, &disconnected),
                Err(EngineError::DisconnectedQuery)
            ));
        }
    }

    #[test]
    fn sized_runs_match_default_runs() {
        let device = Device::new(DeviceConfig::test_small());
        let session = ExecSession::new(&device, EngineConfig::default());
        let data = erdos_renyi(30, 90, 7);
        let query = clique(3);
        let baseline = session.run(&data, &query).unwrap();
        let plan = session.plan_for(&query).unwrap();
        // Any capacity large enough to avoid spilling gives identical
        // counts; a deliberately tiny one still matches via chunking. A
        // chain with `entries == limit` never grows.
        for entries in [256usize, 4096] {
            let (r, settled) = session
                .run_budgeted(&plan, &data, None, None, entries, entries, &GrantAll)
                .unwrap();
            assert_eq!(r.num_matches, baseline.num_matches);
            assert_eq!(r.level_counts, baseline.level_counts);
            assert_eq!(settled, entries);
        }
    }

    #[test]
    fn counters_are_per_run_despite_shared_device() {
        let device = Device::new(DeviceConfig::test_small());
        let session = ExecSession::new(&device, EngineConfig::default());
        let a = session.run(&clique(4), &clique(3)).unwrap();
        let b = session.run(&clique(4), &clique(3)).unwrap();
        // Scoped accounting: each run sees only its own traffic, so two
        // identical runs report identical counters.
        assert_eq!(a.counters, b.counters);
        assert!(a.counters.kernel_launches > 0);
    }

    #[test]
    fn budgeted_run_grows_in_place_without_device_allocs() {
        // A small device keeps the slab size small enough that a chain
        // started at one entry genuinely overflows mid-run.
        let device = Device::new(DeviceConfig::test_small().with_global_mem_words(1 << 12));
        let session = ExecSession::new(&device, EngineConfig::default());
        let data = erdos_renyi(30, 90, 7);
        let query = clique(3);
        let baseline = session.run(&data, &query).unwrap();
        let plan = session.plan_for(&query).unwrap();
        let allocs = device.alloc_calls();
        // Start absurdly small; the chain must grow (never chunk) up to
        // the limit and still produce identical counts.
        let (r, achieved) = session
            .run_budgeted(&plan, &data, None, None, 1, 1 << 20, &GrantAll)
            .unwrap();
        assert_eq!(r.num_matches, baseline.num_matches);
        assert_eq!(r.level_counts, baseline.level_counts);
        assert!(achieved > 1, "an undersized chain must have grown");
        assert!(!r.used_chunking, "growth should pre-empt the hybrid walk");
        assert_eq!(
            device.alloc_calls(),
            allocs,
            "chain growth is allocator-free"
        );
    }

    #[test]
    fn budgeted_run_reports_denied_growth_target() {
        struct DenyAll;
        impl GrowthLedger for DenyAll {
            fn try_grant(&self, _words: usize) -> bool {
                false
            }
            fn refund(&self, _words: usize) {}
        }
        let device = Device::new(DeviceConfig::test_small().with_global_mem_words(1 << 12));
        let session = ExecSession::new(&device, EngineConfig::default());
        let data = erdos_renyi(30, 90, 7);
        let plan = session.plan_for(&clique(3)).unwrap();
        match session.run_budgeted(&plan, &data, None, None, 1, 1 << 20, &DenyAll) {
            Err(BudgetedRunError::GrowthDenied { target_entries }) => {
                assert!(target_entries > 1, "target doubles past the start size");
            }
            other => panic!("expected GrowthDenied, got {other:?}"),
        }
        // The denied run released its chain: a normal run still works.
        assert!(session.run(&data, &clique(3)).is_ok());
    }

    #[test]
    fn sized_run_capacity_is_a_function_of_entries_alone() {
        let device = Device::new(DeviceConfig::test_small());
        let session = ExecSession::new(&device, EngineConfig::default());
        session.prepare_trie_arena().unwrap();
        let w256 = session.chain_words(256);
        // Whole-slab accounting: same slab count → same words; the full
        // arena is the saturation point.
        assert_eq!(w256, session.chain_words(1));
        assert_eq!(session.chain_words(usize::MAX), session.trie_budget_words());
        assert!(session.trie_budget_words() >= w256);
        // A sized run settles on the same capacity and counters whatever
        // ran on the session before it.
        let data = erdos_renyi(30, 90, 7);
        let plan = session.plan_for(&clique(3)).unwrap();
        let sized = || {
            session
                .run_budgeted(&plan, &data, None, None, 256, 256, &GrantAll)
                .unwrap()
        };
        let (cold, cold_entries) = sized();
        session.run(&mesh2d(4, 4), &cycle(4)).unwrap();
        let (warm, warm_entries) = sized();
        assert_eq!(cold_entries, warm_entries);
        assert_eq!(cold.counters, warm.counters);
        assert_eq!(cold.level_counts, warm.level_counts);
    }

    /// The chain-growth case of `tests/counted_level.rs`: a budgeted run
    /// that starts at one entry overflows and grows its chain, counted
    /// level included, exactly as the same run with a sink does.
    #[test]
    fn a_counted_level_grows_its_chain_like_a_stored_one() {
        let device = Device::new(DeviceConfig::test_small());
        let session = ExecSession::new(&device, EngineConfig::default());
        for (data, query) in [
            (erdos_renyi(300, 3000, 5), chain(3)),
            (erdos_renyi(150, 3000, 6), clique(4)),
            (mesh2d(40, 40), cycle(4)),
            (star(200), chain(3)),
        ] {
            let plan = session.plan_over(&data, &query).unwrap();
            let grown = |sink| {
                session
                    .run_budgeted(&plan, &data, sink, None, 1, 1 << 20, &GrantAll)
                    .unwrap()
            };
            let (counted, counted_entries) = grown(None);
            let mut leaves = 0u64;
            let (stored, stored_entries) = grown(Some(&mut |_: &[u32]| leaves += 1));
            assert!(counted_entries > 1, "the chain must grow");
            assert_eq!(counted_entries, stored_entries);
            assert_eq!(leaves, stored.num_matches);
            assert_eq!(counted.num_matches, stored.num_matches);
            assert_eq!(counted.level_counts, stored.level_counts);
            assert_eq!(counted.counters, stored.counters);
            assert_eq!(counted.used_chunking, stored.used_chunking);
            assert_eq!(counted.sim_millis.to_bits(), stored.sim_millis.to_bits());
        }
    }

    #[test]
    fn sessions_on_one_device_do_not_clobber_each_other() {
        let device = Device::new(DeviceConfig::test_small());
        let a = ExecSession::new(&device, EngineConfig::default());
        let b = ExecSession::new(&device, EngineConfig::default());
        let ra = a.run(&mesh2d(3, 3), &clique(3)).unwrap();
        let rb = b.run(&mesh2d(3, 3), &clique(3)).unwrap();
        assert_eq!(ra.num_matches, rb.num_matches);
        assert_eq!(ra.counters, rb.counters, "scoped counters, no resets");
    }
}
