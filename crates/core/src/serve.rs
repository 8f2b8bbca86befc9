//! The multi-tenant distributed serving tier: one entry point that runs
//! a stream of [`Job`]s on N simulated multi-GPU ranks.
//!
//! `cuts-dist` scales one query across ranks with Algorithm-3 chunk
//! donation; [`ServeTier`] multiplexes a stream of many queries over the
//! lanes of one or more ranks (`ranks(1)` is the single-node case). Each
//! rank hosts its own [`ExecSession`]s, trie arena, and lane pool, and
//! every rank pulls from **one queue**: an idle lane of any rank claims
//! the best-scored queued job that fits its device's reservation budget.
//! This is the paper's free-node pull (Algorithm 3) at job granularity,
//! so no router guesses a rank's load at submit time and no queued job
//! has to move between ranks afterwards.
//!
//! Fault tolerance reuses the distributed runtime's machinery, now
//! hosted in this crate: a job is registered in a [`WorkLedger`] at
//! submit under a queued owner that never dies and is transferred to the
//! rank that claims it, commits are idempotent, and a rank crash
//! (scheduled by a [`FaultPlan`], or a real panic caught at the lane
//! boundary) flips the [`AliveBoard`] and puts the dead rank's in-flight
//! jobs back in the queue. Because per-job trie sizing depends only on
//! the job and the device model (see [`crate::job`]), a re-executed
//! job produces a byte-identical [`crate::MatchResult`] — a crash can
//! cost wall-clock time, never results. Priority, deadline, and SLO
//! accounting survive re-admission: the original submission timestamp
//! travels with the job, so a re-queued job keeps its dispatch score and
//! its queue-latency histogram entry measures the caller-visible wait.
//!
//! This module is the **only** job-stream driver:
//! [`ServeConfig::builder`] configures ranks × devices × lanes, the
//! fault plan, and trace/metrics sinks in one place, and
//! `cuts serve --ranks N` drives it from the CLI.

#![deny(missing_docs)]

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use cuts_gpu_sim::{Device, DeviceConfig, Holding};
use cuts_obs::{Arg, Counter, EventKind, Json, Registry, ToJson, Trace};

use crate::config::EngineConfig;
use crate::error::{ConfigError, CutsError, DistError, SchedError};
use crate::fault::{CrashKind, FaultInjector, FaultPlan};
use crate::job::{
    dispatch_score, job_entries_for, Job, JobId, JobOutcome, SloReport, StatsSink, Telemetry,
};
use crate::ledger::{AliveBoard, WorkLedger};
use crate::plan::QueryPlan;
use crate::session::{
    BudgetedRunError, ExecSession, GrantAll, GrowthLedger, DEFAULT_PLAN_CACHE_CAPACITY,
};

/// The [`WorkLedger`] owner of a job waiting in the queue. It names no
/// rank and never dies, so a rank crash re-queues only the jobs that
/// rank had claimed.
const QUEUED: usize = usize::MAX;

// ---------------------------------------------------------------------
// Configuration.

/// Validated configuration of a [`ServeTier`] — the single knob surface
/// for the whole serving stack (devices × lanes × ranks, fault plan,
/// trace/metrics sinks). Built by [`ServeConfig::builder`]. Every session
/// runs [`EngineConfig::default`] with a plan cache of
/// [`DEFAULT_PLAN_CACHE_CAPACITY`] entries, raised to hold every warm plan.
#[derive(Clone)]
pub struct ServeConfig {
    ranks: usize,
    devices_per_rank: usize,
    lanes: usize,
    device: DeviceConfig,
    sigma: f64,
    pacing: f64,
    queue_capacity: usize,
    aging: Duration,
    warm_plans: Vec<Arc<QueryPlan>>,
    fault_plan: FaultPlan,
    trace: Option<Trace>,
    telemetry: bool,
    stats_every: u64,
    stats_sink: Option<StatsSink>,
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("ranks", &self.ranks)
            .field("devices_per_rank", &self.devices_per_rank)
            .field("lanes", &self.lanes)
            .field("queue_capacity", &self.queue_capacity)
            .field("fault_plan", &self.fault_plan)
            .finish()
    }
}

impl ServeConfig {
    /// A builder with serving defaults: one rank, one `v100_like` device,
    /// two lanes, queue capacity 64, 5 ms aging, σ = 0.25, no pacing, no
    /// faults, telemetry on.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            ranks: 1,
            devices_per_rank: 1,
            lanes: 2,
            device: DeviceConfig::v100_like(),
            sigma: 0.25,
            pacing: 0.0,
            queue_capacity: 64,
            aging: Duration::from_millis(5),
            warm_plans: Vec::new(),
            fault_plan: FaultPlan::default(),
            trace: None,
            telemetry: true,
            stats_every: 0,
            stats_sink: None,
        }
    }

    /// Number of simulated ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// A ready session on `device`: the default engine, a plan cache
    /// seeded with every warm plan (its capacity raised to hold them all),
    /// and the trie arena carved.
    fn session<'d>(&self, device: &'d Device) -> Result<ExecSession<'d>, CutsError> {
        let capacity = DEFAULT_PLAN_CACHE_CAPACITY.max(self.warm_plans.len());
        let session = ExecSession::with_cache_capacity(device, EngineConfig::default(), capacity);
        session.seed_plans(&self.warm_plans);
        session.prepare_trie_arena().map_err(CutsError::from)?;
        Ok(session)
    }

    /// The configured fault plan (watch-session plumbing).
    pub(crate) fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Whether telemetry is on (watch-session plumbing).
    pub(crate) fn telemetry_enabled(&self) -> bool {
        self.telemetry
    }

    /// Rolling-stats cadence (watch-session plumbing).
    pub(crate) fn stats_every(&self) -> u64 {
        self.stats_every
    }

    /// A clone of the rolling-stats sink (watch-session plumbing).
    pub(crate) fn stats_sink(&self) -> Option<StatsSink> {
        self.stats_sink.clone()
    }
}

/// Builder for [`ServeConfig`]; validated at [`ServeConfigBuilder::build`].
#[derive(Clone)]
pub struct ServeConfigBuilder {
    ranks: usize,
    devices_per_rank: usize,
    lanes: usize,
    device: DeviceConfig,
    sigma: f64,
    pacing: f64,
    queue_capacity: usize,
    aging: Duration,
    warm_plans: Vec<Arc<QueryPlan>>,
    fault_plan: FaultPlan,
    trace: Option<Trace>,
    telemetry: bool,
    stats_every: u64,
    stats_sink: Option<StatsSink>,
}

impl ServeConfigBuilder {
    /// Number of simulated multi-GPU ranks (≥ 1).
    pub fn ranks(mut self, n: usize) -> Self {
        self.ranks = n;
        self
    }

    /// Simulated devices hosted by each rank (≥ 1).
    pub fn devices_per_rank(mut self, n: usize) -> Self {
        self.devices_per_rank = n;
        self
    }

    /// Worker lanes per device (≥ 1).
    pub fn lanes(mut self, n: usize) -> Self {
        self.lanes = n;
        self
    }

    /// The simulated device model every device instance uses.
    pub fn device_config(mut self, c: DeviceConfig) -> Self {
        self.device = c;
        self
    }

    /// §5 candidate-survival prior σ for space estimates (in `(0, 1]`).
    pub fn sigma(mut self, s: f64) -> Self {
        self.sigma = s;
        self
    }

    /// Host pacing factor: after each job, the executing lane sleeps
    /// `sim_millis × pacing` so the host timeline tracks the simulated
    /// device timeline.
    pub fn pacing(mut self, p: f64) -> Self {
        self.pacing = p;
        self
    }

    /// Bounded capacity (≥ 1) of the tier's one job queue; a full queue
    /// makes [`ServeHandle::submit`] return [`SchedError::Busy`]. Jobs a
    /// dead rank had claimed re-enter the queue even when it is full.
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n;
        self
    }

    /// Aging constant: one unit of dispatch score per `aging` waited.
    pub fn aging(mut self, d: Duration) -> Self {
        self.aging = d;
        self
    }

    /// Pre-built plans (typically from a decoded [`crate::Snapshot`])
    /// seeded into every session's cache before the first job.
    pub fn warm_plans(mut self, plans: Vec<Arc<QueryPlan>>) -> Self {
        self.warm_plans = plans;
        self
    }

    /// Deterministic fault schedule: `crash:R@C` / `panic:R@C` clauses
    /// kill rank R at its first job-claim boundary once the tier has
    /// admitted C jobs (see [`FaultPlan`]). Message drop/delay clauses are accepted but inert
    /// here — the tier's hand-offs are in-process ledger transfers, not
    /// wire messages.
    pub fn fault_plan(mut self, p: FaultPlan) -> Self {
        self.fault_plan = p;
        self
    }

    /// Attaches a trace: devices emit kernel/run spans and the tier
    /// emits job lifecycle and rank-failure events into it.
    pub fn trace(mut self, t: Trace) -> Self {
        self.trace = Some(t);
        self
    }

    /// Always-on serving telemetry switch (default **on**). When off,
    /// every registry handle degenerates to a no-op — the zero-cost
    /// disabled path the `obs` overhead bench pins down — and
    /// [`ServeReport::telemetry`] / [`ServeReport::slo`] come back
    /// empty. The flight recorder is independent of this switch.
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Emits a rolling stats-snapshot JSON line to the stats sink every
    /// `n` finished jobs (0, the default, disables emission).
    pub fn stats_every(mut self, n: u64) -> Self {
        self.stats_every = n;
        self
    }

    /// The callback receiving rolling-snapshot lines (one JSON object
    /// per call, no trailing newline).
    pub fn stats_sink(mut self, sink: impl Fn(&str) + Send + Sync + 'static) -> Self {
        self.stats_sink = Some(StatsSink(Arc::new(sink)));
        self
    }

    /// Validates and builds the configuration.
    pub fn build(self) -> Result<ServeConfig, CutsError> {
        let invalid = |field: &'static str, reason: &'static str| {
            CutsError::from(ConfigError::Invalid { field, reason })
        };
        if self.ranks == 0 {
            return Err(invalid("ranks", "must be at least 1"));
        }
        if self.devices_per_rank == 0 {
            return Err(invalid("devices_per_rank", "must be at least 1"));
        }
        if self.lanes == 0 {
            return Err(invalid("lanes", "must be at least 1"));
        }
        if self.queue_capacity == 0 {
            return Err(invalid("queue_capacity", "must be at least 1"));
        }
        if !(self.sigma > 0.0 && self.sigma <= 1.0) {
            return Err(invalid("sigma", "must be in (0, 1]"));
        }
        if self.aging.is_zero() {
            return Err(invalid("aging", "must be positive"));
        }
        if self.pacing.is_nan() || self.pacing < 0.0 {
            return Err(invalid("pacing", "must be non-negative"));
        }
        self.fault_plan.check_ranks(self.ranks)?;
        if self.fault_plan.resolve(self.ranks).distinct_victims() >= self.ranks {
            return Err(invalid(
                "fault_plan",
                "crashes every rank; no survivor could finish the stream",
            ));
        }
        // Every session runs the default engine; its trie budget must
        // fit this device model.
        EngineConfig::default().validate(self.device.global_mem_words)?;
        Ok(ServeConfig {
            ranks: self.ranks,
            devices_per_rank: self.devices_per_rank,
            lanes: self.lanes,
            device: self.device,
            sigma: self.sigma,
            pacing: self.pacing,
            queue_capacity: self.queue_capacity,
            aging: self.aging,
            warm_plans: self.warm_plans,
            fault_plan: self.fault_plan,
            trace: self.trace,
            telemetry: self.telemetry,
            stats_every: self.stats_every,
            stats_sink: self.stats_sink,
        })
    }
}

// ---------------------------------------------------------------------
// Reports.

/// Aggregate counters for one [`ServeTier::run`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs accepted into the tier.
    pub submitted: u64,
    /// Jobs that finished with `Ok`.
    pub completed: u64,
    /// Jobs that finished with `Err`.
    pub failed: u64,
    /// Always 0: queued jobs are claimed by whichever rank is idle, so
    /// none moves between ranks. Kept for readers of the stats schema.
    pub migrated: u64,
    /// Jobs re-admitted from a dead rank's ledger entries.
    pub readmitted: u64,
    /// Ranks that died mid-stream.
    pub lost_ranks: Vec<usize>,
    /// Jobs committed by each rank.
    pub per_rank_jobs: Vec<u64>,
    /// Sum of committed match counts across the stream.
    pub total_matches: u64,
    /// Peak reserved trie words per device (global device index:
    /// `rank * devices_per_rank + device`).
    pub peak_reserved_words: Vec<usize>,
    /// Per-device trie-memory budget the admission check enforced.
    pub budget_words: Vec<usize>,
}

impl ToJson for ServeStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("submitted", Json::U64(self.submitted)),
            ("completed", Json::U64(self.completed)),
            ("failed", Json::U64(self.failed)),
            ("migrated", Json::U64(self.migrated)),
            ("readmitted", Json::U64(self.readmitted)),
            (
                "lost_ranks",
                Json::arr(self.lost_ranks.iter().map(|&r| r as u64)),
            ),
            (
                "per_rank_jobs",
                Json::arr(self.per_rank_jobs.iter().copied()),
            ),
            ("total_matches", Json::U64(self.total_matches)),
            (
                "peak_reserved_words",
                Json::arr(self.peak_reserved_words.iter().map(|&w| w as u64)),
            ),
            (
                "budget_words",
                Json::arr(self.budget_words.iter().map(|&w| w as u64)),
            ),
        ])
    }
}

/// The result of draining one job stream through the tier.
#[derive(Debug)]
pub struct ServeReport {
    /// One outcome per submitted job, in submission order. The outcome's
    /// `device` is the global device index
    /// (`rank * devices_per_rank + device`), so the executing rank is
    /// `device / devices_per_rank`.
    pub outcomes: Vec<JobOutcome>,
    /// Wall-clock duration of the whole run, milliseconds.
    pub wall_millis: f64,
    /// Aggregate counters.
    pub stats: ServeStats,
    /// Per-class SLO accounting (queue/exec quantiles, deadline rates);
    /// queue waits are measured from the *original* submission, so they
    /// survive re-admission.
    pub slo: SloReport,
    /// The run's always-on metrics registry; feed its snapshot to the
    /// Prometheus exporter. Disabled (empty) with `.telemetry(false)`.
    pub telemetry: Registry,
    /// Path of the flight-recorder post-mortem written when the first
    /// job failed or rank died, if any did.
    pub postmortem: Option<String>,
}

impl ServeReport {
    /// Completed jobs per wall-clock second.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.wall_millis <= 0.0 {
            return 0.0;
        }
        self.stats.completed as f64 / (self.wall_millis / 1e3)
    }
}

impl ToJson for ServeReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("wall_millis", Json::F64(self.wall_millis)),
            ("jobs_per_sec", Json::F64(self.jobs_per_sec())),
            ("stats", self.stats.to_json()),
            ("slo", self.slo.to_json()),
            (
                "postmortem",
                self.postmortem.clone().map_or(Json::Null, Json::Str),
            ),
        ])
    }
}

// ---------------------------------------------------------------------
// Internal run-time state.

/// One queued job, which is also the recoverable copy the ledger holds:
/// the job, its original submission instant (so priority/deadline scores
/// and SLO queue-wait accounting survive re-admission), and the slab
/// words a lane reserves to run it.
#[derive(Clone)]
struct Queued {
    id: u64,
    job: Job,
    submitted_at: Instant,
    /// Slab-word reservation estimate (0 when unplannable).
    words: usize,
}

/// The tier's one job queue: the admission bound, the priority order,
/// and the work every idle lane of every rank pulls from.
struct JobQueue {
    jobs: Vec<Queued>,
    closed: bool,
}

struct ServeDev<'e> {
    session: &'e ExecSession<'e>,
    budget_words: usize,
    reserved: AtomicUsize,
    peak_reserved: AtomicUsize,
}

impl ServeDev<'_> {
    /// Atomically reserves `words` iff the budget still has room; the
    /// peak watermark moves with every success. This is the only way
    /// reservations grow, so `peak_reserved <= budget_words` holds for
    /// the whole run.
    fn try_reserve(&self, words: usize) -> bool {
        let mut cur = self.reserved.load(Ordering::Relaxed);
        loop {
            if cur + words > self.budget_words {
                return false;
            }
            match self.reserved.compare_exchange_weak(
                cur,
                cur + words,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.peak_reserved.fetch_max(cur + words, Ordering::Relaxed);
                    return true;
                }
                Err(seen) => cur = seen,
            }
        }
    }
}

/// Charges in-place trie growth to the owning device's ledger.
struct LaneLedger<'a, 'e> {
    dev: &'a ServeDev<'e>,
    granted: AtomicUsize,
}

impl GrowthLedger for LaneLedger<'_, '_> {
    fn try_grant(&self, words: usize) -> bool {
        if self.dev.try_reserve(words) {
            self.granted.fetch_add(words, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    fn refund(&self, words: usize) {
        self.dev.reserved.fetch_sub(words, Ordering::AcqRel);
        self.granted.fetch_sub(words, Ordering::Relaxed);
    }
}

struct RankState<'e> {
    /// The tier's trace, tagged with this rank.
    trace: Trace,
    devs: Vec<ServeDev<'e>>,
    jobs_done: AtomicUsize,
}

struct ServeShared<'e, 't> {
    cfg: &'t ServeConfig,
    trace: &'t Trace,
    ranks: Vec<RankState<'e>>,
    ledger: WorkLedger<Queued>,
    alive: AliveBoard,
    injector: Option<FaultInjector>,
    queue: Mutex<JobQueue>,
    /// Signalled whenever a lane removes an entry from the queue.
    space: Condvar,
    /// Signalled on a push, a close, a rank death, and a finished job
    /// while jobs wait or the stream is closed.
    work: Condvar,
    outcomes: Mutex<Vec<JobOutcome>>,
    submitted: AtomicU64,
    first_failure: Mutex<Option<DistError>>,
    /// Reservation estimates keyed by (data graph identity, query key):
    /// the graph walk behind the estimate runs once per distinct pair,
    /// not once per job.
    sizing_memo: Mutex<HashMap<(usize, u64), usize>>,
    telem: Telemetry,
    readmissions: Counter,
    ranks_lost: Counter,
}

impl<'e> ServeShared<'e, '_> {
    /// A live session usable for sizing (identical engine and device
    /// model on every rank, so any one gives the same answer).
    fn sizing_session(&self) -> Option<&'e ExecSession<'e>> {
        self.ranks
            .iter()
            .enumerate()
            .find(|(r, _)| self.alive.is_alive(*r))
            .map(|(_, rank)| rank.devs[0].session)
    }

    /// Slab-word reservation estimate for `job` (0 when unplannable —
    /// the failure surfaces as a per-job outcome at execution). The §5
    /// estimate walks the data graph, so repeated (data, query) pairs —
    /// the common case in a job stream — are memoised to keep the submit
    /// path cheap.
    fn sizing_words(&self, job: &Job) -> usize {
        let Some(session) = self.sizing_session() else {
            return 0;
        };
        match session.plan_over(&job.data, &job.query) {
            Ok(plan) => {
                let key = (Arc::as_ptr(&job.data) as usize, plan.key.query);
                if let Some(&words) = self.sizing_memo.lock().unwrap().get(&key) {
                    return words;
                }
                let entries = job_entries_for(&plan, &job.data, self.cfg.sigma);
                let words = session.chain_words(entries);
                self.sizing_memo.lock().unwrap().insert(key, words);
                words
            }
            Err(_) => 0,
        }
    }

    /// Admits `job` once the queue has room: registers it in the ledger
    /// under [`QUEUED`], pushes it, and wakes the lanes. While the queue
    /// is full, `wait` either blocks on `space` or gives up with an error.
    fn admit<'s>(
        &'s self,
        job: Job,
        mut wait: impl FnMut(MutexGuard<'s, JobQueue>) -> Result<MutexGuard<'s, JobQueue>, SchedError>,
    ) -> Result<JobId, SchedError> {
        let words = self.sizing_words(&job);
        let mut queue = self.queue.lock().unwrap();
        while queue.jobs.len() >= self.cfg.queue_capacity && !queue.closed {
            queue = wait(queue)?;
        }
        if queue.closed {
            return Err(SchedError::Closed);
        }
        let id = self.ledger.new_id();
        // The `submit` event precedes the queue clock's start, so a job's
        // queue + exec time never exceeds its journal span.
        self.trace
            .instant_with(EventKind::Job, "submit", &[("job", Arg::U64(id))]);
        let q = Queued {
            id,
            job,
            submitted_at: Instant::now(),
            words,
        };
        self.ledger.register(id, QUEUED, &q);
        self.submitted.fetch_add(1, Ordering::AcqRel);
        queue.jobs.push(q);
        drop(queue);
        self.work.notify_all();
        Ok(JobId(id))
    }

    /// Blocks until a lane of rank `r` on `dev` has a job to run and
    /// returns it claimed: the best-scored queued job whose words fit
    /// `dev`'s budget, reserved on `dev` and transferred to `r` in the
    /// ledger. `None` once `r` is dead, or once the stream is closed and
    /// every job has committed. The lane's host `core` is given back
    /// while it waits, for other lanes' launches to borrow.
    fn next_job<'d>(
        &self,
        r: usize,
        dev: &ServeDev<'d>,
        core: &mut Option<Holding<'d>>,
    ) -> Option<Queued> {
        loop {
            if crash_due(self, r) {
                return None;
            }
            let mut queue = self.queue.lock().unwrap();
            // `mark_rank_dead` re-queues a dead rank's jobs under this
            // lock, so a dead rank claims nothing after that sweep.
            if !self.alive.is_alive(r) {
                return None;
            }
            if let Some(q) = self.claim(&mut queue, r, dev) {
                return Some(q);
            }
            if queue.closed && self.ledger.all_completed() {
                drop(queue);
                // A crash due by now fires even though the stream is
                // done: peers draining it first cannot outrun the plan.
                crash_due(self, r);
                return None;
            }
            drop(core.take());
            drop(self.work.wait(queue).unwrap());
            *core = Some(dev.session.device().cores().hold());
        }
    }

    /// Takes the best-scored job in `queue` whose words fit `dev`'s
    /// remaining budget, reserving its words on `dev` and re-homing it
    /// to rank `r` in the ledger. Every entry it removes, taken or
    /// discarded, frees a slot for a waiting submitter.
    fn claim(&self, queue: &mut JobQueue, r: usize, dev: &ServeDev<'_>) -> Option<Queued> {
        let now = Instant::now();
        loop {
            let reserved = dev.reserved.load(Ordering::Relaxed);
            let mut best: Option<(usize, f64)> = None;
            for (i, q) in queue.jobs.iter().enumerate() {
                if reserved + q.words > dev.budget_words {
                    continue;
                }
                let s = dispatch_score(
                    q.job.priority,
                    q.job.deadline,
                    q.submitted_at,
                    now,
                    self.cfg.aging,
                );
                if best.is_none_or(|(_, bs)| s > bs) {
                    best = Some((i, s));
                }
            }
            let (i, _) = best?;
            // In-place growth on a sibling lane can beat the snapshot;
            // the job then waits for that lane's job to finish.
            if !dev.try_reserve(queue.jobs[i].words) {
                return None;
            }
            let q = queue.jobs.swap_remove(i);
            self.space.notify_all();
            if self.ledger.transfer(q.id, r) {
                return Some(q);
            }
            // Already committed: a dead rank's lane finished the job
            // after it was re-queued.
            dev.reserved.fetch_sub(q.words, Ordering::AcqRel);
        }
    }

    /// Wakes idle lanes after a lane freed its reservation and committed:
    /// a waiting job may fit now, or the stream may be complete. Taking
    /// the lock orders both changes before any lane's next check.
    fn job_done(&self) {
        let queue = self.queue.lock().unwrap();
        if queue.closed || !queue.jobs.is_empty() {
            self.work.notify_all();
        }
    }

    /// Marks `r` dead exactly once: flips the board, puts the jobs `r`
    /// had claimed back in the queue (in one sweep under the queue lock,
    /// so no lane of `r` claims after it), records telemetry, and wakes
    /// every lane so survivors pick the jobs up and `r`'s lanes exit.
    /// Only the winning call records the `injected` fault, so a crash
    /// that several of `r`'s lanes find due is recorded once.
    fn mark_rank_dead(&self, r: usize, cause: DistError, injected: Option<CrashKind>) {
        let requeued: Vec<u64> = {
            let mut queue = self.queue.lock().unwrap();
            if !self.alive.is_alive(r) {
                return;
            }
            self.alive.set_dead(r);
            self.ledger.note_loss();
            let claimed = self.ledger.reclaim_foreign(QUEUED, |owner| owner == r);
            let ids = claimed.iter().map(|(id, _)| *id).collect();
            queue.jobs.extend(claimed.into_iter().map(|(_, q)| q));
            ids
        };
        self.work.notify_all();
        {
            let mut f = self.first_failure.lock().unwrap();
            if f.is_none() {
                *f = Some(cause);
            }
        }
        self.ranks_lost.inc();
        let jobs_done = self.ranks[r].jobs_done.load(Ordering::Relaxed) as u64;
        let trace = &self.ranks[r].trace;
        let args = [
            ("rank", Arg::U64(r as u64)),
            ("jobs_done", Arg::U64(jobs_done)),
        ];
        match injected {
            Some(CrashKind::Error) => trace.instant_with(EventKind::Fault, "crash", &args),
            Some(CrashKind::Panic) => trace.instant_with(EventKind::Fault, "panic", &args),
            None => {}
        }
        trace.instant_with(EventKind::Fault, "rank_dead", &args);
        for id in requeued {
            self.readmissions.inc();
            self.trace.instant_with(
                EventKind::Job,
                "readmit",
                &[("job", Arg::U64(id)), ("rank", Arg::U64(r as u64))],
            );
        }
        self.telem.dump_once("rank_death");
    }

    /// Records one finished job if its commit was the first (duplicate
    /// executions after a crash are dropped here, exactly like duplicate
    /// chunk commits).
    fn finish(&self, r: usize, q: &Queued, outcome: JobOutcome) {
        let matches = outcome.result.as_ref().map(|m| m.num_matches).unwrap_or(0);
        if !self.ledger.commit(q.id, matches) {
            return;
        }
        self.ranks[r].jobs_done.fetch_add(1, Ordering::AcqRel);
        self.telem.on_finish(
            &self.ranks[r].trace,
            Telemetry::class_of(&q.job),
            q.job.deadline,
            &outcome,
        );
        let finished = {
            let mut o = self.outcomes.lock().unwrap();
            o.push(outcome);
            o.len() as u64
        };
        self.telem.maybe_emit(finished);
    }
}

// ---------------------------------------------------------------------
// Submission handle.

/// Submission side of a running tier, passed to the closure given to
/// [`ServeTier::run`].
pub struct ServeHandle<'s, 'e, 't> {
    shared: &'s ServeShared<'e, 't>,
}

impl ServeHandle<'_, '_, '_> {
    /// Submits a job. Returns [`SchedError::Busy`] when the tier-wide
    /// bounded queue is full — the caller decides whether to retry,
    /// drop, or shed load.
    pub fn submit(&self, job: Job) -> Result<JobId, SchedError> {
        let capacity = self.shared.cfg.queue_capacity;
        self.shared
            .admit(job, |_| Err(SchedError::Busy { capacity }))
    }

    /// Submits a job, blocking while the queue is full.
    pub fn submit_wait(&self, job: Job) -> JobId {
        self.shared
            .admit(job, |queue| Ok(self.shared.space.wait(queue).unwrap()))
            .expect("the queue closes only after the submit closure returns")
    }

    /// Submits a job, blocking at most `timeout` for queue space; the
    /// deadline-aware variant of [`ServeHandle::submit_wait`]. Returns
    /// [`SchedError::Timeout`] when the queue never drained.
    pub fn submit_wait_timeout(&self, job: Job, timeout: Duration) -> Result<JobId, SchedError> {
        let deadline = Instant::now() + timeout;
        self.shared.admit(job, |queue| {
            let now = Instant::now();
            if now >= deadline {
                return Err(SchedError::Timeout {
                    waited_millis: timeout.as_millis() as u64,
                });
            }
            Ok(self
                .shared
                .space
                .wait_timeout(queue, deadline - now)
                .unwrap()
                .0)
        })
    }

    /// Jobs currently queued and not yet claimed by a lane.
    pub fn pending(&self) -> usize {
        self.shared.queue.lock().unwrap().jobs.len()
    }

    /// Ranks still alive.
    pub fn live_ranks(&self) -> usize {
        self.shared.alive.live_count()
    }
}

// ---------------------------------------------------------------------
// The tier.

/// The multi-tenant serving tier (see module docs).
///
/// ```
/// use std::sync::Arc;
/// use cuts_core::serve::{ServeConfig, ServeTier};
/// use cuts_core::job::Job;
/// use cuts_graph::generators::{clique, mesh2d};
///
/// let tier = ServeTier::new(
///     ServeConfig::builder().ranks(2).lanes(1).build().unwrap(),
/// );
/// let data = Arc::new(mesh2d(4, 4));
/// let query = Arc::new(clique(2));
/// let report = tier
///     .run(|h| {
///         for _ in 0..4 {
///             h.submit_wait(Job::new(data.clone(), query.clone()));
///         }
///         Ok(())
///     })
///     .unwrap();
/// assert_eq!(report.stats.completed, 4);
/// ```
pub struct ServeTier {
    config: ServeConfig,
    /// `rank_devices[r][d]` is rank `r`'s `d`-th simulated device.
    rank_devices: Vec<Vec<Device>>,
    trace: Trace,
    kernel_reg: Registry,
}

impl std::fmt::Debug for ServeTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeTier")
            .field("ranks", &self.config.ranks)
            .field("devices_per_rank", &self.config.devices_per_rank)
            .field("lanes", &self.config.lanes)
            .finish()
    }
}

impl ServeTier {
    /// Builds the tier: `ranks × devices_per_rank` simulated devices,
    /// each wired to the config's trace and a tier-lifetime kernel
    /// telemetry registry. Their launches share the process's host
    /// cores: a lane holds one while it has a job, and a lane waiting
    /// for work lends its core to the launches still running.
    pub fn new(config: ServeConfig) -> ServeTier {
        let trace = config.trace.clone().unwrap_or_else(Trace::disabled);
        let kernel_reg = Registry::with_enabled(config.telemetry);
        let rank_devices = (0..config.ranks)
            .map(|r| {
                (0..config.devices_per_rank)
                    .map(|_| {
                        let mut d = Device::new(config.device.clone());
                        d.set_trace(trace.with_rank(r));
                        d.set_registry(kernel_reg.clone());
                        d
                    })
                    .collect()
            })
            .collect();
        ServeTier {
            config,
            rank_devices,
            trace,
            kernel_reg,
        }
    }

    /// Number of simulated ranks.
    pub fn ranks(&self) -> usize {
        self.config.ranks
    }

    /// Every simulated device, in global device order
    /// (`rank * devices_per_rank + device`).
    pub fn devices(&self) -> impl Iterator<Item = &Device> {
        self.rank_devices.iter().flatten()
    }

    /// The tier's configuration (watch-session plumbing).
    pub(crate) fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The per-rank device matrix (watch-session plumbing).
    pub(crate) fn rank_devices(&self) -> &[Vec<Device>] {
        &self.rank_devices
    }

    /// The tier's resolved trace (watch-session plumbing).
    pub(crate) fn serve_trace(&self) -> &Trace {
        &self.trace
    }

    /// The tier-lifetime registry devices record per-kernel wall
    /// histograms into; merge its snapshot with the per-run
    /// [`ServeReport::telemetry`] for one Prometheus exposition.
    pub fn kernel_telemetry(&self) -> &Registry {
        &self.kernel_reg
    }

    /// Runs one stream: `submit` receives a handle, submits jobs (and
    /// may interleave its own logic); when it returns, the stream is
    /// closed and `run` blocks until every registered job has committed
    /// — including jobs re-admitted from ranks that died mid-stream.
    ///
    /// Errors only when the submit closure errors or the stream is
    /// genuinely unfinishable (every rank died); per-job failures are
    /// outcomes, not run errors.
    pub fn run<F>(&self, submit: F) -> Result<ServeReport, CutsError>
    where
        F: FnOnce(&ServeHandle<'_, '_, '_>) -> Result<(), CutsError>,
    {
        let cfg = &self.config;
        let mut sessions: Vec<Vec<ExecSession<'_>>> = Vec::with_capacity(cfg.ranks);
        for rank_devs in &self.rank_devices {
            let mut per_rank = Vec::with_capacity(cfg.devices_per_rank);
            for d in rank_devs {
                per_rank.push(cfg.session(d)?);
            }
            sessions.push(per_rank);
        }
        let ranks: Vec<RankState<'_>> = sessions
            .iter()
            .enumerate()
            .map(|(r, per_rank)| RankState {
                trace: self.trace.with_rank(r),
                devs: per_rank
                    .iter()
                    .map(|session| ServeDev {
                        session,
                        budget_words: session.trie_budget_words(),
                        reserved: AtomicUsize::new(0),
                        peak_reserved: AtomicUsize::new(0),
                    })
                    .collect(),
                jobs_done: AtomicUsize::new(0),
            })
            .collect();
        let resolved = cfg.fault_plan.resolve(cfg.ranks);
        let telem = Telemetry::with(cfg.telemetry, cfg.stats_every, cfg.stats_sink.clone());
        let readmissions = telem.reg.counter(
            "cuts_serve_readmissions_total",
            &[],
            "Jobs re-admitted from dead ranks",
        );
        let ranks_lost = telem.reg.counter(
            "cuts_serve_ranks_lost_total",
            &[],
            "Ranks that died mid-stream",
        );
        let shared = ServeShared {
            cfg,
            trace: &self.trace,
            ranks,
            ledger: WorkLedger::new(),
            alive: AliveBoard::new(cfg.ranks),
            injector: if resolved.is_empty() {
                None
            } else {
                Some(FaultInjector::new(resolved, cfg.ranks))
            },
            queue: Mutex::new(JobQueue {
                jobs: Vec::new(),
                closed: false,
            }),
            space: Condvar::new(),
            work: Condvar::new(),
            outcomes: Mutex::new(Vec::new()),
            submitted: AtomicU64::new(0),
            first_failure: Mutex::new(None),
            sizing_memo: Mutex::new(HashMap::new()),
            telem,
            readmissions,
            ranks_lost,
        };
        stream_start(&self.trace, cfg.ranks, cfg.lanes);
        let start = Instant::now();
        let submit_result = std::thread::scope(|scope| {
            for r in 0..cfg.ranks {
                for d in 0..cfg.devices_per_rank {
                    for lane in 0..cfg.lanes {
                        let shared = &shared;
                        scope.spawn(move || {
                            // A panicking lane — injected `panic:R@C`
                            // or a genuine bug — kills its whole rank,
                            // never the tier: the unwind is caught here
                            // and survivors re-admit the rank's jobs.
                            let out = catch_unwind(AssertUnwindSafe(|| {
                                lane_loop(shared, r, d, lane);
                            }));
                            if out.is_err() {
                                shared.mark_rank_dead(r, DistError::Panicked { rank: r }, None);
                            }
                        });
                    }
                }
            }
            let handle = ServeHandle { shared: &shared };
            // Close the queue even when `submit` panics: the lanes then
            // drain and exit, and the scope re-raises the panic instead
            // of waiting on them forever.
            let r = catch_unwind(AssertUnwindSafe(|| submit(&handle)));
            shared.queue.lock().unwrap().closed = true;
            shared.work.notify_all();
            r.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            // Scope exit joins every lane of every rank.
        });
        submit_result?;
        let wall_millis = stream_end(&self.trace, start);

        if !shared.ledger.all_completed() {
            // Only possible when every rank died (a survivable plan is
            // enforced at build time, but real panics are not a plan).
            let cause = shared
                .first_failure
                .lock()
                .unwrap()
                .take()
                .unwrap_or(DistError::Panicked { rank: 0 });
            return Err(cause.into());
        }

        for (r, rank) in shared.ranks.iter().enumerate() {
            let rs = r.to_string();
            for (d, dev) in rank.devs.iter().enumerate() {
                let ds = (r * cfg.devices_per_rank + d).to_string();
                let l = [("rank", rs.as_str()), ("device", ds.as_str())];
                shared
                    .telem
                    .reg
                    .gauge(
                        "cuts_serve_peak_reserved_words",
                        &l,
                        "Peak reserved trie words per device (admission watermark)",
                    )
                    .set(dev.peak_reserved.load(Ordering::Relaxed) as f64);
            }
            shared
                .telem
                .reg
                .gauge(
                    "cuts_serve_rank_jobs",
                    &[("rank", rs.as_str())],
                    "Jobs committed by each rank",
                )
                .set(rank.jobs_done.load(Ordering::Relaxed) as f64);
        }

        let mut outcomes = shared.outcomes.into_inner().unwrap();
        outcomes.sort_by_key(|o: &JobOutcome| o.id);
        let completed = outcomes.iter().filter(|o| o.result.is_ok()).count() as u64;
        let failed = outcomes.len() as u64 - completed;
        let stats = ServeStats {
            submitted: shared.submitted.load(Ordering::Relaxed),
            completed,
            failed,
            migrated: 0,
            readmitted: shared.ledger.reassigned() as u64,
            lost_ranks: (0..cfg.ranks)
                .filter(|&r| !shared.alive.is_alive(r))
                .collect(),
            per_rank_jobs: shared
                .ranks
                .iter()
                .map(|r| r.jobs_done.load(Ordering::Relaxed) as u64)
                .collect(),
            total_matches: shared.ledger.total_matches(),
            peak_reserved_words: shared
                .ranks
                .iter()
                .flat_map(|r| r.devs.iter())
                .map(|d| d.peak_reserved.load(Ordering::Relaxed))
                .collect(),
            budget_words: shared
                .ranks
                .iter()
                .flat_map(|r| r.devs.iter())
                .map(|d| d.budget_words)
                .collect(),
        };
        let slo = shared.telem.slo();
        let postmortem = shared.telem.postmortem.lock().unwrap().take();
        Ok(ServeReport {
            outcomes,
            wall_millis,
            stats,
            slo,
            telemetry: shared.telem.reg.clone(),
            postmortem,
        })
    }

    /// Convenience wrapper: submits `jobs` in order (blocking on
    /// backpressure) and drains the stream.
    pub fn run_stream(&self, jobs: &[Job]) -> Result<ServeReport, CutsError> {
        self.run(|h| {
            for job in jobs {
                h.submit_wait(job.clone());
            }
            Ok(())
        })
    }

    /// The tier's semantic baseline: the same jobs, one at a time, in
    /// submission order, on rank 0's first device, with identical
    /// per-job trie sizing and pacing. [`ServeTier::run`] must produce
    /// byte-identical [`crate::MatchResult::canonical_bytes`] per job at
    /// any ranks × lanes.
    pub fn run_serial(&self, jobs: &[Job]) -> Result<ServeReport, CutsError> {
        let cfg = &self.config;
        let session = cfg.session(&self.rank_devices[0][0])?;
        let telem = Telemetry::with(cfg.telemetry, cfg.stats_every, cfg.stats_sink.clone());
        // Not the tier's trace: its journal would count these jobs twice
        // beside a `run` of the same stream. The flight ring still sees
        // them, on rank 0 like the device's kernel launches.
        let trace = Trace::disabled().with_rank(0);
        stream_start(&trace, 1, 1);
        let start = Instant::now();
        let mut outcomes = Vec::with_capacity(jobs.len());
        let (mut completed, mut failed) = (0u64, 0u64);
        let mut total_matches = 0u64;
        for (i, job) in jobs.iter().enumerate() {
            let queued = start.elapsed().as_secs_f64() * 1e3;
            let exec_start = Instant::now();
            let result = session
                .plan_over(&job.data, &job.query)
                .map_err(CutsError::from)
                .and_then(|plan| {
                    let entries = job_entries_for(&plan, &job.data, cfg.sigma);
                    let budget = plan.trie_entries_budget.max(1);
                    match session
                        .run_budgeted(&plan, &job.data, None, None, entries, budget, &GrantAll)
                    {
                        Ok(ok) => Ok(ok),
                        Err(BudgetedRunError::Engine(e)) => Err(CutsError::from(e)),
                        Err(BudgetedRunError::GrowthDenied { .. }) => {
                            unreachable!("GrantAll never denies growth")
                        }
                    }
                });
            let (result, entries) = match result {
                Ok((r, e)) => {
                    if cfg.pacing > 0.0 {
                        std::thread::sleep(Duration::from_secs_f64(
                            r.sim_millis * cfg.pacing / 1e3,
                        ));
                    }
                    completed += 1;
                    total_matches += r.num_matches;
                    (Ok(r), e)
                }
                Err(e) => {
                    failed += 1;
                    (Err(e), 0)
                }
            };
            let outcome = JobOutcome {
                id: JobId(i as u64),
                name: job.name.clone(),
                device: 0,
                lane: 0,
                queue_millis: queued,
                exec_millis: exec_start.elapsed().as_secs_f64() * 1e3,
                trie_entries: entries,
                result,
            };
            telem.on_finish(&trace, Telemetry::class_of(job), job.deadline, &outcome);
            telem.maybe_emit(i as u64 + 1);
            outcomes.push(outcome);
        }
        let wall_millis = stream_end(&trace, start);
        let slo = telem.slo();
        let postmortem = telem.postmortem.lock().unwrap().take();
        Ok(ServeReport {
            outcomes,
            wall_millis,
            stats: ServeStats {
                submitted: jobs.len() as u64,
                completed,
                failed,
                per_rank_jobs: vec![completed + failed],
                total_matches,
                peak_reserved_words: vec![0],
                budget_words: vec![session.trie_budget_words()],
                ..Default::default()
            },
            slo,
            telemetry: telem.reg,
            postmortem,
        })
    }
}

// ---------------------------------------------------------------------
// Lane execution.

/// Fires rank `r`'s scheduled crash if it is due, returning whether the
/// rank is now dead. Crashes fire at job-claim boundaries, and the crash
/// clock is the number of jobs the tier has admitted — a stream position,
/// as the watch path's clock is the batch count — so `crash:R@C` fires
/// once C jobs are in, whichever ranks run them and however fast. The
/// `at least` form matters: several admissions can land between two
/// boundary checks.
fn crash_due(shared: &ServeShared<'_, '_>, r: usize) -> bool {
    let Some(inj) = &shared.injector else {
        return false;
    };
    let admitted = shared.submitted.load(Ordering::Acquire) as usize;
    let Some(kind) = inj.should_crash_by(r, admitted) else {
        return false;
    };
    // The error reports the jobs the victim completed, not the clock.
    let jobs_done = shared.ranks[r].jobs_done.load(Ordering::Relaxed);
    shared.mark_rank_dead(
        r,
        DistError::InjectedCrash {
            rank: r,
            after_chunks: jobs_done,
        },
        Some(kind),
    );
    if kind == CrashKind::Panic {
        panic!("injected fault: rank {r} panics mid-stream");
    }
    true
}

/// Records a stream's start, with its shape, on `trace`.
fn stream_start(trace: &Trace, ranks: usize, lanes: usize) {
    trace.instant_with(
        EventKind::Job,
        "stream_start",
        &[
            ("ranks", Arg::U64(ranks as u64)),
            ("lanes", Arg::U64(lanes as u64)),
        ],
    );
}

/// Records a stream's end on `trace`; returns its wall milliseconds.
fn stream_end(trace: &Trace, start: Instant) -> f64 {
    let wall = start.elapsed();
    trace.instant_with(
        EventKind::Job,
        "stream_end",
        &[("wall_us", Arg::U64(wall.as_micros() as u64))],
    );
    wall.as_secs_f64() * 1e3
}

fn lane_loop(shared: &ServeShared<'_, '_>, r: usize, d: usize, lane: usize) {
    let cfg = shared.cfg;
    let dev = &shared.ranks[r].devs[d];
    let global_device = r * cfg.devices_per_rank + d;
    let trace = &shared.ranks[r].trace;
    let mut core = Some(dev.session.device().cores().hold());
    while let Some(q) = shared.next_job(r, dev, &mut core) {
        trace.instant_with(
            EventKind::Job,
            "claim",
            &[
                ("job", Arg::U64(q.id)),
                ("rank", Arg::U64(r as u64)),
                ("device", Arg::U64(global_device as u64)),
            ],
        );
        let queue_millis = q.submitted_at.elapsed().as_secs_f64() * 1e3;
        let exec_start = Instant::now();
        let job = &q.job;
        // The claim reserved the job's estimate on `dev`.
        let mut reserve_words = q.words;
        let mut trie_entries = 0usize;
        let outcome_result = match dev.session.plan_over(&job.data, &job.query) {
            Err(e) => Err(CutsError::from(e)),
            Ok(plan) => {
                let mut entries = job_entries_for(&plan, &job.data, cfg.sigma);
                let budget_entries = plan.trie_entries_budget.max(1);
                debug_assert_eq!(reserve_words, dev.session.chain_words(entries));
                // The §5 estimate can undershoot: the chain then grows in
                // place, each appended segment charged to this device's
                // ledger. Only when the ledger has no room does the job
                // release everything and rerun at the denied target —
                // the same doubling sequence `run_serial` takes with
                // `GrantAll`, so per-job results stay byte-identical at
                // any ranks × lanes.
                let result = loop {
                    let ledger = LaneLedger {
                        dev,
                        granted: AtomicUsize::new(0),
                    };
                    let run = dev.session.run_budgeted(
                        &plan,
                        &job.data,
                        None,
                        None,
                        entries,
                        budget_entries,
                        &ledger,
                    );
                    let granted = ledger.granted.load(Ordering::Relaxed);
                    match run {
                        Ok((result, achieved)) => {
                            entries = achieved;
                            reserve_words += granted;
                            break Ok(result);
                        }
                        Err(BudgetedRunError::GrowthDenied { target_entries }) => {
                            entries = target_entries;
                            shared.telem.growth_denials.inc();
                            trace.instant_with(
                                EventKind::Job,
                                "growth_denied",
                                &[
                                    ("job", Arg::U64(q.id)),
                                    ("target_entries", Arg::U64(target_entries as u64)),
                                ],
                            );
                            dev.reserved
                                .fetch_sub(reserve_words + granted, Ordering::AcqRel);
                            let grown_words = dev.session.chain_words(entries);
                            while !dev.try_reserve(grown_words) {
                                std::thread::sleep(Duration::from_micros(100));
                            }
                            reserve_words = grown_words;
                        }
                        Err(BudgetedRunError::Engine(e)) => {
                            reserve_words += granted;
                            break Err(CutsError::from(e));
                        }
                    }
                };
                if let Ok(result) = &result {
                    if cfg.pacing > 0.0 {
                        std::thread::sleep(Duration::from_secs_f64(
                            result.sim_millis * cfg.pacing / 1e3,
                        ));
                    }
                    trie_entries = entries;
                }
                result
            }
        };
        dev.reserved.fetch_sub(reserve_words, Ordering::AcqRel);
        let outcome = JobOutcome {
            id: JobId(q.id),
            name: job.name.clone(),
            device: global_device,
            lane,
            queue_millis,
            exec_millis: exec_start.elapsed().as_secs_f64() * 1e3,
            trie_entries,
            result: outcome_result,
        };
        shared.finish(r, &q, outcome);
        shared.job_done();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuts_graph::generators::{chain, clique, erdos_renyi, mesh2d, star};
    use cuts_graph::Graph;
    use cuts_obs::{flight, Event};

    fn small_tier(ranks: usize, lanes: usize) -> ServeTier {
        ServeTier::new(
            ServeConfig::builder()
                .ranks(ranks)
                .lanes(lanes)
                .device_config(DeviceConfig::test_small())
                .build()
                .unwrap(),
        )
    }

    fn demo_jobs() -> Vec<Job> {
        let data = Arc::new(erdos_renyi(30, 90, 7));
        let mesh = Arc::new(mesh2d(4, 4));
        let q3 = Arc::new(clique(3));
        let q2 = Arc::new(clique(2));
        let mut jobs = Vec::new();
        for i in 0..8 {
            let (d, q) = if i % 2 == 0 {
                (data.clone(), q3.clone())
            } else {
                (mesh.clone(), q2.clone())
            };
            jobs.push(
                Job::new(d, q)
                    .with_priority(i % 3)
                    .with_class(if i % 2 == 0 { "gold" } else { "best_effort" }),
            );
        }
        jobs
    }

    #[test]
    fn builder_rejects_bad_values() {
        assert!(ServeConfig::builder().ranks(0).build().is_err());
        assert!(ServeConfig::builder().lanes(0).build().is_err());
        assert!(ServeConfig::builder().devices_per_rank(0).build().is_err());
        assert!(ServeConfig::builder().sigma(0.0).build().is_err());
        assert!(ServeConfig::builder().queue_capacity(0).build().is_err());
        // A device too small for one trie entry pair fails the engine's
        // budget check.
        let tiny = DeviceConfig {
            global_mem_words: 1,
            ..DeviceConfig::test_small()
        };
        assert!(matches!(
            ServeConfig::builder().device_config(tiny).build(),
            Err(CutsError::Config(ConfigError::Budget { .. }))
        ));
    }

    #[test]
    fn fault_plan_must_leave_a_survivor() {
        let plan = FaultPlan::parse("crash:0@0, crash:1@0").unwrap();
        let err = ServeConfig::builder().ranks(2).fault_plan(plan).build();
        assert!(err.is_err(), "a plan killing every rank must be rejected");
        // Out-of-range clauses are typed errors, not silent no-ops.
        let plan = FaultPlan::parse("crash:5@0").unwrap();
        assert!(ServeConfig::builder()
            .ranks(2)
            .fault_plan(plan)
            .build()
            .is_err());
    }

    /// Per-job results match the serial loop at 2 ranks × 2 lanes, with
    /// telemetry on and off; turning telemetry off empties the SLO report
    /// and nothing else.
    #[test]
    fn multi_rank_matches_serial_per_job() {
        let jobs = demo_jobs();
        let tier = small_tier(2, 2);
        let quiet = ServeTier::new(
            ServeConfig::builder()
                .ranks(2)
                .lanes(2)
                .device_config(DeviceConfig::test_small())
                .telemetry(false)
                .build()
                .unwrap(),
        );
        let serial = tier.run_serial(&jobs).unwrap();
        let served = tier.run_stream(&jobs).unwrap();
        let silent = quiet.run_stream(&jobs).unwrap();
        for report in [&served, &silent] {
            assert_eq!(report.stats.completed, jobs.len() as u64);
            assert_eq!(report.outcomes.len(), serial.outcomes.len());
            for (s, p) in serial.outcomes.iter().zip(report.outcomes.iter()) {
                assert_eq!(s.id, p.id);
                let (a, b) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
                assert_eq!(a.canonical_bytes(), b.canonical_bytes());
            }
        }
        assert!(!silent.telemetry.is_enabled());
        let gold = silent.slo.class("gold").unwrap();
        assert_eq!(gold.completed, 0, "disabled registry records nothing");
        assert_eq!(gold.queue_us, [0, 0, 0]);
    }

    /// Oracle check against the outcome list: for every job of `class`,
    /// the histogram must report the class quantile within one log2
    /// sub-bucket (≤ 25% relative error) above the exact value.
    fn assert_slo_brackets_outcomes(report: &ServeReport, jobs: &[Job], class: &str) {
        let slo = report.slo.class(class).expect("class accounted");
        let mut queue: Vec<u64> = Vec::new();
        let mut exec: Vec<u64> = Vec::new();
        for o in &report.outcomes {
            if Telemetry::class_of(&jobs[o.id.0 as usize]) == class {
                queue.push((o.queue_millis * 1e3) as u64);
                exec.push((o.exec_millis * 1e3) as u64);
            }
        }
        queue.sort_unstable();
        exec.sort_unstable();
        let oracle = |sorted: &[u64], q: f64| {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[rank - 1]
        };
        for (i, q) in [(0usize, 0.50), (1, 0.95), (2, 0.99)] {
            for (reported, sorted) in [(slo.queue_us[i], &queue), (slo.exec_us[i], &exec)] {
                let exact = oracle(sorted, q);
                assert!(reported >= exact, "q={q}: {reported} < exact {exact}");
                assert!(
                    (reported - exact) as f64 <= (exact as f64 * 0.25).max(3.0),
                    "q={q}: {reported} vs exact {exact} exceeds bucket width"
                );
            }
        }
    }

    /// Regression: the throughput bench used to build the rank sweep with
    /// `.telemetry(false)`, so `serve_ranks` SLO classes reported
    /// `completed: 0` and all-zero quantiles despite 16 completed jobs.
    /// A default-configured multi-rank tier must account every job into
    /// its class with real quantiles, count deadline hits and misses,
    /// export the same families to Prometheus, and emit rolling
    /// snapshots at the configured cadence.
    #[test]
    fn multi_rank_slo_reports_completed_and_quantiles() {
        // Best-effort jobs alternate a generous and an impossible deadline.
        let jobs: Vec<Job> = demo_jobs()
            .into_iter()
            .enumerate()
            .map(|(i, job)| match i % 4 {
                1 => job.with_deadline(Duration::from_secs(60)),
                3 => job.with_deadline(Duration::from_micros(1)),
                _ => job,
            })
            .collect();
        let lines = Arc::new(Mutex::new(Vec::<String>::new()));
        let sink_lines = lines.clone();
        let tier = ServeTier::new(
            ServeConfig::builder()
                .ranks(2)
                .lanes(2)
                .device_config(DeviceConfig::test_small())
                .stats_every(2)
                .stats_sink(move |line| sink_lines.lock().unwrap().push(line.to_string()))
                .build()
                .unwrap(),
        );
        let report = tier.run_stream(&jobs).unwrap();
        assert_eq!(report.stats.completed, jobs.len() as u64);
        assert!(report.telemetry.is_enabled());
        let accounted: u64 = report.slo.classes.iter().map(|c| c.completed).sum();
        assert_eq!(accounted, jobs.len() as u64, "every job lands in a class");
        assert!(report.slo.classes.len() >= 2, "demo jobs span two classes");
        for c in &report.slo.classes {
            assert!(c.completed > 0, "class {} reported empty", c.class);
            assert!(
                c.exec_us[2] > 0,
                "class {} has zero exec quantiles",
                c.class
            );
            assert!(c.queue_us[0] <= c.queue_us[2]);
            assert!(c.exec_us[0] <= c.exec_us[1] && c.exec_us[1] <= c.exec_us[2]);
            assert_slo_brackets_outcomes(&report, &jobs, &c.class);
        }
        let gold = report.slo.class("gold").unwrap();
        assert_eq!((gold.deadline_hits, gold.deadline_misses), (0, 0));
        let best_effort = report.slo.class("best_effort").unwrap();
        assert_eq!(
            (best_effort.deadline_hits, best_effort.deadline_misses),
            (2, 2)
        );
        // The report JSON carries the SLO block, and the Prometheus
        // snapshot exports the same families.
        let json = report.to_json().render();
        assert!(
            json.contains("\"queue_p99_us\""),
            "slo absent from json: {json}"
        );
        let prom = report.telemetry.snapshot().render();
        assert!(prom.contains("cuts_job_queue_us"));
        assert!(prom.contains("class=\"gold\""));
        cuts_obs::validate_exposition(&prom).expect("scrapeable exposition");
        // Every 2 of 8 completions: four rolling snapshot lines.
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 4, "every 2 of 8 completions: {lines:?}");
        for line in lines.iter() {
            let v = Json::parse(line).expect("snapshot line parses");
            for key in ["finished", "wall_millis", "growth_denials", "slo"] {
                assert!(v.get(key).is_some(), "{key} missing from {line}");
            }
        }
    }

    #[test]
    fn rank_crash_loses_no_jobs() {
        let jobs = demo_jobs();
        let tier = ServeTier::new(
            ServeConfig::builder()
                .ranks(2)
                .lanes(1)
                .device_config(DeviceConfig::test_small())
                // Keep each job on-device for a few milliseconds so the
                // kill (once one job is admitted) lands mid-stream.
                .pacing(50.0)
                .fault_plan(FaultPlan::parse("crash:1@1").unwrap())
                .build()
                .unwrap(),
        );
        let clean = small_tier(2, 1).run_stream(&jobs).unwrap();
        let faulted = tier.run_stream(&jobs).unwrap();
        assert_eq!(faulted.stats.completed, jobs.len() as u64);
        assert_eq!(faulted.stats.lost_ranks, vec![1]);
        assert_eq!(faulted.stats.total_matches, clean.stats.total_matches);
        for (a, b) in clean.outcomes.iter().zip(faulted.outcomes.iter()) {
            assert_eq!(
                a.result.as_ref().unwrap().canonical_bytes(),
                b.result.as_ref().unwrap().canonical_bytes()
            );
        }
    }

    /// Every traced job's `complete` event carries its queue and exec
    /// times, and they fit inside the job's journal span from `submit`
    /// to `complete` (journal stamps are whole microseconds, hence the
    /// one-microsecond slack).
    #[test]
    fn queue_plus_exec_fits_in_end_to_end() {
        let jobs: Vec<Job> = (0..2).flat_map(|_| demo_jobs()).collect();
        let trace = Trace::enabled();
        let tier = ServeTier::new(
            ServeConfig::builder()
                .ranks(2)
                .lanes(2)
                .device_config(DeviceConfig::test_small())
                .pacing(5.0)
                .trace(trace.clone())
                .build()
                .unwrap(),
        );
        let report = tier.run_stream(&jobs).unwrap();
        assert_eq!(report.stats.completed, jobs.len() as u64);
        let events = trace.journal().unwrap().snapshot_sorted();
        let event = |name: &str, job: u64| {
            events
                .iter()
                .find(|e| {
                    e.kind == EventKind::Job
                        && e.name == name
                        && matches!(e.arg("job"), Some(Arg::U64(j)) if *j == job)
                })
                .unwrap_or_else(|| panic!("job {job} has no {name} event"))
        };
        for job in 0..jobs.len() as u64 {
            let (submit, complete) = (event("submit", job), event("complete", job));
            let (Some(Arg::F64(queue)), Some(Arg::F64(exec))) =
                (complete.arg("queue_ms"), complete.arg("exec_ms"))
            else {
                panic!("job {job}: complete event lacks queue_ms/exec_ms");
            };
            assert!(
                *queue >= 0.0 && *exec > 0.0,
                "job {job}: {queue} / {exec} ms"
            );
            let end_to_end = (complete.ts_us - submit.ts_us + 1) as f64 / 1e3;
            assert!(
                queue + exec <= end_to_end,
                "job {job}: queue {queue} + exec {exec} ms > end-to-end {end_to_end} ms"
            );
        }
    }

    /// Every claim journals one `job`/`claim` event carrying the job id,
    /// on the claiming rank's track. Each submitted job is claimed once,
    /// and again per re-admission that reaches a lane: a re-queued job
    /// its dead rank commits first is discarded unclaimed, so under a
    /// crash the re-admissions bound the extra claims from above.
    #[test]
    fn every_claim_is_journalled_with_its_job() {
        let jobs: Vec<Job> = (0..2).flat_map(|_| demo_jobs()).collect();
        for plan in ["", "crash:1@6"] {
            let trace = Trace::enabled();
            let tier = ServeTier::new(
                ServeConfig::builder()
                    .ranks(3)
                    .lanes(2)
                    .device_config(DeviceConfig::test_small())
                    .pacing(50.0)
                    .fault_plan(FaultPlan::parse(plan).unwrap())
                    .trace(trace.clone())
                    .build()
                    .unwrap(),
            );
            let stats = tier.run_stream(&jobs).unwrap().stats;
            assert_eq!(stats.completed, jobs.len() as u64);
            let events = trace.journal().unwrap().snapshot_sorted();
            let claims: Vec<&Event> = events
                .iter()
                .filter(|e| e.kind == EventKind::Job && e.name == "claim")
                .collect();
            let arg = |e: &Event, key: &str| match e.arg(key) {
                Some(Arg::U64(v)) => *v,
                other => panic!("claim lacks {key}: {other:?}"),
            };
            for c in &claims {
                assert_eq!(c.rank, Some(arg(c, "rank") as u32));
                assert!(arg(c, "device") < 3);
            }
            for job in 0..stats.submitted {
                assert!(
                    claims.iter().any(|c| arg(c, "job") == job),
                    "plan {plan:?}: job {job} has no claim"
                );
            }
            let n = claims.len() as u64;
            if plan.is_empty() {
                assert_eq!(stats.readmitted, 0);
                assert_eq!(n, stats.submitted + stats.readmitted);
            } else {
                assert!(
                    n <= stats.submitted + stats.readmitted,
                    "{n} claims, {stats:?}"
                );
            }
        }
    }

    /// A crash that several lanes of the victim find due at once is
    /// recorded once, by the winning `mark_rank_dead`.
    #[test]
    fn injected_crash_is_recorded_once() {
        for _ in 0..5 {
            let trace = Trace::enabled();
            let tier = ServeTier::new(
                ServeConfig::builder()
                    .ranks(3)
                    .lanes(2)
                    .device_config(DeviceConfig::test_small())
                    .pacing(50.0)
                    .fault_plan(FaultPlan::parse("crash:1@1").unwrap())
                    .trace(trace.clone())
                    .build()
                    .unwrap(),
            );
            let report = tier.run_stream(&demo_jobs()).unwrap();
            assert_eq!(report.stats.lost_ranks, vec![1]);
            let events = trace.journal().unwrap().snapshot_sorted();
            let count = |name: &str| {
                events
                    .iter()
                    .filter(|e| e.kind == EventKind::Fault && e.name == name && e.rank == Some(1))
                    .count()
            };
            assert_eq!((count("crash"), count("rank_dead")), (1, 1), "{events:?}");
        }
    }

    /// `readmitted` comes from the work ledger, so a tier with telemetry
    /// off still reports it, equal to the journal's `readmit` events.
    /// Paced jobs last milliseconds and the two-job queue is refilled in
    /// microseconds, so the lanes are nearly always busy when rank 1 dies
    /// late in the stream and the crash catches jobs in flight on its
    /// other lanes. A host too loaded to keep them busy can leave none
    /// in flight, so a few streams are tried until one re-admits; every
    /// stream must keep the counts equal.
    #[test]
    fn readmission_stats_survive_telemetry_off() {
        let jobs: Vec<Job> = (0..5).flat_map(|_| demo_jobs()).collect();
        for _ in 0..5 {
            let trace = Trace::enabled();
            let tier = ServeTier::new(
                ServeConfig::builder()
                    .ranks(2)
                    .lanes(3)
                    .device_config(DeviceConfig::test_small())
                    .queue_capacity(2)
                    .pacing(1000.0)
                    .fault_plan(FaultPlan::parse("crash:1@24").unwrap())
                    .trace(trace.clone())
                    .telemetry(false)
                    .build()
                    .unwrap(),
            );
            let report = tier.run_stream(&jobs).unwrap();
            assert_eq!(report.stats.lost_ranks, vec![1]);
            assert_eq!(report.stats.completed, jobs.len() as u64);
            let events = trace.journal().unwrap().snapshot_sorted();
            let readmits = events
                .iter()
                .filter(|e| e.kind == EventKind::Job && e.name == "readmit")
                .count() as u64;
            assert_eq!(report.stats.readmitted, readmits);
            assert_eq!(report.stats.migrated, 0);
            if readmits > 0 {
                return;
            }
        }
        panic!("no stream re-admitted a job in flight on rank 1");
    }

    /// Regression: a rank that dies with a job in flight can still
    /// commit it after the job was re-queued, leaving a stale queue
    /// entry. Lanes discard such entries, and each discard must wake a
    /// submitter blocked on the full two-job queue. Without that wake-up
    /// these short traced jobs wedged the stream in some runs.
    #[test]
    fn discarded_stale_entries_free_queue_space() {
        let jobs: Vec<Job> = (0..5).flat_map(|_| demo_jobs()).collect();
        let tier = ServeTier::new(
            ServeConfig::builder()
                .ranks(2)
                .lanes(3)
                .device_config(DeviceConfig::test_small())
                .queue_capacity(2)
                .pacing(50.0)
                .fault_plan(FaultPlan::parse("crash:1@24").unwrap())
                .trace(Trace::enabled())
                .telemetry(false)
                .build()
                .unwrap(),
        );
        let report = tier.run_stream(&jobs).unwrap();
        assert_eq!(report.stats.completed, jobs.len() as u64);
    }

    /// Telemetry plausibility at several ranks × lanes shapes, and once
    /// with a rank killed mid-stream: no device's reservations ever
    /// exceed its budget, the per-class SLO counts add up to the stats,
    /// and every submitted job either completed or failed.
    #[test]
    fn serve_stats_are_plausible() {
        let data = Arc::new(erdos_renyi(30, 90, 7));
        let disconnected = Arc::new(Graph::undirected(4, &[(0, 1), (2, 3)]));
        let mut jobs: Vec<Job> = (0..2).flat_map(|_| demo_jobs()).collect();
        jobs.push(Job::new(data, disconnected).with_name("bad"));
        let shapes = [(1, 2, ""), (2, 1, ""), (3, 2, ""), (3, 2, "crash:1@4")];
        for (ranks, lanes, plan) in shapes {
            let tier = ServeTier::new(
                ServeConfig::builder()
                    .ranks(ranks)
                    .lanes(lanes)
                    .device_config(DeviceConfig::test_small())
                    .pacing(5.0)
                    .fault_plan(FaultPlan::parse(plan).unwrap())
                    .build()
                    .unwrap(),
            );
            let report = tier.run_stream(&jobs).unwrap();
            let (stats, shape) = (&report.stats, format!("{ranks}x{lanes} {plan}"));
            assert_eq!(stats.peak_reserved_words.len(), stats.budget_words.len());
            for (d, (peak, budget)) in stats
                .peak_reserved_words
                .iter()
                .zip(&stats.budget_words)
                .enumerate()
            {
                assert!(
                    peak <= budget,
                    "{shape}: device {d} peak {peak} > budget {budget}"
                );
            }
            let classes = &report.slo.classes;
            assert_eq!(
                classes.iter().map(|c| c.completed).sum::<u64>(),
                stats.completed,
                "{shape}"
            );
            assert_eq!(
                classes.iter().map(|c| c.failed).sum::<u64>(),
                stats.failed,
                "{shape}"
            );
            assert_eq!(stats.completed + stats.failed, stats.submitted, "{shape}");
            assert_eq!(
                (stats.submitted, stats.failed),
                (jobs.len() as u64, 1),
                "{shape}"
            );
            if let Some(path) = &report.postmortem {
                let _ = std::fs::remove_file(path);
            }
        }
    }

    /// A panic in the submit closure reaches the caller once the lanes
    /// have drained what was submitted; the lanes never wait forever on
    /// a queue nobody closes.
    #[test]
    fn panicking_submit_closure_propagates() {
        let job = demo_jobs().remove(0);
        let tier = small_tier(2, 1);
        let run = catch_unwind(AssertUnwindSafe(|| {
            tier.run(|h| {
                h.submit_wait(job.clone());
                panic!("submitter bug");
            })
        }));
        assert!(run.is_err());
    }

    #[test]
    fn submit_timeout_is_typed() {
        let data = Arc::new(erdos_renyi(30, 90, 7));
        let query = Arc::new(clique(3));
        let tier = ServeTier::new(
            ServeConfig::builder()
                .ranks(1)
                .lanes(1)
                .device_config(DeviceConfig::test_small())
                .queue_capacity(1)
                // About 80 ms per job: job 1 must still be running
                // while the two refused submissions below are tried.
                .pacing(4000.0)
                .build()
                .unwrap(),
        );
        let report = tier
            .run(|h| {
                h.submit_wait(Job::new(data.clone(), query.clone()));
                h.submit_wait(Job::new(data.clone(), query.clone()));
                // Lane busy with job 1 (paced), job 2 queued: the gate
                // is full, so a plain submit bounces at once and a
                // bounded wait times out, each with its own typed error.
                match h.submit(Job::new(data.clone(), query.clone())) {
                    Err(SchedError::Busy { capacity: 1 }) => {}
                    other => panic!("expected Busy, got {other:?}"),
                }
                match h.submit_wait_timeout(
                    Job::new(data.clone(), query.clone()),
                    Duration::from_millis(1),
                ) {
                    Err(SchedError::Timeout { .. }) => {}
                    other => panic!("expected Timeout, got {other:?}"),
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(report.stats.completed, 2);
    }

    /// Unplannable jobs fail one by one without failing the stream, and
    /// the first failure writes the run's single flight-recorder dump.
    #[test]
    fn unplannable_jobs_fail_individually_with_one_postmortem() {
        let data = Arc::new(clique(4));
        let disconnected = Arc::new(Graph::undirected(4, &[(0, 1), (2, 3)]));
        let jobs = [
            Job::new(data.clone(), disconnected.clone()).with_name("bad"),
            Job::new(data.clone(), Arc::new(clique(3))),
            Job::new(data, disconnected).with_name("bad2"),
        ];
        let report = small_tier(1, 1).run_stream(&jobs).unwrap();
        assert_eq!((report.stats.completed, report.stats.failed), (1, 2));
        assert!(matches!(
            report.outcomes[0].result,
            Err(CutsError::Engine(crate::EngineError::DisconnectedQuery))
        ));
        assert!(report.outcomes[1].result.is_ok());
        let path = report.postmortem.as_ref().expect("postmortem written");
        let text = std::fs::read_to_string(path).expect("dump readable");
        let (reason, events) = flight::parse_dump(&text).expect("dump parses");
        assert_eq!(reason, "job_failure");
        // The dump holds the failing job's lifecycle: its submission,
        // its claim and the failure itself.
        let failed = report.outcomes[0].id.0;
        let has = |name: &str, ok: Option<u64>| {
            events.iter().any(|e| {
                e.kind == EventKind::Job
                    && e.name == name
                    && e.arg("job") == Some(failed)
                    && (ok.is_none() || e.arg("ok") == ok)
            })
        };
        assert!(has("submit", None), "{events:?}");
        assert!(has("claim", None), "{events:?}");
        assert!(has("complete", Some(0)), "{events:?}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn admission_survives_huge_growth_factor() {
        // A deep chain query on a star data graph: δ = 4000, so the §5
        // estimate is p1 · (δσ)^(l-1) ≈ 1000^102 — infinite in f64.
        // Sizing must land on the budget instead of wrapping, and the job
        // must admit and finish.
        let tier = small_tier(1, 1);
        let data = Arc::new(star(4001));
        let query = Arc::new(chain(103));
        let device = tier.devices().next().unwrap();
        let plan = ExecSession::new(device, EngineConfig::default())
            .plan_for(&query)
            .unwrap();
        assert!(
            !plan.space_estimate(&data, 0.25).is_finite(),
            "test premise: the estimate must overflow f64"
        );
        assert_eq!(
            job_entries_for(&plan, &data, 0.25),
            plan.trie_entries_budget
        );
        let report = tier.run_stream(&[Job::new(data, query)]).unwrap();
        assert_eq!(report.outcomes.len(), 1);
        // Zero matches: the star has no 103-vertex path.
        assert_eq!(report.outcomes[0].result.as_ref().unwrap().num_matches, 0);
    }
}
