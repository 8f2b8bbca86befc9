//! The job vocabulary of the serving stack.
//!
//! [`crate::serve::ServeTier`] drives job streams and
//! [`crate::watch::WatchSession`] drives continuous queries; both speak
//! the types defined here:
//!
//! * [`Job`], [`JobId`] and [`JobOutcome`]: one unit of work, its
//!   handle, and what happened to it.
//! * **Per-job trie sizing.** A job's trie capacity is its §5 space
//!   estimate ([`QueryPlan::space_estimate`]) rounded to a power of two
//!   and clamped to the device-level budget. It depends only on the job
//!   and the device model, never on rank count, lane count or arena
//!   history, so per-job [`MatchResult`]s are identical at any ranks ×
//!   lanes and through `ServeTier::run_serial`.
//! * **Dispatch score.** Static priority, plus waited time over the
//!   aging constant (so starvation is bounded: any job's score
//!   eventually dominates), plus an urgency boost as a deadline
//!   approaches.
//! * **SLO accounting.** [`SloReport`] and [`ClassSlo`] read per-class
//!   queue/exec quantiles and deadline rates out of the run's telemetry
//!   [`Registry`]; the crate-internal `Telemetry` records into it.
//! * **Job manifests.** [`parse_manifest`] and [`parse_graph_spec`] read
//!   the text format `cuts serve --jobs` takes.

#![deny(missing_docs)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cuts_graph::{generators, Graph};
use cuts_obs::flight;
use cuts_obs::{Arg, Counter, EventKind, Json, Registry, ToJson, Trace};

use crate::error::CutsError;
use crate::plan::QueryPlan;
use crate::result::MatchResult;

/// Smallest trie capacity (entries) a job is ever given.
const MIN_TRIE_ENTRIES: usize = 256;

/// Checked f64 → entries conversion for the §5 admission estimate.
///
/// [`QueryPlan::space_estimate`] is geometric in `(δσ)^l` and
/// overflows f64 range (→ `inf`) or usize range for deep queries on
/// high-degree graphs. A bare `as usize` cast saturates to `usize::MAX`,
/// and `next_power_of_two` on any value above `1 << 63` panics in debug
/// builds / wraps to 0 in release — so the old code could request a
/// zero-entry or absurdly oversized trie *before* the clamp ran. This
/// routes every non-finite, negative, or over-budget estimate straight
/// to the budget and only rounds genuinely small values up to a power
/// of two.
fn saturating_entries(est: f64, budget: usize) -> usize {
    let budget = budget.max(1);
    if !est.is_finite() || est >= budget as f64 {
        return budget;
    }
    let e = if est < 1.0 { 1 } else { est as usize };
    // e < budget ≤ usize::MAX here, but guard the pow2 overflow edge
    // anyway (budget could itself be usize::MAX).
    if e > (usize::MAX >> 1) + 1 {
        budget
    } else {
        e.next_power_of_two().min(budget)
    }
}

/// Checked f64 milliseconds → u64 microseconds for SLO accounting.
///
/// Wall-clock deltas from `Instant` are finite, but latencies also reach
/// here from derived arithmetic (batch fan-out, re-admission credit)
/// where a poisoned input must not land in a histogram: `max(0.0)`
/// passes `+inf` through and `inf as u64` saturates to `u64::MAX` µs,
/// pinning every quantile of the class at the top bucket for the rest
/// of the run. Non-finite and negative inputs record as zero; genuinely
/// huge finite values still saturate at the cast.
fn saturating_micros(millis: f64) -> u64 {
    let us = millis * 1e3;
    if !us.is_finite() || us < 0.0 {
        return 0;
    }
    us as u64
}

/// The per-job trie capacity (entries) for `plan` over `data`: the §5
/// space estimate, rounded up to a power of two so repeat jobs share
/// chain shapes, clamped into `[MIN, budget]`. Depends only on the job
/// and the device model — never on lane count, rank count, or what ran
/// before — which is what makes serving-tier results bit-identical to a
/// serial loop.
pub(crate) fn job_entries_for(plan: &QueryPlan, data: &Graph, sigma: f64) -> usize {
    let est = plan.space_estimate(data, sigma).ceil();
    let budget = plan.trie_entries_budget.max(1);
    saturating_entries(est, budget).clamp(MIN_TRIE_ENTRIES.min(budget), budget)
}

/// One unit of work: match `query` in `data`.
#[derive(Debug, Clone)]
pub struct Job {
    /// Optional display name (reports, traces).
    pub name: Option<String>,
    /// SLO accounting class. Jobs of the same class share one queue-wait
    /// and one exec-time histogram in the run's telemetry [`Registry`];
    /// unset jobs fall back to their display name, then to `"default"`.
    pub class: Option<String>,
    /// The data graph. `Arc` so many jobs can share one graph.
    pub data: Arc<Graph>,
    /// The query graph. Jobs with the same query share a cached plan.
    pub query: Arc<Graph>,
    /// Static priority; higher dispatches first at equal wait time.
    pub priority: i32,
    /// Soft deadline measured from submission. Approaching it boosts the
    /// job's dispatch score; it is never killed for missing it (but the
    /// miss is counted against its class's SLO).
    pub deadline: Option<Duration>,
}

impl Job {
    /// A default-priority job.
    pub fn new(data: Arc<Graph>, query: Arc<Graph>) -> Self {
        Job {
            name: None,
            class: None,
            data,
            query,
            priority: 0,
            deadline: None,
        }
    }

    /// Sets the SLO accounting class.
    pub fn with_class(mut self, class: impl Into<String>) -> Self {
        self.class = Some(class.into());
        self
    }

    /// Sets the static priority.
    pub fn with_priority(mut self, p: i32) -> Self {
        self.priority = p;
        self
    }

    /// Sets the soft deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Sets the display name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }
}

/// Identifier handed back by submit; indexes the report's outcome list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

/// What happened to one job.
#[derive(Debug)]
pub struct JobOutcome {
    /// The job's id (also its index in
    /// [`ServeReport::outcomes`](crate::serve::ServeReport::outcomes)).
    pub id: JobId,
    /// Display name, if the job had one.
    pub name: Option<String>,
    /// Global device index the job ran on
    /// (`rank * devices_per_rank + device`).
    pub device: usize,
    /// Lane that executed it.
    pub lane: usize,
    /// Milliseconds between submission and execution start.
    pub queue_millis: f64,
    /// Milliseconds spent executing (including pacing sleep).
    pub exec_millis: f64,
    /// Trie entry capacity the job was sized to (for a watch delta: the
    /// entries its anchored runs built).
    pub trie_entries: usize,
    /// The run result, or the typed failure.
    pub result: Result<MatchResult, CutsError>,
}

// ---------------------------------------------------------------------
// SLO accounting.

/// Metric/help strings shared by the recording sites, the Prometheus
/// export, and [`SloReport::from_registry`], so all three read the same
/// histogram families.
const M_QUEUE: (&str, &str) = (
    "cuts_job_queue_us",
    "Queue wait per job class, microseconds",
);
const M_EXEC: (&str, &str) = (
    "cuts_job_exec_us",
    "Execution time per job class, microseconds",
);
const M_COMPLETED: (&str, &str) = ("cuts_jobs_completed_total", "Jobs finished Ok, per class");
const M_FAILED: (&str, &str) = ("cuts_jobs_failed_total", "Jobs finished Err, per class");
const M_DL_HIT: (&str, &str) = (
    "cuts_deadline_hits_total",
    "Jobs whose queue+exec latency met their deadline, per class",
);
const M_DL_MISS: (&str, &str) = (
    "cuts_deadline_misses_total",
    "Jobs whose queue+exec latency missed their deadline, per class",
);

/// One job class's serving-level figures, distilled from the run's
/// telemetry registry. Quantiles are log2-sub-bucket upper bounds
/// (≤ 25% relative error, conservative — never below the true value).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassSlo {
    /// The accounting class (see [`Job::class`]).
    pub class: String,
    /// Jobs of this class that finished `Ok`.
    pub completed: u64,
    /// Jobs of this class that finished `Err`.
    pub failed: u64,
    /// Queue-wait p50/p95/p99, microseconds (0 when nothing recorded).
    pub queue_us: [u64; 3],
    /// Exec-time p50/p95/p99, microseconds (0 when nothing recorded).
    pub exec_us: [u64; 3],
    /// Deadlined jobs that met their deadline (queue + exec within it).
    pub deadline_hits: u64,
    /// Deadlined jobs that blew their deadline.
    pub deadline_misses: u64,
}

impl ToJson for ClassSlo {
    fn to_json(&self) -> Json {
        Json::obj([
            ("class", Json::Str(self.class.clone())),
            ("completed", Json::U64(self.completed)),
            ("failed", Json::U64(self.failed)),
            ("queue_p50_us", Json::U64(self.queue_us[0])),
            ("queue_p95_us", Json::U64(self.queue_us[1])),
            ("queue_p99_us", Json::U64(self.queue_us[2])),
            ("exec_p50_us", Json::U64(self.exec_us[0])),
            ("exec_p95_us", Json::U64(self.exec_us[1])),
            ("exec_p99_us", Json::U64(self.exec_us[2])),
            ("deadline_hits", Json::U64(self.deadline_hits)),
            ("deadline_misses", Json::U64(self.deadline_misses)),
        ])
    }
}

/// Per-class SLO accounting for one run, read out of the same registry
/// histograms the Prometheus export and rolling snapshots serve — the
/// report cannot drift from the monitoring surface.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SloReport {
    /// One entry per class, in first-completion order.
    pub classes: Vec<ClassSlo>,
}

impl SloReport {
    /// Distills the per-class figures for `classes` out of `reg`.
    pub fn from_registry(reg: &Registry, classes: &[String]) -> SloReport {
        let qs = |h: cuts_obs::Hist| {
            let s = h.snapshot();
            [
                s.quantile(0.50).unwrap_or(0),
                s.quantile(0.95).unwrap_or(0),
                s.quantile(0.99).unwrap_or(0),
            ]
        };
        let classes = classes
            .iter()
            .map(|cls| {
                let l = [("class", cls.as_str())];
                ClassSlo {
                    class: cls.clone(),
                    completed: reg.counter(M_COMPLETED.0, &l, M_COMPLETED.1).get(),
                    failed: reg.counter(M_FAILED.0, &l, M_FAILED.1).get(),
                    queue_us: qs(reg.histogram(M_QUEUE.0, &l, M_QUEUE.1)),
                    exec_us: qs(reg.histogram(M_EXEC.0, &l, M_EXEC.1)),
                    deadline_hits: reg.counter(M_DL_HIT.0, &l, M_DL_HIT.1).get(),
                    deadline_misses: reg.counter(M_DL_MISS.0, &l, M_DL_MISS.1).get(),
                }
            })
            .collect();
        SloReport { classes }
    }

    /// The entry for `class`, if any job of that class finished.
    pub fn class(&self, class: &str) -> Option<&ClassSlo> {
        self.classes.iter().find(|c| c.class == class)
    }
}

impl ToJson for SloReport {
    fn to_json(&self) -> Json {
        Json::obj([(
            "classes",
            Json::Arr(self.classes.iter().map(|c| c.to_json()).collect()),
        )])
    }
}

/// Rolling-snapshot callback handed one JSON line per emission (see
/// [`ServeConfigBuilder::stats_every`](crate::serve::ServeConfigBuilder::stats_every)).
#[derive(Clone)]
pub struct StatsSink(pub Arc<dyn Fn(&str) + Send + Sync>);

impl std::fmt::Debug for StatsSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("StatsSink(..)")
    }
}

/// Always-on telemetry state for one run: the registry, pre-resolved
/// hot-path counter handles, SLO class tracking, rolling-snapshot
/// emission, and the once-per-run post-mortem latch. Shared by the
/// serving tier ([`crate::serve`]) and watch sessions ([`crate::watch`])
/// so both account SLOs into the same histogram families.
pub(crate) struct Telemetry {
    pub(crate) reg: Registry,
    classes: Mutex<Vec<String>>,
    pub(crate) growth_denials: Counter,
    stats_every: u64,
    sink: Option<StatsSink>,
    start: Instant,
    dumped: AtomicBool,
    pub(crate) postmortem: Mutex<Option<String>>,
}

impl Telemetry {
    /// Builds the run-scoped telemetry state from its knobs.
    pub(crate) fn with(enabled: bool, stats_every: u64, sink: Option<StatsSink>) -> Self {
        let reg = Registry::with_enabled(enabled);
        Telemetry {
            growth_denials: reg.counter(
                "cuts_sched_growth_denials_total",
                &[],
                "In-place trie growths denied by the admission ledger (job rerun larger)",
            ),
            reg,
            classes: Mutex::new(Vec::new()),
            stats_every,
            sink,
            start: Instant::now(),
            dumped: AtomicBool::new(false),
            postmortem: Mutex::new(None),
        }
    }

    /// The SLO class a job's latency is accounted under.
    pub(crate) fn class_of(job: &Job) -> &str {
        job.class
            .as_deref()
            .or(job.name.as_deref())
            .unwrap_or("default")
    }

    /// Records one finished job: its `complete` (and any `deadline_miss`)
    /// event on `trace`, latency histograms, outcome and deadline
    /// counters, and the first-failure dump, taken after the event so
    /// the dump holds it.
    pub(crate) fn on_finish(
        &self,
        trace: &Trace,
        class: &str,
        deadline: Option<Duration>,
        o: &JobOutcome,
    ) {
        trace.instant_with(
            EventKind::Job,
            "complete",
            &[
                ("job", Arg::U64(o.id.0)),
                ("ok", Arg::U64(o.result.is_ok() as u64)),
                ("queue_ms", Arg::F64(o.queue_millis)),
                ("exec_ms", Arg::F64(o.exec_millis)),
            ],
        );
        {
            let mut cs = self.classes.lock().unwrap();
            if !cs.iter().any(|c| c == class) {
                cs.push(class.to_string());
            }
        }
        let l = [("class", class)];
        let queue_us = saturating_micros(o.queue_millis);
        let exec_us = saturating_micros(o.exec_millis);
        self.reg
            .histogram(M_QUEUE.0, &l, M_QUEUE.1)
            .record(queue_us);
        self.reg.histogram(M_EXEC.0, &l, M_EXEC.1).record(exec_us);
        if let Some(d) = deadline {
            if o.queue_millis + o.exec_millis <= d.as_secs_f64() * 1e3 {
                self.reg.counter(M_DL_HIT.0, &l, M_DL_HIT.1).inc();
            } else {
                self.reg.counter(M_DL_MISS.0, &l, M_DL_MISS.1).inc();
                trace.instant_with(
                    EventKind::Job,
                    "deadline_miss",
                    &[
                        ("job", Arg::U64(o.id.0)),
                        ("latency_us", Arg::U64(queue_us + exec_us)),
                        ("deadline_us", Arg::U64(d.as_micros() as u64)),
                    ],
                );
            }
        }
        match &o.result {
            Ok(_) => self.reg.counter(M_COMPLETED.0, &l, M_COMPLETED.1).inc(),
            Err(_) => {
                self.reg.counter(M_FAILED.0, &l, M_FAILED.1).inc();
                self.dump_once("job_failure");
            }
        }
    }

    /// Dumps the flight recorder at most once per run; the path is
    /// surfaced on the report.
    pub(crate) fn dump_once(&self, reason: &str) {
        if self.dumped.swap(true, Ordering::Relaxed) {
            return;
        }
        if let Some(p) = flight::postmortem(reason) {
            *self.postmortem.lock().unwrap() = Some(p.display().to_string());
        }
    }

    pub(crate) fn slo(&self) -> SloReport {
        SloReport::from_registry(&self.reg, &self.classes.lock().unwrap())
    }

    /// One rolling-snapshot JSON line (`finished` = jobs done so far).
    fn snapshot_line(&self, finished: u64) -> String {
        Json::obj([
            ("finished", Json::U64(finished)),
            (
                "wall_millis",
                Json::F64(self.start.elapsed().as_secs_f64() * 1e3),
            ),
            ("growth_denials", Json::U64(self.growth_denials.get())),
            ("slo", self.slo().to_json()),
        ])
        .render()
    }

    /// Emits a rolling snapshot when `finished` crosses the cadence.
    pub(crate) fn maybe_emit(&self, finished: u64) {
        if self.stats_every == 0 || finished == 0 || !finished.is_multiple_of(self.stats_every) {
            return;
        }
        if let Some(sink) = &self.sink {
            (sink.0)(&self.snapshot_line(finished));
        }
    }
}

/// Dispatch score: static priority, plus waited time in units of the
/// aging constant, plus a deadline-urgency boost. Any job's aging term
/// grows without bound, so no job starves behind a stream of
/// higher-priority arrivals. [`crate::serve`]'s lanes claim work from
/// the tier-wide queue by this score, and the original submission
/// instant travels with a re-queued job, so priorities and deadlines
/// keep their meaning across a rank's death.
pub(crate) fn dispatch_score(
    priority: i32,
    deadline: Option<Duration>,
    submitted_at: Instant,
    now: Instant,
    aging: Duration,
) -> f64 {
    let waited = now.saturating_duration_since(submitted_at).as_secs_f64();
    let mut s = priority as f64 + waited / aging.as_secs_f64();
    if let Some(d) = deadline {
        let remaining = d.as_secs_f64() - waited;
        s += if remaining <= 0.0 {
            1e6
        } else {
            1.0 / remaining.max(1e-3)
        };
    }
    s
}

// ---------------------------------------------------------------------
// Job manifests.

/// Parses a graph generator spec: `clique:K`, `chain:K`, `cycle:K`,
/// `star:K`, `mesh:WxH`, or `er:N:M:SEED`.
pub fn parse_graph_spec(spec: &str) -> Result<Graph, CutsError> {
    let bad = || CutsError::Invalid {
        what: "graph spec",
        given: spec.to_string(),
    };
    let (kind, rest) = spec.split_once(':').ok_or_else(bad)?;
    match kind {
        "clique" | "chain" | "cycle" | "star" => {
            let k: usize = rest.parse().map_err(|_| bad())?;
            if k == 0 || k > 64 {
                return Err(bad());
            }
            Ok(match kind {
                "clique" => generators::clique(k),
                "chain" => generators::chain(k),
                "cycle" => generators::cycle(k),
                _ => generators::star(k),
            })
        }
        "mesh" => {
            let (w, h) = rest.split_once('x').ok_or_else(bad)?;
            let w: usize = w.parse().map_err(|_| bad())?;
            let h: usize = h.parse().map_err(|_| bad())?;
            if w == 0 || h == 0 {
                return Err(bad());
            }
            Ok(generators::mesh2d(w, h))
        }
        "er" => {
            let parts: Vec<&str> = rest.split(':').collect();
            if parts.len() != 3 {
                return Err(bad());
            }
            let n: usize = parts[0].parse().map_err(|_| bad())?;
            let m: usize = parts[1].parse().map_err(|_| bad())?;
            let seed: u64 = parts[2].parse().map_err(|_| bad())?;
            Ok(generators::erdos_renyi(n, m, seed))
        }
        _ => Err(bad()),
    }
}

/// Parses a job manifest: one job per line, `#` comments, blank lines
/// ignored. Each line is `<data-spec> <query-spec> [key=val ...]` with
/// options `priority=<i32>`, `deadline_ms=<u64>`, `name=<str>`,
/// `class=<str>` (SLO accounting class), and `repeat=<n>` (submit the
/// job `n` times). Repeated specs share one [`Graph`] allocation.
pub fn parse_manifest(text: &str) -> Result<Vec<Job>, CutsError> {
    let mut graphs: std::collections::HashMap<String, Arc<Graph>> =
        std::collections::HashMap::new();
    let mut intern = |spec: &str| -> Result<Arc<Graph>, CutsError> {
        if let Some(g) = graphs.get(spec) {
            return Ok(g.clone());
        }
        let g = Arc::new(parse_graph_spec(spec)?);
        graphs.insert(spec.to_string(), g.clone());
        Ok(g)
    };
    let mut jobs = Vec::new();
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let (Some(data_spec), Some(query_spec)) = (fields.next(), fields.next()) else {
            return Err(CutsError::Invalid {
                what: "manifest line",
                given: raw.to_string(),
            });
        };
        let mut job = Job::new(intern(data_spec)?, intern(query_spec)?);
        let mut repeat = 1usize;
        for opt in fields {
            let bad = || CutsError::Invalid {
                what: "manifest option",
                given: opt.to_string(),
            };
            let (key, val) = opt.split_once('=').ok_or_else(bad)?;
            match key {
                "priority" => job.priority = val.parse().map_err(|_| bad())?,
                "deadline_ms" => {
                    job.deadline = Some(Duration::from_millis(val.parse().map_err(|_| bad())?))
                }
                "name" => job.name = Some(val.to_string()),
                "class" => job.class = Some(val.to_string()),
                "repeat" => {
                    repeat = val.parse().map_err(|_| bad())?;
                    if repeat == 0 {
                        return Err(bad());
                    }
                }
                _ => return Err(bad()),
            }
        }
        for _ in 0..repeat {
            jobs.push(job.clone());
        }
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::session::ExecSession;
    use cuts_gpu_sim::{Device, DeviceConfig};
    use cuts_graph::generators::{clique, erdos_renyi};

    #[test]
    fn score_monotonicity_and_deadline_boost() {
        let aging = Duration::from_millis(5);
        let now = Instant::now();
        let score = |age: Duration, priority: i32, deadline: Option<Duration>| {
            dispatch_score(priority, deadline, now - age, now, aging)
        };
        // Older jobs outscore newer ones at equal priority.
        assert!(
            score(Duration::from_millis(50), 0, None) > score(Duration::from_millis(1), 0, None)
        );
        // Ten aging periods equal ten priority levels: bounded starvation.
        assert!(score(aging * 10, 0, None) > score(Duration::ZERO, 9, None));
        // An overdue deadline dominates everything.
        let overdue = score(
            Duration::from_millis(20),
            -5,
            Some(Duration::from_millis(1)),
        );
        assert!(overdue > 1e5);
    }

    #[test]
    fn manifest_parses_specs_options_and_repeats() {
        let text = "\n\
            # demo manifest\n\
            er:40:120:7 clique:3 priority=2 repeat=3\n\
            mesh:4x4 chain:3 name=walk deadline_ms=50 # trailing comment\n";
        let jobs = parse_manifest(text).unwrap();
        assert_eq!(jobs.len(), 4);
        assert_eq!(jobs[0].priority, 2);
        assert!(Arc::ptr_eq(&jobs[0].data, &jobs[1].data), "interned");
        assert_eq!(jobs[3].name.as_deref(), Some("walk"));
        assert_eq!(jobs[3].deadline, Some(Duration::from_millis(50)));
        let classed = parse_manifest("clique:4 clique:3 class=gold").unwrap();
        assert_eq!(classed[0].class.as_deref(), Some("gold"));
        assert!(parse_manifest("er:1:2 clique:3").is_err());
        assert!(parse_manifest("clique:3").is_err());
        assert!(parse_manifest("clique:3 chain:2 bogus=1").is_err());
        assert!(matches!(
            parse_graph_spec("dodecahedron:12"),
            Err(CutsError::Invalid {
                what: "graph spec",
                ..
            })
        ));
    }

    #[test]
    fn job_entries_is_clamped_and_pow2() {
        let device = Device::new(DeviceConfig::test_small());
        let session = ExecSession::new(&device, EngineConfig::default());
        let plan = session.plan_for(&clique(3)).unwrap();
        let e = job_entries_for(&plan, &erdos_renyi(30, 90, 7), 0.25);
        assert!(e >= MIN_TRIE_ENTRIES.min(plan.trie_entries_budget));
        assert!(e <= plan.trie_entries_budget);
        assert!(e == plan.trie_entries_budget || e.is_power_of_two());
    }

    #[test]
    fn saturating_micros_survives_poisoned_latencies() {
        // The live poison case: `.max(0.0)` passed +inf through, and
        // `inf as u64` saturates to u64::MAX µs.
        assert_eq!(saturating_micros(f64::INFINITY), 0);
        assert_eq!(saturating_micros(f64::NEG_INFINITY), 0);
        assert_eq!(saturating_micros(f64::NAN), 0);
        assert_eq!(saturating_micros(-3.5), 0);
        assert_eq!(saturating_micros(0.0), 0);
        // Ordinary latencies convert exactly.
        assert_eq!(saturating_micros(1.5), 1500);
        assert_eq!(saturating_micros(0.001), 1);
        // Finite but absurd values saturate at the cast, not wrap.
        assert_eq!(saturating_micros(1e300), u64::MAX);
    }

    #[test]
    fn saturating_entries_survives_overflowing_estimates() {
        let budget = 1 << 20;
        // Non-finite and absurd estimates route straight to the budget.
        assert_eq!(saturating_entries(f64::INFINITY, budget), budget);
        assert_eq!(saturating_entries(f64::NAN, budget), budget);
        assert_eq!(saturating_entries(1e300, budget), budget);
        assert_eq!(saturating_entries(usize::MAX as f64 * 4.0, budget), budget);
        // Negative / sub-one estimates floor at one entry.
        assert_eq!(saturating_entries(-5.0, budget), 1);
        assert_eq!(saturating_entries(0.3, budget), 1);
        // Small estimates round up to a power of two under the budget.
        assert_eq!(saturating_entries(700.0, budget), 1024);
        assert_eq!(saturating_entries(1024.0, budget), 1024);
        // At or past the budget: exactly the budget, never a wrap to 0.
        assert_eq!(saturating_entries(budget as f64, budget), budget);
        assert_eq!(
            saturating_entries((1u64 << 63) as f64 * 4.0, budget),
            budget
        );
        // Degenerate budget still yields a usable capacity.
        assert_eq!(saturating_entries(f64::INFINITY, 0), 1);
    }
}
