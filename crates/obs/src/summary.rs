//! One pass over a drained journal: the aggregates behind `cuts profile`,
//! `--metrics-out` and the serve report. Both renderers read the same
//! [`JournalSummary`], so they agree on what a kernel launch is: a span
//! carrying the `blocks` argument. The per-block spans of per-block
//! tracing count in the event census only, so kernel totals do not
//! depend on it.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::event::{Arg, Event, EventKind};
use crate::metrics::MetricsSnapshot;

/// Totals over a set of spans (one kernel's launches, or one level's
/// expansion steps).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans seen.
    pub spans: u64,
    /// Summed span wall time, microseconds.
    pub micros: u64,
    /// Summed dynamic instructions.
    pub instructions: u64,
    /// Summed global-memory word reads.
    pub dram_reads: u64,
    /// Summed `paths` argument (paths a level produced).
    pub paths: u64,
}

/// Everything the CLI reports from a journal, aggregated in one pass.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct JournalSummary {
    /// Events in the journal.
    pub events: usize,
    /// Ranks that tagged at least one event.
    pub ranks: BTreeSet<u32>,
    /// Event count per kind, keyed by the kind's stable name.
    pub census: BTreeMap<&'static str, u64>,
    /// Per-kernel totals over launch spans only.
    pub kernels: BTreeMap<String, SpanTotals>,
    /// Per-level totals, keyed by level name; the attempts of a level
    /// that were rolled back are keyed `"<name> rolled back"`.
    pub levels: BTreeMap<String, SpanTotals>,
    /// Plan-cache hits and misses (plans built).
    pub plans: (u64, u64),
    /// Job lifecycle event counts by name (submit / complete / …).
    pub jobs: BTreeMap<String, u64>,
    /// Summed `queue_ms` and `exec_ms` over completed jobs.
    pub queue_exec_ms: (f64, f64),
    /// Arena event counts by name (carve / acquire / release / …).
    pub arena: BTreeMap<String, u64>,
    /// Most slabs any arena class held at once.
    pub arena_high_water: u64,
    /// Kernel-policy choice per level position: (method, constraints,
    /// estimated first-list length, times decided).
    pub policy: BTreeMap<u64, (String, u64, u64, u64)>,
    /// Signature-prefilter verdicts: (on, off).
    pub prefilter: (u64, u64),
}

impl SpanTotals {
    fn add(&mut self, e: &Event) {
        let c = e.counters.unwrap_or_default();
        self.spans += 1;
        self.micros += e.dur_us.unwrap_or(0);
        self.instructions += c.instructions;
        self.dram_reads += c.dram_reads;
        self.paths += arg_u64(e, "paths");
    }
}

fn arg_u64(e: &Event, key: &str) -> u64 {
    match e.arg(key) {
        Some(Arg::U64(v)) => *v,
        _ => 0,
    }
}

fn arg_f64(e: &Event, key: &str) -> f64 {
    match e.arg(key) {
        Some(Arg::F64(v)) => *v,
        _ => 0.0,
    }
}

impl JournalSummary {
    /// Aggregates `events` in a single pass.
    pub fn from_events(events: &[Event]) -> Self {
        let mut s = JournalSummary {
            events: events.len(),
            ..Default::default()
        };
        for e in events {
            *s.census.entry(e.kind.as_str()).or_default() += 1;
            s.ranks.extend(e.rank);
            let name = e.name.as_str();
            match e.kind {
                // An attempt that overflowed and was rolled back finished
                // no step of its level: it gets a row of its own.
                EventKind::Level if e.arg("rolled_back").is_some() => s
                    .levels
                    .entry(format!("{name} rolled back"))
                    .or_default()
                    .add(e),
                EventKind::Level => s.levels.entry(e.name.clone()).or_default().add(e),
                // Per-block kernel spans carry no `blocks` argument.
                EventKind::Kernel if e.arg("blocks").is_some() => {
                    s.kernels.entry(e.name.clone()).or_default().add(e)
                }
                EventKind::Plan if name == "hit" => s.plans.0 += 1,
                EventKind::Plan if name == "miss" => s.plans.1 += 1,
                EventKind::Job => {
                    *s.jobs.entry(e.name.clone()).or_default() += 1;
                    if name == "complete" {
                        s.queue_exec_ms.0 += arg_f64(e, "queue_ms");
                        s.queue_exec_ms.1 += arg_f64(e, "exec_ms");
                    }
                }
                EventKind::Arena => {
                    *s.arena.entry(e.name.clone()).or_default() += 1;
                    if name == "high_water" {
                        s.arena_high_water = s.arena_high_water.max(arg_u64(e, "slabs"));
                    }
                }
                EventKind::Policy if name == "prefilter_on" => s.prefilter.0 += 1,
                EventKind::Policy if name == "prefilter_off" => s.prefilter.1 += 1,
                EventKind::Policy => {
                    let p = s.policy.entry(arg_u64(e, "pos")).or_insert_with(|| {
                        let (chi, est) = (arg_u64(e, "constraints"), arg_u64(e, "est_first_len"));
                        (e.name.clone(), chi, est, 0)
                    });
                    p.3 += 1;
                }
                _ => {}
            }
        }
        s
    }

    /// The `--metrics-out` families: matches, the event census, the
    /// per-kernel launch totals and the arena slab counters.
    pub fn metrics(&self, matches: u64) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.push_help("cuts_matches_total", matches as f64, "embeddings found");
        for (kind, n) in &self.census {
            snap.push_labeled("cuts_events_total", &[("kind", kind)], *n as f64);
        }
        for (name, k) in &self.kernels {
            let label = [("kernel", name.as_str())];
            snap.push_labeled("cuts_kernel_launches", &label, k.spans as f64);
            snap.push_labeled("cuts_kernel_micros", &label, k.micros as f64);
            snap.push_labeled("cuts_kernel_instructions", &label, k.instructions as f64);
            snap.push_labeled("cuts_kernel_dram_reads", &label, k.dram_reads as f64);
        }
        let arena = |name: &str| self.arena.get(name).copied().unwrap_or(0) as f64;
        let help = "device allocations backing an arena (one per session)";
        snap.push_help("cuts_arena_carves_total", arena("carve"), help);
        let help = "slabs handed out by arena classes";
        snap.push_help("cuts_arena_slab_acquires_total", arena("acquire"), help);
        let help = "slabs returned to arena classes";
        snap.push_help("cuts_arena_slab_releases_total", arena("release"), help);
        let help = "in-place trie chain growth steps";
        snap.push_help("cuts_arena_chain_grows_total", arena("chain_grow"), help);
        let help = "peak concurrently-held slabs in any class";
        let high_water = self.arena_high_water as f64;
        snap.push_help("cuts_arena_high_water_slabs", high_water, help);
        snap
    }
}

/// The `cuts profile` report: per-kernel and per-level aggregates, the
/// plan, job, arena and policy sections that saw events, and the event
/// census. An empty journal renders a clean two-line report instead of a
/// skeleton of empty sections.
impl fmt::Display for JournalSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.events == 0 {
            writeln!(f, "profile: no events recorded")?;
            return writeln!(
                f,
                "  (the run emitted no journal events; nothing to aggregate)"
            );
        }
        let (events, ranks) = (self.events, self.ranks.len());
        writeln!(f, "profile: {events} event(s), {ranks} rank(s)")?;
        writeln!(f, "  per kernel:")?;
        for (name, k) in &self.kernels {
            let ms = k.micros as f64 / 1e3;
            writeln!(
                f,
                "    {name:<16} {:>6} launch(es) {ms:>9.3} ms  {:>10} instr  {:>10} dram reads",
                k.spans, k.instructions, k.dram_reads
            )?;
        }
        writeln!(f, "  per level:")?;
        for (name, l) in &self.levels {
            let ms = l.micros as f64 / 1e3;
            let (steps, paths) = (l.spans, l.paths);
            writeln!(
                f,
                "    {name:<19} {steps:>6} step(s) {ms:>9.3} ms  {paths:>10} paths"
            )?;
        }
        let (hits, built) = self.plans;
        if hits + built > 0 {
            // A warm-started session can report hits with zero builds.
            let reused = reuse_pct(hits, built);
            writeln!(
                f,
                "  plans:   {built} built, {hits} cache hit(s) ({reused} reused)"
            )?;
        }
        if !self.jobs.is_empty() {
            writeln!(f, "  scheduler jobs:")?;
            write_counts(f, &self.jobs)?;
            let completed = self.jobs.get("complete").copied().unwrap_or(0);
            if completed > 0 {
                let (queue, exec) = self.queue_exec_ms;
                let n = completed as f64;
                writeln!(
                    f,
                    "    queue vs exec:   {queue:.3} ms queued, {exec:.3} ms executing (mean {:.3} / {:.3} ms per job)",
                    queue / n,
                    exec / n
                )?;
            }
        }
        if !self.arena.is_empty() {
            writeln!(f, "  arena slabs:")?;
            write_counts(f, &self.arena)?;
            if self.arena_high_water > 0 {
                let hw = self.arena_high_water;
                writeln!(f, "    high water:      {hw:>6} slab(s) held at once")?;
            }
        }
        let (on, off) = self.prefilter;
        if !self.policy.is_empty() || on + off > 0 {
            writeln!(f, "  kernel policy:")?;
            for (pos, (method, chi, est, times)) in &self.policy {
                writeln!(
                    f,
                    "    level {pos:<2} chi={chi:<2} -> {method:<9} (est first {est}, decided {times}x)"
                )?;
            }
            if on + off > 0 {
                let state = if on > 0 { "active" } else { "disabled" };
                writeln!(
                    f,
                    "    signature prefilter: {state} (on {on}x / off {off}x)"
                )?;
            }
        }
        writeln!(f, "  events by kind:")?;
        write_counts(f, &self.census)
    }
}

/// One `    name   count` row per entry.
fn write_counts<K: fmt::Display>(f: &mut fmt::Formatter<'_>, m: &BTreeMap<K, u64>) -> fmt::Result {
    for (name, n) in m {
        writeln!(f, "    {name:<16} {n:>6}")?;
    }
    Ok(())
}

/// Cache-reuse percentage as text. A session that never planned — a warm
/// start whose every query was seeded from a snapshot — has zero lookups
/// and renders `-` instead of dividing by zero.
pub fn reuse_pct(hits: u64, misses: u64) -> String {
    let total = hits + misses;
    if total == 0 {
        return "-".into();
    }
    format!("{:.0}%", 100.0 * hits as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CounterDelta;
    use crate::trace::{Trace, TraceConfig};

    #[test]
    fn profile_handles_empty_trace() {
        let report = JournalSummary::from_events(&[]).to_string();
        assert!(report.contains("no events recorded"));
        // No skeleton sections on an empty journal.
        assert!(!report.contains("per kernel"));
        assert!(!report.contains("events by kind"));
    }

    #[test]
    fn reuse_pct_guards_zero_lookups() {
        assert_eq!(reuse_pct(0, 0), "-");
        assert_eq!(reuse_pct(3, 1), "75%");
        assert_eq!(reuse_pct(5, 0), "100%");
    }

    /// Per-block spans land in the census but never in the kernel totals
    /// the two renderers print.
    #[test]
    fn only_launch_spans_count_as_launches() {
        let t = Trace::with_config(TraceConfig { per_block: true });
        {
            let mut launch = t.span(EventKind::Kernel, "expand");
            launch.arg("blocks", Arg::U64(2));
            for b in 0..2 {
                let mut s = t.span(EventKind::Kernel, "expand");
                s.arg("block", Arg::U64(b));
                s.counters(CounterDelta {
                    instructions: 5,
                    ..Default::default()
                });
            }
            launch.counters(CounterDelta {
                instructions: 10,
                ..Default::default()
            });
        }
        let s = JournalSummary::from_events(&t.journal().unwrap().snapshot_sorted());
        assert_eq!(s.census["kernel"], 3);
        let k = s.kernels["expand"];
        assert_eq!((k.spans, k.instructions), (1, 10));
        let prom = s.metrics(0).render();
        assert!(prom.contains("cuts_kernel_launches{kernel=\"expand\"} 1\n"));
        assert!(prom.contains("cuts_kernel_instructions{kernel=\"expand\"} 10\n"));
        crate::metrics::validate_exposition(&prom).unwrap();
    }
}
