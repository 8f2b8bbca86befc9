//! The timed phase: a fixed number of rounds of a fixed job list, each
//! round one permutation of the list. Every timed call (one job, or one
//! served stream) sits between two host-reference samples and its wall
//! time is scaled by `HOST_REF_NOMINAL_MS / mean(ref before, ref
//! after)`, so a host slow phase that starts or ends mid-round is
//! tracked call by call. With tracing on, untraced and traced rounds
//! alternate and each pair runs the same permutation, so the tracing
//! overhead is a paired difference.

use std::time::Instant;

use crate::harness::{median, ms, quantile, HostRef, Report, HOST_REF_NOMINAL_MS};

/// What the untraced rounds of one phase measured.
#[derive(Default)]
pub struct Rounds {
    pub jobs: u64,
    pub raw_ms: f64,
    pub norm_ms: f64,
    pub lat_raw: Vec<f64>,
    pub lat_norm: Vec<f64>,
    pub traced_ms: f64,
    pub paired_untraced_ms: f64,
}

/// Times the calls of one round against the host reference.
pub struct Clock<'h> {
    host: &'h mut HostRef,
    last_ref: f64,
    raw_ms: f64,
    norm_ms: f64,
    lat_raw: Vec<f64>,
    lat_norm: Vec<f64>,
}

impl Clock<'_> {
    /// Times `f` as one job; returns its value and raw latency in ms.
    pub fn job<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let value = f();
        let raw = ms(t);
        let factor = self.close(raw);
        self.latency(raw, factor);
        (value, raw)
    }

    /// Adds `raw_ms` of timed work that ended just now to the round's
    /// wall time; returns the factor that normalises it.
    pub fn close(&mut self, raw_ms: f64) -> f64 {
        let after = self.host.sample();
        let factor = HOST_REF_NOMINAL_MS / ((self.last_ref + after) / 2.0);
        self.last_ref = after;
        self.raw_ms += raw_ms;
        self.norm_ms += raw_ms * factor;
        factor
    }

    /// Records one job's latency, measured inside a timed call.
    pub fn latency(&mut self, raw_ms: f64, factor: f64) {
        self.lat_raw.push(raw_ms);
        self.lat_norm.push(raw_ms * factor);
    }
}

/// Runs `rounds` untraced rounds (and as many traced ones, paired, when
/// `traced_pairs`). `round(order_index, traced, clock, report)` runs one
/// round of the job list in the permutation named by `order_index`,
/// timing its jobs with `clock`.
pub fn run(
    rounds: usize,
    traced_pairs: bool,
    host: &mut HostRef,
    report: &mut Report,
    mut round: impl FnMut(u64, bool, &mut Clock, &mut Report),
) -> Rounds {
    let mut out = Rounds::default();
    let total = if traced_pairs { 2 * rounds } else { rounds };
    for r in 0..total as u64 {
        let traced = traced_pairs && r % 2 == 1;
        let order = if traced_pairs { r / 2 } else { r };
        let last_ref = host.sample();
        let mut clock = Clock {
            host: &mut *host,
            last_ref,
            raw_ms: 0.0,
            norm_ms: 0.0,
            lat_raw: Vec::new(),
            lat_norm: Vec::new(),
        };
        round(order, traced, &mut clock, report);
        report
            .rounds
            .push((clock.raw_ms, clock.norm_ms / clock.raw_ms.max(1e-9)));
        if traced {
            out.traced_ms += clock.raw_ms;
            continue;
        }
        if traced_pairs {
            out.paired_untraced_ms += clock.raw_ms;
        }
        out.jobs += clock.lat_raw.len() as u64;
        out.raw_ms += clock.raw_ms;
        out.norm_ms += clock.norm_ms;
        out.lat_raw.extend(clock.lat_raw);
        out.lat_norm.extend(clock.lat_norm);
    }
    out
}

impl Rounds {
    /// `jobs_per_s` and `matches_per_s`, normalised and raw.
    pub fn report_throughput(&self, report: &mut Report, matches: u64) {
        let per_s = |n: f64, t: f64| n / (t / 1e3);
        let jobs = self.jobs as f64;
        report.timing(
            "jobs_per_s",
            per_s(jobs, self.raw_ms),
            per_s(jobs, self.norm_ms),
            "1/s",
        );
        let m = matches as f64;
        report.timing(
            "matches_per_s",
            per_s(m, self.raw_ms),
            per_s(m, self.norm_ms),
            "1/s",
        );
    }

    /// `latency_ms_p50` and `latency_ms_p90`, normalised and raw, and the
    /// per-layer `latency_ms_p99`.
    pub fn report_latency(&self, report: &mut Report) {
        let (raw, norm) = (&self.lat_raw, &self.lat_norm);
        report.timing("latency_ms_p50", median(raw), median(norm), "ms");
        report.timing(
            "latency_ms_p90",
            quantile(raw, 0.9),
            quantile(norm, 0.9),
            "ms",
        );
        report
            .per_layer
            .set("latency_ms_p99", quantile(norm, 0.99), "ms");
    }
}

/// `obs.trace_overhead_frac` over the paired rounds of every phase, and
/// `host.ref_ms` over every reference sample of the run.
pub fn report_host(report: &mut Report, host: &HostRef, phases: &[&Rounds]) {
    report
        .per_layer
        .set("host.ref_ms", median(host.samples()), "ms");
    let traced: f64 = phases.iter().map(|p| p.traced_ms).sum();
    let paired: f64 = phases.iter().map(|p| p.paired_untraced_ms).sum();
    if traced > 0.0 && paired > 0.0 {
        report
            .per_layer
            .set("obs.trace_overhead_frac", traced / paired - 1.0, "ratio");
    }
}
