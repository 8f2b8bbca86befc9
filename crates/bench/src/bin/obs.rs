//! Telemetry overhead: the bundled job manifest replayed through the
//! serial executor with serving telemetry (registry + flight recorder)
//! enabled and disabled, interleaved and min-of-reps, plus ns/record
//! microbenchmarks for every hot-path instrument. Emits `BENCH_obs.json`.
//!
//! The always-on budget is ≤5% wall overhead with byte-identical per-job
//! results; the process aborts if either is violated.
//!
//! ```sh
//! cargo run -p cuts-bench --release --bin obs -- --quick
//! ```
//!
//! `--quick` (equivalently `CUTS_QUICK=1`) halves the job stream to
//! about 3 ms per replay and takes 100 reps per arm: on a 2-core host
//! the min of 3 such replays read anywhere from −7% to +8%, the min of
//! 40 up to +8%, and the min of 100 mostly within ±2.5%.

use cuts_core::job::parse_manifest;
use cuts_core::prelude::*;
use cuts_obs::flight;
use cuts_obs::{Arg, EventKind, Json, Registry};
use std::time::Instant;

fn manifest_jobs(quick: bool) -> Vec<Job> {
    let text = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../manifests/serve_demo.jobs"
    ));
    let mut jobs = parse_manifest(text).expect("bundled manifest parses");
    if quick {
        jobs.truncate(jobs.len() / 2);
    }
    jobs
}

fn tier_for(telemetry: bool) -> ServeTier {
    ServeTier::new(
        ServeConfig::builder()
            .telemetry(telemetry)
            .build()
            .expect("valid serve config"),
    )
}

/// One serial replay; returns (wall ms, per-job canonical bytes).
fn replay(jobs: &[Job], telemetry: bool) -> (f64, Vec<Option<Vec<u8>>>) {
    flight::set_enabled(telemetry);
    let report = tier_for(telemetry)
        .run_serial(jobs)
        .expect("serial run succeeds");
    flight::set_enabled(true);
    let bytes = report
        .outcomes
        .iter()
        .map(|o| o.result.as_ref().ok().map(|r| r.canonical_bytes()))
        .collect();
    (report.wall_millis, bytes)
}

/// Nanoseconds per call of `f`, amortised over `n` calls.
fn ns_per(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..n {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("CUTS_QUICK").is_ok_and(|v| v == "1");
    let jobs = manifest_jobs(quick);
    let reps = if quick { 100 } else { 7 };
    println!(
        "obs overhead: {} job(s) from the bundled manifest, {reps} rep(s)/arm (quick={quick})",
        jobs.len()
    );

    // Interleave the arms so clock drift and cache warmup hit both
    // equally; take the fastest rep of each (noise only adds time).
    let (mut wall_off, mut wall_on) = (f64::INFINITY, f64::INFINITY);
    let (mut bytes_off, mut bytes_on) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let (w, b) = replay(&jobs, false);
        wall_off = wall_off.min(w);
        bytes_off = b;
        let (w, b) = replay(&jobs, true);
        wall_on = wall_on.min(w);
        bytes_on = b;
    }
    assert_eq!(
        bytes_off, bytes_on,
        "telemetry must not change any job's result"
    );
    let overhead_pct = 100.0 * (wall_on - wall_off) / wall_off;
    println!("  telemetry off  {wall_off:>9.3} ms wall (min of {reps})");
    println!("  telemetry on   {wall_on:>9.3} ms wall (min of {reps})");
    println!("  overhead       {overhead_pct:>9.2} %  (budget 5%)");

    // Per-instrument cost: one record on the hot path.
    let n: u64 = if quick { 200_000 } else { 1_000_000 };
    let reg = Registry::enabled();
    let hist = reg.histogram("bench_hist_ns", &[("arm", "on")], "microbench");
    let hist_ns = ns_per(n, |i| hist.record(i));
    let counter = reg.counter("bench_counter_ns", &[("arm", "on")], "microbench");
    let counter_ns = ns_per(n, |_| counter.inc());
    let off = Registry::disabled();
    let dhist = off.histogram("bench_hist_ns", &[("arm", "off")], "microbench");
    let disabled_ns = ns_per(n, |i| dhist.record(i));
    let flight_ns = ns_per(n, |i| {
        flight::record(EventKind::Heartbeat, "busy", None, &[("i", Arg::U64(i))])
    });
    flight::set_enabled(true);
    println!("  hist.record     {hist_ns:>8.1} ns   counter.inc {counter_ns:>8.1} ns");
    println!("  disabled path   {disabled_ns:>8.1} ns   flight.record {flight_ns:>8.1} ns");

    let out = Json::obj([
        ("bench", Json::Str("obs".into())),
        ("quick", Json::U64(quick as u64)),
        ("jobs", Json::U64(jobs.len() as u64)),
        ("reps", Json::U64(reps as u64)),
        ("wall_off_ms", Json::F64(wall_off)),
        ("wall_on_ms", Json::F64(wall_on)),
        ("overhead_pct", Json::F64(overhead_pct)),
        ("overhead_budget_pct", Json::F64(5.0)),
        ("identical_results", Json::U64(1)),
        ("hist_record_ns", Json::F64(hist_ns)),
        ("counter_inc_ns", Json::F64(counter_ns)),
        ("disabled_record_ns", Json::F64(disabled_ns)),
        ("flight_record_ns", Json::F64(flight_ns)),
    ]);
    std::fs::write("BENCH_obs.json", out.render()).expect("write BENCH_obs.json");
    println!("  wrote BENCH_obs.json");

    assert!(
        overhead_pct <= 5.0,
        "telemetry overhead {overhead_pct:.2}% exceeds the 5% budget \
         ({wall_off:.3} ms off vs {wall_on:.3} ms on)"
    );
}
