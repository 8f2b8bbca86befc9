//! Multi-query serving throughput: the bundled job manifest replayed
//! through a serial loop and through a one-rank
//! [`cuts_core::serve::ServeTier`] at 1, 2, and 4 lanes on one simulated
//! device, with per-job results verified byte-identical across all runs.
//! Emits `BENCH_throughput.json`.
//! Absolute jobs/s is the headline number; the lane-speedup *ratio* is
//! advisory only — arena chaining made serial execution so cheap that
//! wall time is dominated by job-arrival pacing, which lanes can only
//! partially overlap, so the ratio sits well below the pre-arena ~3.5×.
//!
//! A second section replays the same stream through the multi-rank
//! [`cuts_core::serve::ServeTier`] at 1, 2, and 4 ranks (one lane each,
//! so the sweep isolates rank scaling; every lane pulls from the tier's
//! one job queue), at a higher pacing factor so
//! simulated device time dominates host compute even on a single-core
//! runner — the regime a real multi-GPU deployment lives in. Unlike the
//! lane ratio, rank scaling is **gated**: the stream's makespan must
//! land within 30% of the scheduling lower bound
//! `max(total work / ranks, longest single job)`, or the bench aborts.
//!
//! ```sh
//! cargo run -p cuts-bench --release --bin throughput -- --quick
//! ```
//!
//! `--quick` (equivalently `CUTS_QUICK=1`) halves the job stream so the
//! CI smoke step finishes in under a second.

use cuts_core::job::parse_manifest;
use cuts_core::prelude::*;
use cuts_obs::{Json, ToJson};

/// Host-seconds of simulated work per simulated millisecond; high enough
/// that overlapping waits (not single-core host compute) dominate, as on
/// a real accelerator.
const PACING: f64 = 40.0;

/// Pacing for the multi-rank sweep: high enough that paced device time
/// dwarfs the host-side planning/estimation work, so rank scaling is
/// measurable even on a single-core CI runner.
const PACING_RANKS: f64 = 800.0;

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

fn single_rank(lanes: usize) -> ServeTier {
    ServeTier::new(
        ServeConfig::builder()
            .lanes(lanes)
            .pacing(PACING)
            .build()
            .expect("valid serve config"),
    )
}

/// The `p`-th percentile (0–100) of total job latency (queue +
/// execution) over completed jobs; 0 when nothing completed.
fn latency_percentile(outcomes: &[JobOutcome], p: f64) -> f64 {
    let mut lat: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.result.is_ok())
        .map(|o| o.queue_millis + o.exec_millis)
        .collect();
    if lat.is_empty() {
        return 0.0;
    }
    lat.sort_by(f64::total_cmp);
    let idx = ((p / 100.0) * (lat.len() - 1) as f64).round() as usize;
    lat[idx.min(lat.len() - 1)]
}

fn verify_identical(serial: &[JobOutcome], sched: &[JobOutcome], lanes: usize) {
    assert_eq!(serial.len(), sched.len());
    for (a, b) in serial.iter().zip(sched) {
        let same = match (&a.result, &b.result) {
            (Ok(x), Ok(y)) => x.canonical_bytes() == y.canonical_bytes(),
            (Err(_), Err(_)) => true,
            _ => false,
        };
        assert!(
            same,
            "job {:?} diverged from serial at {lanes} lane(s)",
            a.id
        );
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("CUTS_QUICK").is_ok_and(|v| v == "1");
    let jobs = manifest_jobs(quick);
    println!(
        "throughput: {} job(s) from the bundled manifest (quick={quick}, pacing={PACING})",
        jobs.len()
    );

    let serial = single_rank(1)
        .run_serial(&jobs)
        .expect("serial run succeeds");
    println!(
        "  serial     {:>8.2} jobs/s  ({:.1} ms wall)",
        serial.jobs_per_sec(),
        serial.wall_millis
    );

    let mut runs: Vec<Json> = Vec::new();
    let mut speedup_4 = 0.0;
    for lanes in [1usize, 2, 4] {
        let report = single_rank(lanes)
            .run_stream(&jobs)
            .expect("served run succeeds");
        verify_identical(&serial.outcomes, &report.outcomes, lanes);
        let speedup = report.jobs_per_sec() / serial.jobs_per_sec();
        if lanes == 4 {
            speedup_4 = speedup;
        }
        let (p50, p99) = (
            latency_percentile(&report.outcomes, 50.0),
            latency_percentile(&report.outcomes, 99.0),
        );
        println!(
            "  {lanes} lane(s)  {:>8.2} jobs/s  ({:.1} ms wall)  speedup {speedup:.2}x  p50 {p50:.1} ms  p99 {p99:.1} ms",
            report.jobs_per_sec(),
            report.wall_millis,
        );
        let mut entry = report.to_json();
        entry.set("p50_millis", Json::F64(p50));
        entry.set("p99_millis", Json::F64(p99));
        entry.set("lanes", Json::U64(lanes as u64));
        entry.set("speedup_vs_serial", Json::F64(speedup));
        runs.push(entry);
    }

    // Multi-rank serving tier: the same stream routed across simulated
    // ranks, one lane each, so the sweep measures rank scaling alone.
    // The ideal makespan is the classic scheduling lower bound —
    // `max(total work / ranks, longest single job)`, taken from the
    // 1-rank run's own per-job execution times — because no rank can
    // split one job with another. Rank scaling is gated: idle lanes
    // pulling from the one queue must land within 30% of that bound.
    const SCALING_GATE: f64 = 0.7;
    let mut rank_runs: Vec<Json> = Vec::new();
    let mut min_eff = f64::INFINITY;
    let mut total_exec = 0.0f64;
    let mut longest_exec = 0.0f64;
    for ranks in [1usize, 2, 4] {
        let tier = ServeTier::new(
            ServeConfig::builder()
                .ranks(ranks)
                .lanes(1)
                .pacing(PACING_RANKS)
                .build()
                .expect("valid serve config"),
        );
        let report = tier.run_stream(&jobs).expect("serve run succeeds");
        verify_identical(&serial.outcomes, &report.outcomes, ranks);
        if ranks == 1 {
            total_exec = report.outcomes.iter().map(|o| o.exec_millis).sum();
            longest_exec = report
                .outcomes
                .iter()
                .map(|o| o.exec_millis)
                .fold(0.0, f64::max);
        }
        let ideal_wall = (total_exec / ranks as f64).max(longest_exec);
        let eff = ideal_wall / report.wall_millis.max(f64::MIN_POSITIVE);
        if ranks > 1 {
            min_eff = min_eff.min(eff);
        }
        println!(
            "  {ranks} rank(s)  {:>8.2} jobs/s  ({:.1} ms wall vs {:.1} ideal, {:.0}%)",
            report.jobs_per_sec(),
            report.wall_millis,
            ideal_wall,
            100.0 * eff,
        );
        let mut entry = report.to_json();
        entry.set("ranks", Json::U64(ranks as u64));
        entry.set("ideal_wall_millis", Json::F64(ideal_wall));
        entry.set("scaling_efficiency", Json::F64(eff));
        rank_runs.push(entry);
    }
    assert!(
        min_eff >= SCALING_GATE,
        "rank scaling below the gate: {:.0}% of ideal < {:.0}%",
        100.0 * min_eff,
        100.0 * SCALING_GATE
    );

    let out = Json::obj([
        ("bench", Json::Str("throughput".into())),
        ("quick", Json::U64(quick as u64)),
        ("jobs", Json::U64(jobs.len() as u64)),
        ("pacing", Json::F64(PACING)),
        ("devices", Json::U64(1)),
        ("serial", serial.to_json()),
        ("runs", Json::arr(runs)),
        ("speedup_4_lanes", Json::F64(speedup_4)),
        ("serve_ranks", Json::arr(rank_runs)),
        ("rank_scaling_efficiency", Json::F64(min_eff)),
        ("rank_scaling_gate", Json::F64(SCALING_GATE)),
        ("identical_to_serial", Json::U64(1)),
    ]);
    std::fs::write("BENCH_throughput.json", out.render()).expect("write BENCH_throughput.json");
    println!(
        "  wrote BENCH_throughput.json (4-lane speedup {speedup_4:.2}x, rank scaling {:.0}% of ideal)",
        100.0 * min_eff
    );
}
