//! The cuTS repository benchmark: one workload per process, driven
//! through the engine's public API.
//!
//! ```sh
//! cuts-perfbench --workload solo-skewed --seed 1 --seconds 15 --trace 0 --out .bench_out
//! ```
//!
//! The last line of standard output is one JSON object with the run's
//! operation accounting, its end-to-end metrics (normalised and raw) and
//! the per-layer metrics it measured; `perfbench/run.py` turns it into
//! the result line, filling in as 0 the per-layer metrics it lists as
//! not measured for the workload. With `--trace 1`, untraced and traced
//! rounds alternate, the per-layer self time comes from the traced ones,
//! and the chrome trace is written to the `--out` directory.

mod dist;
mod harness;
mod layers;
mod live;
mod rounds;
mod serve;
mod solo;
mod tracing;

use std::path::PathBuf;

use cuts_obs::Json;

use harness::Report;
use tracing::Tracer;

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => opts.trace = value == "1",
            "--out" => opts.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    let tracer = Tracer::new();
    match opts.workload.as_str() {
        "solo-skewed" => solo::run(&opts, &mut report, &tracer),
        "serve-light" => serve::run(&opts, &mut report, &tracer),
        "dist-skewed" => dist::run(&opts, &mut report, &tracer),
        "live-updates" => live::run(&opts, &mut report, &tracer),
        w => {
            eprintln!("error: unknown workload {w:?}");
            std::process::exit(2);
        }
    }
    if opts.trace {
        finish_trace(&opts, &tracer, &mut report);
    }
    let phases = Json::Arr(
        report
            .phases
            .iter()
            .map(|p| {
                Json::obj([
                    ("name", Json::from(p.name)),
                    ("attempted", Json::U64(p.attempted)),
                    ("succeeded", Json::U64(p.attempted - p.failed)),
                    ("failed", Json::U64(p.failed)),
                ])
            })
            .collect(),
    );
    let out = Json::obj([
        ("workload", Json::from(opts.workload.as_str())),
        ("seed", Json::U64(opts.seed)),
        ("trace", Json::Bool(opts.trace)),
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::U64(report.attempted())),
        ("failed", Json::U64(report.failed())),
        ("phases", phases),
        (
            "errors",
            Json::Arr(
                report
                    .errors
                    .iter()
                    .map(|e| Json::from(e.as_str()))
                    .collect(),
            ),
        ),
        ("end_to_end", report.end_to_end.to_json()),
        ("raw", report.raw.to_json()),
        ("per_layer", report.per_layer.to_json()),
        (
            "rounds",
            Json::Arr(
                report
                    .rounds
                    .iter()
                    .map(|&(raw, f)| Json::Arr(vec![Json::F64(raw), Json::F64(f)]))
                    .collect(),
            ),
        ),
        (
            "self_ms",
            Json::obj(
                report
                    .self_ms
                    .iter()
                    .map(|(k, &v)| (k.clone(), Json::F64(v))),
            ),
        ),
    ]);
    println!("{}", out.render());
    if !report.correct() {
        std::process::exit(1);
    }
}

/// Exports the traced rounds: chrome trace (validated), self-time table,
/// and the `self_frac.*` and `obs.journal_events` metrics.
fn finish_trace(opts: &Opts, tracer: &Tracer, report: &mut Report) {
    let events = tracer.events();
    let path = opts
        .out
        .join(format!("{}-seed{}.trace.json", opts.workload, opts.seed));
    match tracing::write_chrome(&events, &path) {
        Ok(spans) => eprintln!(
            "chrome trace: {} ({spans} spans, validated)",
            path.display()
        ),
        Err(e) => report.error(e),
    }
    let self_ms = tracing::self_times(&events);
    tracing::print_self_table(&self_ms);
    // Shares of the busy time: the open-loop generator's sleeps until a
    // job is due (`wait.*`) are idle, not a layer.
    let busy: f64 = self_ms
        .iter()
        .filter(|(layer, _)| layer.as_str() != "wait")
        .map(|(_, v)| v)
        .sum();
    for (layer, v) in self_ms.iter().filter(|(layer, _)| layer.as_str() != "wait") {
        report
            .per_layer
            .set(&format!("self_frac.{layer}"), v / busy.max(1e-9), "ratio");
    }
    let jobs = events.iter().filter(|e| e.name == "bench.job").count();
    report.per_layer.set(
        "obs.journal_events",
        events.len() as f64 / jobs.max(1) as f64,
        "count",
    );
    report.self_ms = self_ms;
}
