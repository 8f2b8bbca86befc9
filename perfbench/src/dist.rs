//! `dist-skewed`: `cuts_dist::run` at 2 ranks, one run at a time, over
//! the gowalla and wikiTalk stand-ins. The dist chunk is small enough
//! that runs donate, so Algorithm-3 chunking, donation, wire encoding
//! and the message channels sit on the critical path.

use std::time::Instant;

use cuts_core::reference;
use cuts_dist::DistConfig;
use cuts_gpu_sim::DeviceConfig;
use cuts_graph::{Dataset, Graph, Scale};
use cuts_obs::EventKind;

use crate::harness::{
    check_counts, median, ms, peak_rss_mb, quantile, queries, repeat_setup, round_order,
    rounds_for, HostRef, Phase, Report,
};
use crate::layers::KernelStats;
use crate::tracing::Tracer;
use crate::{rounds, Opts};

/// Rounds per second of `--seconds` (a round takes about 1.05 s on the
/// measurement host in its slow phases).
const ROUNDS_PER_S: f64 = 0.95;

/// Set-ups per run (about 4 ms each).
const SETUP_REPS: usize = 200;

const RANKS: usize = 2;
const DIST_CHUNK: usize = 8;

/// The job list: (data graph, query size, index in `query_set`), ten
/// slots. Sorted by host time on the measurement host: gowalla q4_3
/// three times (about 65 ms), wikiTalk q4_0 four times (about 75 ms),
/// wikiTalk q4_1 (about 95 ms), gowalla q4_4 twice (about 260 ms), so the
/// p50 falls in the middle of the wikiTalk q4_0 runs and the p90 in the
/// middle of the gowalla q4_4 ones. Every run donates (3–6 donations).
pub const JOBS: &[(Dataset, usize, usize)] = &[
    (Dataset::Gowalla, 4, 3),
    (Dataset::Gowalla, 4, 3),
    (Dataset::Gowalla, 4, 3),
    (Dataset::WikiTalk, 4, 0),
    (Dataset::WikiTalk, 4, 0),
    (Dataset::WikiTalk, 4, 0),
    (Dataset::WikiTalk, 4, 0),
    (Dataset::WikiTalk, 4, 1),
    (Dataset::Gowalla, 4, 4),
    (Dataset::Gowalla, 4, 4),
];

const GRAPHS: [Dataset; 2] = [Dataset::Gowalla, Dataset::WikiTalk];

fn graph_index(d: Dataset) -> usize {
    GRAPHS.iter().position(|&g| g == d).expect("listed graph")
}

struct Ready {
    graphs: Vec<Graph>,
    config: DistConfig,
    build_ms: f64,
    profile_ms: f64,
}

/// Builds and profiles the graphs and validates the configuration;
/// every `cuts_dist::run` then plans and carves per rank itself.
fn setup() -> Ready {
    let t = Instant::now();
    let graphs: Vec<Graph> = GRAPHS.iter().map(|d| d.generate(Scale::Tiny)).collect();
    let build_ms = ms(t);
    let t = Instant::now();
    for g in &graphs {
        g.profile();
    }
    let profile_ms = ms(t);
    let config = DistConfig::builder()
        .device(DeviceConfig::v100_like())
        .dist_chunk(DIST_CHUNK)
        .for_ranks(RANKS)
        .build()
        .expect("valid dist config");
    Ready {
        graphs,
        config,
        build_ms,
        profile_ms,
    }
}

#[derive(Default)]
struct DistStats {
    run_ms: Vec<f64>,
    donations: Vec<f64>,
    bytes: u64,
    messages: u64,
    chunks: u64,
    busy_max: Vec<f64>,
    busy_min: Vec<f64>,
    idle: Vec<f64>,
    balance: Vec<f64>,
}

pub fn run(opts: &Opts, report: &mut Report, tracer: &Tracer) {
    let queries = queries(JOBS.iter().map(|&(_, n, i)| (n, i)));
    let mut host = HostRef::new(2);
    let ready = repeat_setup(&mut host, report, SETUP_REPS, setup);

    let mut kernels = KernelStats::default();
    let mut dist = DistStats::default();
    let mut outcomes: Vec<(usize, u64)> = Vec::new();
    let mut matches = 0u64;
    let mut phase = Phase::new("timed");
    let n = JOBS.len();
    let timed = rounds::run(
        rounds_for(opts.seconds, ROUNDS_PER_S),
        opts.trace,
        &mut host,
        report,
        |order, traced, clock, report| {
            let (perm, _) = round_order(opts.seed, order, n);
            for &j in &perm {
                let graph = &ready.graphs[graph_index(JOBS[j].0)];
                let (result, lat) = clock.job(|| {
                    let _job = tracer.span(traced, EventKind::Job, "bench.job");
                    let _s = tracer.span(traced, EventKind::Run, "dist.run");
                    cuts_dist::run(graph, &queries[j], RANKS, &ready.config)
                });
                let r = match result {
                    Ok(r) => r,
                    Err(e) => {
                        phase.record(false);
                        report.error(format!("dist job {j}: {e:?}"));
                        continue;
                    }
                };
                let rank_sum: u64 = r.per_rank.iter().map(|m| m.matches).sum();
                if rank_sum != r.total_matches || !r.recovery.is_clean() {
                    phase.record(false);
                    report.error(format!(
                        "dist job {j}: per-rank sum {rank_sum} vs total {}, recovery clean {}",
                        r.total_matches,
                        r.recovery.is_clean()
                    ));
                    continue;
                }
                outcomes.push((j, r.total_matches));
                if traced {
                    continue;
                }
                matches += r.total_matches;
                kernels.runs += 1;
                kernels.matches += r.total_matches;
                kernels.sim_ms += r.makespan_sim_millis();
                for m in &r.per_rank {
                    kernels.add_counters(&m.counters);
                    dist.bytes += m.bytes_sent;
                    dist.messages += m.messages_sent;
                    dist.chunks += m.jobs_processed as u64;
                }
                let busy: Vec<f64> = r.per_rank.iter().map(|m| m.busy_wall_millis).collect();
                let busy_sum: f64 = busy.iter().sum();
                dist.run_ms.push(lat);
                dist.donations
                    .push(r.per_rank.iter().map(|m| m.donations_sent).sum::<usize>() as f64);
                dist.busy_max.push(busy.iter().cloned().fold(0.0, f64::max));
                dist.busy_min
                    .push(busy.iter().cloned().fold(f64::INFINITY, f64::min));
                dist.idle
                    .push((1.0 - busy_sum / (RANKS as f64 * r.wall_millis)).max(0.0));
                dist.balance.push(r.balance_ratio());
            }
        },
    );

    let outcomes: Vec<_> = outcomes
        .into_iter()
        .map(|(j, got)| (JOBS[j], got))
        .collect();
    check_counts(&mut phase, report, &outcomes, |job| {
        let j = JOBS.iter().position(|&k| k == job).expect("listed job");
        reference::count_embeddings(&ready.graphs[graph_index(job.0)], &queries[j])
    });
    report.phase(phase);

    timed.report_throughput(report, matches);
    timed.report_latency(report);
    rounds::report_host(report, &host, &[&timed]);
    report.end_to_end.set("peak_rss_mb", peak_rss_mb(), "MiB");
    let m = &mut report.per_layer;
    m.set("graph.build_ms", ready.build_ms, "ms");
    m.set("graph.profile_ms", ready.profile_ms, "ms");
    kernels.report(m);
    let runs = dist.run_ms.len().max(1) as f64;
    m.set("dist.run_ms_p50", median(&dist.run_ms), "ms");
    m.set("dist.donations", median(&dist.donations), "count");
    m.set(
        "dist.donations_iqr",
        quantile(&dist.donations, 0.75) - quantile(&dist.donations, 0.25),
        "count",
    );
    m.set("dist.bytes_sent", dist.bytes as f64 / runs, "bytes");
    m.set("dist.messages", dist.messages as f64 / runs, "count");
    m.set("dist.chunks", dist.chunks as f64 / runs, "count");
    m.set("dist.busy_ms_max", median(&dist.busy_max), "ms");
    m.set("dist.busy_ms_min", median(&dist.busy_min), "ms");
    m.set("dist.idle_frac", median(&dist.idle), "ratio");
    m.set("dist.balance_ratio", median(&dist.balance), "ratio");
}
