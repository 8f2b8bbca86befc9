//! `solo-skewed`: one caller, one thread, a warm `ExecSession` running a
//! seeded permutation of a fixed job list over the skewed stand-ins.
//! Expansion, intersection and trie writes do nearly all the work; plan
//! lookup is a cache hit.

use std::time::Instant;

use cuts_core::{reference, EngineConfig, ExecSession};
use cuts_gpu_sim::{Device, DeviceConfig};
use cuts_graph::{Dataset, Graph, Scale};
use cuts_obs::EventKind;

use crate::harness::{
    check_counts, ms, peak_rss_mb, queries, repeat_setup, round_order, rounds_for, HostRef, Phase,
    Report,
};
use crate::layers::{report_session, KernelStats};
use crate::tracing::Tracer;
use crate::{rounds, Opts};

/// Rounds per second of `--seconds` (a round takes about 0.56 s on the
/// measurement host in its slow phases).
const ROUNDS_PER_S: f64 = 1.8;

/// Set-ups per run (about 13 ms each).
const SETUP_REPS: usize = 100;

/// The job list: (data graph, query size, index in `query_set`), ten
/// slots. Sorted by host time on the measurement host the slots are:
/// four light jobs (5–7 ms), gowalla q4_2 twice (about 11 ms), wikiTalk
/// q4_0 and q4_1 (70–95 ms), gowalla q4_3 twice (about 115 ms). The
/// p50 thus falls in the middle of one job's samples (gowalla q4_2) and
/// so does the p90 (gowalla q4_3), not in a gap between job sizes.
pub const JOBS: &[(Dataset, usize, usize)] = &[
    (Dataset::Enron, 5, 0),
    (Dataset::Enron, 5, 1),
    (Dataset::Enron, 5, 2),
    (Dataset::Enron, 5, 4),
    (Dataset::Gowalla, 4, 2),
    (Dataset::Gowalla, 4, 2),
    (Dataset::WikiTalk, 4, 0),
    (Dataset::WikiTalk, 4, 1),
    (Dataset::Gowalla, 4, 3),
    (Dataset::Gowalla, 4, 3),
];

const GRAPHS: [Dataset; 3] = [Dataset::Enron, Dataset::Gowalla, Dataset::WikiTalk];

struct Warm<'d> {
    graphs: Vec<Graph>,
    session: ExecSession<'d>,
    build_ms: f64,
    profile_ms: f64,
    plan_ms: f64,
}

/// What a user pays before the first query: build and profile the
/// graphs, build every plan, and carve the arena (the first run does
/// that; it runs the first, light, job of the list).
fn setup<'d>(device: &'d Device, queries: &[Graph]) -> Warm<'d> {
    let t = Instant::now();
    let graphs: Vec<Graph> = GRAPHS.iter().map(|d| d.generate(Scale::Tiny)).collect();
    let build_ms = ms(t);
    let t = Instant::now();
    for g in &graphs {
        g.profile();
    }
    let profile_ms = ms(t);
    let session = ExecSession::new(device, EngineConfig::default());
    let t = Instant::now();
    let plans: Vec<_> = queries
        .iter()
        .map(|q| session.plan_for(q).expect("plan builds"))
        .collect();
    let plan_ms = ms(t) / session.stats().plans.misses.max(1) as f64;
    let gi = graph_index(JOBS[0].0);
    session
        .run_with_plan(&plans[0], &graphs[gi])
        .expect("first run carves the arena");
    Warm {
        graphs,
        session,
        build_ms,
        profile_ms,
        plan_ms,
    }
}

fn graph_index(d: Dataset) -> usize {
    GRAPHS.iter().position(|&g| g == d).expect("listed graph")
}

pub fn run(opts: &Opts, report: &mut Report, tracer: &Tracer) {
    let queries = queries(JOBS.iter().map(|&(_, n, i)| (n, i)));
    let device = Device::new(DeviceConfig::v100_like());
    let mut host = HostRef::new(1);
    let warm = repeat_setup(&mut host, report, SETUP_REPS, || setup(&device, &queries));

    let stats_before = warm.session.stats();
    let allocs_before = device.alloc_calls();
    let mut kernels = KernelStats::default();
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
                let graph = &warm.graphs[graph_index(JOBS[j].0)];
                let mut run_ms = 0.0;
                let (result, _) = clock.job(|| {
                    let _job = tracer.span(traced, EventKind::Job, "bench.job");
                    let plan = {
                        let _s = tracer.span(traced, EventKind::Plan, "plan.plan_for");
                        warm.session.plan_for(&queries[j])
                    };
                    let t = Instant::now();
                    let result = plan.and_then(|p| {
                        let _s = tracer.span(traced, EventKind::Kernel, "kernels.run_with_plan");
                        warm.session.run_with_plan(&p, graph)
                    });
                    run_ms = ms(t);
                    result
                });
                match result {
                    Ok(r) => {
                        if !traced {
                            kernels.add(&r, run_ms);
                            matches += r.num_matches;
                        }
                        outcomes.push((j, r.num_matches));
                    }
                    Err(e) => {
                        phase.record(false);
                        report.error(format!("job {j}: {e}"));
                    }
                }
            }
        },
    );
    let stats_after = warm.session.stats();
    let allocs = device.alloc_calls() - allocs_before;

    // Output check, outside set-up and the timed rounds.
    let outcomes: Vec<_> = outcomes
        .into_iter()
        .map(|(j, got)| (JOBS[j], got))
        .collect();
    check_counts(&mut phase, report, &outcomes, |job| {
        let j = JOBS.iter().position(|&k| k == job).expect("listed job");
        reference::count_embeddings(&warm.graphs[graph_index(job.0)], &queries[j])
    });
    report.phase(phase);

    timed.report_throughput(report, matches);
    timed.report_latency(report);
    rounds::report_host(report, &host, &[&timed]);
    report.end_to_end.set("peak_rss_mb", peak_rss_mb(), "MiB");
    let m = &mut report.per_layer;
    m.set("graph.build_ms", warm.build_ms, "ms");
    m.set("graph.profile_ms", warm.profile_ms, "ms");
    m.set("plan.build_ms", warm.plan_ms, "ms");
    m.set("gpusim.device_allocs", allocs as f64, "count");
    kernels.report(m);
    report_session(m, &stats_before, &stats_after, outcomes.len() as u64);
}
