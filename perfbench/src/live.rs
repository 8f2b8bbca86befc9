//! `live-updates`: standing queries over mutating graphs. Two
//! `DynamicSession`s (an 80×80 mesh watching 4-cycles, a
//! Barabási–Albert graph watching triangles) take a seeded stream of
//! small insert/delete batches, each round's batches followed by their
//! inverses. Every batch mutates the CSR, bumps the fingerprint,
//! releases dirty trie subtrees to the arena and re-expands only the
//! dirty roots.
//!
//! The benchmark folds every match delta into its own copy of each
//! match set and compares it with `DynamicSession::recompute` after
//! every round, outside the timed batches.

use std::collections::BTreeSet;
use std::time::Instant;

use cuts_core::dynamic::dirty_ball;
use cuts_core::{DynamicSession, EngineConfig, StandingQueryId};
use cuts_gpu_sim::{Device, DeviceConfig};
use cuts_graph::generators::{barabasi_albert, clique, cycle, mesh2d};
use cuts_graph::{EdgeBatch, Graph, VertexId};
use cuts_obs::EventKind;

use crate::harness::{
    median, ms, peak_rss_mb, repeat_setup, round_order, rounds_for, HostRef, Phase, Report, Rng,
};
use crate::layers::arena_releases;
use crate::tracing::Tracer;
use crate::{rounds, Opts};

/// Rounds per second of `--seconds` (a round takes about 0.59 s on the
/// measurement host in its slow phases).
const ROUNDS_PER_S: f64 = 1.7;

/// Set-ups per run (65 to 100 ms each).
const SETUP_REPS: usize = 40;

/// Forward batches per scenario in one round. Each is later undone by
/// its inverse (last first), so every round starts from the same graph
/// and the work per round does not drift with the number of rounds.
const FORWARD: usize = 3;

/// One standing query over one live graph.
struct Scenario {
    name: &'static str,
    graph: fn() -> Graph,
    query: fn() -> Graph,
    /// Edge deletions (and as many insertions) per batch.
    edits: usize,
}

const SCENARIOS: [Scenario; 2] = [
    Scenario {
        name: "mesh80/cycle4",
        graph: || mesh2d(80, 80),
        query: || cycle(4),
        edits: 24,
    },
    Scenario {
        name: "ba3000/triangle",
        graph: || barabasi_albert(3000, 6, 42),
        query: || clique(3),
        edits: 6,
    },
];

struct Live<'d> {
    session: DynamicSession<'d>,
    id: StandingQueryId,
    /// Dirty-ball radius: query vertices minus one.
    radius: usize,
}

fn setup<'d>(devices: &'d [Device], timings: &mut [f64; 3]) -> Vec<Live<'d>> {
    SCENARIOS
        .iter()
        .zip(devices)
        .map(|(s, device)| {
            let t = Instant::now();
            let graph = (s.graph)();
            timings[0] += ms(t);
            let t = Instant::now();
            graph.profile();
            timings[1] += ms(t);
            let mut session = DynamicSession::new(device, EngineConfig::default(), graph);
            let query = (s.query)();
            let t = Instant::now();
            let id = session.register(&query).expect("standing query registers");
            timings[2] += ms(t);
            Live {
                session,
                id,
                radius: query.num_vertices() - 1,
            }
        })
        .collect()
}

/// A seeded batch against the current graph: `edits` distinct existing
/// edges deleted and `edits` absent two-hop edges inserted.
fn next_batch(g: &Graph, edits: usize, rng: &mut Rng) -> EdgeBatch {
    let n = g.num_vertices();
    let mut del: BTreeSet<(VertexId, VertexId)> = BTreeSet::new();
    let mut ins: BTreeSet<(VertexId, VertexId)> = BTreeSet::new();
    while del.len() < edits {
        let u = rng.below(n) as VertexId;
        let nb = g.out_neighbors(u);
        if nb.is_empty() {
            continue;
        }
        let v = nb[rng.below(nb.len())];
        del.insert((u.min(v), u.max(v)));
    }
    while ins.len() < edits {
        let u = rng.below(n) as VertexId;
        let nb = g.out_neighbors(u);
        if nb.is_empty() {
            continue;
        }
        let w = nb[rng.below(nb.len())];
        let nb2 = g.out_neighbors(w);
        let v = nb2[rng.below(nb2.len())];
        let e = (u.min(v), u.max(v));
        if u != v && !g.has_edge(u, v) && !del.contains(&e) {
            ins.insert(e);
        }
    }
    let mut b = EdgeBatch::new();
    for &(u, v) in &del {
        b.delete(u, v);
    }
    for &(u, v) in &ins {
        b.insert(u, v);
    }
    b
}

#[derive(Default)]
struct DynStats {
    dirty_roots: u64,
    reseeded: u64,
    released: u64,
    delta_paths: u64,
    batches: u64,
    /// Batches applied in every round, traced ones included.
    applied: u64,
    shadow_apply_ms: Vec<f64>,
    dirty_ball_ms: Vec<f64>,
}

pub fn run(opts: &Opts, report: &mut Report, tracer: &Tracer) {
    let devices: Vec<Device> = SCENARIOS
        .iter()
        .map(|_| Device::new(DeviceConfig::v100_like()))
        .collect();
    let mut host = HostRef::new(1);
    let mut timings = [0.0; 3];
    let mut live = repeat_setup(&mut host, report, SETUP_REPS, || {
        timings = [0.0; 3];
        setup(&devices, &mut timings)
    });

    let mut folded: Vec<BTreeSet<Vec<VertexId>>> =
        live.iter().map(|l| l.session.match_set(l.id)).collect();
    let mut phase = Phase::new("batches");
    let mut checks = Phase::new("checkpoints");
    let mut stats = DynStats::default();
    let mut delta_total = 0u64;
    let arena_before: Vec<_> = live
        .iter()
        .map(|l| l.session.session().stats().arena)
        .collect();
    let timed = rounds::run(
        rounds_for(opts.seconds, ROUNDS_PER_S),
        opts.trace,
        &mut host,
        report,
        |order, traced, clock, report| {
            // Every round starts from the same graphs, so a traced round
            // replays its untraced partner's batches exactly.
            let (_, mut rng) = round_order(opts.seed, order, 0);
            let mut undo: Vec<Vec<EdgeBatch>> = vec![Vec::new(); SCENARIOS.len()];
            for b in 0..2 * FORWARD * SCENARIOS.len() {
                let si = b % SCENARIOS.len();
                let l = &mut live[si];
                let batch = if b < FORWARD * SCENARIOS.len() {
                    let batch = next_batch(l.session.graph(), SCENARIOS[si].edits, &mut rng);
                    undo[si].push(batch.inverse());
                    batch
                } else {
                    undo[si].pop().expect("one inverse per forward batch")
                };
                if opts.trace && !traced {
                    // Layer timings on a shadow copy, off the timed path.
                    let mut shadow = l.session.graph().clone();
                    let t = Instant::now();
                    let delta = shadow.apply_batch(&batch).expect("valid batch");
                    stats.shadow_apply_ms.push(ms(t));
                    let t = Instant::now();
                    let ball = dirty_ball(&shadow, &delta, l.radius);
                    stats.dirty_ball_ms.push(ms(t));
                    std::hint::black_box(ball.len());
                }
                let (outcome, _) = clock.job(|| {
                    let _job = tracer.span(traced, EventKind::Job, "bench.job");
                    let _s = tracer.span(traced, EventKind::Batch, "dynamic.apply_batch");
                    l.session.apply_batch(&batch)
                });
                let outcome = match outcome {
                    Ok(o) => o,
                    Err(e) => {
                        phase.record(false);
                        report.error(format!("{} batch: {e:?}", SCENARIOS[si].name));
                        continue;
                    }
                };
                let set = &mut folded[si];
                let mut ok = outcome.deltas.len() == 1;
                for d in &outcome.deltas {
                    for e in &d.removed {
                        ok &= set.remove(e);
                    }
                    for e in &d.added {
                        ok &= set.insert(e.clone());
                    }
                    if !traced {
                        stats.dirty_roots += d.dirty_roots as u64;
                        stats.reseeded += d.reseeded as u64;
                        stats.released += d.released_entries as u64;
                        stats.delta_paths += d.len() as u64;
                        delta_total += d.len() as u64;
                    }
                }
                stats.applied += 1;
                if !traced {
                    stats.batches += 1;
                }
                phase.record(ok);
                if !ok {
                    report.error(format!(
                        "{}: delta does not apply to the folded set",
                        SCENARIOS[si].name
                    ));
                }
            }
            // Checkpoint: the folded deltas equal a full recompute.
            for (si, l) in live.iter().enumerate() {
                let fresh = l.session.recompute(l.id);
                let ok = matches!(&fresh, Ok(f) if *f == folded[si]);
                checks.record(ok);
                if !ok {
                    report.error(format!(
                        "{}: folded deltas differ from recompute",
                        SCENARIOS[si].name
                    ));
                }
            }
        },
    );
    report.phase(phase);
    report.phase(checks);

    timed.report_throughput(report, delta_total);
    timed.report_latency(report);
    rounds::report_host(report, &host, &[&timed]);
    report.end_to_end.set("peak_rss_mb", peak_rss_mb(), "MiB");
    let m = &mut report.per_layer;
    let per = |v: u64| v as f64 / stats.batches.max(1) as f64;
    m.set("graph.build_ms", timings[0], "ms");
    m.set("graph.profile_ms", timings[1], "ms");
    m.set("dynamic.register_ms", timings[2], "ms");
    m.set(
        "graph.apply_batch_ms_p50",
        median(&stats.shadow_apply_ms),
        "ms",
    );
    m.set(
        "dynamic.dirty_ball_ms_p50",
        median(&stats.dirty_ball_ms),
        "ms",
    );
    m.set("dynamic.dirty_roots", per(stats.dirty_roots), "count");
    m.set("dynamic.reseeded", per(stats.reseeded), "count");
    m.set("dynamic.released_entries", per(stats.released), "count");
    m.set("dynamic.delta_paths", per(stats.delta_paths), "count");
    m.set(
        "dynamic.reseed_yield",
        stats.delta_paths as f64 / stats.reseeded.max(1) as f64,
        "ratio",
    );
    let (mut acquires, mut releases, mut high_water) = (0, 0, 0);
    for (l, before) in live.iter().zip(&arena_before) {
        if let (Some(a), Some(b)) = (l.session.session().stats().arena, before) {
            acquires += a.slab_acquires() - b.slab_acquires();
            releases += arena_releases(&a) - arena_releases(b);
            high_water += a.high_water_words();
        }
    }
    let applied = stats.applied.max(1) as f64;
    m.set("arena.slab_acquires", acquires as f64 / applied, "count");
    m.set("arena.slab_releases", releases as f64 / applied, "count");
    m.set("arena.high_water_words", high_water as f64, "words");
}
