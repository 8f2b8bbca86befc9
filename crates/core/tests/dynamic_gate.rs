//! Batch-dynamic gate: streaming edge updates served by the edge-anchored
//! incremental path ([`cuts_core::DynamicSession`]) versus the full
//! recompute a static engine would pay after every batch. Each scenario
//! replays a deterministic schedule of small batches (every batch edits
//! well under 1% of the graph's edges); after each batch the incremental
//! match set must be byte-identical to a cold enumeration over the
//! mutated graph.
//!
//! The headline number is gated: the geometric-mean ratio of simulated
//! recompute time to simulated incremental time across all scenarios must
//! be at least [`MIN_SPEEDUP`], on the small test preset and on the V100
//! preset alike. Simulated device time is deterministic, so the gate is
//! runner-safe.
//!
//! ```sh
//! cargo test --release -p cuts-core --test dynamic_gate -- --nocapture
//! ```

use std::collections::BTreeSet;

use cuts_core::{DynamicSession, EngineConfig, ExecSession};
use cuts_gpu_sim::{Device, DeviceConfig};
use cuts_graph::generators::{barabasi_albert, chain, clique, cycle, erdos_renyi, mesh2d};
use cuts_graph::{EdgeBatch, Graph, VertexId};
use cuts_obs::{Arg, EventKind, Trace};

/// Recompute-to-incremental simulated-time ratio the geomean must clear.
const MIN_SPEEDUP: f64 = 2.0;

/// Edits per batch. Small on purpose: the incremental path's advantage
/// is locality, and every scenario graph has well over `400` edges, so
/// four edits stay under the 1%-of-edges regime.
const EDITS_PER_BATCH: usize = 4;

/// Batches replayed per scenario.
const BATCHES: usize = 3;

/// Deterministic 64-bit LCG (MMIX constants): the schedule must not
/// drift between runs, so no external RNG.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

struct Scenario {
    name: &'static str,
    graph: Graph,
    query: Graph,
    seed: u64,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "mesh-80x80/cycle4",
            graph: mesh2d(80, 80),
            query: cycle(4),
            seed: 1,
        },
        // Preferential attachment: a random edit often lands next to a
        // hub, so anchored expansions fan out widely.
        Scenario {
            name: "ba-3000/triangle",
            graph: barabasi_albert(3000, 6, 42),
            query: clique(3),
            seed: 2,
        },
        Scenario {
            name: "er-4000/chain3",
            graph: erdos_renyi(4000, 16_000, 7),
            query: chain(3),
            seed: 3,
        },
    ]
}

/// Undirected edge set of `g`, canonicalised as `u < v` pairs.
fn edge_set(g: &Graph) -> BTreeSet<(VertexId, VertexId)> {
    g.edges().filter(|(u, v)| u < v).collect()
}

/// The next batch of the schedule: alternating inserts of absent edges
/// and deletes of present ones, tracked against `edges` so inverse pairs
/// and duplicates never collide within one batch.
fn next_batch(
    rng: &mut Lcg,
    n: usize,
    edges: &mut BTreeSet<(VertexId, VertexId)>,
    edits: usize,
) -> EdgeBatch {
    let mut batch = EdgeBatch::new();
    for i in 0..edits {
        if i % 2 == 0 {
            // Insert an edge that does not exist yet.
            loop {
                let u = rng.below(n) as VertexId;
                let v = rng.below(n) as VertexId;
                let key = (u.min(v), u.max(v));
                if u != v && edges.insert(key) {
                    batch.insert(key.0, key.1);
                    break;
                }
            }
        } else {
            // Delete a uniformly chosen existing edge.
            let idx = rng.below(edges.len());
            let key = *edges.iter().nth(idx).expect("non-empty edge set");
            edges.remove(&key);
            batch.delete(key.0, key.1);
        }
    }
    batch
}

/// Replays every scenario's schedule on a device built from `config`
/// and gates the geometric-mean recompute/incremental ratio, printing
/// per-batch simulated milliseconds for each scenario.
fn gate(config: DeviceConfig) {
    // One traced device for the incremental sessions: its journal shows
    // the anchored path ran.
    let trace = Trace::enabled();
    let preset = config.name;
    let mut inc_device = Device::new(config.clone());
    inc_device.set_trace(trace.clone());
    let rec_device = Device::new(config);
    let rec_session = ExecSession::new(&rec_device, EngineConfig::default());

    let mut ln_sum = 0.0f64;
    let mut diverged = Vec::new();
    for sc in scenarios() {
        let mut rng = Lcg(sc.seed);
        let mut edges = edge_set(&sc.graph);
        assert!(
            EDITS_PER_BATCH * 100 <= edges.len(),
            "{}: batches must stay under 1% of {} edges",
            sc.name,
            edges.len()
        );
        let mut live = DynamicSession::new(&inc_device, EngineConfig::default(), sc.graph.clone());
        let qid = live.register(&sc.query).expect("standing query registers");

        let (mut inc_sim, mut rec_sim, mut streamed) = (0.0f64, 0.0f64, 0usize);
        for _ in 0..BATCHES {
            let n = sc.graph.num_vertices();
            let batch = next_batch(&mut rng, n, &mut edges, EDITS_PER_BATCH);
            let outcome = live.apply_batch(&batch).expect("valid batch applies");
            inc_sim += outcome.deltas.iter().map(|d| d.sim_millis).sum::<f64>();
            streamed += outcome.deltas.iter().map(|d| d.len()).sum::<usize>();

            // What a static engine pays: a cold enumeration over the
            // mutated graph. Its matches double as ground truth.
            let mut full: BTreeSet<Vec<VertexId>> = BTreeSet::new();
            let res = rec_session
                .run_enumerate(live.graph(), &sc.query, &mut |m| {
                    full.insert(m.to_vec());
                })
                .expect("recompute succeeds");
            rec_sim += res.sim_millis;
            if live.match_set(qid) != full {
                diverged.push(sc.name);
            }
        }
        let speedup = rec_sim / inc_sim.max(f64::MIN_POSITIVE);
        ln_sum += speedup.ln();
        let per_batch = |ms: f64| ms / BATCHES as f64;
        println!(
            "{preset} {:<18} {:>7.4} ms/batch incremental vs {:>7.4} ms/batch recompute ({speedup:.2}x, {streamed} delta rows)",
            sc.name,
            per_batch(inc_sim),
            per_batch(rec_sim),
        );
    }
    let geomean = (ln_sum / scenarios().len() as f64).exp();
    println!("{preset} geomean speedup {geomean:.2}x (gate {MIN_SPEEDUP:.1}x)");

    // Evidence the anchored path ran: every applied batch emits one
    // `delta` event per standing query, carrying the seeds it launched.
    let events = trace.journal().expect("enabled trace").snapshot_sorted();
    let seeded = events
        .iter()
        .filter(|e| e.kind == EventKind::Batch && e.name == "delta")
        .filter(|e| matches!(e.arg("seeds"), Some(Arg::U64(s)) if *s > 0))
        .count();
    assert!(
        seeded > 0,
        "{preset}: no batch launched a seed: anchored path did not run"
    );
    assert!(
        diverged.is_empty(),
        "{preset}: incremental match sets diverged from recompute: {diverged:?}"
    );
    assert!(
        geomean >= MIN_SPEEDUP,
        "{preset}: incremental speedup below the gate: {geomean:.2}x < {MIN_SPEEDUP:.1}x geomean"
    );
}

/// The small preset's modest bandwidth keeps the roofline memory-bound,
/// so traversal traffic (not fixed launch overhead) decides the
/// comparison.
#[test]
fn incremental_beats_recompute_and_matches_it() {
    gate(DeviceConfig::test_small());
}

/// On the V100 preset fixed launch costs weigh more, so the gate also
/// bounds how many seeded launch sequences a batch pays for.
#[test]
fn incremental_beats_recompute_on_v100_preset() {
    gate(DeviceConfig::v100_like());
}
