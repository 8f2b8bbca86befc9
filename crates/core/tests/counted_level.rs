//! Counted deepest level: a run with no sink reserves the entries of its
//! last level and charges their writes, but writes none of them
//! (DESIGN.md §13.4). On symmetric data whose labels do not constrain the
//! level, and whose back edges imply its degree filter, the kernel counts
//! that level from set sizes instead of scanning each candidate. Nothing
//! else may change, so `run` (counted) and `run_enumerate` with a
//! counting sink (stored, always scanned) must agree on matches, level
//! counts, counters, chunking and simulated time, and the sink must see
//! every leaf: when everything fits, on the hybrid spill, for seeded
//! chunks, on levels that keep the scan (directed data, labelled data
//! under a labelled query), and on devices with private ledgers of 1 and
//! 4 cores (where helper blocks stage their runs). The chain-growth case
//! needs a crate-private budgeted run and lives in `session::tests`.

use cuts_core::prelude::*;
use cuts_gpu_sim::{Counters, Device, DeviceConfig};
use cuts_graph::datasets::{Dataset, Scale};
use cuts_graph::generators::{chain, clique, cycle, erdos_renyi, mesh2d, star};
use cuts_graph::{Graph, VertexId};
use cuts_obs::{Arg, EventKind, Trace};
use cuts_trie::HostTrie;

/// Everything a run reports except its host wall time.
#[derive(Debug, PartialEq)]
struct Seen {
    num_matches: u64,
    level_counts: Vec<u64>,
    counters: Counters,
    used_chunking: bool,
    sim_millis: u64,
}

impl From<MatchResult> for Seen {
    fn from(r: MatchResult) -> Self {
        Seen {
            num_matches: r.num_matches,
            level_counts: r.level_counts,
            counters: r.counters,
            used_chunking: r.used_chunking,
            sim_millis: r.sim_millis.to_bits(),
        }
    }
}

fn graphs() -> Vec<Graph> {
    vec![erdos_renyi(120, 700, 11), star(40), mesh2d(12, 12)]
}

/// A triangle with a pendant edge (the shape of q4_2).
fn paw() -> Graph {
    Graph::undirected(4, &[(0, 1), (1, 2), (0, 2), (2, 3)])
}

fn queries() -> Vec<Graph> {
    vec![
        clique(3),
        clique(4),
        cycle(4),
        cycle(5),
        chain(3),
        chain(4),
        star(4),
        paw(),
    ]
}

/// What a run saw, or its error.
type Outcome = Result<Seen, String>;

fn outcome(r: Result<MatchResult, EngineError>) -> Outcome {
    r.map(Seen::from).map_err(|e| format!("{e:?}"))
}

/// Runs `query` over `data` counted and stored and asserts they agree;
/// returns what the counted run saw.
fn same_either_way(session: &ExecSession<'_>, data: &Graph, query: &Graph) -> Outcome {
    let counted = outcome(session.run(data, query));
    let mut leaves = 0u64;
    let stored = outcome(session.run_enumerate(data, query, &mut |_: &[u32]| leaves += 1));
    if let Ok(s) = &stored {
        assert_eq!(leaves, s.num_matches, "the sink sees every leaf");
    }
    assert_eq!(counted, stored);
    counted
}

/// Every graph × query pair on a session over `config`.
fn every_pair(config: DeviceConfig) -> Vec<Outcome> {
    let device = Device::new(config);
    let session = ExecSession::new(&device, EngineConfig::default());
    let mut seen = Vec::new();
    for data in &graphs() {
        for query in &queries() {
            seen.push(same_either_way(&session, data, query));
        }
    }
    seen
}

#[test]
fn counted_equals_stored_when_everything_fits() {
    let seen: Vec<Seen> = every_pair(DeviceConfig::test_small())
        .into_iter()
        .map(Result::unwrap)
        .collect();
    assert!(seen.iter().all(|s| !s.used_chunking));
    assert!(seen.iter().filter(|s| s.num_matches > 0).count() >= 10);
}

#[test]
fn counted_equals_stored_on_the_hybrid_spill() {
    let seen = every_pair(DeviceConfig::test_small().with_global_mem_words(2048));
    assert!(
        seen.iter()
            .filter(|s| matches!(s, Ok(s) if s.used_chunking))
            .count()
            >= 6,
        "the pairs with work must spill to hybrid BFS-DFS"
    );
}

/// Depth-2 seeds: the first `n` data arcs whose ends pass the degree
/// filters of the plan's first two query vertices, as a dist chunk.
fn seed(session: &ExecSession<'_>, data: &Graph, query: &Graph, n: usize) -> HostTrie {
    let order = &session.plan_over(data, query).unwrap().order;
    let mut paths = Vec::new();
    for v in 0..data.num_vertices() as u32 {
        if !data.degree_dominates(v, order.q_out[0], order.q_in[0]) {
            continue;
        }
        for &w in data.out_neighbors(v) {
            if paths.len() < n && data.degree_dominates(w, order.q_out[1], order.q_in[1]) {
                paths.push(vec![v, w]);
            }
        }
    }
    HostTrie::from_flat_paths(&paths)
}

#[test]
fn counted_equals_stored_for_seeded_chunks() {
    for config in [
        DeviceConfig::test_small(),
        DeviceConfig::test_small().with_global_mem_words(2048),
    ] {
        let device = Device::new(config);
        let session = ExecSession::new(&device, EngineConfig::default());
        for data in &graphs() {
            for query in [clique(4), cycle(4), chain(4)] {
                let chunk = seed(&session, data, &query, 64);
                if chunk.is_empty() {
                    continue;
                }
                let plan = session.plan_over(data, &query).unwrap();
                let counted = session.run_seeded(data, &query, &chunk).unwrap();
                let mut leaves = 0u64;
                let stored = session
                    .run_seeded_enumerate(&plan, data, &chunk, &mut |_: &[u32]| leaves += 1)
                    .unwrap();
                assert_eq!(leaves, stored.num_matches);
                assert_eq!(Seen::from(counted), Seen::from(stored));
            }
        }
    }
}

/// Kernel launches the trace saw run on more than one host thread.
fn parallel_launches(trace: &Trace) -> usize {
    trace
        .journal()
        .unwrap()
        .drain_sorted()
        .iter()
        .filter(|e| e.kind == EventKind::Kernel)
        .filter(|e| matches!(e.arg("threads"), Some(Arg::U64(t)) if *t > 1))
        .count()
}

/// Counted and stored runs over skewed graphs on a device with a private
/// ledger of `threads` cores, and whether any launch ran on more than one
/// host thread.
fn skewed_runs(threads: usize) -> (Vec<Seen>, bool) {
    let gowalla = Dataset::Gowalla.generate(Scale::Tiny);
    let wiki = Dataset::WikiTalk.generate(Scale::Tiny);
    let mut device = Device::new(DeviceConfig::v100_like());
    device.set_host_threads(threads);
    let trace = Trace::enabled();
    device.set_trace(trace.clone());
    let session = ExecSession::new(&device, EngineConfig::default());
    let seen = [
        (&gowalla, clique(4)),
        (&gowalla, cycle(4)),
        (&wiki, clique(4)),
    ]
    .iter()
    .map(|(data, query)| same_either_way(&session, data, query).unwrap())
    .collect();
    (seen, parallel_launches(&trace) > 0)
}

#[test]
fn counted_equals_stored_at_host_budgets_of_one_and_four() {
    let (want, parallel) = skewed_runs(1);
    assert!(!parallel, "a 1-core ledger never lends a helper a core");
    // Helpers join a launch only after ~100 µs and may start late on a
    // loaded host: repeat (comparing every attempt) until one did.
    for _ in 0..20 {
        let (got, parallel) = skewed_runs(4);
        assert_eq!(want, got);
        if parallel {
            return;
        }
    }
    panic!("no launch ran on more than one thread in 20 attempts");
}

/// Each edge of the first graph of [`graphs`] as one arc (low id to high
/// id), a third of them reciprocated: directed data, so every level keeps
/// its scan.
fn directed_data() -> Graph {
    let arcs: Vec<(VertexId, VertexId)> = graphs()[0]
        .edges()
        .filter(|&(u, v)| u < v || (u + v) % 3 == 0)
        .collect();
    Graph::directed(120, &arcs)
}

/// `g` with vertex `v` labelled `v % 3`.
fn labelled(g: Graph) -> Graph {
    let labels = (0..g.num_vertices() as u32).map(|v| v % 3).collect();
    g.with_labels(labels)
}

#[test]
fn counted_equals_stored_where_the_scan_stays() {
    let device = Device::new(DeviceConfig::test_small());
    let session = ExecSession::new(&device, EngineConfig::default());
    let one_way = [
        Graph::directed(3, &[(0, 1), (1, 2)]),
        Graph::directed(3, &[(0, 1), (1, 2), (2, 0)]),
        Graph::directed(4, &[(0, 1), (0, 2), (0, 3)]),
    ];
    let mut found = 0;
    let directed = directed_data();
    assert!(!directed.is_symmetric());
    for query in queries().iter().chain(&one_way) {
        let seen = same_either_way(&session, &directed, query).unwrap();
        found += usize::from(seen.num_matches > 0);
    }
    for data in graphs() {
        let tagged = labelled(data.clone());
        for query in queries() {
            let tagged_query = labelled(query.clone());
            // Labelled data under a labelled query: the scan stays.
            let seen = same_either_way(&session, &tagged, &tagged_query).unwrap();
            found += usize::from(seen.num_matches > 0);
            // With either side unlabelled the label does not constrain,
            // so these levels are counted.
            same_either_way(&session, &tagged, &query).unwrap();
            same_either_way(&session, &data, &tagged_query).unwrap();
        }
    }
    assert!(
        found >= 12,
        "only {found} of the scanned inputs match anything"
    );
}

/// gowalla q4_4, a 3-star: its deepest level is counted from the hub
/// lists' sizes (millions of leaves).
#[test]
fn counted_equals_stored_on_the_gowalla_star() {
    let gowalla = Dataset::Gowalla.generate(Scale::Tiny);
    let q4_4 = cuts_graph::query_set(4, 11)[4].graph.clone();
    assert_eq!((q4_4.num_input_edges(), q4_4.max_out_degree()), (3, 3));
    let device = Device::new(DeviceConfig::v100_like());
    let session = ExecSession::new(&device, EngineConfig::default());
    let seen = same_either_way(&session, &gowalla, &q4_4).unwrap();
    assert!(seen.num_matches > 1_000_000);
}
