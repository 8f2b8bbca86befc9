//! Counted deepest level: a run with no sink reserves the entries of its
//! last level and charges their writes, but writes none of them
//! (DESIGN.md §13.4). When the level's labels do not constrain it and
//! its back edges imply its degree filter, the kernel counts that level
//! from set sizes instead of scanning each candidate, and when a bound
//! on its entries fits the table it counts the paths in sibling order,
//! with no placement. Nothing else may change, so `run` (counted) and
//! `run_enumerate` with a counting sink (stored, always scanned) must
//! agree on matches, level counts, counters, chunking and simulated
//! time, and the sink must see every leaf: when everything fits, on the
//! hybrid spill, for seeded chunks, when the bound does not fit (the
//! level fits, or overflows and spills), on directed data, on levels
//! that keep the scan (labelled data under a labelled query), and on
//! devices with private ledgers of 1 and 4 cores (where helper blocks
//! stage their runs). Each search launch's kernel span names its mode
//! (`sibling`, `count` or `scan`). The chain-growth case needs a
//! crate-private budgeted run and lives in `session::tests`.

use cuts_core::prelude::*;
use cuts_gpu_sim::{Counters, Device, DeviceConfig};
use cuts_graph::datasets::{Dataset, Scale};
use cuts_graph::generators::{chain, clique, cycle, erdos_renyi, mesh2d, star};
use cuts_graph::{Graph, VertexId};
use cuts_obs::{Arg, EventKind, Trace};
use cuts_trie::HostTrie;
use std::collections::BTreeSet;

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
    assert_eq!(counted, stored(session, data, query));
    counted
}

/// `query` over `data` with a counting sink, which stores every level.
fn stored(session: &ExecSession<'_>, data: &Graph, query: &Graph) -> Outcome {
    let mut leaves = 0u64;
    let stored = outcome(session.run_enumerate(data, query, &mut |_: &[u32]| leaves += 1));
    if let Ok(s) = &stored {
        assert_eq!(leaves, s.num_matches, "the sink sees every leaf");
    }
    stored
}

/// One step of a level in a traced run: whether it rolled back, and the
/// modes of the search launches it made.
#[derive(Debug, PartialEq)]
struct Step {
    rolled_back: bool,
    modes: Vec<String>,
}

/// A traced test device and its trace.
fn traced(config: DeviceConfig) -> (Device, Trace) {
    let mut device = Device::new(config);
    let trace = Trace::enabled();
    device.set_trace(trace.clone());
    (device, trace)
}

/// [`same_either_way`] on a session whose device records to `trace`,
/// with the counted run's steps of its deepest level, in order.
fn traced_either_way(
    session: &ExecSession<'_>,
    trace: &Trace,
    data: &Graph,
    query: &Graph,
) -> (Outcome, Vec<Step>) {
    let journal = trace.journal().unwrap();
    journal.drain_sorted();
    let counted = outcome(session.run(data, query));
    let mut events = journal.drain_sorted();
    // The run records each span on one thread as it closes, so a
    // level's launches come before the level in sequence order.
    events.sort_by_key(|e| e.seq);
    let deepest = format!("level {}", query.num_vertices() - 1);
    let mut modes = Vec::new();
    let mut steps = Vec::new();
    for e in events {
        match e.kind {
            EventKind::Kernel => {
                if let Some(Arg::Str(mode)) = e.arg("mode") {
                    modes.push(mode.clone());
                }
            }
            EventKind::Level => {
                let modes = std::mem::take(&mut modes);
                if e.name == deepest {
                    let rolled_back = e.arg("rolled_back").is_some();
                    steps.push(Step { rolled_back, modes });
                }
            }
            _ => {}
        }
    }
    assert_eq!(counted, stored(session, data, query));
    (counted, steps)
}

/// One step that made one launch in `mode` and finished.
fn one_step(mode: &str) -> Vec<Step> {
    vec![Step {
        rolled_back: false,
        modes: vec![mode.to_string()],
    }]
}

/// Back edges of `query`'s deepest position that name a position below
/// its parent's, on `data`'s plan: the lists siblings share.
fn shared_lists(session: &ExecSession<'_>, data: &Graph, query: &Graph) -> usize {
    let plan = session.plan_over(data, query).unwrap();
    let n = plan.order.len();
    plan.order.back_edges[n - 1]
        .iter()
        .filter(|be| be.pos + 2 < n)
        .count()
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

/// The modes of the kernel launches the trace saw run on more than one
/// host thread (`-` for a launch without a mode).
fn parallel_launches(trace: &Trace) -> Vec<String> {
    trace
        .journal()
        .unwrap()
        .drain_sorted()
        .iter()
        .filter(|e| e.kind == EventKind::Kernel)
        .filter(|e| matches!(e.arg("threads"), Some(Arg::U64(t)) if *t > 1))
        .map(|e| match e.arg("mode") {
            Some(Arg::Str(mode)) => mode.clone(),
            _ => "-".to_string(),
        })
        .collect()
}

/// Counted and stored runs over skewed graphs on a device with a private
/// ledger of `threads` cores, and the modes of the launches that ran on
/// more than one host thread.
fn skewed_runs(threads: usize) -> (Vec<Seen>, Vec<String>) {
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
    (seen, parallel_launches(&trace))
}

#[test]
fn counted_equals_stored_at_host_budgets_of_one_and_four() {
    let (want, parallel) = skewed_runs(1);
    assert!(
        parallel.is_empty(),
        "a 1-core ledger never lends a helper a core"
    );
    // Helpers join a launch only after ~100 µs and may start late on a
    // loaded host: repeat (comparing every attempt) until a sibling-order
    // level ran with one.
    for _ in 0..20 {
        let (got, parallel) = skewed_runs(4);
        assert_eq!(want, got);
        if parallel.iter().any(|mode| mode == "sibling") {
            return;
        }
    }
    panic!("no sibling-order launch ran on more than one thread in 20 attempts");
}

/// Each edge of the first graph of [`graphs`] as one arc (low id to high
/// id), a third of them reciprocated: directed data.
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

/// Directed data: at the deepest position every query arc is a back
/// edge, so adjacency implies the degree filter in each direction and
/// the level is counted, not scanned. Labelled data under a labelled
/// query keeps the scan.
#[test]
fn counted_equals_stored_where_the_scan_stays() {
    let (device, trace) = traced(DeviceConfig::test_small());
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
        let (seen, deepest) = traced_either_way(&session, &trace, &directed, query);
        let counted = deepest.iter().flat_map(|s| &s.modes).all(|m| m != "scan");
        assert!(counted, "directed {query:?}: {deepest:?}");
        found += usize::from(seen.unwrap().num_matches > 0);
    }
    for data in graphs() {
        let tagged = labelled(data.clone());
        for query in queries() {
            let tagged_query = labelled(query.clone());
            // Labelled data under a labelled query: the scan stays.
            let (seen, deepest) = traced_either_way(&session, &trace, &tagged, &tagged_query);
            if !deepest.is_empty() {
                assert_eq!(deepest, one_step("scan"));
            }
            found += usize::from(seen.unwrap().num_matches > 0);
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

/// The sibling-order queries: a single edge, whose deepest position
/// shares no list with its siblings, then one, and two or more.
fn sibling_queries() -> Vec<Graph> {
    vec![
        clique(2),
        clique(3),
        star(4),
        cycle(4),
        clique(4),
        clique(5),
    ]
}

#[test]
fn sibling_order_counts_a_level_whose_bound_fits() {
    let (device, trace) = traced(DeviceConfig::test_small());
    let session = ExecSession::new(&device, EngineConfig::default());
    let (mut shared, mut found) = (BTreeSet::new(), 0);
    for data in &graphs() {
        for query in &sibling_queries() {
            let (seen, deepest) = traced_either_way(&session, &trace, data, query);
            let seen = seen.unwrap();
            if seen.level_counts[query.num_vertices() - 2] == 0 {
                continue; // the frontier drained before the deepest level
            }
            assert_eq!(deepest, one_step("sibling"), "{query:?}");
            shared.insert(shared_lists(&session, data, query).min(2));
            found += usize::from(seen.num_matches > 0);
        }
    }
    assert_eq!(
        shared,
        BTreeSet::from([0, 1, 2]),
        "lists shared: 0, 1 and ≥ 2"
    );
    assert!(found >= 8, "only {found} pairs match anything");
}

#[test]
fn a_level_past_its_bound_counts_per_path_where_it_fits() {
    // The cycle's deepest vertex shares one list with its siblings: its
    // length bounds each path's children, far above what they keep.
    let (device, trace) = traced(DeviceConfig::test_small());
    let session = ExecSession::new(&device, EngineConfig::default());
    let (seen, deepest) = traced_either_way(&session, &trace, &graphs()[0], &cycle(5));
    let seen = seen.unwrap();
    assert_eq!(deepest, one_step("count"));
    assert!(!seen.used_chunking);
    assert!(seen.num_matches > 100_000);
}

#[test]
fn an_overflowing_level_spills_per_path_then_counts_chunks_in_sibling_order() {
    let (device, trace) = traced(DeviceConfig::test_small().with_global_mem_words(1 << 16));
    let session = ExecSession::new(&device, EngineConfig::default());
    let mut spilled = 0;
    for data in &graphs() {
        for query in &queries() {
            let (seen, deepest) = traced_either_way(&session, &trace, data, query);
            let Some(first) = deepest.first().filter(|s| s.rolled_back) else {
                continue;
            };
            // The whole level overflowed in the per-path order, exactly
            // as a stored level does; its chunks then fit their bound.
            assert_eq!(first.modes, ["count"]);
            assert!(seen.unwrap().used_chunking);
            let chunks = deepest[1..].iter().flat_map(|s| &s.modes);
            assert!(chunks.clone().any(|m| m == "sibling"), "{deepest:?}");
            spilled += 1;
        }
    }
    assert!(
        spilled >= 3,
        "only {spilled} pairs spilled their deepest level"
    );
}

/// The first graph of [`graphs`] with a 300-leaf star beside it: its hub
/// makes the longest list far longer than any list a clique's paths
/// share.
fn with_a_far_hub() -> Graph {
    let mut edges: Vec<(VertexId, VertexId)> =
        graphs()[0].edges().filter(|&(u, v)| u < v).collect();
    edges.extend((121..421).map(|leaf| (120, leaf)));
    Graph::undirected(421, &edges)
}

#[test]
fn sibling_order_fits_by_the_shared_lists_where_the_longest_list_does_not() {
    let data = with_a_far_hub();
    let longest = u64::from(data.max_out_degree());
    let words = 1 << 16;
    let (device, trace) = traced(DeviceConfig::test_small().with_global_mem_words(words));
    let session = ExecSession::new(&device, EngineConfig::default());
    for query in [clique(3), clique(4)] {
        let (seen, deepest) = traced_either_way(&session, &trace, &data, &query);
        let frontier = seen.unwrap().level_counts[query.num_vertices() - 2];
        // A table holds fewer entries than half the device's words.
        assert!(frontier * longest > words as u64 / 2);
        assert_eq!(deepest, one_step("sibling"), "{query:?}");
    }
}
