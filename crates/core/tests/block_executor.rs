//! Block executor equivalence: the expand kernels run their grids on as
//! many host threads as their device's core ledger has cores to lend,
//! staging each block's trie writes and committing them in block order.
//! Nothing a caller can observe may depend on that ledger. Each case runs
//! the same work on a device with a private ledger of one core and on one
//! with a private ledger of four (`Device::set_host_threads`, so the
//! parallel path runs on any host), and asserts identical PA/CA contents,
//! level counts, `MatchResult`s and `Counters`. Every case also checks,
//! from the kernel spans' `threads` arg, that the four-core device really
//! ran some grid on more than one thread.

use std::ops::Range;

use cuts_core::kernels::{expand_range, init_candidates, ExpandParams, Order};
use cuts_core::prelude::*;
use cuts_core::{LevelMethod, MatchOrder};
use cuts_gpu_sim::{Arena, ClassSpec, Counters, Device, DeviceConfig, DeviceError};
use cuts_graph::datasets::{Dataset, Scale};
use cuts_graph::generators::{clique, cycle};
use cuts_graph::Graph;
use cuts_obs::{Arg, EventKind, Trace};
use cuts_trie::{PairTable, Trie};

/// A traced device with a private ledger of `threads` cores.
fn device(config: DeviceConfig, threads: usize) -> (Device, Trace) {
    let mut d = Device::new(config);
    d.set_host_threads(threads);
    let trace = Trace::enabled();
    d.set_trace(trace.clone());
    (d, trace)
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

/// Everything a run reports except its host wall time.
#[derive(Debug, PartialEq)]
struct Observed {
    canonical: Vec<u8>,
    level_counts: Vec<u64>,
    counters: Counters,
    sim_millis: u64,
    used_chunking: bool,
    /// FNV-1a of the embedding stream, in the order the trie emits it.
    stream: u64,
}

fn observe(session: &ExecSession<'_>, data: &Graph, query: &Graph) -> Observed {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let r = session
        .run_enumerate(data, query, &mut |m: &[u32]| {
            for b in m.iter().flat_map(|w| w.to_le_bytes()) {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        })
        .unwrap();
    Observed {
        canonical: r.canonical_bytes(),
        level_counts: r.level_counts.clone(),
        counters: r.counters,
        sim_millis: r.sim_millis.to_bits(),
        used_chunking: r.used_chunking,
        stream: h,
    }
}

fn tiny(d: Dataset) -> Graph {
    d.generate(Scale::Tiny)
}

/// A fixed stride permutation of a frontier's absolute indices (the
/// session's randomized placement, made reproducible).
fn stride_placement(frontier: &Range<usize>) -> Vec<u32> {
    let n = frontier.len().max(1);
    let stride = (1..n.max(2)).rev().find(|s| gcd(*s, n) == 1).unwrap_or(1);
    (0..frontier.len())
        .map(|i| (frontier.start + (i * stride) % n) as u32)
        .collect()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn params<'a>(
    data: &'a Graph,
    plan: &'a MatchOrder,
    pos: usize,
    placement: Option<&'a [u32]>,
) -> ExpandParams<'a> {
    ExpandParams {
        data,
        plan,
        pos,
        vwarp: 4,
        method: LevelMethod::PerPath,
        shared_words: 4096,
        order: Order::PerPath(placement),
        max_blocks: 256,
    }
}

/// Runs `run(threads)` on a private ledger of 1 core and then of 4, and
/// asserts that both observe the same thing. `run` also reports whether
/// any of its launches ran on more than one thread; a 1-core ledger never
/// may, and the four-core run is repeated (every attempt compared) until
/// one did: helpers join a launch only after ~100 µs and may start late
/// on a loaded host, after the caller has finished alone.
fn assert_budget_independent<T: PartialEq + std::fmt::Debug>(run: impl Fn(usize) -> (T, bool)) {
    let (want, parallel) = run(1);
    assert!(!parallel, "a 1-core ledger never lends a helper a core");
    for _ in 0..20 {
        let (got, parallel) = run(4);
        assert_eq!(want, got);
        if parallel {
            return;
        }
    }
    panic!("no launch ran on more than one thread in 20 attempts");
}

#[test]
fn warm_sessions_over_skewed_graphs_are_budget_independent() {
    let gowalla = tiny(Dataset::Gowalla);
    let wiki = tiny(Dataset::WikiTalk);
    let jobs: [(&Graph, Graph); 4] = [
        (&gowalla, clique(4)),
        (&gowalla, cycle(4)),
        (&wiki, clique(3)),
        (&wiki, clique(4)),
    ];
    let config = EngineConfig::default().with_randomize_placement(true);
    assert_budget_independent(|threads| {
        let (d, trace) = device(DeviceConfig::v100_like(), threads);
        let session = ExecSession::new(&d, config.clone());
        // Twice through the list: the second pass runs warm.
        let runs: Vec<Observed> = (0..2)
            .flat_map(|_| jobs.iter().map(|(data, q)| observe(&session, data, q)))
            .collect();
        assert!(runs.iter().all(|r| !r.used_chunking));
        (runs, parallel_launches(&trace) > 0)
    });
}

#[test]
fn hybrid_chunked_runs_are_budget_independent() {
    let data = tiny(Dataset::Gowalla);
    let config = EngineConfig::default().with_chunk_size(64);
    assert_budget_independent(|threads| {
        let dev = DeviceConfig::test_small().with_global_mem_words(1 << 16);
        let (d, trace) = device(dev, threads);
        let session = ExecSession::new(&d, config.clone());
        let r = observe(&session, &data, &cycle(4));
        assert!(r.used_chunking, "the run must fall back to hybrid BFS-DFS");
        (r, parallel_launches(&trace) > 0)
    });
}

#[test]
fn a_run_that_grows_its_chain_is_budget_independent() {
    let data = tiny(Dataset::Gowalla);
    let query = cycle(4);
    let plan = MatchOrder::compute(&query).unwrap();
    assert_budget_independent(|threads| {
        let (d, trace) = device(DeviceConfig::v100_like(), threads);
        // A chained trie that starts at 1024 entries and, like a budgeted
        // session run, truncates an overflowing level, doubles its chain
        // in place and retries.
        let arena = Arena::new(
            &d,
            &[ClassSpec {
                slab_words: 1 << 10,
                slabs: 1 << 10,
            }],
        )
        .unwrap();
        let table = PairTable::chained_on_arena(&arena, 0, 1 << 10, 1 << 19).unwrap();
        let mut trie = Trie::from_table(table);
        init_candidates(&d, &data, &plan, &trie, 256, None).unwrap();
        let mut frontier = trie.seal_level();
        let mut level_counts = vec![frontier.len() as u64];
        let mut grows = 0;
        let mut pos = 1;
        while pos < plan.len() {
            let pre_len = trie.table().len();
            let perm = stride_placement(&frontier);
            let p = params(&data, &plan, pos, Some(&perm));
            match expand_range(&d, &trie, frontier.clone(), &p) {
                Ok(()) => {
                    frontier = trie.seal_level();
                    level_counts.push(frontier.len() as u64);
                    pos += 1;
                }
                Err(DeviceError::BufferOverflow { .. }) => {
                    trie.table().truncate(pre_len);
                    trie.grow_to(2 * trie.capacity()).unwrap();
                    grows += 1;
                }
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(grows > 0, "the run must grow its chain");
        let host = trie.to_host();
        let seen = (
            host.pa,
            host.ca,
            host.levels,
            level_counts,
            d.counters(),
            grows,
        );
        (seen, parallel_launches(&trace) > 0)
    });
}

/// What [`level_two`] observed.
#[derive(Debug, PartialEq)]
struct LevelTwo {
    result: String,
    rows: Vec<(u32, u32)>,
    counters: Counters,
}

/// Expands `query`'s first three levels over `data` into a trie of
/// `capacity` entries. Returns what the level-2 launch left, whether it
/// ran on more than one thread, and the entries of levels 0 and 1.
fn level_two(
    data: &Graph,
    query: &Graph,
    capacity: usize,
    threads: usize,
) -> (LevelTwo, bool, usize) {
    let plan = MatchOrder::compute(query).unwrap();
    let (d, trace) = device(DeviceConfig::v100_like(), threads);
    let mut trie = Trie::on_device(&d, capacity).unwrap();
    init_candidates(&d, data, &plan, &trie, 256, None).unwrap();
    let lvl0 = trie.seal_level();
    let perm = stride_placement(&lvl0);
    expand_range(&d, &trie, lvl0, &params(data, &plan, 1, Some(&perm))).unwrap();
    let lvl1 = trie.seal_level();
    trace.journal().unwrap().drain_sorted();
    let perm = stride_placement(&lvl1);
    let result = expand_range(
        &d,
        &trie,
        lvl1.clone(),
        &params(data, &plan, 2, Some(&perm)),
    );
    let t = trie.table();
    let seen = LevelTwo {
        result: format!("{result:?}"),
        rows: (0..t.len()).map(|i| t.pair(i)).collect(),
        counters: d.counters(),
    };
    (seen, parallel_launches(&trace) > 0, lvl1.end)
}

#[test]
fn a_launch_that_overflows_mid_grid_is_budget_independent() {
    let data = tiny(Dataset::Gowalla);
    let query = cycle(4);
    // Size the trie from an unbounded run: room for levels 0 and 1 and
    // three quarters of level 2, so the level-2 launch overflows after
    // most of its grid has run.
    let (full, _, below) = level_two(&data, &query, 1 << 20, 1);
    let capacity = below + (full.rows.len() - below) * 3 / 4;
    assert_budget_independent(|threads| {
        let (seen, parallel, _) = level_two(&data, &query, capacity, threads);
        assert!(seen.result.contains("BufferOverflow"), "{}", seen.result);
        (seen, parallel)
    });
}
