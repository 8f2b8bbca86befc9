//! Golden counters for the GSI and Gunrock baselines. Their grids run
//! through the ordered launch, whose helper threads may join any launch
//! that runs long enough; nothing the simulated device observes may
//! depend on that. Each case pins, for a small fixed run:
//!
//! * `num_matches` and `level_counts`,
//! * all eight simulated `Counters` fields,
//!
//! on a device with a private ledger of one core and on one with a
//! private ledger of four (`Device::set_host_threads`). The values were
//! recorded while the baselines still ran their blocks in order on one
//! thread, and must stay bit-for-bit equal.

use cuts_baseline::{CutsError, GsiEngine, GunrockEngine};
use cuts_core::MatchResult;
use cuts_gpu_sim::{Counters, Device, DeviceConfig, DeviceError};
use cuts_graph::datasets::{Dataset, Scale};
use cuts_graph::generators::{chain, clique, cycle, erdos_renyi, mesh2d};
use cuts_graph::Graph;
use cuts_obs::{Arg, EventKind, Trace};

#[derive(Debug, Clone, Copy)]
enum Engine {
    Gsi,
    Gunrock,
}

#[derive(Debug, PartialEq, Eq)]
struct Golden {
    matches: u64,
    level_counts: Vec<u64>,
    counters: [u64; 8],
}

/// The eight counter fields in declaration order.
fn fields(c: &Counters) -> [u64; 8] {
    [
        c.dram_reads,
        c.dram_writes,
        c.shmem_reads,
        c.shmem_writes,
        c.atomics,
        c.instructions,
        c.divergent_branches,
        c.kernel_launches,
    ]
}

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

fn run(engine: Engine, d: &Device, data: &Graph, query: &Graph) -> Result<MatchResult, CutsError> {
    match engine {
        Engine::Gsi => GsiEngine::new(d).run(data, query),
        Engine::Gunrock => GunrockEngine::new(d).run(data, query),
    }
}

fn golden(r: &MatchResult) -> Golden {
    Golden {
        matches: r.num_matches,
        level_counts: r.level_counts.clone(),
        counters: fields(&r.counters),
    }
}

fn observe(
    engine: Engine,
    config: DeviceConfig,
    threads: usize,
    data: &Graph,
    query: &Graph,
) -> (Golden, bool) {
    let (d, trace) = device(config, threads);
    let r = run(engine, &d, data, query).unwrap();
    (golden(&r), parallel_launches(&trace) > 0)
}

/// Runs `run(threads)` on a private ledger of 1 core and then of 4, and
/// asserts that both observe the same thing. `run` also reports whether
/// any of its launches ran on more than one thread; a 1-core ledger never
/// may. With `need_helpers` the four-core run is repeated (every attempt
/// compared) until one did: helpers join a launch only after ~100 µs and
/// may start late on a loaded host, after the caller has finished alone.
fn assert_budget_independent<T: PartialEq + std::fmt::Debug>(
    need_helpers: bool,
    run: impl Fn(usize) -> (T, bool),
) -> T {
    let (want, parallel) = run(1);
    assert!(!parallel, "a 1-core ledger never lends a helper a core");
    for _ in 0..20 {
        let (got, parallel) = run(4);
        assert_eq!(want, got);
        if parallel || !need_helpers {
            return want;
        }
    }
    panic!("no launch ran on more than one thread in 20 attempts");
}

#[test]
fn small_cases_are_golden_at_one_and_four_cores() {
    let mesh = mesh2d(4, 4);
    let er = erdos_renyi(40, 120, 3);
    let golden = |matches, level_counts: &[u64], counters| Golden {
        matches,
        level_counts: level_counts.to_vec(),
        counters,
    };
    let cases = [
        (
            Engine::Gsi,
            &mesh,
            chain(3),
            golden(
                104,
                &[16, 48, 104],
                [1520, 554, 768, 464, 128, 8218, 128, 7],
            ),
        ),
        (
            Engine::Gsi,
            &mesh,
            clique(3),
            golden(0, &[16, 48, 0], [1216, 242, 896, 432, 128, 9954, 224, 7]),
        ),
        (
            Engine::Gsi,
            &mesh,
            cycle(4),
            golden(
                72,
                &[16, 48, 104, 72],
                [4296, 1051, 3528, 1496, 336, 28787, 544, 10],
            ),
        ),
        (
            Engine::Gsi,
            &er,
            chain(3),
            golden(
                1144,
                &[40, 219, 1144],
                [10793, 4430, 6149, 3425, 518, 46173, 518, 7],
            ),
        ),
        (
            Engine::Gsi,
            &er,
            clique(3),
            golden(
                138,
                &[39, 218, 138],
                [8581, 1405, 10481, 3155, 514, 51642, 950, 7],
            ),
        ),
        (
            Engine::Gsi,
            &er,
            cycle(4),
            golden(
                664,
                &[39, 218, 1134, 664],
                [53337, 9318, 64263, 19691, 2782, 301783, 5050, 10],
            ),
        ),
        (
            Engine::Gunrock,
            &mesh,
            chain(3),
            golden(104, &[16, 48, 104], [760, 336, 0, 200, 64, 4584, 64, 3]),
        ),
        (
            Engine::Gunrock,
            &mesh,
            clique(3),
            golden(0, &[16, 48, 0], [608, 128, 368, 184, 16, 5144, 112, 3]),
        ),
        (
            Engine::Gunrock,
            &mesh,
            cycle(4),
            golden(
                72,
                &[16, 48, 104, 72],
                [1992, 480, 800, 664, 136, 15136, 272, 4],
            ),
        ),
        (
            Engine::Gunrock,
            &er,
            chain(3),
            golden(
                1144,
                &[39, 219, 1144],
                [5342, 2804, 0, 1582, 258, 26787, 258, 3],
            ),
        ),
        (
            Engine::Gunrock,
            &er,
            clique(3),
            golden(
                138,
                &[39, 218, 138],
                [4241, 790, 4618, 1449, 149, 26939, 475, 3],
            ),
        ),
        (
            Engine::Gunrock,
            &er,
            cycle(4),
            golden(
                664,
                &[39, 218, 1134, 664],
                [24918, 4110, 23120, 9150, 757, 157002, 2525, 4],
            ),
        ),
    ];
    for (engine, data, query, want) in cases {
        let got = assert_budget_independent(false, |threads| {
            observe(engine, DeviceConfig::test_small(), threads, data, &query)
        });
        assert_eq!(got, want, "{engine:?} {query:?}");
    }
}

/// A tiny dataset stand-in whose deeper launches run for milliseconds,
/// so helper threads join them on the four-core ledger.
#[test]
fn a_tiny_dataset_is_golden_with_helpers() {
    let data = Dataset::Enron.generate(Scale::Tiny);
    let want = [
        (
            Engine::Gsi,
            Golden {
                matches: 274248,
                level_counts: vec![216, 1024, 21693, 274248],
                counters: [2106385, 1210204, 1908947, 672351, 45866, 8402535, 45866, 10],
            },
        ),
        (
            Engine::Gunrock,
            Golden {
                matches: 274248,
                level_counts: vec![154, 968, 21693, 274248],
                counters: [1013858, 594126, 0, 322572, 22787, 4823661, 22815, 4],
            },
        ),
    ];
    for (engine, want) in want {
        let got = assert_budget_independent(true, |threads| {
            observe(engine, DeviceConfig::v100_like(), threads, &data, &chain(4))
        });
        assert_eq!(got, want, "{engine:?}");
    }
}

/// Gunrock's next level is a buffer of half the free memory; on a
/// 2^20-word device the deepest chain level does not fit. The launch
/// fails with the same error, after the same work, at either budget.
#[test]
fn a_gunrock_level_overflows_alike_at_one_and_four_cores() {
    let data = Dataset::Enron.generate(Scale::Tiny);
    let config = DeviceConfig::test_small().with_global_mem_words(1 << 20);
    let got = assert_budget_independent(true, |threads| {
        let (d, trace) = device(config.clone(), threads);
        let err = match run(Engine::Gunrock, &d, &data, &chain(4)) {
            Err(CutsError::Device(e)) => e,
            other => panic!("expected a device error, got {other:?}"),
        };
        ((err, fields(&d.counters())), parallel_launches(&trace) > 0)
    });
    let want = (
        DeviceError::BufferOverflow { capacity: 393177 },
        [757392, 438804, 0, 240732, 17319, 3599048, 17342, 4],
    );
    assert_eq!(got, want);
}
