//! Golden engine counters. The kernels' host mechanism (how an
//! intersection is computed, how a parent chain is walked, how a run of
//! children is written) is free to change; what the simulated device
//! observes is not. Each case pins, for a small fixed run:
//!
//! * `num_matches` and `level_counts`,
//! * all eight simulated `Counters` fields,
//! * a hash of the trie layout — `Trie::to_host()` PA/CA for the
//!   kernel-level case, the in-trie-order embedding stream for engine
//!   runs. The serving path has no embedding sink, so the chain-growth
//!   case pins the trie capacity its run settled on instead.
//!
//! The values were recorded before the host inner loop was rewritten and
//! must stay bit-for-bit equal.

use std::sync::Arc;

use cuts_core::job::Job;
use cuts_core::kernels::{expand_range, init_candidates, ExpandParams, Order};
use cuts_core::prelude::*;
use cuts_core::{IntersectStrategy, LevelMethod, MatchOrder};
use cuts_gpu_sim::{Counters, Device, DeviceConfig};
use cuts_graph::datasets::{Dataset, Scale};
use cuts_graph::generators::{chain, clique, cycle, erdos_renyi};
use cuts_graph::Graph;
use cuts_obs::{EventKind, Trace};
use cuts_trie::Trie;

/// FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn words(&mut self, words: &[u32]) {
        for w in words {
            for b in w.to_le_bytes() {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
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

#[derive(Debug, PartialEq, Eq)]
struct Golden {
    matches: u64,
    level_counts: Vec<u64>,
    counters: [u64; 8],
    layout: u64,
}

/// Runs `query` over `data` through a fresh engine, hashing every
/// embedding in the order the trie emits it.
/// Also returns whether the run fell back to hybrid BFS-DFS chunking.
fn engine_golden(
    device: &Device,
    config: EngineConfig,
    data: &Graph,
    query: &Graph,
) -> (Golden, bool) {
    let engine = ExecSession::new(device, config);
    let mut h = Fnv::new();
    let r = engine
        .run_enumerate(data, query, &mut |m: &[u32]| h.words(m))
        .unwrap();
    let golden = Golden {
        matches: r.num_matches,
        level_counts: r.level_counts,
        counters: fields(&r.counters),
        layout: h.0,
    };
    (golden, r.used_chunking)
}

fn skewed() -> Graph {
    Dataset::Gowalla.generate(Scale::Custom(1.0 / 2048.0))
}

#[test]
fn randomized_placement_runs() {
    let device = Device::new(DeviceConfig::test_small());
    let data = skewed();
    let cases = [
        (IntersectStrategy::Auto, clique(4)),
        (IntersectStrategy::CIntersection, cycle(4)),
        (IntersectStrategy::PIntersection, cycle(4)),
        (IntersectStrategy::Bitmap, cycle(4)),
    ];
    let want = [
        Golden {
            matches: 96,
            level_counts: vec![134, 646, 384, 96],
            counters: [36085, 2520, 18571, 16467, 596, 100189, 5279, 4],
            layout: 15757759855149946117,
        },
        Golden {
            matches: 2208,
            level_counts: vec![182, 825, 6090, 2208],
            counters: [180222, 18610, 241543, 62967, 2650, 579397, 29706, 4],
            layout: 2482598957884196357,
        },
        Golden {
            matches: 2208,
            level_counts: vec![182, 825, 6090, 2208],
            counters: [215757, 18610, 39549, 36405, 2650, 374457, 52232, 4],
            layout: 2482598957884196357,
        },
        Golden {
            matches: 2208,
            level_counts: vec![182, 825, 6090, 2208],
            counters: [180222, 18610, 122302, 124494, 2650, 618205, 36434, 4],
            layout: 2482598957884196357,
        },
    ];
    for ((strategy, query), want) in cases.iter().zip(want) {
        let config = EngineConfig::default()
            .with_intersect(*strategy)
            .with_randomize_placement(true);
        let (got, chunked) = engine_golden(&device, config, &data, query);
        assert!(!chunked);
        assert_eq!(got, want, "{strategy:?}");
    }
}

#[test]
fn chunked_run() {
    let data = erdos_renyi(50, 250, 5);
    let device = Device::new(DeviceConfig::test_small().with_global_mem_words(2048));
    let config = EngineConfig::default().with_chunk_size(8);
    let (got, chunked) = engine_golden(&device, config, &data, &chain(4));
    assert!(chunked, "the run must fall back to hybrid BFS-DFS");
    let want = Golden {
        matches: 36358,
        level_counts: vec![50, 450, 4094, 36358],
        counters: [174932, 82696, 138886, 62840, 4922, 607446, 18660, 586],
        layout: 9945236576185080085,
    };
    assert_eq!(got, want);
}

#[test]
fn chain_growth_retry_run() {
    // Undershoots the §5 estimate, so the budgeted run overflows and
    // grows its trie chain in place before it completes.
    let trace = Trace::enabled();
    let tier = ServeTier::new(
        ServeConfig::builder()
            .ranks(1)
            .device_config(DeviceConfig::test_small().with_global_mem_words(1 << 14))
            .sigma(0.01)
            .trace(trace.clone())
            .build()
            .unwrap(),
    );
    let job = Job::new(Arc::new(erdos_renyi(48, 140, 7)), Arc::new(chain(5)));
    let report = tier.run_serial(&[job]).unwrap();
    let grows = trace
        .journal()
        .unwrap()
        .snapshot_sorted()
        .iter()
        .filter(|e| e.kind == EventKind::Arena && e.name == "chain_grow")
        .count();
    assert!(grows > 0, "the run must grow its chain");
    let r = report.outcomes[0].result.as_ref().unwrap();
    let got = Golden {
        matches: r.num_matches,
        level_counts: r.level_counts.clone(),
        counters: fields(&r.counters),
        layout: report.outcomes[0].trie_entries as u64,
    };
    let want = Golden {
        matches: 32030,
        level_counts: vec![48, 258, 1324, 6620, 32030],
        counters: [278293, 99668, 235715, 105540, 10964, 914335, 47426, 27],
        layout: 7168,
    };
    assert_eq!(got, want);
}

/// Drives the two kernels directly with a fixed placement permutation, so
/// the whole PA/CA layout — not just the leaves — is pinned.
#[test]
fn kernel_level_trie_layout() {
    let data = skewed();
    let query = clique(4);
    let plan = MatchOrder::compute(&query).unwrap();
    let device = Device::new(DeviceConfig::test_small());
    let mut trie = Trie::on_device(&device, 1 << 16).unwrap();
    init_candidates(&device, &data, &plan, &trie, 64, None).unwrap();
    let mut frontier = trie.seal_level();
    let mut level_counts = vec![frontier.len() as u64];
    for pos in 1..plan.len() {
        // A fixed stride permutation of the frontier's absolute indices.
        let n = frontier.len();
        let stride = (1..n.max(2)).rev().find(|s| gcd(*s, n) == 1).unwrap_or(1);
        let perm: Vec<u32> = (0..n)
            .map(|i| (frontier.start + (i * stride) % n.max(1)) as u32)
            .collect();
        let params = ExpandParams {
            data: &data,
            plan: &plan,
            pos,
            vwarp: [1, 4, 32][pos % 3],
            method: LevelMethod::PerPath,
            shared_words: [4096, 64, 4096][pos % 3],
            order: Order::PerPath(Some(&perm)),
            max_blocks: 64,
        };
        expand_range(&device, &trie, frontier, &params).unwrap();
        frontier = trie.seal_level();
        level_counts.push(frontier.len() as u64);
    }
    let host = trie.to_host();
    let mut h = Fnv::new();
    h.words(&host.pa);
    h.words(&host.ca);
    let got = Golden {
        matches: frontier.len() as u64,
        level_counts,
        counters: fields(&device.counters()),
        layout: h.0,
    };
    let want = Golden {
        matches: 96,
        level_counts: vec![139, 656, 384, 96],
        counters: [36001, 2550, 18675, 16534, 530, 131397, 5029, 4],
        layout: 9469196154803662500,
    };
    assert_eq!(got, want);

    // A launch that overflows part-way: every block stops at its first
    // failed reservation, and the charges up to that point are pinned.
    let device = Device::new(DeviceConfig::test_small());
    let trie = Trie::on_device(&device, 600).unwrap();
    init_candidates(&device, &data, &plan, &trie, 64, None).unwrap();
    let mut trie = trie;
    let lvl0 = trie.seal_level();
    let params = ExpandParams {
        data: &data,
        plan: &plan,
        pos: 1,
        vwarp: 4,
        method: LevelMethod::PerPath,
        shared_words: 4096,
        order: Order::PerPath(None),
        max_blocks: 64,
    };
    assert!(expand_range(&device, &trie, lvl0, &params).is_err());
    assert_eq!(
        fields(&device.counters()),
        [2755, 1200, 571, 786, 178, 7689, 200, 2]
    );
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}
