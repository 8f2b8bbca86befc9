//! Arena chain-growth bench: build a trie-shaped pair table past its
//! initial capacity under two growth disciplines. The **copy** baseline
//! is the pre-arena pool behaviour — on overflow, allocate a
//! doubled-capacity table from the device allocator and copy every
//! committed entry across. The **chain** path is the arena discipline —
//! on overflow, append fresh slabs to the chain (`grow_to`), touching
//! nothing already written. Same entries in, same entries out; the
//! headline number is the geomean copy/chain build-time ratio and the PR
//! gate is ≥ 1.15×. Emits `BENCH_arena.json`.
//!
//! ```sh
//! cargo run -p cuts-bench --release --bin arena -- --quick
//! ```
//!
//! `--quick` (equivalently `CUTS_QUICK=1`) keeps only the first cases so
//! the CI smoke step stays fast. The warm serving stream's zero-allocation
//! gate is a test:
//! `crates/core/tests/sched_equivalence.rs::warm_stream_performs_zero_device_allocations`.

use std::time::Instant;

use cuts_bench::{geomean, quick_from_env};
use cuts_gpu_sim::{Arena, ClassSpec, Device, DeviceConfig};
use cuts_obs::Json;
use cuts_trie::PairTable;

struct Case {
    name: &'static str,
    /// Entries the table starts with (the under-estimate).
    start: usize,
    /// Entries the build actually commits.
    total: usize,
    /// Entries appended per reservation (a frontier chunk).
    batch: usize,
}

fn cases(quick: bool) -> Vec<Case> {
    let mut v = vec![
        Case {
            name: "grow-1k-to-64k",
            start: 1 << 10,
            total: 1 << 16,
            batch: 509,
        },
        Case {
            name: "grow-4k-to-256k",
            start: 1 << 12,
            total: 1 << 18,
            batch: 1021,
        },
    ];
    if !quick {
        v.extend([
            Case {
                name: "grow-1k-to-256k",
                start: 1 << 10,
                total: 1 << 18,
                batch: 773,
            },
            Case {
                name: "grow-16k-to-512k",
                start: 1 << 14,
                total: 1 << 19,
                batch: 2039,
            },
        ]);
    }
    v
}

fn device() -> Device {
    Device::new(DeviceConfig::test_small().with_global_mem_words(1 << 24))
}

/// Appends `n` synthetic frontier entries starting at logical index
/// `base` through an already-successful reservation.
fn fill(r: &cuts_trie::PairRange<'_>, base: usize, n: usize) {
    for k in 0..n {
        let v = (base + k) as u32;
        r.write(k, v ^ 0x5555, v);
    }
}

/// Pool/copy discipline: overflow allocates a doubled table from the
/// device allocator and copies every committed entry. Returns
/// `(entries_copied, build_ms)`.
fn build_with_copies(device: &Device, c: &Case) -> (u64, f64) {
    let start = Instant::now();
    let mut table = PairTable::on_device(device, c.start).expect("baseline alloc");
    let mut written = 0usize;
    let mut copied = 0u64;
    while written < c.total {
        let n = c.batch.min(c.total - written);
        let ok = match table.reserve(n) {
            Ok(r) => {
                fill(&r, written, n);
                true
            }
            Err(_) => false,
        };
        if ok {
            written += n;
            continue;
        }
        let bigger_cap = (table.capacity() * 2).max(written + n);
        let bigger = PairTable::on_device(device, bigger_cap).expect("baseline regrow");
        {
            let r = bigger.reserve(written).expect("copy fits the new table");
            for i in 0..written {
                r.write(i, table.parent(i), table.candidate(i));
            }
        }
        copied += written as u64;
        table = bigger;
    }
    assert_eq!(table.len(), c.total);
    (copied, start.elapsed().as_secs_f64() * 1e3)
}

/// Arena chain discipline: overflow appends slabs; committed entries are
/// never touched. Returns `(chain_grows, build_ms)`; the carve is timed
/// too, so the chain pays its full setup cost here.
fn build_with_chain(device: &Device, c: &Case) -> (u64, f64) {
    let start = Instant::now();
    let slabs = 2 * (c.total.div_ceil(c.start) + 1);
    let arena = Arena::new(
        device,
        &[ClassSpec {
            slab_words: c.start,
            slabs,
        }],
    )
    .expect("carve fits the device");
    let table = PairTable::chained_on_arena(&arena, 0, c.start, c.total).expect("chain start");
    let mut written = 0usize;
    let mut grows = 0u64;
    while written < c.total {
        let n = c.batch.min(c.total - written);
        match table.reserve(n) {
            Ok(r) => {
                fill(&r, written, n);
                written += n;
            }
            Err(_) => {
                let target = (table.capacity() * 2).max(written + n).min(c.total);
                table.grow_to(target).expect("chain growth");
                grows += 1;
            }
        }
    }
    assert_eq!(table.len(), c.total);
    assert_eq!(arena.stats().device_allocs, 1, "chain must never re-alloc");
    (grows, start.elapsed().as_secs_f64() * 1e3)
}

fn best_of(reps: usize, mut f: impl FnMut() -> (u64, f64)) -> (u64, f64) {
    let mut best = f();
    for _ in 1..reps {
        let next = f();
        assert_eq!(next.0, best.0, "repeat builds must behave identically");
        if next.1 < best.1 {
            best = next;
        }
    }
    best
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick") || quick_from_env();
    let cases = cases(quick);
    println!(
        "arena: {} case(s), copy-on-growth baseline vs slab-chain growth (quick={quick})",
        cases.len()
    );
    println!(
        "{:<18} {:>10} {:>8} {:>12} {:>12} {:>8}",
        "case", "copied", "grows", "copy ms", "chain ms", "ratio"
    );

    let reps = if quick { 3 } else { 5 };
    let mut entries: Vec<Json> = Vec::new();
    let mut ratios: Vec<f64> = Vec::new();
    for c in &cases {
        let d = device();
        let (copied, copy_ms) = best_of(reps, || build_with_copies(&d, c));
        let (grows, chain_ms) = best_of(reps, || build_with_chain(&d, c));
        let ratio = copy_ms / chain_ms.max(f64::MIN_POSITIVE);
        ratios.push(ratio);
        println!(
            "{:<18} {:>10} {:>8} {:>12.3} {:>12.3} {:>7.2}x",
            c.name, copied, grows, copy_ms, chain_ms, ratio
        );
        entries.push(Json::obj([
            ("case", Json::Str(c.name.into())),
            ("entries", Json::U64(c.total as u64)),
            ("entries_copied_baseline", Json::U64(copied)),
            ("chain_grows", Json::U64(grows)),
            ("copy_ms", Json::F64(copy_ms)),
            ("chain_ms", Json::F64(chain_ms)),
            ("ratio", Json::F64(ratio)),
        ]));
    }

    let g = geomean(&ratios).unwrap_or(0.0);
    let out = Json::obj([
        ("bench", Json::Str("arena".into())),
        ("quick", Json::U64(quick as u64)),
        ("cases", Json::arr(entries)),
        ("geomean_copy_over_chain", Json::F64(g)),
    ]);
    std::fs::write("BENCH_arena.json", out.render()).expect("write BENCH_arena.json");
    println!("  wrote BENCH_arena.json (geomean copy/chain {g:.2}x, gate >= 1.15x)");
    assert!(g >= 1.15, "copy/chain ratio {g:.2}x below the 1.15x gate");
}
