//! Measurement plumbing shared by every workload: seeded inputs, the
//! host reference loop and round clock, quantiles, metric records, and
//! the process's peak memory.

use std::collections::BTreeMap;
use std::time::Instant;

use cuts_obs::Json;

/// SplitMix64: the only randomness the benchmark uses. Every workload
/// input is drawn from one of these seeded with `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Linear-interpolated quantile (`q` in [0, 1]); 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Host-reference time the normalised timings are scaled to: the
/// reference loop's duration in this host's fast phases (Xeon
/// Sapphire Rapids KVM guest, 2 vCPUs).
pub const HOST_REF_NOMINAL_MS: f64 = 4.0;

/// The host reference: a fixed loop shaped like the engine's inner loop
/// (binary-search intersection of sorted lists, appends to a reused
/// vector, one relaxed atomic per hit) but sharing no code with it. On
/// the measurement host a pure ALU loop stays flat through slow phases
/// in which the engine runs up to 1.7x slower; this loop slows by about
/// 1.6x in the same phases, so it is the yardstick the rounds are
/// normalised by. Run on two threads it also tracks the two-thread
/// workloads, which one thread does not.
pub struct HostRef {
    lists: Vec<Vec<u32>>,
    /// One output vector per concurrent copy of the loop (the busy
    /// threads of the workload it measures), allocated once.
    outs: Vec<Vec<u32>>,
    samples: Vec<f64>,
}

impl HostRef {
    pub fn new(threads: usize) -> HostRef {
        let mut rng = Rng::new(0x4E57);
        let lists = (0..2000)
            .map(|_| {
                let n = 8 + rng.below(120);
                let mut l: Vec<u32> = (0..n).map(|_| (rng.next_u64() >> 50) as u32).collect();
                l.sort_unstable();
                l.dedup();
                l
            })
            .collect();
        HostRef {
            lists,
            outs: (0..threads.max(1))
                .map(|_| Vec::with_capacity(1 << 18))
                .collect(),
            samples: Vec::new(),
        }
    }

    /// Runs the loop on every thread and records the mean, in ms. The
    /// first copy runs on the calling thread, so a one-thread sample
    /// spawns and allocates nothing. Each copy times two passes and
    /// keeps the faster: the first pass after an idle stretch can run
    /// slow.
    pub fn sample(&mut self) -> f64 {
        let lists = &self.lists;
        let (first, rest) = self.outs.split_first_mut().expect("one copy at least");
        let times: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = rest
                .iter_mut()
                .map(|out| s.spawn(move || ref_best_of_two(lists, out)))
                .collect();
            let mut times = vec![ref_best_of_two(lists, first)];
            times.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("reference loop does not panic")),
            );
            times
        });
        let took = times.iter().sum::<f64>() / times.len() as f64;
        self.samples.push(took);
        took
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

fn ref_best_of_two(lists: &[Vec<u32>], out: &mut Vec<u32>) -> f64 {
    ref_pass(lists, out).min(ref_pass(lists, out))
}

fn ref_pass(lists: &[Vec<u32>], out: &mut Vec<u32>) -> f64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    let hits = AtomicU64::new(0);
    let t = Instant::now();
    let n = lists.len();
    for r in 0..3 {
        out.clear();
        for i in 0..n {
            let (x, y) = (&lists[i], &lists[(i * 7 + r + 1) % n]);
            for &e in x {
                if y.binary_search(&e).is_ok() {
                    out.push(e);
                    hits.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
    std::hint::black_box((out.len(), hits.load(Ordering::Relaxed)));
    ms(t)
}

/// The query graphs `specs` name as (vertices, index in `query_set`),
/// made once before any set-up (query generation is input making).
pub fn queries(specs: impl IntoIterator<Item = (usize, usize)>) -> Vec<cuts_graph::Graph> {
    let mut sets: std::collections::HashMap<usize, Vec<cuts_graph::Graph>> = Default::default();
    specs
        .into_iter()
        .map(|(n, i)| {
            let set = sets.entry(n).or_insert_with(|| {
                cuts_graph::query_set(n, 11)
                    .into_iter()
                    .map(|q| q.graph)
                    .collect()
            });
            set[i].clone()
        })
        .collect()
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metric values with units, in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn to_json(&self) -> Json {
        Json::obj(self.0.iter().map(|(k, &(v, unit))| {
            (
                k.clone(),
                Json::obj([("value", Json::F64(v)), ("unit", Json::from(unit))]),
            )
        }))
    }
}

/// Operation accounting for one phase of a workload.
pub struct Phase {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
}

impl Phase {
    pub fn new(name: &'static str) -> Phase {
        Phase {
            name,
            attempted: 0,
            failed: 0,
        }
    }

    /// Counts one operation; `ok == false` is a failure.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Everything one workload run produces.
#[derive(Default)]
pub struct Report {
    pub phases: Vec<Phase>,
    pub end_to_end: Metrics,
    /// Raw (unnormalised) values of the normalised end-to-end timings.
    pub raw: Metrics,
    pub per_layer: Metrics,
    /// Per-layer self time from the traced rounds, in ms.
    pub self_ms: BTreeMap<String, f64>,
    /// (raw ms, normalisation factor) of every timed round.
    pub rounds: Vec<(f64, f64)>,
    pub errors: Vec<String>,
}

impl Report {
    pub fn phase(&mut self, phase: Phase) {
        self.phases.push(phase);
    }

    pub fn error(&mut self, msg: String) {
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.errors.is_empty() && self.attempted() > 0
    }

    /// Records the normalised end-to-end timings and their raw values.
    pub fn timing(&mut self, name: &str, raw: f64, norm: f64, unit: &'static str) {
        self.end_to_end.set(name, norm, unit);
        self.raw.set(name, raw, unit);
    }
}

/// Runs `setup` `reps` times, each between two host-reference samples
/// (consecutive set-ups share one), reports the median as `setup_s` (raw
/// and normalised), and keeps the last result. Each earlier result is
/// dropped before the next set-up.
///
/// A set-up lasts 1 to 100 ms, and on the measurement host one set-up
/// can take 1.5x another in the same process while the reference loop
/// reads the same, so a median over a few reps moves with the phase the
/// reps happen to fall in. Workloads choose `reps` so the set-up phase,
/// reference samples included, lasts two to four seconds: over six
/// processes the IQR / median of the per-process medians fell from 0.20
/// (9 reps) to 0.02 (100 reps) for `solo-skewed`, and from 0.16 to 0.10
/// (40 reps) for `live-updates`.
pub fn repeat_setup<T>(
    host: &mut HostRef,
    report: &mut Report,
    reps: usize,
    mut setup: impl FnMut() -> T,
) -> T {
    let (mut raw_s, mut norm_s) = (Vec::new(), Vec::new());
    let mut kept = None;
    let mut before = host.sample();
    for _ in 0..reps.max(1) {
        drop(kept.take());
        let t = Instant::now();
        let value = setup();
        let raw = t.elapsed().as_secs_f64();
        let after = host.sample();
        raw_s.push(raw);
        norm_s.push(raw * HOST_REF_NOMINAL_MS / ((before + after) / 2.0));
        before = after;
        kept = Some(value);
    }
    report.timing("setup_s", median(&raw_s), median(&norm_s), "s");
    kept.expect("at least one set-up")
}

/// The job order of round `order`: a permutation of `0..n` drawn from
/// the workload seed.
pub fn round_order(seed: u64, order: u64, n: usize) -> (Vec<usize>, Rng) {
    let mut rng = Rng::new(seed ^ order.wrapping_mul(0x9E37_79B9));
    let mut perm: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut perm);
    (perm, rng)
}

/// Checks every `(job, matches)` outcome against the reference count of
/// its job (computed once per distinct job): a mismatch, or a job that
/// matches nothing, is a failed operation of `phase`.
pub fn check_counts<K: Copy + Eq + std::hash::Hash + std::fmt::Debug>(
    phase: &mut Phase,
    report: &mut Report,
    outcomes: &[(K, u64)],
    reference: impl Fn(K) -> u64,
) {
    let mut truth: std::collections::HashMap<K, u64> = std::collections::HashMap::new();
    for &(job, got) in outcomes {
        let want = *truth.entry(job).or_insert_with(|| reference(job));
        phase.record(got == want && got > 0);
        if got != want || got == 0 {
            report.error(format!("{job:?}: {got} matches, reference {want}"));
        }
    }
}

/// Rounds of a timed phase meant to last `seconds` when one round takes
/// `1 / rounds_per_s` seconds; at least 3. The count, not the clock,
/// ends the phase, so every run of a workload does the same work and a
/// slow host phase makes the run longer, not smaller.
pub fn rounds_for(seconds: f64, rounds_per_s: f64) -> usize {
    ((seconds * rounds_per_s).round() as usize).max(3)
}
