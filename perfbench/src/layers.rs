//! Per-layer numbers read through the public API: the `MatchResult`
//! counters of every run, session and arena statistics, and the timings
//! the benchmark takes around calls into a layer.

use cuts_core::{MatchResult, SessionStats};
use cuts_gpu_sim::Counters;

use crate::harness::{median, quantile, Metrics};

/// Kernel and simulated-device totals over a set of runs.
#[derive(Default)]
pub struct KernelStats {
    pub runs: u64,
    pub run_ms: Vec<f64>,
    pub paths: u64,
    pub matches: u64,
    pub spilled: u64,
    pub sim_ms: f64,
    pub counters: Counters,
}

impl KernelStats {
    /// Adds one run and its host wall time in ms.
    pub fn add(&mut self, r: &MatchResult, run_ms: f64) {
        self.runs += 1;
        self.run_ms.push(run_ms);
        self.paths += r.level_counts.iter().sum::<u64>();
        self.matches += r.num_matches;
        self.spilled += r.used_chunking as u64;
        self.sim_ms += r.sim_millis;
        self.add_counters(&r.counters);
    }

    pub fn add_counters(&mut self, c: &Counters) {
        let t = &mut self.counters;
        t.dram_reads += c.dram_reads;
        t.dram_writes += c.dram_writes;
        t.shmem_reads += c.shmem_reads;
        t.shmem_writes += c.shmem_writes;
        t.atomics += c.atomics;
        t.instructions += c.instructions;
        t.divergent_branches += c.divergent_branches;
        t.kernel_launches += c.kernel_launches;
    }

    /// Writes the `kernels.*`, `session.*` and `gpusim.*` metrics, counts
    /// per run (exact repeats for a given job list). The `kernels.*` and
    /// `session.*` ones need whole runs (`add`); when only counters were
    /// added (the per-rank counters of distributed runs) they stay unset.
    pub fn report(&self, m: &mut Metrics) {
        let per = |v: u64| v as f64 / self.runs.max(1) as f64;
        let c = &self.counters;
        if !self.run_ms.is_empty() {
            m.set("kernels.run_ms_p50", median(&self.run_ms), "ms");
            m.set("kernels.run_ms_p90", quantile(&self.run_ms, 0.9), "ms");
            m.set("kernels.paths", per(self.paths), "count");
            let useful = if self.paths == 0 {
                0.0
            } else {
                self.matches as f64 / self.paths as f64
            };
            m.set("kernels.useful_ratio", useful, "ratio");
            m.set("session.spilled_runs", per(self.spilled), "count");
        }
        m.set("gpusim.sim_ms", self.sim_ms / self.runs.max(1) as f64, "ms");
        m.set(
            "gpusim.dram_words",
            per(c.dram_reads + c.dram_writes),
            "count",
        );
        m.set(
            "gpusim.shmem_words",
            per(c.shmem_reads + c.shmem_writes),
            "count",
        );
        m.set("gpusim.atomics", per(c.atomics), "count");
        m.set("gpusim.instructions", per(c.instructions), "count");
        m.set(
            "gpusim.divergent_branches",
            per(c.divergent_branches),
            "count",
        );
        m.set("gpusim.kernel_launches", per(c.kernel_launches), "count");
    }
}

/// Plan-cache and arena deltas of one session over the timed phase.
pub fn report_session(m: &mut Metrics, before: &SessionStats, after: &SessionStats, jobs: u64) {
    let per = |v: u64| v as f64 / jobs.max(1) as f64;
    m.set(
        "plan.cache_hits",
        per(after.plans.hits - before.plans.hits),
        "count",
    );
    m.set(
        "plan.cache_misses",
        per(after.plans.misses - before.plans.misses),
        "count",
    );
    let (acq, rel, hw) = match (&before.arena, &after.arena) {
        (Some(b), Some(a)) => (
            a.slab_acquires() - b.slab_acquires(),
            arena_releases(a) - arena_releases(b),
            a.high_water_words(),
        ),
        (None, Some(a)) => (a.slab_acquires(), arena_releases(a), a.high_water_words()),
        _ => (0, 0, 0),
    };
    m.set("arena.slab_acquires", per(acq), "count");
    m.set("arena.slab_releases", per(rel), "count");
    m.set("arena.high_water_words", hw as f64, "words");
    m.set(
        "trie.peak_entries",
        after.trie_entries.unwrap_or(0) as f64,
        "entries",
    );
}

pub fn arena_releases(a: &cuts_gpu_sim::ArenaStats) -> u64 {
    a.classes.iter().map(|c| c.releases).sum()
}
