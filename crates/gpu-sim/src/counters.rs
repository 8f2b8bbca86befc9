//! Hardware metric counters (the simulated Nsight Compute).

use std::cell::RefCell;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cuts_obs::{CounterDelta, Json, ToJson};

/// A snapshot of hardware metrics. All units are events (reads/writes are in
/// words, instructions in dynamic instruction count).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// Words read from global memory (DRAM).
    pub dram_reads: u64,
    /// Words written to global memory.
    pub dram_writes: u64,
    /// Words read from shared memory.
    pub shmem_reads: u64,
    /// Words written to shared memory.
    pub shmem_writes: u64,
    /// Atomic operations on global memory.
    pub atomics: u64,
    /// Dynamic instructions executed (SASS-level proxy).
    pub instructions: u64,
    /// Warp-divergent branch events.
    pub divergent_branches: u64,
    /// Kernel launches.
    pub kernel_launches: u64,
}

impl Counters {
    /// Total DRAM traffic in words.
    pub fn dram_total(&self) -> u64 {
        self.dram_reads + self.dram_writes
    }

    /// Ratio helper: `self.field / other.field` with zero-guard, used by the
    /// Table 3 `--metrics` report.
    pub fn ratio(num: u64, den: u64) -> f64 {
        if den == 0 {
            if num == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            num as f64 / den as f64
        }
    }

    /// [`Counters::ratio`] rendered for reports: `"5.0"`, or `"inf"` when
    /// the denominator is zero. Raw `f64::INFINITY` used to leak into
    /// JSON output (where it is unrepresentable); report paths must go
    /// through this (or a [`cuts_obs::Json`] tree, whose writer emits
    /// non-finite floats as strings).
    pub fn ratio_str(num: u64, den: u64) -> String {
        let r = Self::ratio(num, den);
        if r.is_finite() {
            format!("{r:.1}")
        } else {
            "inf".to_string()
        }
    }
}

impl From<Counters> for CounterDelta {
    fn from(c: Counters) -> CounterDelta {
        CounterDelta {
            dram_reads: c.dram_reads,
            dram_writes: c.dram_writes,
            shmem_reads: c.shmem_reads,
            shmem_writes: c.shmem_writes,
            atomics: c.atomics,
            instructions: c.instructions,
            divergent_branches: c.divergent_branches,
            kernel_launches: c.kernel_launches,
        }
    }
}

impl ToJson for Counters {
    fn to_json(&self) -> Json {
        CounterDelta::from(*self).to_json()
    }
}

impl AddAssign for Counters {
    fn add_assign(&mut self, rhs: Self) {
        self.dram_reads += rhs.dram_reads;
        self.dram_writes += rhs.dram_writes;
        self.shmem_reads += rhs.shmem_reads;
        self.shmem_writes += rhs.shmem_writes;
        self.atomics += rhs.atomics;
        self.instructions += rhs.instructions;
        self.divergent_branches += rhs.divergent_branches;
        self.kernel_launches += rhs.kernel_launches;
    }
}

/// Per-block counter cell: plain `u64` fields bumped inside one thread
/// block's execution, merged into the device aggregate once at block end.
/// Keeping the hot-path increments non-atomic is exactly the pattern the
/// perf-book recommends (merge-on-drop instead of contended atomics).
///
/// Charges are model-driven: a kernel bills the traffic its device
/// algorithm would issue (a probe per element, a bitmap clear per pass),
/// computed from sizes, whatever exact mechanism the host uses to produce
/// the same result.
#[derive(Debug, Default)]
pub struct BlockCounters {
    /// Accumulated metrics for this block.
    pub c: Counters,
}

impl BlockCounters {
    /// Coalesced global-memory read of `len` contiguous words by a warp of
    /// width `warp`: `ceil(len / warp)` transactions, `len` words of
    /// traffic, one load instruction per word.
    #[inline]
    pub fn dram_read_coalesced(&mut self, len: usize) {
        self.c.dram_reads += len as u64;
        self.c.instructions += len as u64;
    }

    /// Strided/random global read of `len` words (uncoalesced: every word
    /// its own transaction — cost model treats reads as word traffic, so
    /// this also bumps the divergence proxy).
    #[inline]
    pub fn dram_read_random(&mut self, len: usize) {
        self.dram_read_random_n(1, len);
    }

    /// `times` independent random reads of `words` words each — the bulk
    /// form of `times` calls to [`BlockCounters::dram_read_random`].
    #[inline]
    pub fn dram_read_random_n(&mut self, times: usize, words: usize) {
        self.c.dram_reads += (times * words) as u64;
        self.c.instructions += (times * words) as u64;
        self.c.divergent_branches += times as u64;
    }

    /// Coalesced global write of `len` words.
    #[inline]
    pub fn dram_write(&mut self, len: usize) {
        self.c.dram_writes += len as u64;
        self.c.instructions += len as u64;
    }

    /// Shared-memory read of `len` words.
    #[inline]
    pub fn shmem_read(&mut self, len: usize) {
        self.c.shmem_reads += len as u64;
        self.c.instructions += len as u64;
    }

    /// Shared-memory write of `len` words.
    #[inline]
    pub fn shmem_write(&mut self, len: usize) {
        self.c.shmem_writes += len as u64;
        self.c.instructions += len as u64;
    }

    /// One global atomic (e.g. cursor fetch-add).
    #[inline]
    pub fn atomic(&mut self) {
        self.c.atomics += 1;
        self.c.instructions += 1;
    }

    /// `n` ALU instructions (comparisons, address math).
    #[inline]
    pub fn alu(&mut self, n: usize) {
        self.c.instructions += n as u64;
    }

    /// A divergent branch event.
    #[inline]
    pub fn diverge(&mut self) {
        self.c.divergent_branches += 1;
        self.c.instructions += 1;
    }
}

/// Device-wide atomic counter aggregate (relaxed ordering: these are
/// statistics, not synchronisation — the kernel-completion join provides
/// the happens-before edge for reading them).
#[derive(Debug, Default)]
pub struct AtomicCounters {
    dram_reads: AtomicU64,
    dram_writes: AtomicU64,
    shmem_reads: AtomicU64,
    shmem_writes: AtomicU64,
    atomics: AtomicU64,
    instructions: AtomicU64,
    divergent_branches: AtomicU64,
    kernel_launches: AtomicU64,
}

impl AtomicCounters {
    /// Merges a block's counters.
    pub fn merge(&self, b: &Counters) {
        self.dram_reads.fetch_add(b.dram_reads, Ordering::Relaxed);
        self.dram_writes.fetch_add(b.dram_writes, Ordering::Relaxed);
        self.shmem_reads.fetch_add(b.shmem_reads, Ordering::Relaxed);
        self.shmem_writes
            .fetch_add(b.shmem_writes, Ordering::Relaxed);
        self.atomics.fetch_add(b.atomics, Ordering::Relaxed);
        self.instructions
            .fetch_add(b.instructions, Ordering::Relaxed);
        self.divergent_branches
            .fetch_add(b.divergent_branches, Ordering::Relaxed);
        self.kernel_launches
            .fetch_add(b.kernel_launches, Ordering::Relaxed);
    }

    /// Reads a snapshot.
    pub fn snapshot(&self) -> Counters {
        Counters {
            dram_reads: self.dram_reads.load(Ordering::Relaxed),
            dram_writes: self.dram_writes.load(Ordering::Relaxed),
            shmem_reads: self.shmem_reads.load(Ordering::Relaxed),
            shmem_writes: self.shmem_writes.load(Ordering::Relaxed),
            atomics: self.atomics.load(Ordering::Relaxed),
            instructions: self.instructions.load(Ordering::Relaxed),
            divergent_branches: self.divergent_branches.load(Ordering::Relaxed),
            kernel_launches: self.kernel_launches.load(Ordering::Relaxed),
        }
    }
}

thread_local! {
    /// Stack of per-thread counter sinks. Kernel launches merge their exact
    /// launch total into the top of the *calling* thread's stack, so two
    /// runs on different threads sharing one device each see only their own
    /// work, even when launches interleave.
    static SINKS: RefCell<Vec<Arc<AtomicCounters>>> = const { RefCell::new(Vec::new()) };
}

/// A per-thread counter accumulator: while installed, every kernel launch
/// issued from this thread also merges its counter total here. RAII — the
/// sink uninstalls itself on drop. It is exact under concurrency:
/// launches from *other* threads never leak in.
#[derive(Debug)]
pub struct CounterSink {
    cell: Arc<AtomicCounters>,
}

impl CounterSink {
    /// Installs a fresh sink on the calling thread's stack. Sinks nest;
    /// launches merge only into the innermost (top) sink.
    pub fn install() -> Self {
        let cell = Arc::new(AtomicCounters::default());
        SINKS.with(|s| s.borrow_mut().push(cell.clone()));
        CounterSink { cell }
    }

    /// Counters accumulated so far by launches on this thread.
    pub fn snapshot(&self) -> Counters {
        self.cell.snapshot()
    }
}

impl Drop for CounterSink {
    fn drop(&mut self) {
        SINKS.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|c| Arc::ptr_eq(c, &self.cell)) {
                stack.remove(pos);
            }
        });
    }
}

/// Merges `c` into the calling thread's innermost installed sink (no-op
/// when none is installed). Called by the device at launch retirement.
pub(crate) fn sink_merge(c: &Counters) {
    SINKS.with(|s| {
        if let Some(top) = s.borrow().last() {
            top.merge(c);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_counter_accounting() {
        let mut b = BlockCounters::default();
        b.dram_read_coalesced(10);
        b.dram_write(4);
        b.shmem_write(2);
        b.atomic();
        b.alu(3);
        assert_eq!(b.c.dram_reads, 10);
        assert_eq!(b.c.dram_writes, 4);
        assert_eq!(b.c.shmem_writes, 2);
        assert_eq!(b.c.atomics, 1);
        assert_eq!(b.c.instructions, 10 + 4 + 2 + 1 + 3);
    }

    #[test]
    fn merge_and_snapshot() {
        let agg = AtomicCounters::default();
        let mut b = BlockCounters::default();
        b.dram_read_coalesced(5);
        agg.merge(&b.c);
        agg.merge(&b.c);
        let s = agg.snapshot();
        assert_eq!(s.dram_reads, 10);
    }

    #[test]
    fn add_assign_sums_all_fields() {
        let mut a = Counters {
            dram_reads: 1,
            dram_writes: 2,
            shmem_reads: 3,
            shmem_writes: 4,
            atomics: 5,
            instructions: 6,
            divergent_branches: 7,
            kernel_launches: 8,
        };
        a += a;
        assert_eq!(a.dram_reads, 2);
        assert_eq!(a.kernel_launches, 16);
        assert_eq!(a.dram_total(), 2 + 4);
    }

    #[test]
    fn ratio_zero_guard() {
        assert_eq!(Counters::ratio(10, 2), 5.0);
        assert_eq!(Counters::ratio(0, 0), 1.0);
        assert!(Counters::ratio(3, 0).is_infinite());
    }

    #[test]
    fn ratio_str_never_leaks_infinity() {
        assert_eq!(Counters::ratio_str(10, 2), "5.0");
        assert_eq!(Counters::ratio_str(3, 0), "inf");
        assert_eq!(Counters::ratio_str(0, 0), "1.0");
    }

    #[test]
    fn sinks_nest_and_uninstall_on_drop() {
        let outer = CounterSink::install();
        let mut b = BlockCounters::default();
        b.alu(3);
        {
            let inner = CounterSink::install();
            sink_merge(&b.c);
            assert_eq!(inner.snapshot().instructions, 3);
            // Only the innermost sink sees the merge.
            assert_eq!(outer.snapshot(), Counters::default());
        }
        // Inner dropped: merges land in the outer sink again.
        sink_merge(&b.c);
        assert_eq!(outer.snapshot().instructions, 3);
        drop(outer);
        // No sink installed: merge is a no-op (must not panic).
        sink_merge(&b.c);
    }

    #[test]
    fn counters_to_json_roundtrip() {
        let c = Counters {
            dram_reads: 1,
            dram_writes: 2,
            shmem_reads: 3,
            shmem_writes: 4,
            atomics: 5,
            instructions: 6,
            divergent_branches: 7,
            kernel_launches: 8,
        };
        let j = c.to_json();
        assert_eq!(j.get("dram_reads").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("kernel_launches").unwrap().as_u64(), Some(8));
        Json::parse(&j.render()).unwrap();
        let d = CounterDelta::from(c);
        assert_eq!(d.instructions, 6);
        assert!(!d.is_zero());
    }
}
