//! The simulated device: allocation ledger, kernel launch, counters.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use cuts_obs::flight::{self, FlightCode};
use cuts_obs::{Arg, EventKind, Registry, Trace, SM_LANE_BASE};
use rayon::prelude::*;

use crate::buffer::GlobalBuffer;
use crate::config::DeviceConfig;
use crate::counters::{AtomicCounters, BlockCounters, Counters};
use crate::error::DeviceError;

/// A simulated GPU. Cheap to share by reference; all state is internally
/// synchronised.
pub struct Device {
    config: DeviceConfig,
    /// Words currently allocated (the `cudaMemGetInfo` the paper consults
    /// when sizing the trie arrays).
    allocated: Arc<AtomicUsize>,
    /// Lifetime count of [`Device::alloc_buffer`] calls (`cudaMalloc`
    /// invocations). Never reset: the arena's zero-allocation guarantee
    /// for warm sessions is asserted as "this number did not move".
    alloc_calls: AtomicU64,
    counters: AtomicCounters,
    trace: Trace,
    registry: Registry,
}

impl Device {
    /// Creates a device with the given configuration. Tracing starts
    /// disabled; see [`Device::set_trace`].
    pub fn new(config: DeviceConfig) -> Self {
        Device {
            config,
            allocated: Arc::new(AtomicUsize::new(0)),
            alloc_calls: AtomicU64::new(0),
            counters: AtomicCounters::default(),
            trace: Trace::disabled(),
            registry: Registry::disabled(),
        }
    }

    /// Attaches a trace handle: every subsequent launch emits a
    /// [`EventKind::Kernel`] span carrying the launch's counter delta (and,
    /// when the trace config asks for `per_block`, one span per block on an
    /// `SM n` lane).
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// Attaches a serving-metrics registry: every subsequent launch
    /// records its wall time into a per-kernel `cuts_kernel_wall_us`
    /// histogram and a [`FlightCode::KernelLaunch`] flight event. A
    /// disabled registry (the default) keeps the launch path at one
    /// branch per launch.
    pub fn set_registry(&mut self, registry: Registry) {
        self.registry = registry;
    }

    /// The serving-metrics registry launches record into (disabled by
    /// default).
    #[inline]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The trace handle launches emit into (disabled by default). Shared
    /// by collaborators that account work to this device, e.g. the
    /// arena.
    #[inline]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Device configuration.
    #[inline]
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Free global-memory words (`cudaMemGetInfo` analogue).
    pub fn free_words(&self) -> usize {
        self.config
            .global_mem_words
            .saturating_sub(self.allocated.load(Ordering::Acquire))
    }

    /// Words currently allocated.
    pub fn allocated_words(&self) -> usize {
        self.allocated.load(Ordering::Acquire)
    }

    /// Number of `alloc_buffer` calls made over this device's lifetime
    /// (successful or not). Unlike [`Device::counters`], this is never
    /// reset — allocation is a host-side lifecycle event, not a kernel
    /// metric — so "the warm path allocates nothing" is checked by taking
    /// the value before and after.
    pub fn alloc_calls(&self) -> u64 {
        self.alloc_calls.load(Ordering::Relaxed)
    }

    /// Allocates a capacity-accounted buffer; fails like `cudaMalloc` when
    /// the budget is exhausted. Freed automatically when the buffer drops.
    pub fn alloc_buffer(&self, words: usize) -> Result<GlobalBuffer, DeviceError> {
        self.alloc_calls.fetch_add(1, Ordering::Relaxed);
        let prev = self.allocated.fetch_add(words, Ordering::AcqRel);
        if prev + words > self.config.global_mem_words {
            self.allocated.fetch_sub(words, Ordering::AcqRel);
            return Err(DeviceError::OutOfMemory {
                requested: words,
                available: self.config.global_mem_words.saturating_sub(prev),
            });
        }
        Ok(GlobalBuffer::with_ledger(words, self.allocated.clone()))
    }

    /// Launches a kernel: `num_blocks` thread blocks, each running `f` once
    /// with its own [`BlockCtx`]. Blocks execute in order on the calling
    /// thread (`vendor/rayon` is sequential); per-block counters merge into
    /// the device aggregate when each block retires. A block may fail (e.g. a buffer overflow); the
    /// first failure is returned after all blocks finish, matching the
    /// "kernel completes, error checked after" CUDA model.
    pub fn launch<F>(&self, num_blocks: usize, f: F) -> Result<(), DeviceError>
    where
        F: Fn(&mut BlockCtx) -> Result<(), DeviceError> + Sync,
    {
        self.launch_named("kernel", num_blocks, f)
    }

    /// [`Device::launch`] with a kernel name for the trace. When a trace is
    /// attached the launch is recorded as one [`EventKind::Kernel`] span
    /// carrying the grid size and the launch's counter delta; with
    /// `per_block` tracing each block additionally gets its own span on an
    /// `SM n` lane (blocks scheduled round-robin over the configured SMs).
    pub fn launch_named<F>(&self, name: &str, num_blocks: usize, f: F) -> Result<(), DeviceError>
    where
        F: Fn(&mut BlockCtx) -> Result<(), DeviceError> + Sync,
    {
        let mut span = if self.trace.is_enabled() {
            let mut s = self.trace.span(EventKind::Kernel, name);
            s.arg("blocks", Arg::U64(num_blocks as u64));
            Some(s)
        } else {
            None
        };
        let per_block = self.trace.is_enabled() && self.trace.config().per_block;
        let launch_start = self.registry.is_enabled().then(std::time::Instant::now);
        // Blocks accumulate into a launch-local aggregate; the exact total
        // is merged once into the device aggregate and the calling thread's
        // counter sink after the grid joins. (Snapshot deltas would count
        // concurrent launches from other threads into this one's span.)
        let launch = AtomicCounters::default();
        let result = (0..num_blocks)
            .into_par_iter()
            .map(|block_id| {
                let mut ctx = BlockCtx {
                    block_id,
                    num_blocks,
                    counters: BlockCounters::default(),
                    shared_capacity: self.config.shared_mem_words_per_block,
                    shared_used: 0,
                };
                let r = if per_block {
                    let mut s = self.trace.span(EventKind::Kernel, name);
                    s.lane(SM_LANE_BASE + (block_id % self.config.num_sms) as u32);
                    s.arg("block", Arg::U64(block_id as u64));
                    let r = f(&mut ctx);
                    s.counters(ctx.counters.c.into());
                    r
                } else {
                    f(&mut ctx)
                };
                launch.merge(&ctx.counters.c);
                r
            })
            .reduce(|| Ok(()), |a, b| a.and(b));
        let mut total = launch.snapshot();
        total.kernel_launches += 1;
        self.counters.merge(&total);
        crate::counters::sink_merge(&total);
        if let Some(s) = &mut span {
            s.counters(total.into());
        }
        if let Some(start) = launch_start {
            let wall_us = start.elapsed().as_micros() as u64;
            self.registry
                .histogram(
                    "cuts_kernel_wall_us",
                    &[("kernel", name)],
                    "Host wall time per kernel launch, microseconds",
                )
                .record(wall_us);
            flight::record(FlightCode::KernelLaunch, num_blocks as u64, wall_us);
        }
        result
    }

    /// Runs a single implicit block on the calling thread (for tiny kernels
    /// like the initial candidate filter where launch overhead dominates).
    pub fn run_single_block<F, T>(&self, f: F) -> T
    where
        F: FnOnce(&mut BlockCtx) -> T,
    {
        self.run_single_block_named("single_block", f)
    }

    /// [`Device::run_single_block`] with a kernel name for the trace.
    pub fn run_single_block_named<F, T>(&self, name: &str, f: F) -> T
    where
        F: FnOnce(&mut BlockCtx) -> T,
    {
        let mut span = if self.trace.is_enabled() {
            let mut s = self.trace.span(EventKind::Kernel, name);
            s.arg("blocks", Arg::U64(1));
            Some(s)
        } else {
            None
        };
        let launch_start = self.registry.is_enabled().then(std::time::Instant::now);
        let mut ctx = BlockCtx {
            block_id: 0,
            num_blocks: 1,
            counters: BlockCounters::default(),
            shared_capacity: self.config.shared_mem_words_per_block,
            shared_used: 0,
        };
        let out = f(&mut ctx);
        let mut total = ctx.counters.c;
        total.kernel_launches = 1;
        self.counters.merge(&total);
        crate::counters::sink_merge(&total);
        if let Some(s) = &mut span {
            s.counters(total.into());
        }
        if let Some(start) = launch_start {
            let wall_us = start.elapsed().as_micros() as u64;
            self.registry
                .histogram(
                    "cuts_kernel_wall_us",
                    &[("kernel", name)],
                    "Host wall time per kernel launch, microseconds",
                )
                .record(wall_us);
            flight::record(FlightCode::KernelLaunch, 1, wall_us);
        }
        out
    }

    /// Aggregate hardware counters since the last reset.
    pub fn counters(&self) -> Counters {
        self.counters.snapshot()
    }

    /// Zeroes the hardware counters.
    pub fn reset_counters(&self) {
        self.counters.reset();
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("name", &self.config.name)
            .field("allocated_words", &self.allocated_words())
            .finish()
    }
}

/// Per-thread-block execution context handed to kernels.
pub struct BlockCtx {
    /// This block's index in the grid.
    pub block_id: usize,
    /// Grid size.
    pub num_blocks: usize,
    /// Metric counters (merged into the device when the block retires).
    pub counters: BlockCounters,
    shared_capacity: usize,
    shared_used: usize,
}

impl BlockCtx {
    /// Claims `words` of shared memory for the block's lifetime, returning
    /// a zeroed scratch vector (host-side stand-in for `__shared__`).
    /// Exceeding the per-block capacity is a launch-configuration bug, so
    /// it fails loudly.
    pub fn alloc_shared(&mut self, words: usize) -> Result<Vec<u32>, DeviceError> {
        if self.shared_used + words > self.shared_capacity {
            return Err(DeviceError::OutOfMemory {
                requested: words,
                available: self.shared_capacity - self.shared_used,
            });
        }
        self.shared_used += words;
        Ok(vec![0u32; words])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_accounting_and_oom() {
        let d = Device::new(DeviceConfig::test_small().with_global_mem_words(100));
        let b1 = d.alloc_buffer(60).unwrap();
        assert_eq!(d.free_words(), 40);
        match d.alloc_buffer(50) {
            Err(DeviceError::OutOfMemory {
                requested,
                available,
            }) => {
                assert_eq!(requested, 50);
                assert_eq!(available, 40);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
        drop(b1);
        assert_eq!(d.free_words(), 100);
        d.alloc_buffer(100).unwrap();
    }

    #[test]
    fn launch_merges_counters() {
        let d = Device::new(DeviceConfig::test_small());
        d.launch(8, |ctx| {
            ctx.counters.dram_read_coalesced(10);
            Ok(())
        })
        .unwrap();
        let c = d.counters();
        assert_eq!(c.dram_reads, 80);
        assert_eq!(c.kernel_launches, 1);
        d.reset_counters();
        assert_eq!(d.counters().dram_reads, 0);
    }

    #[test]
    fn launch_propagates_block_errors() {
        let d = Device::new(DeviceConfig::test_small());
        let buf = d.alloc_buffer(4).unwrap();
        let err = d.launch(4, |_| {
            buf.reserve(2)?;
            Ok(())
        });
        assert!(matches!(err, Err(DeviceError::BufferOverflow { .. })));
        // Two blocks succeeded before the buffer filled.
        assert_eq!(buf.len(), 4);
    }

    #[test]
    fn shared_memory_capacity_enforced() {
        let d = Device::new(DeviceConfig::test_small());
        d.run_single_block(|ctx| {
            let a = ctx.alloc_shared(4000).unwrap();
            assert_eq!(a.len(), 4000);
            assert!(ctx.alloc_shared(200).is_err());
        });
    }

    #[test]
    fn traced_launch_emits_kernel_span_with_counter_delta() {
        let mut d = Device::new(DeviceConfig::test_small());
        let trace = Trace::enabled();
        d.set_trace(trace.clone());
        d.launch_named("expand", 4, |ctx| {
            ctx.counters.dram_read_coalesced(3);
            Ok(())
        })
        .unwrap();
        let events = trace.journal().unwrap().drain_sorted();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.kind, EventKind::Kernel);
        assert_eq!(e.name, "expand");
        assert!(matches!(e.arg("blocks"), Some(Arg::U64(4))));
        let c = e.counters.expect("launch span carries a counter delta");
        assert_eq!(c.dram_reads, 12);
        assert_eq!(c.kernel_launches, 1);
    }

    #[test]
    fn per_block_tracing_adds_sm_lane_spans() {
        let mut d = Device::new(DeviceConfig::test_small());
        let trace = Trace::with_config(cuts_obs::TraceConfig { per_block: true });
        d.set_trace(trace.clone());
        d.launch_named("expand", 8, |_| Ok(())).unwrap();
        let events = trace.journal().unwrap().drain_sorted();
        // 1 launch span + 8 block spans.
        assert_eq!(events.len(), 9);
        let sm_lanes: std::collections::BTreeSet<u32> = events
            .iter()
            .filter(|e| e.lane >= SM_LANE_BASE)
            .map(|e| e.lane)
            .collect();
        // test_small has 4 SMs; 8 blocks round-robin over all of them.
        assert_eq!(sm_lanes.len(), 4);
    }

    #[test]
    fn sink_captures_only_this_threads_launches() {
        use crate::counters::CounterSink;
        let d = Device::new(DeviceConfig::test_small());
        // Unrelated work already on the device aggregate.
        d.launch(2, |ctx| {
            ctx.counters.alu(100);
            Ok(())
        })
        .unwrap();
        let sink = CounterSink::install();
        d.launch(4, |ctx| {
            ctx.counters.dram_read_coalesced(3);
            Ok(())
        })
        .unwrap();
        d.run_single_block(|ctx| ctx.counters.alu(7));
        let seen = sink.snapshot();
        // Exactly this thread's two launches — no bleed from earlier work.
        assert_eq!(seen.dram_reads, 12);
        assert_eq!(seen.instructions, 12 + 7);
        assert_eq!(seen.kernel_launches, 2);
        // The device aggregate still has everything.
        assert_eq!(d.counters().instructions, 200 + 12 + 7);
        assert_eq!(d.counters().kernel_launches, 3);
    }

    #[test]
    fn registry_tap_records_kernel_wall_histograms() {
        let mut d = Device::new(DeviceConfig::test_small());
        let reg = Registry::enabled();
        d.set_registry(reg.clone());
        d.launch_named("expand", 4, |_| Ok(())).unwrap();
        d.launch_named("expand", 4, |_| Ok(())).unwrap();
        d.run_single_block_named("filter", |_| ());
        let h = |kernel: &str| {
            reg.histogram("cuts_kernel_wall_us", &[("kernel", kernel)], "")
                .count()
        };
        assert_eq!(h("expand"), 2);
        assert_eq!(h("filter"), 1);
        // A disabled registry records nothing (the default path).
        let d2 = Device::new(DeviceConfig::test_small());
        assert!(!d2.registry().is_enabled());
        d2.launch_named("expand", 2, |_| Ok(())).unwrap();
    }

    #[test]
    fn single_block_counts_launch() {
        let d = Device::new(DeviceConfig::test_small());
        let out = d.run_single_block(|ctx| {
            ctx.counters.alu(5);
            42
        });
        assert_eq!(out, 42);
        assert_eq!(d.counters().instructions, 5);
        assert_eq!(d.counters().kernel_launches, 1);
    }
}
