//! The simulated device: allocation ledger, kernel launch, counters.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cuts_obs::flight;
use cuts_obs::{Arg, EventKind, Registry, Span, Trace, SM_LANE_BASE};

use crate::buffer::GlobalBuffer;
use crate::config::DeviceConfig;
use crate::cores::HostCores;
use crate::counters::{AtomicCounters, BlockCounters, Counters};
use crate::error::DeviceError;
use crate::ordered::{self, Pace, RunOut, RunTarget};

/// Host time an ordered launch runs on the calling thread alone before
/// helper threads may join it: short launches, the bulk of a small job's
/// levels, never pay for spawning them. Past it, a helper may join at
/// every read of the launch clock while the host-core ledger has a core
/// free.
const HELP_AFTER: Duration = Duration::from_micros(100);

/// Host time aimed for between two reads of the launch clock while an
/// ordered launch runs on the calling thread alone: a read costs tens of
/// nanoseconds, as much as a whole block of a small level, and every
/// launch pays for them while a core is free (a serve lane's launches
/// ran up to 10% slower reading it every microsecond).
const CLOCK_EVERY: Duration = Duration::from_micros(10);

/// Most blocks an ordered launch runs between two clock reads.
const MAX_CLOCK_STRIDE: usize = 256;

/// Blocks to run before the next clock read, after `blocks` blocks took
/// `elapsed`: one before any block has run and while blocks are slower
/// than [`CLOCK_EVERY`], so helpers still join within about a block of
/// [`HELP_AFTER`], and up to [`MAX_CLOCK_STRIDE`] when they are faster.
fn clock_stride(elapsed: Duration, blocks: usize) -> usize {
    if blocks == 0 {
        return 1;
    }
    let mean_ns = elapsed.as_nanos() as u64 / blocks as u64;
    (CLOCK_EVERY.as_nanos() as u64 / mean_ns.max(1)).clamp(1, MAX_CLOCK_STRIDE as u64) as usize
}

/// Telemetry of one launch in flight.
struct Tap {
    /// The kernel span, open from before the first block.
    span: Option<Span>,
    /// One span per block: keeps the grid on the calling thread.
    per_block: bool,
    /// Wall-clock start, when a registry records launch times.
    start: Option<Instant>,
}

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
    /// A private core ledger (see [`Device::set_host_threads`]); `None`
    /// launches on [`HostCores::process`].
    cores: Option<Arc<HostCores>>,
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
            cores: None,
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

    /// The core ledger this device's launches hold and borrow cores of:
    /// the process-wide one unless [`Device::set_host_threads`] gave the
    /// device its own.
    pub fn cores(&self) -> &HostCores {
        match &self.cores {
            Some(own) => own,
            None => HostCores::process(),
        }
    }

    /// Gives this device a private ledger of `threads` cores (at least
    /// 1), so that one ordered launch runs on up to that many host
    /// threads on any host — the tests' control of the parallel path.
    /// Results never depend on it.
    pub fn set_host_threads(&mut self, threads: usize) {
        self.cores = Some(Arc::new(HostCores::new(threads)));
    }

    /// Attaches a serving-metrics registry: every subsequent launch
    /// records its wall time into a per-kernel `cuts_kernel_wall_us`
    /// histogram and a `kernel`/`launch` flight record. A
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

    /// A launch whose blocks append `(parent, children)` runs to `target`
    /// through their [`RunOut`], spread over the host cores the device's
    /// ledger has free (see [`HostCores`]).
    ///
    /// The launch runs on a core of the ledger: the caller's, when it
    /// holds one, or else one it holds for the launch's length. The
    /// calling thread runs blocks in block-id order, writing straight to
    /// `target`, until the launch has run for about 100 µs; short
    /// launches end there. From then on, about once per 10 µs of
    /// blocks, a scoped helper thread joins it on a free core, if there
    /// is one and the blocks left are worth a thread; blocks then stage
    /// their runs and commit them in block-id order (see
    /// [`crate::ordered`]). A helper leaves before its next claim once
    /// the ledger is over capacity, and when the last has left the
    /// caller goes on alone on the direct path. Table layout, the
    /// returned error and every counter are those of running the same
    /// blocks in block-id order on the calling thread, however many
    /// helpers join or leave. A block may fail (e.g. a buffer overflow):
    /// the later blocks still run, and the first failure is returned, as
    /// in CUDA's "kernel completes, error checked after". With
    /// `per_block` tracing the whole grid stays on the calling thread.
    pub fn launch_ordered<T, F>(
        &self,
        name: &str,
        num_blocks: usize,
        target: &T,
        f: F,
    ) -> Result<(), DeviceError>
    where
        T: RunTarget + ?Sized,
        F: Fn(&mut BlockCtx, &mut RunOut<'_, T>) -> Result<(), DeviceError> + Sync,
    {
        self.launch_ordered_in(name, None, num_blocks, target, f)
    }

    /// [`Device::launch_ordered`] whose kernel span also names the
    /// kernel's `mode`, when given: how it deals its work to blocks.
    pub fn launch_ordered_in<T, F>(
        &self,
        name: &str,
        mode: Option<&'static str>,
        num_blocks: usize,
        target: &T,
        f: F,
    ) -> Result<(), DeviceError>
    where
        T: RunTarget + ?Sized,
        F: Fn(&mut BlockCtx, &mut RunOut<'_, T>) -> Result<(), DeviceError> + Sync,
    {
        let tap = self.open_launch(name, num_blocks, mode);
        let cores = self.cores();
        let _core = (!cores.held_here()).then(|| cores.hold());
        let started = Instant::now();
        let mut total = Counters::default();
        let mut result = Ok(());
        let direct = |block_id, total: &mut Counters| {
            self.run_block(name, &tap, block_id, num_blocks, total, |ctx| {
                f(ctx, &mut RunOut::direct(target))
            })
        };
        // A launch that has already failed, or whose grid stopped at a
        // claim that will fail, stays direct: its result is decided, and
        // the caller will retry it anyway. While no core is free the
        // clock is not read; else it is read every `clock_stride` blocks,
        // and past `HELP_AFTER` each read may add a helper.
        let (mut next, mut read_at) = (0, 0);
        let (mut threads, mut direct_only) = (1, tap.per_block);
        while next < num_blocks {
            if !direct_only && result.is_ok() && next == read_at {
                read_at += 1;
                if cores.has_free() {
                    let elapsed = started.elapsed();
                    read_at += clock_stride(elapsed, next) - 1;
                    let pace = Pace::of(elapsed, next);
                    let ready = elapsed >= HELP_AFTER && pace.worth_a_helper(num_blocks - next);
                    if let Some(core) = ready.then(|| cores.lend()).flatten() {
                        let par = ordered::run(self, target, &f, next, num_blocks, pace, core);
                        total += par.committed;
                        threads += par.helpers;
                        direct_only = par.stopped;
                        // The block the grid stopped at, or was handed
                        // back at, runs on the direct path.
                        next = par.replay_from;
                        read_at = next + 1;
                        if next == num_blocks {
                            break;
                        }
                    }
                }
            }
            result = result.and(direct(next, &mut total));
            next += 1;
        }
        self.close_launch(name, num_blocks, tap, total, threads);
        result
    }

    /// Runs a single implicit block named `name` on the calling thread
    /// (for tiny kernels like the initial candidate filter where launch
    /// overhead dominates).
    pub fn run_single_block<F, T>(&self, name: &str, f: F) -> T
    where
        F: FnOnce(&mut BlockCtx) -> T,
    {
        let tap = self.open_launch(name, 1, None);
        let mut ctx = self.block_ctx(0, 1);
        let out = f(&mut ctx);
        self.close_launch(name, 1, tap, ctx.counters.c, 1);
        out
    }

    /// A fresh context for block `block_id` of a `num_blocks` grid.
    pub(crate) fn block_ctx(&self, block_id: usize, num_blocks: usize) -> BlockCtx {
        BlockCtx {
            block_id,
            num_blocks,
            counters: BlockCounters::default(),
        }
    }

    /// Runs one block on the calling thread and adds its counters to
    /// `total`; with `per_block` tracing the block gets its own span.
    fn run_block<F>(
        &self,
        name: &str,
        tap: &Tap,
        block_id: usize,
        num_blocks: usize,
        total: &mut Counters,
        f: F,
    ) -> Result<(), DeviceError>
    where
        F: FnOnce(&mut BlockCtx) -> Result<(), DeviceError>,
    {
        let mut ctx = self.block_ctx(block_id, num_blocks);
        let r = if tap.per_block {
            let mut s = self.trace.span(EventKind::Kernel, name);
            s.lane(SM_LANE_BASE + (block_id % self.config.num_sms) as u32);
            s.arg("block", Arg::U64(block_id as u64));
            let r = f(&mut ctx);
            s.counters(ctx.counters.c.into());
            r
        } else {
            f(&mut ctx)
        };
        *total += ctx.counters.c;
        r
    }

    /// Opens a launch's telemetry: the kernel span (before the first
    /// block runs) and the wall clock the registry histogram reads.
    fn open_launch(&self, name: &str, num_blocks: usize, mode: Option<&'static str>) -> Tap {
        let span = self.trace.is_enabled().then(|| {
            let mut s = self.trace.span(EventKind::Kernel, name);
            s.arg("blocks", Arg::U64(num_blocks as u64));
            if let Some(mode) = mode {
                s.arg("mode", Arg::Str(mode.to_string()));
            }
            s
        });
        Tap {
            span,
            per_block: self.trace.is_enabled() && self.trace.config().per_block,
            start: self.registry.is_enabled().then(Instant::now),
        }
    }

    /// Retires a launch: its exact counter total (plus the launch itself)
    /// merges into the device aggregate and the calling thread's counter
    /// sink, and the span, histogram and flight record close. (Snapshot
    /// deltas of the aggregate would count concurrent launches from other
    /// threads into this one.)
    fn close_launch(
        &self,
        name: &str,
        num_blocks: usize,
        tap: Tap,
        mut total: Counters,
        threads: usize,
    ) {
        total.kernel_launches += 1;
        self.counters.merge(&total);
        crate::counters::sink_merge(&total);
        let Tap {
            mut span, start, ..
        } = tap;
        if let Some(s) = &mut span {
            s.arg("threads", Arg::U64(threads as u64));
            s.counters(total.into());
        }
        if let Some(start) = start {
            let wall_us = start.elapsed().as_micros() as u64;
            self.registry
                .histogram(
                    "cuts_kernel_wall_us",
                    &[("kernel", name)],
                    "Host wall time per kernel launch, microseconds",
                )
                .record(wall_us);
            // A span, so no trace instant feeds it to the ring.
            flight::record(
                EventKind::Kernel,
                "launch",
                self.trace.rank(),
                &[
                    ("blocks", Arg::U64(num_blocks as u64)),
                    ("wall_us", Arg::U64(wall_us)),
                ],
            );
        }
    }

    /// Aggregate hardware counters of every launch so far.
    pub fn counters(&self) -> Counters {
        self.counters.snapshot()
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_stride_follows_the_mean_block_time() {
        let us = Duration::from_micros;
        // Nothing measured yet, or blocks of ten microseconds and more:
        // read before every block.
        assert_eq!(clock_stride(us(0), 0), 1);
        assert_eq!(clock_stride(us(1), 0), 1);
        assert_eq!(clock_stride(us(500), 10), 1);
        assert_eq!(clock_stride(us(100), 10), 1);
        // 2.5 µs blocks: every fourth; a few ns each: every 256th.
        assert_eq!(clock_stride(us(100), 40), 4);
        assert_eq!(clock_stride(us(1), 1000), MAX_CLOCK_STRIDE);
    }

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
        d.launch_ordered("expand", 8, &GlobalBuffer::new(0), |ctx, _| {
            ctx.counters.dram_read_coalesced(10);
            Ok(())
        })
        .unwrap();
        let c = d.counters();
        assert_eq!(c.dram_reads, 80);
        assert_eq!(c.kernel_launches, 1);
    }

    #[test]
    fn launch_propagates_block_errors() {
        let d = Device::new(DeviceConfig::test_small());
        let buf = d.alloc_buffer(4).unwrap();
        let err = d.launch_ordered("expand", 4, &buf, |ctx, out| {
            out.append(0, &[ctx.block_id as u32; 2])
        });
        assert!(matches!(err, Err(DeviceError::BufferOverflow { .. })));
        // Two blocks succeeded before the buffer filled.
        assert_eq!(
            [buf.len(), buf.get(1) as usize, buf.get(2) as usize],
            [4, 0, 1]
        );
    }

    #[test]
    fn traced_launch_emits_kernel_span_with_counter_delta() {
        let mut d = Device::new(DeviceConfig::test_small());
        let trace = Trace::enabled();
        d.set_trace(trace.clone());
        d.launch_ordered("expand", 4, &GlobalBuffer::new(0), |ctx, _| {
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
        d.launch_ordered("expand", 8, &GlobalBuffer::new(0), |_, _| Ok(()))
            .unwrap();
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
        let none = GlobalBuffer::new(0);
        // Unrelated work already on the device aggregate.
        d.launch_ordered("other", 2, &none, |ctx, _| {
            ctx.counters.alu(100);
            Ok(())
        })
        .unwrap();
        let sink = CounterSink::install();
        d.launch_ordered("expand", 4, &none, |ctx, _| {
            ctx.counters.dram_read_coalesced(3);
            Ok(())
        })
        .unwrap();
        d.run_single_block("filter", |ctx| ctx.counters.alu(7));
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
        let none = GlobalBuffer::new(0);
        d.launch_ordered("expand", 4, &none, |_, _| Ok(())).unwrap();
        d.launch_ordered("expand", 4, &none, |_, _| Ok(())).unwrap();
        d.run_single_block("filter", |_| ());
        let h = |kernel: &str| {
            reg.histogram("cuts_kernel_wall_us", &[("kernel", kernel)], "")
                .count()
        };
        assert_eq!(h("expand"), 2);
        assert_eq!(h("filter"), 1);
        // A disabled registry records nothing (the default path).
        let d2 = Device::new(DeviceConfig::test_small());
        assert!(!d2.registry().is_enabled());
        d2.launch_ordered("expand", 2, &none, |_, _| Ok(()))
            .unwrap();
    }

    #[test]
    fn single_block_counts_launch() {
        let d = Device::new(DeviceConfig::test_small());
        let out = d.run_single_block("filter", |ctx| {
            ctx.counters.alu(5);
            42
        });
        assert_eq!(out, 42);
        assert_eq!(d.counters().instructions, 5);
        assert_eq!(d.counters().kernel_launches, 1);
    }
}
