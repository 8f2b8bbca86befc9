//! Ordered block execution: a grid whose blocks append `(parent,
//! children)` runs to one shared table (the trie's PA/CA pairs), spread
//! over several host threads with the table layout of running the blocks
//! one after another.
//!
//! Threads claim a run of consecutive blocks at a time, sized so a claim
//! takes about 20 µs, and run them into one [`StagedRuns`] buffer
//! instead of the table. A staged claim commits — all of its runs,
//! contiguously, or none — once every lower block has committed, so
//! entry positions never depend on which claim finishes first. Claims
//! stay within a small window above the commit point, so only a few are
//! ever staged. The first claim that does not commit (its runs do not
//! fit, or a block failed) stops the grid; the launch then replays its
//! first block and every later one in order on the direct path, which
//! reproduces the partial writes, error and counters of running every
//! block in order exactly. GSI-style engines get a deterministic layout
//! for parallel writes from a count pass and then a write pass at the
//! counted offsets; the ordered commit gives every launch that layout,
//! so the baselines' grids run through it too (a flat
//! [`crate::GlobalBuffer`] is a target).
//!
//! Helpers come and go with the [`HostCores`] ledger: the calling thread
//! adds one at a claim whenever a core is free and the blocks left are
//! worth a thread, and a helper leaves before its next claim once the
//! ledger is over capacity. When the last helper has left, the caller
//! hands the rest of the grid back to the direct path.

use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

use crate::cores::{HostCores, Lent};
use crate::counters::Counters;
use crate::device::{BlockCtx, Device};
use crate::error::DeviceError;

/// Claims a thread may run ahead of the commit point, per core of the
/// ledger.
const WINDOW_PER_CORE: usize = 4;

/// Host time aimed for per claim: a claim costs two lock round trips,
/// as much as a whole block of a small level, so small blocks are
/// claimed several at a time.
const CLAIM_TIME: Duration = Duration::from_micros(20);

/// Most blocks one claim takes.
const MAX_CLAIM: usize = 64;

/// Estimated host time a launch has left before a helper is worth
/// starting: a new thread costs tens of microseconds to start, join and
/// warm its scratch, which a short remainder does not pay back (with
/// helpers for a few hundred microseconds of blocks, serve lanes' jobs
/// ran slower on a 2-core host).
const HELPER_WORTH: Duration = Duration::from_micros(1000);

/// How long a launch's blocks take, from the first `blocks` of them,
/// which took `elapsed`.
#[derive(Clone, Copy)]
pub(crate) struct Pace {
    block_ns: u64,
}

impl Pace {
    pub(crate) fn of(elapsed: Duration, blocks: usize) -> Pace {
        Pace {
            block_ns: elapsed.as_nanos() as u64 / blocks.max(1) as u64,
        }
    }

    /// True when `blocks_left` blocks at this pace outlast
    /// [`HELPER_WORTH`].
    pub(crate) fn worth_a_helper(self, blocks_left: usize) -> bool {
        self.block_ns.saturating_mul(blocks_left as u64) >= HELPER_WORTH.as_nanos() as u64
    }

    /// Blocks per claim: enough to fill [`CLAIM_TIME`], at least 1 and
    /// at most [`MAX_CLAIM`].
    fn per_claim(self) -> usize {
        (CLAIM_TIME.as_nanos() as u64 / self.block_ns.max(1)).clamp(1, MAX_CLAIM as u64) as usize
    }
}

/// The grid lock is poisoned only by a worker that panicked while
/// committing; the scope rethrows that panic.
const POISONED: &str = "a worker of this launch panicked while committing";

/// A table kernels append `(parent, children)` runs to.
pub trait RunTarget: Sync {
    /// Appends one run at the table's cursor with one reservation; fails
    /// with [`DeviceError::BufferOverflow`], writing nothing, when the run
    /// does not fit.
    fn append(&self, parent: u32, children: &[u32]) -> Result<(), DeviceError>;

    /// Appends every run of `runs`, in order and contiguously, or nothing:
    /// returns `false`, leaving the table untouched, when they do not all
    /// fit.
    fn append_all(&self, runs: &StagedRuns) -> bool;

    /// False for a target that counts its entries and stores none: its
    /// stages then keep an entry count only, not children.
    fn stores_children(&self) -> bool {
        true
    }

    /// Appends `n` entries with one reservation, as appending any `n`
    /// children does on a target that stores none. Only such a target
    /// implements it.
    fn append_len(&self, n: usize) -> Result<(), DeviceError> {
        unreachable!("appending {n} bare entries to a target that stores children")
    }
}

/// One claim's runs, held back until the blocks below it have committed.
#[derive(Debug, Default)]
pub struct StagedRuns {
    /// `(parent, run length)` per run, in append order; empty, like
    /// `children`, when the target stores no children.
    heads: Vec<(u32, usize)>,
    children: Vec<u32>,
    /// Entries over all runs.
    entries: usize,
    /// Count entries only (see [`RunTarget::stores_children`]).
    lengths_only: bool,
}

impl StagedRuns {
    fn for_target(stores_children: bool) -> Self {
        StagedRuns {
            lengths_only: !stores_children,
            ..StagedRuns::default()
        }
    }

    /// Entries over all runs.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when no run holds an entry.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Children words held: [`StagedRuns::len`] for a target that stores
    /// children, 0 for one that only counts them.
    pub fn held_children(&self) -> usize {
        self.children.len()
    }

    /// The runs in append order, as `(parent, children)`. Only for a
    /// target that stores children: a counting one's stage holds none.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u32])> + '_ {
        debug_assert!(!self.lengths_only, "a counted stage holds no children");
        let mut at = 0;
        self.heads.iter().map(move |&(parent, len)| {
            let run = &self.children[at..at + len];
            at += len;
            (parent, run)
        })
    }

    fn push(&mut self, parent: u32, children: &[u32]) {
        self.entries += children.len();
        if !self.lengths_only {
            self.heads.push((parent, children.len()));
            self.children.extend_from_slice(children);
        }
    }

    fn clear(&mut self) {
        self.heads.clear();
        self.children.clear();
        self.entries = 0;
    }
}

/// Where a block of an ordered launch writes its runs: straight to the
/// table, or into its claim's stage.
pub struct RunOut<'a, T: ?Sized>(Out<'a, T>);

enum Out<'a, T: ?Sized> {
    Direct(&'a T),
    Staged(&'a mut StagedRuns),
}

impl<'a, T: RunTarget + ?Sized> RunOut<'a, T> {
    pub(crate) fn direct(target: &'a T) -> Self {
        RunOut(Out::Direct(target))
    }

    /// Appends `children` under `parent`. On the direct path this is the
    /// table's one reservation and may overflow; a staged run always
    /// succeeds and is checked when its claim commits.
    #[inline]
    pub fn append(&mut self, parent: u32, children: &[u32]) -> Result<(), DeviceError> {
        match &mut self.0 {
            Out::Direct(t) => t.append(parent, children),
            Out::Staged(s) => {
                s.push(parent, children);
                Ok(())
            }
        }
    }

    /// Appends `n` entries under no parent to a target that stores no
    /// children (see [`RunTarget::append_len`]): one reservation for
    /// many runs whose lengths are all it keeps.
    #[inline]
    pub fn append_len(&mut self, n: usize) -> Result<(), DeviceError> {
        match &mut self.0 {
            Out::Direct(t) => t.append_len(n),
            Out::Staged(s) => {
                debug_assert!(s.lengths_only, "a stored stage keeps every run");
                s.entries += n;
                Ok(())
            }
        }
    }

    /// False when appends are counted, not stored: the target's, or its
    /// stage's (see [`RunTarget::stores_children`]).
    pub fn stores_children(&self) -> bool {
        match &self.0 {
            Out::Direct(t) => t.stores_children(),
            Out::Staged(s) => !s.lengths_only,
        }
    }
}

/// A claim that ran but has not committed yet.
struct Done {
    counters: Counters,
    runs: StagedRuns,
    ok: bool,
}

/// Claim and commit state of the parallel part of one launch.
struct Grid {
    /// Next block to hand out.
    claim: usize,
    /// Next block to commit; every lower one has committed.
    commit: usize,
    /// Finished claims in the window above `commit`, at their claim
    /// index modulo the window.
    slots: Vec<Option<Done>>,
    /// Stage buffers of committed claims, reused by later claims.
    free: Vec<StagedRuns>,
    /// Counters of the committed blocks.
    committed: Counters,
    /// First block of the first claim that did not commit.
    stop: Option<usize>,
    /// Threads waiting for the window to move.
    waiting: usize,
    /// A worker panicked: the others stop claiming and the scope rethrows.
    panicked: bool,
    /// Helper threads in the grid now.
    active: usize,
    /// Helper threads that ran at least one block.
    helpers: usize,
}

struct Shared<'a, T: ?Sized, F> {
    device: &'a Device,
    cores: &'a HostCores,
    target: &'a T,
    f: &'a F,
    first: usize,
    num_blocks: usize,
    pace: Pace,
    /// Blocks per claim.
    per_claim: usize,
    /// Claims in the window.
    window: usize,
    grid: Mutex<Grid>,
    wake: Condvar,
}

/// What the parallel part of a launch leaves for the caller.
pub(crate) struct Parallel {
    /// Counters of the blocks that committed.
    pub committed: Counters,
    /// First block the caller runs next on the direct path: where the
    /// grid stopped, where the last helper left it, or `num_blocks`.
    pub replay_from: usize,
    /// A claim did not commit: the launch fails within the claim that
    /// starts at `replay_from`.
    pub stopped: bool,
    /// Helper threads that ran at least one block.
    pub helpers: usize,
}

/// Runs blocks from `first` on the caller and on scoped helpers, in
/// claims sized by the blocks' `pace`, committing them in block order.
/// The first helper runs on `core`; another joins at each claim the
/// caller makes while the device's ledger has a core free and the
/// blocks left are worth one. Returns when the grid is done or
/// stopped, or when the caller is alone again with every claimed block
/// committed.
pub(crate) fn run<'a, T, F>(
    device: &'a Device,
    target: &'a T,
    f: &'a F,
    first: usize,
    num_blocks: usize,
    pace: Pace,
    core: Lent<'a>,
) -> Parallel
where
    T: RunTarget + ?Sized,
    F: Fn(&mut BlockCtx, &mut RunOut<'_, T>) -> Result<(), DeviceError> + Sync,
{
    let cores = device.cores();
    let window = WINDOW_PER_CORE * cores.capacity();
    let shared = Shared {
        device,
        cores,
        target,
        f,
        first,
        num_blocks,
        pace,
        per_claim: pace.per_claim(),
        window,
        grid: Mutex::new(Grid {
            claim: first,
            commit: first,
            slots: (0..window).map(|_| None).collect(),
            free: Vec::new(),
            committed: Counters::default(),
            stop: None,
            waiting: 0,
            panicked: false,
            active: 1,
            helpers: 0,
        }),
        wake: Condvar::new(),
    };
    std::thread::scope(|s| {
        let shared = &shared;
        let spawn = |core: Lent<'a>| {
            s.spawn(move || shared.work(None, Some(core)));
        };
        spawn(core);
        shared.work(Some(&spawn), None);
    });
    let grid = shared
        .grid
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    Parallel {
        committed: grid.committed,
        replay_from: grid.stop.unwrap_or(grid.commit),
        stopped: grid.stop.is_some(),
        helpers: grid.helpers,
    }
}

/// Wakes every waiting worker if its thread unwinds, so a panicking block
/// cannot strand the others waiting on a commit that never comes.
struct PanicGuard<'a>(&'a Mutex<Grid>, &'a Condvar);

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .panicked = true;
            self.1.notify_all();
        }
    }
}

impl<'a, T, F> Shared<'a, T, F>
where
    T: RunTarget + ?Sized,
    F: Fn(&mut BlockCtx, &mut RunOut<'_, T>) -> Result<(), DeviceError> + Sync,
{
    /// One thread's loop: claim the next blocks in the window, run them
    /// into a stage, then commit every finished claim at the commit
    /// point.
    /// The caller passes `spawn`, which starts a helper on a lent core,
    /// and hands the grid back once it is alone; a helper passes the
    /// `core` it runs on.
    fn work(&self, spawn: Option<&dyn Fn(Lent<'a>)>, mut core: Option<Lent<'a>>) {
        let _guard = PanicGuard(&self.grid, &self.wake);
        let mut ran = false;
        let mut g = self.grid.lock().expect(POISONED);
        loop {
            if let Some(lent) = core.take() {
                // A holder took up work meanwhile: give its core back.
                core = lent.keep_unless_over();
                if core.is_none() {
                    g.active -= 1;
                    return;
                }
            }
            while g.stop.is_none()
                && !g.panicked
                && g.claim < self.num_blocks
                && g.claim >= g.commit + self.window * self.per_claim
            {
                g.waiting += 1;
                g = self.wake.wait(g).expect(POISONED);
                g.waiting -= 1;
            }
            if g.stop.is_some() || g.panicked || g.claim >= self.num_blocks {
                if core.is_some() {
                    g.active -= 1;
                }
                return;
            }
            let mut helper = None;
            if spawn.is_some() {
                let left = self.num_blocks - g.claim;
                helper = (left > self.per_claim && self.pace.worth_a_helper(left))
                    .then(|| self.cores.lend())
                    .flatten();
                if helper.is_some() {
                    g.active += 1;
                } else if g.active == 0 && g.claim == g.commit {
                    return;
                }
            }
            let block = g.claim;
            let end = (block + self.per_claim).min(self.num_blocks);
            g.claim = end;
            if core.is_some() && !ran {
                ran = true;
                g.helpers += 1;
            }
            let mut runs = g
                .free
                .pop()
                .unwrap_or_else(|| StagedRuns::for_target(self.target.stores_children()));
            drop(g);
            if let (Some(spawn), Some(helper)) = (spawn, helper) {
                spawn(helper);
            }

            runs.clear();
            let mut counters = Counters::default();
            // A failed block stops the claim: the launch replays it.
            let ok = (block..end).all(|b| {
                let mut ctx = self.device.block_ctx(b, self.num_blocks);
                let ok = (self.f)(&mut ctx, &mut RunOut(Out::Staged(&mut runs))).is_ok();
                counters += ctx.counters.c;
                ok
            });

            g = self.grid.lock().expect(POISONED);
            g.slots[self.slot(block)] = Some(Done { counters, runs, ok });
            let before = g.commit;
            while g.stop.is_none() {
                let at = self.slot(g.commit);
                let Some(done) = g.slots[at].take() else {
                    break;
                };
                if done.ok && self.target.append_all(&done.runs) {
                    g.committed += done.counters;
                    g.commit = (g.commit + self.per_claim).min(self.num_blocks);
                } else {
                    g.stop = Some(g.commit);
                }
                g.free.push(done.runs);
            }
            if (g.commit != before || g.stop.is_some()) && g.waiting > 0 {
                self.wake.notify_all();
            }
        }
    }

    /// Slot of the claim that starts at `block`.
    fn slot(&self, block: usize) -> usize {
        (block - self.first) / self.per_claim % self.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::GlobalBuffer;
    use crate::config::DeviceConfig;
    use cuts_obs::{Arg, EventKind, Registry, Trace};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
    use std::time::Duration;

    /// A capacity-bounded table of `(parent, child)` rows that remembers
    /// what it held when it first refused a staged commit.
    struct Table {
        capacity: usize,
        rows: Mutex<Vec<(u32, u32)>>,
        at_refusal: Mutex<Option<Vec<(u32, u32)>>>,
    }

    impl Table {
        fn new(capacity: usize) -> Self {
            Table {
                capacity,
                rows: Mutex::new(Vec::new()),
                at_refusal: Mutex::new(None),
            }
        }

        fn rows(&self) -> Vec<(u32, u32)> {
            self.rows.lock().unwrap().clone()
        }
    }

    impl RunTarget for Table {
        fn append(&self, parent: u32, children: &[u32]) -> Result<(), DeviceError> {
            let mut rows = self.rows.lock().unwrap();
            if rows.len() + children.len() > self.capacity {
                return Err(DeviceError::BufferOverflow {
                    capacity: self.capacity,
                });
            }
            rows.extend(children.iter().map(|&c| (parent, c)));
            Ok(())
        }

        fn append_all(&self, runs: &StagedRuns) -> bool {
            let mut rows = self.rows.lock().unwrap();
            if rows.len() + runs.len() > self.capacity {
                self.at_refusal
                    .lock()
                    .unwrap()
                    .get_or_insert_with(|| rows.clone());
                return false;
            }
            for (parent, children) in runs.iter() {
                rows.extend(children.iter().map(|&c| (parent, c)));
            }
            true
        }
    }

    /// A device with a private ledger of `threads` cores and a trace to
    /// read `threads` from.
    fn device(threads: usize) -> (Device, Trace) {
        let mut d = Device::new(DeviceConfig::test_small());
        d.set_host_threads(threads);
        let trace = Trace::enabled();
        d.set_trace(trace.clone());
        (d, trace)
    }

    fn launch_threads(trace: &Trace) -> Vec<u64> {
        trace
            .journal()
            .unwrap()
            .drain_sorted()
            .iter()
            .filter(|e| e.kind == EventKind::Kernel)
            .map(|e| match e.arg("threads") {
                Some(Arg::U64(t)) => *t,
                other => panic!("kernel span without a thread count: {other:?}"),
            })
            .collect()
    }

    /// Block 0 outlasts the launch's direct phase, so helpers join from
    /// block 1 on.
    fn outlast_direct_phase(block_id: usize) {
        if block_id == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The order blocks finish in. With `hold_one`, block 1 finishes only
    /// after block 2 has, so a second thread must run block 2 while block
    /// 1's thread waits.
    #[derive(Default)]
    struct Finishes {
        order: Mutex<Vec<usize>>,
        progress: Condvar,
    }

    impl Finishes {
        fn finish(&self, block_id: usize, hold_one: bool) {
            let mut order = self.order.lock().unwrap();
            while hold_one && block_id == 1 && !order.contains(&2) {
                order = self.progress.wait(order).unwrap();
            }
            order.push(block_id);
            self.progress.notify_all();
        }
    }

    #[test]
    fn blocks_finishing_out_of_order_commit_in_block_order() {
        let run = |threads| {
            let (mut d, trace) = device(threads);
            let reg = Registry::enabled();
            d.set_registry(reg.clone());
            let table = Table::new(1 << 10);
            let finishes = Finishes::default();
            d.launch_ordered("expand", 24, &table, |ctx, out| {
                outlast_direct_phase(ctx.block_id);
                let b = ctx.block_id as u32;
                ctx.counters.alu(b as usize + 1);
                out.append(b, &[b, b + 100])?;
                finishes.finish(ctx.block_id, threads > 1);
                Ok(())
            })
            .unwrap();
            let wall = reg.histogram("cuts_kernel_wall_us", &[("kernel", "expand")], "");
            assert_eq!(wall.count(), 1, "the launch is timed");
            let finished = finishes.order.into_inner().unwrap();
            (table.rows(), d.counters(), launch_threads(&trace), finished)
        };
        let (rows1, counters1, threads1, _) = run(1);
        let (rows4, counters4, threads4, finished) = run(4);
        assert_eq!(threads1, vec![1]);
        assert!(threads4[0] > 1, "helpers ran part of the grid");
        let after_one = finished.iter().position(|&b| b == 1).unwrap();
        assert!(
            finished[..after_one].iter().any(|&b| b > 1),
            "later blocks finished before block 1: {finished:?}"
        );
        let in_order: Vec<(u32, u32)> = (0..24u32).flat_map(|b| [(b, b), (b, b + 100)]).collect();
        assert_eq!(rows4, in_order);
        assert_eq!(rows4, rows1);
        assert_eq!(counters4, counters1);
    }

    #[test]
    fn staged_overflow_commits_exactly_the_lower_blocks_then_replays() {
        // Block b writes b % 3 + 1 entries. Blocks 0..8 take 15 entries;
        // block 8 (3 entries) does not fit in the 2 left, but the
        // one-entry blocks after it do, one each, as in order.
        let size = |b: usize| b % 3 + 1;
        let k = 8;
        let capacity = (0..k).map(size).sum::<usize>() + size(k) - 1;
        let run = |threads| {
            let (d, trace) = device(threads);
            let table = Table::new(capacity);
            let finishes = Finishes::default();
            let result = d.launch_ordered("expand", 20, &table, |ctx, out| {
                outlast_direct_phase(ctx.block_id);
                let b = ctx.block_id as u32;
                let kids: Vec<u32> = (0..size(ctx.block_id) as u32).collect();
                ctx.counters.atomic();
                let appended = out.append(b, &kids);
                finishes.finish(ctx.block_id, threads > 1);
                appended?;
                ctx.counters.dram_write(2 * kids.len());
                Ok(())
            });
            let at_refusal = table.at_refusal.lock().unwrap().clone();
            (
                result,
                table.rows(),
                d.counters(),
                launch_threads(&trace),
                at_refusal,
            )
        };
        let (result1, rows1, counters1, _, _) = run(1);
        let (result4, rows4, counters4, threads4, at_refusal) = run(4);
        assert!(
            threads4[0] > 1,
            "the overflow happened on the parallel path"
        );
        let lower: Vec<(u32, u32)> = (0..k)
            .flat_map(|b| (0..size(b) as u32).map(move |c| (b as u32, c)))
            .collect();
        assert_eq!(at_refusal, Some(lower), "exactly blocks < k committed");
        assert!(matches!(
            result4,
            Err(DeviceError::BufferOverflow { capacity: c }) if c == capacity
        ));
        assert_eq!(format!("{result4:?}"), format!("{result1:?}"));
        assert_eq!(rows4, rows1);
        assert_eq!(rows4.len(), capacity, "the replay filled the gap");
        assert_eq!(counters4, counters1);
    }

    #[test]
    fn a_flat_buffer_overflows_at_the_same_block_at_any_core_count() {
        // Block b appends b % 3 + 1 words. Block 8's run does not fit in
        // what blocks 0..8 leave; the later runs that fit the rest land
        // as they would in order.
        let size = |b: usize| b % 3 + 1;
        let k = 8;
        let capacity = (0..k).map(size).sum::<usize>() + size(k) - 1;
        let words = |b: usize| (0..size(b)).map(move |c| (100 * b + c) as u32);
        let run = |threads| {
            let (d, trace) = device(threads);
            let buf = GlobalBuffer::new(capacity);
            let finishes = Finishes::default();
            let result = d.launch_ordered("expand", 20, &buf, |ctx, out| {
                outlast_direct_phase(ctx.block_id);
                ctx.counters.atomic();
                let kids: Vec<u32> = words(ctx.block_id).collect();
                let appended = out.append(ctx.block_id as u32, &kids);
                finishes.finish(ctx.block_id, threads > 1);
                appended
            });
            let held: Vec<u32> = (0..buf.len()).map(|i| buf.get(i)).collect();
            (
                format!("{result:?}"),
                held,
                d.counters(),
                launch_threads(&trace),
            )
        };
        let (result1, held1, counters1, _) = run(1);
        let (result4, held4, counters4, threads4) = run(4);
        assert!(
            threads4[0] > 1,
            "the overflow happened on the parallel path"
        );
        // The in-order run: every block whose run fits what is left.
        let mut in_order = Vec::new();
        for b in 0..20 {
            if in_order.len() + size(b) <= capacity {
                in_order.extend(words(b));
            }
        }
        assert_eq!(held1, in_order);
        assert_eq!(held4, in_order);
        assert_eq!(
            result1,
            format!(
                "{:?}",
                Err::<(), _>(DeviceError::BufferOverflow { capacity })
            )
        );
        assert_eq!(result4, result1);
        assert_eq!(counters4, counters1);
    }

    #[test]
    fn per_block_tracing_keeps_the_grid_on_the_calling_thread() {
        let mut d = Device::new(DeviceConfig::test_small());
        d.set_host_threads(4);
        let trace = Trace::with_config(cuts_obs::TraceConfig { per_block: true });
        d.set_trace(trace.clone());
        let table = Table::new(64);
        let caller = std::thread::current().id();
        d.launch_ordered("expand", 8, &table, |ctx, out| {
            outlast_direct_phase(ctx.block_id);
            assert_eq!(std::thread::current().id(), caller);
            out.append(ctx.block_id as u32, &[1])
        })
        .unwrap();
        let events = trace.journal().unwrap().drain_sorted();
        assert_eq!(
            events.iter().filter(|e| e.arg("block").is_some()).count(),
            8
        );
        let launch = events.iter().find(|e| e.arg("blocks").is_some()).unwrap();
        assert!(matches!(launch.arg("threads"), Some(Arg::U64(1))));
    }

    #[test]
    fn two_launchers_never_use_more_cores_than_the_ledger_has() {
        let (d, _trace) = device(2);
        let start = std::sync::Barrier::new(2);
        let (running, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let launch = || {
            // Both hold their core before either launch can lend one.
            let _core = d.cores().hold();
            start.wait();
            let table = Table::new(1 << 10);
            d.launch_ordered("expand", 48, &table, |ctx, out| {
                peak.fetch_max(running.fetch_add(1, SeqCst) + 1, SeqCst);
                assert!(d.cores().held() <= 2, "{} cores held", d.cores().held());
                std::thread::sleep(Duration::from_micros(100));
                running.fetch_sub(1, SeqCst);
                out.append(ctx.block_id as u32, &[1])
            })
            .unwrap();
            table.rows()
        };
        let rows = std::thread::scope(|s| {
            let a = s.spawn(launch);
            let b = s.spawn(launch);
            [a.join().unwrap(), b.join().unwrap()]
        });
        assert!(
            peak.load(SeqCst) <= 2,
            "{} blocks ran at once",
            peak.load(SeqCst)
        );
        let in_order: Vec<(u32, u32)> = (0..48).map(|b| (b, 1)).collect();
        assert_eq!(rows, [in_order.clone(), in_order]);
        assert_eq!(d.cores().held(), 0);
    }

    #[test]
    fn a_long_launch_gains_a_helper_once_the_other_holder_lets_go() {
        let (d, trace) = device(2);
        let (holding, release) = (AtomicBool::new(false), AtomicBool::new(false));
        let caller = std::thread::current().id();
        let helper_blocks = Mutex::new(Vec::new());
        let wait_for = |cond: &dyn Fn() -> bool| {
            while !cond() {
                std::thread::sleep(Duration::from_micros(20));
            }
        };
        let table = Table::new(1 << 10);
        std::thread::scope(|s| {
            s.spawn(|| {
                let core = d.cores().hold();
                holding.store(true, SeqCst);
                wait_for(&|| release.load(SeqCst));
                drop(core);
                holding.store(false, SeqCst);
            });
            wait_for(&|| holding.load(SeqCst));
            d.launch_ordered("expand", 64, &table, |ctx, out| {
                if std::thread::current().id() != caller {
                    helper_blocks.lock().unwrap().push(ctx.block_id);
                }
                match ctx.block_id {
                    8 => {
                        release.store(true, SeqCst);
                        wait_for(&|| !holding.load(SeqCst));
                    }
                    // By now the caller has claimed a block with a core free.
                    20 => wait_for(&|| !helper_blocks.lock().unwrap().is_empty()),
                    _ => {}
                }
                std::thread::sleep(Duration::from_micros(100));
                out.append(ctx.block_id as u32, &[1])
            })
            .unwrap();
        });
        assert_eq!(launch_threads(&trace), vec![2]);
        let helper_blocks = helper_blocks.into_inner().unwrap();
        assert!(
            helper_blocks.iter().all(|&b| b > 8),
            "a helper ran a block before the holder let go: {helper_blocks:?}"
        );
        assert_eq!(table.rows(), (0..64).map(|b| (b, 1)).collect::<Vec<_>>());
    }

    #[test]
    fn helpers_joining_and_yielding_leave_results_unchanged() {
        // A holder lets its core go at block 5, takes it back at block
        // 20 (the helper yields) and lets go again at block 40 (a new
        // helper joins). Blocks wait on those steps, so each happens at
        // a known point of the grid.
        let run = |threads: usize| {
            let (d, trace) = device(threads);
            let (holding, hold) = (AtomicBool::new(false), AtomicBool::new(true));
            let done = AtomicBool::new(false);
            let caller = std::thread::current().id();
            let helpers = Mutex::new(std::collections::HashSet::new());
            let wait_for = |cond: &dyn Fn() -> bool| {
                while threads > 1 && !cond() {
                    std::thread::sleep(Duration::from_micros(20));
                }
            };
            let table = Table::new(1 << 12);
            let result = std::thread::scope(|s| {
                // The holder follows `hold` until the launch is done.
                s.spawn(|| loop {
                    while !hold.load(SeqCst) {
                        if done.load(SeqCst) {
                            return;
                        }
                        std::thread::sleep(Duration::from_micros(20));
                    }
                    let core = d.cores().hold();
                    holding.store(true, SeqCst);
                    while hold.load(SeqCst) {
                        std::thread::sleep(Duration::from_micros(20));
                    }
                    drop(core);
                    holding.store(false, SeqCst);
                });
                wait_for(&|| holding.load(SeqCst));
                let result = d.launch_ordered("expand", 200, &table, |ctx, out| {
                    let b = ctx.block_id;
                    if std::thread::current().id() != caller {
                        helpers.lock().unwrap().insert(std::thread::current().id());
                    }
                    let helpers = || helpers.lock().unwrap().len();
                    match b {
                        5 | 40 => {
                            hold.store(false, SeqCst);
                            wait_for(&|| !holding.load(SeqCst));
                        }
                        20 => {
                            // The helper has run a block before it yields.
                            wait_for(&|| helpers() == 1);
                            hold.store(true, SeqCst);
                            wait_for(&|| holding.load(SeqCst));
                        }
                        60 => wait_for(&|| helpers() == 2),
                        _ => {}
                    }
                    std::thread::sleep(Duration::from_micros(50));
                    ctx.counters.alu(b % 7 + 1);
                    let kids: Vec<u32> = (0..(b % 4) as u32).collect();
                    out.append(b as u32, &kids)
                });
                hold.store(false, SeqCst);
                done.store(true, SeqCst);
                result
            });
            (result, table.rows(), d.counters(), launch_threads(&trace))
        };
        let (result1, rows1, counters1, threads1) = run(1);
        let (result2, rows2, counters2, threads2) = run(2);
        assert_eq!(threads1, vec![1]);
        assert_eq!(threads2, vec![3], "one helper yielded, a second joined");
        assert!(result1.is_ok() && result2.is_ok());
        assert_eq!(rows2, rows1);
        assert_eq!(counters2, counters1);
    }

    #[test]
    fn small_blocks_claimed_several_at_a_time_commit_in_block_order() {
        // Blocks of about a microsecond: helpers claim many at a time.
        // One capacity fits the grid; in the other, block 2900's run
        // overflows inside a claim, and later one-entry blocks still fit.
        let size = |b: usize| b % 3;
        let fits: usize = (0..3000).map(size).sum();
        let overflows = (0..2900).map(size).sum::<usize>() + 1;
        assert_eq!(size(2900), 2);
        for capacity in [fits, overflows] {
            let run = |threads| {
                let (d, trace) = device(threads);
                let table = Table::new(capacity);
                let result = d.launch_ordered("expand", 3000, &table, |ctx, out| {
                    let t = std::time::Instant::now();
                    while t.elapsed() < Duration::from_micros(1) {}
                    ctx.counters.alu(ctx.block_id % 5 + 1);
                    let kids: Vec<u32> = (0..size(ctx.block_id) as u32).collect();
                    out.append(ctx.block_id as u32, &kids)
                });
                (
                    format!("{result:?}"),
                    table.rows(),
                    d.counters(),
                    launch_threads(&trace),
                )
            };
            let (result1, rows1, counters1, _) = run(1);
            assert_eq!(result1 == "Ok(())", capacity == fits);
            // Helpers start late on a loaded host: repeat until one ran.
            let mut helped = false;
            for _ in 0..20 {
                let (result2, rows2, counters2, threads2) = run(2);
                assert_eq!(
                    (&result2, &rows2, &counters2),
                    (&result1, &rows1, &counters1)
                );
                helped = threads2[0] > 1;
                if helped {
                    break;
                }
            }
            assert!(helped, "no helper joined in 20 attempts");
        }
    }
}
