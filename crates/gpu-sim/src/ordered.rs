//! Ordered block execution: a grid whose blocks append `(parent,
//! children)` runs to one shared table (the trie's PA/CA pairs), spread
//! over several host threads with the table layout of running the blocks
//! one after another.
//!
//! Helpers run blocks into a per-block [`StagedRuns`] buffer instead of
//! the table. A staged block commits — all of its runs, contiguously, or
//! none — once every lower block has committed, so entry positions never
//! depend on which block finishes first. Claims stay within a small
//! window above the commit point, so only a few blocks are ever staged.
//! The first block that does not commit (its runs do not fit, or it
//! failed) stops the grid; the launch then replays it and every later
//! block in order on the direct path, which reproduces the sequential
//! launch's partial writes, error and counters exactly. The same ordered
//! commit is how GSI-style engines make parallel writes land in a
//! deterministic layout (there: a count pass, then a write pass).

use std::sync::{Condvar, Mutex, PoisonError};

use crate::counters::Counters;
use crate::device::{BlockCtx, Device};
use crate::error::DeviceError;

/// Blocks a thread may run ahead of the commit point, per thread.
const WINDOW_PER_THREAD: usize = 4;

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
}

/// One block's runs, held back until the blocks below it have committed.
#[derive(Debug, Default)]
pub struct StagedRuns {
    /// `(parent, run length)` per run, in append order.
    heads: Vec<(u32, usize)>,
    children: Vec<u32>,
}

impl StagedRuns {
    /// Entries over all runs.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// True when no run holds an entry.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// The runs in append order, as `(parent, children)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u32])> + '_ {
        let mut at = 0;
        self.heads.iter().map(move |&(parent, len)| {
            let run = &self.children[at..at + len];
            at += len;
            (parent, run)
        })
    }

    fn push(&mut self, parent: u32, children: &[u32]) {
        self.heads.push((parent, children.len()));
        self.children.extend_from_slice(children);
    }

    fn clear(&mut self) {
        self.heads.clear();
        self.children.clear();
    }
}

/// Where a block of an ordered launch writes its runs: straight to the
/// table, or into the block's stage.
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
    /// succeeds and is checked when the block commits.
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
}

/// A block that ran but has not committed yet.
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
    /// Finished blocks in `commit .. commit + window`, at `block % window`.
    slots: Vec<Option<Done>>,
    /// Stage buffers of committed blocks, reused by later claims.
    free: Vec<StagedRuns>,
    /// Counters of the committed blocks.
    committed: Counters,
    /// First block that did not commit.
    stop: Option<usize>,
    /// A worker panicked: the others stop claiming and the scope rethrows.
    panicked: bool,
    /// Helper threads that ran at least one block.
    helpers: usize,
}

struct Shared<'a, T: ?Sized, F> {
    device: &'a Device,
    target: &'a T,
    f: &'a F,
    num_blocks: usize,
    window: usize,
    grid: Mutex<Grid>,
    wake: Condvar,
}

/// What the parallel part of a launch leaves for the caller.
pub(crate) struct Parallel {
    /// Counters of the blocks that committed.
    pub committed: Counters,
    /// First block the caller must replay on the direct path
    /// (`num_blocks` when every block committed).
    pub replay_from: usize,
    /// Helper threads that ran at least one block.
    pub helpers: usize,
}

/// Runs blocks `first .. num_blocks` on the caller and up to
/// `threads - 1` scoped helpers, committing them in block order.
pub(crate) fn run<T, F>(
    device: &Device,
    target: &T,
    f: &F,
    first: usize,
    num_blocks: usize,
    threads: usize,
) -> Parallel
where
    T: RunTarget + ?Sized,
    F: Fn(&mut BlockCtx, &mut RunOut<'_, T>) -> Result<(), DeviceError> + Sync,
{
    let threads = threads.min(num_blocks - first).max(1);
    let window = WINDOW_PER_THREAD * threads;
    let shared = Shared {
        device,
        target,
        f,
        num_blocks,
        window,
        grid: Mutex::new(Grid {
            claim: first,
            commit: first,
            slots: (0..window).map(|_| None).collect(),
            free: Vec::new(),
            committed: Counters::default(),
            stop: None,
            panicked: false,
            helpers: 0,
        }),
        wake: Condvar::new(),
    };
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(|| shared.work(true));
        }
        shared.work(false);
    });
    let grid = shared
        .grid
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    Parallel {
        committed: grid.committed,
        replay_from: grid.stop.unwrap_or(num_blocks),
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

impl<T, F> Shared<'_, T, F>
where
    T: RunTarget + ?Sized,
    F: Fn(&mut BlockCtx, &mut RunOut<'_, T>) -> Result<(), DeviceError> + Sync,
{
    /// One thread's loop: claim the next block in the window, run it into
    /// a stage, then commit every finished block at the commit point.
    fn work(&self, helper: bool) {
        let _guard = PanicGuard(&self.grid, &self.wake);
        let mut ran = false;
        let mut g = self.grid.lock().expect(POISONED);
        loop {
            while g.stop.is_none()
                && !g.panicked
                && g.claim < self.num_blocks
                && g.claim >= g.commit + self.window
            {
                g = self.wake.wait(g).expect(POISONED);
            }
            if g.stop.is_some() || g.panicked || g.claim >= self.num_blocks {
                return;
            }
            let block = g.claim;
            g.claim += 1;
            if helper && !ran {
                ran = true;
                g.helpers += 1;
            }
            let mut runs = g.free.pop().unwrap_or_default();
            drop(g);

            runs.clear();
            let mut ctx = self.device.block_ctx(block, self.num_blocks);
            let ok = (self.f)(&mut ctx, &mut RunOut(Out::Staged(&mut runs))).is_ok();

            g = self.grid.lock().expect(POISONED);
            g.slots[block % self.window] = Some(Done {
                counters: ctx.counters.c,
                runs,
                ok,
            });
            let before = g.commit;
            while g.stop.is_none() {
                let at = g.commit % self.window;
                let Some(done) = g.slots[at].take() else {
                    break;
                };
                if done.ok && self.target.append_all(&done.runs) {
                    g.committed += done.counters;
                    g.commit += 1;
                } else {
                    g.stop = Some(g.commit);
                }
                g.free.push(done.runs);
            }
            if g.commit != before || g.stop.is_some() {
                self.wake.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use cuts_obs::{Arg, EventKind, Registry, Trace};
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

    /// A device with a thread budget and a trace to read `threads` from.
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
}
