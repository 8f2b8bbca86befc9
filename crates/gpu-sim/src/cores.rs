//! The host-core ledger: how many host threads run kernel blocks at once.
//!
//! Every thread that has work — a dist rank, a serve lane, or a launch
//! whose caller holds nothing — holds one core of a [`HostCores`] ledger
//! through a [`Holding`], and drops it only while it blocks waiting for
//! more. A holder is never refused, so the ledger may run over its
//! capacity when more threads have work than the host has cores. The
//! cores left over are lent to the ordered launches still running: a
//! long launch adds a helper thread whenever a core is free, and a
//! helper gives its core back before its next claim of blocks once the
//! holders run over capacity (see [`crate::Device::launch_ordered`]).

use std::cell::Cell;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// Address of the ledger this thread holds a core of (0: none).
    static HELD: Cell<usize> = const { Cell::new(0) };
}

/// A count of host cores and of the threads holding them.
#[derive(Debug)]
pub struct HostCores {
    capacity: usize,
    held: AtomicUsize,
}

impl HostCores {
    /// A ledger of `capacity` cores (at least 1), none held.
    pub(crate) fn new(capacity: usize) -> HostCores {
        HostCores {
            capacity: capacity.max(1),
            held: AtomicUsize::new(0),
        }
    }

    /// The process-wide ledger every device launches on by default; its
    /// capacity is the host's available parallelism, read once.
    pub fn process() -> &'static HostCores {
        static PROCESS: OnceLock<HostCores> = OnceLock::new();
        PROCESS.get_or_init(|| {
            HostCores::new(std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
        })
    }

    /// Cores this ledger lends out at most.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cores held right now, by holders and helpers together.
    pub fn held(&self) -> usize {
        self.held.load(Ordering::Acquire)
    }

    /// Holds a core for the calling thread until the guard drops. Never
    /// refused: a thread with work runs whether or not a core is free.
    /// While the guard lives, launches on this ledger from this thread
    /// run on its core rather than holding one of their own. Guards of
    /// one thread drop in the reverse order of their taking.
    pub fn hold(&self) -> Holding<'_> {
        self.held.fetch_add(1, Ordering::AcqRel);
        let prev = HELD.with(|h| h.replace(self.addr()));
        Holding {
            cores: self,
            prev,
            _thread: PhantomData,
        }
    }

    /// True when the calling thread holds a core of this ledger.
    pub(crate) fn held_here(&self) -> bool {
        HELD.with(Cell::get) == self.addr()
    }

    /// True when a core looks free: a cheap hint, read before the
    /// launch clock, that [`HostCores::lend`] may succeed.
    pub(crate) fn has_free(&self) -> bool {
        self.held.load(Ordering::Relaxed) < self.capacity
    }

    /// A free core for a helper thread, if any.
    pub(crate) fn lend(&self) -> Option<Lent<'_>> {
        self.held
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |h| {
                (h < self.capacity).then_some(h + 1)
            })
            .ok()
            .map(|_| Lent(self))
    }

    fn addr(&self) -> usize {
        self as *const HostCores as usize
    }
}

/// A thread's hold on a core of a [`HostCores`] ledger (see
/// [`HostCores::hold`]). Tied to the thread that took it.
#[must_use = "the core is given back when the guard drops"]
pub struct Holding<'a> {
    cores: &'a HostCores,
    /// What the thread held before this guard.
    prev: usize,
    _thread: PhantomData<*const ()>,
}

impl Drop for Holding<'_> {
    fn drop(&mut self) {
        HELD.with(|h| h.set(self.prev));
        self.cores.held.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A core lent to a helper thread of an ordered launch.
pub(crate) struct Lent<'a>(&'a HostCores);

impl Lent<'_> {
    /// Gives the core back when the ledger is over capacity — another
    /// thread took up work meanwhile — and keeps it otherwise.
    pub(crate) fn keep_unless_over(self) -> Option<Self> {
        let cores = self.0;
        let over = cores
            .held
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |h| {
                (h > cores.capacity).then(|| h - 1)
            })
            .is_ok();
        if over {
            // Already given back by the update above.
            std::mem::forget(self);
            None
        } else {
            Some(self)
        }
    }
}

impl Drop for Lent<'_> {
    fn drop(&mut self) {
        self.0.held.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holders_are_never_refused_and_helpers_only_borrow_free_cores() {
        let cores = HostCores::new(2);
        let a = cores.hold();
        assert!(cores.held_here());
        let lent = cores.lend().expect("one core is free");
        assert!(cores.lend().is_none(), "both cores are in use");
        let b = std::thread::scope(|s| s.spawn(|| cores.hold().cores.held()).join().unwrap());
        assert_eq!(b, 3, "a holder runs over capacity");
        assert_eq!(
            cores.held(),
            2,
            "the holder's guard dropped with its thread"
        );
        drop(a);
        assert!(!cores.held_here());
        let lent = lent.keep_unless_over().expect("not over capacity");
        drop(lent);
        assert_eq!(cores.held(), 0);
    }

    #[test]
    fn a_helper_yields_only_the_excess() {
        let cores = HostCores::new(2);
        let _a = cores.hold();
        let (h1, h2) = (cores.lend().unwrap(), cores.hold());
        // Held 3 over 2: the first helper to check gives its core back.
        assert!(h1.keep_unless_over().is_none());
        assert_eq!(cores.held(), 2);
        drop(h2);
        let h3 = cores.lend().unwrap();
        assert!(h3.keep_unless_over().is_some(), "at capacity, not over");
        assert_eq!(cores.held(), 1);
    }

    #[test]
    fn nested_holds_restore_the_outer_ledger() {
        let (outer, inner) = (HostCores::new(1), HostCores::new(4));
        let o = outer.hold();
        {
            let _i = inner.hold();
            assert!(inner.held_here() && !outer.held_here());
        }
        assert!(outer.held_here());
        drop(o);
        assert_eq!((outer.held(), inner.held()), (0, 0));
    }
}
