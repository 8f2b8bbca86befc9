//! The lock-sharded event journal.
//!
//! Concurrency design: events are appended to one of [`SHARDS`] mutexed
//! vectors, chosen by the calling thread's lane, so unrelated threads
//! (serve lanes, rank worker threads) almost never contend on a
//! lock. A thread's events always land in *its* shard in program order;
//! a global `seq` (fetch-add) plus the monotonic timestamp gives a total
//! order at drain time. Nothing is sampled or dropped — the journal is
//! lossless by construction, which the stress test asserts.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::event::Event;

/// Number of lock shards. A power of two comfortably above the worker
/// thread counts in play (ranks × lanes; kernel helper threads emit no
/// events).
pub const SHARDS: usize = 16;

static NEXT_LANE: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static LANE: u32 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

/// The calling thread's stable lane id (assigned on first use,
/// process-wide unique).
pub fn lane() -> u32 {
    LANE.with(|l| *l)
}

/// A lossless, lock-sharded event recorder shared by every instrumented
/// subsystem of one run.
pub struct Journal {
    shards: Vec<Mutex<Vec<Event>>>,
    seq: AtomicU64,
    epoch: Instant,
}

impl Default for Journal {
    fn default() -> Self {
        Self::new()
    }
}

impl Journal {
    /// An empty journal; its epoch (timestamp zero) is now.
    pub fn new() -> Self {
        Journal {
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            seq: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Microseconds since the journal epoch (monotonic).
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Records an event. The journal assigns the global sequence number;
    /// everything else is the caller's.
    pub fn record(&self, mut event: Event) {
        event.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let shard = (lane() as usize) % SHARDS;
        self.shards[shard].lock().unwrap().push(event);
    }

    /// Total events recorded so far.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes and returns every event, ordered by `(ts_us, seq)`.
    pub fn drain_sorted(&self) -> Vec<Event> {
        let mut all: Vec<Event> = self
            .shards
            .iter()
            .flat_map(|s| std::mem::take(&mut *s.lock().unwrap()))
            .collect();
        all.sort_by_key(|e| (e.ts_us, e.seq));
        all
    }

    /// Clones every event (journal keeps recording), ordered by
    /// `(ts_us, seq)`.
    pub fn snapshot_sorted(&self) -> Vec<Event> {
        let mut all: Vec<Event> = self
            .shards
            .iter()
            .flat_map(|s| s.lock().unwrap().clone())
            .collect();
        all.sort_by_key(|e| (e.ts_us, e.seq));
        all
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(journal: &Journal, name: &str) -> Event {
        Event {
            seq: 0,
            ts_us: journal.now_us(),
            dur_us: None,
            kind: EventKind::Run,
            name: name.into(),
            rank: None,
            lane: lane(),
            args: Vec::new(),
            counters: None,
        }
    }

    #[test]
    fn record_and_drain() {
        let j = Journal::new();
        assert!(j.is_empty());
        j.record(ev(&j, "a"));
        j.record(ev(&j, "b"));
        assert_eq!(j.len(), 2);
        let drained = j.drain_sorted();
        assert_eq!(drained.len(), 2);
        assert!(j.is_empty());
        // Same-thread order is preserved through seq tie-break.
        assert_eq!(drained[0].name, "a");
        assert_eq!(drained[1].name, "b");
        assert!(drained[0].seq < drained[1].seq);
    }

    #[test]
    fn snapshot_keeps_events() {
        let j = Journal::new();
        j.record(ev(&j, "x"));
        assert_eq!(j.snapshot_sorted().len(), 1);
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn lanes_are_stable_per_thread() {
        let a = lane();
        let b = lane();
        assert_eq!(a, b);
        let other = std::thread::spawn(lane).join().unwrap();
        assert_ne!(a, other);
    }
}
