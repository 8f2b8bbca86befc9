//! Replicated work ledger: the recovery layer's source of truth,
//! generic over the unit of work.
//!
//! Every unit of work — a path-batch chunk in the distributed runtime
//! (`cuts-dist`), a whole job in [`crate::serve`] — is registered here
//! before any rank may process it, and its match count is *committed*
//! here exactly once. The run is complete when every registered unit is
//! committed, and the run's total is the sum of committed counts — so a
//! rank crash can lose in-flight computation but never results, and
//! at-least-once delivery of donated work deduplicates on commit.
//!
//! In the paper's deployment this role is played by the saved-results
//! store each node writes after every chunk of Algorithm 3 (plus a
//! replicated ownership table); in this in-process simulation it is a
//! mutex-protected map shared by the worker threads.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Stable identity of one registered unit of work.
pub type WorkId = u64;

#[derive(Debug)]
enum WorkState<T> {
    /// Registered, not yet committed; `owner` is responsible for it and
    /// `payload` is the recoverable copy of the work itself.
    Pending { owner: usize, payload: T },
    /// Committed with its match count.
    Done,
}

#[derive(Debug)]
struct LedgerInner<T> {
    units: HashMap<WorkId, WorkState<T>>,
    pending: usize,
    total_matches: u64,
    reassigned: usize,
    first_loss_at: Option<Instant>,
    recovered_at: Option<Instant>,
}

impl<T> Default for LedgerInner<T> {
    fn default() -> Self {
        LedgerInner {
            units: HashMap::new(),
            pending: 0,
            total_matches: 0,
            reassigned: 0,
            first_loss_at: None,
            recovered_at: None,
        }
    }
}

/// Shared work-ownership and result store (see module docs). `T` is the
/// recoverable payload a survivor re-executes when the owner dies.
#[derive(Debug)]
pub struct WorkLedger<T> {
    inner: Mutex<LedgerInner<T>>,
    next_id: AtomicU64,
}

impl<T> Default for WorkLedger<T> {
    fn default() -> Self {
        WorkLedger {
            inner: Mutex::new(LedgerInner::default()),
            next_id: AtomicU64::new(0),
        }
    }
}

impl<T: Clone> WorkLedger<T> {
    /// Empty ledger.
    pub fn new() -> Self {
        WorkLedger::default()
    }

    /// Allocates a fresh work id.
    pub fn new_id(&self) -> WorkId {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers a unit owned by `owner`. The payload copy is what a
    /// surviving rank re-executes if `owner` dies.
    pub fn register(&self, id: WorkId, owner: usize, payload: &T) {
        let mut inner = self.inner.lock().unwrap();
        let prev = inner.units.insert(
            id,
            WorkState::Pending {
                owner,
                payload: payload.clone(),
            },
        );
        assert!(prev.is_none(), "work unit {id} registered twice");
        inner.pending += 1;
    }

    /// Re-homes a pending unit to `new_owner` (a donation hand-off, or a
    /// serving lane claiming a queued job). Returns `false` when the unit
    /// is already committed — the signal for a receiver to discard an
    /// at-least-once duplicate.
    pub fn transfer(&self, id: WorkId, new_owner: usize) -> bool {
        let mut inner = self.inner.lock().unwrap();
        match inner.units.get_mut(&id) {
            Some(WorkState::Pending { owner, .. }) => {
                *owner = new_owner;
                true
            }
            _ => false,
        }
    }

    /// Commits a unit's match count. Idempotent: only the first commit
    /// is recorded; returns whether this call was the first.
    pub fn commit(&self, id: WorkId, matches: u64) -> bool {
        let mut inner = self.inner.lock().unwrap();
        match inner.units.insert(id, WorkState::Done) {
            Some(WorkState::Pending { .. }) => {
                inner.pending -= 1;
                inner.total_matches += matches;
                if inner.pending == 0 && inner.first_loss_at.is_some() {
                    inner.recovered_at = Some(Instant::now());
                }
                true
            }
            Some(WorkState::Done) | None => false,
        }
    }

    /// True when every registered unit has committed.
    pub fn all_completed(&self) -> bool {
        self.inner.lock().unwrap().pending == 0
    }

    /// Pending (uncommitted) unit count.
    pub fn pending(&self) -> usize {
        self.inner.lock().unwrap().pending
    }

    /// Sum of committed match counts.
    pub fn total_matches(&self) -> u64 {
        self.inner.lock().unwrap().total_matches
    }

    /// Claims every pending unit whose owner satisfies `orphaned` (dead
    /// ranks, plus the claimant itself for work lost in transit),
    /// transferring ownership to `me`. Returns the claimed work.
    pub fn reclaim<F: Fn(usize) -> bool>(&self, me: usize, orphaned: F) -> Vec<(WorkId, T)> {
        let mut inner = self.inner.lock().unwrap();
        let mut claimed = Vec::new();
        for (&id, state) in inner.units.iter_mut() {
            if let WorkState::Pending { owner, payload } = state {
                if *owner != me && orphaned(*owner) {
                    *owner = me;
                    claimed.push((id, payload.clone()));
                } else if *owner == me {
                    // Units homed to an idle claimant can only be work
                    // whose hand-off was lost: re-materialise them.
                    claimed.push((id, payload.clone()));
                }
            }
        }
        if !claimed.is_empty() {
            inner.reassigned += claimed.len();
            claimed.sort_by_key(|&(id, _)| id);
        }
        claimed
    }

    /// Like [`WorkLedger::reclaim`], but claims *only* units owned by
    /// ranks satisfying `orphaned` — never the claimant's own pending
    /// units. The serving tier uses this to move a dead rank's jobs back
    /// to its queue: its hand-offs are in-process moves that cannot be
    /// lost in transit, so re-materialising own work would enqueue
    /// duplicates.
    pub fn reclaim_foreign<F: Fn(usize) -> bool>(
        &self,
        me: usize,
        orphaned: F,
    ) -> Vec<(WorkId, T)> {
        let mut inner = self.inner.lock().unwrap();
        let mut claimed = Vec::new();
        for (&id, state) in inner.units.iter_mut() {
            if let WorkState::Pending { owner, payload } = state {
                if *owner != me && orphaned(*owner) {
                    *owner = me;
                    claimed.push((id, payload.clone()));
                }
            }
        }
        if !claimed.is_empty() {
            inner.reassigned += claimed.len();
            claimed.sort_by_key(|&(id, _)| id);
        }
        claimed
    }

    /// Records that a rank was lost (first loss starts the recovery
    /// clock).
    pub fn note_loss(&self) {
        let mut inner = self.inner.lock().unwrap();
        if inner.first_loss_at.is_none() {
            inner.first_loss_at = Some(Instant::now());
        }
    }

    /// Units re-homed by the reclaim calls so far.
    pub fn reassigned(&self) -> usize {
        self.inner.lock().unwrap().reassigned
    }

    /// Wall milliseconds from the first rank loss until the last pending
    /// unit committed; 0.0 when no loss occurred or recovery never
    /// finished.
    pub fn recovery_millis(&self) -> f64 {
        let inner = self.inner.lock().unwrap();
        match (inner.first_loss_at, inner.recovered_at) {
            (Some(lost), Some(done)) => done.saturating_duration_since(lost).as_secs_f64() * 1e3,
            _ => 0.0,
        }
    }
}

/// Liveness flags for every rank, flipped exactly once when a rank's
/// worker exits (cleanly or not). The in-process analogue of the MPI
/// launcher observing a process death; heartbeat timeouts elsewhere
/// cover *unresponsive* (delayed) ranks that are still technically
/// alive.
#[derive(Debug)]
pub struct AliveBoard {
    alive: Vec<AtomicBool>,
}

impl AliveBoard {
    /// All ranks start alive.
    pub fn new(ranks: usize) -> Self {
        AliveBoard {
            alive: (0..ranks).map(|_| AtomicBool::new(true)).collect(),
        }
    }

    /// Whether `rank`'s worker is still running.
    pub fn is_alive(&self, rank: usize) -> bool {
        self.alive[rank].load(Ordering::Acquire)
    }

    /// Marks `rank` exited.
    pub fn set_dead(&self, rank: usize) {
        self.alive[rank].store(false, Ordering::Release);
    }

    /// Number of ranks still alive.
    pub fn live_count(&self) -> usize {
        self.alive
            .iter()
            .filter(|a| a.load(Ordering::Acquire))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_is_idempotent_and_sums() {
        let l: WorkLedger<u32> = WorkLedger::new();
        let (a, b) = (l.new_id(), l.new_id());
        l.register(a, 0, &1);
        l.register(b, 1, &2);
        assert!(!l.all_completed());
        assert!(l.commit(a, 10));
        assert!(!l.commit(a, 10), "second commit must be a no-op");
        assert!(l.commit(b, 5));
        assert!(l.all_completed());
        assert_eq!(l.total_matches(), 15);
    }

    #[test]
    fn reclaim_foreign_never_takes_own_pending() {
        let l: WorkLedger<u32> = WorkLedger::new();
        let ids: Vec<WorkId> = (0..3).map(|_| l.new_id()).collect();
        l.register(ids[0], 0, &0); // dead rank
        l.register(ids[1], 1, &1); // live rank
        l.register(ids[2], 2, &2); // claimant's own pending unit
        let claimed = l.reclaim_foreign(2, |owner| owner == 0);
        let claimed_ids: Vec<WorkId> = claimed.iter().map(|&(id, _)| id).collect();
        assert_eq!(claimed_ids, vec![ids[0]]);
        // Once claimed it is ours; a second sweep takes nothing.
        assert!(l.reclaim_foreign(2, |owner| owner == 0).is_empty());
        assert_eq!(l.reassigned(), 1);
    }

    #[test]
    fn transfer_fails_after_commit() {
        let l: WorkLedger<u32> = WorkLedger::new();
        let id = l.new_id();
        l.register(id, 0, &1);
        assert!(l.transfer(id, 1));
        l.commit(id, 3);
        assert!(!l.transfer(id, 2));
    }

    #[test]
    fn reclaim_takes_dead_and_own_units_only() {
        let l: WorkLedger<u32> = WorkLedger::new();
        let ids: Vec<WorkId> = (0..4).map(|_| l.new_id()).collect();
        l.register(ids[0], 0, &0); // dead rank
        l.register(ids[1], 1, &1); // live rank
        l.register(ids[2], 2, &2); // claimant's own lost unit
        l.register(ids[3], 0, &3); // dead rank
        let claimed = l.reclaim(2, |owner| owner == 0);
        assert_eq!(claimed, vec![(ids[0], 0), (ids[2], 2), (ids[3], 3)]);
        assert_eq!(l.reassigned(), 3);
        // Claimed units now belong to rank 2; rank 1's unit untouched.
        assert_eq!(l.reclaim(2, |owner| owner == 0).len(), 3, "still mine");
        assert_eq!(l.reclaim(1, |_| false).len(), 1);
    }

    #[test]
    fn recovery_clock() {
        let l: WorkLedger<u32> = WorkLedger::new();
        let id = l.new_id();
        l.register(id, 0, &1);
        assert_eq!(l.recovery_millis(), 0.0);
        l.note_loss();
        std::thread::sleep(std::time::Duration::from_millis(2));
        l.commit(id, 1);
        assert!(l.recovery_millis() > 0.0);
    }

    #[test]
    fn alive_board_lifecycle() {
        let b = AliveBoard::new(3);
        assert_eq!(b.live_count(), 3);
        b.set_dead(1);
        assert!(!b.is_alive(1));
        assert!(b.is_alive(0));
        assert_eq!(b.live_count(), 2);
    }
}
