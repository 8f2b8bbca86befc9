//! Device-resident word buffers with atomic-cursor reservation.
//!
//! The central trick of the cuTS data structure (§4.1.1) is that a thread
//! needs only **one atomic operation** — a fetch-add on a write cursor — to
//! claim space for its results, after which it fills the claimed range with
//! plain stores while other warps interleave their own ranges freely.
//! [`GlobalBuffer`] reproduces that: [`GlobalBuffer::reserve`] is the
//! atomic, the returned [`Reservation`] is the claimed range, and
//! disjointness of reservations makes the unsynchronised stores race-free.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::error::DeviceError;
use crate::ordered::{RunTarget, StagedRuns};

/// A fixed-capacity array of `u32` words living in (accounted) device
/// memory, supporting concurrent append via reserved ranges.
pub struct GlobalBuffer {
    data: Box<[UnsafeCell<u32>]>,
    cursor: AtomicUsize,
    /// Device allocation ledger; words are returned on drop.
    ledger: Option<Arc<AtomicUsize>>,
}

// SAFETY: concurrent access is mediated by the reservation protocol — every
// write goes through a `Reservation` whose range was claimed by a unique
// fetch-add, so no two threads ever write the same word; reads of committed
// prefixes happen after the launch returns (its helper threads are joined
// by `std::thread::scope`, and its commits are ordered by the launch's
// lock) or target ranges disjoint from in-flight reservations.
unsafe impl Sync for GlobalBuffer {}
unsafe impl Send for GlobalBuffer {}

impl GlobalBuffer {
    /// Unaccounted buffer (tests, host-side scratch).
    pub fn new(capacity: usize) -> Self {
        // `vec![0; n]` comes from zeroed (lazily mapped) pages, so huge
        // device buffers cost O(pages touched), not O(capacity);
        // `UnsafeCell<u32>` is `repr(transparent)` over `u32`, so the
        // allocation can be reinterpreted in place.
        let zeroed: Box<[u32]> = vec![0u32; capacity].into_boxed_slice();
        let len = zeroed.len();
        let ptr = Box::into_raw(zeroed) as *mut UnsafeCell<u32>;
        // SAFETY: same length, same layout (repr(transparent)), ownership
        // transferred straight back into a Box.
        let data = unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, len)) };
        GlobalBuffer {
            data,
            cursor: AtomicUsize::new(0),
            ledger: None,
        }
    }

    pub(crate) fn with_ledger(capacity: usize, ledger: Arc<AtomicUsize>) -> Self {
        let mut b = GlobalBuffer::new(capacity);
        b.ledger = Some(ledger);
        b
    }

    /// Capacity in words.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Committed length (current cursor, clamped to capacity).
    #[inline]
    pub fn len(&self) -> usize {
        self.cursor.load(Ordering::Acquire).min(self.capacity())
    }

    /// True if nothing has been appended.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remaining words.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.capacity() - self.len()
    }

    /// Claims `n` contiguous words with a single fetch-add (the paper's one
    /// atomic per write burst). Fails with [`DeviceError::BufferOverflow`]
    /// when the buffer cannot hold `n` more words; the failed claim is
    /// rolled back so the committed length stays accurate. The end-of-range
    /// check uses `checked_add` — a pathological `n` near `usize::MAX` must
    /// overflow the claim, not wrap past the capacity comparison.
    pub fn reserve(&self, n: usize) -> Result<Reservation<'_>, DeviceError> {
        let start = self.cursor.fetch_add(n, Ordering::AcqRel);
        match start.checked_add(n) {
            Some(end) if end <= self.capacity() => Ok(Reservation {
                buf: self,
                start,
                len: n,
            }),
            _ => {
                self.cursor.fetch_sub(n, Ordering::AcqRel);
                Err(DeviceError::BufferOverflow {
                    capacity: self.capacity(),
                })
            }
        }
    }

    /// Writes a word without a reservation.
    ///
    /// # Safety
    /// The caller must guarantee no other thread reads or writes `idx`
    /// concurrently. Used by structures that coordinate a *shared* cursor
    /// across several buffers (the trie's PA/CA pair table), where a
    /// per-buffer reservation cannot express the pairing invariant.
    #[inline]
    pub unsafe fn write_raw(&self, idx: usize, val: u32) {
        debug_assert!(idx < self.capacity());
        unsafe { *self.data[idx].get() = val };
    }

    /// Reads a committed word. Callers must only read indices disjoint from
    /// in-flight reservations (in the engine: previous trie levels while
    /// the current level is being written).
    #[inline]
    pub fn get(&self, idx: usize) -> u32 {
        assert!(idx < self.capacity(), "read past buffer capacity");
        // SAFETY: in-bounds; protocol guarantees no concurrent writer to
        // this index (see type-level comment).
        unsafe { *self.data[idx].get() }
    }

    /// Truncates the committed length (host-side; used when a chunk's
    /// scratch levels are discarded during hybrid BFS-DFS).
    pub fn truncate(&self, len: usize) {
        let cur = self.cursor.load(Ordering::Acquire);
        assert!(len <= cur, "truncate can only shrink");
        self.cursor.store(len, Ordering::Release);
    }

    /// Clears the buffer.
    pub fn clear(&self) {
        self.cursor.store(0, Ordering::Release);
    }
}

impl Drop for GlobalBuffer {
    fn drop(&mut self) {
        if let Some(ledger) = &self.ledger {
            ledger.fetch_sub(self.capacity(), Ordering::AcqRel);
        }
    }
}

/// A flat level as an ordered launch's target: each run is its children
/// words, appended contiguously; the parent is not stored. A grid that
/// writes at offsets it reserved before the launch passes its buffer as
/// a target it never appends to.
impl RunTarget for GlobalBuffer {
    fn append(&self, _parent: u32, children: &[u32]) -> Result<(), DeviceError> {
        self.reserve(children.len())?.write_slice(children);
        Ok(())
    }

    fn append_all(&self, runs: &StagedRuns) -> bool {
        let Ok(r) = self.reserve(runs.len()) else {
            return false;
        };
        for (at, &c) in runs.iter().flat_map(|(_, kids)| kids).enumerate() {
            r.write(at, c);
        }
        true
    }
}

impl std::fmt::Debug for GlobalBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalBuffer")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

/// A claimed, exclusive range of a [`GlobalBuffer`]. Writing through a
/// reservation is safe: ranges from distinct `reserve` calls never overlap.
pub struct Reservation<'a> {
    buf: &'a GlobalBuffer,
    start: usize,
    len: usize,
}

impl Reservation<'_> {
    /// Absolute start index of the claimed range.
    #[inline]
    pub fn start(&self) -> usize {
        self.start
    }

    /// Length of the claimed range.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the claimed range is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes `val` at `offset` within the claimed range.
    #[inline]
    pub fn write(&self, offset: usize, val: u32) {
        assert!(offset < self.len, "write past reservation");
        // SAFETY: index in-bounds and exclusively owned by this reservation.
        unsafe { *self.buf.data[self.start + offset].get() = val };
    }

    /// Copies a slice into the front of the claimed range.
    pub fn write_slice(&self, vals: &[u32]) {
        assert!(vals.len() <= self.len, "slice larger than reservation");
        for (i, &v) in vals.iter().enumerate() {
            self.write(i, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_write() {
        let b = GlobalBuffer::new(8);
        let r = b.reserve(3).unwrap();
        r.write_slice(&[1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!([b.get(0), b.get(1), b.get(2)], [1, 2, 3]);
    }

    #[test]
    fn overflow_rolls_back() {
        let b = GlobalBuffer::new(4);
        b.reserve(3).unwrap();
        assert!(b.reserve(2).is_err());
        assert_eq!(b.len(), 3); // rollback happened
        b.reserve(1).unwrap(); // exactly fits
        assert!(b.reserve(1).is_err());
    }

    #[test]
    fn reserve_near_usize_max_overflows_cleanly() {
        let b = GlobalBuffer::new(8);
        b.reserve(3).unwrap();
        // start + n wraps usize; the unchecked comparison would conclude
        // the claim fits and hand out a range past the end of the buffer.
        assert!(matches!(
            b.reserve(usize::MAX - 1),
            Err(DeviceError::BufferOverflow { capacity: 8 })
        ));
        assert_eq!(b.len(), 3, "failed claim rolled back");
        b.reserve(5).unwrap(); // buffer still fully usable
    }

    #[test]
    fn concurrent_disjoint_appends() {
        use std::sync::atomic::AtomicU64;
        let b = GlobalBuffer::new(10_000);
        let sum = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let b = &b;
                let sum = &sum;
                s.spawn(move || {
                    for i in 0..100 {
                        let r = b.reserve(5).unwrap();
                        for k in 0..5 {
                            r.write(k, t * 1000 + i);
                        }
                        sum.fetch_add(5 * (t * 1000 + i) as u64, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(b.len(), 8 * 100 * 5);
        let total: u64 = (0..b.len()).map(|i| b.get(i) as u64).sum();
        assert_eq!(total, sum.load(Ordering::Relaxed));
    }

    #[test]
    fn truncate_and_clear() {
        let b = GlobalBuffer::new(8);
        b.reserve(6).unwrap();
        b.truncate(2);
        assert_eq!(b.len(), 2);
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "write past reservation")]
    fn reservation_bounds_enforced() {
        let b = GlobalBuffer::new(8);
        let r = b.reserve(2).unwrap();
        r.write(2, 9);
    }

    #[test]
    fn ledger_returns_words_on_drop() {
        let ledger = Arc::new(AtomicUsize::new(100));
        {
            let _b = GlobalBuffer::with_ledger(40, ledger.clone());
            // ledger is managed by Device::alloc_buffer; with_ledger itself
            // does not add, only drop subtracts — emulate the add here.
            ledger.fetch_add(40, Ordering::AcqRel);
            assert_eq!(ledger.load(Ordering::Acquire), 140);
        }
        assert_eq!(ledger.load(Ordering::Acquire), 100);
    }
}
