//! Lock-free bitmap slot allocation over `&[AtomicU64]`.
//!
//! This is the `no_std` core of the arena-slab memory discipline (the
//! Harmony-style idiom: fixed-capacity slabs, one bit per slab, O(1)
//! acquire/release). One `u64` word tracks 64 slots; a set bit means the
//! slot is **allocated**. [`acquire`] claims the first clear bit at or
//! after a rotating hint with a single CAS per attempt; [`release`]
//! clears a bit with one `fetch_and`. Neither takes a lock and neither
//! scans under one, so contended alloc/free stays wait-free in practice
//! (the CAS retries only when another thread touched the *same* word in
//! the same instant).
//!
//! The functions are free-standing rather than methods on an owning type
//! so callers can embed the bitmap words wherever their layout needs them
//! (the gpu-sim arena packs one bitmap per slab class).

#![cfg_attr(not(test), no_std)]
#![warn(missing_docs)]

use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Slots tracked per bitmap word.
pub const BITS_PER_WORD: usize = 64;

/// Bitmap words needed to track `slots` slots.
#[inline]
pub const fn words_for(slots: usize) -> usize {
    slots.div_ceil(BITS_PER_WORD)
}

/// Mask of the bits in word `word` that correspond to real slots (all
/// ones except possibly in the final word of a non-multiple-of-64
/// bitmap, where the tail bits are permanently unavailable).
#[inline]
pub fn usable_mask(word: usize, slots: usize) -> u64 {
    let base = word * BITS_PER_WORD;
    if base >= slots {
        return 0;
    }
    let in_word = slots - base;
    if in_word >= BITS_PER_WORD {
        u64::MAX
    } else {
        (1u64 << in_word) - 1
    }
}

/// Claims one free slot and returns its index, or `None` when all
/// `slots` slots are taken.
///
/// The scan starts at the word `hint` points to and wraps once around the
/// bitmap, so repeated acquires are amortised O(1): the hint chases the
/// allocation frontier instead of rescanning fully-occupied prefixes.
/// `bitmap` must hold at least [`words_for`]`(slots)` words.
pub fn acquire(bitmap: &[AtomicU64], slots: usize, hint: &AtomicUsize) -> Option<usize> {
    let words = words_for(slots);
    debug_assert!(bitmap.len() >= words);
    if words == 0 {
        return None;
    }
    let start = hint.load(Ordering::Relaxed) % words;
    for step in 0..words {
        let w = (start + step) % words;
        let usable = usable_mask(w, slots);
        let mut cur = bitmap[w].load(Ordering::Relaxed);
        loop {
            let free = !cur & usable;
            if free == 0 {
                break; // word full; move on
            }
            let bit = free.trailing_zeros() as usize;
            match bitmap[w].compare_exchange_weak(
                cur,
                cur | (1u64 << bit),
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    hint.store(w, Ordering::Relaxed);
                    return Some(w * BITS_PER_WORD + bit);
                }
                Err(seen) => cur = seen, // lost the race on this word; retry it
            }
        }
    }
    None
}

/// Releases slot `slot`. Returns `true` when the slot was allocated
/// (i.e. this call freed it) — a `false` return means a double free,
/// which callers should treat as a logic error.
pub fn release(bitmap: &[AtomicU64], slot: usize) -> bool {
    let w = slot / BITS_PER_WORD;
    let mask = 1u64 << (slot % BITS_PER_WORD);
    debug_assert!(w < bitmap.len());
    let prev = bitmap[w].fetch_and(!mask, Ordering::AcqRel);
    prev & mask != 0
}

/// Number of allocated slots (exact only when no alloc/free is racing).
pub fn occupancy(bitmap: &[AtomicU64], slots: usize) -> usize {
    (0..words_for(slots))
        .map(|w| (bitmap[w].load(Ordering::Acquire) & usable_mask(w, slots)).count_ones() as usize)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bitmap(slots: usize) -> Vec<AtomicU64> {
        (0..words_for(slots)).map(|_| AtomicU64::new(0)).collect()
    }

    #[test]
    fn acquire_release_roundtrip() {
        let b = bitmap(10);
        let hint = AtomicUsize::new(0);
        let s0 = acquire(&b, 10, &hint).unwrap();
        let s1 = acquire(&b, 10, &hint).unwrap();
        assert_ne!(s0, s1, "two acquires never grant the same slot");
        assert_eq!(occupancy(&b, 10), 2);
        assert!(release(&b, s0), "first free succeeds");
        assert!(!release(&b, s0), "double free is detected");
        assert_eq!(occupancy(&b, 10), 1);
    }

    #[test]
    fn exhaustion_returns_none_and_respects_tail_mask() {
        // 70 slots span two words; the second word has only 6 usable bits.
        let b = bitmap(70);
        let hint = AtomicUsize::new(0);
        let mut got: Vec<usize> = (0..70).map(|_| acquire(&b, 70, &hint).unwrap()).collect();
        assert!(acquire(&b, 70, &hint).is_none(), "all slots taken");
        got.sort_unstable();
        assert_eq!(got, (0..70).collect::<Vec<_>>());
        assert_eq!(occupancy(&b, 70), 70);
    }

    #[test]
    fn hint_skips_full_prefix() {
        let b = bitmap(128);
        let hint = AtomicUsize::new(0);
        for _ in 0..64 {
            acquire(&b, 128, &hint).unwrap();
        }
        // The hint now points at word 0 (last success there); the next
        // acquire must still find word 1.
        assert_eq!(acquire(&b, 128, &hint), Some(64));
        assert_eq!(hint.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn masks_are_exact() {
        assert_eq!(usable_mask(0, 64), u64::MAX);
        assert_eq!(usable_mask(0, 3), 0b111);
        assert_eq!(usable_mask(1, 70), 0b11_1111);
        assert_eq!(usable_mask(2, 70), 0);
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
    }

    /// The satellite stress test: hammer one bitmap from many threads
    /// with acquire/release churn and verify no double-grant, no lost
    /// free, and exact occupancy after join.
    #[test]
    fn concurrent_churn_no_double_grant_no_lost_free() {
        use std::sync::atomic::AtomicU32;

        const SLOTS: usize = 200; // non-multiple of 64: tail mask in play
        const THREADS: usize = 8;
        const ROUNDS: usize = 500;
        let b = bitmap(SLOTS);
        let hint = AtomicUsize::new(0);
        // One owner tag per slot: a double grant shows up as a non-zero
        // fetch_add, a lost free as a slot still owned after join.
        let owners: Vec<AtomicU32> = (0..SLOTS).map(|_| AtomicU32::new(0)).collect();

        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (b, hint, owners) = (&b, &hint, &owners);
                s.spawn(move || {
                    let mut held: Vec<usize> = Vec::new();
                    for round in 0..ROUNDS {
                        if let Some(slot) = acquire(b, SLOTS, hint) {
                            let prev = owners[slot].fetch_add(1, Ordering::AcqRel);
                            assert_eq!(prev, 0, "slot {slot} double-granted");
                            held.push(slot);
                        }
                        // Release roughly half of what we hold, varying
                        // the order per thread and round.
                        if round % 2 == t % 2 {
                            while held.len() > 2 {
                                let slot = held.swap_remove(round % held.len());
                                let prev = owners[slot].fetch_sub(1, Ordering::AcqRel);
                                assert_eq!(prev, 1, "slot {slot} freed while unowned");
                                assert!(release(b, slot), "slot {slot} free lost");
                            }
                        }
                    }
                    for slot in held {
                        owners[slot].fetch_sub(1, Ordering::AcqRel);
                        assert!(release(b, slot));
                    }
                });
            }
        });
        assert_eq!(occupancy(&b, SLOTS), 0, "all slots returned after join");
        for (i, o) in owners.iter().enumerate() {
            assert_eq!(o.load(Ordering::Acquire), 0, "slot {i} leaked an owner");
        }
    }
}
