//! The PA/CA pair table: two device arrays, one shared atomic cursor.
//!
//! Storage comes in two shapes. A *single-segment* table wraps one PA and
//! one CA buffer of arbitrary equal capacity — the original flat layout,
//! still used for host-side tries and exact-size allocations. A *chained*
//! table is built over an [`Arena`] slab class: each segment is a pair of
//! power-of-two slabs (one PA, one CA), and [`PairTable::grow_to`]
//! appends fresh segments in place — no reallocation, no copy, no
//! retry-from-scratch — while committed entries and in-flight cursors
//! stay valid. Entry `i` lives at offset `i & (seg_entries - 1)` of
//! segment `i >> seg_shift`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use cuts_gpu_sim::{Arena, Device, DeviceError, GlobalBuffer, RunTarget, Slab, StagedRuns};

/// One array's worth of segment storage: a flat buffer (single-segment
/// tables) or an arena slab (chained tables).
enum SegStore {
    Buffer(GlobalBuffer),
    Slab(Slab),
}

impl SegStore {
    #[inline]
    fn capacity(&self) -> usize {
        match self {
            SegStore::Buffer(b) => b.capacity(),
            SegStore::Slab(s) => s.capacity(),
        }
    }

    #[inline]
    fn get(&self, idx: usize) -> u32 {
        match self {
            SegStore::Buffer(b) => b.get(idx),
            SegStore::Slab(s) => s.get(idx),
        }
    }

    /// # Safety
    /// Same contract as [`GlobalBuffer::write_raw`]: no concurrent reader
    /// or writer of `idx`.
    #[inline]
    unsafe fn write_raw(&self, idx: usize, val: u32) {
        match self {
            SegStore::Buffer(b) => unsafe { b.write_raw(idx, val) },
            SegStore::Slab(s) => unsafe { s.write_raw(idx, val) },
        }
    }
}

/// One link of the chain: paired PA and CA storage of equal capacity.
struct Segment {
    pa: SegStore,
    ca: SegStore,
}

/// Where a chained table's segments come from.
struct ChainSource {
    arena: Arena,
    class: usize,
}

/// Two parallel device arrays (parent indices and candidate ids) appended
/// through a single shared cursor, so entry `i` of one always pairs with
/// entry `i` of the other even under concurrent appends.
pub struct PairTable {
    /// Segment spine. Slot `s` is initialised exactly once, before
    /// `capacity` is raised to cover it (release/acquire pairing on
    /// `capacity` makes the segment visible to every reader that can
    /// address it).
    segs: Box<[OnceLock<Segment>]>,
    committed_segs: AtomicUsize,
    /// Entries per segment (power of two for chained tables; the full
    /// capacity for single-segment ones).
    seg_entries: usize,
    seg_shift: u32,
    /// Committed entry capacity (`committed_segs × seg_entries` when
    /// chained; fixed when single).
    capacity: AtomicUsize,
    cursor: AtomicUsize,
    /// First entry a [`Counted`] reservation claimed and left unwritten
    /// (`usize::MAX` when none is held); debug builds refuse to read from
    /// there on. Slabs are reused across runs, so such an entry would
    /// otherwise read as a previous run's data. Relaxed: it publishes no
    /// data, and a kernel's join orders its claims before later reads.
    unwritten_from: AtomicUsize,
    /// Single-segment fast path: direct indexing, arbitrary capacity.
    single: bool,
    /// Serialises [`PairTable::grow_to`] callers.
    grow: Mutex<()>,
    source: Option<ChainSource>,
}

impl PairTable {
    fn from_segment(seg: Segment) -> Self {
        let capacity = seg.pa.capacity();
        assert_eq!(
            capacity,
            seg.ca.capacity(),
            "PA and CA buffers must pair exactly"
        );
        let slot = OnceLock::new();
        slot.set(seg).ok().expect("fresh OnceLock");
        PairTable {
            segs: Box::new([slot]),
            committed_segs: AtomicUsize::new(1),
            seg_entries: capacity,
            seg_shift: 0,
            capacity: AtomicUsize::new(capacity),
            cursor: AtomicUsize::new(0),
            unwritten_from: AtomicUsize::new(usize::MAX),
            single: true,
            grow: Mutex::new(()),
            source: None,
        }
    }

    /// Allocates a single-segment table of `capacity` entries from device
    /// memory (costs `2 × capacity` words against the device budget).
    pub fn on_device(device: &Device, capacity: usize) -> Result<Self, DeviceError> {
        let pa = device.alloc_buffer(capacity)?;
        let ca = match device.alloc_buffer(capacity) {
            Ok(b) => b,
            Err(e) => {
                drop(pa);
                return Err(e);
            }
        };
        Ok(PairTable::from_segment(Segment {
            pa: SegStore::Buffer(pa),
            ca: SegStore::Buffer(ca),
        }))
    }

    /// Unaccounted host-side table (tests).
    pub fn on_host(capacity: usize) -> Self {
        PairTable::from_segment(Segment {
            pa: SegStore::Buffer(GlobalBuffer::new(capacity)),
            ca: SegStore::Buffer(GlobalBuffer::new(capacity)),
        })
    }

    /// Builds a chained table over slab class `class` of `arena`. Each
    /// segment holds `slab_words` entries (one PA slab + one CA slab);
    /// enough segments for `initial_entries` are acquired up front, and
    /// [`PairTable::grow_to`] may append more until `limit_entries` is
    /// covered. Capacities are therefore always a multiple of the slab
    /// size — callers needing an exact entry budget enforce it at the
    /// cursor, not the storage, layer.
    pub fn chained_on_arena(
        arena: &Arena,
        class: usize,
        initial_entries: usize,
        limit_entries: usize,
    ) -> Result<Self, DeviceError> {
        let seg_entries = arena.spec(class).slab_words;
        debug_assert!(seg_entries.is_power_of_two());
        let limit = limit_entries.max(initial_entries).max(1);
        let max_segs = limit.div_ceil(seg_entries);
        let want_segs = initial_entries.div_ceil(seg_entries).max(1);
        let segs: Box<[OnceLock<Segment>]> = (0..max_segs).map(|_| OnceLock::new()).collect();
        let t = PairTable {
            segs,
            committed_segs: AtomicUsize::new(0),
            seg_entries,
            seg_shift: seg_entries.trailing_zeros(),
            capacity: AtomicUsize::new(0),
            cursor: AtomicUsize::new(0),
            unwritten_from: AtomicUsize::new(usize::MAX),
            single: false,
            grow: Mutex::new(()),
            source: Some(ChainSource {
                arena: arena.clone(),
                class,
            }),
        };
        t.grow_to(want_segs * seg_entries)?;
        Ok(t)
    }

    /// Appends segments until the capacity covers `target_entries`.
    /// Returns the new capacity. Committed entries, sealed levels, and
    /// concurrent readers are untouched: growth is a pure chain append.
    ///
    /// Fails with [`DeviceError::OutOfMemory`] when the arena class is
    /// exhausted or the chain's spine (its `limit_entries`) is full; a
    /// partial grow keeps every segment it managed to add.
    pub fn grow_to(&self, target_entries: usize) -> Result<usize, DeviceError> {
        let source = self
            .source
            .as_ref()
            .expect("grow_to requires a chained table");
        let _g = self.grow.lock().unwrap();
        let mut committed = self.committed_segs.load(Ordering::Acquire);
        let need = target_entries.div_ceil(self.seg_entries);
        while committed < need {
            if committed >= self.segs.len() {
                return Err(DeviceError::OutOfMemory {
                    requested: 2 * self.seg_entries,
                    available: 0,
                });
            }
            let pa = source.arena.acquire(source.class)?;
            // A failed CA acquire drops `pa`, returning its slab bit.
            let ca = source.arena.acquire(source.class)?;
            self.segs[committed]
                .set(Segment {
                    pa: SegStore::Slab(pa),
                    ca: SegStore::Slab(ca),
                })
                .ok()
                .expect("segment slot initialised twice");
            committed += 1;
            self.committed_segs.store(committed, Ordering::Release);
            self.capacity
                .store(committed * self.seg_entries, Ordering::Release);
        }
        Ok(self.capacity.load(Ordering::Acquire))
    }

    /// True when the table grows by chaining arena slabs.
    #[inline]
    pub fn is_chained(&self) -> bool {
        !self.single
    }

    /// Entries per segment (the whole capacity for single-segment tables).
    #[inline]
    pub fn seg_entries(&self) -> usize {
        self.seg_entries
    }

    /// Upper bound [`PairTable::grow_to`] can ever reach: the chain's
    /// spine length (or the fixed capacity when single-segment).
    #[inline]
    pub fn max_entries(&self) -> usize {
        if self.single {
            self.capacity()
        } else {
            self.segs.len() * self.seg_entries
        }
    }

    /// Entry capacity committed so far.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Acquire)
    }

    /// Committed entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.cursor.load(Ordering::Acquire).min(self.capacity())
    }

    /// True if no entries are committed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Claims `n` entries with one atomic fetch-add; rolls back on
    /// overflow so `len()` stays exact. The end-of-range check uses
    /// `checked_add` so a pathological `n` near `usize::MAX` overflows
    /// the claim instead of wrapping past the capacity comparison.
    pub fn reserve(&self, n: usize) -> Result<PairRange<'_>, DeviceError> {
        let capacity = self.capacity();
        let start = self.cursor.fetch_add(n, Ordering::AcqRel);
        match start.checked_add(n) {
            Some(end) if end <= capacity => Ok(PairRange {
                table: self,
                start,
                len: n,
            }),
            _ => {
                self.cursor.fetch_sub(n, Ordering::AcqRel);
                Err(DeviceError::BufferOverflow { capacity })
            }
        }
    }

    /// A view of this table that reserves entries exactly as the table's
    /// own [`RunTarget`] does (same cursor, capacity and
    /// [`DeviceError::BufferOverflow`]) but writes no PA/CA word: the
    /// output of a level that is counted and never read.
    pub fn counted(&self) -> Counted<'_> {
        Counted(self)
    }

    /// Debug builds panic on reading an entry a [`Counted`] view claimed.
    #[inline]
    fn debug_assert_written(&self, i: usize) {
        debug_assert!(
            i < self.unwritten_from.load(Ordering::Relaxed),
            "entry {i} belongs to a counted level: reserved, never written"
        );
    }

    /// Locates entry `i`: its segment and in-segment offset.
    #[inline]
    fn locate(&self, i: usize) -> (&Segment, usize) {
        if self.single {
            let seg = self.segs[0].get().expect("single segment present");
            (seg, i)
        } else {
            let s = i >> self.seg_shift;
            let off = i & (self.seg_entries - 1);
            let seg = self.segs[s]
                .get()
                .expect("entry index beyond committed capacity");
            (seg, off)
        }
    }

    /// Parent index of entry `i`.
    #[inline]
    pub fn parent(&self, i: usize) -> u32 {
        self.debug_assert_written(i);
        let (seg, off) = self.locate(i);
        seg.pa.get(off)
    }

    /// Candidate id of entry `i`.
    #[inline]
    pub fn candidate(&self, i: usize) -> u32 {
        self.debug_assert_written(i);
        let (seg, off) = self.locate(i);
        seg.ca.get(off)
    }

    /// `(parent, candidate)` of entry `i`, located once for both arrays.
    #[inline]
    pub fn pair(&self, i: usize) -> (u32, u32) {
        self.debug_assert_written(i);
        let (seg, off) = self.locate(i);
        (seg.pa.get(off), seg.ca.get(off))
    }

    /// Shrinks the committed length (hybrid BFS-DFS reclaims chunk
    /// scratch levels this way), dropping any counted entries it cuts.
    pub fn truncate(&self, len: usize) {
        let cur = self.cursor.load(Ordering::Acquire);
        assert!(len <= cur, "truncate can only shrink");
        self.cursor.store(len, Ordering::Release);
        if len <= self.unwritten_from.load(Ordering::Relaxed) {
            self.unwritten_from.store(usize::MAX, Ordering::Relaxed);
        }
    }

    /// Drops all entries. Chained storage keeps its segments: clearing is
    /// the between-queries reset, not a release.
    pub fn clear(&self) {
        self.truncate(0);
    }
}

impl std::fmt::Debug for PairTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PairTable")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .field("chained", &self.is_chained())
            .field("seg_entries", &self.seg_entries)
            .finish()
    }
}

/// Kernels append to the table through ordered launches
/// ([`cuts_gpu_sim::Device::launch_ordered`]).
impl RunTarget for PairTable {
    fn append(&self, parent: u32, children: &[u32]) -> Result<(), DeviceError> {
        self.reserve(children.len())?
            .write_children(0, parent, children);
        Ok(())
    }

    fn append_all(&self, runs: &StagedRuns) -> bool {
        let Ok(r) = self.reserve(runs.len()) else {
            return false;
        };
        let mut at = 0;
        for (parent, children) in runs.iter() {
            r.write_children(at, parent, children);
            at += children.len();
        }
        true
    }
}

/// The counting output of a [`PairTable`] (see [`PairTable::counted`]):
/// appends move the cursor and overflow like the table's own, and a
/// staged claim keeps and reserves only its entries' count.
pub struct Counted<'a>(&'a PairTable);

impl Counted<'_> {
    fn claim(&self, n: usize) -> Result<(), DeviceError> {
        let start = self.0.reserve(n)?.start();
        let mark = &self.0.unwritten_from;
        if n > 0 && start < mark.load(Ordering::Relaxed) {
            mark.fetch_min(start, Ordering::Relaxed);
        }
        Ok(())
    }
}

impl RunTarget for Counted<'_> {
    fn append(&self, _parent: u32, children: &[u32]) -> Result<(), DeviceError> {
        self.claim(children.len())
    }

    fn append_all(&self, runs: &StagedRuns) -> bool {
        self.claim(runs.len()).is_ok()
    }

    fn append_len(&self, n: usize) -> Result<(), DeviceError> {
        self.claim(n)
    }

    fn stores_children(&self) -> bool {
        false
    }
}

/// An exclusively-owned range of a [`PairTable`].
pub struct PairRange<'a> {
    table: &'a PairTable,
    start: usize,
    len: usize,
}

impl PairRange<'_> {
    /// Absolute index of the first claimed entry.
    #[inline]
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of claimed entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the claimed range is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes the pair at `offset` within the claimed range.
    #[inline]
    pub fn write(&self, offset: usize, parent: u32, candidate: u32) {
        assert!(offset < self.len, "write past pair reservation");
        let (seg, off) = self.table.locate(self.start + offset);
        // SAFETY: the entry lies in a range claimed by a unique fetch-add;
        // no other thread touches it until the kernel joins.
        unsafe {
            seg.pa.write_raw(off, parent);
            seg.ca.write_raw(off, candidate);
        }
    }

    /// Writes `children[k]` under `parent` at offset `offset + k` of the
    /// claimed range. The segment is located once per run of entries and
    /// the run splits only where it crosses a segment boundary.
    pub fn write_children(&self, offset: usize, parent: u32, children: &[u32]) {
        assert!(
            offset
                .checked_add(children.len())
                .is_some_and(|end| end <= self.len),
            "write past pair reservation"
        );
        let mut at = self.start + offset;
        let mut rest = children;
        while !rest.is_empty() {
            let (seg, off) = self.table.locate(at);
            let n = rest.len().min(seg.pa.capacity() - off);
            let (run, tail) = rest.split_at(n);
            for (k, &c) in run.iter().enumerate() {
                // SAFETY: `off + k < capacity` because `n` is clamped to
                // this segment, and, as in `write`, every entry of the
                // run lies in this range's uniquely claimed entries.
                unsafe {
                    seg.pa.write_raw(off + k, parent);
                    seg.ca.write_raw(off + k, c);
                }
            }
            at += n;
            rest = tail;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NO_PARENT;
    use cuts_gpu_sim::{ClassSpec, DeviceConfig};

    fn chain_arena(device: &Device, slab_words: usize, slabs: usize) -> Arena {
        Arena::new(device, &[ClassSpec { slab_words, slabs }]).unwrap()
    }

    #[test]
    fn paired_appends() {
        let t = PairTable::on_host(8);
        let r = t.reserve(2).unwrap();
        r.write(0, 10, 100);
        r.write(1, 11, 101);
        assert_eq!(t.len(), 2);
        assert_eq!((t.parent(0), t.candidate(0)), (10, 100));
        assert_eq!((t.parent(1), t.candidate(1)), (11, 101));
    }

    #[test]
    fn overflow_rolls_back() {
        let t = PairTable::on_host(3);
        t.reserve(2).unwrap();
        assert!(t.reserve(2).is_err());
        assert_eq!(t.len(), 2);
        t.reserve(1).unwrap();
    }

    #[test]
    fn reserve_near_usize_max_overflows_cleanly() {
        let t = PairTable::on_host(8);
        t.reserve(3).unwrap();
        // start + n wraps usize; an unchecked comparison would conclude
        // the claim fits and hand out entries past the capacity.
        assert!(matches!(
            t.reserve(usize::MAX - 1),
            Err(DeviceError::BufferOverflow { capacity: 8 })
        ));
        assert_eq!(t.len(), 3, "failed claim rolled back");
        t.reserve(5).unwrap(); // table still fully usable
    }

    #[test]
    fn device_accounting_two_arrays() {
        let d = Device::new(DeviceConfig::test_small().with_global_mem_words(100));
        let t = PairTable::on_device(&d, 30).unwrap();
        assert_eq!(d.allocated_words(), 60);
        drop(t);
        assert_eq!(d.allocated_words(), 0);
        // Second array failing must release the first.
        assert!(PairTable::on_device(&d, 60).is_err());
        assert_eq!(d.allocated_words(), 0);
    }

    #[test]
    fn concurrent_pairs_stay_paired() {
        let t = PairTable::on_host(4000);
        std::thread::scope(|s| {
            for tid in 0..8u32 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..100u32 {
                        let r = t.reserve(5).unwrap();
                        for k in 0..5u32 {
                            // parent and candidate carry the same tag so a
                            // torn pair is detectable.
                            let tag = tid * 1_000_000 + i * 100 + k;
                            r.write(k as usize, tag, tag.wrapping_add(7));
                        }
                    }
                });
            }
        });
        assert_eq!(t.len(), 4000);
        for i in 0..t.len() {
            assert_eq!(
                t.candidate(i),
                t.parent(i).wrapping_add(7),
                "torn pair at {i}"
            );
        }
    }

    #[test]
    fn truncate_then_reuse() {
        let t = PairTable::on_host(10);
        t.reserve(6).unwrap();
        t.truncate(2);
        assert_eq!(t.len(), 2);
        let r = t.reserve(3).unwrap();
        assert_eq!(r.start(), 2);
        t.clear();
        assert!(t.is_empty());
    }

    /// `Debug` of an append's result: the error and its capacity.
    fn outcome(r: Result<(), DeviceError>) -> String {
        format!("{r:?}")
    }

    /// An ordered launch of one block per entry of `sizes`, block `b`
    /// appending `sizes[b]` children, on four host threads: blocks that
    /// helpers run are staged and committed through `append_all`.
    fn launch<T: RunTarget + ?Sized>(target: &T, sizes: &[usize]) -> Result<(), DeviceError> {
        launch_with(target, sizes, false)
    }

    /// [`launch`], each block appending a bare length when `bare`.
    fn launch_with<T: RunTarget + ?Sized>(
        target: &T,
        sizes: &[usize],
        bare: bool,
    ) -> Result<(), DeviceError> {
        let mut d = Device::new(DeviceConfig::test_small());
        d.set_host_threads(4);
        d.launch_ordered("expand", sizes.len(), target, |ctx, out| {
            if ctx.block_id == 0 {
                // Outlast the launch's direct phase so helpers join.
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let n = sizes[ctx.block_id];
            match bare {
                true => out.append_len(n),
                false => out.append(ctx.block_id as u32, &vec![7; n]),
            }
        })
    }

    #[test]
    fn counted_appends_reserve_exactly_like_stored_ones() {
        let stored = PairTable::on_host(10);
        let counted = PairTable::on_host(10);
        let view = counted.counted();
        // The fourth run overflows both (9 + 2 > 10); the last still fits.
        let runs: [&[u32]; 5] = [&[1, 2, 3], &[4, 5], &[6, 7, 8, 9], &[10, 11], &[12]];
        for (p, run) in runs.into_iter().enumerate() {
            let s = outcome(stored.append(p as u32, run));
            assert_eq!(outcome(view.append(p as u32, run)), s);
            assert_eq!(counted.len(), stored.len(), "after run {p}");
        }
        assert_eq!(counted.len(), 10);
        assert_eq!(
            outcome(view.append(0, &[1])),
            outcome(Err(DeviceError::BufferOverflow { capacity: 10 }))
        );

        // Staged blocks, in a launch that fits and in one where block 8
        // overflows and the one-entry blocks after it still fit, one each.
        let sizes: Vec<usize> = (0..20).map(|b| b % 3 + 1).collect();
        let fits = sizes.iter().sum::<usize>();
        let overflows = sizes[..8].iter().sum::<usize>() + sizes[8] - 1;
        for capacity in [fits, overflows] {
            let stored = PairTable::on_host(capacity);
            let counted = PairTable::on_host(capacity);
            let s = outcome(launch(&stored, &sizes));
            let spy = StageSpy::new(counted.counted());
            assert_eq!(outcome(launch(&spy, &sizes)), s);
            assert_eq!(s == "Ok(())", capacity == fits, "{s}");
            assert_eq!((counted.len(), stored.len()), (capacity, capacity));
            let (staged, children) = spy.seen();
            assert!(staged > 0, "helpers staged blocks");
            assert_eq!(children, 0, "a counted stage holds run lengths only");
        }
    }

    #[test]
    fn a_bare_length_reserves_like_a_run_of_that_length() {
        let (by_run, by_len) = (PairTable::on_host(10), PairTable::on_host(10));
        // The fourth overflows both (9 + 2 > 10); the last still fits.
        for (p, n) in [3, 2, 4, 2, 1].into_iter().enumerate() {
            let r = outcome(by_run.counted().append(p as u32, &vec![7; n]));
            assert_eq!(outcome(by_len.counted().append_len(n)), r);
            assert_eq!(by_len.len(), by_run.len(), "after run {p}");
        }
        // Staged blocks commit alike, in a launch that fits and in one
        // where block 8 overflows.
        let sizes: Vec<usize> = (0..20).map(|b| b % 3 + 1).collect();
        let overflows = sizes[..8].iter().sum::<usize>() + sizes[8] - 1;
        for capacity in [sizes.iter().sum(), overflows] {
            let (by_run, by_len) = (PairTable::on_host(capacity), PairTable::on_host(capacity));
            let r = outcome(launch(&by_run.counted(), &sizes));
            let spy = StageSpy::new(by_len.counted());
            assert_eq!(outcome(launch_with(&spy, &sizes, true)), r);
            assert_eq!(by_len.len(), by_run.len());
            assert!(spy.seen().0 > 0, "helpers staged blocks");
        }
    }

    /// A [`RunTarget`] that passes appends through to `T` and remembers
    /// how many staged entries and children words reached it.
    struct StageSpy<T> {
        target: T,
        seen: std::sync::Mutex<(usize, usize)>,
    }

    impl<T: RunTarget> StageSpy<T> {
        fn new(target: T) -> Self {
            StageSpy {
                target,
                seen: Default::default(),
            }
        }

        /// Staged entries and children words seen, over all commits.
        fn seen(&self) -> (usize, usize) {
            *self.seen.lock().unwrap()
        }
    }

    impl<T: RunTarget> RunTarget for StageSpy<T> {
        fn append(&self, parent: u32, children: &[u32]) -> Result<(), DeviceError> {
            self.target.append(parent, children)
        }

        fn append_all(&self, runs: &StagedRuns) -> bool {
            let mut seen = self.seen.lock().unwrap();
            seen.0 += runs.len();
            seen.1 += runs.held_children();
            self.target.append_all(runs)
        }

        fn append_len(&self, n: usize) -> Result<(), DeviceError> {
            self.target.append_len(n)
        }

        fn stores_children(&self) -> bool {
            self.target.stores_children()
        }
    }

    #[test]
    fn counted_appends_leave_the_storage_untouched() {
        let t = PairTable::on_host(6);
        t.reserve(6)
            .unwrap()
            .write_children(0, 9, &[10, 11, 12, 13, 14, 15]);
        t.clear();
        let view = t.counted();
        view.append(1, &[1, 2]).unwrap();
        launch(&view, &[1; 4]).unwrap();
        assert_eq!(t.len(), 6);
        // Dropping the counted entries lifts the read guard: the slots
        // still hold what the earlier run wrote.
        t.truncate(0);
        for i in 0..6 {
            assert_eq!(t.pair(i), (9, 10 + i as u32));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "counted level")]
    fn reading_a_counted_entry_panics() {
        let t = PairTable::on_host(8);
        t.append(NO_PARENT, &[1, 2]).unwrap();
        t.counted().append(0, &[5, 6]).unwrap();
        assert_eq!(t.pair(1), (NO_PARENT, 2), "stored entries stay readable");
        t.pair(2);
    }

    #[test]
    fn truncating_a_counted_level_lets_stored_entries_be_read() {
        let t = PairTable::on_host(8);
        t.append(NO_PARENT, &[1, 2]).unwrap();
        t.counted().append(0, &[5, 6]).unwrap();
        t.truncate(3); // keeps one counted entry: still guarded
        t.truncate(2);
        t.append(1, &[7, 8]).unwrap();
        assert_eq!((t.pair(2), t.pair(3)), ((1, 7), (1, 8)));
    }

    #[test]
    fn chained_table_spans_segments_transparently() {
        let d = Device::new(DeviceConfig::test_small());
        let arena = chain_arena(&d, 8, 8);
        // 20 entries over 8-entry segments -> 3 segments (24 capacity).
        let t = PairTable::chained_on_arena(&arena, 0, 20, 32).unwrap();
        assert!(t.is_chained());
        assert_eq!(t.capacity(), 24);
        assert_eq!(t.seg_entries(), 8);
        assert_eq!(t.max_entries(), 32);
        // One reservation straddling the segment boundary.
        let r = t.reserve(12).unwrap();
        for k in 0..12u32 {
            r.write(k as usize, k, k + 1000);
        }
        for k in 0..12u32 {
            assert_eq!(t.parent(k as usize), k);
            assert_eq!(t.candidate(k as usize), k + 1000);
        }
    }

    #[test]
    fn run_writes_split_only_at_segment_boundaries() {
        let d = Device::new(DeviceConfig::test_small());
        let arena = chain_arena(&d, 8, 8);
        let t = PairTable::chained_on_arena(&arena, 0, 24, 24).unwrap();
        t.reserve(5)
            .unwrap()
            .write_children(0, 1, &[10, 11, 12, 13, 14]);
        // 5..23 crosses both the 8- and the 16-entry boundary.
        let kids: Vec<u32> = (100..118).collect();
        let r = t.reserve(19).unwrap();
        r.write_children(0, 7, &kids);
        for i in 0..5 {
            assert_eq!(t.pair(i), (1, 10 + i as u32));
        }
        for (k, &c) in kids.iter().enumerate() {
            assert_eq!(t.pair(5 + k), (7, c));
        }
        // A short run fills only the front of its range.
        let t = PairTable::on_host(4);
        let r = t.reserve(4).unwrap();
        r.write_children(0, 3, &[9]);
        assert_eq!(t.pair(0), (3, 9));
        assert_eq!(t.pair(1), (0, 0));
        // A run at an offset starts there.
        r.write_children(2, 5, &[6, 7]);
        assert_eq!((t.pair(1), t.pair(2), t.pair(3)), ((0, 0), (5, 6), (5, 7)));
    }

    #[test]
    #[should_panic(expected = "write past pair reservation")]
    fn run_writes_past_the_reservation_panic() {
        let t = PairTable::on_host(8);
        t.reserve(3).unwrap().write_children(1, 0, &[1, 2, 3]);
    }

    #[test]
    fn grow_appends_without_disturbing_entries() {
        let d = Device::new(DeviceConfig::test_small());
        let arena = chain_arena(&d, 8, 10);
        let t = PairTable::chained_on_arena(&arena, 0, 8, 40).unwrap();
        assert_eq!(t.capacity(), 8);
        let r = t.reserve(8).unwrap();
        for k in 0..8u32 {
            r.write(k as usize, k, k * 2);
        }
        assert!(t.reserve(1).is_err(), "chain full before growth");
        let allocs_before = d.alloc_calls();

        assert_eq!(t.grow_to(20).unwrap(), 24);
        assert_eq!(d.alloc_calls(), allocs_before, "growth is allocator-free");
        // Old entries intact, new space usable.
        for k in 0..8u32 {
            assert_eq!((t.parent(k as usize), t.candidate(k as usize)), (k, k * 2));
        }
        let r = t.reserve(10).unwrap();
        assert_eq!(r.start(), 8);
        r.write(9, 77, 78);
        assert_eq!((t.parent(17), t.candidate(17)), (77, 78));
        // Growing to an already-covered target is a no-op.
        assert_eq!(t.grow_to(10).unwrap(), 24);
    }

    #[test]
    fn grow_stops_at_spine_and_class_exhaustion() {
        let d = Device::new(DeviceConfig::test_small());
        // Spine limit: plenty of slabs, short spine.
        let arena = chain_arena(&d, 8, 10);
        let t = PairTable::chained_on_arena(&arena, 0, 8, 16).unwrap();
        t.grow_to(16).unwrap();
        assert!(matches!(
            t.grow_to(17),
            Err(DeviceError::OutOfMemory { .. })
        ));
        assert_eq!(t.capacity(), 16, "failed grow keeps committed segments");

        // Class exhaustion: spine would allow more, slabs run out.
        let small = chain_arena(&d, 8, 3);
        let t2 = PairTable::chained_on_arena(&small, 0, 8, 80).unwrap();
        assert!(matches!(
            t2.grow_to(24),
            Err(DeviceError::OutOfMemory { .. })
        ));
        // The partial grow committed what it could (one more segment
        // needs 2 slabs; only 1 remained).
        assert_eq!(t2.capacity(), 8);
    }

    #[test]
    fn dropping_chained_table_returns_slabs() {
        let d = Device::new(DeviceConfig::test_small());
        let arena = chain_arena(&d, 16, 6);
        let t = PairTable::chained_on_arena(&arena, 0, 48, 48).unwrap();
        assert_eq!(arena.free_slabs(0), 0);
        drop(t);
        assert_eq!(arena.free_slabs(0), 6, "all slab pairs released");
        // The arena's carve is still the only device allocation.
        assert_eq!(d.alloc_calls(), 1);
    }

    #[test]
    fn clear_keeps_chain_segments() {
        let d = Device::new(DeviceConfig::test_small());
        let arena = chain_arena(&d, 8, 6);
        let t = PairTable::chained_on_arena(&arena, 0, 8, 24).unwrap();
        t.grow_to(24).unwrap();
        t.clear();
        assert_eq!(t.capacity(), 24, "reset keeps grown capacity");
        assert_eq!(arena.free_slabs(0), 0, "segments stay acquired");
        let r = t.reserve(24).unwrap();
        r.write(23, 5, 6);
        assert_eq!((t.parent(23), t.candidate(23)), (5, 6));
    }

    #[test]
    fn concurrent_pairs_stay_paired_across_chain() {
        let d = Device::new(DeviceConfig::test_small());
        let arena = chain_arena(&d, 64, 16);
        // 8 segments of 64 entries = 512; threads write 500.
        let t = PairTable::chained_on_arena(&arena, 0, 512, 512).unwrap();
        std::thread::scope(|s| {
            for tid in 0..5u32 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..20u32 {
                        let r = t.reserve(5).unwrap();
                        for k in 0..5u32 {
                            let tag = tid * 1_000_000 + i * 100 + k;
                            r.write(k as usize, tag, tag.wrapping_add(7));
                        }
                    }
                });
            }
        });
        assert_eq!(t.len(), 500);
        for i in 0..t.len() {
            assert_eq!(
                t.candidate(i),
                t.parent(i).wrapping_add(7),
                "torn pair at {i}"
            );
        }
    }
}
