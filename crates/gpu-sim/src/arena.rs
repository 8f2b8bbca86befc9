//! Per-device arena-slab allocator: one reservation, many slabs.
//!
//! The paper sizes its trie arrays once from `cudaMemGetInfo` and never
//! calls `cudaMalloc` again; this module generalises that discipline. An
//! [`Arena`] makes **one** capacity-accounted device allocation (the
//! *carve*) and splits it into power-of-two *slab classes*. Each class
//! tracks its slabs with a lock-free `u64` bitmap ([`cuts_bitalloc`]), so
//! [`Arena::acquire`] and slab release are O(1) CAS operations — no free
//! list, no lock-held linear scan, no allocator traffic on the hot path.
//!
//! Slab chains built on top (see `cuts-trie`'s chained `PairTable`) grow
//! by appending a fresh slab instead of reallocating and copying, which
//! is what makes mid-run trie growth cheap enough to prefer over
//! retrying from scratch with a larger allocation.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use cuts_obs::{Arg, EventKind, Json, ToJson, Trace};

use crate::buffer::GlobalBuffer;
use crate::device::Device;
use crate::error::DeviceError;

/// Geometry of one slab class: `slabs` slabs of `slab_words` words each.
/// `slab_words` must be a power of two (chains index into slabs with
/// shift/mask arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassSpec {
    /// Words per slab (power of two).
    pub slab_words: usize,
    /// Number of slabs in the class.
    pub slabs: usize,
}

impl ClassSpec {
    /// Total words the class occupies in the carve.
    #[inline]
    pub fn total_words(&self) -> usize {
        self.slab_words * self.slabs
    }
}

/// Live per-class state: bitmap plus occupancy statistics.
struct ClassState {
    /// Word offset of the class region inside the backing carve.
    base: usize,
    slab_words: usize,
    slabs: usize,
    bitmap: Box<[AtomicU64]>,
    hint: AtomicUsize,
    in_use: AtomicUsize,
    high_water: AtomicUsize,
    acquires: AtomicU64,
    releases: AtomicU64,
}

struct ArenaShared {
    /// The single device allocation every slab lives inside. Its cursor
    /// is unused — slabs write through `write_raw` at fixed offsets.
    backing: GlobalBuffer,
    classes: Vec<ClassState>,
    trace: Trace,
}

/// A carved-up device reservation handing out fixed-size slabs.
///
/// Cheap to clone (an `Arc`); all state is internally synchronised.
/// Dropping the last handle (and every outstanding [`Slab`]) returns the
/// carve's words to the device ledger.
#[derive(Clone)]
pub struct Arena {
    shared: Arc<ArenaShared>,
}

impl Arena {
    /// Carves one device allocation covering every class in `specs`.
    /// This is the arena's only [`Device::alloc_buffer`] call, ever.
    ///
    /// # Panics
    /// When a class has zero slabs, zero words, or a non-power-of-two
    /// slab size — geometry bugs, not runtime conditions.
    pub fn new(device: &Device, specs: &[ClassSpec]) -> Result<Arena, DeviceError> {
        let mut base = 0usize;
        let mut classes = Vec::with_capacity(specs.len());
        for spec in specs {
            assert!(
                spec.slab_words.is_power_of_two(),
                "slab_words must be a power of two, got {}",
                spec.slab_words
            );
            assert!(spec.slabs > 0, "a class needs at least one slab");
            classes.push(ClassState {
                base,
                slab_words: spec.slab_words,
                slabs: spec.slabs,
                bitmap: (0..cuts_bitalloc::words_for(spec.slabs))
                    .map(|_| AtomicU64::new(0))
                    .collect(),
                hint: AtomicUsize::new(0),
                in_use: AtomicUsize::new(0),
                high_water: AtomicUsize::new(0),
                acquires: AtomicU64::new(0),
                releases: AtomicU64::new(0),
            });
            base += spec.total_words();
        }
        let backing = device.alloc_buffer(base)?;
        let trace = device.trace().clone();
        trace.instant_with(
            EventKind::Arena,
            "carve",
            &[
                ("words", Arg::U64(base as u64)),
                ("classes", Arg::U64(specs.len() as u64)),
            ],
        );
        Ok(Arena {
            shared: Arc::new(ArenaShared {
                backing,
                classes,
                trace,
            }),
        })
    }

    /// Claims one slab from class `class`. O(1): a bitmap CAS, no lock.
    /// Fails with [`DeviceError::OutOfMemory`] when the class is fully
    /// occupied — the arena never falls back to the device allocator;
    /// exhaustion is the caller's admission-control signal.
    pub fn acquire(&self, class: usize) -> Result<Slab, DeviceError> {
        let cs = &self.shared.classes[class];
        let Some(index) = cuts_bitalloc::acquire(&cs.bitmap, cs.slabs, &cs.hint) else {
            return Err(DeviceError::OutOfMemory {
                requested: cs.slab_words,
                available: 0,
            });
        };
        cs.acquires.fetch_add(1, Ordering::Relaxed);
        let now = cs.in_use.fetch_add(1, Ordering::AcqRel) + 1;
        self.shared.trace.instant_with(
            EventKind::Arena,
            "acquire",
            &[
                ("class", Arg::U64(class as u64)),
                ("slab_words", Arg::U64(cs.slab_words as u64)),
                ("in_use", Arg::U64(now as u64)),
            ],
        );
        // Publish a new occupancy peak (monotonic CAS; ties lose).
        let mut peak = cs.high_water.load(Ordering::Relaxed);
        while now > peak {
            match cs.high_water.compare_exchange_weak(
                peak,
                now,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.shared.trace.instant_with(
                        EventKind::Arena,
                        "high_water",
                        &[
                            ("class", Arg::U64(class as u64)),
                            ("slabs", Arg::U64(now as u64)),
                        ],
                    );
                    break;
                }
                Err(seen) => peak = seen,
            }
        }
        Ok(Slab {
            shared: self.shared.clone(),
            class,
            index,
            base: cs.base + index * cs.slab_words,
            words: cs.slab_words,
        })
    }

    /// Geometry of class `class`.
    pub fn spec(&self, class: usize) -> ClassSpec {
        let cs = &self.shared.classes[class];
        ClassSpec {
            slab_words: cs.slab_words,
            slabs: cs.slabs,
        }
    }

    /// Slabs of class `class` currently free.
    pub fn free_slabs(&self, class: usize) -> usize {
        let cs = &self.shared.classes[class];
        cs.slabs - cuts_bitalloc::occupancy(&cs.bitmap, cs.slabs)
    }

    /// Words in the backing carve.
    pub fn total_words(&self) -> usize {
        self.shared.backing.capacity()
    }

    /// Snapshot of per-class occupancy and lifetime counters.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            backing_words: self.shared.backing.capacity(),
            device_allocs: 1,
            classes: self
                .shared
                .classes
                .iter()
                .map(|cs| ClassStats {
                    slab_words: cs.slab_words,
                    slabs: cs.slabs,
                    in_use: cs.in_use.load(Ordering::Acquire),
                    high_water: cs.high_water.load(Ordering::Acquire),
                    acquires: cs.acquires.load(Ordering::Relaxed),
                    releases: cs.releases.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for Arena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arena")
            .field("backing_words", &self.shared.backing.capacity())
            .field("classes", &self.shared.classes.len())
            .finish()
    }
}

/// One claimed slab: a fixed, exclusive word range of the arena's carve.
/// Dropping the slab releases its bitmap bit (O(1)); the words stay
/// carved and go back into the class's free set.
pub struct Slab {
    shared: Arc<ArenaShared>,
    class: usize,
    index: usize,
    base: usize,
    words: usize,
}

impl Slab {
    /// The slab's class.
    #[inline]
    pub fn class(&self) -> usize {
        self.class
    }

    /// The slab's index within its class.
    #[inline]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Capacity in words.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.words
    }

    /// Reads the word at `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> u32 {
        assert!(idx < self.words, "read past slab capacity");
        self.shared.backing.get(self.base + idx)
    }

    /// Writes the word at `idx` without synchronisation.
    ///
    /// # Safety
    /// The caller must guarantee no other thread reads or writes `idx` of
    /// this slab concurrently — same protocol as
    /// [`GlobalBuffer::write_raw`]; chained pair tables coordinate
    /// through their own shared cursor.
    #[inline]
    pub unsafe fn write_raw(&self, idx: usize, val: u32) {
        debug_assert!(idx < self.words, "write past slab capacity");
        unsafe { self.shared.backing.write_raw(self.base + idx, val) };
    }
}

impl Drop for Slab {
    fn drop(&mut self) {
        let cs = &self.shared.classes[self.class];
        // Occupancy moves before the bit frees: an `acquire` can only win
        // this slab once the counter no longer includes it, so `in_use`
        // never exceeds the slabs actually held and `high_water` never
        // exceeds the class size.
        let now = cs.in_use.fetch_sub(1, Ordering::AcqRel) - 1;
        #[cfg(test)]
        tests::mid_release();
        let freed = cuts_bitalloc::release(&cs.bitmap, self.index);
        debug_assert!(freed, "slab {} double-released", self.index);
        cs.releases.fetch_add(1, Ordering::Relaxed);
        self.shared.trace.instant_with(
            EventKind::Arena,
            "release",
            &[
                ("class", Arg::U64(self.class as u64)),
                ("in_use", Arg::U64(now as u64)),
            ],
        );
    }
}

impl std::fmt::Debug for Slab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slab")
            .field("class", &self.class)
            .field("index", &self.index)
            .field("words", &self.words)
            .finish()
    }
}

/// Point-in-time statistics for one slab class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassStats {
    /// Words per slab.
    pub slab_words: usize,
    /// Slabs in the class.
    pub slabs: usize,
    /// Slabs currently held.
    pub in_use: usize,
    /// Peak concurrent slabs held over the arena's lifetime.
    pub high_water: usize,
    /// Lifetime acquire count.
    pub acquires: u64,
    /// Lifetime release count.
    pub releases: u64,
}

impl ToJson for ClassStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("slab_words", Json::U64(self.slab_words as u64)),
            ("slabs", Json::U64(self.slabs as u64)),
            ("in_use", Json::U64(self.in_use as u64)),
            ("high_water", Json::U64(self.high_water as u64)),
            ("acquires", Json::U64(self.acquires)),
            ("releases", Json::U64(self.releases)),
        ])
    }
}

/// Snapshot of an arena: the carve size plus per-class statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArenaStats {
    /// Words in the backing carve.
    pub backing_words: usize,
    /// Device allocations the arena has made — always 1 (the carve), kept
    /// as a field so session stats can report it next to the device's
    /// own allocation count.
    pub device_allocs: u64,
    /// Per-class statistics.
    pub classes: Vec<ClassStats>,
}

impl ArenaStats {
    /// Lifetime slab acquisitions across all classes.
    pub fn slab_acquires(&self) -> u64 {
        self.classes.iter().map(|c| c.acquires).sum()
    }

    /// Peak words concurrently held (per-class peaks summed — an upper
    /// bound on the true cross-class peak).
    pub fn high_water_words(&self) -> usize {
        self.classes
            .iter()
            .map(|c| c.high_water * c.slab_words)
            .sum()
    }
}

impl ToJson for ArenaStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("backing_words", Json::U64(self.backing_words as u64)),
            ("device_allocs", Json::U64(self.device_allocs)),
            (
                "classes",
                Json::Arr(self.classes.iter().map(|c| c.to_json()).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use std::cell::RefCell;
    use std::rc::Rc;

    thread_local! {
        /// Runs once, on the dropping thread, between the two steps of a
        /// slab release — the window a concurrent `acquire` can hit.
        static MID_RELEASE: RefCell<Option<Box<dyn FnOnce()>>> = const { RefCell::new(None) };
    }

    pub(super) fn mid_release() {
        if let Some(hook) = MID_RELEASE.with(|h| h.borrow_mut().take()) {
            hook();
        }
    }

    /// Regression: `Slab::drop` used to free the bitmap bit before
    /// decrementing `in_use`, so an `acquire` landing in between won the
    /// freed slab and published `in_use = slabs + 1` as the high water.
    #[test]
    fn acquire_inside_a_release_never_overcounts() {
        let d = Device::new(DeviceConfig::test_small());
        let arena = Arena::new(
            &d,
            &[ClassSpec {
                slab_words: 8,
                slabs: 1,
            }],
        )
        .unwrap();
        let held = arena.acquire(0).unwrap();
        let racer = arena.clone();
        let won = Rc::new(RefCell::new(None));
        let slot = won.clone();
        MID_RELEASE.with(|h| {
            *h.borrow_mut() = Some(Box::new(move || {
                *slot.borrow_mut() = racer.acquire(0).ok();
            }))
        });
        drop(held);
        let s = arena.stats();
        assert!(
            s.classes[0].high_water <= 1,
            "high water {} exceeds the class's one slab",
            s.classes[0].high_water
        );
        assert!(s.classes[0].in_use <= 1);
        // The release completed: the slab is free for the next caller.
        drop(won.borrow_mut().take());
        assert!(arena.acquire(0).is_ok());
    }

    #[test]
    fn one_carve_many_slabs() {
        let d = Device::new(DeviceConfig::test_small());
        let arena = Arena::new(
            &d,
            &[ClassSpec {
                slab_words: 64,
                slabs: 4,
            }],
        )
        .unwrap();
        assert_eq!(d.alloc_calls(), 1, "the carve is the only device alloc");
        assert_eq!(arena.total_words(), 256);
        assert_eq!(d.allocated_words(), 256);

        let slabs: Vec<Slab> = (0..4).map(|_| arena.acquire(0).unwrap()).collect();
        assert_eq!(arena.free_slabs(0), 0);
        assert!(matches!(
            arena.acquire(0),
            Err(DeviceError::OutOfMemory { requested: 64, .. })
        ));
        drop(slabs);
        assert_eq!(arena.free_slabs(0), 4);
        // Exhaustion and recycling never touched the device allocator.
        assert_eq!(d.alloc_calls(), 1);

        let s = arena.stats();
        assert_eq!(s.device_allocs, 1);
        assert_eq!(s.classes[0].high_water, 4);
        assert_eq!(s.classes[0].in_use, 0);
        assert_eq!(s.classes[0].acquires, 4);
        assert_eq!(s.classes[0].releases, 4);
        assert_eq!(s.slab_acquires(), 4);
        assert_eq!(s.high_water_words(), 256);
    }

    #[test]
    fn slabs_are_disjoint_word_ranges() {
        let d = Device::new(DeviceConfig::test_small());
        let arena = Arena::new(
            &d,
            &[
                ClassSpec {
                    slab_words: 8,
                    slabs: 2,
                },
                ClassSpec {
                    slab_words: 16,
                    slabs: 2,
                },
            ],
        )
        .unwrap();
        let a = arena.acquire(0).unwrap();
        let b = arena.acquire(0).unwrap();
        let c = arena.acquire(1).unwrap();
        for i in 0..8 {
            unsafe { a.write_raw(i, 100 + i as u32) };
            unsafe { b.write_raw(i, 200 + i as u32) };
        }
        for i in 0..16 {
            unsafe { c.write_raw(i, 300 + i as u32) };
        }
        assert_eq!(a.get(3), 103);
        assert_eq!(b.get(3), 203);
        assert_eq!(c.get(15), 315);
        assert_eq!(c.capacity(), 16);
    }

    #[test]
    fn dropping_arena_returns_words() {
        let d = Device::new(DeviceConfig::test_small().with_global_mem_words(1000));
        {
            let arena = Arena::new(
                &d,
                &[ClassSpec {
                    slab_words: 128,
                    slabs: 4,
                }],
            )
            .unwrap();
            let _held = arena.acquire(0).unwrap();
            assert_eq!(d.allocated_words(), 512);
        }
        assert_eq!(d.allocated_words(), 0, "carve returned on drop");
    }

    #[test]
    fn carve_larger_than_device_is_oom() {
        let d = Device::new(DeviceConfig::test_small().with_global_mem_words(100));
        assert!(matches!(
            Arena::new(
                &d,
                &[ClassSpec {
                    slab_words: 64,
                    slabs: 2,
                }],
            ),
            Err(DeviceError::OutOfMemory { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_slab_words_rejected() {
        let d = Device::new(DeviceConfig::test_small());
        let _ = Arena::new(
            &d,
            &[ClassSpec {
                slab_words: 100,
                slabs: 1,
            }],
        );
    }

    #[test]
    fn traced_lifecycle_emits_arena_events() {
        let mut d = Device::new(DeviceConfig::test_small());
        let trace = Trace::enabled();
        d.set_trace(trace.clone());
        let arena = Arena::new(
            &d,
            &[ClassSpec {
                slab_words: 32,
                slabs: 2,
            }],
        )
        .unwrap();
        let s = arena.acquire(0).unwrap();
        drop(s);
        let names: Vec<String> = trace
            .journal()
            .unwrap()
            .drain_sorted()
            .into_iter()
            .filter(|e| e.kind == EventKind::Arena)
            .map(|e| e.name)
            .collect();
        assert_eq!(names, ["carve", "acquire", "high_water", "release"]);
    }

    #[test]
    fn stats_render_as_json() {
        let d = Device::new(DeviceConfig::test_small());
        let arena = Arena::new(
            &d,
            &[ClassSpec {
                slab_words: 64,
                slabs: 3,
            }],
        )
        .unwrap();
        let _s = arena.acquire(0).unwrap();
        let j = arena.stats().to_json();
        assert_eq!(j.get("device_allocs").unwrap().as_u64(), Some(1));
        let Some(Json::Arr(classes)) = j.get("classes") else {
            panic!("classes must be an array");
        };
        assert_eq!(classes[0].get("in_use").unwrap().as_u64(), Some(1));
        cuts_obs::Json::parse(&j.render()).unwrap();
    }
}
