//! Memory modules and their inverted page tables.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::contention::{BucketCursor, BucketedResource};
use crate::frame::Frame;

/// The inverted-page-table tag of a free frame.
const FREE: u64 = 0;

/// Frame slots per lazily created run of the slot table. A slot is 24
/// bytes, so a run is 1.5 KB — small beside the 4 KB page whose first use
/// creates it — and a module's boot-time table is one empty cell per run:
/// a `1 << 20`-frame module boots with 16 384 cells, not a million slots.
const SLOTS_PER_RUN: usize = 64;

/// One run of frame slots; each slot is filled on its frame's first use.
type SlotRun = Box<[OnceLock<Frame>]>;

/// One node's memory module.
///
/// Each module holds `frames_per_node` page frames and — as §2.3 of the
/// paper describes — an *inverted page table* with one entry per physical
/// frame recording whether the frame is allocated and to which coherent
/// page. The fault handler probes the inverted page table (a hash of the
/// coherent page index followed by a linear scan) to find a local copy or
/// a free frame using strictly local memory accesses, rather than walking
/// the remote directory list (§3.3).
///
/// The table is lock-free: each entry is an `AtomicU64` holding `owner+1`
/// (so 0 means free), claimed by compare-and-swap. This mirrors §2.2's
/// "wherever possible, atomic memory operations are used to implement
/// concurrent data structures".
///
/// Only the inverted page table exists at boot. A frame's *storage* is
/// materialised by the first call that names it, once, with its first
/// contents — zeroed by the fault handler's first-touch zero fill
/// ([`Self::zeroed_frame`]), a copy of the source by a block transfer into
/// it (`fill_frame`), zeroed by any other `Self::frame` call — so
/// what a machine costs the host follows the pages a run touches, not
/// `frames_per_node`. Once materialised a [`Frame`] is
/// never moved or freed before the module drops: `free_frame` only retags
/// the inverted page table, and a recycled frame keeps its storage.
pub struct MemoryModule {
    node: usize,
    words_per_page: usize,
    /// The slot table, in runs of [`SLOTS_PER_RUN`]: `runs[f / N][f % N]`
    /// holds frame `f`'s storage once it has been used. Both levels are
    /// write-once cells inside boxed slices, so a filled slot's address is
    /// fixed for the module's lifetime.
    runs: Box<[OnceLock<SlotRun>]>,
    /// Inverted page table: `owners[f]` is 0 when frame `f` is free, else
    /// the owning coherent page id plus one.
    owners: Box<[AtomicU64]>,
    /// Contention model for word traffic: bucketed utilization (robust
    /// to the loose clock coupling of execution-driven simulation).
    bus: BucketedResource,
    /// Serialization point for block transfers: the engine is FIFO at
    /// the hardware, and transfers from one module genuinely serialize
    /// (§5.1's pivot-row observation). Capped against clock skew.
    block_busy_until: AtomicU64,
    /// Count of allocated frames (statistics only).
    allocated: AtomicU64,
}

/// The result of one inverted-page-table probe sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IptProbe {
    /// The frame found, if any.
    pub frame: Option<usize>,
    /// How many table entries were inspected (charged as local references
    /// by the kernel's cost model).
    pub probes: usize,
}

impl MemoryModule {
    /// Creates the module for `node` with `nframes` frames of
    /// `words_per_page` words each and the given contention-bucket width.
    pub fn new(node: usize, nframes: usize, words_per_page: usize, bucket_ns: u64) -> Self {
        Self {
            node,
            words_per_page,
            runs: (0..nframes.div_ceil(SLOTS_PER_RUN))
                .map(|_| OnceLock::new())
                .collect(),
            owners: (0..nframes).map(|_| AtomicU64::new(FREE)).collect(),
            bus: BucketedResource::new(bucket_ns),
            block_busy_until: AtomicU64::new(0),
            allocated: AtomicU64::new(0),
        }
    }

    /// The number of currently allocated frames.
    pub fn frames_allocated(&self) -> usize {
        self.allocated.load(Ordering::Relaxed) as usize
    }

    /// The number of frames whose storage has been materialised: every
    /// frame `Self::frame` has ever named, whether or not it is still
    /// allocated.
    pub fn frames_materialized(&self) -> usize {
        self.runs
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|run| run.iter())
            .filter(|slot| slot.get().is_some())
            .count()
    }

    /// Direct access to a frame's storage, materialising it (zeroed) if
    /// this is the first call to name `frame`. Racing first calls agree on
    /// one storage; the reference returned stays valid, at the same
    /// address, until the module drops.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range.
    #[inline]
    pub(crate) fn frame(&self, frame: usize) -> &Frame {
        self.slot(frame)
            .get_or_init(|| Frame::new(self.words_per_page))
    }

    /// `frame`'s storage, all zero: materialised zeroed by this call, or a
    /// recycled frame cleared — the first-touch zero fill, which clears a
    /// page's words once, never twice.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range.
    pub fn zeroed_frame(&self, frame: usize) -> &Frame {
        let mut fresh = false;
        let f = self.slot(frame).get_or_init(|| {
            fresh = true;
            Frame::new(self.words_per_page)
        });
        if !fresh {
            f.zero();
        }
        f
    }

    /// Makes `frame` hold `src`'s words — a block transfer's landing — and
    /// returns it. A frame that was never used is materialised as the copy
    /// itself, with no zeroing first; one already materialised is
    /// overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range or `src` is not a page of this
    /// module's size.
    pub(crate) fn fill_frame(&self, frame: usize, src: &Frame) -> &Frame {
        assert_eq!(
            src.len(),
            self.words_per_page,
            "block transfer between unequal frames"
        );
        let mut fresh = false;
        let f = self.slot(frame).get_or_init(|| {
            fresh = true;
            Frame::copy_of(src)
        });
        if !fresh {
            f.copy_from(src);
        }
        f
    }

    /// The write-once cell holding `frame`'s storage, creating its run of
    /// the slot table on first use.
    #[inline]
    fn slot(&self, frame: usize) -> &OnceLock<Frame> {
        assert!(frame < self.owners.len(), "frame {frame} out of range");
        let run = self.runs[frame / SLOTS_PER_RUN]
            .get_or_init(|| (0..SLOTS_PER_RUN).map(|_| OnceLock::new()).collect());
        &run[frame % SLOTS_PER_RUN]
    }

    /// The owning coherent page recorded for `frame`, if allocated.
    pub fn owner_of(&self, frame: usize) -> Option<u64> {
        match self.owners[frame].load(Ordering::Acquire) {
            FREE => None,
            tagged => Some(tagged - 1),
        }
    }

    fn hash_slot(&self, cpage: u64) -> usize {
        // Fibonacci hash of the coherent page index, as a stand-in for the
        // paper's unspecified "hash function applied to the index of the
        // Cpage".
        (cpage.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.owners.len()
    }

    /// The order in which the inverted page table is probed for `cpage`:
    /// every slot once, linearly from the page's hash slot, wrapping at
    /// the end of the table. How far along it a probe stops is charged to
    /// virtual time.
    fn probe_order(&self, cpage: u64) -> impl Iterator<Item = usize> {
        let start = self.hash_slot(cpage);
        (start..self.owners.len()).chain(0..start)
    }

    /// Probes the inverted page table for the local physical copy of
    /// coherent page `cpage` (§3.3's local-copy lookup).
    pub fn find_frame_of(&self, cpage: u64) -> IptProbe {
        let tagged = cpage + 1;
        let mut probes = 0;
        let frame = self.probe_order(cpage).find(|&slot| {
            probes += 1;
            self.owners[slot].load(Ordering::Acquire) == tagged
        });
        IptProbe { frame, probes }
    }

    /// Allocates a free frame for coherent page `cpage` by probing from
    /// the page's hash slot and claiming the first free entry with a
    /// compare-and-swap.
    ///
    /// Returns `None` when the module is out of frames.
    pub fn alloc_frame(&self, cpage: u64) -> Option<IptProbe> {
        let tagged = cpage + 1;
        let mut probes = 0;
        let frame = self.probe_order(cpage).find(|&slot| {
            probes += 1;
            self.owners[slot]
                .compare_exchange(FREE, tagged, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        })?;
        self.allocated.fetch_add(1, Ordering::Relaxed);
        Some(IptProbe {
            frame: Some(frame),
            probes,
        })
    }

    /// Frees `frame`, returning it to the free pool.
    ///
    /// The paper charges one remote read and one remote write for freeing
    /// a physical page (§4); the kernel's cost model does that charging.
    ///
    /// # Panics
    ///
    /// Panics if the frame was already free — double frees are kernel bugs.
    pub fn free_frame(&self, frame: usize) {
        let prev = self.owners[frame].swap(FREE, Ordering::AcqRel);
        assert_ne!(
            prev, FREE,
            "double free of frame {frame} on node {}",
            self.node
        );
        self.allocated.fetch_sub(1, Ordering::Relaxed);
    }

    /// Reserves `service_ns` of the module's bus at virtual time `now`,
    /// returning the start time assigned to this request; `cursor` is the
    /// caller's memo of its clock's bucket (`BucketedResource::reserve_with`).
    ///
    /// The returned start minus `now` is the queueing delay the requester
    /// experiences; this is the per-module serialization that makes memory
    /// contention visible, the effect §7 argues replication exists to
    /// relieve.
    #[inline(always)]
    pub(crate) fn reserve_with(&self, cursor: &mut BucketCursor, now: u64, service_ns: u64) -> u64 {
        now + self.bus.reserve_with(cursor, now, service_ns)
    }

    /// Word-traffic bookings this module's bus dropped behind a newer
    /// ring generation ([`BucketedResource::lost_bookings`]).
    pub(crate) fn lost_bookings(&self) -> u64 {
        self.bus.lost_bookings()
    }

    /// The width of the bus's contention buckets, ns.
    #[inline(always)]
    pub(crate) fn bucket_ns(&self) -> u64 {
        self.bus.bucket_ns()
    }

    /// The position of `now` within its contention bucket
    /// (`now % bucket_ns`), leaving `cursor` on that bucket so the
    /// booking that follows finds it without a division.
    #[inline(always)]
    pub(crate) fn bucket_into(&self, cursor: &mut BucketCursor, now: u64) -> u64 {
        self.bus.seek(cursor, now)
    }

    /// Reserves the block-transfer engine and the module bus for a
    /// transfer of `occupancy_ns` starting no earlier than `now`.
    /// Returns the transfer's start time.
    ///
    /// Back-to-back transfers touching this module serialize (the §5.1
    /// pivot-row effect); the serialization horizon is capped at `cap_ns`
    /// beyond `now` so loosely-coupled clocks cannot queue behind
    /// far-future reservations.
    pub(crate) fn reserve_block(&self, now: u64, occupancy_ns: u64, cap_ns: u64) -> u64 {
        let mut cur = self.block_busy_until.load(Ordering::Relaxed);
        let start = loop {
            let start = now.max(cur.min(now + cap_ns));
            match self.block_busy_until.compare_exchange_weak(
                cur,
                start + occupancy_ns,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break start,
                Err(actual) => cur = actual,
            }
        };
        // Word traffic during the transfer queues behind its bus share.
        let _ = self.bus.reserve_span(start, occupancy_ns);
        start
    }
}

#[cfg(test)]
impl MemoryModule {
    /// The node this module belongs to.
    pub(crate) fn node(&self) -> usize {
        self.node
    }

    /// The bus load booked in the contention bucket containing `now`.
    pub(crate) fn bus_load_at(&self, now: u64) -> u64 {
        self.bus.load_at(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_find_free_cycle() {
        let m = MemoryModule::new(0, 8, 16, 100_000);
        assert_eq!(m.frames_allocated(), 0);
        let probe = m.alloc_frame(42).expect("frame available");
        let f = probe.frame.unwrap();
        assert_eq!(m.owner_of(f), Some(42));
        assert_eq!(m.frames_allocated(), 1);

        let found = m.find_frame_of(42);
        assert_eq!(found.frame, Some(f));

        assert_eq!(m.find_frame_of(7).frame, None);

        m.free_frame(f);
        assert_eq!(m.owner_of(f), None);
        assert_eq!(m.frames_allocated(), 0);
        assert_eq!(m.find_frame_of(42).frame, None);
    }

    #[test]
    fn storage_materialises_on_first_use_and_outlives_free() {
        // 100 frames: the last run of the slot table is partial.
        let m = MemoryModule::new(0, 100, 16, 100_000);
        let f = m.alloc_frame(42).unwrap().frame.unwrap();
        assert_eq!(m.frames_materialized(), 0, "allocation is IPT-only");
        assert_eq!(m.frame(f).len(), 16);
        assert_eq!(m.frame(f).load(3), 0);
        m.frame(f).store(3, 7);
        m.frame(99).store(0, 1);
        assert_eq!(m.frames_materialized(), 2);
        // Freeing retags the IPT; the storage (and its contents) stay,
        // which is why the kernel zero-fills on first touch.
        let at = m.frame(f) as *const Frame;
        m.free_frame(f);
        assert_eq!(m.frames_materialized(), 2);
        assert_eq!(m.frame(f) as *const Frame, at);
        assert_eq!(m.frame(f).load(3), 7);
    }

    #[test]
    fn frames_materialise_once_with_their_first_contents() {
        let m = MemoryModule::new(0, 8, 16, 100_000);
        let src = Frame::new(16);
        for w in 0..16 {
            src.store(w, 0xA000 + w as u32);
        }
        // A transfer into a never-used frame materialises it as the copy.
        let f = m.fill_frame(1, &src);
        assert_eq!(m.frames_materialized(), 1);
        for w in 0..16 {
            assert_eq!(f.load(w), 0xA000 + w as u32, "word {w}");
        }
        // Into a used frame it overwrites, at the same storage.
        let at = f as *const Frame;
        src.store(5, 1);
        assert_eq!(m.fill_frame(1, &src) as *const Frame, at);
        assert_eq!(m.frame(1).load(5), 1);
        assert_eq!(m.frames_materialized(), 1);
        // A first-touch fill of a fresh frame and of a recycled one both
        // read zero; the recycled one keeps its storage.
        assert!((0..16).all(|w| m.zeroed_frame(2).load(w) == 0));
        assert_eq!(m.zeroed_frame(1) as *const Frame, at);
        assert!((0..16).all(|w| m.frame(1).load(w) == 0));
        assert_eq!(m.frames_materialized(), 2);
    }

    #[test]
    #[should_panic(expected = "unequal frames")]
    fn fill_from_a_frame_of_another_size_panics() {
        MemoryModule::new(0, 4, 16, 100_000).fill_frame(0, &Frame::new(8));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn frame_beyond_the_pool_panics() {
        // 100 is inside the last slot run but outside the module.
        MemoryModule::new(0, 100, 16, 100_000).frame(100);
    }

    #[test]
    fn exhaustion_returns_none() {
        let m = MemoryModule::new(0, 4, 8, 100_000);
        for c in 0..4 {
            assert!(m.alloc_frame(c).is_some());
        }
        assert!(m.alloc_frame(99).is_none());
        assert_eq!(m.frames_allocated(), 4);
    }

    #[test]
    fn collision_probing_finds_distinct_frames() {
        let m = MemoryModule::new(0, 8, 8, 100_000);
        // Allocate many pages; every allocation must land on a distinct
        // frame and be findable afterwards.
        let mut frames = Vec::new();
        for c in 0..8u64 {
            let p = m.alloc_frame(c).unwrap();
            frames.push(p.frame.unwrap());
        }
        frames.sort_unstable();
        frames.dedup();
        assert_eq!(frames.len(), 8, "allocations must not alias");
        for c in 0..8u64 {
            assert!(m.find_frame_of(c).frame.is_some());
        }
    }

    #[test]
    fn probing_keeps_the_modulo_order() {
        // The probe order and the probe count are charged to virtual
        // time: both must be what `(start + i) % n` gave, for a table
        // size that is no power of two, from a start that wraps, and on
        // a full table.
        let n = 13;
        let m = MemoryModule::new(0, n, 8, 100_000);
        // Pages hashing to the first, a middle and the last slot.
        let at = |slot| (0..).find(|&c| m.hash_slot(c) == slot).unwrap();
        for cpage in [at(0), at(6), at(n - 1)] {
            let start = m.hash_slot(cpage);
            let modulo: Vec<usize> = (0..n).map(|i| (start + i) % n).collect();
            assert_eq!(m.probe_order(cpage).collect::<Vec<_>>(), modulo);
        }
        // Fill the table with pages that all hash to the last slot: the
        // i-th lands i slots on, around the end of the table, after
        // i + 1 probes.
        let last: Vec<u64> = (0..).filter(|&c| m.hash_slot(c) == n - 1).take(n).collect();
        for (i, &cpage) in last.iter().enumerate() {
            let want = IptProbe {
                frame: Some((n - 1 + i) % n),
                probes: i + 1,
            };
            assert_eq!(m.alloc_frame(cpage), Some(want));
            assert_eq!(m.find_frame_of(cpage), want);
        }
        // Full: a miss inspects every entry, an allocation finds none.
        assert_eq!(
            m.find_frame_of(at(6)),
            IptProbe {
                frame: None,
                probes: n
            }
        );
        assert_eq!(m.alloc_frame(at(6)), None);
        assert_eq!(m.frames_allocated(), n);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let m = MemoryModule::new(0, 4, 8, 100_000);
        let p = m.alloc_frame(1).unwrap();
        let f = p.frame.unwrap();
        m.free_frame(f);
        m.free_frame(f);
    }

    #[test]
    fn reserve_serializes_under_overload() {
        let m = MemoryModule::new(0, 1, 8, 100_000);
        let reserve = |now, service| m.reserve_with(&mut BucketCursor::default(), now, service);
        // Below the bucket's service capacity requests pass freely...
        assert_eq!(reserve(0, 600), 0);
        assert_eq!(reserve(0, 600), 0);
        // ...but overload queues: saturate the bucket, then measure.
        for _ in 0..200 {
            let _ = reserve(0, 600);
        }
        assert!(reserve(0, 600) > 0, "overloaded module must queue");
        // A request arriving much later sees no residue.
        assert_eq!(reserve(10_000_000, 600), 10_000_000);
    }

    #[test]
    fn block_transfers_serialize_with_cap() {
        let m = MemoryModule::new(0, 1, 8, 100_000);
        let s1 = m.reserve_block(0, 800_000, 4_000_000);
        let s2 = m.reserve_block(0, 800_000, 4_000_000);
        assert_eq!(s1, 0);
        assert_eq!(s2, 800_000, "second transfer waits for the engine");
        // A laggard far behind a future reservation is capped.
        let m2 = MemoryModule::new(0, 1, 8, 100_000);
        let _ = m2.reserve_block(50_000_000, 800_000, 4_000_000);
        let s = m2.reserve_block(0, 800_000, 4_000_000);
        assert!(s <= 4_000_000, "cap bounds skew-induced queueing: {s}");
    }

    #[test]
    fn concurrent_alloc_no_alias() {
        use std::sync::Arc;
        let m = Arc::new(MemoryModule::new(0, 64, 8, 100_000));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                for i in 0..16u64 {
                    let p = m.alloc_frame(t * 16 + i).unwrap();
                    got.push(p.frame.unwrap());
                }
                got
            }));
        }
        let mut all: Vec<usize> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 64, "concurrent allocations must not alias");
    }
}
