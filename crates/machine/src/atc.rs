//! The per-processor address translation cache (ATC).

use crate::addr::{PhysPage, Vpn};
use crate::frame::Frame;
use crate::machine::Machine;
use crate::module::MemoryModule;

/// Entries in each processor's address translation cache: the MC68851's
/// on-chip ATC held 64.
pub(crate) const ATC_ENTRIES: usize = 64;

/// One cached translation, with its resolved frame handle embedded and
/// the whole entry aligned to a cache line, so a probe touches exactly
/// one line.
#[derive(Clone, Copy)]
#[repr(align(64))]
struct AtcEntry {
    valid: bool,
    asid: u32,
    vpn: Vpn,
    pp: PhysPage,
    writable: bool,
    handle: FrameHandle,
}

// A hit reads one line: the tag, the handle and the charge all in it.
const _: () = assert!(std::mem::size_of::<AtcEntry>() == 64);

const INVALID: AtcEntry = AtcEntry {
    valid: false,
    asid: 0,
    vpn: 0,
    pp: PhysPage {
        module: 0,
        frame: 0,
    },
    writable: false,
    handle: FrameHandle::NULL,
};

/// A resolved pointer to a translation's frame and home module, and the
/// installing processor's word latencies and service time against that
/// module, cached in the ATC entry so a hit reaches storage and books its
/// time without `Machine::frame_data` or the processor's timing rows.
/// `Topology::validate` refuses a class that does not fit 32 bits.
///
/// The pointers are borrowed from the [`crate::Machine`] that owns the
/// frame. They stay valid for the machine's whole lifetime: a frame's
/// storage is materialised by the `MemoryModule::frame` call that resolved
/// the handle, into a write-once slot of a boxed slice, and from then on
/// the module never moves, replaces or frees it — `free_frame` only retags
/// the frame's inverted-page-table owner, and other frames materialising
/// later fill their own slots. A handle is only ever dereferenced by the
/// processor core that installed it, which holds an `Arc<Machine>` keeping
/// the storage alive.
#[derive(Clone, Copy)]
pub(crate) struct FrameHandle {
    pub(crate) frame: *const Frame,
    pub(crate) module: *const MemoryModule,
    pub(crate) local: bool,
    /// Word latency by [`crate::AccessKind`], ns.
    pub(crate) latency: [u32; 3],
    /// Module service time per access, ns.
    pub(crate) service: u32,
}

impl FrameHandle {
    const NULL: FrameHandle = FrameHandle {
        frame: std::ptr::null(),
        module: std::ptr::null(),
        local: false,
        latency: [0; 3],
        service: 0,
    };

    /// Whether the handle carries no resolved pointers (the entry was
    /// installed through the plain [`Atc::insert`] path).
    #[inline]
    pub(crate) fn is_null(&self) -> bool {
        self.frame.is_null()
    }

    /// The frame and module the handle points at, borrowed for as long as
    /// `machine` is: the only dereference of a handle.
    ///
    /// The caller passes the machine of the core that installed the
    /// handle, and only a non-null one.
    #[inline(always)]
    pub(crate) fn resolve<'m>(&self, _machine: &'m Machine) -> (&'m Frame, &'m MemoryModule) {
        debug_assert!(
            !self.is_null(),
            "a null handle resolves through the machine"
        );
        // SAFETY: the handle was installed by `ProcCore::atc_insert` from
        // this machine's own storage. Modules are allocated at boot and a
        // frame is materialised by the `frame()` call `atc_insert` made;
        // neither moves or is freed afterwards (`free_frame` only retags
        // the inverted page table), and the borrow of `machine` keeps them
        // alive for the returned lifetime.
        unsafe { (&*self.frame, &*self.module) }
    }
}

/// Hit/miss counters of an [`Atc`], for locality reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct AtcStats {
    /// Lookups satisfied from the cache.
    pub hits: u64,
    /// Lookups that required a Pmap walk.
    pub misses: u64,
}

/// A direct-mapped software model of the MC68851's address translation
/// cache.
///
/// Each processor owns exactly one `Atc`, and only code running on that
/// processor's thread touches it — shootdown targets invalidate their own
/// ATC from the Cmap synchronization handler, never another processor's
/// (§3.1: address translation caches "are usually private to the processor
/// to which the MMU is attached").
///
/// Entries are tagged by (address-space id, virtual page number). A hit
/// costs nothing extra in the timing model (translation overlaps the
/// access, as in the real MMU); misses are refilled from the per-processor
/// Pmap by the kernel, which charges the walk.
///
/// Alongside each entry the cache can hold a frame handle — resolved
/// frame/module pointers and the access charge, installed by
/// [`crate::ProcCore::atc_insert`] — so the owning processor's access fast
/// path reaches storage and books its time without consulting the
/// machine. Handles are slaved to their entry: any operation that
/// invalidates or replaces an entry makes its handle unreachable (lookups
/// check entry validity first) or nulls it.
pub struct Atc {
    entries: Box<[AtcEntry]>,
    mask: usize,
    hits: u64,
    misses: u64,
}

// SAFETY: the raw pointers in `handles` point into a `Machine`'s frame
// storage, which is `Sync` (frames are `AtomicU32` words) and, once
// materialised, immovable for the machine's lifetime. An `Atc` is owned by
// one `ProcCore`, which holds an `Arc<Machine>` keeping that storage
// alive, so moving the `Atc` to another thread along with its core is
// sound.
unsafe impl Send for Atc {}

impl Atc {
    /// Creates an ATC with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a nonzero power of two.
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two() && entries > 0,
            "ATC size must be a nonzero power of two"
        );
        Self {
            entries: vec![INVALID; entries].into_boxed_slice(),
            mask: entries - 1,
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn slot(&self, asid: u32, vpn: Vpn) -> usize {
        ((vpn as usize) ^ ((asid as usize) << 3)) & self.mask
    }

    /// Looks up the translation for (`asid`, `vpn`).
    ///
    /// Returns the physical page and whether the cached entry permits
    /// writes. A miss returns `None`; the caller refills from the Pmap.
    #[inline]
    pub fn lookup(&mut self, asid: u32, vpn: Vpn) -> Option<(PhysPage, bool)> {
        self.lookup_with_handle(asid, vpn)
            .map(|(pp, writable, _)| (pp, writable))
    }

    /// Looks up the translation for (`asid`, `vpn`) and returns the cached
    /// frame handle with it.
    ///
    /// Hit/miss accounting is identical to [`Atc::lookup`]; the handle may
    /// be null when the entry was installed without resolved pointers, in
    /// which case the caller falls back to resolving through the machine.
    #[inline(always)]
    pub(crate) fn lookup_with_handle(
        &mut self,
        asid: u32,
        vpn: Vpn,
    ) -> Option<(PhysPage, bool, FrameHandle)> {
        let e = &self.entries[self.slot(asid, vpn)];
        if e.valid && e.asid == asid && e.vpn == vpn {
            self.hits += 1;
            Some((e.pp, e.writable, e.handle))
        } else {
            self.misses += 1;
            None
        }
    }

    /// Installs a translation, evicting whatever shared its slot.
    ///
    /// The slot's frame handle is nulled: fast-path hits on this entry
    /// fall back to resolving the frame through the machine. Use
    /// [`crate::ProcCore::atc_insert`] to install a resolved handle.
    pub fn insert(&mut self, asid: u32, vpn: Vpn, pp: PhysPage, writable: bool) {
        self.entries[self.slot(asid, vpn)] = AtcEntry {
            valid: true,
            asid,
            vpn,
            pp,
            writable,
            handle: FrameHandle::NULL,
        };
    }

    /// Installs a translation together with its resolved handle, evicting
    /// whatever shared its slot.
    ///
    /// The handle's pointers must be the storage backing `pp` on the
    /// machine the owning processor belongs to, and its charge that
    /// processor's timing against `pp`'s node.
    pub(crate) fn insert_with_handle(
        &mut self,
        asid: u32,
        vpn: Vpn,
        pp: PhysPage,
        writable: bool,
        handle: FrameHandle,
    ) {
        self.entries[self.slot(asid, vpn)] = AtcEntry {
            valid: true,
            asid,
            vpn,
            pp,
            writable,
            handle,
        };
    }

    /// Invalidates the translation for (`asid`, `vpn`) if cached.
    pub fn invalidate(&mut self, asid: u32, vpn: Vpn) {
        let e = &mut self.entries[self.slot(asid, vpn)];
        if e.valid && e.asid == asid && e.vpn == vpn {
            e.valid = false;
            e.handle = FrameHandle::NULL;
        }
    }

    /// Downgrades the cached translation for (`asid`, `vpn`) to read-only
    /// if cached (the shootdown "restrict access rights" directive, §2.3).
    pub fn restrict_to_read(&mut self, asid: u32, vpn: Vpn) {
        let e = &mut self.entries[self.slot(asid, vpn)];
        if e.valid && e.asid == asid && e.vpn == vpn {
            e.writable = false;
        }
    }

    /// Invalidates the entire cache.
    pub fn flush_all(&mut self) {
        for e in self.entries.iter_mut() {
            e.valid = false;
            e.handle = FrameHandle::NULL;
        }
    }

    /// Hit/miss counters since construction.
    pub(crate) fn stats(&self) -> AtcStats {
        AtcStats {
            hits: self.hits,
            misses: self.misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut atc = Atc::new(8);
        assert_eq!(atc.lookup(1, 100), None);
        atc.insert(1, 100, PhysPage::new(2, 5), false);
        assert_eq!(atc.lookup(1, 100), Some((PhysPage::new(2, 5), false)));
        let s = atc.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn distinguishes_address_spaces() {
        let mut atc = Atc::new(8);
        atc.insert(1, 100, PhysPage::new(0, 1), true);
        // Same vpn, different asid must miss (and not alias).
        assert_eq!(atc.lookup(2, 100), None);
    }

    #[test]
    fn conflict_eviction() {
        let mut atc = Atc::new(8);
        // vpn 0 and vpn 8 share slot 0 in an 8-entry direct-mapped cache.
        atc.insert(1, 0, PhysPage::new(0, 0), false);
        atc.insert(1, 8, PhysPage::new(0, 1), false);
        assert_eq!(atc.lookup(1, 0), None, "conflicting entry must evict");
        assert!(atc.lookup(1, 8).is_some());
    }

    #[test]
    fn invalidate_and_restrict() {
        let mut atc = Atc::new(8);
        atc.insert(1, 7, PhysPage::new(3, 3), true);
        atc.restrict_to_read(1, 7);
        assert_eq!(atc.lookup(1, 7), Some((PhysPage::new(3, 3), false)));
        atc.invalidate(1, 7);
        assert_eq!(atc.lookup(1, 7), None);
        // Invalidating a non-resident entry is a no-op.
        atc.invalidate(1, 7);
    }

    #[test]
    fn flushes() {
        let mut atc = Atc::new(8);
        atc.insert(1, 1, PhysPage::new(0, 0), false);
        atc.insert(2, 2, PhysPage::new(0, 1), false);
        atc.flush_all();
        assert_eq!(atc.lookup(1, 1), None);
        assert_eq!(atc.lookup(2, 2), None);
    }

    #[test]
    fn handle_lifecycle() {
        let frame = Frame::new(4);
        let module = MemoryModule::new(0, 1, 4, 100_000);
        let mut atc = Atc::new(8);

        // Plain insert carries no handle; lookup_with_handle still counts.
        atc.insert(1, 3, PhysPage::new(0, 0), true);
        let (pp, w, h) = atc.lookup_with_handle(1, 3).expect("resident");
        assert_eq!((pp, w), (PhysPage::new(0, 0), true));
        assert!(h.is_null());

        // insert_with_handle installs the handle and its charge.
        let handle = FrameHandle {
            frame: &frame,
            module: &module,
            local: true,
            latency: [320, 330, 640],
            service: 300,
        };
        atc.insert_with_handle(1, 3, PhysPage::new(0, 0), true, handle);
        let (_, _, h) = atc.lookup_with_handle(1, 3).expect("resident");
        assert!(!h.is_null());
        assert!(std::ptr::eq(h.frame, &frame));
        assert!(std::ptr::eq(h.module, &module));
        assert!(h.local);
        assert_eq!((h.latency, h.service), ([320, 330, 640], 300));

        // Invalidation hides the handle with the entry.
        atc.invalidate(1, 3);
        assert!(atc.lookup_with_handle(1, 3).is_none());

        // Counting matches plain lookup: 2 hits, 1 miss so far.
        let s = atc.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_size_panics() {
        let _ = Atc::new(12);
    }
}
