//! Address spaces: bindings of memory objects to virtual address ranges.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use numa_machine::{Va, Vpn};

use crate::coherent::cmap::Cmap;
use crate::error::{KernelError, Result};
use crate::ids::{AsId, Rights};
use crate::ptable::PmapReplica;
use crate::vm::object::MemoryObject;

/// One binding of a range of object pages to a virtual address range.
#[derive(Clone)]
pub(crate) struct Region {
    /// First virtual page of the region.
    pub vpn_start: Vpn,
    /// Length in pages.
    pub pages: usize,
    /// The bound object.
    pub object: Arc<MemoryObject>,
    /// First object page bound.
    pub obj_page_offset: usize,
    /// Rights granted by this binding. "Neither the virtual address range
    /// nor the access rights need be the same in every address space"
    /// (§1.1).
    pub rights: Rights,
}

impl Region {
    /// Whether the region contains `vpn`.
    pub(crate) fn contains(&self, vpn: Vpn) -> bool {
        vpn >= self.vpn_start && vpn < self.vpn_start + self.pages as u64
    }

    /// The object page index backing `vpn`.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` is outside the region.
    pub(crate) fn object_page(&self, vpn: Vpn) -> usize {
        assert!(self.contains(vpn), "vpn outside region");
        self.obj_page_offset + (vpn - self.vpn_start) as usize
    }
}

/// An address space: "a list of bindings of memory objects and access
/// rights to virtual address ranges. It defines the environment in which
/// one or more threads may execute" (§1.1).
///
/// The space owns its `Cmap` — the cached composition of its bindings
/// with the object-to-coherent mappings, plus the queue of mapping-change
/// messages used by the shootdown mechanism.
pub struct AddressSpace {
    id: AsId,
    /// Node homing the space's kernel metadata (cost model).
    home: usize,
    page_shift: u32,
    regions: RwLock<Vec<Region>>,
    cmap: Cmap,
    /// Which nodes hold a populated translation replica for this space
    /// (the replicated placements of the translation fabric; unused —
    /// and never touched — under the centralized default).
    replica: PmapReplica,
    /// Bump pointer for `map_anywhere`.
    next_free_vpn: AtomicU64,
}

impl AddressSpace {
    pub(crate) fn new(id: AsId, home: usize, page_shift: u32, nprocs: usize) -> Self {
        Self {
            id,
            home,
            page_shift,
            regions: RwLock::new(Vec::new()),
            cmap: Cmap::new(nprocs),
            replica: PmapReplica::new(nprocs),
            // Leave page 0 unmapped so null-ish addresses fault.
            next_free_vpn: AtomicU64::new(1),
        }
    }

    /// The space's global name.
    pub fn id(&self) -> AsId {
        self.id
    }

    /// The ASID used to tag ATC entries.
    pub(crate) fn asid(&self) -> u32 {
        self.id.0
    }

    /// The node homing the space's metadata.
    pub(crate) fn home(&self) -> usize {
        self.home
    }

    /// The space's Cmap.
    pub fn cmap(&self) -> &Cmap {
        &self.cmap
    }

    /// The space's translation-replica directory: which nodes hold a
    /// populated per-node copy of its translation structures.
    pub(crate) fn replica(&self) -> &PmapReplica {
        &self.replica
    }

    /// Converts a byte address to a virtual page number.
    #[inline]
    pub fn vpn_of(&self, va: Va) -> Vpn {
        va >> self.page_shift
    }

    /// Converts a virtual page number to its base byte address.
    #[inline]
    pub(crate) fn va_of(&self, vpn: Vpn) -> Va {
        vpn << self.page_shift
    }

    /// Binds `pages` pages of `object` starting at `obj_page_offset` to
    /// the virtual range beginning at `va`.
    ///
    /// `va` must be page aligned; the range must not overlap an existing
    /// region and must lie within the object.
    pub fn map_at(
        &self,
        object: Arc<MemoryObject>,
        obj_page_offset: usize,
        pages: usize,
        va: Va,
        rights: Rights,
    ) -> Result<()> {
        if va & ((1u64 << self.page_shift) - 1) != 0 {
            return Err(KernelError::Access(numa_machine::AccessErr::Misaligned(va)));
        }
        if pages == 0 || obj_page_offset + pages > object.len_pages() {
            return Err(KernelError::BadRange);
        }
        let vpn_start = self.vpn_of(va);
        let mut regions = self.regions.write();
        for r in regions.iter() {
            let disjoint = vpn_start + pages as u64 <= r.vpn_start
                || vpn_start >= r.vpn_start + r.pages as u64;
            if !disjoint {
                return Err(KernelError::MappingConflict(va));
            }
        }
        regions.push(Region {
            vpn_start,
            pages,
            object,
            obj_page_offset,
            rights,
        });
        // Keep the bump pointer beyond any explicit mapping.
        let end = vpn_start + pages as u64;
        self.next_free_vpn.fetch_max(end, Ordering::Relaxed);
        Ok(())
    }

    /// Binds the whole of `object` at a kernel-chosen address, returning
    /// the base virtual address.
    pub fn map_anywhere(&self, object: Arc<MemoryObject>, rights: Rights) -> Result<Va> {
        let pages = object.len_pages();
        // Leave one guard page between regions so off-by-one overruns
        // fault instead of touching a neighbour.
        let vpn = self
            .next_free_vpn
            .fetch_add(pages as u64 + 1, Ordering::Relaxed);
        let va = self.va_of(vpn);
        self.map_at(object, 0, pages, va, rights)?;
        Ok(va)
    }

    /// The region containing `vpn`, if any.
    pub(crate) fn region_for(&self, vpn: Vpn) -> Option<Region> {
        self.regions
            .read()
            .iter()
            .find(|r| r.contains(vpn))
            .cloned()
    }

    /// Removes the region starting exactly at `va`, returning it.
    pub(crate) fn unmap_region(&self, va: Va) -> Option<Region> {
        let vpn = self.vpn_of(va);
        let mut regions = self.regions.write();
        let idx = regions.iter().position(|r| r.vpn_start == vpn)?;
        Some(regions.swap_remove(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coherent::cpage::CpageTable;
    use crate::ids::ObjId;

    fn obj(pages: usize) -> Arc<MemoryObject> {
        Arc::new(MemoryObject::new(ObjId(0), pages))
    }

    fn space() -> AddressSpace {
        AddressSpace::new(AsId(1), 0, 12, 16)
    }

    #[test]
    fn map_at_and_lookup() {
        let s = space();
        s.map_at(obj(4), 0, 4, 0x10000, Rights::RW).unwrap();
        let r = s.region_for(s.vpn_of(0x10000)).unwrap();
        assert_eq!(r.pages, 4);
        assert_eq!(r.object_page(s.vpn_of(0x12000)), 2);
        assert!(s.region_for(s.vpn_of(0x20000)).is_none());
    }

    #[test]
    fn overlap_rejected() {
        let s = space();
        s.map_at(obj(4), 0, 4, 0x10000, Rights::RW).unwrap();
        let e = s.map_at(obj(4), 0, 4, 0x12000, Rights::RO);
        assert!(matches!(e, Err(KernelError::MappingConflict(_))));
        // Adjacent is fine.
        s.map_at(obj(4), 0, 4, 0x14000, Rights::RO).unwrap();
    }

    #[test]
    fn misaligned_and_bad_range_rejected() {
        let s = space();
        assert!(s.map_at(obj(4), 0, 4, 0x10001, Rights::RW).is_err());
        assert!(matches!(
            s.map_at(obj(4), 2, 3, 0x10000, Rights::RW),
            Err(KernelError::BadRange)
        ));
        assert!(matches!(
            s.map_at(obj(4), 0, 0, 0x10000, Rights::RW),
            Err(KernelError::BadRange)
        ));
    }

    #[test]
    fn map_anywhere_is_disjoint() {
        let s = space();
        let a = s.map_anywhere(obj(3), Rights::RW).unwrap();
        let b = s.map_anywhere(obj(3), Rights::RW).unwrap();
        assert_ne!(a, b);
        assert!(s.region_for(s.vpn_of(a)).is_some());
        assert!(s.region_for(s.vpn_of(b)).is_some());
        // Guard page between them.
        assert!(b >= a + 4 * 4096);
    }

    #[test]
    fn map_anywhere_avoids_explicit_mappings() {
        let s = space();
        s.map_at(obj(4), 0, 4, 0x100000, Rights::RW).unwrap();
        let va = s.map_anywhere(obj(2), Rights::RW).unwrap();
        assert!(va >= 0x100000 + 4 * 4096, "bump pointer must skip ahead");
    }

    #[test]
    fn unmap() {
        let s = space();
        s.map_at(obj(4), 0, 4, 0x10000, Rights::RW).unwrap();
        assert!(s.unmap_region(0x10000).is_some());
        assert!(s.region_for(s.vpn_of(0x10000)).is_none());
        assert!(s.unmap_region(0x10000).is_none());
    }

    #[test]
    fn same_object_two_spaces_share_cpages() {
        // "Since they have global names, memory objects are the natural
        // unit of data- or code-sharing between address spaces" (§1.1).
        let table = CpageTable::new();
        let o = obj(2);
        let s1 = AddressSpace::new(AsId(1), 0, 12, 16);
        let s2 = AddressSpace::new(AsId(2), 1, 12, 16);
        s1.map_at(Arc::clone(&o), 0, 2, 0x1000, Rights::RW).unwrap();
        s2.map_at(Arc::clone(&o), 0, 2, 0x8000, Rights::RO).unwrap();
        let r1 = s1.region_for(1).unwrap();
        let r2 = s2.region_for(8).unwrap();
        let c1 = r1.object.cpage_for(r1.object_page(1), &table, 0);
        let c2 = r2.object.cpage_for(r2.object_page(8), &table, 1);
        assert!(
            Arc::ptr_eq(c1, c2),
            "same object page must be the same coherent page"
        );
    }
}
