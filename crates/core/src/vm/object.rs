//! Memory objects: the unit of sharing between address spaces.

use std::sync::{Arc, OnceLock};

use crate::coherent::cpage::{Cpage, CpageTable};
use crate::ids::{CpageId, ObjId};

/// A memory object: "an abstraction of an ordered list of memory pages. A
/// range of pages within a memory object may be bound to any contiguous
/// page-aligned virtual address range of the same size" (§1.1).
///
/// Coherent pages are created lazily, on the first fault that touches
/// each page; a fresh coherent page starts in the `empty` state with no
/// physical backing.
pub struct MemoryObject {
    id: ObjId,
    /// Lazily-created coherent pages, one slot per object page.
    pages: Box<[OnceLock<Arc<Cpage>>]>,
}

impl MemoryObject {
    /// Creates an object of `pages` pages.
    pub(crate) fn new(id: ObjId, pages: usize) -> Self {
        let mut v = Vec::with_capacity(pages);
        v.resize_with(pages, OnceLock::new);
        Self {
            id,
            pages: v.into_boxed_slice(),
        }
    }

    /// The object's global name.
    pub(crate) fn id(&self) -> ObjId {
        self.id
    }

    /// The object's length in pages.
    pub(crate) fn len_pages(&self) -> usize {
        self.pages.len()
    }

    /// The coherent page backing object page `idx`, creating it (in the
    /// `empty` state) on first touch.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range; the caller validates ranges when
    /// binding.
    pub(crate) fn cpage_for(&self, idx: usize, table: &CpageTable, home: usize) -> &Arc<Cpage> {
        self.pages[idx].get_or_init(|| table.alloc(home))
    }

    /// All coherent pages that have been created for this object.
    pub(crate) fn touched_cpages(&self) -> Vec<(usize, CpageId)> {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.get().map(|c| (i, c.id())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The coherent page backing object page `idx`, if it has ever been
    /// touched.
    fn existing_cpage(obj: &MemoryObject, idx: usize) -> Option<CpageId> {
        obj.pages.get(idx).and_then(|p| p.get().map(|c| c.id()))
    }

    #[test]
    fn lazy_cpage_creation() {
        let table = CpageTable::new();
        let obj = MemoryObject::new(ObjId(0), 4);
        assert_eq!(obj.len_pages(), 4);
        assert_eq!(existing_cpage(&obj, 2), None);
        let c = obj.cpage_for(2, &table, 3).id();
        assert_eq!(existing_cpage(&obj, 2), Some(c));
        // Idempotent: a second fault gets the same page.
        assert_eq!(obj.cpage_for(2, &table, 5).id(), c);
        assert_eq!(table.len(), 1);
        assert_eq!(table.get(c).unwrap().home(), 3);
        assert_eq!(obj.touched_cpages(), vec![(2, c)]);
    }

    #[test]
    fn concurrent_first_touch_creates_one_page() {
        let table = Arc::new(CpageTable::new());
        let obj = Arc::new(MemoryObject::new(ObjId(0), 1));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let t = Arc::clone(&table);
            let o = Arc::clone(&obj);
            handles.push(std::thread::spawn(move || o.cpage_for(0, &t, 0).id()));
        }
        let ids: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }
}
