//! Coherent pages: the directory-based heart of the protocol.

use parking_lot::{Mutex, MutexGuard, RwLock};

use numa_machine::{PhysPage, ProcSet};

use crate::ids::{AsId, CpageId};

/// The state of a coherent page (§3.2, Figure 4 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpState {
    /// No physical pages back the Cpage; no virtual-to-physical mappings
    /// exist.
    Empty,
    /// Exactly one physical page backs the Cpage and all
    /// virtual-to-physical mappings are restricted to read access.
    Present1,
    /// Two or more physical pages in different memory modules back the
    /// Cpage; all mappings are read-only.
    PresentPlus,
    /// One physical page backs the Cpage and at least one mapping allows
    /// write access.
    Modified,
}

/// The mutable state of one coherent page, protected by the page's lock.
///
/// This combines the paper's Cpage table entry (§2.3): the directory of
/// physical pages (a module bitmask plus the page list), the
/// write-mapping indicator, the time of the most recent invalidation and
/// the frozen flag — plus per-page bookkeeping for shootdown targeting
/// and the post-mortem report.
#[derive(Debug)]
pub struct CpageInner {
    /// Protocol state.
    pub state: CpState,
    /// Directory: the physical pages backing this Cpage.
    pub copies: Vec<PhysPage>,
    /// Directory: the set of memory modules holding a copy.
    pub copies_mask: ProcSet,
    /// Processors currently granted a *writable* virtual-to-physical
    /// mapping (nonzero only in the `modified` state). The directory
    /// "indicates whether there is a virtual-to-physical translation
    /// allowing write access" (§2.3); tracking the holders lets the
    /// restrict shootdown interrupt only the writers.
    pub writer_mask: ProcSet,
    /// Virtual time of the most recent invalidation performed by the
    /// coherency protocol, if any. Drives the replication policy (§4.2).
    pub last_invalidation: Option<u64>,
    /// Whether the replication policy has frozen the page (all new
    /// mappings go to the single physical copy).
    pub frozen: bool,
    /// Processors whose Pmap maps a copy *not* on their own node (remote
    /// mappings created for frozen/unreplicated pages); used to target
    /// shootdowns precisely.
    pub remote_map_mask: ProcSet,
    /// Every (address space, virtual page) this Cpage is bound at. A
    /// protocol shootdown "must affect every address space in which the
    /// Cpage is mapped" (§3.1).
    pub bindings: Vec<(AsId, u64)>,
    /// Number of migrations performed (for the ACE-style policy and
    /// statistics).
    pub migrations: u32,
    /// Statistics: coherent-memory faults taken on this page.
    pub faults: u64,
    /// Statistics: times the page was frozen.
    pub freezes: u32,
    /// Statistics: times the page was thawed (defrost or explicit).
    pub thaws: u32,
    /// Statistics: replications performed.
    pub replications: u32,
    /// Statistics: virtual-time nanoseconds spent waiting for this page's
    /// lock in the fault handler — the paper's "measure of contention in
    /// the Cpage fault handler for that page" (§4.2).
    pub lock_wait_ns: u64,
}

impl CpageInner {
    fn new() -> Self {
        Self {
            state: CpState::Empty,
            copies: Vec::new(),
            copies_mask: ProcSet::empty(),
            writer_mask: ProcSet::empty(),
            last_invalidation: None,
            frozen: false,
            remote_map_mask: ProcSet::empty(),
            bindings: Vec::new(),
            migrations: 0,
            faults: 0,
            freezes: 0,
            thaws: 0,
            replications: 0,
            lock_wait_ns: 0,
        }
    }

    /// Whether some virtual-to-physical mapping currently allows writes.
    #[inline]
    pub fn has_writer(&self) -> bool {
        !self.writer_mask.is_empty()
    }

    /// Whether a copy exists on `module`.
    #[inline]
    pub(crate) fn has_copy_on(&self, module: usize) -> bool {
        self.copies_mask.contains(module)
    }

    /// The copy on `module`, if any.
    pub(crate) fn copy_on(&self, module: usize) -> Option<PhysPage> {
        self.copies
            .iter()
            .copied()
            .find(|pp| pp.module_id() == module)
    }

    /// Adds `pp` to the directory.
    ///
    /// # Panics
    ///
    /// Panics if the module already holds a copy — the protocol never
    /// allocates two copies of one Cpage on one module.
    pub(crate) fn add_copy(&mut self, pp: PhysPage) {
        assert!(
            !self.has_copy_on(pp.module_id()),
            "duplicate copy of a Cpage on module {}",
            pp.module_id()
        );
        self.copies_mask.insert(pp.module_id());
        self.copies.push(pp);
    }

    /// Removes the copy on `module` from the directory, returning it.
    ///
    /// # Panics
    ///
    /// Panics if no copy exists there.
    pub(crate) fn remove_copy_on(&mut self, module: usize) -> PhysPage {
        let idx = self
            .copies
            .iter()
            .position(|pp| pp.module_id() == module)
            .expect("removing a copy that does not exist");
        self.copies_mask.remove(module);
        self.copies.swap_remove(idx)
    }

    /// Checks the internal invariants that the protocol maintains; test
    /// and debug support.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        let mask_count = self.copies_mask.count();
        if mask_count != self.copies.len() {
            return Err(format!(
                "directory mask has {mask_count} members but {} copies listed",
                self.copies.len()
            ));
        }
        for pp in &self.copies {
            if !self.has_copy_on(pp.module_id()) {
                return Err(format!("copy {pp:?} not in mask"));
            }
        }
        match self.state {
            CpState::Empty => {
                if !self.copies.is_empty() {
                    return Err("empty state with physical copies".into());
                }
                if self.has_writer() {
                    return Err("empty state with a writable mapping".into());
                }
            }
            CpState::Present1 => {
                if self.copies.len() != 1 {
                    return Err(format!("present1 with {} copies", self.copies.len()));
                }
                if self.has_writer() {
                    return Err("present1 with a writable mapping".into());
                }
            }
            CpState::PresentPlus => {
                if self.copies.len() < 2 {
                    return Err(format!("present+ with {} copies", self.copies.len()));
                }
                if self.has_writer() {
                    return Err("present+ with a writable mapping".into());
                }
            }
            CpState::Modified => {
                if self.copies.len() != 1 {
                    return Err(format!("modified with {} copies", self.copies.len()));
                }
            }
        }
        if self.frozen {
            if self.copies.len() != 1 {
                return Err("frozen page must have exactly one physical copy".into());
            }
            if self.state != CpState::Modified {
                return Err("frozen page must be in the modified state".into());
            }
        }
        Ok(())
    }
}

/// One coherent page: identity, metadata home node, and locked state.
pub struct Cpage {
    id: CpageId,
    /// The node homing this page's kernel metadata (for the cost model:
    /// the paper's fault times differ with kernel-data locality, §4).
    home: usize,
    inner: Mutex<CpageInner>,
}

impl Cpage {
    /// The page's identity.
    pub fn id(&self) -> CpageId {
        self.id
    }

    /// The node homing the page's metadata.
    pub(crate) fn home(&self) -> usize {
        self.home
    }

    /// Locks the page state unconditionally (non-fault paths and tests;
    /// the fault handler uses a polling try-lock so it can keep servicing
    /// IPIs).
    pub fn lock(&self) -> MutexGuard<'_, CpageInner> {
        self.inner.lock()
    }

    /// Attempts to lock the page state without blocking.
    pub(crate) fn try_lock(&self) -> Option<MutexGuard<'_, CpageInner>> {
        self.inner.try_lock()
    }
}

/// The table of all coherent pages (§2.3: "the Cpage table is the list of
/// all coherent pages").
///
/// Append-only: ids are stable for the life of the kernel.
pub(crate) struct CpageTable {
    pages: RwLock<Vec<std::sync::Arc<Cpage>>>,
}

impl CpageTable {
    /// An empty table.
    pub(crate) fn new() -> Self {
        Self {
            pages: RwLock::new(Vec::new()),
        }
    }

    /// Allocates a fresh coherent page in the `empty` state, homed on
    /// `home`.
    pub(crate) fn alloc(&self, home: usize) -> std::sync::Arc<Cpage> {
        let mut pages = self.pages.write();
        let id = CpageId(pages.len() as u64);
        let page = std::sync::Arc::new(Cpage {
            id,
            home,
            inner: Mutex::new(CpageInner::new()),
        });
        pages.push(std::sync::Arc::clone(&page));
        page
    }

    /// Looks up a page by id.
    pub(crate) fn get(&self, id: CpageId) -> Option<std::sync::Arc<Cpage>> {
        self.pages.read().get(id.index()).cloned()
    }

    /// The number of coherent pages ever allocated.
    pub(crate) fn len(&self) -> usize {
        self.pages.read().len()
    }

    /// Snapshot of all pages (for the post-mortem report).
    pub(crate) fn snapshot(&self) -> Vec<std::sync::Arc<Cpage>> {
        self.pages.read().clone()
    }
}

impl Default for CpageTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_get() {
        let t = CpageTable::new();
        assert_eq!(t.len(), 0);
        let a = t.alloc(0);
        let b = t.alloc(3);
        assert_eq!(a.id(), CpageId(0));
        assert_eq!(b.id(), CpageId(1));
        assert_eq!(b.home(), 3);
        assert_eq!(t.len(), 2);
        assert!(t.get(CpageId(1)).is_some());
        assert!(t.get(CpageId(5)).is_none());
    }

    #[test]
    fn directory_add_remove() {
        let t = CpageTable::new();
        let p = t.alloc(0);
        let mut g = p.lock();
        g.add_copy(PhysPage::new(2, 7));
        g.add_copy(PhysPage::new(5, 1));
        assert!(g.has_copy_on(2));
        assert!(g.has_copy_on(5));
        assert!(!g.has_copy_on(3));
        assert_eq!(g.copy_on(2), Some(PhysPage::new(2, 7)));
        let removed = g.remove_copy_on(2);
        assert_eq!(removed, PhysPage::new(2, 7));
        assert!(!g.has_copy_on(2));
        assert_eq!(g.copies.len(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate copy")]
    fn duplicate_copy_panics() {
        let t = CpageTable::new();
        let p = t.alloc(0);
        let mut g = p.lock();
        g.add_copy(PhysPage::new(2, 7));
        g.add_copy(PhysPage::new(2, 8));
    }

    #[test]
    fn invariants_by_state() {
        let t = CpageTable::new();
        let p = t.alloc(0);
        let mut g = p.lock();
        g.check_invariants().unwrap(); // empty

        g.add_copy(PhysPage::new(0, 0));
        g.state = CpState::Present1;
        g.check_invariants().unwrap();

        g.state = CpState::PresentPlus;
        assert!(g.check_invariants().is_err(), "present+ needs >= 2 copies");
        g.add_copy(PhysPage::new(1, 0));
        g.check_invariants().unwrap();

        g.state = CpState::Modified;
        assert!(
            g.check_invariants().is_err(),
            "modified needs exactly 1 copy"
        );
        g.remove_copy_on(1);
        g.writer_mask = ProcSet::single(0);
        g.check_invariants().unwrap();

        g.frozen = true;
        g.check_invariants().unwrap();
        g.state = CpState::Present1;
        g.writer_mask = ProcSet::empty();
        assert!(
            g.check_invariants().is_err(),
            "frozen page must be in modified state"
        );
    }
}
