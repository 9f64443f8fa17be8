//! The physical map (Pmap) layer: per-processor translation caches.
//!
//! "While Mach uses a single shared page table (Pmap) per address space,
//! each processor in PLATINUM must have its own private Pmap per address
//! space. Since a Pmap is only a cache of the valid virtual-to-physical
//! translations, it need not contain mappings for everything in an
//! address space, rather only a working set for that processor" (§3.1).
//!
//! In this implementation each processor's thread owns one [`Pmap`]
//! covering all address spaces it runs in, keyed by (space, vpn). Only
//! the owning thread ever touches it — shootdown targets update their own
//! Pmap from the Cmap synchronization handler — which is exactly the
//! property that lets PLATINUM avoid Mach's shootdown races.

use numa_machine::{PhysPage, Vpn};

use crate::hash::FastMap;
use crate::ids::AsId;

/// One cached virtual-to-physical translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PmapEntry {
    /// The backing physical page.
    pub pp: PhysPage,
    /// Whether the translation permits writes. The coherency protocol
    /// keeps this at least as restrictive as the Cpage state requires.
    pub writable: bool,
}

/// A processor's private physical map.
#[derive(Default)]
pub(crate) struct Pmap {
    entries: FastMap<(AsId, Vpn), PmapEntry>,
}

impl Pmap {
    /// An empty Pmap.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The translation for (`space`, `vpn`), if cached.
    #[inline]
    pub(crate) fn lookup(&self, space: AsId, vpn: Vpn) -> Option<PmapEntry> {
        self.entries.get(&(space, vpn)).copied()
    }

    /// Installs (or replaces) a translation.
    pub(crate) fn enter(&mut self, space: AsId, vpn: Vpn, entry: PmapEntry) {
        self.entries.insert((space, vpn), entry);
    }

    /// Removes a translation, returning it if present.
    pub(crate) fn remove(&mut self, space: AsId, vpn: Vpn) -> Option<PmapEntry> {
        self.entries.remove(&(space, vpn))
    }

    /// Downgrades a translation to read-only; no-op if absent.
    pub(crate) fn restrict_to_read(&mut self, space: AsId, vpn: Vpn) {
        if let Some(e) = self.entries.get_mut(&(space, vpn)) {
            e.writable = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enter_lookup_remove() {
        let mut p = Pmap::new();
        let e = PmapEntry {
            pp: PhysPage::new(1, 2),
            writable: true,
        };
        assert!(p.lookup(AsId(0), 5).is_none());
        p.enter(AsId(0), 5, e);
        assert_eq!(p.lookup(AsId(0), 5), Some(e));
        assert!(p.lookup(AsId(1), 5).is_none(), "keyed by space too");
        assert_eq!(p.remove(AsId(0), 5), Some(e));
        assert!(p.entries.is_empty());
    }

    #[test]
    fn restrict() {
        let mut p = Pmap::new();
        p.enter(
            AsId(0),
            7,
            PmapEntry {
                pp: PhysPage::new(0, 0),
                writable: true,
            },
        );
        p.restrict_to_read(AsId(0), 7);
        assert!(!p.lookup(AsId(0), 7).unwrap().writable);
        // Restricting an absent entry is a no-op.
        p.restrict_to_read(AsId(0), 99);
    }
}
