//! The timing-only tag cache of the UMA comparator.

/// One tag entry of the direct-mapped cache.
#[derive(Clone, Copy, Debug)]
struct TagEntry {
    valid: bool,
    /// The memory line index cached in this slot.
    line: u64,
    /// The global write version of the line when it was filled; a hit
    /// requires the version to still match, which models write-invalidate
    /// snooping by other processors.
    version: u64,
}

/// A direct-mapped, timing-only model of a small private cache.
///
/// Only tags and versions are stored; data always comes from the shared
/// backing store, so the comparator machine cannot return stale values
/// even if the timing model is approximate.
pub(crate) struct TagCache {
    entries: Box<[TagEntry]>,
    mask: usize,
    hits: u64,
    misses: u64,
}

impl TagCache {
    /// Creates a cache with `lines` slots.
    ///
    /// # Panics
    ///
    /// Panics unless `lines` is a nonzero power of two.
    pub(crate) fn new(lines: usize) -> Self {
        assert!(
            lines.is_power_of_two() && lines > 0,
            "cache lines must be a nonzero power of two"
        );
        Self {
            entries: vec![
                TagEntry {
                    valid: false,
                    line: 0,
                    version: 0
                };
                lines
            ]
            .into_boxed_slice(),
            mask: lines - 1,
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn slot(&self, line: u64) -> usize {
        (line as usize) & self.mask
    }

    /// Probes for `line` at `current_version`; returns whether it hits.
    /// A version mismatch (another processor wrote the line since the
    /// fill) counts as a miss, like a snoop invalidation.
    #[inline]
    pub(crate) fn probe(&mut self, line: u64, current_version: u64) -> bool {
        let e = &self.entries[self.slot(line)];
        if e.valid && e.line == line && e.version == current_version {
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Installs `line` at `version` (after a miss fill, or updating the
    /// processor's own copy after its own write-through).
    #[inline]
    pub(crate) fn fill(&mut self, line: u64, version: u64) {
        let slot = self.slot(line);
        self.entries[slot] = TagEntry {
            valid: true,
            line,
            version,
        };
    }

    /// Whether `line` is currently resident (regardless of version).
    pub(crate) fn resident(&self, line: u64) -> bool {
        let e = &self.entries[self.slot(line)];
        e.valid && e.line == line
    }

    /// (hits, misses) so far.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_fill_cycle() {
        let mut c = TagCache::new(8);
        assert!(!c.probe(5, 0));
        c.fill(5, 0);
        assert!(c.probe(5, 0));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn version_mismatch_misses() {
        let mut c = TagCache::new(8);
        c.fill(5, 0);
        assert!(!c.probe(5, 1), "a remote write must invalidate");
        c.fill(5, 1);
        assert!(c.probe(5, 1));
    }

    #[test]
    fn conflict_eviction() {
        let mut c = TagCache::new(8);
        c.fill(0, 0);
        c.fill(8, 0); // same slot in an 8-line direct-mapped cache
        assert!(!c.probe(0, 0));
        assert!(c.probe(8, 0));
        assert!(c.resident(8));
        assert!(!c.resident(0));
    }
}
