//! Disjoint memory allocation zones (§6 of the paper).
//!
//! "Data with different access patterns should not be co-located on a
//! single page. The private data of each thread should be separated from
//! private data of other threads and from shared data. Read-only data
//! should be kept separate from modifiable data. Coarse-grain modifiable
//! data should be separated from fine-grain modifiable data such as
//! locks."
//!
//! A [`Zone`] is a bump allocator over a virtual address range (typically
//! one mapped memory object per zone). Because zones are distinct mapped
//! ranges, data allocated from different zones can never share a page;
//! within a zone, [`Zone::alloc_page_aligned`] gives page isolation for
//! individual allocations. "Because a typical NUMA multiprocessor has a
//! very large physical memory, the internal fragmentation introduced by
//! this strategy has little impact."

use numa_machine::Va;

/// A bump allocator over a range of virtual addresses.
///
/// Word-granular: sizes are in 32-bit words. Not thread-safe by design —
/// allocation happens during single-threaded application setup, before
/// workers are spawned (the paper's programs allocate their zones in the
/// startup phase).
#[derive(Debug)]
pub struct Zone {
    base: Va,
    words: usize,
    next: usize,
    page_words: usize,
}

impl Zone {
    /// Creates a zone over `[base, base + 4*words)` with pages of
    /// `page_words` words.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not word aligned or `page_words` is not a
    /// power of two.
    pub fn new(base: Va, words: usize, page_words: usize) -> Self {
        assert_eq!(base % 4, 0, "zone base must be word aligned");
        assert!(
            page_words.is_power_of_two(),
            "page_words must be a power of two"
        );
        Self {
            base,
            words,
            next: 0,
            page_words,
        }
    }

    /// The zone's base address.
    pub fn base(&self) -> Va {
        self.base
    }

    /// The page size this zone aligns to, in words.
    pub fn page_words(&self) -> usize {
        self.page_words
    }

    /// Words still available.
    pub fn remaining_words(&self) -> usize {
        self.words - self.next
    }

    /// Allocates `n` words, word aligned.
    ///
    /// # Panics
    ///
    /// Panics when the zone is exhausted — sizing zones is part of
    /// application setup, and overflow is a setup bug.
    pub fn alloc_words(&mut self, n: usize) -> Va {
        assert!(
            self.next + n <= self.words,
            "zone exhausted: want {n} words, {} left",
            self.remaining_words()
        );
        let va = self.base + 4 * self.next as u64;
        self.next += n;
        va
    }

    /// Allocates `n` words starting on a fresh page boundary, and leaves
    /// the remainder of the final page unused, so the allocation shares a
    /// page with nothing else — the §6 prescription for data whose access
    /// pattern differs from its neighbours'.
    pub fn alloc_page_aligned(&mut self, n: usize) -> Va {
        let misalign = (self.base as usize / 4 + self.next) % self.page_words;
        if misalign != 0 {
            let pad = self.page_words - misalign;
            assert!(
                self.next + pad <= self.words,
                "zone exhausted during alignment padding"
            );
            self.next += pad;
        }
        let va = self.alloc_words(n);
        // Round the cursor up so the *next* allocation starts on a fresh
        // page too.
        let tail = (self.base as usize / 4 + self.next) % self.page_words;
        if tail != 0 {
            let pad = (self.page_words - tail).min(self.words - self.next);
            self.next += pad;
        }
        va
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocation() {
        let mut z = Zone::new(0x1000, 64, 16);
        let a = z.alloc_words(3);
        let b = z.alloc_words(5);
        assert_eq!(a, 0x1000);
        assert_eq!(b, 0x100c);
        assert_eq!(z.remaining_words(), 56);
    }

    #[test]
    fn page_aligned_isolation() {
        let mut z = Zone::new(0x1000, 64, 16); // 16-word pages
        let a = z.alloc_words(3); // dirties page 0
        let b = z.alloc_page_aligned(2); // must start on page 1
        let c = z.alloc_words(1); // must not share b's page
        assert_eq!(a, 0x1000);
        assert_eq!(b, 0x1000 + 16 * 4);
        assert_eq!(c, 0x1000 + 32 * 4);
    }

    #[test]
    fn page_aligned_when_already_aligned() {
        let mut z = Zone::new(0x1000, 64, 16);
        let a = z.alloc_page_aligned(16);
        let b = z.alloc_page_aligned(1);
        assert_eq!(a, 0x1000);
        assert_eq!(b, 0x1000 + 16 * 4);
    }

    #[test]
    #[should_panic(expected = "zone exhausted")]
    fn exhaustion_panics() {
        let mut z = Zone::new(0x1000, 8, 16);
        let _ = z.alloc_words(9);
    }
}
