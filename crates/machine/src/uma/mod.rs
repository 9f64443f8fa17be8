//! A UMA comparator machine in the style of the Sequent Symmetry.
//!
//! Figure 5 of the paper compares merge sort on PLATINUM/Butterfly Plus
//! against the same program on a Sequent Symmetry (model A processors with
//! 8 KB write-through caches). We cannot run on a Symmetry either, so this
//! module provides the closest synthetic equivalent: a bus-based UMA
//! multiprocessor with small private write-through caches, a shared bus
//! with contention accounting, and uniform memory latency.
//!
//! The cache model is *timing-only*: tags and per-line versions determine
//! hits and misses (with write-invalidate snooping approximated through
//! the version check), while data is always read from the shared backing
//! store, so the comparator cannot produce incorrect application results.

mod cache;
mod ctx;

pub use ctx::UmaCtx;

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crate::addr::Va;
use crate::config::CONTENTION_BUCKET_NS;
use crate::contention::BucketedResource;

// Timing of a Sequent Symmetry model A: a cache hit is fast, a miss is a
// full bus transaction fetching a 16-byte line, and every write goes
// through to memory over the bus (write-through).

/// Latency of a cache hit, ns.
pub(crate) const HIT_NS: u64 = 150;
/// Latency of a read miss (line fetch), excluding bus queueing, ns.
pub(crate) const MISS_NS: u64 = 2000;
/// Bus occupancy of a line fetch, ns.
pub(crate) const BUS_LINE_SERVICE_NS: u64 = 1500;
/// Latency of a write as seen by the processor (write buffer), ns.
pub(crate) const WRITE_NS: u64 = 800;
/// Bus occupancy of a written-through word, ns.
pub(crate) const BUS_WORD_SERVICE_NS: u64 = 800;
/// Latency and bus occupancy of an atomic (locked) operation, ns.
pub(crate) const ATOMIC_NS: u64 = 2400;

/// Private cache capacity per processor, in bytes (model A: 8 KB).
pub const CACHE_BYTES: usize = 8 * 1024;
/// Cache line size in bytes.
pub(crate) const LINE_BYTES: usize = 16;
/// 32-bit words per cache line.
pub(crate) const WORDS_PER_LINE: usize = LINE_BYTES / 4;

/// Configuration of the UMA comparator machine.
#[derive(Clone, Debug)]
pub struct UmaConfig {
    /// Number of processors sharing the bus.
    pub procs: usize,
    /// Total shared memory, in 32-bit words.
    pub mem_words: usize,
}

impl Default for UmaConfig {
    fn default() -> Self {
        Self {
            procs: 16,
            mem_words: 1 << 22,
        }
    }
}

impl UmaConfig {
    /// Validates the configuration.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.procs == 0 {
            return Err("procs must be nonzero".into());
        }
        if self.mem_words == 0 {
            return Err("mem_words must be nonzero".into());
        }
        Ok(())
    }
}

/// The shared part of the UMA machine: memory, per-line write versions
/// (for snoop approximation) and the bus.
pub struct UmaMachine {
    cfg: UmaConfig,
    memory: Box<[AtomicU32]>,
    /// One version counter per line-sized chunk of memory; bumped on every
    /// write so that other caches' copies of the line stop hitting
    /// (write-invalidate snooping, approximated).
    line_versions: Box<[AtomicU64]>,
    /// The shared bus; each [`UmaCtx`] books it through its own cursor.
    bus: BucketedResource,
    alloc_next: AtomicU64,
}

impl UmaMachine {
    /// Builds the machine.
    pub fn new(cfg: UmaConfig) -> Result<Arc<Self>, String> {
        cfg.validate()?;
        let mut memory = Vec::with_capacity(cfg.mem_words);
        memory.resize_with(cfg.mem_words, || AtomicU32::new(0));
        let nlines = cfg.mem_words.div_ceil(WORDS_PER_LINE);
        let mut versions = Vec::with_capacity(nlines);
        versions.resize_with(nlines, || AtomicU64::new(0));
        Ok(Arc::new(Self {
            cfg,
            memory: memory.into_boxed_slice(),
            line_versions: versions.into_boxed_slice(),
            bus: BucketedResource::new(CONTENTION_BUCKET_NS),
            alloc_next: AtomicU64::new(0),
        }))
    }

    /// The machine configuration.
    pub fn cfg(&self) -> &UmaConfig {
        &self.cfg
    }

    /// Allocates `words` consecutive words, returning their base address.
    ///
    /// A simple bump allocator; the comparator has no virtual memory.
    ///
    /// # Panics
    ///
    /// Panics when memory is exhausted.
    pub fn alloc_words(&self, words: usize) -> Va {
        let base = self.alloc_next.fetch_add(words as u64, Ordering::Relaxed);
        assert!(
            (base + words as u64) <= self.cfg.mem_words as u64,
            "UMA machine out of memory"
        );
        base * 4
    }

    #[inline]
    pub(crate) fn word(&self, idx: usize) -> &AtomicU32 {
        &self.memory[idx]
    }

    #[inline]
    pub(crate) fn line_version(&self, word_idx: usize) -> u64 {
        self.line_versions[word_idx / WORDS_PER_LINE].load(Ordering::Relaxed)
    }

    #[inline]
    pub(crate) fn bump_line_version(&self, word_idx: usize) -> u64 {
        self.line_versions[word_idx / WORDS_PER_LINE].fetch_add(1, Ordering::Relaxed) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        UmaConfig::default().validate().unwrap();
        let c = UmaConfig {
            procs: 0,
            ..UmaConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn alloc_is_disjoint() {
        let m = UmaMachine::new(UmaConfig {
            mem_words: 1024,
            ..UmaConfig::default()
        })
        .unwrap();
        let a = m.alloc_words(100);
        let b = m.alloc_words(100);
        assert_eq!(a, 0);
        assert_eq!(b, 400);
    }

    #[test]
    #[should_panic(expected = "out of memory")]
    fn alloc_exhaustion_panics() {
        let m = UmaMachine::new(UmaConfig {
            mem_words: 64,
            ..UmaConfig::default()
        })
        .unwrap();
        let _ = m.alloc_words(65);
    }

    #[test]
    fn bus_queues_under_overload() {
        let m = UmaMachine::new(UmaConfig::default()).unwrap();
        let mut cursor = crate::BucketCursor::default();
        let mut delay = || m.bus.reserve_with(&mut cursor, 0, 600);
        // Below bucket capacity: free.
        assert_eq!(delay(), 0);
        // Saturate the bucket: later requests queue.
        for _ in 0..200 {
            let _ = delay();
        }
        assert!(delay() > 0);
    }

    #[test]
    fn line_versions_bump() {
        let m = UmaMachine::new(UmaConfig::default()).unwrap();
        let v0 = m.line_version(0);
        let v1 = m.bump_line_version(0);
        assert_eq!(v1, v0 + 1);
        // Words within the same line share a version.
        assert_eq!(m.line_version(3), v1);
        // Words in a different line do not.
        assert_eq!(m.line_version(4), 0);
    }
}
