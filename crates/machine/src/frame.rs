//! Physical page frames backed by real word-granular storage.

use std::sync::atomic::{AtomicU32, Ordering};

/// A physical page frame: a page worth of real 32-bit words.
///
/// Frames store real data so that replicas made by the coherent-memory
/// protocol are genuine copies — a protocol bug that lets two replicas
/// diverge produces a wrong application answer rather than just a wrong
/// statistic.
///
/// Words are `AtomicU32` so that the *frozen page* path of the protocol —
/// multiple processors doing fine-grain interleaved accesses to a single
/// physical copy, as the Butterfly's remote memory operations allowed — is
/// well-defined under real threading. Plain program loads and stores use
/// `Relaxed` atomics (which compile to ordinary moves); the Butterfly's
/// atomic remote operations use stronger orderings.
pub struct Frame {
    words: Box<[AtomicU32]>,
}

impl Frame {
    /// Allocates a zeroed frame of `words` 32-bit words.
    pub fn new(words: usize) -> Self {
        let mut v = Vec::with_capacity(words);
        v.resize_with(words, || AtomicU32::new(0));
        Self {
            words: v.into_boxed_slice(),
        }
    }

    /// Allocates a frame holding a copy of `src`'s words: a block
    /// transfer into a frame that never held data, with no zeroing first.
    pub(crate) fn copy_of(src: &Frame) -> Self {
        let n = src.words.len();
        let mut v: Vec<AtomicU32> = Vec::with_capacity(n);
        // SAFETY: one memcpy into the new allocation, by `copy_from`'s
        // argument: `AtomicU32` has the in-memory representation of `u32`
        // and every bit pattern is a valid one, the capacity is `n`, the
        // regions are distinct allocations, and no writer exists while a
        // page is copied. All `n` words are initialised before `set_len`.
        unsafe {
            std::ptr::copy_nonoverlapping(src.words.as_ptr(), v.as_mut_ptr(), n);
            v.set_len(n);
        }
        Self {
            words: v.into_boxed_slice(),
        }
    }

    /// The number of words in the frame.
    pub(crate) fn len(&self) -> usize {
        self.words.len()
    }

    /// Reads the word at `idx` (an ordinary program load).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range; the caller translates and
    /// bounds-checks addresses before touching the frame.
    #[inline]
    pub fn load(&self, idx: usize) -> u32 {
        self.words[idx].load(Ordering::Relaxed)
    }

    /// Writes the word at `idx` (an ordinary program store).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn store(&self, idx: usize, val: u32) {
        self.words[idx].store(val, Ordering::Relaxed);
    }

    /// Atomic fetch-and-add on the word at `idx`, modelling the
    /// Butterfly's remote atomic operations.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn fetch_add(&self, idx: usize, delta: u32) -> u32 {
        self.words[idx].fetch_add(delta, Ordering::AcqRel)
    }

    /// Atomic compare-and-exchange on the word at `idx`.
    ///
    /// Returns `Ok(previous)` when the exchange happened, `Err(actual)`
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn compare_exchange(&self, idx: usize, current: u32, new: u32) -> Result<u32, u32> {
        self.words[idx].compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)
    }

    /// Atomic swap of the word at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn swap(&self, idx: usize, val: u32) -> u32 {
        self.words[idx].swap(val, Ordering::AcqRel)
    }

    /// Copies the entire contents of `src` into this frame, word by word,
    /// as the block-transfer engine does during replication/migration.
    ///
    /// The coherency protocol guarantees no writer exists while a page is
    /// copied (all write mappings are restricted first), so the relaxed
    /// per-word copy is race-free in a correct kernel.
    ///
    /// # Panics
    ///
    /// Panics if the frames have different lengths.
    pub fn copy_from(&self, src: &Frame) {
        assert_eq!(
            self.len(),
            src.len(),
            "block transfer between unequal frames"
        );
        // A single memcpy instead of a per-word atomic loop. `AtomicU32`
        // is documented to have the same in-memory representation as
        // `u32`, so reading the source through `*const u32` is sound; the
        // protocol guarantees no writer exists during a block transfer
        // (write mappings are restricted first) and the destination frame
        // is unmapped, so there is no concurrent access to either side.
        // The `assert_ne!(src, dst)` in `ProcCore::block_transfer` (and
        // the distinct-frame invariant of every other caller) guarantees
        // the regions do not overlap.
        if self.words.is_empty() || std::ptr::eq(self, src) {
            return;
        }
        unsafe {
            std::ptr::copy_nonoverlapping(
                src.words[0].as_ptr() as *const u32,
                self.words[0].as_ptr(),
                self.words.len(),
            );
        }
    }

    /// Copies the first `words` words of `src` into this frame — the
    /// state a block transfer leaves behind when the engine fails
    /// mid-copy (fault injection). The destination is not yet mapped
    /// anywhere, so the torn prefix is never observable; the retry
    /// overwrites it whole-page.
    ///
    /// # Panics
    ///
    /// Panics if `words` exceeds either frame's length.
    pub(crate) fn copy_prefix_from(&self, src: &Frame, words: usize) {
        assert!(
            words <= self.len() && words <= src.len(),
            "partial transfer beyond frame bounds"
        );
        if std::ptr::eq(self, src) {
            return;
        }
        for (w, s) in self.words[..words].iter().zip(&src.words[..words]) {
            w.store(s.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Zero-fills the frame: the fault handler's first-touch clear of a
    /// freshly allocated page (§3.3), which may be a recycled frame still
    /// holding its previous page's words.
    pub(crate) fn zero(&self) {
        if self.words.is_empty() {
            return;
        }
        // SAFETY: one memset instead of a per-word atomic loop, by the
        // same argument as `copy_from`: `AtomicU32` has the in-memory
        // representation of `u32`, the pointer and length are those of
        // `self.words`, and the kernel zeroes a frame only between
        // allocating it and mapping it, so no other access is concurrent.
        unsafe {
            std::ptr::write_bytes(self.words[0].as_ptr(), 0, self.words.len());
        }
    }

    /// Copies `src` into the frame starting at word `idx` (used by the
    /// kernel's port message transfer and by tests).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn store_slice(&self, idx: usize, src: &[u32]) {
        assert!(idx + src.len() <= self.len(), "store_slice out of bounds");
        // One bounds check, then a straight zip. LLVM does not vectorise
        // or merge atomic stores, relaxed ones included, so this is one
        // 32-bit store per word; they must stay atomic because a frozen
        // page allows concurrent accesses to its other words.
        for (w, &v) in self.words[idx..idx + src.len()].iter().zip(src) {
            w.store(v, Ordering::Relaxed);
        }
    }

    /// Reads `dst.len()` words starting at word `idx` into `dst`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn load_slice(&self, idx: usize, dst: &mut [u32]) {
        assert!(idx + dst.len() <= self.len(), "load_slice out of bounds");
        for (w, v) in self.words[idx..idx + dst.len()].iter().zip(dst) {
            *v = w.load(Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_roundtrip() {
        let f = Frame::new(16);
        assert_eq!(f.len(), 16);
        f.store(3, 0xdead_beef);
        assert_eq!(f.load(3), 0xdead_beef);
        assert_eq!(f.load(4), 0);
    }

    #[test]
    fn atomics() {
        let f = Frame::new(4);
        assert_eq!(f.fetch_add(0, 5), 0);
        assert_eq!(f.fetch_add(0, 5), 5);
        assert_eq!(f.load(0), 10);
        assert_eq!(f.compare_exchange(0, 10, 11), Ok(10));
        assert_eq!(f.compare_exchange(0, 10, 12), Err(11));
        assert_eq!(f.swap(0, 99), 11);
    }

    #[test]
    fn block_copy_and_zero() {
        let a = Frame::new(8);
        let b = Frame::new(8);
        for i in 0..8 {
            a.store(i, i as u32 * 7);
        }
        b.copy_from(&a);
        for i in 0..8 {
            assert_eq!(b.load(i), i as u32 * 7);
        }
        b.zero();
        for i in 0..8 {
            assert_eq!(b.load(i), 0);
        }
    }

    #[test]
    fn copy_of_holds_exactly_the_source() {
        let a = Frame::new(8);
        for i in 0..8 {
            a.store(i, 0x100 + i as u32);
        }
        let b = Frame::copy_of(&a);
        assert_eq!(b.len(), 8);
        for i in 0..8 {
            assert_eq!(b.load(i), 0x100 + i as u32);
        }
        // A distinct storage: writes to one leave the other alone.
        b.store(0, 7);
        assert_eq!(a.load(0), 0x100);
        assert_eq!(Frame::copy_of(&Frame::new(0)).len(), 0);
    }

    #[test]
    fn partial_copy_stops_at_the_prefix() {
        let a = Frame::new(8);
        let b = Frame::new(8);
        for i in 0..8 {
            a.store(i, 100 + i as u32);
            b.store(i, 0xFFFF);
        }
        b.copy_prefix_from(&a, 5);
        for i in 0..5 {
            assert_eq!(b.load(i), 100 + i as u32, "prefix word {i} not copied");
        }
        for i in 5..8 {
            assert_eq!(b.load(i), 0xFFFF, "word {i} beyond the prefix was touched");
        }
        // Self-copy is a no-op, mirroring copy_from.
        a.copy_prefix_from(&a, 8);
        assert_eq!(a.load(0), 100);
    }

    #[test]
    fn slices() {
        let f = Frame::new(8);
        f.store_slice(2, &[1, 2, 3]);
        let mut out = [0u32; 3];
        f.load_slice(2, &mut out);
        assert_eq!(out, [1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "unequal frames")]
    fn copy_between_unequal_frames_panics() {
        Frame::new(4).copy_from(&Frame::new(8));
    }
}
