//! Sparse processor/module sets.
//!
//! The original kernel carried every processor set — copyset, writer set,
//! remote-map set, Cmap reference masks, shootdown targets — as a bare
//! `u64`, which silently capped the machine at 64 nodes and made every
//! `1u64 << module` a latent truncation bug on anything larger. [`ProcSet`]
//! is the replacement: a value-type bit set with an inline single-word fast
//! path (machines up to 64 nodes never allocate, so the slow-path
//! zero-allocation guarantee is preserved) that spills to a boxed word
//! array on larger machines. [`AtomicProcSet`] is the lock-free variant
//! used where processors concurrently set and clear membership (reference
//! masks, shootdown acknowledgment words).

use core::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::addr::ProcId;

/// Number of 64-bit words needed to hold ids `0..n`.
#[inline]
fn words_for(n: usize) -> usize {
    n.div_ceil(64).max(1)
}

/// A set of processor (equivalently, node) identifiers.
///
/// Ids below 64 live in an inline word; inserting any id ≥ 64 spills the
/// tail to a boxed slice. All binary operations accept operands of mixed
/// width (missing words read as zero), and equality ignores representation
/// — an inline set equals a spilled set with the same members.
#[derive(Default)]
pub struct ProcSet {
    /// Ids 0..=63.
    w0: u64,
    /// Ids 64.., one word per 64 ids; `None` until an id ≥ 64 is inserted.
    rest: Option<Box<[u64]>>,
}

impl ProcSet {
    /// The empty set.
    #[inline]
    pub const fn empty() -> Self {
        Self { w0: 0, rest: None }
    }

    /// The set containing only `p`.
    #[inline]
    pub fn single(p: ProcId) -> Self {
        let mut s = Self::empty();
        s.insert(p);
        s
    }

    /// The set of all ids `0..n`.
    pub fn full(n: usize) -> Self {
        let mut s = Self::empty();
        if n == 0 {
            return s;
        }
        let words = words_for(n);
        if words > 1 {
            s.grow(words);
        }
        for w in 0..words {
            let bits_here = (n - w * 64).min(64);
            let word = if bits_here == 64 {
                u64::MAX
            } else {
                (1u64 << bits_here) - 1
            };
            *s.word_mut(w) = word;
        }
        s
    }

    /// The set whose low 64 members are the set bits of `mask`.
    #[inline]
    pub fn from_mask(mask: u64) -> Self {
        Self {
            w0: mask,
            rest: None,
        }
    }

    /// Number of words this set stores.
    #[inline]
    fn words(&self) -> usize {
        1 + self.rest.as_ref().map_or(0, |r| r.len())
    }

    /// Word `i`, reading absent words as zero.
    #[inline]
    fn word(&self, i: usize) -> u64 {
        if i == 0 {
            self.w0
        } else {
            self.rest
                .as_ref()
                .and_then(|r| r.get(i - 1))
                .copied()
                .unwrap_or(0)
        }
    }

    #[inline]
    fn word_mut(&mut self, i: usize) -> &mut u64 {
        if i == 0 {
            &mut self.w0
        } else {
            &mut self.rest.as_mut().expect("word present")[i - 1]
        }
    }

    /// Grows the spilled tail to hold `words` total words.
    fn grow(&mut self, words: usize) {
        let have = self.words();
        if words <= have {
            return;
        }
        let mut new = vec![0u64; words - 1].into_boxed_slice();
        if let Some(old) = &self.rest {
            new[..old.len()].copy_from_slice(old);
        }
        self.rest = Some(new);
    }

    /// Adds `p` to the set.
    #[inline]
    pub fn insert(&mut self, p: ProcId) {
        if p < 64 {
            self.w0 |= 1u64 << p;
        } else {
            let w = p / 64;
            self.grow(w + 1);
            *self.word_mut(w) |= 1u64 << (p % 64);
        }
    }

    /// Removes `p` from the set.
    #[inline]
    pub fn remove(&mut self, p: ProcId) {
        let w = p / 64;
        if w < self.words() {
            *self.word_mut(w) &= !(1u64 << (p % 64));
        }
    }

    /// Whether `p` is a member.
    #[inline]
    pub fn contains(&self, p: ProcId) -> bool {
        self.word(p / 64) & (1u64 << (p % 64)) != 0
    }

    /// Whether the set has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.w0 == 0 && self.rest.as_ref().is_none_or(|r| r.iter().all(|&w| w == 0))
    }

    /// Number of members.
    #[inline]
    pub fn count(&self) -> usize {
        let tail: u32 = self
            .rest
            .as_ref()
            .map_or(0, |r| r.iter().map(|w| w.count_ones()).sum());
        (self.w0.count_ones() + tail) as usize
    }

    /// Empties the set in place, keeping any spilled capacity (so reused
    /// scratch sets stay allocation-free).
    #[inline]
    pub fn clear(&mut self) {
        self.w0 = 0;
        if let Some(r) = &mut self.rest {
            r.fill(0);
        }
    }

    /// Iterates the members in increasing order.
    #[inline]
    pub fn iter(&self) -> ProcSetIter<'_> {
        ProcSetIter {
            set: self,
            word_idx: 0,
            cur: self.w0,
        }
    }

    /// Applies `op` word-by-word against `other`, building a new set.
    fn zip_with(&self, other: &ProcSet, op: impl Fn(u64, u64) -> u64) -> ProcSet {
        let words = self.words().max(other.words());
        let mut out = ProcSet::empty();
        if words > 1 {
            out.grow(words);
        }
        for i in 0..words {
            *out.word_mut(i) = op(self.word(i), other.word(i));
        }
        out
    }

    /// The members present in both sets.
    pub fn intersect(&self, other: &ProcSet) -> ProcSet {
        self.zip_with(other, |a, b| a & b)
    }

    /// The members present in either set.
    pub fn union(&self, other: &ProcSet) -> ProcSet {
        self.zip_with(other, |a, b| a | b)
    }

    /// The members of `self` that are not in `other`.
    pub fn minus(&self, other: &ProcSet) -> ProcSet {
        self.zip_with(other, |a, b| a & !b)
    }

    /// A copy of the set with `p` removed.
    pub fn without(&self, p: ProcId) -> ProcSet {
        let mut s = self.clone();
        s.remove(p);
        s
    }

    /// Whether the two sets share any member.
    pub fn intersects(&self, other: &ProcSet) -> bool {
        let words = self.words().max(other.words());
        (0..words).any(|i| self.word(i) & other.word(i) != 0)
    }

    /// Adds every member of `other` to `self`.
    pub fn insert_all(&mut self, other: &ProcSet) {
        let words = other.words();
        if words > 1 {
            self.grow(words);
        }
        for i in 0..words {
            let w = other.word(i);
            if w != 0 {
                *self.word_mut(i) |= w;
            }
        }
    }
}

impl Clone for ProcSet {
    fn clone(&self) -> Self {
        Self {
            w0: self.w0,
            // Drop an all-zero tail instead of cloning it: keeps clones of
            // drained scratch sets allocation-free.
            rest: self
                .rest
                .as_ref()
                .filter(|r| r.iter().any(|&w| w != 0))
                .cloned(),
        }
    }
}

impl PartialEq for ProcSet {
    fn eq(&self, other: &Self) -> bool {
        let words = self.words().max(other.words());
        (0..words).all(|i| self.word(i) == other.word(i))
    }
}

impl Eq for ProcSet {}

impl fmt::Debug for ProcSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<ProcId> for ProcSet {
    fn from_iter<T: IntoIterator<Item = ProcId>>(iter: T) -> Self {
        let mut s = ProcSet::empty();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

/// Iterator over a [`ProcSet`]'s members.
pub struct ProcSetIter<'a> {
    set: &'a ProcSet,
    word_idx: usize,
    cur: u64,
}

impl Iterator for ProcSetIter<'_> {
    type Item = ProcId;

    #[inline]
    fn next(&mut self) -> Option<ProcId> {
        loop {
            if self.cur != 0 {
                let bit = self.cur.trailing_zeros() as usize;
                self.cur &= self.cur - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words() {
                return None;
            }
            self.cur = self.set.word(self.word_idx);
        }
    }
}

/// A lock-free set of processor ids with a fixed capacity, used where
/// several processors concurrently join and leave (Cmap reference masks)
/// or where shootdown targets clear their own bit while the initiator
/// polls ([`crate::ProcCore`]-driven acknowledgment words).
///
/// Membership updates use acquire-release ordering, matching the
/// reference-mask protocol the `u64` original implemented.
pub struct AtomicProcSet {
    w0: AtomicU64,
    /// Ids 64.., empty (not allocated) on machines of at most 64 nodes.
    rest: Box<[AtomicU64]>,
}

impl AtomicProcSet {
    /// An empty set able to hold ids `0..nprocs`.
    pub fn with_capacity(nprocs: usize) -> Self {
        let words = words_for(nprocs);
        Self {
            w0: AtomicU64::new(0),
            rest: (1..words).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// An atomic copy of `set`, sized to hold every member.
    pub fn from_set(set: &ProcSet) -> Self {
        let s = Self::with_capacity(set.words() * 64);
        for i in 0..set.words() {
            s.word(i).store(set.word(i), Ordering::Relaxed);
        }
        s
    }

    /// Highest id this set can hold, plus one.
    #[inline]
    pub fn capacity(&self) -> usize {
        (1 + self.rest.len()) * 64
    }

    #[inline]
    fn word(&self, i: usize) -> &AtomicU64 {
        if i == 0 {
            &self.w0
        } else {
            &self.rest[i - 1]
        }
    }

    /// Adds `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is beyond the set's capacity — the caller sized the
    /// set for the machine, so an out-of-range id is a kernel bug (this is
    /// the check the old `1u64 << p` masks silently lacked).
    #[inline]
    pub fn insert(&self, p: ProcId) {
        assert!(p < self.capacity(), "id {p} beyond set capacity");
        self.word(p / 64)
            .fetch_or(1u64 << (p % 64), Ordering::AcqRel);
    }

    /// Removes `p` (ids beyond capacity were never members; ignored).
    #[inline]
    pub fn remove(&self, p: ProcId) {
        if p < self.capacity() {
            self.word(p / 64)
                .fetch_and(!(1u64 << (p % 64)), Ordering::AcqRel);
        }
    }

    /// Whether `p` is currently a member.
    #[inline]
    pub fn contains(&self, p: ProcId) -> bool {
        p < self.capacity() && self.word(p / 64).load(Ordering::Acquire) & (1u64 << (p % 64)) != 0
    }

    /// Whether the set is currently empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.w0.load(Ordering::Acquire) == 0
            && self.rest.iter().all(|w| w.load(Ordering::Acquire) == 0)
    }

    /// Whether the current membership shares any id with `set`, without
    /// materializing a snapshot (poll loops spin on this).
    pub fn intersects(&self, set: &ProcSet) -> bool {
        if self.w0.load(Ordering::Acquire) & set.word(0) != 0 {
            return true;
        }
        self.rest
            .iter()
            .enumerate()
            .any(|(i, w)| w.load(Ordering::Acquire) & set.word(i + 1) != 0)
    }

    /// A value snapshot of the membership. Allocation-free on machines of
    /// at most 64 nodes (the snapshot stays inline).
    pub fn load(&self) -> ProcSet {
        let mut s = ProcSet {
            w0: self.w0.load(Ordering::Acquire),
            rest: None,
        };
        if !self.rest.is_empty() && self.rest.iter().any(|w| w.load(Ordering::Acquire) != 0) {
            s.grow(1 + self.rest.len());
            for (i, w) in self.rest.iter().enumerate() {
                *s.word_mut(i + 1) = w.load(Ordering::Acquire);
            }
        }
        s
    }

    /// Overwrites the membership with `set`, growing capacity if needed.
    /// Requires exclusive access (pooled-message reset).
    pub fn store_from(&mut self, set: &ProcSet) {
        let words = set.words();
        if words > 1 + self.rest.len() {
            self.rest = (1..words).map(|_| AtomicU64::new(0)).collect();
        }
        self.w0 = AtomicU64::new(set.word(0));
        for (i, w) in self.rest.iter_mut().enumerate() {
            *w = AtomicU64::new(set.word(i + 1));
        }
    }
}

impl fmt::Debug for AtomicProcSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Atomic{:?}", self.load())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_basics() {
        let mut s = ProcSet::empty();
        assert!(s.is_empty());
        s.insert(0);
        s.insert(5);
        s.insert(63);
        assert_eq!(s.count(), 3);
        assert!(s.contains(5) && !s.contains(6));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 5, 63]);
        s.remove(5);
        assert_eq!(s.count(), 2);
        assert_eq!(s, ProcSet::from_mask((1 << 0) | (1 << 63)));
    }

    #[test]
    fn spill_beyond_64() {
        let mut s = ProcSet::empty();
        s.insert(3);
        s.insert(64);
        s.insert(200);
        assert_eq!(s.count(), 3);
        assert!(s.contains(64) && s.contains(200) && !s.contains(128));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64, 200]);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 200]);
    }

    #[test]
    fn equality_ignores_representation() {
        let mut spilled = ProcSet::empty();
        spilled.insert(200);
        spilled.insert(7);
        spilled.remove(200); // tail now all-zero but still allocated
        assert_eq!(spilled, ProcSet::single(7));
        assert_eq!(ProcSet::single(7), spilled);
        // A clone of the zero-tailed set drops the tail (and stays equal).
        assert_eq!(spilled.clone(), ProcSet::single(7));
    }

    #[test]
    fn full_and_ops() {
        let f = ProcSet::full(130);
        assert_eq!(f.count(), 130);
        assert!(f.contains(0) && f.contains(129) && !f.contains(130));
        assert_eq!(ProcSet::full(64), ProcSet::from_mask(u64::MAX));

        let a: ProcSet = [1usize, 70, 129].into_iter().collect();
        let b: ProcSet = [1usize, 129, 200].into_iter().collect();
        assert_eq!(a.intersect(&b).iter().collect::<Vec<_>>(), vec![1, 129]);
        assert_eq!(
            a.union(&b).iter().collect::<Vec<_>>(),
            vec![1, 70, 129, 200]
        );
        assert_eq!(a.minus(&b).iter().collect::<Vec<_>>(), vec![70]);
        assert!(a.intersects(&b));
        assert!(!a.minus(&b).intersects(&b));
        assert_eq!(a.without(70), [1usize, 129].into_iter().collect());
    }

    #[test]
    fn insert_all_and_clear_keep_capacity() {
        let mut s = ProcSet::empty();
        let big: ProcSet = [10usize, 100].into_iter().collect();
        s.insert_all(&big);
        assert_eq!(s, big);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.words(), 2, "clear keeps the spilled capacity");
        s.insert(100); // no realloc needed
        assert!(s.contains(100));
    }

    #[test]
    fn atomic_roundtrip_small_and_large() {
        let a = AtomicProcSet::with_capacity(4);
        assert_eq!(a.capacity(), 64, "one word minimum");
        a.insert(3);
        a.insert(63);
        assert!(a.contains(3));
        a.remove(3);
        assert_eq!(a.load(), ProcSet::single(63));

        let big = AtomicProcSet::with_capacity(256);
        big.insert(255);
        big.insert(64);
        big.insert(0);
        assert_eq!(big.load().iter().collect::<Vec<_>>(), vec![0, 64, 255]);
        big.remove(64);
        assert!(!big.contains(64));
        assert!(!big.is_empty());
    }

    #[test]
    #[should_panic(expected = "beyond set capacity")]
    fn atomic_insert_out_of_range_panics() {
        AtomicProcSet::with_capacity(64).insert(64);
    }

    #[test]
    fn atomic_store_from_grows() {
        let src: ProcSet = [1usize, 130].into_iter().collect();
        let mut a = AtomicProcSet::with_capacity(2);
        a.store_from(&src);
        assert_eq!(a.load(), src);
        assert!(a.capacity() >= 192);
    }

    #[test]
    fn debug_formats_as_member_list() {
        let s: ProcSet = [2usize, 65].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{2, 65}");
    }

    /// The translation fabric keeps replica directories as
    /// `AtomicProcSet`s sized to the machine; the 63/64/65 widths
    /// straddle the inline-word/spill boundary, where a width or
    /// capacity bug would silently truncate the top processor.
    #[test]
    fn replica_population_at_spill_boundary() {
        for nprocs in [63usize, 64, 65] {
            let holders = AtomicProcSet::with_capacity(nprocs);
            for p in 0..nprocs {
                // Contains-then-insert, as `PmapReplica::join` does.
                assert!(!holders.contains(p), "nprocs={nprocs} p={p}");
                holders.insert(p);
            }
            let set = holders.load();
            assert_eq!(set.count(), nprocs, "nprocs={nprocs}");
            assert_eq!(set, ProcSet::full(nprocs), "nprocs={nprocs}");
            holders.remove(nprocs - 1);
            assert_eq!(holders.load().count(), nprocs - 1, "nprocs={nprocs}");
        }
    }

    /// Concurrent insert/remove/load at each boundary width: every
    /// processor races to flip its own bit while a reader snapshots.
    /// Each bit lands in exactly one word, so the final set must hold
    /// precisely the ids whose last operation was an insert.
    #[test]
    fn atomic_cas_races_at_spill_boundary() {
        for nprocs in [63usize, 64, 65] {
            let holders = AtomicProcSet::with_capacity(nprocs);
            std::thread::scope(|s| {
                for p in 0..nprocs {
                    let holders = &holders;
                    s.spawn(move || {
                        for round in 0..200 {
                            holders.insert(p);
                            // Snapshots may be torn across words but
                            // must never invent a member.
                            let seen = holders.load();
                            for q in seen.iter() {
                                assert!(q < nprocs, "phantom member {q} (nprocs={nprocs})");
                            }
                            if (p + round) % 3 == 0 {
                                holders.remove(p);
                            }
                        }
                        holders.insert(p); // last word: everyone ends a member
                    });
                }
            });
            assert_eq!(holders.load(), ProcSet::full(nprocs), "nprocs={nprocs}");
        }
    }

    /// The shootdown-batch targeting round-trip the fabric performs on
    /// every mapping change: holders ∩ round targets, minus the
    /// initiator — exercised across the boundary so the intersection
    /// mixes inline and spilled operands.
    #[test]
    fn replica_targeting_roundtrip_at_spill_boundary() {
        for nprocs in [63usize, 64, 65] {
            let holders = AtomicProcSet::with_capacity(nprocs);
            // Even processors hold replicas.
            for p in (0..nprocs).step_by(2) {
                holders.insert(p);
            }
            // The shootdown round targets the top three processors.
            let targets: ProcSet = (nprocs - 3..nprocs).collect();
            let me = nprocs - 1;
            let staled = holders.load().intersect(&targets).without(me);
            let expect: Vec<usize> = (nprocs - 3..nprocs - 1).filter(|p| p % 2 == 0).collect();
            assert_eq!(staled.iter().collect::<Vec<_>>(), expect, "nprocs={nprocs}");
            // Escalation drops the staled holders; the survivors are the
            // even processors outside the round.
            for p in staled.iter() {
                holders.remove(p);
            }
            let left = holders.load();
            assert_eq!(
                left.count(),
                (0..nprocs).step_by(2).count() - expect.len(),
                "nprocs={nprocs}"
            );
            assert!(!left.intersects(&staled), "nprocs={nprocs}");
        }
    }
}
