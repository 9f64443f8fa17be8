//! Lock-free slow-path synchronization flags.
//!
//! Two pieces of kernel state used to sit behind mutexes on the fault
//! slow path: the per-processor active-space set (taken twice per
//! suspend/resume and once per shootdown target) and the ordering between
//! a migration's block transfer and the targets' directory updates
//! (serialized by waiting for every acknowledgment before starting the
//! copy). Both are single-word facts, so both are replaced here with the
//! atomic flag-word idiom: one atomic per fact, `set_*`/`clear_*`
//! mutators returning the prior state, and a [`LoadedSignal`] snapshot
//! type for readers that must reason about one consistent observation.

use std::sync::atomic::{AtomicU64, Ordering};

/// A block transfer sourced from this page's directory copies is in
/// flight, overlapped with outstanding shootdown acknowledgments.
const TRANSFER: u64 = 1 << 0;

/// The page's directory (its `CpageInner`) is mid-update by a fault
/// handler that has already posted shootdown directives.
const UPDATE_EPOCH: u64 = 1 << 1;

/// Per-Cpage slow-path flags.
///
/// The flags let a migration start its block transfer *before* waiting
/// for shootdown acknowledgments (safe exactly when no awaited target
/// holds a writable translation — readers cannot tear the source frame),
/// so the transfer engine runs while remote processors update their
/// Pmaps, instead of after. Frame reclamation asserts against the
/// snapshot: a frame must never return to the free pool while a transfer
/// that might read it is marked in flight.
#[derive(Debug, Default)]
pub struct AtomicSignal {
    flags: AtomicU64,
}

/// One consistent observation of an [`AtomicSignal`].
#[derive(Clone, Copy, Debug)]
pub struct LoadedSignal {
    flags: u64,
}

impl AtomicSignal {
    /// A signal with no flags raised.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshots the flags.
    #[inline(always)]
    pub fn load(&self) -> LoadedSignal {
        LoadedSignal {
            flags: self.flags.load(Ordering::Acquire),
        }
    }

    /// Raises the transfer-in-flight flag; returns whether it was set.
    #[inline(always)]
    pub fn set_transfer(&self) -> bool {
        let prev = self.flags.fetch_or(TRANSFER, Ordering::AcqRel);
        (prev & TRANSFER) != 0
    }

    /// Clears the transfer-in-flight flag; returns whether it was set.
    #[inline(always)]
    pub fn clear_transfer(&self) -> bool {
        let prev = self.flags.fetch_and(!TRANSFER, Ordering::AcqRel);
        (prev & TRANSFER) != 0
    }

    /// Raises the directory-update epoch flag; returns whether it was set.
    #[inline(always)]
    pub fn set_epoch(&self) -> bool {
        let prev = self.flags.fetch_or(UPDATE_EPOCH, Ordering::AcqRel);
        (prev & UPDATE_EPOCH) != 0
    }

    /// Clears the directory-update epoch flag; returns whether it was set.
    #[inline(always)]
    pub fn clear_epoch(&self) -> bool {
        let prev = self.flags.fetch_and(!UPDATE_EPOCH, Ordering::AcqRel);
        (prev & UPDATE_EPOCH) != 0
    }
}

impl LoadedSignal {
    /// Whether any flag is raised.
    #[inline(always)]
    pub fn has_action(&self) -> bool {
        self.flags != 0
    }

    /// Whether a block transfer is in flight.
    #[inline(always)]
    pub fn transfer(&self) -> bool {
        (self.flags & TRANSFER) != 0
    }

    /// Whether the directory is mid-update.
    #[inline(always)]
    pub fn epoch(&self) -> bool {
        (self.flags & UPDATE_EPOCH) != 0
    }
}

/// The lock-free per-processor active-space word.
///
/// The simulator binds at most one thread — and therefore at most one
/// *current* address space — to a processor, so the "set of active
/// spaces" always has zero or one element. It is stored as `asid + 1` in
/// a single atomic word (0 = none active), replacing a mutex-protected
/// hash set that was locked twice per suspend/resume and once per
/// shootdown target.
///
/// Orderings carry the protocol's Dekker-style handshake (§3.1): a
/// target *activates, then drains* its message queue; an initiator
/// *posts, then checks* activity. Whichever side's queue-mutex critical
/// section runs second sees the other's effect, provided the activity
/// word itself is sequentially consistent — if the target's drain ran
/// before the post, the queue mutex orders the target's earlier
/// `set_active` before the initiator's `is_active` load, so the
/// initiator sees the target as active and interrupts it; otherwise the
/// drain runs after the post and finds the message in the queue. Either
/// way the directive is never missed. The argument names the queue mutex,
/// so a drain acquires it even when the queue turns out to be empty
/// (`Cmap::pending_for_into`): an unlocked emptiness test would take the
/// drain out of the ordering the argument rests on.
#[derive(Debug, Default)]
pub struct ActiveSpace {
    word: AtomicU64,
}

impl ActiveSpace {
    /// No space active.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `asid` as the processor's active space.
    #[inline]
    pub fn set_active(&self, asid: u32) {
        self.word.store(u64::from(asid) + 1, Ordering::SeqCst);
    }

    /// Deactivates `asid` if it is the processor's active space.
    /// Idempotent: a suspended thread's teardown deactivates again, and
    /// the second call must be a no-op (as removal from the old hash set
    /// was). Load-then-store suffices because only the processor's own
    /// thread writes its slot.
    #[inline]
    pub fn clear_active(&self, asid: u32) {
        if self.word.load(Ordering::SeqCst) == u64::from(asid) + 1 {
            self.word.store(0, Ordering::SeqCst);
        }
    }

    /// Whether `asid` is the processor's active space.
    #[inline]
    pub fn is_active(&self, asid: u32) -> bool {
        self.word.load(Ordering::SeqCst) == u64::from(asid) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_roundtrip() {
        let s = AtomicSignal::new();
        assert!(!s.load().has_action());
        assert!(!s.set_transfer(), "was clear");
        assert!(s.set_transfer(), "now set");
        assert!(s.load().transfer());
        assert!(!s.load().epoch());
        assert!(!s.set_epoch());
        assert!(s.load().epoch());
        assert!(s.clear_transfer());
        assert!(!s.load().transfer());
        assert!(s.load().epoch(), "clearing one flag leaves the other");
        assert!(s.clear_epoch());
        assert!(!s.load().has_action());
    }

    /// The mirror of the `clear_transfer` half above: each mutator masks
    /// its own flag only (the exemplar this follows had `clear_writer`
    /// clearing `NO_READER`).
    #[test]
    fn epoch_mutators_leave_transfer() {
        let s = AtomicSignal::new();
        s.set_transfer();
        assert!(!s.set_epoch());
        assert!(s.load().transfer(), "set_epoch leaves TRANSFER");
        assert!(s.clear_epoch());
        assert!(s.load().transfer(), "clear_epoch leaves TRANSFER");
        assert!(!s.load().epoch());
    }

    #[test]
    fn active_space_single_slot() {
        let a = ActiveSpace::new();
        assert!(!a.is_active(0));
        a.set_active(7);
        assert!(a.is_active(7));
        assert!(!a.is_active(0), "asid 0 distinct from none");
        a.clear_active(7);
        assert!(!a.is_active(7));
        a.set_active(0);
        assert!(a.is_active(0));
        a.clear_active(0);
    }
}
