//! The per-processor active-space word (§3.1).
//!
//! "A processor need only be interrupted to perform the change if the
//! address space is currently active": which space a processor has
//! active is a single-word fact, read once per shootdown target and
//! written twice per suspend/resume, so it is one atomic rather than a
//! mutex-protected set.

use std::sync::atomic::{AtomicU64, Ordering};

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
pub(crate) struct ActiveSpace {
    word: AtomicU64,
}

impl ActiveSpace {
    /// No space active.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Marks `asid` as the processor's active space.
    #[inline]
    pub(crate) fn set_active(&self, asid: u32) {
        self.word.store(u64::from(asid) + 1, Ordering::SeqCst);
    }

    /// Deactivates `asid` if it is the processor's active space.
    /// Idempotent: a suspended thread's teardown deactivates again, and
    /// the second call must be a no-op (as removal from the old hash set
    /// was). Load-then-store suffices because only the processor's own
    /// thread writes its slot.
    #[inline]
    pub(crate) fn clear_active(&self, asid: u32) {
        if self.word.load(Ordering::SeqCst) == u64::from(asid) + 1 {
            self.word.store(0, Ordering::SeqCst);
        }
    }

    /// Whether `asid` is the processor's active space.
    #[inline]
    pub(crate) fn is_active(&self, asid: u32) -> bool {
        self.word.load(Ordering::SeqCst) == u64::from(asid) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
