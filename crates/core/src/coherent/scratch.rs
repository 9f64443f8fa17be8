//! Per-processor scratch pools for the fault slow path.
//!
//! The fault handler's steady state used to allocate on every trip: a
//! `Vec` of posted shootdown messages, an `Arc<CmapMsg>` per directive, a
//! `Vec` clone when draining the message queue, and a `Vec` of dying
//! frames during reclamation. None of those allocations carried state
//! across faults, so each [`UserCtx`] now owns one [`FaultScratch`] and
//! the slow path recycles its buffers instead — zero steady-state heap
//! traffic (pinned by the `alloc_free` regression test).
//!
//! Buffers are handed out with `mem::take` and restored afterwards, so a
//! re-entrant use (a fault nested inside a drain, say) degrades to a
//! plain allocation instead of corrupting the pool.
//!
//! [`UserCtx`]: crate::user::UserCtx

use std::sync::Arc;

use crate::coherent::cmap::{CmapMsg, Directive};
use crate::coherent::shootdown::ShootdownBatch;
use numa_machine::{PhysPage, ProcSet, Vpn};

/// Upper bound on pooled messages per processor. The steady state cycles
/// one entry: a drain takes its queue and drops every message it
/// acknowledged, so by the next post nothing but the pool holds the
/// previous one. The headroom covers multi-binding pages and batched
/// multi-page shootdowns without growing the pool forever.
const MSG_POOL_CAP: usize = 32;

/// One processor's reusable slow-path buffers.
#[derive(Default)]
pub(crate) struct FaultScratch {
    /// The in-flight shootdown batch (posted messages + accounting).
    pub(crate) batch: ShootdownBatch,
    /// Drain buffer for pending Cmap messages.
    pub(crate) drained: Vec<Arc<CmapMsg>>,
    /// Reclamation buffer for the frames a directory update frees.
    pub(crate) dying: Vec<PhysPage>,
    /// Recycled shootdown messages; see [`FaultScratch::alloc_msg`].
    msg_pool: Vec<Arc<CmapMsg>>,
}

impl FaultScratch {
    /// Produces a shootdown message, reusing a pooled one when possible.
    ///
    /// A pooled message is reusable exactly when this processor holds the
    /// only reference (`Arc::get_mut` succeeds): every target has drained
    /// and dropped its clone and no waiter still watches it, so the
    /// acknowledged message can be rewritten in place. Otherwise a fresh
    /// message is allocated and remembered for next time.
    pub(crate) fn alloc_msg(
        &mut self,
        vpn: Vpn,
        directive: Directive,
        targets: &ProcSet,
    ) -> Arc<CmapMsg> {
        for slot in &mut self.msg_pool {
            if let Some(msg) = Arc::get_mut(slot) {
                msg.reset(vpn, directive, targets);
                return Arc::clone(slot);
            }
        }
        let msg = CmapMsg::new(vpn, directive, targets);
        if self.msg_pool.len() < MSG_POOL_CAP {
            self.msg_pool.push(Arc::clone(&msg));
        }
        msg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_recycles_exclusive_messages() {
        let mut s = FaultScratch::default();
        let a = s.alloc_msg(1, Directive::Invalidate, &ProcSet::from_mask(0b10));
        let first = Arc::as_ptr(&a);
        // Still shared with the caller: a second request must not reuse it.
        let b = s.alloc_msg(2, Directive::RestrictToRead, &ProcSet::from_mask(0b100));
        assert_ne!(first, Arc::as_ptr(&b));
        drop(a);
        drop(b);
        // Both released: the next request rewrites a pooled message.
        let c = s.alloc_msg(3, Directive::Invalidate, &ProcSet::from_mask(0b1000));
        assert_eq!(first, Arc::as_ptr(&c));
        assert_eq!(c.vpn, 3);
        assert_eq!(c.pending(), ProcSet::from_mask(0b1000));
    }

    #[test]
    fn pool_is_bounded() {
        let mut s = FaultScratch::default();
        let held: Vec<_> = (0..2 * MSG_POOL_CAP as u64)
            .map(|i| s.alloc_msg(i, Directive::Invalidate, &ProcSet::single(0)))
            .collect();
        assert_eq!(s.msg_pool.len(), MSG_POOL_CAP);
        drop(held);
    }
}
