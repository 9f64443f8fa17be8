//! The defrost daemon (§4.2 of the paper).
//!
//! "The Cpage module maintains a list of frozen Cpages and a clock
//! interrupt every t2 seconds activates the defrost daemon to invalidate
//! all mappings to the frozen pages. Subsequent access attempts will
//! cause faults that may replicate or migrate a recently thawed coherent
//! page."
//!
//! In the simulator the daemon runs on whichever processor first notices
//! that its virtual clock crossed the next activation time — the moral
//! equivalent of the clock interrupt dispatching the daemon to a
//! processor. Thawing does not count as a protocol invalidation, so a
//! thawed page is immediately eligible for replication again.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use numa_machine::{ProcSet, Va};
use platinum_trace::EventKind;

use crate::coherent::cmap::Directive;
use crate::coherent::cpage::{CpState, Cpage, CpageInner};
use crate::coherent::shootdown::ShootdownBatch;
use crate::costs;
use crate::error::{KernelError, Result};
use crate::ids::CpageId;
use crate::kernel::Kernel;
use crate::user::UserCtx;

/// Number of stripes over the frozen-page list. Freezes happen on the
/// fault path of every processor; striping by page id keeps concurrent
/// enrollments on a big machine off one lock.
const FROZEN_SHARDS: usize = 16;

/// The defrost daemon's state: the frozen-page list (striped by page id)
/// and the next activation time.
pub(crate) struct DefrostState {
    frozen: Box<[Mutex<Vec<CpageId>>]>,
    next_run: AtomicU64,
    t2_ns: u64,
}

impl DefrostState {
    /// Creates the daemon state with period `t2_ns`.
    pub(crate) fn new(t2_ns: u64) -> Self {
        let mut frozen = Vec::with_capacity(FROZEN_SHARDS);
        frozen.resize_with(FROZEN_SHARDS, || Mutex::new(Vec::new()));
        Self {
            frozen: frozen.into_boxed_slice(),
            next_run: AtomicU64::new(t2_ns),
            t2_ns,
        }
    }

    #[inline]
    fn shard(&self, id: CpageId) -> &Mutex<Vec<CpageId>> {
        &self.frozen[(id.0 as usize) % FROZEN_SHARDS]
    }

    /// Enrolls a freshly frozen page.
    pub(crate) fn enroll(&self, id: CpageId) {
        let mut list = self.shard(id).lock();
        if !list.contains(&id) {
            list.push(id);
        }
    }

    /// Claims a daemon activation if `now` has crossed the next run time.
    /// Returns whether the caller should run the daemon
    /// ([`Kernel::run_defrost`]); both kernel entries, a fault and the
    /// periodic tick, ask.
    pub(crate) fn claim(&self, now: u64) -> bool {
        let next = self.next_run.load(Ordering::Relaxed);
        if now < next {
            return false;
        }
        self.next_run
            .compare_exchange(next, now + self.t2_ns, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }

    /// Takes the current frozen list, leaving it empty. Stripe-major
    /// order; within a stripe, enrollment order.
    fn take(&self) -> Vec<CpageId> {
        let mut out = Vec::new();
        for s in self.frozen.iter() {
            out.append(&mut s.lock());
        }
        out
    }
}

impl Kernel {
    /// Unconditionally runs one defrost pass: thaws every enrolled page
    /// by invalidating all mappings to it.
    ///
    /// The pass is the flagship `ShootdownBatch` client: every frozen
    /// page's invalidation directives are posted up front (with per-page
    /// charges and records identical to thawing the pages one at a time)
    /// and all acknowledgments are awaited in a single combined round, so
    /// the daemon pays one IPI round-trip latency for the whole list
    /// instead of one per page.
    pub fn run_defrost(&self, ctx: &mut UserCtx) {
        ctx.core.charge(costs::DEFROST_RUN_NS);
        let list = self.defrost.take();
        let examined = list.len() as u64;
        let mut thawed = 0u64;
        // Thaw in enrollment order — the order a page-at-a-time daemon
        // charges — with every guard held until the flush, so no fault
        // sees a half-thawed batch.
        let pages: Vec<_> = list.iter().filter_map(|&id| self.cpages.get(id)).collect();
        let mut guards = self.lock_in_id_order(ctx, pages.iter().map(|p| &**p));
        let mut batch = ctx.take_batch();
        for (cpage, g) in pages.iter().zip(&mut guards) {
            if self.thaw_locked(ctx, &mut batch, cpage, g) {
                thawed += 1;
            }
        }
        self.batch_flush(ctx, &mut batch);
        ctx.put_batch(batch);
        drop(guards);
        ctx.record(EventKind::DefrostRun, 0, examined, thawed);
    }

    /// Thaws one coherent page: invalidates every translation so the next
    /// access faults and the policy can decide afresh. Returns whether
    /// the page was actually thawed (it may have been thawed by other
    /// means since enrollment). A batch of one.
    pub(crate) fn thaw_cpage(&self, ctx: &mut UserCtx, id: CpageId) -> bool {
        let Some(cpage) = self.cpages.get(id) else {
            return false;
        };
        let mut g = self.lock_cpage(ctx, &cpage);
        let mut batch = ctx.take_batch();
        let thawed = self.thaw_locked(ctx, &mut batch, &cpage, &mut g);
        self.batch_flush(ctx, &mut batch);
        ctx.put_batch(batch);
        thawed
    }

    /// Thaw body run under the page lock: posts the invalidation
    /// directives into `batch` (the caller flushes) and resets the
    /// directory to a single unfrozen read-only copy.
    fn thaw_locked(
        &self,
        ctx: &mut UserCtx,
        batch: &mut ShootdownBatch,
        cpage: &Cpage,
        g: &mut CpageInner,
    ) -> bool {
        if !g.frozen {
            // Thawed by other means (migration under the thaw-on-access
            // variant, explicit thaw) since enrollment.
            return false;
        }
        debug_assert_eq!(g.state, CpState::Modified, "frozen implies modified");
        // Invalidate all mappings, the initiator's included.
        let everyone = ProcSet::full(self.machine().nprocs());
        self.batch_post(ctx, batch, cpage.id(), g, Directive::Invalidate, &everyone);
        self.thaw(ctx, cpage.id(), g, 0);
        g.writer_mask.clear();
        g.remote_map_mask.clear();
        // One copy, no writable mappings: the page re-enters present1 and
        // the next fault consults the policy with the old invalidation
        // history (thawing itself is not an invalidation).
        g.state = CpState::Present1;
        debug_assert!(g.check_invariants().is_ok(), "{:?}", g.check_invariants());
        true
    }

    /// Freezes the page and enrolls it with the defrost daemon, unless it
    /// is frozen already or not modified (a frozen page is always in the
    /// modified state, §4.2). `code` says why in the `Freeze` event: 0, the
    /// policy saw write-sharing interference (`arg` is its age); 2, a
    /// shootdown escalated — a target exhausted its ack-retry budget, so
    /// the kernel stops moving the page and falls back to the paper's
    /// degraded mode until the daemon thaws it.
    pub(crate) fn freeze(
        &self,
        ctx: &UserCtx,
        page: CpageId,
        g: &mut CpageInner,
        code: u8,
        arg: u64,
    ) {
        if g.frozen || g.state != CpState::Modified {
            return;
        }
        g.frozen = true;
        g.freezes += 1;
        ctx.record(EventKind::Freeze, code, page.0, arg);
        self.defrost.enroll(page);
    }

    /// Clears the page's frozen mark, if set. `code` says who thawed it in
    /// the `Thaw` event: 0, the defrost daemon or an explicit thaw; 1, an
    /// access under the thaw-on-access variant.
    pub(crate) fn thaw(&self, ctx: &UserCtx, page: CpageId, g: &mut CpageInner, code: u8) {
        if g.frozen {
            g.frozen = false;
            g.thaws += 1;
            ctx.record(EventKind::Thaw, code, page.0, 0);
        }
    }

    /// Explicitly thaws the page backing `va` in `ctx`'s address space —
    /// the "simple mechanism for thawing pages" exposed to run-time
    /// support (§4.2).
    pub(crate) fn thaw_va(&self, ctx: &mut UserCtx, va: Va) -> Result<()> {
        let vpn = ctx.space().vpn_of(va);
        let entry = ctx.space().cmap().entry(vpn).ok_or(KernelError::Access(
            numa_machine::AccessErr::NoTranslation(va),
        ))?;
        self.thaw_cpage(ctx, entry.cpage);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_fires_once_per_period() {
        let d = DefrostState::new(1000);
        assert!(!d.claim(500), "before the period");
        assert!(d.claim(1000));
        assert!(!d.claim(1000), "second claim in the same period loses");
        assert!(d.claim(2500));
        assert!(!d.claim(2600));
    }

    #[test]
    fn enroll_deduplicates() {
        let d = DefrostState::new(1000);
        d.enroll(CpageId(3));
        d.enroll(CpageId(3));
        d.enroll(CpageId(4));
        assert_eq!(d.take().len(), 2);
        assert!(d.take().is_empty(), "a take empties the enrolment");
    }
}
