//! The kernel side of the translation fabric (`platinum-ptable`).
//!
//! The fabric itself — placements, per-space replica directories, walk
//! tallies — lives in the `platinum-ptable` crate; this module is where
//! the kernel drives it: populating a node's replica from the fault
//! path under the replicate-on-fault placement, and keeping replicas
//! coherent by piggybacking lightweight invalidations on the shootdown
//! rounds the protocol already performs.
//!
//! Replica coherence is *invalidate-only*: a mapping change never ships
//! translation data to holder nodes, it marks the affected entry stale
//! and each holder re-walks — and under replicate-on-fault,
//! re-populates — on its next miss. The invalidation rides the
//! initiator's existing shootdown round: the stale mark is one extra
//! word written into the `CmapMsg` the initiator is already posting at
//! the space's home, so its cost is one write per round, independent of
//! how many replicas exist — no extra interrupts, no acknowledgment
//! wait, no per-holder traffic. Under the centralized placement every
//! hook in this module is a single branch and the kernel is
//! bit-identical to one without the subsystem.

use platinum_faults::{FaultPlan, FaultSite};
use platinum_ptable::{PtableConfig, PtablePlacement, POPULATE_REFS};
use platinum_trace::EventKind;

use numa_machine::{AccessKind, PhysPage, ProcCore, ProcSet};

use crate::kernel::Kernel;
use crate::user::UserCtx;
use crate::vm::space::AddressSpace;

impl Kernel {
    /// Populates the faulting node's translation replica for the current
    /// space, if the replicate-on-fault placement is active and the node
    /// does not hold one yet — the Mitosis-style copy-on-fault moment:
    /// the fault handler is already paying a kernel entry, so the
    /// replica is built here rather than on the miss path.
    ///
    /// Charges [`POPULATE_REFS`] reads against the space's home node (the
    /// copy is read from the canonical tables there) and records one
    /// `PtPopulate` event.
    #[inline]
    pub(crate) fn ptable_populate_on_fault(&self, ctx: &mut UserCtx) {
        let cfg = ctx.ptable;
        if !cfg.accounting || cfg.placement != PtablePlacement::ReplicatedOnFault {
            return;
        }
        let me = ctx.core.id();
        if !ctx.space().replica().join(me) {
            return;
        }
        let home = ctx.space().replica().home();
        let space_id = u64::from(ctx.space().id().0);
        let t0 = ctx.core.vtime();
        ctx.core.charge_word_block(
            PhysPage::new(home, 0),
            AccessKind::Read,
            u64::from(POPULATE_REFS),
        );
        let ns = ctx.core.vtime() - t0;
        self.walk_stats.record_populate(me, ns);
        ctx.record(EventKind::PtPopulate, cfg.placement as u8, space_id, ns);
    }

    /// Marks the translation-replica entries staled by a mapping change,
    /// piggybacked on the shootdown round the initiator just posted: one
    /// extra word — the stale mark — written into the `CmapMsg` already
    /// sitting at the space's home. Targets observe it when they drain
    /// the message, exactly when they observe the mapping change itself,
    /// so the cost is one write per round regardless of replica count;
    /// no data moves and no acknowledgment is awaited.
    ///
    /// The round is skipped when no replica holder is among `targets` —
    /// the procs the shootdown addresses: a lazily-populated replica
    /// caches a page's entry only while that node's translation is live,
    /// and the procs whose translation survives to this round are
    /// exactly the shootdown targets. Holders outside the set lost
    /// their entry when their own mapping was shot down earlier, so
    /// there is nothing to stale.
    ///
    /// Takes the initiator's core and fabric configuration rather than its
    /// whole context, so `space` may be borrowed from that context.
    ///
    /// A fault plan may drop the stale mark in transit
    /// ([`FaultSite::PtableInval`]): the initiator waits out an ack
    /// timeout (exponential backoff) and rewrites it, and when the
    /// retry budget is exhausted it escalates by dropping the staled
    /// holders from the replica directory entirely — the degraded mode.
    /// Those holders then walk against the home node until they re-earn
    /// a replica, so the escalation is self-healing and timing-only.
    pub(crate) fn ptable_invalidate(
        &self,
        core: &mut ProcCore,
        cfg: PtableConfig,
        space: &AddressSpace,
        targets: &ProcSet,
    ) {
        if !cfg.accounting || !cfg.placement.replicates() {
            return;
        }
        let me = core.id();
        let holders = space.replica().holders().intersect(targets).without(me);
        if holders.is_empty() {
            return;
        }
        let plan = self.fault_plan();
        let space_id = u64::from(space.id().0);
        let stale = holders.iter().count() as u64;
        let begin = core.vtime();
        let mut attempt = 0u32;
        loop {
            if let Some(plan) = plan {
                if attempt >= FaultPlan::MAX_RETRIES {
                    // Retry budget exhausted: stop rewriting the mark
                    // and drop the staled replicas instead.
                    for h in holders.iter() {
                        space.replica().drop_holder(h);
                    }
                    self.record_on(
                        core,
                        EventKind::FaultRecovery,
                        FaultSite::PtableInval as u8,
                        space_id,
                        begin,
                    );
                    return;
                }
                if plan.should_inject(FaultSite::PtableInval, core.vtime(), space_id, attempt) {
                    // Lost in transit: the holders keep walking their
                    // stale replicas until the initiator times out and
                    // rewrites the mark.
                    self.record_on(
                        core,
                        EventKind::PtInvalDrop,
                        attempt.min(255) as u8,
                        space_id,
                        stale,
                    );
                    core.charge(FaultPlan::ack_timeout_ns(attempt + 1));
                    attempt += 1;
                    continue;
                }
            }
            // Delivered: the stale mark, one write into the message at
            // the space's home.
            let t0 = core.vtime();
            core.charge_kernel_ref(space.home(), AccessKind::Write);
            self.walk_stats.record_inval(me, core.vtime() - t0);
            self.record_on(core, EventKind::PtInval, 0, space_id, stale);
            if attempt > 0 {
                self.record_on(
                    core,
                    EventKind::FaultRecovery,
                    FaultSite::PtableInval as u8,
                    space_id,
                    begin,
                );
            }
            return;
        }
    }
}
