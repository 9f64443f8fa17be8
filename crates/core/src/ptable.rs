//! The translation fabric: NUMA-charged page-table walks and per-node
//! Pmap replicas.
//!
//! PLATINUM charges every *data* reference a NUMA cost, but the metadata
//! that resolves those references — the Pmap/Cmap translation structures
//! — has lived in neutral host memory, so an ATC miss was free of
//! locality effects. On a real big-memory NUMA machine the page-table
//! walk is itself a string of remote references against whichever node
//! homes the table, and replicating translation structures per node with
//! a cheap dedicated coherence protocol is the thesis of Mitosis
//! (EuroSys '20) and numaPTE. Like them, this module is part of the
//! kernel's memory-management layer: where tables live, what a walk
//! costs and who gets invalidated are decided here, in one place.
//!
//! * [`PtablePlacement`] — where translation structures live. The default,
//!   [`PtablePlacement::Centralized`], charges nothing and emits nothing,
//!   so a default-configured kernel stays bit-identical to the
//!   pre-translation-fabric kernel; walks are still *accounted* (into
//!   [`KernelStats`](crate::KernelStats)' walk slots, outside every
//!   equivalence-compared value) so even the baseline has a defined walk
//!   locality.
//! * [`PtableConfig`] — the placement, plus whether walks are accounted
//!   at all; the walk cost model itself is two constants, `WALK_REFS` and
//!   `POPULATE_REFS`.
//! * `PmapReplica` — the per-space replica directory: which nodes hold a
//!   local copy of the space's translation structures.
//! * The walk (`UserCtx::pt_walk`, on every true ATC miss), the replica
//!   populate (one body for both the first-walk and the on-fault
//!   placement) and the invalidation hook on the shootdown rounds.
//! * [`WalkSnapshot`] — the summed walk tallies (walk locality, fabric
//!   time), read through `Kernel::walk_snapshot`.
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
//! hook in this module is a single branch.

use std::fmt;

use numa_machine::{AccessKind, AtomicProcSet, PhysPage, ProcCore, ProcId, ProcSet, Vpn};
use platinum_trace::EventKind;

use crate::faults::{FaultPlan, FaultSite};
use crate::hostprof::HostPhase;
use crate::kernel::Kernel;
use crate::user::UserCtx;
use crate::vm::space::AddressSpace;

/// Where a space's translation structures live.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PtablePlacement {
    /// Today's model: tables in neutral host memory. Walks charge no
    /// virtual time and emit no events — bit-identical to the kernel
    /// before the translation fabric existed — but are still *accounted*
    /// against the space's home node so walk locality is defined
    /// (≈ 1/p: every miss would have walked the home node's table).
    #[default]
    Centralized = 0,
    /// Tables physically placed on the space's home node: every walk is
    /// charged real virtual time against that node. The honest
    /// "centralized" machine — what Centralized only accounts for.
    HomeNode = 1,
    /// Every node replicates the tables the first time it walks them
    /// (one-time populate charge against the home node), then walks
    /// locally. Maximum locality, maximum invalidation fan-out.
    ReplicatedAll = 2,
    /// Mitosis-style: a node earns its replica on its first *coherent
    /// fault* in the space — page-fault activity is the signal that the
    /// node works in this space. Non-holders keep walking the home node.
    ReplicatedOnFault = 3,
}

impl PtablePlacement {
    /// Every placement, in discriminant order.
    pub const ALL: [PtablePlacement; 4] = [
        PtablePlacement::Centralized,
        PtablePlacement::HomeNode,
        PtablePlacement::ReplicatedAll,
        PtablePlacement::ReplicatedOnFault,
    ];

    /// A short stable name used by reports and traces.
    pub fn name(self) -> &'static str {
        match self {
            PtablePlacement::Centralized => "centralized",
            PtablePlacement::HomeNode => "home_node",
            PtablePlacement::ReplicatedAll => "replicated_all",
            PtablePlacement::ReplicatedOnFault => "replicated_on_fault",
        }
    }

    /// Whether this placement maintains per-node replicas (and therefore
    /// needs the invalidation protocol).
    #[inline]
    pub(crate) fn replicates(self) -> bool {
        matches!(
            self,
            PtablePlacement::ReplicatedAll | PtablePlacement::ReplicatedOnFault
        )
    }
}

impl fmt::Display for PtablePlacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Memory references issued by one full page-table walk: a four-level
/// radix table, one reference per level.
pub(crate) const WALK_REFS: u32 = 4;

/// References against the home node's table when a node populates its
/// replica (copying the upper levels; leaf entries fill lazily on later
/// walks, so this is small).
pub(crate) const POPULATE_REFS: u32 = 16;

/// The translation-fabric configuration. Installed through
/// `KernelConfig::ptable` / `SimBuilder::ptable(...)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PtableConfig {
    /// Where translation structures live.
    pub placement: PtablePlacement,
    /// When `false`, even the `Centralized` accounting path is skipped —
    /// the kernel behaves exactly as before the translation fabric
    /// existed. Used by the bit-identity regression suite to prove the
    /// accounting perturbs nothing observable.
    pub accounting: bool,
}

impl Default for PtableConfig {
    fn default() -> Self {
        Self {
            placement: PtablePlacement::Centralized,
            accounting: true,
        }
    }
}

impl PtableConfig {
    /// A configuration using `placement`, accounted.
    pub fn with_placement(placement: PtablePlacement) -> Self {
        Self {
            placement,
            ..Self::default()
        }
    }

    /// The pre-translation-fabric kernel: no charging, no accounting.
    pub fn off() -> Self {
        Self {
            accounting: false,
            ..Self::default()
        }
    }
}

/// The per-space replica directory: which nodes hold a local copy of the
/// space's translation structures. Every non-holder walks the space's
/// home node, which holds the authoritative table and never needs an
/// invalidation.
///
/// Membership is monotone under the join paths (a node only inserts its
/// own bit) and shrinks only when the invalidation protocol escalates — a
/// holder whose invalidations keep getting dropped is removed and must
/// re-earn its replica, the same degraded-mode shape as a frozen page.
pub(crate) struct PmapReplica {
    holders: AtomicProcSet,
}

impl PmapReplica {
    /// An empty directory sized for a machine of `nprocs` processors.
    pub(crate) fn new(nprocs: usize) -> Self {
        Self {
            holders: AtomicProcSet::with_capacity(nprocs),
        }
    }

    /// Whether `p` currently walks a local replica.
    #[inline]
    pub(crate) fn is_holder(&self, p: ProcId) -> bool {
        self.holders.contains(p)
    }

    /// Adds `p` to the holder set; returns `true` when `p` was not
    /// already a holder (the caller charges the populate cost exactly
    /// once). Only `p` itself ever inserts `p`, so the
    /// check-then-insert is race-free against other joins.
    pub(crate) fn join(&self, p: ProcId) -> bool {
        if self.holders.contains(p) {
            return false;
        }
        self.holders.insert(p);
        true
    }

    /// Drops `p`'s replica (invalidation-escalation path): `p` reverts to
    /// walking the home node until it rejoins.
    pub(crate) fn drop_holder(&self, p: ProcId) {
        self.holders.remove(p);
    }

    /// A snapshot of the current holder set.
    pub(crate) fn holders(&self) -> ProcSet {
        self.holders.load()
    }
}

/// Aggregated translation-fabric tallies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalkSnapshot {
    /// Simulated page-table walks.
    pub walks: u64,
    /// Virtual time of all walks (charged or accounted, by placement).
    pub walk_ns: u64,
    /// The share of `walk_ns` spent against the walker's own node.
    pub local_walk_ns: u64,
    /// Replica populates.
    pub populates: u64,
    /// Virtual time of replica populates.
    pub populate_ns: u64,
    /// Replica invalidations issued (initiator-side).
    pub invals: u64,
    /// Virtual time of replica invalidations.
    pub inval_ns: u64,
}

impl WalkSnapshot {
    /// Fraction of walk time spent on the walker's own node (1.0 when no
    /// walks happened — an empty fabric is perfectly local).
    pub fn walk_locality(&self) -> f64 {
        if self.walk_ns == 0 {
            1.0
        } else {
            self.local_walk_ns as f64 / self.walk_ns as f64
        }
    }

    /// Total protocol time of the fabric: walks plus replica maintenance.
    pub fn fabric_ns(&self) -> u64 {
        self.walk_ns + self.populate_ns + self.inval_ns
    }

    /// Field-wise difference (`self` later than `earlier`), saturating.
    pub fn delta(&self, earlier: &WalkSnapshot) -> WalkSnapshot {
        WalkSnapshot {
            walks: self.walks.saturating_sub(earlier.walks),
            walk_ns: self.walk_ns.saturating_sub(earlier.walk_ns),
            local_walk_ns: self.local_walk_ns.saturating_sub(earlier.local_walk_ns),
            populates: self.populates.saturating_sub(earlier.populates),
            populate_ns: self.populate_ns.saturating_sub(earlier.populate_ns),
            invals: self.invals.saturating_sub(earlier.invals),
            inval_ns: self.inval_ns.saturating_sub(earlier.inval_ns),
        }
    }
}

impl UserCtx {
    /// One simulated multi-level page-table walk on an ATC miss — the
    /// translation fabric's charge point. Exactly one walk happens per
    /// faulting access: the fault installs the ATC entry, so the retry
    /// iteration hits.
    ///
    /// Under the centralized placement the walk is *accounted* but not
    /// charged: pure arithmetic against the resolved latency to the
    /// space's home, tallied outside every equivalence-compared
    /// observable, which keeps the default bit-identical to a kernel
    /// without the subsystem. The charged placements move the clock
    /// through the contention-aware module path and record a `PtWalk`.
    #[cold]
    pub(crate) fn pt_walk(&mut self, vpn: Vpn) {
        let placement = self.ptable.placement;
        let span = self.kernel.hostprof.begin();
        let me = self.core.id();
        let home = self.space.home();
        let refs = u64::from(WALK_REFS);
        if placement == PtablePlacement::Centralized {
            let ns = refs * self.core.word_latency_to(home, AccessKind::Read);
            self.kernel.stats.record_walk(me, ns, home == me);
        } else {
            let target = match placement {
                PtablePlacement::Centralized | PtablePlacement::HomeNode => home,
                PtablePlacement::ReplicatedAll => {
                    // Every node earns a replica on its first walk.
                    self.populate_replica();
                    me
                }
                PtablePlacement::ReplicatedOnFault if self.space.replica().is_holder(me) => me,
                PtablePlacement::ReplicatedOnFault => home,
            };
            let t0 = self.core.vtime();
            self.core
                .charge_word_block(PhysPage::new(target, 0), AccessKind::Read, refs);
            let ns = self.core.vtime() - t0;
            self.kernel.stats.record_walk(me, ns, target == me);
            self.record(EventKind::PtWalk, placement as u8, vpn, ns);
        }
        self.kernel.hostprof.end(HostPhase::Walk, span);
    }

    /// Populates this node's translation replica for the current space
    /// under the replicate-on-fault placement — the Mitosis-style
    /// copy-on-fault moment: the fault handler is already paying a kernel
    /// entry, so the replica is built here rather than on the miss path.
    /// One branch under every other placement.
    #[inline]
    pub(crate) fn ptable_populate_on_fault(&mut self) {
        if self.ptable.accounting && self.ptable.placement == PtablePlacement::ReplicatedOnFault {
            self.populate_replica();
        }
    }

    /// The one replica populate: joins this node to the current space's
    /// holders and, the first time, charges [`POPULATE_REFS`] reads
    /// against the space's home node (the copy is read from the canonical
    /// tables there), tallies it and records one `PtPopulate` event.
    fn populate_replica(&mut self) {
        let me = self.core.id();
        if !self.space.replica().join(me) {
            return;
        }
        let t0 = self.core.vtime();
        self.core.charge_word_block(
            PhysPage::new(self.space.home(), 0),
            AccessKind::Read,
            u64::from(POPULATE_REFS),
        );
        let ns = self.core.vtime() - t0;
        self.kernel.stats.record_populate(me, ns);
        let space_id = u64::from(self.space.id().0);
        self.record(
            EventKind::PtPopulate,
            self.ptable.placement as u8,
            space_id,
            ns,
        );
    }
}

impl Kernel {
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
            self.stats.record_inval(me, core.vtime() - t0);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_centralized_and_free() {
        let cfg = PtableConfig::default();
        assert_eq!(cfg.placement, PtablePlacement::Centralized);
        assert!(!cfg.placement.replicates());
        assert!(cfg.accounting);
        assert_eq!(WALK_REFS, 4);
        assert!(!PtableConfig::off().accounting);
    }

    /// A node walks its own replica exactly while it is a holder
    /// (`pt_walk` targets `me` then, the home node otherwise).
    #[test]
    fn replica_join_and_targeting() {
        let r = PmapReplica::new(8);
        assert!(!r.is_holder(5), "a non-holder walks the home node");
        assert!(r.join(5), "first join populates");
        assert!(!r.join(5), "second join is a no-op");
        assert!(r.is_holder(5), "a holder walks locally");
        assert_eq!(r.holders(), ProcSet::single(5));
        r.drop_holder(5);
        assert!(!r.is_holder(5), "a dropped holder reverts to home");
        assert!(r.join(5), "a dropped holder can re-earn its replica");
    }

    #[test]
    fn replica_spills_past_64_processors() {
        let r = PmapReplica::new(65);
        assert!(r.join(64));
        assert!(r.is_holder(64));
        assert!(!r.is_holder(0), "processor 64 does not alias processor 0");
        assert_eq!(r.holders().iter().collect::<Vec<_>>(), vec![64]);
    }
}
