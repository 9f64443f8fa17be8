//! `platinum-ptable`: the translation fabric — NUMA-charged page-table
//! walks and per-node translation replicas.
//!
//! PLATINUM charges every *data* reference a NUMA cost, but the metadata
//! that resolves those references — the Pmap/Cmap translation structures —
//! lives in neutral host memory, so an ATC miss has been free of locality
//! effects. On a real big-memory NUMA machine the page-table walk is
//! itself a string of remote references against whichever node homes the
//! table, and replicating translation structures per node with a cheap
//! dedicated coherence protocol is the thesis of Mitosis (EuroSys '20)
//! and numaPTE.
//!
//! This crate holds the machine-independent pieces of that model:
//!
//! * [`PtablePlacement`] — where translation structures live. The default,
//!   [`PtablePlacement::Centralized`], charges nothing and emits nothing,
//!   so a default-configured kernel stays bit-identical to the
//!   pre-translation-fabric kernel; walks are still *accounted* (into
//!   [`WalkStats`], outside all equivalence-compared state) so even the
//!   baseline has a defined walk locality.
//! * [`PtableConfig`] — the placement, plus whether walks are accounted at
//!   all; the walk cost model itself is two constants, [`WALK_REFS`] and
//!   [`POPULATE_REFS`].
//! * [`PmapReplica`] — the per-space replica directory: which nodes hold a
//!   local copy of the space's translation structures. Kept coherent by an
//!   invalidate-only protocol piggybacked on the kernel's shootdown
//!   rounds (the `platinum` crate is the client).
//! * [`WalkStats`] — per-processor walk/invalidation tallies with a
//!   [`WalkSnapshot`] summary (walk locality, fabric time).
//!
//! The virtual-time charging itself lives in the kernel's ATC-miss path:
//! this crate only decides *which node* a walk reads and *who* must be
//! invalidated.

#![warn(missing_docs)]

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};

use numa_machine::{AtomicProcSet, ProcId, ProcSet};

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

    /// Looks up a placement by its [`PtablePlacement::name`].
    pub fn by_name(name: &str) -> Option<PtablePlacement> {
        PtablePlacement::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Whether this placement charges walks real virtual time (everything
    /// except `Centralized`, which only accounts).
    #[inline]
    pub fn charges(self) -> bool {
        self != PtablePlacement::Centralized
    }

    /// Whether this placement maintains per-node replicas (and therefore
    /// needs the invalidation protocol).
    #[inline]
    pub fn replicates(self) -> bool {
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

impl FromStr for PtablePlacement {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PtablePlacement::by_name(s).ok_or_else(|| {
            format!(
                "unknown ptable placement {s:?} (expected one of: {})",
                PtablePlacement::ALL.map(|p| p.name()).join(", ")
            )
        })
    }
}

/// Memory references issued by one full page-table walk: a four-level
/// radix table, one reference per level.
pub const WALK_REFS: u32 = 4;

/// References against the home node's table when a node populates its
/// replica (copying the upper levels; leaf entries fill lazily on later
/// walks, so this is small).
pub const POPULATE_REFS: u32 = 16;

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
/// space's translation structures, plus the home node every non-holder
/// walks against.
///
/// Membership is monotone under the join paths (a node only inserts its
/// own bit) and shrinks only when the invalidation protocol escalates — a
/// holder whose invalidations keep getting dropped is removed and must
/// re-earn its replica, the same degraded-mode shape as a frozen page.
pub struct PmapReplica {
    home: usize,
    holders: AtomicProcSet,
}

impl PmapReplica {
    /// An empty directory for a space homed on `home`, sized for a
    /// machine of `nprocs` processors. The home node itself always holds
    /// the authoritative table and never needs an invalidation.
    pub fn new(home: usize, nprocs: usize) -> Self {
        Self {
            home,
            holders: AtomicProcSet::with_capacity(nprocs),
        }
    }

    /// The node homing the authoritative table.
    #[inline]
    pub fn home(&self) -> usize {
        self.home
    }

    /// Whether `p` currently walks a local replica.
    #[inline]
    pub fn is_holder(&self, p: ProcId) -> bool {
        self.holders.contains(p)
    }

    /// Adds `p` to the holder set; returns `true` when `p` was not
    /// already a holder (the caller charges the populate cost exactly
    /// once). Only `p` itself ever inserts `p`, so the
    /// check-then-insert is race-free against other joins.
    pub fn join(&self, p: ProcId) -> bool {
        if self.holders.contains(p) {
            return false;
        }
        self.holders.insert(p);
        true
    }

    /// Drops `p`'s replica (invalidation-escalation path): `p` reverts to
    /// walking the home node until it rejoins.
    pub fn drop_holder(&self, p: ProcId) {
        self.holders.remove(p);
    }

    /// A snapshot of the current holder set.
    pub fn holders(&self) -> ProcSet {
        self.holders.load()
    }

    /// The node `walker` reads on a walk: its own module when it holds a
    /// replica, the home node otherwise.
    #[inline]
    pub fn walk_target(&self, walker: ProcId) -> usize {
        if self.holders.contains(walker) {
            walker
        } else {
            self.home
        }
    }
}

impl fmt::Debug for PmapReplica {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PmapReplica")
            .field("home", &self.home)
            .field("holders", &self.holders)
            .finish()
    }
}

/// One processor's walk tallies, on cache lines of their own so recording
/// processors never false-share.
#[derive(Default)]
#[repr(align(128))]
struct WalkStripe {
    walks: AtomicU64,
    walk_ns: AtomicU64,
    local_walk_ns: AtomicU64,
    populates: AtomicU64,
    populate_ns: AtomicU64,
    invals: AtomicU64,
    inval_ns: AtomicU64,
}

/// `counter += by`, single-writer: a relaxed load and store, not a locked
/// read-modify-write (see [`WalkStats`]).
#[inline]
fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

/// Per-processor walk/invalidation tallies, outside every
/// equivalence-compared structure: the `Centralized` placement ticks
/// these (pure accounting) while staying bit-identical in virtual time,
/// counters, stats, and traces.
///
/// Counted the way the kernel's `KernelStats` counts: one stripe per
/// processor of the machine, every record call passes the calling
/// processor's own id, and a processor is driven by one thread at a
/// time, so each stripe has exactly one writer and a plain load + store
/// cannot lose an update.
pub struct WalkStats {
    stripes: Box<[WalkStripe]>,
}

impl WalkStats {
    /// Fresh all-zero tallies for a machine of `nprocs` processors.
    pub fn new(nprocs: usize) -> Self {
        Self {
            stripes: (0..nprocs).map(|_| WalkStripe::default()).collect(),
        }
    }

    /// Records one walk by `proc` costing `ns`, `local` when the walked
    /// table lived on `proc`'s own node.
    #[inline]
    pub fn record_walk(&self, proc: usize, ns: u64, local: bool) {
        let s = &self.stripes[proc];
        bump(&s.walks, 1);
        bump(&s.walk_ns, ns);
        if local {
            bump(&s.local_walk_ns, ns);
        }
    }

    /// Records one replica populate by `proc` costing `ns`.
    #[inline]
    pub fn record_populate(&self, proc: usize, ns: u64) {
        let s = &self.stripes[proc];
        bump(&s.populates, 1);
        bump(&s.populate_ns, ns);
    }

    /// Records one replica invalidation issued by `proc` costing `ns`
    /// (initiator-side: the protocol is invalidate-only, so this is the
    /// whole data-plane cost).
    #[inline]
    pub fn record_inval(&self, proc: usize, ns: u64) {
        let s = &self.stripes[proc];
        bump(&s.invals, 1);
        bump(&s.inval_ns, ns);
    }

    /// Sums the stripes.
    pub fn snapshot(&self) -> WalkSnapshot {
        let mut out = WalkSnapshot::default();
        for s in self.stripes.iter() {
            out.walks += s.walks.load(Ordering::Relaxed);
            out.walk_ns += s.walk_ns.load(Ordering::Relaxed);
            out.local_walk_ns += s.local_walk_ns.load(Ordering::Relaxed);
            out.populates += s.populates.load(Ordering::Relaxed);
            out.populate_ns += s.populate_ns.load(Ordering::Relaxed);
            out.invals += s.invals.load(Ordering::Relaxed);
            out.inval_ns += s.inval_ns.load(Ordering::Relaxed);
        }
        out
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_names_round_trip() {
        for p in PtablePlacement::ALL {
            assert_eq!(PtablePlacement::by_name(p.name()), Some(p));
            assert_eq!(p.name().parse::<PtablePlacement>().unwrap(), p);
        }
        assert!(PtablePlacement::by_name("torus").is_none());
        assert!("torus".parse::<PtablePlacement>().is_err());
    }

    #[test]
    fn default_is_centralized_and_free() {
        let cfg = PtableConfig::default();
        assert_eq!(cfg.placement, PtablePlacement::Centralized);
        assert!(!cfg.placement.charges());
        assert!(!cfg.placement.replicates());
        assert!(cfg.accounting);
        assert_eq!(WALK_REFS, 4);
        assert!(!PtableConfig::off().accounting);
    }

    #[test]
    fn replica_join_and_targeting() {
        let r = PmapReplica::new(2, 8);
        assert_eq!(r.home(), 2);
        assert_eq!(r.walk_target(5), 2, "non-holder walks the home node");
        assert!(r.join(5), "first join populates");
        assert!(!r.join(5), "second join is a no-op");
        assert_eq!(r.walk_target(5), 5, "holder walks locally");
        assert!(r.is_holder(5));
        assert_eq!(r.holders(), ProcSet::single(5));
        r.drop_holder(5);
        assert!(!r.is_holder(5));
        assert_eq!(r.walk_target(5), 2, "dropped holder reverts to home");
        assert!(r.join(5), "a dropped holder can re-earn its replica");
    }

    #[test]
    fn replica_spills_past_64_processors() {
        let r = PmapReplica::new(0, 65);
        assert!(r.join(64));
        assert!(r.is_holder(64));
        assert_eq!(r.walk_target(64), 64);
        assert_eq!(r.holders().iter().collect::<Vec<_>>(), vec![64]);
    }

    /// Processors 0 and 64 walking flat out, released together: each has
    /// a stripe of its own, so the single-writer adds lose nothing. (With
    /// 64 stripes indexed `proc & 63` the two would share one.)
    #[test]
    fn processors_64_apart_do_not_share_a_stripe() {
        const WALKS: u64 = 1_000_000;
        let w = WalkStats::new(65);
        let go = std::sync::Barrier::new(2);
        std::thread::scope(|t| {
            for proc in [0, 64] {
                let (w, go) = (&w, &go);
                t.spawn(move || {
                    go.wait();
                    for _ in 0..WALKS {
                        w.record_walk(proc, 3, proc == 0);
                    }
                });
            }
        });
        let s = w.snapshot();
        assert_eq!(s.walks, 2 * WALKS);
        assert_eq!(s.walk_ns, 6 * WALKS);
        assert_eq!(s.local_walk_ns, 3 * WALKS);
    }

    #[test]
    fn walk_stats_tally_and_locality() {
        let w = WalkStats::new(2);
        w.record_walk(0, 320, true);
        w.record_walk(1, 5_000, false);
        w.record_populate(1, 80_000);
        w.record_inval(0, 5_000);
        let s = w.snapshot();
        assert_eq!(s.walks, 2);
        assert_eq!(s.walk_ns, 5_320);
        assert_eq!(s.local_walk_ns, 320);
        assert_eq!(s.populates, 1);
        assert_eq!(s.invals, 1);
        assert_eq!(s.fabric_ns(), 5_320 + 80_000 + 5_000);
        let loc = s.walk_locality();
        assert!((loc - 320.0 / 5320.0).abs() < 1e-12);
        assert_eq!(WalkSnapshot::default().walk_locality(), 1.0);
        let d = s.delta(&s);
        assert_eq!(d, WalkSnapshot::default());
    }
}
