//! Kernel instrumentation and the post-mortem memory-management report.
//!
//! "In addition to timing data, the kernel produces a detailed report on
//! the behavior of memory management. For each Cpage this includes the
//! number of coherent memory faults, a measure of contention in the Cpage
//! fault handler for that page, and whether the Cpage was frozen by the
//! replication policy" (§4.2). That report diagnosed the frozen
//! spin-lock-page bottleneck in the Gaussian elimination anecdote; the
//! `anecdote_freeze` bench reproduces that workflow with this module.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use platinum_trace::EventKind;

use crate::coherent::cpage::{CpState, CpageTable};
use crate::ids::CpageId;
use crate::ptable::WalkSnapshot;

/// One processor's stripe of the kernel's counters, padded to its own
/// cache lines so recording processors never false-share.
#[repr(align(128))]
struct StatsStripe {
    counters: [AtomicU64; EventKind::COUNT],
    /// The translation fabric's tallies, one slot per [`Tally`].
    walk: [AtomicU64; Tally::COUNT],
}

impl Default for StatsStripe {
    fn default() -> Self {
        Self {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            walk: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The translation fabric's tallies: a stripe slot each, summed into a
/// [`WalkSnapshot`] field of the same meaning.
#[derive(Clone, Copy)]
enum Tally {
    Walks,
    WalkNs,
    LocalWalkNs,
    Populates,
    PopulateNs,
    Invals,
    InvalNs,
}

impl Tally {
    const COUNT: usize = 7;
}

/// `counter += by` for a stripe's one writer (see [`KernelStats::record`]).
#[inline]
fn add(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

/// Machine-wide kernel event counters.
///
/// One counter per [`EventKind`], incremented by
/// [`Kernel::record`](crate::Kernel::record) — the same call that emits
/// the event to the tracer, so counters and traces can never disagree: a
/// count is exactly the number of events of that kind ever recorded.
///
/// Counters are striped per recording processor, one stripe for each
/// processor of the machine (any size `MachineConfig::validate` admits):
/// a record is one relaxed add on a processor-private cache line, and
/// reads sum the stripes. This keeps the hot fault path free of
/// cross-processor cache-line traffic.
///
/// The same stripes hold the translation fabric's walk, populate and
/// invalidation tallies, read only by
/// [`Kernel::walk_snapshot`](crate::Kernel::walk_snapshot): no
/// [`StatsSnapshot`] field and no event count moves with them, so the
/// centralized placement, which accounts its walks here without charging
/// or recording them, stays bit-identical to an unaccounted kernel.
pub struct KernelStats {
    stripes: Box<[StatsStripe]>,
}

impl KernelStats {
    /// Counters for a machine of `nprocs` processors.
    pub(crate) fn new(nprocs: usize) -> Self {
        Self {
            stripes: (0..nprocs).map(|_| StatsStripe::default()).collect(),
        }
    }

    /// Counts one event of `kind`, recorded by processor `proc`.
    ///
    /// Each stripe has exactly one writer: no two processors share a
    /// stripe, the kernel records only through the core the caller holds
    /// (`UserCtx::record`, `Kernel::record_on` — shootdown initiators
    /// record IPIs under their own id, not the target's), and a
    /// processor is driven by one thread at a time (`Kernel::attach`
    /// enforces exclusivity). A plain load+store
    /// therefore cannot lose updates, and it compiles to an ordinary add
    /// instead of a locked read-modify-write — this is the hottest
    /// instruction in the fault path's instrumentation.
    #[inline]
    pub(crate) fn record(&self, proc: usize, kind: EventKind) {
        add(&self.stripes[proc].counters[kind as usize], 1);
    }

    #[inline]
    fn tally(&self, proc: usize, slot: Tally, by: u64) {
        add(&self.stripes[proc].walk[slot as usize], by);
    }

    /// Tallies one page-table walk by `proc` costing `ns`, `local` when
    /// the walked table lived on `proc`'s own node.
    #[inline]
    pub(crate) fn record_walk(&self, proc: usize, ns: u64, local: bool) {
        self.tally(proc, Tally::Walks, 1);
        self.tally(proc, Tally::WalkNs, ns);
        if local {
            self.tally(proc, Tally::LocalWalkNs, ns);
        }
    }

    /// Tallies one translation-replica populate by `proc` costing `ns`.
    #[inline]
    pub(crate) fn record_populate(&self, proc: usize, ns: u64) {
        self.tally(proc, Tally::Populates, 1);
        self.tally(proc, Tally::PopulateNs, ns);
    }

    /// Tallies one replica invalidation issued by `proc` costing `ns`
    /// (initiator-side: the protocol is invalidate-only, so this is the
    /// whole data-plane cost).
    #[inline]
    pub(crate) fn record_inval(&self, proc: usize, ns: u64) {
        self.tally(proc, Tally::Invals, 1);
        self.tally(proc, Tally::InvalNs, ns);
    }

    /// The translation fabric's tallies, summed over the stripes.
    pub(crate) fn walk_snapshot(&self) -> WalkSnapshot {
        let sum = |slot: Tally| -> u64 {
            self.stripes
                .iter()
                .map(|s| s.walk[slot as usize].load(Ordering::Relaxed))
                .sum()
        };
        WalkSnapshot {
            walks: sum(Tally::Walks),
            walk_ns: sum(Tally::WalkNs),
            local_walk_ns: sum(Tally::LocalWalkNs),
            populates: sum(Tally::Populates),
            populate_ns: sum(Tally::PopulateNs),
            invals: sum(Tally::Invals),
            inval_ns: sum(Tally::InvalNs),
        }
    }

    /// The number of events of `kind` recorded so far (all processors).
    #[inline]
    pub fn count(&self, kind: EventKind) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.counters[kind as usize].load(Ordering::Relaxed))
            .sum()
    }

    /// A plain-value snapshot of the counters. The named fields select
    /// the protocol-level kinds; [`KernelStats::count`] reaches the rest.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            faults: self.count(EventKind::FaultBegin),
            vm_faults: self.count(EventKind::VmFault),
            replications: self.count(EventKind::Replicate),
            migrations: self.count(EventKind::Migrate),
            remote_maps: self.count(EventKind::RemoteMap),
            freezes: self.count(EventKind::Freeze),
            thaws: self.count(EventKind::Thaw),
            invalidations: self.count(EventKind::Invalidate),
            shootdowns: self.count(EventKind::ShootdownInit),
            ipis_sent: self.count(EventKind::Ipi),
            frames_freed: self.count(EventKind::FrameFree),
            defrost_runs: self.count(EventKind::DefrostRun),
            reclaims: self.count(EventKind::ReplicaEvict),
            mem_errors: self.count(EventKind::MemError),
            shootdown_timeouts: self.count(EventKind::ShootdownTimeout),
            transfer_faults: self.count(EventKind::TransferFault),
            alloc_faults: self.count(EventKind::AllocFault),
            fault_recoveries: self.count(EventKind::FaultRecovery),
            server_requests: self.count(EventKind::ServerRequest),
            pt_walks: self.count(EventKind::PtWalk),
            pt_populates: self.count(EventKind::PtPopulate),
            pt_invals: self.count(EventKind::PtInval),
            pt_inval_drops: self.count(EventKind::PtInvalDrop),
        }
    }
}

/// Plain-value snapshot of [`KernelStats`]; field meanings match the
/// counters there.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Coherent-memory page faults handled.
    pub faults: u64,
    /// Faults that fell through to the virtual-memory layer.
    pub vm_faults: u64,
    /// Page replications performed.
    pub replications: u64,
    /// Page migrations performed.
    pub migrations: u64,
    /// Remote mappings created instead of replication/migration.
    pub remote_maps: u64,
    /// Pages frozen by the replication policy.
    pub freezes: u64,
    /// Pages thawed.
    pub thaws: u64,
    /// Protocol invalidation events.
    pub invalidations: u64,
    /// Shootdown operations initiated.
    pub shootdowns: u64,
    /// Interprocessor interrupts sent.
    pub ipis_sent: u64,
    /// Physical frames freed.
    pub frames_freed: u64,
    /// Defrost daemon activations.
    pub defrost_runs: u64,
    /// Replica evictions under memory pressure.
    pub reclaims: u64,
    /// Injected transient memory-module errors observed on frame reads.
    pub mem_errors: u64,
    /// Shootdown ack timeouts (injected dropped acks noticed).
    pub shootdown_timeouts: u64,
    /// Injected block-transfer failures (whole-page retries).
    pub transfer_faults: u64,
    /// Injected allocation refusals (fallback to another module).
    pub alloc_faults: u64,
    /// Fault-injection episodes that completed recovery.
    pub fault_recoveries: u64,
    /// Requests completed by the server workload tier.
    pub server_requests: u64,
    /// Charged page-table walks performed by the translation fabric
    /// (zero under the centralized placement, which accounts walks
    /// without charging them).
    pub pt_walks: u64,
    /// Per-node translation-replica populations.
    pub pt_populates: u64,
    /// Translation-replica stale marks written into shootdown rounds
    /// (one per round that staled at least one replica).
    pub pt_invals: u64,
    /// Injected drops of translation-replica stale marks.
    pub pt_inval_drops: u64,
}

impl StatsSnapshot {
    /// The events recorded since `earlier` was taken: field-wise
    /// `self - earlier`. Benchmark phases snapshot before and after a
    /// measured region and report the delta.
    ///
    /// Saturates at zero, so a stale `earlier` from a different kernel
    /// cannot underflow.
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            faults: self.faults.saturating_sub(earlier.faults),
            vm_faults: self.vm_faults.saturating_sub(earlier.vm_faults),
            replications: self.replications.saturating_sub(earlier.replications),
            migrations: self.migrations.saturating_sub(earlier.migrations),
            remote_maps: self.remote_maps.saturating_sub(earlier.remote_maps),
            freezes: self.freezes.saturating_sub(earlier.freezes),
            thaws: self.thaws.saturating_sub(earlier.thaws),
            invalidations: self.invalidations.saturating_sub(earlier.invalidations),
            shootdowns: self.shootdowns.saturating_sub(earlier.shootdowns),
            ipis_sent: self.ipis_sent.saturating_sub(earlier.ipis_sent),
            frames_freed: self.frames_freed.saturating_sub(earlier.frames_freed),
            defrost_runs: self.defrost_runs.saturating_sub(earlier.defrost_runs),
            reclaims: self.reclaims.saturating_sub(earlier.reclaims),
            mem_errors: self.mem_errors.saturating_sub(earlier.mem_errors),
            shootdown_timeouts: self
                .shootdown_timeouts
                .saturating_sub(earlier.shootdown_timeouts),
            transfer_faults: self.transfer_faults.saturating_sub(earlier.transfer_faults),
            alloc_faults: self.alloc_faults.saturating_sub(earlier.alloc_faults),
            fault_recoveries: self
                .fault_recoveries
                .saturating_sub(earlier.fault_recoveries),
            server_requests: self.server_requests.saturating_sub(earlier.server_requests),
            pt_walks: self.pt_walks.saturating_sub(earlier.pt_walks),
            pt_populates: self.pt_populates.saturating_sub(earlier.pt_populates),
            pt_invals: self.pt_invals.saturating_sub(earlier.pt_invals),
            pt_inval_drops: self.pt_inval_drops.saturating_sub(earlier.pt_inval_drops),
        }
    }

    /// Total injected faults observed, across every injection site.
    pub fn injected_faults(&self) -> u64 {
        self.mem_errors
            + self.shootdown_timeouts
            + self.transfer_faults
            + self.alloc_faults
            + self.pt_inval_drops
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "kernel events:")?;
        writeln!(f, "  faults            {:>10}", self.faults)?;
        writeln!(f, "  vm faults         {:>10}", self.vm_faults)?;
        writeln!(f, "  replications      {:>10}", self.replications)?;
        writeln!(f, "  migrations        {:>10}", self.migrations)?;
        writeln!(f, "  remote maps       {:>10}", self.remote_maps)?;
        writeln!(f, "  freezes           {:>10}", self.freezes)?;
        writeln!(f, "  thaws             {:>10}", self.thaws)?;
        writeln!(f, "  invalidations     {:>10}", self.invalidations)?;
        writeln!(f, "  shootdowns        {:>10}", self.shootdowns)?;
        writeln!(f, "  IPIs sent         {:>10}", self.ipis_sent)?;
        writeln!(f, "  frames freed      {:>10}", self.frames_freed)?;
        writeln!(f, "  defrost runs      {:>10}", self.defrost_runs)?;
        writeln!(f, "  replica reclaims  {:>10}", self.reclaims)?;
        // Server-tier and fault-injection counters only clutter runs that
        // did not exercise them.
        if self.server_requests > 0 {
            writeln!(f, "  server requests   {:>10}", self.server_requests)?;
        }
        if self.pt_walks + self.pt_populates + self.pt_invals > 0 {
            writeln!(f, "  pt walks          {:>10}", self.pt_walks)?;
            writeln!(f, "  pt populates      {:>10}", self.pt_populates)?;
            writeln!(f, "  pt invalidations  {:>10}", self.pt_invals)?;
        }
        if self.injected_faults() + self.fault_recoveries > 0 {
            writeln!(f, "  mem errors        {:>10}", self.mem_errors)?;
            writeln!(f, "  ack timeouts      {:>10}", self.shootdown_timeouts)?;
            writeln!(f, "  transfer faults   {:>10}", self.transfer_faults)?;
            writeln!(f, "  alloc faults      {:>10}", self.alloc_faults)?;
            writeln!(f, "  pt inval drops    {:>10}", self.pt_inval_drops)?;
            writeln!(f, "  fault recoveries  {:>10}", self.fault_recoveries)?;
        }
        Ok(())
    }
}

/// Per-coherent-page line of the post-mortem report.
#[derive(Clone, Debug)]
pub struct CpageReport {
    /// The page.
    pub id: CpageId,
    /// Node homing its metadata.
    pub home: usize,
    /// Protocol state at report time.
    pub state: CpState,
    /// Physical copies at report time.
    pub copies: usize,
    /// Coherent-memory faults taken on this page.
    pub faults: u64,
    /// Whether the page is frozen right now.
    pub frozen_now: bool,
    /// Times the policy froze the page.
    pub freezes: u32,
    /// Times the page was thawed.
    pub thaws: u32,
    /// Replications of this page.
    pub replications: u32,
    /// Migrations of this page.
    pub migrations: u32,
    /// Contention measure: virtual ns spent waiting for this page's lock
    /// in the fault handler.
    pub lock_wait_ns: u64,
}

/// The post-mortem memory-management report.
pub struct MemoryReport {
    /// One line per coherent page ever created.
    pub pages: Vec<CpageReport>,
    /// Machine-wide event counters.
    pub totals: StatsSnapshot,
    /// Frames whose storage the machine has materialised so far: the
    /// run's host-memory footprint in pages, which follows the pages it
    /// touched and not `frames_per_node`.
    pub frames_materialized: usize,
}

impl MemoryReport {
    pub(crate) fn build(
        table: &CpageTable,
        stats: &KernelStats,
        frames_materialized: usize,
    ) -> Self {
        let pages = table
            .snapshot()
            .into_iter()
            .map(|p| {
                let g = p.lock();
                CpageReport {
                    id: p.id(),
                    home: p.home(),
                    state: g.state,
                    copies: g.copies.len(),
                    faults: g.faults,
                    frozen_now: g.frozen,
                    freezes: g.freezes,
                    thaws: g.thaws,
                    replications: g.replications,
                    migrations: g.migrations,
                    lock_wait_ns: g.lock_wait_ns,
                }
            })
            .collect();
        Self {
            pages,
            totals: stats.snapshot(),
            frames_materialized,
        }
    }

    /// The pages that were ever frozen — the report field that diagnosed
    /// the §4.2 anecdote.
    pub fn ever_frozen(&self) -> Vec<&CpageReport> {
        self.pages.iter().filter(|p| p.freezes > 0).collect()
    }
}

impl fmt::Display for MemoryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:>6} {:>5} {:>9} {:>7} {:>7} {:>7} {:>6} {:>6} {:>6} {:>12}",
            "cpage",
            "home",
            "state",
            "copies",
            "faults",
            "repl",
            "migr",
            "frz",
            "thaw",
            "lockwait_us"
        )?;
        for p in &self.pages {
            // Keep the report readable: skip untouched pages.
            if p.faults == 0 && p.copies == 0 {
                continue;
            }
            writeln!(
                f,
                "{:>6} {:>5} {:>9} {:>7} {:>7} {:>7} {:>6} {:>6} {:>6} {:>12.1}{}",
                format!("{:?}", p.id),
                p.home,
                format!("{:?}", p.state),
                p.copies,
                p.faults,
                p.replications,
                p.migrations,
                p.freezes,
                p.thaws,
                p.lock_wait_ns as f64 / 1000.0,
                if p.frozen_now { "  [FROZEN]" } else { "" },
            )?;
        }
        write!(f, "{}", self.totals)?;
        writeln!(f, "  frames materialised{:>9}", self.frames_materialized)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_records() {
        let s = KernelStats::new(64);
        s.record(0, EventKind::FaultBegin);
        s.record(1, EventKind::FaultBegin);
        for p in 0..5 {
            s.record(p, EventKind::Ipi);
        }
        let snap = s.snapshot();
        assert_eq!(snap.faults, 2, "counts sum across per-processor stripes");
        assert_eq!(snap.ipis_sent, 5);
        assert_eq!(snap.migrations, 0);
        // Kinds outside the named snapshot are still counted.
        s.record(63, EventKind::LockWait);
        assert_eq!(s.count(EventKind::LockWait), 1);
        let text = snap.to_string();
        assert!(text.contains("IPIs sent"));
    }

    /// Processors 0 and 64 recording flat out, released together: each
    /// has a stripe of its own, so the total is exact. (With 64 stripes
    /// indexed `proc & 63` the two raced on one plain load+store and
    /// about half the increments were lost.)
    #[test]
    fn processors_64_apart_do_not_share_a_stripe() {
        const EVENTS: u64 = 2_000_000;
        let s = KernelStats::new(65);
        let go = std::sync::Barrier::new(2);
        std::thread::scope(|t| {
            for proc in [0, 64] {
                let (s, go) = (&s, &go);
                t.spawn(move || {
                    go.wait();
                    for _ in 0..EVENTS {
                        s.record(proc, EventKind::FaultBegin);
                    }
                });
            }
        });
        assert_eq!(s.count(EventKind::FaultBegin), 2 * EVENTS);
    }

    /// Two processors' walk, populate and invalidation tallies sum in
    /// `walk_snapshot`, and none of them moves a `StatsSnapshot` field or
    /// an event count: the centralized placement's accounting is
    /// invisible to every equivalence-compared value.
    #[test]
    fn walk_stats_tally_and_locality() {
        let s = KernelStats::new(2);
        s.record_walk(0, 320, true);
        s.record_walk(1, 5_000, false);
        s.record_populate(1, 80_000);
        s.record_inval(0, 5_000);
        let w = s.walk_snapshot();
        assert_eq!(w.walks, 2);
        assert_eq!(w.walk_ns, 5_320);
        assert_eq!(w.local_walk_ns, 320);
        assert_eq!(w.populates, 1);
        assert_eq!(w.populate_ns, 80_000);
        assert_eq!(w.invals, 1);
        assert_eq!(w.inval_ns, 5_000);
        assert_eq!(w.fabric_ns(), 5_320 + 80_000 + 5_000);
        assert!((w.walk_locality() - 320.0 / 5320.0).abs() < 1e-12);
        assert_eq!(WalkSnapshot::default().walk_locality(), 1.0);
        assert_eq!(w.delta(&w), WalkSnapshot::default());
        assert_eq!(
            WalkSnapshot::default().delta(&w),
            WalkSnapshot::default(),
            "saturates"
        );
        assert_eq!(s.snapshot(), StatsSnapshot::default());
        assert!(EventKind::ALL.iter().all(|&k| s.count(k) == 0));
    }

    #[test]
    fn snapshot_delta() {
        let s = KernelStats::new(64);
        s.record(0, EventKind::Freeze);
        let before = s.snapshot();
        s.record(2, EventKind::Freeze);
        s.record(0, EventKind::Thaw);
        let after = s.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.freezes, 1);
        assert_eq!(d.thaws, 1);
        assert_eq!(d.faults, 0);
        assert_eq!(before.delta(&after), StatsSnapshot::default(), "saturates");
    }

    #[test]
    fn report_from_table() {
        let t = CpageTable::new();
        let p = t.alloc(2);
        {
            let mut g = p.lock();
            g.faults = 7;
            g.freezes = 1;
            g.lock_wait_ns = 5000;
        }
        let stats = KernelStats::new(64);
        let r = MemoryReport::build(&t, &stats, 3);
        assert_eq!(r.pages.len(), 1);
        assert_eq!(r.pages[0].faults, 7);
        assert_eq!(r.ever_frozen().len(), 1);
        assert!(r.to_string().contains("cp0"));
        assert!(r.to_string().contains("frames materialised        3\n"));
    }
}
