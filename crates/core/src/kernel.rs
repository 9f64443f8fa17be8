//! The kernel object: global names, configuration, and processor slots.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::{MutexGuard, RwLock};

use numa_machine::{Machine, ProcCore};
use platinum_trace::{EventKind, Tracer};

use crate::coherent::active::ActiveSpace;
use crate::coherent::cpage::{Cpage, CpageInner, CpageTable};
use crate::coherent::defrost::DefrostState;
use crate::coherent::policy::PolicyKind;
use crate::coherent::reclaim::ReclaimState;
use crate::error::{KernelError, Result};
use crate::faults::FaultPlan;
use crate::hostprof::HostProf;
use crate::ids::{AsId, ObjId, ThreadId};
use crate::port::Port;
use crate::ptable::{PtableConfig, WalkSnapshot};
use crate::stats::{KernelStats, MemoryReport};
use crate::user::UserCtx;
use crate::vm::object::MemoryObject;
use crate::vm::space::AddressSpace;

/// Which shootdown mechanism the kernel uses (§3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShootdownMode {
    /// PLATINUM's mechanism: per-processor Pmaps, Cmap message queues,
    /// and interrupts only for processors that actually hold a
    /// translation and have the space active.
    PerProcessorPmap,
    /// The Mach-style comparator: a shared Pmap per space forces the
    /// initiator to interrupt *every* processor with the space active and
    /// to stall them while it updates the shared table. Used by the §4
    /// micro-benchmark to reproduce the ~7 us vs ~55 us comparison.
    SharedPmapStall,
}

/// Kernel configuration.
#[derive(Clone, Debug)]
pub struct KernelConfig {
    /// Freeze window t1 (§4.2; the paper sets 10 ms and reports
    /// insensitivity from 10 ms up to about 100 ms): a miss on a page
    /// invalidated less than t1 ago freezes it under the PLATINUM
    /// policies.
    pub t1_freeze_ns: u64,
    /// Defrost daemon period t2 (§4.2; the paper sets 1 s).
    pub t2_defrost_ns: u64,
    /// Shootdown mechanism.
    pub shootdown: ShootdownMode,
    /// The placement policy the kernel runs.
    pub policy: PolicyKind,
    /// Deterministic fault-injection plan, if any. With `None` (the
    /// default) every injection hook is a single pointer test and the
    /// kernel behaves bit-identically to a build without the subsystem.
    pub faults: Option<Arc<FaultPlan>>,
    /// Translation-fabric configuration: how page-table walks are charged
    /// and where translation structures live. The default (centralized
    /// placement) charges nothing and emits nothing, so it is
    /// bit-identical to a kernel without the subsystem.
    pub ptable: PtableConfig,
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self {
            t1_freeze_ns: 10_000_000,
            t2_defrost_ns: 1_000_000_000,
            shootdown: ShootdownMode::PerProcessorPmap,
            policy: PolicyKind::Platinum,
            faults: None,
            ptable: PtableConfig::default(),
        }
    }
}

/// Per-processor kernel slot: thread occupancy and the set of address
/// spaces currently *active* on the processor.
///
/// Activity gates shootdown interrupts: "a processor need only be
/// interrupted to perform the change if the address space is currently
/// active. The remainder of the target processors will update their Pmaps
/// when they activate the address space" (§3.1).
pub(crate) struct ProcSlot {
    /// Whether a thread is bound to the processor (the simulator runs at
    /// most one thread per processor; see DESIGN.md).
    pub occupied: AtomicBool,
    /// The address space active on this processor, as a lock-free word.
    /// Its sequentially-consistent orderings carry the
    /// post-message-then-check-activity handshake that a mutex provided
    /// before; see [`ActiveSpace`] for the argument.
    pub active: ActiveSpace,
}

/// The PLATINUM kernel.
///
/// Names the globally-named abstractions (§1.1: memory objects, address
/// spaces, ports, threads) from one counter per kind, in creation order,
/// and owns the address-space registry, the coherent page table, the
/// replication policy, and the defrost daemon state. All activity runs on
/// user threads that enter the kernel through their [`UserCtx`].
pub struct Kernel {
    machine: Arc<Machine>,
    cfg: KernelConfig,
    pub(crate) cpages: CpageTable,
    /// By-name access to address spaces: a shootdown resolves a foreign
    /// binding through [`Kernel::space`].
    spaces: RwLock<Vec<Arc<AddressSpace>>>,
    next_object: AtomicU32,
    next_thread: AtomicU32,
    pub(crate) slots: Box<[ProcSlot]>,
    pub(crate) stats: KernelStats,
    pub(crate) defrost: DefrostState,
    pub(crate) reclaim: ReclaimState,
    pub(crate) hostprof: HostProf,
}

impl Kernel {
    /// Boots a kernel on `machine`. The one constructor: the policy, the
    /// shootdown mechanism, the fault plan and every other choice arrive
    /// in `cfg` (`KernelConfig::default()` is the paper's kernel).
    pub fn boot(machine: Arc<Machine>, cfg: KernelConfig) -> Arc<Self> {
        let slots = (0..machine.nprocs())
            .map(|_| ProcSlot {
                occupied: AtomicBool::new(false),
                active: ActiveSpace::new(),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let defrost = DefrostState::new(cfg.t2_defrost_ns);
        let reclaim = ReclaimState::new(machine.nprocs());
        let stats = KernelStats::new(machine.nprocs());
        Arc::new(Self {
            machine,
            cfg,
            cpages: CpageTable::new(),
            spaces: RwLock::new(Vec::new()),
            next_object: AtomicU32::new(0),
            next_thread: AtomicU32::new(0),
            slots,
            stats,
            defrost,
            reclaim,
            hostprof: HostProf::default(),
        })
    }

    /// The machine the kernel runs on.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// The kernel configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.cfg
    }

    /// The active placement policy.
    pub fn policy(&self) -> PolicyKind {
        self.cfg.policy
    }

    /// The installed fault-injection plan, if any. `None` on healthy
    /// runs, which keeps every injection hook down to one pointer test.
    #[inline]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.cfg.faults.as_deref()
    }

    /// Creates a memory object of `pages` pages. Its coherent pages are
    /// homed on the processor that first touches each one.
    pub fn create_object(&self, pages: usize) -> Arc<MemoryObject> {
        let id = ObjId(self.next_object.fetch_add(1, Ordering::Relaxed));
        Arc::new(MemoryObject::new(id, pages))
    }

    /// Creates an address space, homing its metadata round-robin.
    pub fn create_space(&self) -> Arc<AddressSpace> {
        let mut spaces = self.spaces.write();
        let id = AsId(spaces.len() as u32);
        let home = id.index() % self.machine.nprocs();
        let space = Arc::new(AddressSpace::new(
            id,
            home,
            self.machine.cfg().page_shift,
            self.machine.nprocs(),
        ));
        spaces.push(Arc::clone(&space));
        space
    }

    /// Looks up an address space by name.
    pub(crate) fn space(&self, id: AsId) -> Result<Arc<AddressSpace>> {
        self.spaces
            .read()
            .get(id.index())
            .cloned()
            .ok_or(KernelError::NoSuchSpace(id))
    }

    /// Creates a port.
    pub fn create_port(&self) -> Arc<Port> {
        Arc::new(Port::new())
    }

    /// Binds a new thread to processor `proc`, executing in `space`, and
    /// gives it the next global thread name. Returns the user context the
    /// thread drives.
    ///
    /// At most one thread may be bound to a processor at a time (the
    /// simulator does not multiplex threads on a processor; see
    /// DESIGN.md). Fails with [`KernelError::ProcessorBusy`] otherwise.
    pub fn attach(
        self: &Arc<Self>,
        space: Arc<AddressSpace>,
        proc: usize,
        start_vtime: u64,
    ) -> Result<UserCtx> {
        let slot = &self.slots[proc];
        if slot
            .occupied
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return Err(KernelError::ProcessorBusy(proc));
        }
        let core = ProcCore::new(Arc::clone(&self.machine), proc, start_vtime);
        let thread = ThreadId(self.next_thread.fetch_add(1, Ordering::Relaxed));
        Ok(UserCtx::new(Arc::clone(self), core, space, thread))
    }

    /// The coherent page backing `va` in `space`, if that page has ever
    /// been touched (instrumentation and tests).
    pub fn cpage_for_va(&self, space: &AddressSpace, va: numa_machine::Va) -> Option<Arc<Cpage>> {
        let entry = space.cmap().entry(space.vpn_of(va))?;
        self.cpages.get(entry.cpage)
    }

    /// Kernel-wide event counters.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// Host-time slow-path phase profiler (disabled until
    /// [`HostProf::enable`] is called).
    pub fn host_prof(&self) -> &HostProf {
        &self.hostprof
    }

    /// A snapshot of the translation fabric's walk/populate/invalidation
    /// tallies (virtual time, accounted per placement; see
    /// [`WalkSnapshot`] for the derived locality metrics).
    pub fn walk_snapshot(&self) -> WalkSnapshot {
        self.stats.walk_snapshot()
    }

    /// Installs a protocol-event tracer (delegates to the machine, which
    /// owns the registry so hardware-level events land on the same
    /// timeline). Returns `false` if a tracer was already installed.
    pub fn install_tracer(&self, tracer: Arc<Tracer>) -> bool {
        self.machine.install_tracer(tracer)
    }

    /// The installed tracer, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.machine.tracer()
    }

    /// Records one kernel event: bumps the [`KernelStats`] counter for
    /// `kind` and, when a tracer is installed, emits the event against
    /// `proc`'s virtual clock. Every protocol emit site goes through
    /// here, which is what guarantees that the counters and the trace
    /// agree event for event.
    ///
    /// Public for instrumented tiers above the kernel (the server workload
    /// driver's per-request records), which flow through the same choke
    /// point as the protocol's own events; `proc` must be the processor
    /// the calling thread drives. The kernel itself records through
    /// `Kernel::record_on` and `UserCtx::record`, which take the id
    /// from the core the caller holds.
    #[inline]
    pub fn record(&self, proc: usize, vtime: u64, kind: EventKind, code: u8, page: u64, arg: u64) {
        self.stats.record(proc, kind);
        if let Some(t) = self.machine.tracer() {
            t.emit(proc, vtime, kind, code, page, arg);
        }
    }

    /// Records an event on the processor that owns `core`, at its current
    /// clock. Holding the core is what makes the recorder its stripe's
    /// only writer ([`KernelStats::record`]).
    #[inline]
    pub(crate) fn record_on(
        &self,
        core: &ProcCore,
        kind: EventKind,
        code: u8,
        page: u64,
        arg: u64,
    ) {
        self.record(core.id(), core.vtime(), kind, code, page, arg);
    }

    /// Builds the post-mortem memory-management report (§4.2).
    pub fn report(&self) -> MemoryReport {
        MemoryReport::build(
            &self.cpages,
            &self.stats,
            self.machine.frames_materialized(),
        )
    }

    /// Locks a coherent page from the fault path: polls the caller's IPI
    /// doorbell while waiting (so two initiators can never deadlock) and
    /// accumulates the paper's per-page contention measure.
    pub(crate) fn lock_cpage<'a>(
        &self,
        ctx: &mut UserCtx,
        page: &'a Cpage,
    ) -> MutexGuard<'a, CpageInner> {
        // Fast path.
        if let Some(g) = page.try_lock() {
            return g;
        }
        let mut waited_ns = 0u64;
        let mut spins = 0u32;
        loop {
            ctx.service_ipis();
            std::hint::spin_loop();
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(8) {
                std::thread::yield_now();
            }
            // Model each retry as a brief kernel delay.
            waited_ns += 200;
            if let Some(mut g) = page.try_lock() {
                ctx.core.charge(waited_ns);
                g.lock_wait_ns += waited_ns;
                ctx.record(EventKind::LockWait, 0, page.id().0, waited_ns);
                return g;
            }
        }
    }

    /// Locks every page of a multi-page operation in page-id order — two
    /// concurrent multi-page initiators must not acquire in conflicting
    /// orders — and returns the guards in the order `pages` named them.
    pub(crate) fn lock_in_id_order<'a>(
        &self,
        ctx: &mut UserCtx,
        pages: impl Iterator<Item = &'a Cpage>,
    ) -> Vec<MutexGuard<'a, CpageInner>> {
        let pages: Vec<&Cpage> = pages.collect();
        let mut order: Vec<usize> = (0..pages.len()).collect();
        order.sort_unstable_by_key(|&i| pages[i].id());
        let mut guards: Vec<Option<MutexGuard<CpageInner>>> = Vec::new();
        guards.resize_with(pages.len(), || None);
        for i in order {
            guards[i] = Some(self.lock_cpage(ctx, pages[i]));
        }
        guards
            .into_iter()
            .map(|g| g.expect("locked above"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_machine::MachineConfig;

    fn kernel() -> Arc<Kernel> {
        let m = Machine::new(MachineConfig {
            nodes: 4,
            frames_per_node: 32,
            skew_window_ns: None,
            ..MachineConfig::default()
        })
        .unwrap();
        Kernel::boot(m, KernelConfig::default())
    }

    #[test]
    fn registries() {
        let k = kernel();
        let o = k.create_object(4);
        assert_eq!(o.id(), ObjId(0));
        let s = k.create_space();
        assert_eq!(s.id(), AsId(0));
        assert!(Arc::ptr_eq(&k.space(AsId(0)).unwrap(), &s));
        assert!(matches!(k.space(AsId(9)), Err(KernelError::NoSuchSpace(_))));
    }

    /// Each kind is named from its own counter, in creation order.
    #[test]
    fn objects_and_threads_are_named_in_order() {
        let k = kernel();
        let objs: Vec<_> = (0..7).map(|_| k.create_object(1)).collect();
        let ids: Vec<ObjId> = objs.iter().map(|o| o.id()).collect();
        assert_eq!(ids, (0..7).map(ObjId).collect::<Vec<_>>());

        // Threads count from zero on their own, whatever objects exist, one name per attach; a name outlives its
        // context and is never reused.
        let s = k.create_space();
        let a = k.attach(Arc::clone(&s), 0, 0).unwrap();
        let b = k.attach(Arc::clone(&s), 3, 0).unwrap();
        assert_eq!((a.thread_id(), b.thread_id()), (ThreadId(0), ThreadId(1)));
        drop(a);
        let c = k.attach(s, 0, 0).unwrap();
        assert_eq!(c.thread_id(), ThreadId(2));
    }

    /// An object has no home of its own: each coherent page's metadata is
    /// homed on the processor whose fault first touches it.
    #[test]
    fn object_pages_are_homed_on_their_first_toucher() {
        use numa_machine::Mem;
        let k = kernel();
        let s = k.create_space();
        let va = s
            .map_anywhere(k.create_object(2), crate::Rights::RW)
            .unwrap();
        let second = va + k.machine().cfg().page_bytes();
        let mut a = k.attach(Arc::clone(&s), 3, 0).unwrap();
        let mut b = k.attach(Arc::clone(&s), 1, 0).unwrap();
        a.read(va);
        b.read(second);
        b.read(va);
        assert_eq!(k.cpage_for_va(&s, va).unwrap().home(), 3);
        assert_eq!(k.cpage_for_va(&s, second).unwrap().home(), 1);
    }

    #[test]
    fn attach_excludes_double_binding() {
        let k = kernel();
        let s = k.create_space();
        let ctx = k.attach(Arc::clone(&s), 2, 0).unwrap();
        assert!(matches!(
            k.attach(Arc::clone(&s), 2, 0),
            Err(KernelError::ProcessorBusy(2))
        ));
        drop(ctx);
        // Dropping the context releases the processor.
        assert!(k.attach(s, 2, 0).is_ok());
    }

    #[test]
    fn default_config() {
        let k = kernel();
        assert_eq!(k.config().t1_freeze_ns, 10_000_000);
        assert_eq!(k.config().t2_defrost_ns, 1_000_000_000);
        assert_eq!(k.config().shootdown, ShootdownMode::PerProcessorPmap);
        assert_eq!(k.policy(), PolicyKind::Platinum);
    }
}
