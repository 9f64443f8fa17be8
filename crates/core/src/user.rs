//! The user context: a thread's view of the coherent memory abstraction.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use numa_machine::skew::IDLE;
use numa_machine::{
    AccessErr, AccessKind, FastPath, Frame, Mem, Pacer, PhysPage, ProcCore, ProcSet, Va, Vpn,
};
use platinum_trace::EventKind;

use crate::coherent::cmap::Directive;
use crate::coherent::scratch::FaultScratch;
use crate::coherent::shootdown::ShootdownBatch;
use crate::costs;
use crate::error::{KernelError, Result};
use crate::ids::{AsId, ThreadId};
use crate::kernel::Kernel;
use crate::pmap::Pmap;
use crate::ptable::PtableConfig;
use crate::vm::space::AddressSpace;

/// A kernel thread's execution context on one processor.
///
/// `UserCtx` implements [`Mem`], so application code written against that
/// trait runs on PLATINUM coherent memory transparently: every access
/// translates through the processor's ATC and private Pmap, and missing
/// or restricted translations trap into the kernel's coherent fault
/// handler — the mechanism of §2.1. The context also carries the thread's
/// kernel entry points (ports, migration, explicit thaw).
///
/// Exactly one `UserCtx` exists per processor at a time; it is created by
/// [`Kernel::attach`] and driven either by an OS thread of its own or,
/// together with every other processor's, by a [`Lockstep`](crate::Lockstep)
/// executor on one thread.
pub struct UserCtx {
    pub(crate) kernel: Arc<Kernel>,
    pub(crate) core: ProcCore,
    /// The processor's side of the machine's skew window.
    pacer: Pacer,
    pub(crate) space: Arc<AddressSpace>,
    pub(crate) pmap: Pmap,
    page_shift: u32,
    /// Cached `space.asid()`, kept in sync by [`UserCtx::switch_space`];
    /// read on the access fast path.
    asid: u32,
    /// Cached copy of the kernel's translation-fabric configuration, so
    /// the ATC-miss path tests one local flag instead of chasing the
    /// kernel config.
    pub(crate) ptable: PtableConfig,
    /// The thread's global name; it survives migration.
    thread: ThreadId,
    /// Reusable slow-path buffers; see [`FaultScratch`].
    pub(crate) scratch: FaultScratch,
    /// The other processors' contexts (slot `p` = processor `p`) while
    /// this one runs a [`Lockstep`](crate::Lockstep) step; `None` outside
    /// one. The shootdown ack wait services awaited targets through here.
    pub(crate) peers: Option<Vec<Option<Box<UserCtx>>>>,
}

// A context moves to the host thread that drives it.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<UserCtx>();
};

impl UserCtx {
    pub(crate) fn new(
        kernel: Arc<Kernel>,
        core: ProcCore,
        space: Arc<AddressSpace>,
        thread: ThreadId,
    ) -> Self {
        let page_shift = kernel.machine().cfg().page_shift;
        let asid = space.asid();
        let ptable = kernel.config().ptable;
        let pacer = Pacer::new(core.id());
        let mut ctx = Self {
            kernel,
            core,
            pacer,
            space,
            pmap: Pmap::new(),
            page_shift,
            asid,
            ptable,
            thread,
            scratch: FaultScratch::default(),
            peers: None,
        };
        ctx.activate_space();
        ctx
    }

    /// The thread's global name (§1.1: threads are globally named).
    pub fn thread_id(&self) -> ThreadId {
        self.thread
    }

    /// The kernel this context belongs to.
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// The address space the thread executes in.
    pub fn space(&self) -> &Arc<AddressSpace> {
        &self.space
    }

    /// The processor's accumulated access counters.
    pub fn counters(&self) -> numa_machine::AccessCounters {
        self.core.counters()
    }

    /// Direct access to the processor core (harness/instrumentation use).
    pub fn core(&self) -> &ProcCore {
        &self.core
    }

    /// Records a kernel event on this context's processor at its current
    /// clock.
    #[inline]
    pub(crate) fn record(&self, kind: EventKind, code: u8, page: u64, arg: u64) {
        self.kernel.record_on(&self.core, kind, code, page, arg);
    }

    /// [`UserCtx::record`] with an explicit timestamp: events that close an
    /// interval or report a decision carry the time it was taken.
    #[inline]
    pub(crate) fn record_at(&self, vtime: u64, kind: EventKind, code: u8, page: u64, arg: u64) {
        self.kernel
            .record(self.core.id(), vtime, kind, code, page, arg);
    }

    // ----- Address-space activity (§3.1) ---------------------------------

    /// Marks the current space active on this processor and applies any
    /// mapping changes that arrived while it was inactive. "Each processor
    /// is responsible for making these changes before running any thread
    /// in that address space" (§2.3). The clock goes to the skew window.
    pub(crate) fn activate_space(&mut self) {
        let id = self.space.id();
        self.kernel.slots[self.core.id()].active.set_active(id.0);
        self.drain_messages();
        let skew = self.kernel.machine().skew();
        skew.post(self.core.id(), self.core.vtime());
    }

    /// Marks the current space inactive (the thread is blocking in the
    /// kernel or terminating) and acknowledges outstanding changes so no
    /// initiator waits on a blocked processor, which posts itself idle.
    pub(crate) fn deactivate_space(&mut self) {
        let id = self.space.id();
        self.kernel.slots[self.core.id()].active.clear_active(id.0);
        self.drain_messages();
        self.kernel.machine().skew().post(self.core.id(), IDLE);
    }

    /// Whether the current space is active on this processor (false
    /// while the thread is blocked in the kernel or suspended).
    pub(crate) fn is_active(&self) -> bool {
        let id = self.space.id();
        self.kernel.slots[self.core.id()].active.is_active(id.0)
    }

    /// Suspends the thread: the address space is deactivated and the
    /// processor marked idle, as when blocking in the kernel. While
    /// suspended the processor is never interrupted by shootdowns —
    /// pending mapping changes are applied on [`UserCtx::resume`]
    /// (§3.1's activity optimization).
    pub fn suspend(&mut self) {
        self.deactivate_space();
    }

    /// Resumes a [`UserCtx::suspend`]ed thread, applying any mapping
    /// changes that arrived while it was suspended.
    pub fn resume(&mut self) {
        self.activate_space();
    }

    /// Switches the thread to a different address space.
    pub fn switch_space(&mut self, space: Arc<AddressSpace>) {
        self.deactivate_space();
        self.space = space;
        self.asid = self.space.asid();
        self.activate_space();
    }

    /// Moves the thread to another processor (the explicit thread
    /// migration operation of §1.1). The kernel stack moves with the
    /// thread (§2.2), charged via the cost model.
    ///
    /// Fails with [`KernelError::ProcessorBusy`] if a thread is already
    /// bound there. The Pmap does *not* move: translations are a
    /// per-processor working set, so the thread faults its pages in at
    /// the new location.
    pub fn migrate(&mut self, new_proc: usize) -> Result<()> {
        if new_proc == self.core.id() {
            return Ok(());
        }
        let slot = &self.kernel.slots[new_proc];
        if slot
            .occupied
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return Err(KernelError::ProcessorBusy(new_proc));
        }
        self.deactivate_space();
        // Release the reference bits this processor holds so shootdowns
        // stop targeting it, and drop its private Pmap.
        for (vpn, entry) in self.space.cmap().snapshot() {
            if self.pmap.remove(self.space.id(), vpn).is_some() {
                entry.clear_ref(self.core.id());
            }
        }
        self.core.atc().flush_all();
        let old = self.core.id();
        let vtime = self.core.vtime() + costs::THREAD_MIGRATE_NS;
        self.core = ProcCore::new(Arc::clone(self.kernel.machine()), new_proc, vtime);
        self.pacer = Pacer::new(new_proc);
        self.kernel.slots[old]
            .occupied
            .store(false, Ordering::Release);
        self.activate_space();
        Ok(())
    }

    // ----- IPI / Cmap message handling (§2.3, §3.1) -----------------------

    /// The Cmap synchronization handler: applies pending mapping-change
    /// messages for the active space to this processor's Pmap and ATC,
    /// then acknowledges them.
    fn drain_messages(&mut self) {
        let me = self.core.id();
        // Take everything queued for this processor; each message is
        // applied and acknowledged below, then dropped.
        let mut msgs = std::mem::take(&mut self.scratch.drained);
        self.space.cmap().pending_for_into(me, &mut msgs);
        if msgs.is_empty() {
            self.scratch.drained = msgs;
            return;
        }
        let span = self.kernel.hostprof.begin();
        // One count per message applied: deterministic however a batched
        // initiator's posts group into doorbell services.
        self.core.counters_mut().ipis_handled += msgs.len() as u64;
        for m in &msgs {
            self.apply(m.vpn, &m.directive);
            self.core.charge(costs::APPLY_MSG_NS);
            m.ack(me);
            self.record(EventKind::ShootdownAck, m.directive.code(), m.vpn, 0);
        }
        msgs.clear();
        self.scratch.drained = msgs;
        self.kernel
            .hostprof
            .end(crate::hostprof::HostPhase::Directory, span);
    }

    /// Applies one directive to this processor's translation of `vpn` in
    /// the active space: Pmap, ATC and the Cmap entry's reference bit. The
    /// one body of a mapping change — a target runs it per drained
    /// message, a shootdown initiator on its own translations as it posts.
    pub(crate) fn apply(&mut self, vpn: Vpn, directive: &Directive) {
        let me = self.core.id();
        let space_id = self.space.id();
        match directive {
            Directive::Invalidate => {
                if self.pmap.remove(space_id, vpn).is_some() {
                    self.space.cmap().with_entry(vpn, |e| e.clear_ref(me));
                }
                self.core.atc().invalidate(self.asid, vpn);
            }
            Directive::InvalidateModules(modules) => {
                let points_into = self
                    .pmap
                    .lookup(space_id, vpn)
                    .map(|e| modules.contains(e.pp.module_id()))
                    .unwrap_or(false);
                if points_into {
                    self.pmap.remove(space_id, vpn);
                    self.space.cmap().with_entry(vpn, |e| e.clear_ref(me));
                    self.core.atc().invalidate(self.asid, vpn);
                }
            }
            Directive::RestrictToRead => {
                self.pmap.restrict_to_read(space_id, vpn);
                self.core.atc().restrict_to_read(self.asid, vpn);
            }
        }
    }

    /// Applies `directive` to every translation of a page this processor
    /// holds in its active space, `bindings` being the page's binding list.
    /// A binding in another space is left to that space's message queue.
    pub(crate) fn apply_own(&mut self, bindings: &[(AsId, Vpn)], directive: &Directive) {
        let space_id = self.space.id();
        for &(as_id, vpn) in bindings {
            if as_id == space_id {
                self.apply(vpn, directive);
            }
        }
    }

    /// Hands out the processor's shootdown batch for one operation.
    pub(crate) fn take_batch(&mut self) -> ShootdownBatch {
        std::mem::take(&mut self.scratch.batch)
    }

    /// Returns the (flushed) batch so its buffers are reused.
    pub(crate) fn put_batch(&mut self, batch: ShootdownBatch) {
        self.scratch.batch = batch;
    }

    /// Services the IPI doorbell — and nothing else: no access-counter
    /// tick, no throttling, no defrost opportunity. Callers that must
    /// stay responsive to shootdowns *without* perturbing the
    /// kernel-entry schedule (the lockstep executor draining an awaited
    /// target inline, replay's detach) call this instead of touching
    /// memory.
    #[inline(always)]
    pub fn service_ipis(&mut self) {
        if self.core.take_ipi() {
            self.drain_messages();
        }
    }

    /// The lockstep ack hook: when this context runs under a
    /// [`Lockstep`](crate::Lockstep) executor, services the doorbell of
    /// each `awaited` shootdown target in ascending processor order — the
    /// targets have no thread of their own to do it. A no-op otherwise.
    ///
    /// # Panics
    ///
    /// Panics if an awaited processor's context is not owned by the
    /// executor: it could never acknowledge, and the wait would spin
    /// forever.
    pub(crate) fn service_awaited_peers(&mut self, awaited: &ProcSet) {
        let Some(peers) = self.peers.as_mut() else {
            return;
        };
        for p in awaited.iter() {
            match peers.get_mut(p).and_then(Option::as_mut) {
                Some(target) => target.service_ipis(),
                None => panic!(
                    "lockstep: processor {p} is an awaited shootdown target but its \
                     context is attached outside the executor, so nothing services it"
                ),
            }
        }
    }

    /// Kernel entry bookkeeping performed on every access: service the
    /// IPI doorbell, keep the virtual clock posted, respect the skew
    /// window when free-running, and run the defrost daemon when its
    /// period elapses.
    #[inline]
    pub(crate) fn enter(&mut self) {
        self.service_ipis();
        if self.pacer.tick() {
            self.slow_tick();
        }
    }

    #[cold]
    fn slow_tick(&mut self) {
        // A lockstep step (peers held) is ordered by its executor; only a
        // free-running thread is held by the window.
        while self.peers.is_none()
            && self
                .pacer
                .should_throttle(self.kernel.machine().skew(), self.core.vtime())
        {
            self.service_ipis();
            std::hint::spin_loop();
            std::thread::yield_now();
        }
        // Claim first: the `Arc` round trip is paid only by the one
        // access per period that runs the daemon.
        if self.kernel.defrost.claim(self.core.vtime()) {
            let kernel = Arc::clone(&self.kernel);
            kernel.run_defrost(self);
        }
    }

    // ----- Translation and data access ------------------------------------

    #[inline]
    fn vpn_of(&self, va: Va) -> Vpn {
        va >> self.page_shift
    }

    #[inline]
    fn word_of(&self, va: Va) -> usize {
        ((va & ((1u64 << self.page_shift) - 1)) >> 2) as usize
    }

    /// Translates `va` for the given access, faulting into the kernel as
    /// needed. Returns the physical page.
    #[inline]
    fn translate(&mut self, va: Va, write: bool) -> Result<PhysPage> {
        if va & 3 != 0 {
            return Err(KernelError::Access(AccessErr::Misaligned(va)));
        }
        let vpn = self.vpn_of(va);
        loop {
            self.enter();
            let asid = self.space.asid();
            match self.core.atc().lookup(asid, vpn) {
                Some((pp, w)) => {
                    // A rights fault is not a miss: the hardware already
                    // holds the translation, so no walk happens.
                    if !write || w {
                        return Ok(pp);
                    }
                }
                None => {
                    // A true ATC miss: the hardware walks the page
                    // tables before the Pmap (software) lookup decides
                    // whether to trap.
                    if self.ptable.accounting {
                        self.pt_walk(vpn);
                    }
                    if let Some(e) = self.pmap.lookup(self.space.id(), vpn) {
                        if !write || e.writable {
                            self.core.atc_insert(asid, vpn, e.pp, e.writable);
                            return Ok(e.pp);
                        }
                    }
                }
            }
            let kernel = Arc::clone(&self.kernel);
            kernel.coherent_fault(self, va, write)?;
        }
    }

    /// Continues translation after a [`ProcCore::fast_path`] probe came
    /// back [`FastPath::Miss`] (`missed`) or [`FastPath::NoRights`]
    /// (`!missed`): picks up [`UserCtx::translate`]'s loop exactly where
    /// the probe left it, so the fast path and the reference path perform
    /// the same enter/probe/fault sequence access for access.
    #[cold]
    fn translate_after_probe(&mut self, va: Va, write: bool, missed: bool) -> Result<PhysPage> {
        if missed {
            let vpn = self.vpn_of(va);
            if self.ptable.accounting {
                self.pt_walk(vpn);
            }
            if let Some(e) = self.pmap.lookup(self.space.id(), vpn) {
                if !write || e.writable {
                    self.core.atc_insert(self.asid, vpn, e.pp, e.writable);
                    return Ok(e.pp);
                }
            }
        }
        let kernel = Arc::clone(&self.kernel);
        kernel.coherent_fault(self, va, write)?;
        self.translate(va, write)
    }

    #[inline]
    fn translate_or_panic(&mut self, va: Va, write: bool) -> PhysPage {
        match self.translate(va, write) {
            Ok(pp) => pp,
            Err(e) => Self::die(e),
        }
    }

    #[cold]
    fn die(e: KernelError) -> ! {
        panic!("unrecoverable memory access: {e}")
    }

    /// The single data-access path every word-granular operation goes
    /// through: probe the ATC fast path when enabled (charged probe, or
    /// the uncharged variant for spin reads), fall back into the
    /// reference translation loop on a miss or rights fault, then run
    /// `op` against the physical frame. The fast and slow routes perform
    /// the same enter()/probe/fault sequence access for access, so every
    /// virtual-time charge and counter is identical either way.
    #[inline]
    fn data_access<R>(
        &mut self,
        va: Va,
        write: bool,
        kind: AccessKind,
        charged: bool,
        op: impl FnOnce(&Frame, usize) -> R,
    ) -> Result<R> {
        let word = self.word_of(va);
        if self.core.fast_path_enabled() && va & 3 == 0 {
            self.enter();
            let vpn = self.vpn_of(va);
            let probe = if charged {
                self.core.fast_path(self.asid, vpn, write, kind)
            } else {
                self.core.fast_probe(self.asid, vpn, write)
            };
            let missed = match probe {
                FastPath::Hit(frame) => return Ok(op(frame, word)),
                FastPath::Miss => true,
                FastPath::NoRights => false,
            };
            let pp = self.translate_after_probe(va, write, missed)?;
            if charged {
                self.core.charge_word_access(pp, kind);
            }
            return Ok(op(self.kernel.machine().frame_data(pp), word));
        }
        let pp = self.translate(va, write)?;
        if charged {
            self.core.charge_word_access(pp, kind);
        }
        Ok(op(self.kernel.machine().frame_data(pp), word))
    }

    /// [`UserCtx::data_access`] for `n` consecutive words of one page,
    /// charged as a block ([`ProcCore::charge_word_block`]): the same
    /// enter/probe/fault sequence, with a hit charging from its ATC entry
    /// and taking the frame from it ([`ProcCore::fast_block`]).
    #[inline]
    fn block_access(
        &mut self,
        va: Va,
        write: bool,
        kind: AccessKind,
        n: usize,
        op: impl FnOnce(&Frame),
    ) {
        let pp = if self.core.fast_path_enabled() && va & 3 == 0 {
            self.enter();
            let vpn = self.vpn_of(va);
            let missed = match self.core.fast_block(self.asid, vpn, write, kind, n as u64) {
                FastPath::Hit(frame) => return op(frame),
                FastPath::Miss => true,
                FastPath::NoRights => false,
            };
            self.translate_after_probe(va, write, missed)
                .unwrap_or_else(|e| Self::die(e))
        } else {
            self.translate_or_panic(va, write)
        };
        self.core.charge_word_block(pp, kind, n as u64);
        op(self.kernel.machine().frame_data(pp));
    }

    /// Fallible read (kernel-style API; the [`Mem`] methods are one-line
    /// panicking wrappers, like a program dying on a bus error).
    #[inline]
    pub fn try_read(&mut self, va: Va) -> Result<u32> {
        self.data_access(va, false, AccessKind::Read, true, |f, w| f.load(w))
    }

    /// Fallible write.
    #[inline]
    pub fn try_write(&mut self, va: Va, val: u32) -> Result<()> {
        self.data_access(va, true, AccessKind::Write, true, |f, w| f.store(w, val))
    }

    /// Explicitly thaws the coherent page backing `va`, if frozen
    /// (§4.2: "all new mappings to a Cpage are to that single physical
    /// page" until the page "is explicitly thawed").
    pub fn thaw(&mut self, va: Va) -> Result<()> {
        let kernel = Arc::clone(&self.kernel);
        kernel.thaw_va(self, va)
    }
}

impl Mem for UserCtx {
    fn proc_id(&self) -> usize {
        self.core.id()
    }

    fn nprocs(&self) -> usize {
        self.kernel.machine().nprocs()
    }

    fn vtime(&self) -> u64 {
        self.core.vtime()
    }

    fn advance_to(&mut self, t: u64) {
        self.core.advance_to(t);
    }

    fn compute(&mut self, ns: u64) {
        self.core.charge_compute(ns);
    }

    #[inline]
    fn read(&mut self, va: Va) -> u32 {
        self.try_read(va).unwrap_or_else(|e| Self::die(e))
    }

    #[inline]
    fn write(&mut self, va: Va, val: u32) {
        self.try_write(va, val).unwrap_or_else(|e| Self::die(e))
    }

    #[inline]
    fn read_spin(&mut self, va: Va) -> u32 {
        // Uncharged: spin waiting is modelled analytically by the
        // synchronization primitives, but the access still exercises the
        // protocol (it faults, it can freeze pages).
        self.data_access(va, false, AccessKind::Read, false, |f, w| f.load(w))
            .unwrap_or_else(|e| Self::die(e))
    }

    #[inline]
    fn fetch_add(&mut self, va: Va, delta: u32) -> u32 {
        self.data_access(va, true, AccessKind::Atomic, true, |f, w| {
            f.fetch_add(w, delta)
        })
        .unwrap_or_else(|e| Self::die(e))
    }

    #[inline]
    fn compare_exchange(
        &mut self,
        va: Va,
        current: u32,
        new: u32,
    ) -> std::result::Result<u32, u32> {
        self.data_access(va, true, AccessKind::Atomic, true, |f, w| {
            f.compare_exchange(w, current, new)
        })
        .unwrap_or_else(|e| Self::die(e))
    }

    #[inline]
    fn swap(&mut self, va: Va, val: u32) -> u32 {
        self.data_access(va, true, AccessKind::Atomic, true, |f, w| f.swap(w, val))
            .unwrap_or_else(|e| Self::die(e))
    }

    fn poll(&mut self) {
        self.enter();
    }

    fn begin_wait(&mut self) {
        self.pacer.begin_wait(self.kernel.machine().skew());
    }

    fn end_wait(&mut self) {
        self.pacer
            .end_wait(self.kernel.machine().skew(), self.core.vtime());
    }

    fn trace_lock(&mut self, va: Va, acquire: bool) {
        let kind = if acquire {
            EventKind::LockAcquire
        } else {
            EventKind::LockRelease
        };
        self.record(kind, 0, va, 0);
    }

    fn read_block(&mut self, va: Va, dst: &mut [u32]) {
        // Translate once per page, then stream the words with batched
        // charging — a software copy loop with the per-page fault cost
        // paid once, like the real machine.
        let words_per_page = 1usize << (self.page_shift - 2);
        let mut done = 0usize;
        while done < dst.len() {
            let addr = va + 4 * done as u64;
            let word0 = self.word_of(addr);
            let n = (words_per_page - word0).min(dst.len() - done);
            let words = &mut dst[done..done + n];
            self.block_access(addr, false, AccessKind::Read, n, |f| {
                f.load_slice(word0, words)
            });
            done += n;
        }
    }

    fn write_block(&mut self, va: Va, src: &[u32]) {
        let words_per_page = 1usize << (self.page_shift - 2);
        let mut done = 0usize;
        while done < src.len() {
            let addr = va + 4 * done as u64;
            let word0 = self.word_of(addr);
            let n = (words_per_page - word0).min(src.len() - done);
            let words = &src[done..done + n];
            self.block_access(addr, true, AccessKind::Write, n, |f| {
                f.store_slice(word0, words)
            });
            done += n;
        }
    }
}

impl Drop for UserCtx {
    fn drop(&mut self) {
        self.deactivate_space();
        self.kernel.slots[self.core.id()]
            .occupied
            .store(false, Ordering::Release);
    }
}
