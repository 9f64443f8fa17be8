//! The coherent page fault handler (§3.3 of the paper).
//!
//! "Both the replication mechanism and the data coherency protocol are
//! implemented by the page fault handler." All transitions of Figure 4
//! are driven from here; the policy module only chooses between
//! replication/migration and remote mapping.

use std::sync::Arc;

use numa_machine::{AccessErr, AccessKind, PhysPage, ProcSet, Va};
use platinum_trace::{EventKind, FaultResolution};

use crate::coherent::cmap::{CmapEntry, Directive};
use crate::coherent::cpage::{CpState, Cpage, CpageInner};
use crate::coherent::policy::{FaultAction, FaultInfo};
use crate::costs;
use crate::error::{KernelError, Result};
use crate::faults::{FaultPlan, FaultSite};
use crate::hostprof::HostPhase;
use crate::kernel::Kernel;
use crate::user::UserCtx;

/// Nanoseconds from the page's last protocol invalidation to `now`;
/// `u64::MAX` when it was never invalidated. The `arg` of the
/// `PolicyDecision` and policy `Freeze` events.
fn invalidation_age(g: &CpageInner, now: u64) -> u64 {
    g.last_invalidation
        .map(|t| now.saturating_sub(t))
        .unwrap_or(u64::MAX)
}

/// Encodes a policy decision for the `PolicyDecision` event's code byte.
fn action_code(action: FaultAction) -> u8 {
    match action {
        FaultAction::Replicate => 0,
        FaultAction::RemoteMap { freeze: false } => 1,
        FaultAction::RemoteMap { freeze: true } => 2,
        FaultAction::Migrate => 3,
    }
}

impl Kernel {
    /// Handles a coherent-memory fault at `va` on `ctx`'s processor.
    ///
    /// On success the faulting processor's Pmap and ATC hold a
    /// translation sufficient for the access; the caller retries the
    /// access. Errors are unrecoverable (bus error / protection at the
    /// virtual-memory level / out of physical memory).
    pub(crate) fn coherent_fault(&self, ctx: &mut UserCtx, va: Va, write: bool) -> Result<()> {
        let span = self.hostprof.begin();
        let out = self.coherent_fault_inner(ctx, va, write);
        self.hostprof.end(HostPhase::Fault, span);
        out
    }

    fn coherent_fault_inner(&self, ctx: &mut UserCtx, va: Va, write: bool) -> Result<()> {
        let begin = ctx.core.vtime();
        ctx.core.charge(costs::FAULT_FIXED_NS);
        ctx.core.counters_mut().faults += 1;
        ctx.record_at(begin, EventKind::FaultBegin, u8::from(write), va, 0);
        // A fault is a kernel entry: give the defrost daemon its chance
        // to run (its clock interrupt, in the paper's terms) before any
        // page locks are taken.
        if self.defrost.claim(ctx.core.vtime()) {
            self.run_defrost(ctx);
        }
        // Under the replicate-on-fault placement, the kernel builds this
        // node's translation replica while it is already in the fault
        // handler (one branch otherwise).
        ctx.ptable_populate_on_fault();

        let vpn = ctx.space().vpn_of(va);
        // Cmap lookup, charged at the space's home node (§3.3: "the Cpage
        // fault handler searches the Cmap for an entry that maps the
        // faulting virtual address").
        let home = ctx.space().home();
        self.charge_refs(ctx, home, costs::CMAP_LOOKUP_REFS);
        let entry = match ctx.space().cmap().entry(vpn) {
            Some(e) => e,
            // "Otherwise, the fault is passed to the virtual memory fault
            // handler."
            None => self.vm_fault(ctx, va)?,
        };
        // Virtual-memory-level rights check.
        if write && !entry.rights.write {
            return Err(KernelError::Access(AccessErr::Protection(va)));
        }
        if !entry.rights.read {
            return Err(KernelError::Access(AccessErr::Protection(va)));
        }

        // The entry just fetched holds the page: no lookup by name.
        let cpage: &Cpage = &entry.page;
        let mut g = self.lock_cpage(ctx, cpage);
        g.faults += 1;
        self.charge_refs(ctx, cpage.home(), costs::CPAGE_TOUCH_REFS);

        let resolution = if g.state == CpState::Empty {
            let state = if write {
                CpState::Modified
            } else {
                CpState::Present1
            };
            self.first_touch(ctx, cpage, &mut g, &entry, vpn, state)?
        } else if write {
            self.write_fault(ctx, cpage, &mut g, &entry, vpn)?
        } else {
            self.read_fault(ctx, cpage, &mut g, &entry, vpn)?
        };
        drop(g);
        // The FaultEnd carries the begin time, so an exporter can render
        // the fault as an interval on the processor's track. Error paths
        // (protection, out of memory) leave the interval open: the
        // thread is dead, not resumed.
        ctx.record(EventKind::FaultEnd, resolution as u8, cpage.id().0, begin);
        Ok(())
    }

    /// The virtual-memory layer: resolves `va` to a region, creates the
    /// coherent page on first touch, and installs the Cmap entry.
    fn vm_fault(&self, ctx: &mut UserCtx, va: Va) -> Result<Arc<CmapEntry>> {
        ctx.core.charge(costs::VM_FAULT_NS);
        ctx.record(EventKind::VmFault, 0, va, 0);
        let space = ctx.space();
        let vpn = space.vpn_of(va);
        let region = space
            .region_for(vpn)
            .ok_or(KernelError::Access(AccessErr::BusError(va)))?;
        // First touch homes the page's metadata on the touching node.
        let page = region
            .object
            .cpage_for(region.object_page(vpn), &self.cpages, ctx.core.id());
        let cmap = space.cmap();
        let entry = cmap.insert(vpn, cmap.make_entry(Arc::clone(page), region.rights));
        // Record the binding so protocol shootdowns reach every address
        // space this page is mapped in (§3.1).
        let binding = (space.id(), vpn);
        let mut g = self.lock_cpage(ctx, &entry.page);
        if !g.bindings.contains(&binding) {
            g.bindings.push(binding);
        }
        drop(g);
        Ok(entry)
    }

    /// The page's first backing frame: allocate and zero-fill it where the
    /// policy homes first touches (locally for every policy in the paper;
    /// off-node for the remote-placement baseline), and map it — writable
    /// when the fault leaves the page in `state` modified.
    fn first_touch(
        &self,
        ctx: &mut UserCtx,
        cpage: &Cpage,
        g: &mut CpageInner,
        entry: &CmapEntry,
        vpn: u64,
        state: CpState,
    ) -> Result<FaultResolution> {
        let home = self
            .policy()
            .place_first_touch(ctx.core.id(), vpn, self.machine().nprocs());
        let pp = self.alloc_frame(ctx, home, cpage, &ProcSet::empty())?;
        self.zero_fill(ctx, pp);
        g.add_copy(pp);
        g.state = state;
        self.map_page(ctx, entry, vpn, pp, state == CpState::Modified, g);
        Ok(FaultResolution::FirstTouch)
    }

    /// Consults the placement policy about a miss with no usable local
    /// copy and records the decision: which action the policy chose and
    /// (in `arg`) the age of the interference history it consulted.
    fn consult(&self, ctx: &UserCtx, cpage: &Cpage, g: &CpageInner, write: bool) -> FaultAction {
        let info = FaultInfo {
            now: ctx.core.vtime(),
            last_invalidation: g.last_invalidation,
            frozen: g.frozen,
            migrations: g.migrations,
            state: g.state,
            write,
        };
        let action = self.policy().decide(&info, self.config().t1_freeze_ns);
        ctx.record_at(
            info.now,
            EventKind::PolicyDecision,
            action_code(action),
            cpage.id().0,
            invalidation_age(g, info.now),
        );
        action
    }

    // ------------------------------------------------------------------
    // Read faults
    // ------------------------------------------------------------------

    fn read_fault(
        &self,
        ctx: &mut UserCtx,
        cpage: &Cpage,
        g: &mut CpageInner,
        entry: &CmapEntry,
        vpn: u64,
    ) -> Result<FaultResolution> {
        let me = ctx.core.id();

        // A local physical copy may already exist (the page can be shared
        // by multiple address spaces); find it through the inverted page
        // table, which uses strictly local accesses (§3.3).
        let mut recover_begin: Option<u64> = None;
        if g.has_copy_on(me) {
            let pp = self.ipt_find(ctx, me, cpage)?;
            if !self.transient_read_error(ctx, cpage, g, pp, &mut recover_begin) {
                self.record_read_recovery(ctx, cpage, recover_begin);
                self.map_page(ctx, entry, vpn, pp, false, g);
                return Ok(FaultResolution::LocalHit);
            }
            // The local copy was discarded as corrupt: fall through to
            // the policy path, which recovers by re-replicating from a
            // valid directory copy.
        }

        let res = match self.consult(ctx, cpage, g, false) {
            FaultAction::Replicate => self.replicate_here(ctx, cpage, g, entry, vpn),
            FaultAction::Migrate => self.migrate_here(ctx, cpage, g, entry, vpn, false),
            FaultAction::RemoteMap { freeze } => {
                let pp = g.copies[0];
                if freeze {
                    let age = invalidation_age(g, ctx.core.vtime());
                    self.freeze(ctx, cpage.id(), g, 0, age);
                }
                g.remote_map_mask.insert(me);
                ctx.record(EventKind::RemoteMap, 0, cpage.id().0, pp.module_id() as u64);
                self.map_page(ctx, entry, vpn, pp, false, g);
                Ok(FaultResolution::RemoteMapped)
            }
        };
        self.record_read_recovery(ctx, cpage, recover_begin);
        res
    }

    /// Closes a transient-read-error episode: records the recovery span
    /// once the fault resolved against a valid copy.
    fn record_read_recovery(&self, ctx: &UserCtx, cpage: &Cpage, begin: Option<u64>) {
        if let Some(b) = begin {
            ctx.record(
                EventKind::FaultRecovery,
                FaultSite::FrameRead as u8,
                cpage.id().0,
                b,
            );
        }
    }

    /// Fault hook for a read hitting a local copy: decides whether an
    /// injected transient memory error corrupts the read. With other
    /// directory copies available, the local replica is discarded and the
    /// caller falls back to the policy path (re-replication from a valid
    /// copy); a sole copy is re-read under the bounded retry budget, so
    /// the access always completes. Returns whether the local copy was
    /// discarded.
    fn transient_read_error(
        &self,
        ctx: &mut UserCtx,
        cpage: &Cpage,
        g: &mut CpageInner,
        pp: PhysPage,
        recover_begin: &mut Option<u64>,
    ) -> bool {
        let Some(plan) = self.fault_plan() else {
            return false;
        };
        let key = (pp.module_id() as u64) << 32 | pp.frame_id() as u64;
        if !plan.should_inject(FaultSite::FrameRead, ctx.core.vtime(), key, 0) {
            return false;
        }
        let me = ctx.core.id();
        *recover_begin = Some(ctx.core.vtime());
        ctx.core.charge(FaultPlan::RETRY_NS);
        ctx.record(EventKind::MemError, 0, cpage.id().0, pp.module_id() as u64);
        if g.copies.len() > 1 {
            // Other copies exist: drop the corrupt replica. The
            // module-selective shootdown removes every translation into
            // the dead frame, ours included.
            self.invalidate_copies(ctx, cpage, g, &ProcSet::single(me));
            if g.copies.len() == 1 {
                g.state = CpState::Present1;
            }
            return true;
        }
        // Sole copy: nowhere else to recover from; re-read the flaky
        // frame until a read sticks (forced at the retry budget).
        let mut attempt = 1u32;
        while plan.should_inject(FaultSite::FrameRead, ctx.core.vtime(), key, attempt) {
            ctx.core.charge(FaultPlan::RETRY_NS);
            ctx.record(
                EventKind::MemError,
                attempt.min(255) as u8,
                cpage.id().0,
                pp.module_id() as u64,
            );
            attempt += 1;
        }
        false
    }

    /// Replicates the page onto the faulting processor's node for a read:
    /// restrict any writer first, block-transfer a copy, grow the
    /// directory.
    fn replicate_here(
        &self,
        ctx: &mut UserCtx,
        cpage: &Cpage,
        g: &mut CpageInner,
        entry: &CmapEntry,
        vpn: u64,
    ) -> Result<FaultResolution> {
        let me = ctx.core.id();
        if g.state == CpState::Modified {
            // "The handler uses the shootdown mechanism to restrict all
            // virtual-to-physical translations for the Cpage to read-only
            // access" (§3.3). With no other writer there is nobody to
            // interrupt, and only our own translations are restricted.
            let writers = g.writer_mask.without(me);
            if writers.is_empty() {
                ctx.apply_own(&g.bindings, &Directive::RestrictToRead);
            } else {
                self.shootdown(ctx, cpage.id(), g, Directive::RestrictToRead, &writers);
            }
            g.writer_mask.clear();
            g.state = CpState::Present1;
        }
        // Thaw-on-access variant of the policy (code 1 = thawed by an
        // access rather than by the defrost daemon).
        self.thaw(ctx, cpage.id(), g, 1);
        // "The handler then performs a block transfer from another
        // physical copy" (§3.3) — any copy. Spreading requesters across
        // the existing copies turns a broadcast (every processor reading
        // a freshly written page, e.g. the Gaussian pivot row) into a
        // logarithmic fan-out instead of serializing every transfer at
        // one source engine.
        let src = g.copies[me % g.copies.len()];
        let pp = self.alloc_frame(ctx, me, cpage, &g.copies_mask)?;
        let src = self.copy_page(ctx, cpage, g, src, pp);
        g.add_copy(pp);
        g.state = if g.copies.len() >= 2 {
            CpState::PresentPlus
        } else {
            CpState::Present1
        };
        g.replications += 1;
        ctx.record(
            EventKind::Replicate,
            0,
            cpage.id().0,
            src.module_id() as u64,
        );
        self.map_page(ctx, entry, vpn, pp, false, g);
        Ok(FaultResolution::Replicated)
    }

    // ------------------------------------------------------------------
    // Write faults
    // ------------------------------------------------------------------

    fn write_fault(
        &self,
        ctx: &mut UserCtx,
        cpage: &Cpage,
        g: &mut CpageInner,
        entry: &CmapEntry,
        vpn: u64,
    ) -> Result<FaultResolution> {
        let me = ctx.core.id();

        if let Some(local_pp) = g.copy_on(me) {
            return match g.state {
                CpState::Empty => unreachable!("empty state cannot have copies"),
                CpState::Modified => {
                    self.map_page(ctx, entry, vpn, local_pp, true, g);
                    Ok(FaultResolution::LocalHit)
                }
                CpState::Present1 => {
                    // "The transition from present1 to modified requires
                    // neither [an invalidation nor a reclamation]" (§3.2).
                    g.state = CpState::Modified;
                    self.map_page(ctx, entry, vpn, local_pp, true, g);
                    Ok(FaultResolution::LocalHit)
                }
                CpState::PresentPlus => {
                    // Local copy survives; invalidate and reclaim every
                    // other replica (§3.3).
                    let dying = g.copies_mask.without(me);
                    let escalated = self.invalidate_copies(ctx, cpage, g, &dying);
                    g.state = CpState::Modified;
                    g.last_invalidation = Some(ctx.core.vtime());
                    if escalated {
                        self.freeze(ctx, cpage.id(), g, 2, 0);
                    }
                    ctx.record(EventKind::Invalidate, 0, cpage.id().0, me as u64);
                    self.map_page(ctx, entry, vpn, local_pp, true, g);
                    Ok(FaultResolution::LocalHit)
                }
            };
        }

        // No local copy.
        match self.consult(ctx, cpage, g, true) {
            FaultAction::Replicate | FaultAction::Migrate => {
                self.migrate_here(ctx, cpage, g, entry, vpn, true)
            }
            FaultAction::RemoteMap { freeze } => {
                // Write through a remote mapping. If the page is
                // replicated, first collapse it to a single copy.
                let mut escalated = false;
                if g.state == CpState::PresentPlus {
                    let survivor = g.copies[0];
                    let dying = g.copies_mask.without(survivor.module_id());
                    escalated = self.invalidate_copies(ctx, cpage, g, &dying);
                    g.last_invalidation = Some(ctx.core.vtime());
                    ctx.record(
                        EventKind::Invalidate,
                        0,
                        cpage.id().0,
                        survivor.module_id() as u64,
                    );
                }
                let pp = g.copies[0];
                g.state = CpState::Modified;
                if freeze {
                    let age = invalidation_age(g, ctx.core.vtime());
                    self.freeze(ctx, cpage.id(), g, 0, age);
                }
                if escalated {
                    self.freeze(ctx, cpage.id(), g, 2, 0);
                }
                g.remote_map_mask.insert(me);
                ctx.record(EventKind::RemoteMap, 1, cpage.id().0, pp.module_id() as u64);
                self.map_page(ctx, entry, vpn, pp, true, g);
                Ok(FaultResolution::RemoteMapped)
            }
        }
    }

    /// Migrates the page's single copy to the faulting processor's node:
    /// invalidate every other translation, wait for the acknowledgments,
    /// copy the data here, reclaim the old copies — the copy follows the
    /// acks (§3.1: the initiator blocks until every interrupted target has
    /// applied the change), so no translation to a source frame is usable
    /// while the engine reads it. `write` faults leave the page modified
    /// and mapped writable; read migrations (the migrate-only baseline
    /// chasing a read) leave a single read-only copy.
    fn migrate_here(
        &self,
        ctx: &mut UserCtx,
        cpage: &Cpage,
        g: &mut CpageInner,
        entry: &CmapEntry,
        vpn: u64,
        write: bool,
    ) -> Result<FaultResolution> {
        let me = ctx.core.id();
        // The copy source is stable: the shootdown below leaves no
        // translation to it before the engine reads it, and no writer can
        // appear meanwhile, because granting write access requires the
        // page lock we hold.
        let src = g.copies[0];
        let pp = self.alloc_frame(ctx, me, cpage, &g.copies_mask)?;
        // Invalidate every translation to the old copies, ours included.
        let dying = g.copies_mask.clone();
        let everyone = ProcSet::full(self.machine().nprocs());
        let out = self.shootdown(ctx, cpage.id(), g, Directive::Invalidate, &everyone);
        let src = self.copy_page(ctx, cpage, g, src, pp);
        self.reclaim_copies(ctx, cpage, g, &dying);
        g.writer_mask.clear();
        g.remote_map_mask.clear();
        g.add_copy(pp);
        g.state = if write {
            CpState::Modified
        } else {
            CpState::Present1
        };
        g.last_invalidation = Some(ctx.core.vtime());
        g.migrations += 1;
        self.thaw(ctx, cpage.id(), g, 1);
        if out.escalated {
            // A shootdown target exhausted its ack-retry budget: fall
            // back to the paper's degraded mode and freeze the page so
            // further faults remote-map instead of moving it again.
            self.freeze(ctx, cpage.id(), g, 2, 0);
        }
        ctx.record(EventKind::Migrate, 0, cpage.id().0, src.module_id() as u64);
        ctx.record(EventKind::Invalidate, 0, cpage.id().0, me as u64);
        self.map_page(ctx, entry, vpn, pp, write, g);
        Ok(FaultResolution::Migrated)
    }

    /// Invalidates the translations pointing into `dying` (a module set)
    /// and reclaims those frames. Translations to surviving copies are
    /// left alone thanks to the module-selective directive. Returns
    /// whether the shootdown escalated (a dropped-ack ladder exhausted
    /// its retries); callers that leave the page modified react by
    /// freezing it.
    fn invalidate_copies(
        &self,
        ctx: &mut UserCtx,
        cpage: &Cpage,
        g: &mut CpageInner,
        dying: &ProcSet,
    ) -> bool {
        // Target processors on the dying modules plus any processor known
        // to hold a remote mapping (§3.1: the target set "is restricted to
        // those that are actually using a mapping for this Cpage").
        let filter = dying.union(&g.remote_map_mask);
        let out = self.shootdown(
            ctx,
            cpage.id(),
            g,
            Directive::InvalidateModules(dying.clone()),
            &filter,
        );
        self.reclaim_copies(ctx, cpage, g, dying);
        out.escalated
    }

    /// Frees every directory copy on the modules in `mask`.
    fn reclaim_copies(&self, ctx: &mut UserCtx, cpage: &Cpage, g: &mut CpageInner, mask: &ProcSet) {
        let mut dying = std::mem::take(&mut ctx.scratch.dying);
        dying.clear();
        dying.extend(
            g.copies
                .iter()
                .copied()
                .filter(|pp| mask.contains(pp.module_id())),
        );
        for &pp in &dying {
            self.free_copy(ctx, cpage.id(), g, pp.module_id());
        }
        dying.clear();
        ctx.scratch.dying = dying;
    }

    // ------------------------------------------------------------------
    // Mechanics
    // ------------------------------------------------------------------

    /// Installs the translation on the faulting processor: Pmap entry,
    /// ATC entry, reference-mask bit, writer bookkeeping.
    fn map_page(
        &self,
        ctx: &mut UserCtx,
        entry: &CmapEntry,
        vpn: u64,
        pp: PhysPage,
        writable: bool,
        g: &mut CpageInner,
    ) {
        let span = self.hostprof.begin();
        let me = ctx.core.id();
        self.charge_refs_local(ctx, costs::MAP_REFS);
        ctx.pmap
            .enter(ctx.space.id(), vpn, crate::pmap::PmapEntry { pp, writable });
        let asid = ctx.space.asid();
        ctx.core.atc_insert(asid, vpn, pp, writable);
        entry.set_ref(me);
        if writable {
            g.writer_mask.insert(me);
            debug_assert_eq!(g.state, CpState::Modified);
        }
        if pp.module_id() == me {
            g.remote_map_mask.remove(me);
        } else {
            // Remote frame: make sure module-selective shootdowns reach
            // us. Fault paths pre-set this bit; allocation fallback can
            // also land a "local" placement on another module.
            g.remote_map_mask.insert(me);
        }
        debug_assert!(g.check_invariants().is_ok(), "{:?}", g.check_invariants());
        self.hostprof.end(HostPhase::Directory, span);
    }

    /// Block-transfers the page from a directory copy into the
    /// not-yet-published frame `dst`, surviving injected source read
    /// errors (rotate to another valid copy) and mid-copy transfer
    /// failures (whole-page retry). `dst` is invisible to the directory
    /// and to every translation until the copy verifies, so a torn
    /// prefix is never observable. Returns the source actually used.
    fn copy_page(
        &self,
        ctx: &mut UserCtx,
        cpage: &Cpage,
        g: &CpageInner,
        src: PhysPage,
        dst: PhysPage,
    ) -> PhysPage {
        let span = self.hostprof.begin();
        let out = self.copy_page_inner(ctx, cpage, g, src, dst);
        self.hostprof.end(HostPhase::Transfer, span);
        out
    }

    fn copy_page_inner(
        &self,
        ctx: &mut UserCtx,
        cpage: &Cpage,
        g: &CpageInner,
        mut src: PhysPage,
        dst: PhysPage,
    ) -> PhysPage {
        let Some(plan) = self.fault_plan() else {
            ctx.core.block_transfer(src, dst);
            return src;
        };
        let mut begin: Option<u64> = None;
        let mut first_site: Option<FaultSite> = None;
        let mut attempt = 0u32;
        loop {
            let src_key = (src.module_id() as u64) << 32 | src.frame_id() as u64;
            if plan.should_inject(FaultSite::FrameRead, ctx.core.vtime(), src_key, attempt) {
                // The source module returns garbage: rotate to another
                // directory copy when one exists, else re-read the same
                // one (forced good at the retry budget).
                begin.get_or_insert(ctx.core.vtime());
                first_site.get_or_insert(FaultSite::FrameRead);
                ctx.core.charge(FaultPlan::RETRY_NS);
                ctx.record(
                    EventKind::MemError,
                    attempt.min(255) as u8,
                    cpage.id().0,
                    src.module_id() as u64,
                );
                if g.copies.len() > 1 {
                    let pos = g.copies.iter().position(|&c| c == src).unwrap_or(0);
                    src = g.copies[(pos + 1) % g.copies.len()];
                }
                attempt += 1;
                continue;
            }
            let dst_key = (dst.module_id() as u64) << 32 | dst.frame_id() as u64;
            if plan.should_inject(FaultSite::BlockTransfer, ctx.core.vtime(), dst_key, attempt) {
                // The engine dies mid-copy: pay for the half transfer it
                // managed, then retry the whole page.
                begin.get_or_insert(ctx.core.vtime());
                first_site.get_or_insert(FaultSite::BlockTransfer);
                ctx.core.failed_block_transfer(src, dst, 50);
                ctx.record(
                    EventKind::TransferFault,
                    attempt.min(255) as u8,
                    cpage.id().0,
                    src.module_id() as u64,
                );
                attempt += 1;
                continue;
            }
            ctx.core.block_transfer(src, dst);
            if let (Some(b), Some(site)) = (begin, first_site) {
                ctx.record(EventKind::FaultRecovery, site as u8, cpage.id().0, b);
            }
            return src;
        }
    }

    /// Finds the local copy of `cpage` through the inverted page table,
    /// charging the probes as local references (§3.3: cheaper than
    /// searching the remote directory list).
    fn ipt_find(&self, ctx: &mut UserCtx, node: usize, cpage: &Cpage) -> Result<PhysPage> {
        let probe = self.machine().module(node).find_frame_of(cpage.id().0);
        ctx.core.charge_word_block(
            PhysPage::new(node, 0),
            AccessKind::Read,
            probe.probes as u64,
        );
        probe
            .frame
            .map(|f| PhysPage::new(node, f))
            .ok_or_else(|| panic!("directory says node {node} has a copy but the IPT disagrees"))
    }

    /// Allocates a frame for `cpage`, preferring `node`, through the
    /// inverted page table. Under memory pressure, evicts replicas of
    /// other pages from a module before giving up on it; a module that
    /// cannot yield a frame — or that the fault plan makes refuse — is
    /// skipped for the next one in ring order. `avoid` is a module set
    /// to never place on (the existing directory copies, so a replica
    /// cannot double up on a module). [`KernelError::OutOfMemory`] only
    /// when every eligible module refuses.
    fn alloc_frame(
        &self,
        ctx: &mut UserCtx,
        node: usize,
        cpage: &Cpage,
        avoid: &ProcSet,
    ) -> Result<PhysPage> {
        let n = self.machine().nprocs(); // one memory module per node
        let plan = self.fault_plan();
        let mut recover_begin: Option<u64> = None;
        // Two passes over the ring: the first is subject to injected
        // transient refusals, the second is not — a transient refusal may
        // redirect an allocation but must never manufacture OutOfMemory
        // when a module still has frames. Persistent denials
        // (`alloc_denied`) hold in both passes.
        let passes = if plan.is_some() { 2 } else { 1 };
        for (pass, i) in (0..passes * n).map(|k| (k / n, k % n)) {
            let m = (node + i) % n;
            if avoid.contains(m) {
                continue;
            }
            if let Some(plan) = plan {
                if plan.alloc_denied(m)
                    || (pass == 0
                        && plan.should_inject(
                            FaultSite::FrameAlloc,
                            ctx.core.vtime(),
                            m as u64,
                            i as u32,
                        ))
                {
                    // The module refuses the allocation; fall back to the
                    // next-best module in the ring.
                    recover_begin.get_or_insert(ctx.core.vtime());
                    ctx.record(
                        EventKind::AllocFault,
                        i.min(255) as u8,
                        cpage.id().0,
                        m as u64,
                    );
                    continue;
                }
            }
            loop {
                match self.machine().module(m).alloc_frame(cpage.id().0) {
                    Some(probe) => {
                        ctx.core.charge_word_block(
                            PhysPage::new(m, 0),
                            AccessKind::Atomic,
                            probe.probes as u64,
                        );
                        if let Some(b) = recover_begin {
                            ctx.record(
                                EventKind::FaultRecovery,
                                FaultSite::FrameAlloc as u8,
                                cpage.id().0,
                                b,
                            );
                        }
                        return Ok(PhysPage::new(
                            m,
                            probe.frame.expect("alloc returns a frame"),
                        ));
                    }
                    None => {
                        if !self.reclaim_replica(ctx, m, cpage.id()) {
                            break; // genuinely full: try the next module
                        }
                    }
                }
            }
        }
        Err(KernelError::OutOfMemory)
    }

    /// Zero-fills the fresh page's frame `pp` — it may be a recycled
    /// frame still holding its previous page's words — and charges the
    /// clear (a fast local loop). `pp` is allocated but not yet mapped.
    fn zero_fill(&self, ctx: &mut UserCtx, pp: PhysPage) {
        self.machine().frame_data(pp).zero();
        let words = self.machine().cfg().words_per_page() as u64;
        // ~80 ns/word: a tight clear loop is much faster than discrete
        // word stores on the 68020.
        ctx.core.charge(words * 80);
    }

    /// Charges `n` modelled kernel-structure references at `module`.
    pub(crate) fn charge_refs(&self, ctx: &mut UserCtx, module: usize, n: u32) {
        ctx.core
            .charge_word_block(PhysPage::new(module, 0), AccessKind::Read, u64::from(n));
    }

    /// Charges `n` local kernel references.
    pub(crate) fn charge_refs_local(&self, ctx: &mut UserCtx, n: u32) {
        let me = ctx.core.id();
        ctx.core
            .charge_word_block(PhysPage::new(me, 0), AccessKind::Read, u64::from(n));
    }
}
