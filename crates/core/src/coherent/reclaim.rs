//! Frame reclamation: unmapping, object teardown, and replica eviction
//! under memory pressure.
//!
//! The paper's kernel ran experiments that fit in the Butterfly's 4 MB
//! nodes and "issues such as ... long-term storage have received only
//! cursory attention"; there is no paging to disk. But replication
//! *consumes* frames, so a production kernel needs a way to give them
//! back: explicit unmapping, memory-object destruction, and — when a
//! module runs out of frames — eviction of replicas (a replica is pure
//! cache: dropping it loses nothing, the next access re-faults).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use numa_machine::{AccessKind, ProcSet, Va};
use platinum_trace::EventKind;

use crate::coherent::cmap::Directive;
use crate::coherent::cpage::{CpState, CpageInner};
use crate::costs;
use crate::error::{KernelError, Result};
use crate::ids::{CpageId, ObjId};
use crate::kernel::Kernel;
use crate::user::UserCtx;
use crate::vm::object::MemoryObject;

/// Round-robin clock hands for replica eviction — one per node, so
/// reclaim scans on different modules never contend on one cache line
/// and each module's hand sweeps its own frames fairly.
pub(crate) struct ReclaimState {
    hands: Box<[AtomicUsize]>,
}

impl ReclaimState {
    pub(crate) fn new(nodes: usize) -> Self {
        Self {
            hands: (0..nodes.max(1)).map(|_| AtomicUsize::new(0)).collect(),
        }
    }
}

impl Kernel {
    /// Unbinds the region starting at `va` from `ctx`'s address space:
    /// removes the Cmap entries, invalidates every processor's
    /// translations through the shootdown mechanism, and drops the
    /// bindings from the coherent pages. The pages themselves (and their
    /// frames) survive — they belong to the memory object, which may be
    /// bound elsewhere.
    ///
    /// Returns [`KernelError::Access`] when no region starts at `va`.
    ///
    /// The whole region is shot down as one coalesced batch: every
    /// page's invalidation directive is posted (with the same per-page
    /// charges, records, and doorbell interrupts as a page-at-a-time
    /// teardown, so the observable behaviour is identical), and the
    /// acknowledgment wait runs once at the end instead of once per page.
    pub fn unmap(&self, ctx: &mut UserCtx, va: Va) -> Result<()> {
        let space = Arc::clone(ctx.space());
        let region = space.unmap_region(va).ok_or(KernelError::Access(
            numa_machine::AccessErr::NoTranslation(va),
        ))?;
        let me = ctx.core.id();
        let mut items = Vec::new();
        for off in 0..region.pages {
            let vpn = region.vpn_start + off as u64;
            let Some(entry) = space.cmap().remove(vpn) else {
                continue; // never touched in this space
            };
            items.push((vpn, entry));
        }
        // Process in region order, which is what a page-at-a-time
        // teardown charges. Every guard is held until the flush, so no
        // fault can observe the half-torn region.
        let mut guards = self.lock_in_id_order(ctx, items.iter().map(|(_, e)| &*e.page));
        let mut batch = ctx.take_batch();
        for ((vpn, entry), g) in items.iter().zip(&mut guards) {
            g.bindings.retain(|&(a, v)| !(a == space.id() && v == *vpn));
            // Invalidate every translation installed through this
            // binding. Message-based, like any mapping restriction; the
            // directive is posted to this space's queue so only this
            // space's translations die.
            let targets = entry.refs().without(me);
            if !targets.is_empty() {
                self.batch_post_space(
                    ctx,
                    &mut batch,
                    entry.cpage,
                    &space,
                    *vpn,
                    Directive::Invalidate,
                    &targets,
                );
            }
            ctx.apply(*vpn, &Directive::Invalidate);
            g.writer_mask.clear();
            g.remote_map_mask.clear();
            self.charge_refs(ctx, space.home(), costs::POST_MSG_REFS);
        }
        self.batch_flush(ctx, &mut batch);
        ctx.put_batch(batch);
        Ok(())
    }

    /// Destroys a memory object: fails with [`KernelError::ObjectInUse`]
    /// while any binding remains; otherwise frees every physical frame of
    /// every coherent page the object ever created and resets the pages
    /// to `empty`.
    pub fn destroy_object(&self, ctx: &mut UserCtx, object: &MemoryObject) -> Result<()> {
        let _: ObjId = object.id();
        // First pass: refuse if any page is still bound anywhere.
        for (_, cpage_id) in object.touched_cpages() {
            if let Some(cpage) = self.cpages.get(cpage_id) {
                let g = self.lock_cpage(ctx, &cpage);
                if !g.bindings.is_empty() {
                    return Err(KernelError::ObjectInUse(object.id()));
                }
            }
        }
        // Second pass: release the frames.
        for (_, cpage_id) in object.touched_cpages() {
            let Some(cpage) = self.cpages.get(cpage_id) else {
                continue;
            };
            let mut g = self.lock_cpage(ctx, &cpage);
            for pp in g.copies.clone() {
                self.free_copy(ctx, cpage_id, &mut g, pp.module_id());
            }
            g.state = CpState::Empty;
            g.writer_mask.clear();
            g.remote_map_mask.clear();
            g.frozen = false;
            debug_assert!(g.check_invariants().is_ok());
        }
        Ok(())
    }

    /// Evicts one replica from `node` to free a frame, if any coherent
    /// page other than `exclude` has a spare copy there. A replica is
    /// pure cache, so eviction is always safe: translations to it are
    /// invalidated and the next access re-faults to another copy.
    ///
    /// Returns whether a frame was freed.
    pub(crate) fn reclaim_replica(&self, ctx: &mut UserCtx, node: usize, exclude: CpageId) -> bool {
        let total = self.cpages.len();
        if total == 0 {
            return false;
        }
        let start = self.reclaim.hands[node].fetch_add(1, Ordering::Relaxed);
        for i in 0..total {
            let idx = (start + i) % total;
            let Some(cpage) = self.cpages.get(CpageId(idx as u64)) else {
                continue;
            };
            if cpage.id() == exclude {
                continue;
            }
            // try_lock only: the caller may hold another page's lock, and
            // blocking here could deadlock two reclaiming processors.
            let Some(mut g) = cpage.try_lock() else {
                continue;
            };
            if g.frozen || g.copies.len() < 2 || !g.has_copy_on(node) {
                continue;
            }
            debug_assert_eq!(g.state, CpState::PresentPlus);
            let victim = ProcSet::single(node);
            let filter = victim.union(&g.remote_map_mask);
            let id = cpage.id();
            self.shootdown(ctx, id, &g, Directive::InvalidateModules(victim), &filter);
            self.free_copy(ctx, id, &mut g, node);
            if g.copies.len() == 1 {
                g.state = CpState::Present1;
            }
            ctx.record(EventKind::ReplicaEvict, 0, id.0, node as u64);
            debug_assert!(g.check_invariants().is_ok(), "{:?}", g.check_invariants());
            return true;
        }
        false
    }

    /// Frees the page's directory copy on `module`. "Freeing a physical
    /// page uses one remote memory read and one write" (§4).
    pub(crate) fn free_copy(
        &self,
        ctx: &mut UserCtx,
        page: CpageId,
        g: &mut CpageInner,
        module: usize,
    ) {
        let pp = g.remove_copy_on(module);
        ctx.core.charge_kernel_ref(module, AccessKind::Read);
        ctx.core.charge_kernel_ref(module, AccessKind::Write);
        self.machine().module(module).free_frame(pp.frame_id());
        ctx.record(EventKind::FrameFree, 0, page.0, module as u64);
    }
}
