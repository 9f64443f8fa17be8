//! The NUMA shootdown mechanism (§3.1 of the paper).
//!
//! "Part of the protocol is performed by the processor initiating the
//! shootdown and part is performed by the processors sharing the address
//! space with the initiator. They communicate through the Cmap message
//! queues and synchronize through interprocessor interrupts."
//!
//! The initiator posts a [`CmapMsg`] to the queue of every address space
//! the coherent page is bound in, interrupts only the targets that (a)
//! actually hold a translation (the Cmap entry's reference mask) and (b)
//! currently have the space active, and then waits for those targets to
//! acknowledge. Inactive targets apply the change when they next activate
//! the space — before running any thread in it — so they are never
//! interrupted and never waited for. This is the key difference from the
//! Mach mechanism, which "must interrupt each processor with the address
//! space activated, even if that processor has never referenced the
//! page"; the [`ShootdownMode::SharedPmapStall`] comparator models that
//! behaviour for the §4 measurement.
//!
//! # Batching
//!
//! Multi-page invalidations (the defrost daemon's thaw pass, region
//! unmap) go through a [`ShootdownBatch`]: directives for many pages are
//! posted up front — with exactly the per-page charges, records, and
//! doorbell interrupts a sequential initiator would issue — and the
//! acknowledgment wait runs once over the whole set instead of once per
//! page. The doorbell is a level-triggered flag, so N posts before a
//! target's next service are one interrupt to it either way, and the wait
//! itself is a real-time handshake that charges nothing; a batch is
//! therefore observation-equivalent (virtual times, counters, trace
//! events) to the same pages shot down one at a time. The proptests at
//! the bottom of this file pin that equivalence down.

use std::sync::Arc;

use numa_machine::{AccessKind, PhysPage, ProcCore, ProcSet, IPI_NS};
use platinum_trace::EventKind;

use crate::coherent::cmap::{CmapMsg, Directive};
use crate::coherent::cpage::CpageInner;
use crate::costs;
use crate::faults::{FaultPlan, FaultSite};
use crate::hostprof::HostPhase;
use crate::ids::CpageId;
use crate::kernel::{Kernel, ShootdownMode};
use crate::user::UserCtx;
use crate::vm::space::AddressSpace;

/// What a shootdown did, for statistics and the §4 micro-benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShootdownOutcome {
    /// Distinct processors that must eventually apply the change, summed
    /// per page.
    pub targets: u32,
    /// Interprocessor interrupts actually sent (targets with the space
    /// active, or in Mach mode every active processor).
    pub ipis: u32,
    /// Pages whose directives this operation posted (1 for a plain
    /// shootdown; the batch clients post many).
    pub pages: u32,
    /// Acknowledgment-wait rounds performed: 1 when any active target had
    /// to be awaited, else 0. A batch waits once for all its pages, so
    /// `rounds < pages` is the coalescing win.
    pub rounds: u32,
    /// Whether an injected dropped-ack ladder exhausted its retry budget;
    /// callers that leave the page in the modified state react by
    /// freezing it (the paper's own degraded mode).
    pub escalated: bool,
}

/// An in-flight multi-page shootdown: the posted messages awaiting
/// acknowledgment and the accumulated accounting.
///
/// One batch lives in each processor's [`FaultScratch`] and is taken with
/// [`UserCtx::take_batch`] for the duration of an operation, so the
/// steady state posts and flushes without heap allocation. Clients call
/// [`Kernel::batch_post`] (or [`Kernel::batch_post_space`]) once per
/// page — interleaving their own per-page directory updates, which is
/// safe because they hold every affected page lock until the flush — and
/// then [`Kernel::batch_flush`] exactly once.
///
/// [`FaultScratch`]: crate::coherent::scratch::FaultScratch
#[derive(Default)]
pub(crate) struct ShootdownBatch {
    /// Posted messages and, for each, the set of *active* targets the
    /// flush must wait on.
    posted: Vec<(Arc<CmapMsg>, ProcSet)>,
    /// Per-page scratch for targets whose IPI was dropped by fault
    /// injection; drained by the recovery ladder within each post.
    dropped: Vec<usize>,
    targets: u32,
    ipis: u32,
    pages: u32,
    escalated: bool,
}

impl ShootdownBatch {
    /// Resets the accounting and buffers for reuse, keeping capacity.
    fn clear(&mut self) {
        self.posted.clear();
        self.dropped.clear();
        self.targets = 0;
        self.ipis = 0;
        self.pages = 0;
        self.escalated = false;
    }
}

impl Kernel {
    /// Initiates a shootdown for the coherent page whose inner state is
    /// `g`, posting `directive` to every address space the page is bound
    /// in. Only processors in `filter` are targeted; the initiator applies
    /// the directive to its own translations in its active space as it
    /// posts (see [`Kernel::batch_post`]).
    ///
    /// Blocks (polling its own IPI doorbell, so concurrent initiators
    /// cannot deadlock) until every *active* target acknowledged. After
    /// return, no processor can use a translation the directive removed
    /// or restricted. A plain shootdown is a batch of one page.
    pub(crate) fn shootdown(
        &self,
        ctx: &mut UserCtx,
        page: CpageId,
        g: &CpageInner,
        directive: Directive,
        filter: &ProcSet,
    ) -> ShootdownOutcome {
        let mut batch = ctx.take_batch();
        self.batch_post(ctx, &mut batch, page, g, directive, filter);
        let out = self.batch_flush(ctx, &mut batch);
        ctx.put_batch(batch);
        out
    }

    /// Posts `directive` for one page into `batch`: one message per bound
    /// address space, the per-page reference charges, the doorbell
    /// interrupts to active targets, the `ShootdownInit` record, and any
    /// dropped-ack recovery ladder — everything a sequential shootdown
    /// does except the acknowledgment wait, which [`Kernel::batch_flush`]
    /// performs once for the whole batch.
    ///
    /// The initiator is never interrupted by its own post. In its active
    /// space it applies the directive to every translation of the page it
    /// holds, here, with the handler its targets run ([`UserCtx::apply`]);
    /// in any other space it is an ordinary target whose message waits in
    /// that space's queue until it activates the space.
    pub(crate) fn batch_post(
        &self,
        ctx: &mut UserCtx,
        batch: &mut ShootdownBatch,
        page: CpageId,
        g: &CpageInner,
        directive: Directive,
        filter: &ProcSet,
    ) {
        let span = self.hostprof.begin();
        let me = ctx.core.id();
        let mach_mode = self.config().shootdown == ShootdownMode::SharedPmapStall;

        let mut all_targets = ProcSet::empty();
        batch.dropped.clear();
        ctx.apply_own(&g.bindings, &directive);

        for bi in 0..g.bindings.len() {
            let (as_id, vpn) = g.bindings[bi];
            let own = as_id == ctx.space.id();
            // The faulting space is almost always the bound one: borrow
            // it from the context. Only a foreign binding pays the
            // registry lookup and owns a handle.
            let foreign;
            let space: &AddressSpace = if own {
                &ctx.space
            } else if let Ok(s) = self.space(as_id) {
                foreign = s;
                &foreign
            } else {
                continue;
            };
            let Some(refs) = space.cmap().refs_of(vpn) else {
                continue;
            };
            let mut targets = refs.intersect(filter);
            if own {
                targets.remove(me);
            }
            if targets.is_empty() {
                continue;
            }
            all_targets.insert_all(&targets);
            let msg = ctx.scratch.alloc_msg(vpn, directive.clone(), &targets);
            ctx.core.charge_word_block(
                PhysPage::new(space.home(), 0),
                AccessKind::Write,
                u64::from(costs::POST_MSG_REFS),
            );
            self.post_binding(&mut ctx.core, batch, page, space, msg, &targets, mach_mode);
            // Replicated page tables: the mapping change also stales the
            // per-node translation replicas of this space. The
            // invalidations piggyback on the IPI round just posted (one
            // branch under the centralized default).
            self.ptable_invalidate(&mut ctx.core, ctx.ptable, space, &targets);
        }

        self.finish_post(ctx, batch, page, &directive, &all_targets);
        self.hostprof.end(HostPhase::Shootdown, span);
    }

    /// Posts `directive` for one page to a *single* address space with an
    /// explicit target set — the unmap path, where the Cmap entry and
    /// the binding are already torn down and only this space's
    /// translations die.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn batch_post_space(
        &self,
        ctx: &mut UserCtx,
        batch: &mut ShootdownBatch,
        page: CpageId,
        space: &AddressSpace,
        vpn: u64,
        directive: Directive,
        targets: &ProcSet,
    ) {
        let span = self.hostprof.begin();
        batch.dropped.clear();
        let msg = ctx.scratch.alloc_msg(vpn, directive.clone(), targets);
        self.post_binding(&mut ctx.core, batch, page, space, msg, targets, false);
        // As in `batch_post`: stale the per-node translation replicas of
        // the unmapped space, riding the IPI round just posted.
        self.ptable_invalidate(&mut ctx.core, ctx.ptable, space, targets);
        self.finish_post(ctx, batch, page, &directive, targets);
        self.hostprof.end(HostPhase::Shootdown, span);
    }

    /// One binding's share of a post: enqueues `msg` on `space`'s queues,
    /// interrupts the targets that have the space active — the rest apply
    /// the change on activation — and files the message with the set the
    /// flush must wait on. The activity word's ordering pairs the check
    /// against concurrent (de)activation: whoever sees the other's effect
    /// first, the message is never missed.
    ///
    /// With `mach_stall` (the Mach comparator) every processor with the
    /// space active is interrupted and stalled, referenced or not; only
    /// the real targets are awaited.
    ///
    /// Takes the initiator's core rather than its whole context, so
    /// `space` may be borrowed from that context.
    #[allow(clippy::too_many_arguments)]
    fn post_binding(
        &self,
        core: &mut ProcCore,
        batch: &mut ShootdownBatch,
        page: CpageId,
        space: &AddressSpace,
        msg: Arc<CmapMsg>,
        targets: &ProcSet,
        mach_stall: bool,
    ) {
        space.cmap().post(&msg);
        let everyone_else;
        let (rung, stall_ns) = if mach_stall {
            everyone_else = ProcSet::full(self.machine().nprocs()).without(core.id());
            (&everyone_else, IPI_NS + costs::MACH_STALL_EXTRA_NS)
        } else {
            (targets, IPI_NS)
        };
        let mut awaited = ProcSet::empty();
        for p in rung.iter() {
            if !self.slots[p].active.is_active(space.id().0) {
                continue;
            }
            core.charge(stall_ns);
            self.record_on(core, EventKind::Ipi, 0, page.0, p as u64);
            batch.ipis += 1;
            if targets.contains(p) {
                awaited.insert(p);
                if self.ipi_lost(core.vtime(), p) {
                    batch.dropped.push(p);
                    continue;
                }
            }
            self.machine().post_ipi(p);
        }
        batch.posted.push((msg, awaited));
    }

    /// Shared tail of a per-page post: the `ShootdownInit` record and the
    /// dropped-ack recovery ladder. The ladder runs here — inside the
    /// page's post, exactly where a sequential shootdown runs it — so its
    /// timeout and retry charges land at the same virtual times whether
    /// or not the page is part of a larger batch.
    fn finish_post(
        &self,
        ctx: &mut UserCtx,
        batch: &mut ShootdownBatch,
        page: CpageId,
        directive: &Directive,
        all_targets: &ProcSet,
    ) {
        // Counted per shootdown page, like the IPIs above are counted per
        // interrupt: the ShootdownInit count is the number of shootdown
        // operations initiated, whether or not any target needed work.
        ctx.record(
            EventKind::ShootdownInit,
            directive.code(),
            page.0,
            all_targets.count() as u64,
        );
        batch.targets += all_targets.count() as u32;
        batch.pages += 1;

        // Resolve any IPIs lost to fault injection before moving on: the
        // ladder ends with a forced delivery, so the flush's wait can
        // never hang on a dropped interrupt.
        if !batch.dropped.is_empty() {
            let mut dropped = std::mem::take(&mut batch.dropped);
            batch.escalated |= self.resolve_dropped_acks(ctx, page.0, &dropped);
            dropped.clear();
            batch.dropped = dropped;
        }
    }

    /// Completes the batch: waits until every awaited target acknowledged
    /// every posted message, then returns the accumulated outcome and
    /// resets the batch for reuse.
    pub(crate) fn batch_flush(
        &self,
        ctx: &mut UserCtx,
        batch: &mut ShootdownBatch,
    ) -> ShootdownOutcome {
        let span = self.hostprof.begin();
        // Wait for the active targets. Poll our own doorbell throughout:
        // another initiator may be shooting *us* down at the same time,
        // and servicing it is what breaks the symmetry.
        //
        // Note that this wait is a *real-time* correctness handshake (no
        // target may use a revoked translation once we proceed), not a
        // virtual-time cost: on the real machine the interrupt reaches
        // the target within ~7 us no matter what it is executing, so the
        // initiator's clock is charged the IPI cost above and is NOT
        // dragged to the target's (skewed) clock. Waiting once for many
        // pages is therefore observation-equivalent to waiting after
        // each, and it overlaps every target's handler with every other's.
        let mut rounds = 0u32;
        for (msg, awaited) in &batch.posted {
            let mut spins = 0u32;
            if msg.pending_intersects(awaited) {
                rounds = 1;
            }
            while msg.pending_intersects(awaited) {
                ctx.service_awaited_peers(awaited);
                ctx.service_ipis();
                std::hint::spin_loop();
                spins = spins.wrapping_add(1);
                if spins.is_multiple_of(8) {
                    std::thread::yield_now();
                }
            }
        }
        let out = ShootdownOutcome {
            targets: batch.targets,
            ipis: batch.ipis,
            pages: batch.pages,
            rounds,
            escalated: batch.escalated,
        };
        batch.clear();
        self.hostprof.end(HostPhase::Shootdown, span);
        out
    }

    /// Fault hook: decides whether the shootdown IPI just sent to
    /// `target` is lost in transit. One pointer test on healthy runs.
    #[inline]
    pub(crate) fn ipi_lost(&self, vtime: u64, target: usize) -> bool {
        match self.fault_plan() {
            Some(plan) => plan.should_inject(FaultSite::ShootdownAck, vtime, target as u64, 0),
            None => false,
        }
    }

    /// Recovers from shootdown IPIs lost to fault injection: for each
    /// silent target the initiator waits out an ack timeout (exponential
    /// backoff), resends the interrupt, and repeats until a resend gets
    /// through or the retry budget is exhausted — at which point delivery
    /// is forced (the plan injects nothing at or past
    /// [`FaultPlan::MAX_RETRIES`], so the protocol stays live) and the
    /// ladder reports escalation.
    pub(crate) fn resolve_dropped_acks(
        &self,
        ctx: &mut UserCtx,
        page: u64,
        dropped: &[usize],
    ) -> bool {
        let Some(plan) = self.fault_plan() else {
            debug_assert!(dropped.is_empty(), "drops require an installed plan");
            return false;
        };
        let mut escalated = false;
        for &p in dropped {
            let begin = ctx.core.vtime();
            let mut attempt = 1u32;
            loop {
                // The ack never arrives; the initiator times out...
                ctx.core.charge(FaultPlan::ack_timeout_ns(attempt));
                ctx.record(
                    EventKind::ShootdownTimeout,
                    attempt.min(255) as u8,
                    page,
                    p as u64,
                );
                // ...and resends the interrupt (code 1 = retry).
                ctx.core.charge(IPI_NS);
                ctx.record(EventKind::Ipi, 1, page, p as u64);
                if attempt >= FaultPlan::MAX_RETRIES {
                    escalated = true;
                    break;
                }
                if !plan.should_inject(FaultSite::ShootdownAck, ctx.core.vtime(), p as u64, attempt)
                {
                    break;
                }
                attempt += 1;
            }
            self.machine().post_ipi(p);
            ctx.record(
                EventKind::FaultRecovery,
                FaultSite::ShootdownAck as u8,
                page,
                begin,
            );
        }
        escalated
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};

    use numa_machine::{AccessCounters, Machine, MachineConfig, Mem};
    use parking_lot::MutexGuard;
    use platinum_trace::Tracer;
    use proptest::prelude::*;

    use super::*;
    use crate::coherent::cpage::Cpage;
    use crate::kernel::KernelConfig;
    use crate::{FaultPlan, Lockstep, Rights, StatsSnapshot};

    /// A randomized shootdown scenario: which processors read which
    /// pages beforehand (the reference masks), which targets are
    /// suspended during the shootdown (lazy application) vs. active
    /// (interrupted and awaited), which distinct pages are shot down in
    /// what order, and with which directive and shootdown mode.
    #[derive(Clone, Debug)]
    struct Scenario {
        procs: usize,
        pages: usize,
        readers: Vec<u64>,
        suspended: u64,
        shoot: Vec<usize>,
        restrict: bool,
        mach_mode: bool,
        inject_seed: Option<u64>,
    }

    impl Scenario {
        /// Normalizes raw generator output: masks clipped to the
        /// processor count, the initiator (processor 0) never suspended,
        /// and the shoot list deduplicated — a batch posts each page at
        /// most once, exactly like its real clients (region unmap, the
        /// defrost thaw pass) iterating distinct pages.
        #[allow(clippy::too_many_arguments)]
        fn normalize(
            procs: usize,
            pages: usize,
            readers: Vec<u64>,
            suspended: u64,
            shoot: Vec<u64>,
            restrict: bool,
            mach_mode: bool,
            inject_seed: Option<u64>,
        ) -> Self {
            let pmask = (1u64 << procs) - 1;
            let readers = (0..pages)
                .map(|i| readers[i % readers.len()] & pmask)
                .collect();
            let mut seen = vec![false; pages];
            let mut dedup = Vec::new();
            for &raw in &shoot {
                let p = (raw % pages as u64) as usize;
                if !seen[p] {
                    seen[p] = true;
                    dedup.push(p);
                }
            }
            Scenario {
                procs,
                pages,
                readers,
                suspended: suspended & pmask & !1,
                shoot: dedup,
                restrict,
                mach_mode,
                inject_seed,
            }
        }
    }

    /// Everything two runs must agree on: per-processor clocks and
    /// access counters, the kernel's protocol counters, the per-page
    /// reference masks left in the directory, and the full trace as a
    /// multiset of (proc, vtime, kind, code, page, arg) events.
    #[derive(Debug, PartialEq)]
    struct Obs {
        vtimes: Vec<u64>,
        counters: Vec<AccessCounters>,
        stats: StatsSnapshot,
        refs: Vec<(usize, ProcSet)>,
        events: Vec<(u16, u64, u8, u8, u64, u64)>,
        outcome: ShootdownOutcome,
    }

    /// Runs one scenario end to end, shooting the pages either as one
    /// coalesced batch or one page at a time, and returns the combined
    /// observation. Setup (mapping, replication reads, suspensions) is
    /// identical single-threaded code in every mode; active targets ack
    /// either from real service threads, as in a live run, or — with
    /// `lockstep` — inline from the initiator's wait, all contexts owned
    /// by one [`Lockstep`] executor.
    fn run(sc: &Scenario, batched: bool, lockstep: bool) -> Obs {
        let machine = Machine::new(MachineConfig {
            nodes: sc.procs,
            frames_per_node: 64,
            skew_window_ns: None,
            fast_path: true,
            ..MachineConfig::default()
        })
        .unwrap();
        let kernel = Kernel::boot(
            machine,
            KernelConfig {
                shootdown: if sc.mach_mode {
                    ShootdownMode::SharedPmapStall
                } else {
                    ShootdownMode::PerProcessorPmap
                },
                faults: sc
                    .inject_seed
                    .map(|seed| std::sync::Arc::new(FaultPlan::chaos(seed, 80_000))),
                ..KernelConfig::default()
            },
        );
        let tracer = Tracer::new();
        assert!(kernel.install_tracer(Arc::clone(&tracer)));
        let space = kernel.create_space();
        let object = kernel.create_object(sc.pages);
        let va = space.map_anywhere(object, Rights::RW).unwrap();
        let page_bytes = (kernel.machine().cfg().words_per_page() * 4) as u64;
        let page_va = |i: usize| va + i as u64 * page_bytes;

        let mut ctxs: Vec<Option<UserCtx>> = (0..sc.procs)
            .map(|p| Some(kernel.attach(Arc::clone(&space), p, 0).unwrap()))
            .collect();

        // Replication sweep in deterministic processor-major order.
        for (p, slot) in ctxs.iter_mut().enumerate() {
            let ctx = slot.as_mut().unwrap();
            for (i, &mask) in sc.readers.iter().enumerate() {
                if mask & (1u64 << p) != 0 {
                    ctx.read(page_va(i));
                }
            }
        }
        for p in ProcSet::from_mask(sc.suspended).iter() {
            ctxs[p].as_mut().unwrap().suspend();
        }

        let directive = if sc.restrict {
            Directive::RestrictToRead
        } else {
            Directive::Invalidate
        };
        let shoot = |ctx0: &mut UserCtx| {
            let cpages: Vec<Arc<Cpage>> = sc
                .shoot
                .iter()
                .filter_map(|&i| kernel.cpage_for_va(&space, page_va(i)))
                .collect();
            if batched {
                // Locks are taken in page-id order (the multi-page
                // initiator rule) and held until the flush.
                let mut order: Vec<usize> = (0..cpages.len()).collect();
                order.sort_unstable_by_key(|&i| cpages[i].id());
                let mut guards: Vec<Option<MutexGuard<CpageInner>>> = Vec::new();
                guards.resize_with(cpages.len(), || None);
                for &i in &order {
                    guards[i] = Some(kernel.lock_cpage(ctx0, &cpages[i]));
                }
                let mut batch = ctx0.take_batch();
                for (i, cpage) in cpages.iter().enumerate() {
                    let g = guards[i].as_ref().expect("locked above");
                    kernel.batch_post(
                        ctx0,
                        &mut batch,
                        cpage.id(),
                        g,
                        directive.clone(),
                        &ProcSet::full(sc.procs),
                    );
                }
                let out = kernel.batch_flush(ctx0, &mut batch);
                ctx0.put_batch(batch);
                out
            } else {
                let mut sum = ShootdownOutcome::default();
                for cpage in &cpages {
                    let g = kernel.lock_cpage(ctx0, cpage);
                    let out = kernel.shootdown(
                        ctx0,
                        cpage.id(),
                        &g,
                        directive.clone(),
                        &ProcSet::full(sc.procs),
                    );
                    sum.targets += out.targets;
                    sum.ipis += out.ipis;
                    sum.pages += out.pages;
                    sum.rounds += out.rounds;
                    sum.escalated |= out.escalated;
                }
                sum
            }
        };

        let outcome = if lockstep {
            let mut all = Lockstep::new(sc.procs);
            for slot in &mut ctxs {
                all.adopt(slot.take().unwrap());
            }
            let outcome = all.run(0, shoot);
            for (p, slot) in ctxs.iter_mut().enumerate() {
                *slot = Some(all.release(p));
            }
            outcome
        } else {
            let mut ctx0 = ctxs[0].take().unwrap();
            let mut movers: Vec<(usize, UserCtx)> = (1..sc.procs)
                .filter(|p| sc.suspended & (1u64 << p) == 0)
                .map(|p| (p, ctxs[p].take().unwrap()))
                .collect();
            let stop = AtomicBool::new(false);
            let outcome = std::thread::scope(|s| {
                let stop = &stop;
                let handles: Vec<(usize, std::thread::ScopedJoinHandle<UserCtx>)> = movers
                    .drain(..)
                    .map(|(p, mut c)| {
                        (
                            p,
                            s.spawn(move || {
                                let mut spins = 0u32;
                                while !stop.load(Ordering::Acquire) {
                                    c.service_ipis();
                                    std::hint::spin_loop();
                                    spins = spins.wrapping_add(1);
                                    if spins.is_multiple_of(64) {
                                        std::thread::yield_now();
                                    }
                                }
                                c
                            }),
                        )
                    })
                    .collect();
                let outcome = shoot(&mut ctx0);
                stop.store(true, Ordering::Release);
                for (p, h) in handles {
                    ctxs[p] = Some(h.join().unwrap());
                }
                outcome
            });
            ctxs[0] = Some(ctx0);
            outcome
        };

        // Suspended targets apply the queued directives on resume.
        for p in ProcSet::from_mask(sc.suspended).iter() {
            ctxs[p].as_mut().unwrap().resume();
        }

        let refs = (0..sc.pages)
            .filter_map(|i| {
                space
                    .cmap()
                    .refs_of(space.vpn_of(page_va(i)))
                    .map(|r| (i, r))
            })
            .collect();
        let mut events: Vec<_> = tracer
            .snapshot()
            .events
            .iter()
            .map(|e| (e.proc, e.vtime, e.kind as u8, e.code, e.page, e.arg))
            .collect();
        events.sort_unstable();
        Obs {
            vtimes: ctxs.iter().map(|c| c.as_ref().unwrap().vtime()).collect(),
            counters: ctxs
                .iter()
                .map(|c| c.as_ref().unwrap().counters())
                .collect(),
            stats: kernel.stats().snapshot(),
            refs,
            events,
            outcome,
        }
    }

    fn assert_equivalent(sc: &Scenario) -> Result<(), TestCaseError> {
        let seq = run(sc, false, false);
        let bat = run(sc, true, false);
        prop_assert_eq!(&bat.vtimes, &seq.vtimes, "virtual times diverged: {:?}", sc);
        prop_assert_eq!(
            &bat.counters,
            &seq.counters,
            "access counters diverged: {:?}",
            sc
        );
        prop_assert_eq!(&bat.stats, &seq.stats, "kernel counters diverged: {:?}", sc);
        prop_assert_eq!(&bat.refs, &seq.refs, "directory refs diverged: {:?}", sc);
        prop_assert_eq!(&bat.events, &seq.events, "trace events diverged: {:?}", sc);
        // The per-page accounting must agree; the wait rounds are the
        // one deliberate difference — a batch waits at most once.
        prop_assert_eq!(bat.outcome.targets, seq.outcome.targets);
        prop_assert_eq!(bat.outcome.ipis, seq.outcome.ipis);
        prop_assert_eq!(bat.outcome.pages, seq.outcome.pages);
        prop_assert_eq!(bat.outcome.escalated, seq.outcome.escalated);
        prop_assert!(bat.outcome.rounds <= 1, "a batch waits at most once");
        // One thread owning every context observes what service threads
        // observe. Only the wait rounds may differ: a service thread can
        // ack before the initiator starts waiting, a lockstep target
        // cannot, so lockstep counts a round whenever a target is awaited.
        // That makes the threaded rounds schedule-dependent, so the batch
        // is held to waiting no more often than page by page on the
        // lockstep pair alone.
        let mut lockstep_rounds = [0; 2];
        for (i, (batched, threaded)) in [(false, &seq), (true, &bat)].into_iter().enumerate() {
            let mut ls = run(sc, batched, true);
            lockstep_rounds[i] = ls.outcome.rounds;
            prop_assert!(ls.outcome.rounds >= threaded.outcome.rounds);
            ls.outcome.rounds = threaded.outcome.rounds;
            prop_assert_eq!(&ls, threaded, "lockstep diverged: {:?}", sc);
        }
        let [seq_rounds, bat_rounds] = lockstep_rounds;
        prop_assert!(
            bat_rounds <= seq_rounds,
            "lockstep: {} > {}",
            bat_rounds,
            seq_rounds
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// The tentpole equivalence: a coalesced batch over N distinct
        /// pages leaves every observable — virtual times, access
        /// counters, kernel statistics, directory reference masks, and
        /// the trace-event multiset — bit-identical to shooting the same
        /// pages down one at a time, across both shootdown modes and
        /// arbitrary mixes of active and suspended targets.
        #[test]
        fn batch_is_observation_equivalent_to_sequential_shootdowns(
            procs in 2usize..5,
            pages in 1usize..7,
            readers in proptest::collection::vec(any::<u64>(), 1..7),
            suspended in any::<u64>(),
            shoot in proptest::collection::vec(any::<u64>(), 1..10),
            restrict in any::<bool>(),
            mach_mode in any::<bool>(),
        ) {
            let sc = Scenario::normalize(
                procs, pages, readers, suspended, shoot, restrict, mach_mode, None,
            );
            assert_equivalent(&sc)?;
        }

        /// The same equivalence under dropped-ack fault injection: the
        /// recovery ladder runs inside each page's post — at the same
        /// virtual times whether or not the page is part of a larger
        /// batch — so injected timeouts, retries, and escalations do not
        /// break the coalescing equivalence either.
        #[test]
        fn batch_equivalence_survives_dropped_ack_injection(
            procs in 2usize..4,
            pages in 1usize..5,
            readers in proptest::collection::vec(any::<u64>(), 1..5),
            suspended in any::<u64>(),
            shoot in proptest::collection::vec(any::<u64>(), 1..8),
            seed in any::<u64>(),
        ) {
            let sc = Scenario::normalize(
                procs, pages, readers, suspended, shoot, false, false, Some(seed),
            );
            assert_equivalent(&sc)?;
        }
    }
}
