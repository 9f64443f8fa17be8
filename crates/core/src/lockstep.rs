//! The lockstep executor: one host thread owns every processor's context.
//!
//! Every deterministic mode of the simulator — the applications' stepped
//! phases, reference-trace replay, the open-loop server driver and
//! everything built on them — rests on
//! one argument: kernel entries happen one at a time in a fixed global
//! order, and a processor that is not running does nothing except
//! acknowledge shootdowns. [`Lockstep`] is that argument as code. It holds
//! the [`UserCtx`] of each processor, [`Lockstep::run`] executes one step
//! on one of them, and the only kernel wait that involves another
//! processor — the acknowledgment wait in `Kernel::batch_flush` — services
//! the awaited targets inline, in ascending processor order, before the
//! initiator's wait returns. No second thread exists, so no host schedule
//! can reorder anything: after a shootdown round no revoked translation is
//! usable, by construction.
//!
//! The mechanism is ownership, not a lock: for the duration of a step the
//! running context carries its peers (`UserCtx::peers`), so the ack wait
//! reaches them through the `&mut UserCtx` it already has. The executor's
//! order, not the skew window, keeps a member's clock in step with the
//! others: a context runs a step unheld by the window, which paces only
//! free-running threads.

use crate::user::UserCtx;

/// Processor contexts driven by a single host thread in caller-chosen
/// order. See the module docs.
pub struct Lockstep {
    /// Slot `p` holds processor `p`'s context (boxed: a step moves the
    /// runner out of and back into its slot).
    ctxs: Vec<Option<Box<UserCtx>>>,
}

impl Lockstep {
    /// An executor for processors `0..nprocs`, all slots empty.
    pub fn new(nprocs: usize) -> Self {
        let mut ctxs = Vec::new();
        ctxs.resize_with(nprocs, || None);
        Self { ctxs }
    }

    /// Takes ownership of an attached context; from now on it is serviced
    /// whenever another member's shootdown awaits it.
    ///
    /// # Panics
    ///
    /// Panics if the context's processor is outside `0..nprocs` or its
    /// slot is already taken.
    pub fn adopt(&mut self, ctx: UserCtx) {
        let p = ctx.core.id();
        let n = self.ctxs.len();
        let slot = self
            .ctxs
            .get_mut(p)
            .unwrap_or_else(|| panic!("lockstep: processor {p} outside 0..{n}"));
        assert!(slot.is_none(), "lockstep: processor {p} adopted twice");
        *slot = Some(Box::new(ctx));
    }

    /// Hands processor `p`'s context back to the caller (to read its final
    /// clock and counters, and to detach it by dropping).
    ///
    /// # Panics
    ///
    /// Panics if the executor does not own a context for `p`.
    pub fn release(&mut self, p: usize) -> UserCtx {
        *self.take(p)
    }

    /// Processor `p`'s context, to read between steps (panics like
    /// [`Lockstep::run`] if the executor does not own one).
    pub fn ctx(&self, p: usize) -> &UserCtx {
        self.ctxs
            .get(p)
            .and_then(Option::as_deref)
            .unwrap_or_else(|| panic!("lockstep: no context for processor {p}"))
    }

    /// Runs one step on processor `p`. Any shootdown the step initiates
    /// drains its awaited targets — the other contexts owned here — inline.
    ///
    /// # Panics
    ///
    /// Panics if the executor does not own a context for `p`, or (from the
    /// ack wait) if the step awaits a processor whose context is attached
    /// outside this executor: nothing would ever service it.
    pub fn run<R>(&mut self, p: usize, step: impl FnOnce(&mut UserCtx) -> R) -> R {
        let mut me = self.take(p);
        me.peers = Some(std::mem::take(&mut self.ctxs));
        let out = step(&mut me);
        self.ctxs = me.peers.take().expect("peers are held for the whole step");
        self.ctxs[p] = Some(me);
        out
    }

    fn take(&mut self, p: usize) -> Box<UserCtx> {
        self.ctxs
            .get_mut(p)
            .and_then(Option::take)
            .unwrap_or_else(|| panic!("lockstep: no context for processor {p}"))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use numa_machine::{Machine, MachineConfig, Mem};

    use super::*;
    use crate::{AddressSpace, Kernel, KernelConfig, Rights};

    /// A kernel on `nodes` processors with one mapped page; returns the
    /// page's address.
    fn boot(nodes: usize) -> (Arc<Kernel>, Arc<AddressSpace>, u64) {
        let machine = Machine::new(MachineConfig {
            nodes,
            frames_per_node: 16,
            skew_window_ns: None,
            ..MachineConfig::default()
        })
        .unwrap();
        let kernel = Kernel::boot(machine, KernelConfig::default());
        let space = kernel.create_space();
        let va = space
            .map_anywhere(kernel.create_object(1), Rights::RW)
            .unwrap();
        (kernel, space, va)
    }

    /// 65 processors put the last target in the spilled words of the
    /// awaited `ProcSet`; the inline drain must reach it like any other.
    #[test]
    fn drains_targets_beyond_the_inline_procset_word() {
        let (kernel, space, va) = boot(65);
        let mut procs = Lockstep::new(65);
        for p in 0..65 {
            procs.adopt(kernel.attach(Arc::clone(&space), p, 0).unwrap());
        }
        for p in 0..65 {
            procs.run(p, |ctx| ctx.read(va));
        }
        // The write invalidates 64 live replicas; with no other thread to
        // ack, it returns only because the wait drained every target.
        procs.run(0, |ctx| ctx.write(va, 7));
        for p in 1..65 {
            let ctx = procs.release(p);
            assert_eq!(ctx.counters().ipis_handled, 1, "processor {p}");
            procs.adopt(ctx);
        }
        assert_eq!(procs.run(64, |ctx| ctx.read(va)), 7);
    }

    /// A migration copies after its acknowledgments: every read-mapped
    /// peer has dropped its translation to the source frame before the
    /// transfer engine reads it, and the copy carries the last write.
    #[test]
    fn migration_copies_after_its_acks() {
        use platinum_trace::{EventKind, Tracer};

        let (kernel, space, va) = boot(3);
        let tracer = Tracer::new();
        assert!(kernel.install_tracer(Arc::clone(&tracer)));
        let mut procs = Lockstep::new(3);
        for p in 0..3 {
            procs.adopt(kernel.attach(Arc::clone(&space), p, 0).unwrap());
        }
        // Processor 1 writes; processor 2's read replicates the page and
        // restricts 1 to read-only, so no awaited target is a writer.
        procs.run(1, |ctx| ctx.write(va, 5));
        procs.run(2, |ctx| ctx.read(va));
        let before = tracer.snapshot().events.len();
        procs.run(0, |ctx| ctx.write(va + 4, 7));

        let trace = tracer.snapshot();
        let fault = &trace.events[before..];
        assert_eq!(trace.count(EventKind::Migrate), 1, "the write must migrate");
        let transfer = fault
            .iter()
            .position(|e| e.kind == EventKind::BlockTransfer)
            .expect("a migration transfers the page");
        assert_eq!(fault[transfer].proc, 0);
        let ackers: Vec<u16> = fault[..transfer]
            .iter()
            .filter(|e| e.kind == EventKind::ShootdownAck)
            .map(|e| e.proc)
            .collect();
        assert_eq!(ackers, [1, 2], "both peers ack before the copy starts");
        assert_eq!(procs.run(0, |ctx| (ctx.read(va), ctx.read(va + 4))), (5, 7));
    }

    /// A live target nobody drives must fail loudly, not spin forever.
    #[test]
    #[should_panic(expected = "processor 2 is an awaited shootdown target")]
    fn awaiting_a_context_outside_the_executor_panics() {
        let (kernel, space, va) = boot(3);
        let mut procs = Lockstep::new(3);
        for p in 0..2 {
            procs.adopt(kernel.attach(Arc::clone(&space), p, 0).unwrap());
        }
        let mut outside = kernel.attach(Arc::clone(&space), 2, 0).unwrap();
        procs.run(1, |ctx| ctx.read(va));
        outside.read(va);
        procs.run(0, |ctx| ctx.write(va, 1));
    }
}
