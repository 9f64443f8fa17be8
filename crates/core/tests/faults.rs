//! Integration tests for deterministic fault injection and the kernel's
//! graceful-degradation ladders: replay determinism, escalation to a
//! frozen page and its defrost, block-transfer retry, and the
//! frame-allocation fallback ring.

use std::sync::Arc;

use numa_machine::{Machine, MachineConfig, Mem};
use platinum::trace::{EventKind, TraceEvent, Tracer};
use platinum::{FaultPlan, FaultSite, Kernel, KernelConfig, KernelError, Rights, UserCtx};

fn machine(nodes: usize) -> Arc<Machine> {
    Machine::new(MachineConfig {
        nodes,
        frames_per_node: 64,
        skew_window_ns: None,
        ..MachineConfig::default()
    })
    .unwrap()
}

fn kernel_with_plan(nodes: usize, plan: Arc<FaultPlan>) -> Arc<Kernel> {
    Kernel::boot(
        machine(nodes),
        KernelConfig {
            faults: Some(plan),
            ..KernelConfig::default()
        },
    )
}

fn setup(nodes: usize, plan: Arc<FaultPlan>) -> (Arc<Kernel>, Arc<Tracer>, u64, Vec<UserCtx>) {
    let kernel = kernel_with_plan(nodes, plan);
    let tracer = Tracer::new();
    assert!(kernel.install_tracer(Arc::clone(&tracer)));
    let space = kernel.create_space();
    let object = kernel.create_object(4);
    let va = space.map_anywhere(object, Rights::RW).unwrap();
    let ctxs = (0..nodes)
        .map(|p| kernel.attach(Arc::clone(&space), p, 0).unwrap())
        .collect();
    (kernel, tracer, va, ctxs)
}

/// A deterministic sequential schedule with enough protocol traffic
/// (replication, invalidation, migration) to give every injection site a
/// chance to fire.
fn scripted_run(plan: Arc<FaultPlan>) -> (Vec<u32>, Vec<TraceEvent>, u64) {
    const P: usize = 4;
    let (kernel, tracer, va, mut ctxs) = setup(P, plan);
    let page_bytes = (kernel.machine().cfg().words_per_page() * 4) as u64;
    let mut values = Vec::new();
    // Exactly one processor is active at any step, so shootdowns always
    // find their targets inactive (applied lazily, never awaited) and
    // the schedule is sequential-safe even with injection everywhere.
    for ctx in &mut ctxs[1..] {
        ctx.suspend();
    }
    let mut active = 0usize;
    for round in 0..6u32 {
        for w in 0..P {
            for actor in std::iter::once(w).chain((0..P).filter(|&p| p != w)) {
                if actor != active {
                    ctxs[active].suspend();
                    ctxs[actor].resume();
                    active = actor;
                }
                let a = va + (w as u64 % 4) * page_bytes;
                if actor == w {
                    ctxs[w].write(a, round * 100 + w as u32);
                }
                values.push(ctxs[actor].read(a));
            }
        }
    }
    let vtime = ctxs.iter().map(|c| c.vtime()).max().unwrap();
    (values, tracer.snapshot().events, vtime)
}

/// Running the same schedule under the same plan twice reproduces the
/// exact injected-event sequence — the fault schedule is replayable, not
/// merely statistically similar.
#[test]
fn same_plan_same_schedule_replays_bit_identically() {
    let mk = || Arc::new(FaultPlan::chaos(1234, 80_000));
    let (v1, t1, vt1) = scripted_run(mk());
    let (v2, t2, vt2) = scripted_run(mk());
    assert_eq!(v1, v2, "observed values diverged across replays");
    assert_eq!(vt1, vt2, "virtual time diverged across replays");
    assert_eq!(t1.len(), t2.len(), "trace lengths diverged");
    for (a, b) in t1.iter().zip(&t2) {
        assert_eq!(
            (a.vtime, a.kind, a.code, a.page, a.arg),
            (b.vtime, b.kind, b.code, b.page, b.arg),
            "trace event diverged"
        );
    }
    let injected = t1
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::MemError
                    | EventKind::ShootdownTimeout
                    | EventKind::TransferFault
                    | EventKind::AllocFault
            )
        })
        .count();
    assert!(injected > 0, "the plan never fired; determinism is vacuous");
}

/// Dropping every shootdown ack exhausts the retry budget, and the
/// kernel escalates: the page is frozen in place (the paper's degraded
/// mode) rather than left incoherent. The defrost daemon later thaws it
/// and replication resumes.
#[test]
fn exhausted_ack_retries_escalate_to_freeze_then_defrost() {
    let plan = Arc::new(FaultPlan::new(9).with_rate(FaultSite::ShootdownAck, 1_000_000));
    let (kernel, tracer, va, mut ctxs) = setup(2, plan);

    // Writer establishes the page and suspends (so the reader's
    // replicate applies its downgrade lazily, without awaiting an ack
    // from a parked thread); a *live* reader then replicates it. Only
    // active targets are interrupted, so escalation needs the reader's
    // processor to keep the space active and keep servicing its
    // doorbell while the writer invalidates and every IPI is dropped.
    ctxs[0].write(va, 7);
    ctxs[0].suspend();
    let mut reader = ctxs.remove(1);
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(move || {
            assert_eq!(reader.read(va), 7, "replica carries the data");
            ready_tx.send(()).unwrap();
            // Spin on the page until the writer's update lands; each
            // access services pending shootdown interrupts.
            while reader.read(va) != 8 {
                std::hint::spin_loop();
            }
        });
        ready_rx.recv().unwrap();
        ctxs[0].resume();
        ctxs[0].write(va, 8);
    });

    let page = kernel.cpage_for_va(ctxs[0].space(), va).unwrap();
    assert!(page.lock().frozen, "escalation must freeze the page");
    let s = kernel.stats().snapshot();
    assert!(s.shootdown_timeouts > 0, "timeouts were injected");
    assert_eq!(s.freezes, 1);

    let trace = tracer.snapshot();
    let freeze = trace
        .of_kind(EventKind::Freeze)
        .next()
        .expect("freeze event recorded");
    assert_eq!(freeze.code, 2, "code 2 marks a degraded-mode freeze");
    let recovery = trace
        .of_kind(EventKind::FaultRecovery)
        .find(|e| e.code == FaultSite::ShootdownAck as u8)
        .expect("the resend ladder records its recovery span");
    assert!(recovery.arg <= recovery.vtime, "span begins before it ends");

    // Degraded mode still works — the frozen page serves remote
    // references — and the daemon eventually thaws it.
    let space = Arc::clone(ctxs[0].space());
    let mut reader = kernel.attach(space, 1, 0).unwrap();
    assert_eq!(reader.read(va), 8, "frozen page reads coherently");
    // The thaw's own shootdown must find the reader inactive — both
    // contexts are driven from this one thread, so an awaited ack from
    // an active reader could never be serviced.
    reader.suspend();
    kernel.run_defrost(&mut ctxs[0]);
    reader.resume();
    assert!(!page.lock().frozen, "defrost thaws the escalated page");
    assert_eq!(reader.read(va), 8, "replication works again after thaw");
    assert_eq!(kernel.stats().snapshot().thaws, 1);
}

/// A block transfer that fails mid-copy is retried whole-page; the
/// destination is never published with a torn prefix, so every word of
/// the replica matches the source.
#[test]
fn failed_block_transfer_retries_whole_page() {
    let plan = Arc::new(FaultPlan::new(5).with_rate(FaultSite::BlockTransfer, 1_000_000));
    let (kernel, tracer, va, mut ctxs) = setup(2, plan);
    let words = kernel.machine().cfg().words_per_page().min(64);

    for w in 0..words as u64 {
        ctxs[0].write(va + 4 * w, 0xA000_0000 | w as u32);
    }
    ctxs[0].suspend();
    ctxs[1].resume();
    for w in 0..words as u64 {
        assert_eq!(
            ctxs[1].read(va + 4 * w),
            0xA000_0000 | w as u32,
            "word {w} torn by a failed transfer"
        );
    }

    let s = kernel.stats().snapshot();
    assert!(s.transfer_faults > 0, "transfer faults were injected");
    assert!(s.fault_recoveries > 0, "and recovered from");
    let trace = tracer.snapshot();
    assert!(trace.count(EventKind::TransferFault) > 0);
    for r in trace.of_kind(EventKind::FaultRecovery) {
        assert!(r.arg <= r.vtime, "malformed recovery span");
    }
}

/// A transient read error during a replication copy is recovered by
/// re-reading (or switching source copies); the replica is still exact.
#[test]
fn transient_read_errors_recover_with_correct_data() {
    let plan = Arc::new(FaultPlan::new(11).with_rate(FaultSite::FrameRead, 1_000_000));
    let (kernel, _tracer, va, mut ctxs) = setup(2, plan);

    ctxs[0].write(va, 0xCAFE);
    ctxs[0].suspend();
    ctxs[1].resume();
    assert_eq!(ctxs[1].read(va), 0xCAFE);

    let s = kernel.stats().snapshot();
    assert!(s.mem_errors > 0, "read errors were injected");
    assert!(s.fault_recoveries > 0, "and recovered from");
}

/// A module that refuses allocations redirects them to the next-best
/// module in the ring; OutOfMemory surfaces only when every module
/// refuses.
#[test]
fn alloc_denial_falls_back_to_next_module() {
    let plan = Arc::new(FaultPlan::new(3).with_alloc_deny_mask(1 << 0));
    let (kernel, _tracer, va, mut ctxs) = setup(2, plan);

    // Processor 0's first touch would normally land on module 0; the
    // deny mask forces the frame onto module 1.
    ctxs[0].write(va, 42);
    assert_eq!(ctxs[0].read(va), 42);
    let page = kernel.cpage_for_va(ctxs[0].space(), va).unwrap();
    {
        let g = page.lock();
        assert_eq!(g.copies.len(), 1);
        assert_eq!(
            g.copies[0].module_id(),
            1,
            "frame must land on the module that accepted the allocation"
        );
    }
    let s = kernel.stats().snapshot();
    assert!(s.alloc_faults > 0, "the refusal was recorded");
    assert!(s.fault_recoveries > 0, "so was the fallback recovery");
}

/// With every module refusing, allocation fails with OutOfMemory — and
/// the fallible access path reports it instead of panicking.
#[test]
fn alloc_denied_everywhere_is_out_of_memory() {
    let plan = Arc::new(FaultPlan::new(3).with_alloc_deny_mask(0b11));
    let kernel = kernel_with_plan(2, plan);
    let space = kernel.create_space();
    let object = kernel.create_object(1);
    let va = space.map_anywhere(object, Rights::RW).unwrap();
    let mut ctx = kernel.attach(space, 0, 0).unwrap();
    match ctx.try_write(va, 1) {
        Err(KernelError::OutOfMemory) => {}
        other => panic!("expected OutOfMemory, got {other:?}"),
    }
}

/// The deny mask names modules 0-63: on a machine with more processors, a
/// module past bit 63 is never denied (and does not alias module 0), so
/// processor 64's first touch lands on its own module.
#[test]
fn deny_mask_leaves_modules_past_64_alone() {
    let plan = Arc::new(FaultPlan::new(3).with_alloc_deny_mask(1));
    let kernel = kernel_with_plan(65, plan);
    let space = kernel.create_space();
    let object = kernel.create_object(1);
    let va = space.map_anywhere(object, Rights::RW).unwrap();
    let mut ctx = kernel.attach(Arc::clone(&space), 64, 0).unwrap();
    ctx.write(va, 64);
    let page = kernel.cpage_for_va(&space, va).unwrap();
    let g = page.lock();
    assert_eq!(g.copies.len(), 1);
    assert_eq!(g.copies[0].module_id(), 64, "first touch stays local");
    assert_eq!(kernel.stats().snapshot().alloc_faults, 0, "nothing refused");
}
