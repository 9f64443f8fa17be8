//! End-to-end tests of the tracer wired through the kernel: drive real
//! protocol scenarios, then check the recorded event stream — kinds,
//! processors, pages, ordering, agreement with the aggregate counters,
//! and the exported Chrome JSON.

use std::sync::Arc;

use numa_machine::{Machine, MachineConfig, Mem};
use platinum::trace::{chrome, EventKind, FaultResolution, Tracer};
use platinum::{CpState, Kernel, KernelConfig, Rights, UserCtx};

fn traced_setup(nodes: usize) -> (Arc<Kernel>, Arc<Tracer>, u64, Vec<UserCtx>) {
    let machine = Machine::new(MachineConfig {
        nodes,
        frames_per_node: 64,
        skew_window_ns: None,
        ..MachineConfig::default()
    })
    .unwrap();
    let kernel = Kernel::boot(machine, KernelConfig::default());
    let tracer = Tracer::new();
    assert!(kernel.install_tracer(Arc::clone(&tracer)));
    let space = kernel.create_space();
    let object = kernel.create_object(4);
    let va = space.map_anywhere(object, Rights::RW).unwrap();
    let ctxs: Vec<UserCtx> = (0..nodes)
        .map(|p| kernel.attach(Arc::clone(&space), p, 0).unwrap())
        .collect();
    (kernel, tracer, va, ctxs)
}

/// The ping-pong freeze of `protocol.rs`, but asserted on the trace:
/// which processor froze the page, what preceded it, and that the
/// defrost daemon's thaw closes the story.
#[test]
fn freeze_and_thaw_appear_in_trace_order() {
    let (kernel, tracer, va, mut ctxs) = traced_setup(2);
    ctxs[0].write(va, 1);
    ctxs[0].suspend();
    ctxs[1].write(va, 2); // migrate: stamps invalidation history
    ctxs[1].suspend();
    ctxs[0].resume();
    ctxs[0].write(va, 3); // within t1: freeze (emitted by cpu 0)
    kernel.run_defrost(&mut ctxs[0]); // thaw

    let trace = tracer.snapshot();
    assert_eq!(trace.dropped, 0);

    let page = kernel.cpage_for_va(ctxs[0].space(), va).unwrap().id().0;
    let freezes: Vec<_> = trace.of_kind(EventKind::Freeze).collect();
    assert_eq!(freezes.len(), 1);
    assert_eq!(freezes[0].proc, 0, "cpu 0 took the freezing fault");
    assert_eq!(freezes[0].page, page);
    assert!(
        freezes[0].arg < 10_000_000,
        "freeze records the invalidation age, which must be inside t1 \
         (got {} ns)",
        freezes[0].arg
    );

    let thaws: Vec<_> = trace.of_kind(EventKind::Thaw).collect();
    assert_eq!(thaws.len(), 1);
    assert_eq!(thaws[0].page, page);
    assert_eq!(thaws[0].code, 0, "code 0 = defrost-daemon thaw");
    assert!(thaws[0].seq > freezes[0].seq, "thaw follows the freeze");
    assert!(thaws[0].vtime >= freezes[0].vtime);

    // The freeze was triggered by interleaved-write invalidation.
    let invalidations: Vec<_> = trace.of_kind(EventKind::Invalidate).collect();
    assert!(!invalidations.is_empty());
    assert!(
        invalidations.iter().any(|e| e.seq < freezes[0].seq),
        "an invalidation precedes the freeze"
    );

    // A defrost run bracketed the thaw and reports what it did.
    let runs: Vec<_> = trace.of_kind(EventKind::DefrostRun).collect();
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].page, 1, "one page examined");
    assert_eq!(runs[0].arg, 1, "one page thawed");
}

/// Every fault produces a begin and, on success, a matched end on the
/// same processor with `begin <= end` in virtual time.
#[test]
fn fault_begin_end_pairs_match() {
    let (_kernel, tracer, va, mut ctxs) = traced_setup(3);
    ctxs[0].write(va, 1);
    ctxs[0].suspend();
    let _ = ctxs[1].read(va);
    ctxs[1].suspend(); // ctx2's write below shoots this mapping down
    let _ = ctxs[2].read(va + 4);
    ctxs[2].write(va + 4, 9);

    let trace = tracer.snapshot();
    let begins = trace.count(EventKind::FaultBegin);
    let ends = trace.count(EventKind::FaultEnd);
    assert_eq!(begins, ends, "every successful fault closes its span");
    assert!(begins >= 4);
    for e in trace.of_kind(EventKind::FaultEnd) {
        assert!(
            e.arg <= e.vtime,
            "fault end carries its begin time: {} > {}",
            e.arg,
            e.vtime
        );
        assert!(FaultResolution::from_u8(e.code).is_some());
    }
    // First touch on cpu0's write, replication on cpu1's read.
    let resolutions: Vec<u8> = trace.of_kind(EventKind::FaultEnd).map(|e| e.code).collect();
    assert!(resolutions.contains(&(FaultResolution::FirstTouch as u8)));
    assert!(resolutions.contains(&(FaultResolution::Replicated as u8)));
}

/// The aggregate counters are derived from the same choke point as the
/// trace, so for every kind: counter == number of traced events.
#[test]
fn counters_agree_with_trace() {
    let (kernel, tracer, va, mut ctxs) = traced_setup(3);
    ctxs[0].write(va, 1);
    ctxs[0].suspend();
    let _ = ctxs[1].read(va);
    ctxs[1].suspend();
    ctxs[2].write(va, 2);
    ctxs[2].suspend();
    ctxs[0].resume();
    ctxs[0].write(va, 3);
    kernel.run_defrost(&mut ctxs[0]);

    let trace = tracer.snapshot();
    assert_eq!(trace.dropped, 0, "agreement only holds with no drops");
    for kind in EventKind::ALL.into_iter().filter(|k| k.kernel_recorded()) {
        assert_eq!(
            kernel.stats().count(kind),
            trace.count(kind) as u64,
            "counter and trace disagree on {}",
            kind.name()
        );
    }
    // And the named snapshot fields line up with protocol reality.
    let s = kernel.stats().snapshot();
    assert_eq!(s.freezes, 1);
    assert_eq!(s.thaws, 1);
    assert!(s.migrations >= 1);
}

/// The exported Chrome JSON puts the freeze instant on the emitting
/// processor's track with the virtual timestamp in microseconds.
#[test]
fn chrome_export_places_events_on_processor_tracks() {
    let (kernel, tracer, va, mut ctxs) = traced_setup(2);
    ctxs[0].write(va, 1);
    ctxs[0].suspend();
    ctxs[1].write(va, 2);
    ctxs[1].suspend();
    ctxs[0].resume();
    ctxs[0].write(va, 3); // freeze on cpu 0
    kernel.run_defrost(&mut ctxs[0]);

    let trace = tracer.snapshot();
    let freeze = trace.of_kind(EventKind::Freeze).next().expect("a freeze");
    assert_eq!(freeze.proc, 0);
    let json = chrome::chrome_trace_string(&trace);

    // The exact record the exporter must have produced for this event.
    let expected = format!(
        "{{\"name\":\"freeze\",\"cat\":\"protocol\",\"ph\":\"i\",\"s\":\"t\",\
         \"pid\":{},\"tid\":{},\"ts\":{}.{:03},",
        freeze.phase,
        freeze.proc,
        freeze.vtime / 1000,
        freeze.vtime % 1000
    );
    assert!(
        json.contains(&expected),
        "freeze instant missing or on the wrong track;\nwanted {expected}"
    );
    assert!(json.contains("\"name\":\"thaw\""));
    assert!(json.contains("\"name\":\"cpu0\""));
    assert!(json.contains("\"name\":\"cpu1\""));
    // Fault slices span begin->end.
    assert!(json.contains("\"ph\":\"X\""));
}

/// With no tracer installed the kernel still counts events — tracing is
/// observability, not bookkeeping.
#[test]
fn counters_work_without_tracer() {
    let machine = Machine::new(MachineConfig {
        nodes: 2,
        frames_per_node: 64,
        skew_window_ns: None,
        ..MachineConfig::default()
    })
    .unwrap();
    let kernel = Kernel::boot(machine, KernelConfig::default());
    assert!(kernel.tracer().is_none());
    let space = kernel.create_space();
    let object = kernel.create_object(1);
    let va = space.map_anywhere(object, Rights::RW).unwrap();
    let mut ctx = kernel.attach(Arc::clone(&space), 0, 0).unwrap();
    ctx.write(va, 5);
    assert_eq!(ctx.read(va), 5);
    let s = kernel.stats().snapshot();
    assert_eq!(s.faults, 1, "one coherent fault, counted tracelessly");
}

/// A second `install_tracer` is rejected; the first stays in place.
#[test]
fn install_tracer_is_first_wins() {
    let (kernel, tracer, va, mut ctxs) = traced_setup(2);
    let other = Tracer::new();
    assert!(!kernel.install_tracer(Arc::clone(&other)));
    ctxs[0].write(va, 1);
    assert!(tracer.emitted() > 0, "events go to the first tracer");
    assert_eq!(other.emitted(), 0);
    assert_eq!(
        kernel
            .cpage_for_va(ctxs[0].space(), va)
            .unwrap()
            .lock()
            .state,
        CpState::Modified
    );
}

/// The tracer accepts every processor a valid machine has: on a 65-node
/// machine, processor 64's first write is recorded on its own track.
#[test]
fn tracer_records_processors_beyond_64() {
    let machine = Machine::new(MachineConfig {
        nodes: 65,
        frames_per_node: 4,
        skew_window_ns: None,
        ..MachineConfig::default()
    })
    .unwrap();
    let kernel = Kernel::boot(machine, KernelConfig::default());
    let tracer = Tracer::new();
    assert!(kernel.install_tracer(Arc::clone(&tracer)));
    let space = kernel.create_space();
    let va = space
        .map_anywhere(kernel.create_object(1), Rights::RW)
        .unwrap();
    let mut ctx = kernel.attach(space, 64, 0).unwrap();
    ctx.write(va, 1);
    assert_eq!(ctx.read(va), 1);
    let trace = tracer.snapshot();
    assert!(trace.count(EventKind::FaultBegin) >= 1);
    assert!(trace.events.iter().all(|e| e.proc == 64));
    assert_eq!(trace.nprocs(), 65);
}
