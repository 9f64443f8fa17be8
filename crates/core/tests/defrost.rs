//! Tests of the defrost daemon beyond the happy path: empty runs, pages
//! thawed between enrollment and activation, a thaw racing live faults
//! on the same Cpage from real threads, and the t2 activation schedule
//! under the virtual-clock skew window.

use std::sync::Arc;

use numa_machine::{Machine, MachineConfig, Mem};
use platinum::trace::{EventKind, Tracer};
use platinum::{Kernel, KernelConfig, Rights, UserCtx};

fn machine_with(nodes: usize, skew: Option<u64>) -> Arc<Machine> {
    Machine::new(MachineConfig {
        nodes,
        frames_per_node: 64,
        skew_window_ns: skew,
        ..MachineConfig::default()
    })
    .unwrap()
}

fn setup(nodes: usize) -> (Arc<Kernel>, u64, Vec<UserCtx>) {
    let kernel = Kernel::boot(machine_with(nodes, None), KernelConfig::default());
    let space = kernel.create_space();
    let object = kernel.create_object(2);
    let va = space.map_anywhere(object, Rights::RW).unwrap();
    let ctxs = (0..nodes)
        .map(|p| kernel.attach(Arc::clone(&space), p, 0).unwrap())
        .collect();
    (kernel, va, ctxs)
}

fn freeze_page(va: u64, ctxs: &mut [UserCtx]) {
    ctxs[0].write(va, 1);
    ctxs[0].suspend();
    ctxs[1].write(va, 2);
    ctxs[1].suspend();
    ctxs[0].resume();
    ctxs[0].write(va, 3);
}

#[test]
fn empty_frozen_list_run_is_harmless() {
    let (kernel, va, mut ctxs) = setup(2);
    ctxs[0].write(va, 1);
    for _ in 0..3 {
        kernel.run_defrost(&mut ctxs[0]);
    }
    let s = kernel.stats().snapshot();
    assert_eq!(s.defrost_runs, 3, "every run counts, even an empty one");
    assert_eq!(s.thaws, 0);
    assert_eq!(ctxs[0].read(va), 1, "memory is untouched");
}

/// A page thawed between enrollment and the daemon's activation (here by
/// the explicit thaw call exposed to run-time support) must be skipped:
/// the daemon examines it but thaws nothing.
#[test]
fn daemon_skips_page_thawed_since_enrollment() {
    let (kernel, va, mut ctxs) = setup(2);
    let tracer = Tracer::new();
    kernel.install_tracer(Arc::clone(&tracer));
    freeze_page(va, &mut ctxs);
    assert!(
        kernel
            .cpage_for_va(ctxs[0].space(), va)
            .unwrap()
            .lock()
            .frozen
    );

    ctxs[0].thaw(va).unwrap(); // beats the daemon to it
    kernel.run_defrost(&mut ctxs[0]);

    let s = kernel.stats().snapshot();
    assert_eq!(s.freezes, 1);
    assert_eq!(s.thaws, 1, "only the explicit thaw; the daemon added none");
    let run = tracer
        .snapshot()
        .of_kind(EventKind::DefrostRun)
        .next()
        .copied()
        .expect("one daemon run");
    assert_eq!(run.page, 1, "the enrolled page was examined");
    assert_eq!(run.arg, 0, "but nothing was thawed");
}

/// Freezing the same page again after a thaw re-enrolls it, and the next
/// daemon run thaws it again — enrollment is per freeze, not per page
/// lifetime.
#[test]
fn refreeze_after_thaw_reenrolls() {
    let (kernel, va, mut ctxs) = setup(2);
    freeze_page(va, &mut ctxs);
    kernel.run_defrost(&mut ctxs[0]);
    assert!(
        !kernel
            .cpage_for_va(ctxs[0].space(), va)
            .unwrap()
            .lock()
            .frozen
    );

    // Same interleaving, still inside t1 of the defrost invalidation:
    // freezes again.
    ctxs[0].suspend();
    ctxs[1].resume();
    ctxs[1].write(va, 4);
    ctxs[1].suspend();
    ctxs[0].resume();
    ctxs[0].write(va, 5);
    assert!(
        kernel
            .cpage_for_va(ctxs[0].space(), va)
            .unwrap()
            .lock()
            .frozen
    );

    kernel.run_defrost(&mut ctxs[0]);
    let s = kernel.stats().snapshot();
    assert_eq!(s.freezes, 2);
    assert_eq!(s.thaws, 2);
    ctxs[1].resume();
    assert_eq!(ctxs[1].read(va), 5, "data survives the whole dance");
}

/// Real threads: faulting workers hammer one Cpage (freezing it over and
/// over) while another processor repeatedly runs the daemon, so thaws
/// race live faults on the same page. Coherence and liveness must hold,
/// and every freeze/thaw transition must stay consistent.
#[test]
fn thaw_races_concurrent_faults() {
    const WORKERS: usize = 3;
    const OPS: u32 = 2_000;
    let kernel = Kernel::boot(
        machine_with(WORKERS + 1, Some(5_000_000)),
        KernelConfig::default(),
    );
    let space = kernel.create_space();
    let object = kernel.create_object(1);
    let va = space.map_anywhere(object, Rights::RW).unwrap();

    std::thread::scope(|s| {
        for p in 0..WORKERS {
            let kernel = Arc::clone(&kernel);
            let space = Arc::clone(&space);
            s.spawn(move || {
                let mut ctx = kernel.attach(space, p, 0).unwrap();
                for _ in 0..OPS {
                    ctx.fetch_add(va, 1);
                }
            });
        }
        // The daemon's processor: thaw whatever froze, as fast as the
        // workers can freeze it.
        let kernel2 = Arc::clone(&kernel);
        let space2 = Arc::clone(&space);
        s.spawn(move || {
            let mut ctx = kernel2.attach(space2, WORKERS, 0).unwrap();
            for _ in 0..200 {
                kernel2.run_defrost(&mut ctx);
                ctx.compute(50_000);
                std::thread::yield_now();
            }
            ctx.suspend();
        });
    });

    let mut ctx = kernel.attach(space, 0, 0).unwrap();
    assert_eq!(
        ctx.read(va),
        WORKERS as u32 * OPS,
        "no update lost across freeze/thaw races"
    );
    let s = kernel.stats().snapshot();
    assert!(s.defrost_runs >= 200);
    let page = kernel.cpage_for_va(ctx.space(), va).unwrap();
    let g = page.lock();
    g.check_invariants().unwrap();
    assert!(
        u64::from(g.thaws) <= s.thaws,
        "per-page thaw count cannot exceed the machine total"
    );
}

/// The t2 schedule under a skew window: the daemon activates only when a
/// processor's clock crosses the next scheduled tick, activations are
/// spaced at least t2 apart in virtual time, and none fires before the
/// first tick. Driven deterministically from one processor (the other is
/// suspended and publishes idle, so the window machinery runs in the
/// entry path without ever throttling the driver).
#[test]
fn t2_activation_ordering_under_skew_window() {
    const T2: u64 = 2_000_000; // 2 ms, small enough to hit repeatedly
    let kernel = Kernel::boot(
        machine_with(2, Some(5_000_000)),
        KernelConfig {
            t2_defrost_ns: T2,
            ..KernelConfig::default()
        },
    );
    let tracer = Tracer::new();
    kernel.install_tracer(Arc::clone(&tracer));
    let space = kernel.create_space();
    let object = kernel.create_object(1);
    let va = space.map_anywhere(object, Rights::RW).unwrap();
    let mut other = kernel.attach(Arc::clone(&space), 1, 0).unwrap();
    other.suspend();
    let mut ctx = kernel.attach(space, 0, 0).unwrap();

    // ~40 ms of virtual time, with enough accesses for the entry path to
    // poll the daemon's schedule regularly.
    for i in 0..400u32 {
        ctx.compute(100_000);
        ctx.write(va + u64::from(i % 8) * 4, i);
        let _ = ctx.read(va);
    }

    let trace = tracer.snapshot();
    let mut runs: Vec<_> = trace.of_kind(EventKind::DefrostRun).copied().collect();
    assert!(
        runs.len() >= 2,
        "40 ms of virtual work at t2 = 2 ms must activate the daemon repeatedly \
         (got {})",
        runs.len()
    );
    // Activations are claimed by CAS on the next-run tick: each claim
    // reschedules the next one t2 later, so activation times never
    // regress and consecutive activations are at least t2 apart.
    runs.sort_by_key(|e| e.seq);
    for pair in runs.windows(2) {
        assert!(
            pair[1].vtime >= pair[0].vtime + T2,
            "daemon activations closer than t2: {} then {}",
            pair[0].vtime,
            pair[1].vtime
        );
    }
    // The first activation cannot precede the first scheduled tick, and
    // n activations need at least n*t2 of virtual time.
    assert!(runs[0].vtime >= T2);
    let last = runs.last().unwrap().vtime;
    assert!(runs.len() as u64 <= last / T2);
}
