//! Precision tests: the shootdown mechanism's targeting claims (§3.1),
//! port semantics, thread migration and address-space switches.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use numa_machine::{Machine, MachineConfig, Mem};
use platinum::{AddressSpace, Kernel, KernelConfig, Rights, ShootdownMode, UserCtx};

fn machine(nodes: usize) -> Arc<Machine> {
    Machine::new(MachineConfig {
        nodes,
        frames_per_node: 64,
        skew_window_ns: None,
        ..MachineConfig::default()
    })
    .unwrap()
}

/// Runs `measured` on processor 0 while live poller threads keep
/// processors `pollers` active; each poller runs `warm` first.
fn with_pollers<T: Send>(
    kernel: &Arc<Kernel>,
    space: &Arc<AddressSpace>,
    pollers: &[usize],
    warm: impl Fn(usize, &mut UserCtx) + Sync,
    measured: impl FnOnce(&mut UserCtx) -> T + Send,
) -> T {
    let stop = AtomicBool::new(false);
    let ready = AtomicUsize::new(0);
    let (warm, stop_ref, ready_ref) = (&warm, &stop, &ready);
    std::thread::scope(|s| {
        for &p in pollers {
            let kernel = Arc::clone(kernel);
            let space = Arc::clone(space);
            s.spawn(move || {
                let mut ctx = kernel.attach(space, p, 0).unwrap();
                warm(p, &mut ctx);
                ready_ref.fetch_add(1, Ordering::Release);
                while !stop_ref.load(Ordering::Acquire) {
                    ctx.poll();
                    std::thread::yield_now();
                }
            });
        }
        let mut ctx = kernel.attach(Arc::clone(space), 0, 0).unwrap();
        while ready.load(Ordering::Acquire) < pollers.len() {
            std::thread::yield_now();
        }
        let out = measured(&mut ctx);
        stop.store(true, Ordering::Release);
        out
    })
}

/// "The set of target processors is thus restricted to those that are
/// actually using a mapping for this Cpage. Furthermore, a processor
/// need only be interrupted ... if the address space is currently
/// active" — live processors that never touched the page get no IPI.
#[test]
fn shootdown_interrupts_only_actual_users() {
    let kernel = Kernel::boot(machine(6), KernelConfig::default());
    let space = kernel.create_space();
    let object = kernel.create_object(2);
    let va = space.map_anywhere(object, Rights::RW).unwrap();
    let before = Arc::new(AtomicUsize::new(0));
    let before_ref = Arc::clone(&before);
    let kernel_ref = Arc::clone(&kernel);
    let sent = with_pollers(
        &kernel,
        &space,
        &[1, 2, 3, 4, 5],
        move |p, ctx| {
            if p <= 2 {
                // Processors 1 and 2 hold read mappings of the page.
                ctx.compute(20_000_000);
                let _ = ctx.read(va);
            } else {
                // 3..5 run in the same space but never touch the page.
                ctx.write(va + 4096, p as u32);
            }
            before_ref.store(
                kernel_ref.stats().snapshot().ipis_sent as usize,
                Ordering::Release,
            );
        },
        |ctx| {
            // Processor 0 creates its own copy (present+ w/ 1 and 2),
            // ages past t1, then writes: only 1 and 2 are interrupted.
            ctx.compute(20_000_000);
            let _ = ctx.read(va);
            ctx.compute(20_000_000);
            let before = kernel.stats().snapshot().ipis_sent;
            ctx.write(va, 9);
            kernel.stats().snapshot().ipis_sent - before
        },
    );
    assert_eq!(
        sent, 2,
        "exactly two IPIs (the replica holders); live processors that \
         never referenced the page are not interrupted"
    );
}

/// The Mach-style comparator interrupts *every* processor with the space
/// active, referenced or not — the count difference §3.1 criticizes.
#[test]
fn mach_comparator_interrupts_everyone_active() {
    let m = machine(6);
    let cfg = KernelConfig {
        shootdown: ShootdownMode::SharedPmapStall,
        ..Default::default()
    };
    let kernel = Kernel::boot(m, cfg);
    let space = kernel.create_space();
    let object = kernel.create_object(2);
    let va = space.map_anywhere(object, Rights::RW).unwrap();
    let kernel2 = Arc::clone(&kernel);
    let sent = with_pollers(
        &kernel,
        &space,
        &[1, 2, 3, 4, 5],
        move |p, ctx| {
            if p <= 2 {
                ctx.compute(20_000_000);
                let _ = ctx.read(va);
            } else {
                ctx.write(va + 4096, p as u32);
            }
        },
        |ctx| {
            ctx.compute(20_000_000);
            let _ = ctx.read(va);
            ctx.compute(20_000_000);
            let before = kernel2.stats().snapshot().ipis_sent;
            ctx.write(va, 9);
            kernel2.stats().snapshot().ipis_sent - before
        },
    );
    assert_eq!(
        sent, 5,
        "Mach mode interrupts every active processor regardless of \
         whether it referenced the page"
    );
}

/// With every target inactive, no IPI is sent at all — the change is
/// applied lazily from the message queue on reactivation.
#[test]
fn inactive_targets_get_messages_not_interrupts() {
    let kernel = Kernel::boot(machine(4), KernelConfig::default());
    let space = kernel.create_space();
    let object = kernel.create_object(1);
    let va = space.map_anywhere(object, Rights::RW).unwrap();
    let mut ctxs: Vec<_> = (0..4)
        .map(|p| kernel.attach(Arc::clone(&space), p, 0).unwrap())
        .collect();
    for c in ctxs.iter_mut() {
        c.compute(20_000_000);
        let _ = c.read(va);
    }
    for c in ctxs.iter_mut().skip(1) {
        c.suspend();
    }
    let before = kernel.stats().snapshot().ipis_sent;
    ctxs[0].compute(20_000_000);
    ctxs[0].write(va, 1);
    assert_eq!(
        kernel.stats().snapshot().ipis_sent - before,
        0,
        "no IPIs to inactive processors"
    );
    // The dying-copy holders (1, 2, 3) have pending messages; they apply
    // on resume.
    for p in 1..4 {
        assert!(
            !space.cmap().pending_for(p).is_empty(),
            "processor {p} must have a pending invalidation"
        );
    }
    ctxs[1].resume();
    assert_eq!(ctxs[1].read(va), 1);
    assert!(space.cmap().pending_for(1).is_empty(), "applied on resume");
}

#[test]
fn port_recv_step_and_multiple_senders() {
    let kernel = Kernel::boot(machine(3), KernelConfig::default());
    let space = kernel.create_space();
    let port = kernel.create_port();
    let mut rx = kernel.attach(Arc::clone(&space), 0, 0).unwrap();
    // An empty port: the stepped receive reports nothing and leaves the
    // receiver blocked in the kernel until a message is queued.
    let before = rx.vtime();
    assert!(rx.port_recv_step(&port).is_none(), "empty port");
    assert!(port.is_empty());
    assert_eq!(rx.vtime(), before, "an empty receive charges nothing");

    let mut a = kernel.attach(Arc::clone(&space), 1, 0).unwrap();
    let mut b = kernel.attach(Arc::clone(&space), 2, 0).unwrap();
    a.port_send(&port, &[1, 10]);
    b.port_send(&port, &[2, 20]);
    a.port_send(&port, &[1, 11]);
    assert_eq!(port.len(), 3);

    // FIFO overall; per-sender order preserved.
    let m1 = rx.port_recv(&port);
    let m2 = rx.port_recv(&port);
    let m3 = rx.port_recv_step(&port).expect("third message queued");
    let from_a: Vec<u32> = [&m1, &m2, &m3]
        .iter()
        .filter(|m| m[0] == 1)
        .map(|m| m[1])
        .collect();
    assert_eq!(from_a, vec![10, 11], "per-sender FIFO");
    assert!(port.is_empty());
    assert!(rx.port_recv_step(&port).is_none(), "drained");
}

#[test]
fn port_receive_advances_clock_past_send() {
    let kernel = Kernel::boot(machine(2), KernelConfig::default());
    let space = kernel.create_space();
    let port = kernel.create_port();
    let mut tx = kernel.attach(Arc::clone(&space), 0, 0).unwrap();
    let mut rx = kernel.attach(space, 1, 0).unwrap();
    tx.compute(5_000_000);
    tx.port_send(&port, &[1]);
    let sent_at = tx.vtime();
    let _ = rx.port_recv(&port);
    assert!(
        rx.vtime() >= sent_at,
        "message causality: receive at {} cannot precede send at {sent_at}",
        rx.vtime()
    );
}

/// A migration moves the thread to its new processor under the same
/// global name; every attach gets a fresh one.
#[test]
fn migration_moves_the_thread_and_keeps_its_name() {
    let kernel = Kernel::boot(machine(4), KernelConfig::default());
    let space = kernel.create_space();
    let id = {
        let mut ctx = kernel.attach(Arc::clone(&space), 0, 0).unwrap();
        let id = ctx.thread_id();
        assert_eq!(ctx.core().id(), 0);
        ctx.suspend();
        ctx.resume();

        ctx.migrate(2).unwrap();
        assert_eq!(ctx.core().id(), 2);
        assert_eq!(ctx.thread_id(), id, "a migration keeps the name");
        // The old processor is free again, the new one taken.
        assert!(kernel.attach(Arc::clone(&space), 0, 0).is_ok());
        assert!(kernel.attach(Arc::clone(&space), 2, 0).is_err());
        id
    };

    // A second thread gets a fresh global name.
    let ctx2 = kernel.attach(space, 1, 0).unwrap();
    assert_ne!(ctx2.thread_id(), id);
}

#[test]
fn switch_space_protects_old_mappings() {
    let kernel = Kernel::boot(machine(2), KernelConfig::default());
    let s1 = kernel.create_space();
    let s2 = kernel.create_space();
    let o1 = kernel.create_object(1);
    let va1 = s1.map_anywhere(o1, Rights::RW).unwrap();

    let mut ctx = kernel.attach(Arc::clone(&s1), 0, 0).unwrap();
    ctx.write(va1, 123);
    ctx.switch_space(Arc::clone(&s2));
    assert_eq!(ctx.space().id(), s2.id());
    // va1 is not mapped in s2.
    assert!(ctx.try_read(va1).is_err());
    ctx.switch_space(s1);
    assert_eq!(ctx.read(va1), 123);
}
