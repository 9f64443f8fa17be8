//! Multithreaded stress tests of the kernel: real OS threads drive real
//! simulated processors, so these exercise the concurrent fault handler,
//! cross-shootdowns between simultaneous initiators, the IPI doorbell
//! polling that prevents initiator deadlock, and data coherence under
//! replication/migration/freezing.
//!
//! Because replicas are genuine copies of real memory, any protocol bug
//! that lets replicas diverge or loses an update fails these assertions.

use std::sync::Arc;

use numa_machine::{Machine, MachineConfig, Mem};
use platinum::{Kernel, KernelConfig, PolicyKind, Rights};

fn machine(nodes: usize) -> Arc<Machine> {
    Machine::new(MachineConfig {
        nodes,
        frames_per_node: 128,
        skew_window_ns: Some(5_000_000),
        ..MachineConfig::default()
    })
    .unwrap()
}

#[test]
fn shared_counter_no_lost_updates() {
    const THREADS: usize = 4;
    const OPS: u32 = 5_000;
    let kernel = Kernel::boot(machine(THREADS), KernelConfig::default());
    let space = kernel.create_space();
    let object = kernel.create_object(1);
    let va = space.map_anywhere(object, Rights::RW).unwrap();

    std::thread::scope(|s| {
        for p in 0..THREADS {
            let kernel = Arc::clone(&kernel);
            let space = Arc::clone(&space);
            s.spawn(move || {
                let mut ctx = kernel.attach(space, p, 0).unwrap();
                for _ in 0..OPS {
                    ctx.fetch_add(va, 1);
                }
            });
        }
    });

    let mut ctx = kernel.attach(space, 0, 0).unwrap();
    assert_eq!(ctx.read(va), THREADS as u32 * OPS);
    // Interleaved atomic writes from every node must have frozen the page.
    let page = kernel.cpage_for_va(ctx.space(), va).unwrap();
    assert_eq!(page.lock().copies.len(), 1);
}

#[test]
fn per_word_monotonicity_under_replication() {
    // One writer bumps every word of a page through increasing versions;
    // readers replicate concurrently. Coherence requires that no reader
    // ever observes a word going backwards.
    const WORDS: u64 = 64;
    const ROUNDS: u32 = 300;
    const READERS: usize = 3;
    let kernel = Kernel::boot(machine(READERS + 1), KernelConfig::default());
    let space = kernel.create_space();
    let object = kernel.create_object(1);
    let va = space.map_anywhere(object, Rights::RW).unwrap();

    std::thread::scope(|s| {
        // Writer on processor 0.
        {
            let kernel = Arc::clone(&kernel);
            let space = Arc::clone(&space);
            s.spawn(move || {
                let mut ctx = kernel.attach(space, 0, 0).unwrap();
                for round in 1..=ROUNDS {
                    for w in 0..WORDS {
                        ctx.write(va + 4 * w, round);
                    }
                }
            });
        }
        for p in 1..=READERS {
            let kernel = Arc::clone(&kernel);
            let space = Arc::clone(&space);
            s.spawn(move || {
                let mut ctx = kernel.attach(space, p, 0).unwrap();
                let mut last = [0u32; WORDS as usize];
                for _ in 0..ROUNDS {
                    for w in 0..WORDS {
                        let v = ctx.read(va + 4 * w);
                        assert!(
                            v >= last[w as usize],
                            "word {w} went backwards: {} -> {v}",
                            last[w as usize]
                        );
                        assert!(v <= ROUNDS, "impossible value {v}");
                        last[w as usize] = v;
                    }
                }
            });
        }
    });
}

#[test]
fn concurrent_initiators_do_not_deadlock() {
    // Every thread writes every page in a rotated order, so shootdowns
    // constantly target other active initiators. The doorbell polling in
    // the wait loops must keep this live.
    const THREADS: usize = 4;
    const PAGES: usize = 6;
    const ROUNDS: usize = 60;
    let kernel = Kernel::boot(machine(THREADS), KernelConfig::default());
    let space = kernel.create_space();
    let object = kernel.create_object(PAGES);
    let va = space.map_anywhere(object, Rights::RW).unwrap();
    let page_bytes = kernel.machine().cfg().page_bytes();

    std::thread::scope(|s| {
        for p in 0..THREADS {
            let kernel = Arc::clone(&kernel);
            let space = Arc::clone(&space);
            s.spawn(move || {
                let mut ctx = kernel.attach(space, p, 0).unwrap();
                for r in 0..ROUNDS {
                    for i in 0..PAGES {
                        let page = (p + i + r) % PAGES;
                        ctx.fetch_add(va + page as u64 * page_bytes, 1);
                    }
                }
            });
        }
    });

    let mut ctx = kernel.attach(space, 0, 0).unwrap();
    for page in 0..PAGES {
        assert_eq!(
            ctx.read(va + page as u64 * page_bytes),
            (THREADS * ROUNDS) as u32,
            "page {page} lost updates"
        );
    }
}

#[test]
fn always_replicate_is_coherent_under_contention() {
    // The most protocol-hostile policy: every remote write migrates.
    const THREADS: usize = 3;
    const OPS: u32 = 400;
    let kernel = Kernel::boot(
        machine(THREADS),
        KernelConfig {
            policy: PolicyKind::AlwaysReplicate,
            ..KernelConfig::default()
        },
    );
    let space = kernel.create_space();
    let object = kernel.create_object(1);
    let va = space.map_anywhere(object, Rights::RW).unwrap();

    std::thread::scope(|s| {
        for p in 0..THREADS {
            let kernel = Arc::clone(&kernel);
            let space = Arc::clone(&space);
            s.spawn(move || {
                let mut ctx = kernel.attach(space, p, 0).unwrap();
                for _ in 0..OPS {
                    ctx.fetch_add(va, 1);
                }
            });
        }
    });
    let mut ctx = kernel.attach(space, 0, 0).unwrap();
    assert_eq!(ctx.read(va), THREADS as u32 * OPS);
    assert!(
        kernel.stats().snapshot().migrations > 0,
        "the policy must actually have migrated"
    );
}

#[test]
fn ports_block_and_deliver_in_order_per_sender() {
    let kernel = Kernel::boot(machine(3), KernelConfig::default());
    let space = kernel.create_space();
    let port = kernel.create_port();
    // A shared page being written concurrently ensures shootdowns happen
    // while the receiver is blocked; a blocked (deactivated) receiver
    // must never stall them.
    let object = kernel.create_object(1);
    let va = space.map_anywhere(object, Rights::RW).unwrap();

    std::thread::scope(|s| {
        {
            let kernel = Arc::clone(&kernel);
            let space = Arc::clone(&space);
            let port = Arc::clone(&port);
            s.spawn(move || {
                let mut rx = kernel.attach(space, 0, 0).unwrap();
                let mut seen = 0u32;
                let mut last = 0u32;
                while seen < 100 {
                    let msg = rx.port_recv(&port);
                    assert_eq!(msg.len(), 2);
                    assert!(msg[1] > last, "per-sender FIFO violated");
                    last = msg[1];
                    seen += 1;
                }
            });
        }
        {
            let kernel = Arc::clone(&kernel);
            let space = Arc::clone(&space);
            let port = Arc::clone(&port);
            s.spawn(move || {
                let mut tx = kernel.attach(space, 1, 0).unwrap();
                for i in 1..=100u32 {
                    tx.write(va, i); // churn coherent memory too
                    tx.port_send(&port, &[7, i]);
                }
            });
        }
        {
            let kernel = Arc::clone(&kernel);
            let space = Arc::clone(&space);
            s.spawn(move || {
                let mut w = kernel.attach(space, 2, 0).unwrap();
                for i in 0..200u32 {
                    w.write(va, i);
                }
            });
        }
    });
    assert!(port.is_empty());
}

#[test]
fn freeze_then_quiet_period_then_replication_recovers() {
    // Phase change: heavy write sharing (freeze), then read-only phase.
    // After a defrost the system must recover replication. Uses the
    // paper's policy with a short t1/t2 so the phases fit in test time.
    let m = machine(3);
    let cfg = platinum::KernelConfig {
        t2_defrost_ns: 50_000_000, // 50 ms virtual
        ..Default::default()
    };
    let kernel = Kernel::boot(m, cfg);
    let space = kernel.create_space();
    let object = kernel.create_object(1);
    let va = space.map_anywhere(object, Rights::RW).unwrap();

    // Phase 1: interleaved writes from all nodes.
    std::thread::scope(|s| {
        for p in 0..3 {
            let kernel = Arc::clone(&kernel);
            let space = Arc::clone(&space);
            s.spawn(move || {
                let mut ctx = kernel.attach(space, p, 0).unwrap();
                for i in 0..200u32 {
                    ctx.fetch_add(va, 1);
                    ctx.compute(10_000 * (p as u64 + 1) + u64::from(i % 7));
                }
            });
        }
    });
    assert_eq!(
        kernel.report().ever_frozen().len(),
        1,
        "phase 1 must freeze"
    );

    // Phase 2: read-only, far in the future; the defrost daemon fires and
    // replication resumes.
    std::thread::scope(|s| {
        for p in 0..3 {
            let kernel = Arc::clone(&kernel);
            let space = Arc::clone(&space);
            s.spawn(move || {
                let mut ctx = kernel.attach(space, p, 100_000_000).unwrap();
                for _ in 0..50 {
                    assert_eq!(ctx.read(va), 600);
                    ctx.compute(1_000_000);
                }
            });
        }
    });
    assert!(
        kernel.stats().snapshot().thaws >= 1,
        "defrost must have thawed the page"
    );
    // The processor that claims the daemon's activation can lose the host
    // CPU between the claim and the thaw for longer than its peers need
    // for all fifty reads through their remote mappings; a read that
    // certainly follows the thaw settles it on every schedule.
    for p in 0..3 {
        let mut ctx = kernel.attach(Arc::clone(&space), p, 200_000_000).unwrap();
        assert_eq!(ctx.read(va), 600);
    }
    assert!(
        kernel.stats().snapshot().replications >= 1,
        "replication must resume after the thaw"
    );
}

#[test]
fn a_context_posts_its_clock_only_while_it_runs() {
    // One thread, exact decisions: processor 0 sits 6 ms ahead of a
    // context at 0 (5 ms window, 0.15 ms migration), which holds it exactly
    // while that context runs — attached, resumed, out of its spin-wait —
    // and not once it is suspended, waiting, migrated away or dropped.
    let m = machine(3);
    let kernel = Kernel::boot(Arc::clone(&m), KernelConfig::default());
    let space = kernel.create_space();
    let ahead = 6_000_000;
    let _a = kernel.attach(Arc::clone(&space), 0, ahead).unwrap();
    assert!(!m.skew().holds(ahead), "alone, processor 0 runs free");
    let mut b = kernel.attach(Arc::clone(&space), 1, 0).unwrap();
    assert!(m.skew().holds(ahead), "attached at 0");
    b.suspend();
    assert!(!m.skew().holds(ahead), "suspended");
    b.resume();
    assert!(m.skew().holds(ahead), "resumed");
    b.begin_wait();
    assert!(!m.skew().holds(ahead), "spin-waiting");
    b.end_wait();
    assert!(m.skew().holds(ahead), "out of the wait");
    b.migrate(2).unwrap();
    assert!(m.skew().holds(ahead), "running on processor 2");
    drop(b);
    assert!(!m.skew().holds(ahead), "neither processor 1 nor 2 runs");
}
