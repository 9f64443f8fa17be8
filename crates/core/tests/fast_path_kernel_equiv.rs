//! Kernel-level equivalence of the host fast path, and a free-running
//! stress of the directory.
//!
//! 1. With `MachineConfig::fast_path` off, every observable — virtual
//!    times, access counters, kernel event counts, values read, the
//!    final Cmap directory — is bit-identical to a fast-path run of the
//!    same single-threaded schedule.
//! 2. Eight free-running threads racing read faults leave the one final
//!    directory state every schedule must reach.

use std::sync::Arc;

use numa_machine::{AccessCounters, Machine, MachineConfig, Mem, ProcSet};
use platinum::trace::{EventKind, Tracer};
use platinum::{FaultPlan, Kernel, KernelConfig, PolicyKind, Rights, StatsSnapshot, UserCtx};

fn machine(nodes: usize, fast_path: bool) -> Arc<Machine> {
    Machine::new(MachineConfig {
        nodes,
        frames_per_node: 256,
        skew_window_ns: None,
        fast_path,
        ..MachineConfig::default()
    })
    .unwrap()
}

/// Everything a run exposes; two runs of the same schedule must agree on
/// all of it.
#[derive(Debug, PartialEq)]
struct Observation {
    vtimes: Vec<u64>,
    counters: Vec<AccessCounters>,
    stats: StatsSnapshot,
    values: Vec<u32>,
    directory: Vec<(u64, u64, Rights, ProcSet)>,
}

fn directory_of(space: &platinum::AddressSpace) -> Vec<(u64, u64, Rights, ProcSet)> {
    let mut dir: Vec<_> = space
        .cmap()
        .snapshot()
        .into_iter()
        .map(|(vpn, e)| (vpn, e.cpage.0, e.rights, e.refs()))
        .collect();
    dir.sort_by_key(|&(vpn, ..)| vpn);
    dir
}

/// A deterministic single-threaded schedule over four processors:
/// replication (everyone reads everything), hot loops (ATC hits),
/// invalidating writes and atomics against suspended peers (lazy
/// message application), error paths (misaligned, unmapped), and block
/// copies across page boundaries.
fn run_scripted(fast_path: bool, faults: Option<Arc<FaultPlan>>) -> Observation {
    const P: usize = 4;
    const PAGES: usize = 8;
    let kernel = Kernel::boot(
        machine(P, fast_path),
        KernelConfig {
            faults,
            ..KernelConfig::default()
        },
    );
    let space = kernel.create_space();
    let object = kernel.create_object(PAGES);
    let va = space.map_anywhere(object, Rights::RW).unwrap();
    let page_bytes = (kernel.machine().cfg().words_per_page() * 4) as u64;
    let page = |i: usize| va + i as u64 * page_bytes;
    let mut ctxs: Vec<UserCtx> = (0..P)
        .map(|p| kernel.attach(Arc::clone(&space), p, 0).unwrap())
        .collect();
    let mut values = Vec::new();

    // Replication sweep: every processor touches every page.
    for ctx in &mut ctxs {
        for i in 0..PAGES {
            values.push(ctx.read(page(i)));
        }
    }

    // Hot loops: repeated hits on a resident page, mixed offsets.
    for (p, ctx) in ctxs.iter_mut().enumerate() {
        let base = page(p * 2 % PAGES);
        for k in 0..32u64 {
            values.push(ctx.read(base + (k % 16) * 4));
        }
    }

    // Error paths must behave identically: misaligned and unmapped.
    for (p, ctx) in ctxs.iter_mut().enumerate() {
        values.push(match ctx.try_read(page(0) + 2) {
            Ok(v) => v,
            Err(_) => 0xdead_0000 + p as u32,
        });
        values.push(match ctx.try_write(0x10, 1) {
            Ok(()) => 0,
            Err(_) => 0xbeef_0000 + p as u32,
        });
    }

    // Invalidating writes and atomics: the writer's peers are suspended
    // (shootdown posts messages, no interrupts), then resume and read
    // the new value back, applying the queued invalidations lazily.
    for writer in 0..P {
        for p in (0..P).filter(|&p| p != writer) {
            ctxs[p].suspend();
        }
        ctxs[writer].write(page(writer), 0x100 + writer as u32);
        values.push(ctxs[writer].fetch_add(page((writer + 4) % PAGES), 3));
        values.push(ctxs[writer].swap(page((writer + 4) % PAGES) + 8, writer as u32));
        for p in (0..P).filter(|&p| p != writer) {
            ctxs[p].resume();
        }
        for ctx in &mut ctxs {
            values.push(ctx.read(page(writer)));
            values.push(ctx.read(page((writer + 4) % PAGES)));
        }
    }

    // Block copies a page and a half long from unaligned words: ATC hits
    // and misses, replication on read, and invalidating block writes
    // against suspended peers.
    let words = kernel.machine().cfg().words_per_page();
    for writer in 0..P {
        for p in (0..P).filter(|&p| p != writer) {
            ctxs[p].suspend();
        }
        let src: Vec<u32> = (0..words as u32 * 3 / 2)
            .map(|w| w.wrapping_mul(31) ^ writer as u32)
            .collect();
        ctxs[writer].write_block(page(writer + 1) + 4 * 7, &src);
        for p in (0..P).filter(|&p| p != writer) {
            ctxs[p].resume();
        }
        for ctx in &mut ctxs {
            let mut buf = vec![0u32; words + 9];
            ctx.read_block(page(writer + 1) + 4 * 3, &mut buf);
            values.push(buf.iter().fold(0u32, |a, &w| a.wrapping_mul(33) ^ w));
        }
    }

    Observation {
        vtimes: ctxs.iter().map(|c| c.vtime()).collect(),
        counters: ctxs.iter().map(|c| c.counters()).collect(),
        stats: kernel.stats().snapshot(),
        values,
        directory: directory_of(&space),
    }
}

#[test]
fn fast_path_run_is_bit_identical_to_reference_run() {
    let fast = run_scripted(true, None);
    let slow = run_scripted(false, None);
    assert_eq!(fast.values, slow.values, "observed values diverged");
    assert_eq!(fast.vtimes, slow.vtimes, "virtual times diverged");
    assert_eq!(fast.counters, slow.counters, "access counters diverged");
    assert_eq!(fast.stats, slow.stats, "kernel event counters diverged");
    assert_eq!(fast.directory, slow.directory, "Cmap directory diverged");
    // The workload exercised the fast path for real.
    let hits: u64 = fast.counters.iter().map(|c| c.atc_hits).sum();
    assert!(
        hits > 100,
        "expected a hot-loop-dominated run, got {hits} hits"
    );
}

/// Fault injection lives entirely on the kernel slow path and keys its
/// decisions off virtual time, which the two translation paths agree on
/// by construction — so the bit-for-bit equivalence must survive an
/// active fault plan, injected recoveries and all.
#[test]
fn fast_path_equivalence_holds_under_injection() {
    let plan = Arc::new(FaultPlan::chaos(42, 60_000));
    let fast = run_scripted(true, Some(Arc::clone(&plan)));
    let slow = run_scripted(false, Some(plan));
    assert_eq!(fast.values, slow.values, "observed values diverged");
    assert_eq!(fast.vtimes, slow.vtimes, "virtual times diverged");
    assert_eq!(fast.counters, slow.counters, "access counters diverged");
    assert_eq!(fast.stats, slow.stats, "kernel event counters diverged");
    assert_eq!(fast.directory, slow.directory, "Cmap directory diverged");
    let injected = fast.stats.mem_errors
        + fast.stats.shootdown_timeouts
        + fast.stats.transfer_faults
        + fast.stats.alloc_faults;
    assert!(
        injected > 0,
        "the plan must actually fire for this test to mean anything"
    );
    assert!(
        fast.stats.fault_recoveries > 0,
        "recoveries must be recorded"
    );
}

/// Concurrent stress: eight free-running threads race read faults over
/// 32 pages under always-replicate. Which thread first-touches a page, and
/// how many lose that race into `vm_fault`, is the host scheduler's
/// choice; asserted here is only what every schedule yields — each
/// processor ends with a local replica of every page.
#[test]
fn concurrent_read_faults_converge_on_the_schedule_invariant_state() {
    const P: usize = 8;
    const PAGES: usize = 32;
    let kernel = Kernel::boot(
        machine(P, true),
        KernelConfig {
            policy: PolicyKind::AlwaysReplicate,
            ..KernelConfig::default()
        },
    );
    let tracer = Tracer::new();
    assert!(kernel.install_tracer(Arc::clone(&tracer)));
    let space = kernel.create_space();
    let object = kernel.create_object(PAGES);
    let va = space.map_anywhere(object, Rights::RO).unwrap();
    let page_bytes = (kernel.machine().cfg().words_per_page() * 4) as u64;

    std::thread::scope(|s| {
        for p in 0..P {
            let kernel = Arc::clone(&kernel);
            let space = Arc::clone(&space);
            s.spawn(move || {
                let mut ctx = kernel.attach(space, p, 0).unwrap();
                // Each processor sweeps from a different start page, three
                // times, so faults on every page race across threads.
                for round in 0..3 {
                    for i in 0..PAGES {
                        let pg = (p * 4 + i + round) % PAGES;
                        ctx.read(va + pg as u64 * page_bytes);
                    }
                }
            });
        }
    });

    // Cpage ids are allocated in first-fault order, which racing threads
    // decide: the ids are merely required to be distinct.
    let dir = directory_of(&space);
    let ids: std::collections::HashSet<u64> = dir.iter().map(|&(_, id, ..)| id).collect();
    assert_eq!(ids.len(), PAGES, "duplicate cpage ids");
    let first_vpn = space.vpn_of(va);
    for (i, (vpn, _, rights, refs)) in dir.iter().enumerate() {
        assert_eq!(*vpn, first_vpn + i as u64);
        assert_eq!(*rights, Rights::RO);
        assert_eq!(
            *refs,
            ProcSet::full(P),
            "vpn {vpn}: a processor holds no translation"
        );
    }
    // Every page replicated to each of the 7 non-first-toucher processors.
    let trace = tracer.snapshot();
    for &id in &ids {
        let n = trace
            .of_kind(EventKind::Replicate)
            .filter(|e| e.page == id)
            .count();
        assert_eq!(n, P - 1, "cpage {id} must be replicated 7 times");
    }
    let stats = kernel.stats().snapshot();
    assert_eq!(
        stats.faults,
        (P * PAGES) as u64,
        "one fault per processor and page"
    );
    assert_eq!(stats.replications, ((P - 1) * PAGES) as u64);
    assert!(
        stats.vm_faults >= PAGES as u64,
        "every page is first-touched"
    );
}
