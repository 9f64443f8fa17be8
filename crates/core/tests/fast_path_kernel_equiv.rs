//! Kernel-level equivalence of the host fast path and the sharded Cmap.
//!
//! Two properties the hot-path overhaul must preserve:
//!
//! 1. With `MachineConfig::fast_path` off, every observable — virtual
//!    times, access counters, kernel event counts, values read, the
//!    final Cmap directory — is bit-identical to a fast-path run of the
//!    same single-threaded schedule.
//! 2. The Cmap shard count is transparent: a concurrent read-mostly
//!    stress run leaves the same final directory state (and the same
//!    per-page protocol timeline) at 1 shard as at 16.

use std::sync::Arc;

use numa_machine::{AccessCounters, Machine, MachineConfig, Mem, ProcSet};
use platinum::trace::{EventKind, TraceConfig, Tracer};
use platinum::{AlwaysReplicate, FaultPlan, Kernel, KernelConfig, Rights, StatsSnapshot, UserCtx};

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
/// message application), plus error paths (misaligned, unmapped).
fn run_scripted(
    fast_path: bool,
    cmap_shards: usize,
    faults: Option<Arc<FaultPlan>>,
) -> Observation {
    const P: usize = 4;
    const PAGES: usize = 8;
    let kernel = Kernel::boot(
        machine(P, fast_path),
        KernelConfig {
            cmap_shards,
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
    let fast = run_scripted(true, 16, None);
    let slow = run_scripted(false, 16, None);
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

#[test]
fn cmap_shard_count_is_transparent_in_a_scripted_run() {
    let one = run_scripted(true, 1, None);
    let many = run_scripted(true, 16, None);
    assert_eq!(one, many, "shard count changed an observable");
}

/// Fault injection lives entirely on the kernel slow path and keys its
/// decisions off virtual time, which the two translation paths agree on
/// by construction — so the bit-for-bit equivalence must survive an
/// active fault plan, injected recoveries and all.
#[test]
fn fast_path_equivalence_holds_under_injection() {
    let plan = Arc::new(FaultPlan::chaos(42, 60_000));
    let fast = run_scripted(true, 16, Some(Arc::clone(&plan)));
    let slow = run_scripted(false, 16, Some(plan));
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

/// Concurrent stress: eight threads race read faults over 32 pages under
/// AlwaysReplicate (a deterministic final state: every processor ends
/// with a local replica of every page). Compares the 1-shard and
/// 16-shard directories and the per-page protocol timeline recorded by
/// the tracer.
type StressOutcome = (
    Vec<(u64, Rights, ProcSet)>,
    Vec<(u64, usize)>,
    StatsSnapshot,
);

fn run_stress(cmap_shards: usize) -> StressOutcome {
    const P: usize = 8;
    const PAGES: usize = 32;
    let kernel = Kernel::boot(
        machine(P, true),
        KernelConfig {
            policy: Arc::new(AlwaysReplicate),
            cmap_shards,
            ..KernelConfig::default()
        },
    );
    let tracer = Tracer::new(TraceConfig::default());
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

    let trace = tracer.snapshot();
    let mut replicated: Vec<(u64, usize)> = (0..PAGES as u64)
        .map(|pg| {
            let page_id = kernel
                .cpage_for_va(&space, va + pg * page_bytes)
                .unwrap()
                .id()
                .0;
            let n = trace
                .of_kind(EventKind::Replicate)
                .filter(|e| e.page == page_id)
                .count();
            (pg, n)
        })
        .collect();
    replicated.sort();
    // Cpage ids are allocated in first-fault order, which racing threads
    // decide; the schedule-invariant directory state is (vpn, rights,
    // refmask), with the ids merely required to be distinct.
    let dir = directory_of(&space);
    let distinct: std::collections::HashSet<u64> = dir.iter().map(|&(_, id, ..)| id).collect();
    assert_eq!(distinct.len(), dir.len(), "duplicate cpage ids");
    (
        dir.into_iter()
            .map(|(vpn, _, rights, refs)| (vpn, rights, refs))
            .collect(),
        replicated,
        kernel.stats().snapshot(),
    )
}

#[test]
fn sharded_cmap_stress_matches_single_lock_directory() {
    let (dir1, timeline1, stats1) = run_stress(1);
    let (dir16, timeline16, stats16) = run_stress(16);
    assert_eq!(dir1, dir16, "final directory state depends on shard count");
    assert_eq!(
        timeline1, timeline16,
        "per-page replication timeline depends on shard count"
    );
    assert_eq!(stats1, stats16, "kernel event counts depend on shard count");
    // And the state is the deterministic one the policy promises: every
    // page replicated to each of the 7 non-first-toucher processors.
    for &(pg, n) in &timeline1 {
        assert_eq!(n, 7, "page {pg} must be replicated 7 times, got {n}");
    }
}
