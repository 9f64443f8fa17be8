//! Bit-identity of the translation fabric's centralized default.
//!
//! The fabric's contract (ISSUE 10): under
//! [`PtablePlacement::Centralized`] — the `KernelConfig` default — every
//! observable of a run must be bit-identical to a pre-fabric kernel's.
//! `PtableConfig::off()` *is* the pre-fabric kernel: accounting
//! disabled, no walk arithmetic, no hooks taken. A scripted schedule and
//! a proptest over random schedules both compare the full transcript —
//! virtual times, access counters, kernel statistics, observed values,
//! the Cmap directory, and every trace event — across the two
//! configurations.
//!
//! The charged placements are then sanity-checked for the opposite:
//! `home_node` must *change* virtual time (walks are real charges) while
//! leaving every correctness observable — values read, directory state —
//! untouched, and must walk exactly once per ATC miss on both
//! translation paths.

use std::sync::Arc;

use numa_machine::{AccessCounters, Machine, MachineConfig, Mem, ProcSet};
use platinum::trace::{TraceEvent, Tracer};
use platinum::{
    Kernel, KernelConfig, PtableConfig, PtablePlacement, Rights, StatsSnapshot, UserCtx,
};
use proptest::prelude::*;

fn machine(nodes: usize, fast_path: bool) -> Arc<Machine> {
    Machine::new(MachineConfig {
        nodes,
        frames_per_node: 64,
        skew_window_ns: None,
        fast_path,
        ..MachineConfig::default()
    })
    .unwrap()
}

/// Everything a run exposes; two runs of the same schedule must agree
/// on all of it for the bit-identity claim.
#[derive(Debug, PartialEq)]
struct Observation {
    vtimes: Vec<u64>,
    counters: Vec<AccessCounters>,
    stats: StatsSnapshot,
    values: Vec<u32>,
    directory: Vec<(u64, u64, Rights, ProcSet)>,
    events: Vec<TraceEvent>,
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

/// One step of a schedule: processor `p` reads or writes `page` at
/// `word`, with every other processor suspended (lazy invalidation
/// application — the regime where translation state actually churns).
#[derive(Clone, Copy, Debug)]
struct Step {
    p: usize,
    page: usize,
    word: u64,
    write: bool,
}

/// Runs `steps` single-threadedly under `ptable` and captures the full
/// transcript.
fn run_schedule(
    procs: usize,
    pages: usize,
    fast_path: bool,
    ptable: PtableConfig,
    steps: &[Step],
) -> Observation {
    let kernel = Kernel::boot(
        machine(procs, fast_path),
        KernelConfig {
            ptable,
            ..KernelConfig::default()
        },
    );
    let tracer = Tracer::new();
    assert!(kernel.install_tracer(Arc::clone(&tracer)));
    let space = kernel.create_space();
    let object = kernel.create_object(pages);
    let va = space.map_anywhere(object, Rights::RW).unwrap();
    let page_bytes = (kernel.machine().cfg().words_per_page() * 4) as u64;
    let mut ctxs: Vec<UserCtx> = (0..procs)
        .map(|p| kernel.attach(Arc::clone(&space), p, 0).unwrap())
        .collect();
    for c in ctxs.iter_mut().skip(1) {
        c.suspend();
    }
    let mut active = 0usize;
    let mut values = Vec::new();
    for (k, s) in steps.iter().enumerate() {
        if s.p != active {
            ctxs[s.p].resume();
            ctxs[active].suspend();
            active = s.p;
        }
        let addr = va + s.page as u64 * page_bytes + (s.word % 16) * 4;
        if s.write {
            ctxs[s.p].write(addr, k as u32);
        } else {
            values.push(ctxs[s.p].read(addr));
        }
    }
    for c in ctxs.iter_mut().filter(|c| c.core().id() != active) {
        c.resume();
    }
    Observation {
        vtimes: ctxs.iter().map(|c| c.vtime()).collect(),
        counters: ctxs.iter().map(|c| c.counters()).collect(),
        stats: kernel.stats().snapshot(),
        values,
        directory: directory_of(&space),
        events: tracer.snapshot().events,
    }
}

/// A deterministic schedule that churns translations: replication
/// sweeps, hot loops, and migrating writes.
fn scripted_steps(procs: usize, pages: usize) -> Vec<Step> {
    let mut steps = Vec::new();
    for p in 0..procs {
        for page in 0..pages {
            steps.push(Step {
                p,
                page,
                word: page as u64,
                write: false,
            });
        }
    }
    for p in 0..procs {
        for k in 0..24u64 {
            steps.push(Step {
                p,
                page: p % pages,
                word: k,
                write: false,
            });
        }
    }
    for round in 0..3 {
        for p in 0..procs {
            steps.push(Step {
                p,
                page: (p + round) % pages,
                word: p as u64,
                write: true,
            });
            steps.push(Step {
                p: (p + 1) % procs,
                page: (p + round) % pages,
                word: p as u64,
                write: false,
            });
        }
    }
    steps
}

#[test]
fn centralized_default_is_bit_identical_to_pre_fabric_kernel() {
    let steps = scripted_steps(4, 6);
    let with_fabric = run_schedule(4, 6, true, PtableConfig::default(), &steps);
    let without = run_schedule(4, 6, true, PtableConfig::off(), &steps);
    assert_eq!(
        with_fabric, without,
        "centralized fabric changed a run observable"
    );
    // ... and the default really is centralized-with-accounting, not off.
    assert_eq!(
        PtableConfig::default().placement,
        PtablePlacement::Centralized
    );
    assert!(PtableConfig::default().accounting);
}

#[test]
fn centralized_bit_identity_holds_on_the_reference_path_too() {
    let steps = scripted_steps(4, 6);
    let with_fabric = run_schedule(4, 6, false, PtableConfig::default(), &steps);
    let without = run_schedule(4, 6, false, PtableConfig::off(), &steps);
    assert_eq!(
        with_fabric, without,
        "centralized fabric changed a reference-path observable"
    );
}

/// Charged placements are the opposite contract: walks cost virtual
/// time (so vtimes and the trace change) but correctness observables —
/// values, directory — cannot.
#[test]
fn charged_walks_move_time_but_not_state() {
    let steps = scripted_steps(4, 6);
    let centralized = run_schedule(4, 6, true, PtableConfig::default(), &steps);
    let charged = run_schedule(
        4,
        6,
        true,
        PtableConfig::with_placement(PtablePlacement::HomeNode),
        &steps,
    );
    assert_eq!(
        charged.values, centralized.values,
        "walk charges changed a value"
    );
    assert_eq!(
        charged.directory, centralized.directory,
        "walk charges changed the directory"
    );
    assert!(
        charged.stats.pt_walks > 0,
        "the schedule must actually miss the ATC"
    );
    assert_eq!(
        centralized.stats.pt_walks, 0,
        "centralized accounting must not surface as kernel events"
    );
    assert!(
        charged.vtimes.iter().sum::<u64>() > centralized.vtimes.iter().sum::<u64>(),
        "charged walks must cost virtual time"
    );
}

/// Walk-count parity: the fast and reference translation paths must
/// agree on *which* accesses miss, so a charged placement stays
/// bit-identical across `MachineConfig::fast_path` — the same
/// equivalence every other kernel feature maintains.
#[test]
fn charged_placement_is_fast_path_invariant() {
    let steps = scripted_steps(4, 6);
    let cfg = PtableConfig::with_placement(PtablePlacement::ReplicatedOnFault);
    let fast = run_schedule(4, 6, true, cfg, &steps);
    let slow = run_schedule(4, 6, false, cfg, &steps);
    assert_eq!(fast, slow, "translation path changed a fabric observable");
    assert!(fast.stats.pt_walks > 0 && fast.stats.pt_populates > 0);
}

/// Random-schedule strategy: up to 60 steps over 3 processors and 4
/// pages, mixing reads and writes.
fn schedules() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0usize..3, 0usize..4, 0u64..16, any::<bool>()), 1..60).prop_map(
        |raw| {
            raw.into_iter()
                .map(|(p, page, word, write)| Step {
                    p,
                    page,
                    word,
                    write,
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The satellite contract: under the centralized default, *any*
    /// schedule's transcript — vtimes, stats, traces — matches the
    /// pre-fabric kernel's bit for bit.
    #[test]
    fn centralized_matches_pre_fabric_on_random_schedules(steps in schedules()) {
        let with_fabric = run_schedule(3, 4, true, PtableConfig::default(), &steps);
        let without = run_schedule(3, 4, true, PtableConfig::off(), &steps);
        prop_assert_eq!(with_fabric, without);
    }
}
