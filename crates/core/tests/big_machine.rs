//! Big-machine round-trip tests: processor ids at and beyond 64 through
//! the directory, refmask, and shootdown paths.
//!
//! Before the `ProcSet` redesign the directory masks were bare `u64`s,
//! so `1u64 << module` silently truncated every id ≥ 64: processor 64
//! would read a page, never appear in `copies_mask` or the Cmap
//! refmask, and keep a stale replica through the next invalidation —
//! a *wrong answer*, not a wrong statistic. These tests drive random
//! reader/writer sets on machines of 65–128 nodes (plus a deterministic
//! 256-node sweep) and assert the full round trip: every reader lands
//! in the directory and the refmask, the writer's shootdown reaches
//! all of them, and the re-read observes the written value.

use std::collections::BTreeSet;
use std::sync::Arc;

use numa_machine::{Machine, MachineConfig, Mem};
use platinum::{CpState, Kernel, KernelConfig, Rights, UserCtx};
use proptest::prelude::*;

fn machine(nodes: usize) -> Arc<Machine> {
    Machine::new(MachineConfig {
        nodes,
        frames_per_node: 8,
        skew_window_ns: None,
        ..MachineConfig::default()
    })
    .unwrap()
}

/// Attaches one suspended context per involved processor. Tests resume
/// exactly one at a time, so every protocol step is a deterministic
/// single-threaded trace (the convention of `protocol.rs`).
fn attach_suspended(kernel: &Arc<Kernel>, procs: &[usize]) -> (u64, Vec<UserCtx>) {
    let space = kernel.create_space();
    let object = kernel.create_object(1);
    let va = space.map_anywhere(object, Rights::RW).unwrap();
    let ctxs = procs
        .iter()
        .map(|&p| {
            let mut c = kernel.attach(Arc::clone(&space), p, 0).unwrap();
            c.suspend();
            c
        })
        .collect();
    (va, ctxs)
}

/// One full protocol round trip for the given reader set and writer:
/// replicate to every reader, shoot all replicas down from the writer,
/// and verify the directory, refmask, and re-read values at each stage.
fn round_trip(nodes: usize, readers: &[usize], writer: usize) {
    let kernel = Kernel::boot(machine(nodes), KernelConfig::default());
    let mut procs: Vec<usize> = readers.to_vec();
    if !procs.contains(&writer) {
        procs.push(writer);
    }
    let (va, mut ctxs) = attach_suspended(&kernel, &procs);
    let widx = procs.iter().position(|&p| p == writer).unwrap();

    // Every reader faults in a local replica.
    for (i, &p) in procs.iter().enumerate() {
        if p == writer && !readers.contains(&p) {
            continue;
        }
        ctxs[i].resume();
        assert_eq!(ctxs[i].read(va), 0, "fresh pages are zero-filled");
        ctxs[i].suspend();
    }

    let space = Arc::clone(ctxs[0].space());
    let page = kernel.cpage_for_va(&space, va).unwrap();
    {
        let g = page.lock();
        let modules: BTreeSet<usize> = g.copies.iter().map(|pp| pp.module_id()).collect();
        let expected: BTreeSet<usize> = readers.iter().copied().collect();
        assert_eq!(
            modules, expected,
            "directory must hold one replica per reader, ids ≥ 64 included"
        );
        for &r in readers {
            assert!(
                g.copies_mask.contains(r),
                "copies_mask lost reader {r} on a {nodes}-node machine"
            );
        }
        g.check_invariants().unwrap();
    }
    // The Cmap refmask saw every reader too.
    let refs = space.cmap().refs_of(space.vpn_of(va)).unwrap();
    for &r in readers {
        assert!(refs.contains(r), "cmap refmask lost reader {r}");
    }

    // The writer invalidates every replica (suspended processors apply
    // the shootdown on resume).
    ctxs[widx].resume();
    ctxs[widx].write(va, 42);
    ctxs[widx].suspend();
    {
        let g = page.lock();
        assert_eq!(g.state, CpState::Modified);
        assert_eq!(g.copies.len(), 1, "all other replicas invalidated");
        assert_eq!(g.copies[0].module_id(), writer);
        assert!(g.writer_mask.contains(writer));
        g.check_invariants().unwrap();
    }

    // Every reader re-reads through the coherence protocol: a stale
    // replica surviving because its owner's id truncated out of the
    // shootdown mask would return 0 here.
    for (i, &p) in procs.iter().enumerate() {
        if !readers.contains(&p) {
            continue;
        }
        ctxs[i].resume();
        assert_eq!(
            ctxs[i].read(va),
            42,
            "reader {p} saw a stale replica after the writer's shootdown"
        );
        ctxs[i].suspend();
    }
}

/// Reader sets that always straddle the old 64-bit boundary: a few ids
/// below 64, a few at-or-above (folded into `[64, nodes)`), and a
/// writer ≥ 64.
fn big_scenarios() -> impl Strategy<Value = (usize, Vec<usize>, usize)> {
    (
        65usize..129,
        proptest::collection::vec(0usize..64, 1..4),
        proptest::collection::vec(0usize..4096, 1..4),
        0usize..4096,
    )
        .prop_map(|(nodes, low, high_raw, w_raw)| {
            let span = nodes - 64;
            let mut readers: BTreeSet<usize> = low.into_iter().collect();
            readers.extend(high_raw.into_iter().map(|r| 64 + r % span));
            let writer = 64 + w_raw % span;
            (nodes, readers.into_iter().collect(), writer)
        })
}

proptest! {
    // Each case boots a 65–128 node machine; keep the count modest.
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn ids_beyond_64_round_trip_directory_refmask_shootdown(
        scenario in big_scenarios()
    ) {
        let (nodes, readers, writer) = scenario;
        round_trip(nodes, &readers, writer);
    }
}

#[test]
fn boundary_ids_round_trip_on_a_256_node_machine() {
    // The exact boundary ids the u64 masks used to truncate, plus the
    // top of the supported range.
    round_trip(256, &[0, 63, 64, 65, 127, 128, 255], 255);
    round_trip(256, &[63, 64], 64);
}
