//! Tests of unmapping, memory-object destruction, and replica
//! reclamation under memory pressure.

use std::sync::Arc;

use numa_machine::{Machine, MachineConfig, Mem};
use platinum::{Kernel, KernelConfig, KernelError, Rights, UserCtx};

fn machine(nodes: usize, frames: usize) -> Arc<Machine> {
    Machine::new(MachineConfig {
        nodes,
        frames_per_node: frames,
        skew_window_ns: None,
        ..MachineConfig::default()
    })
    .unwrap()
}

fn attach_all(kernel: &Arc<Kernel>, space: &Arc<platinum::AddressSpace>, n: usize) -> Vec<UserCtx> {
    (0..n)
        .map(|p| kernel.attach(Arc::clone(space), p, 0).unwrap())
        .collect()
}

#[test]
fn unmap_invalidates_translations_everywhere() {
    let kernel = Kernel::boot(machine(3, 32), KernelConfig::default());
    let space = kernel.create_space();
    let object = kernel.create_object(2);
    let va = space.map_anywhere(Arc::clone(&object), Rights::RW).unwrap();
    let mut ctxs = attach_all(&kernel, &space, 3);

    ctxs[0].write(va, 7);
    ctxs[0].suspend();
    assert_eq!(ctxs[1].read(va), 7);
    assert_eq!(ctxs[2].read(va), 7);
    ctxs[2].suspend();

    // Processor 1 unmaps while 0 and 2 are inactive; their stale
    // translations die via the message queue.
    let kernel2 = Arc::clone(&kernel);
    kernel2.unmap(&mut ctxs[1], va).unwrap();

    // The region is gone: accesses now bus-error.
    assert!(ctxs[1].try_read(va).is_err());
    ctxs[0].resume();
    assert!(ctxs[0].try_read(va).is_err());

    // Unmapping again fails cleanly.
    assert!(matches!(
        kernel2.unmap(&mut ctxs[1], va),
        Err(KernelError::Access(_))
    ));

    // The object survives and can be re-bound with its data intact.
    let va2 = space.map_anywhere(object, Rights::RW).unwrap();
    assert_eq!(ctxs[1].read(va2), 7, "object data survives unmapping");
}

#[test]
fn destroy_object_frees_frames_and_requires_no_bindings() {
    let kernel = Kernel::boot(machine(2, 32), KernelConfig::default());
    let space = kernel.create_space();
    let object = kernel.create_object(3);
    let va = space.map_anywhere(Arc::clone(&object), Rights::RW).unwrap();
    let mut ctxs = attach_all(&kernel, &space, 2);

    // Touch all three pages from both nodes (replicas on page 0).
    for pg in 0..3u64 {
        ctxs[0].write(va + pg * 4096, pg as u32);
    }
    ctxs[0].suspend();
    for pg in 0..3u64 {
        assert_eq!(ctxs[1].read(va + pg * 4096), pg as u32);
    }
    let before = kernel.machine().frames_allocated();
    assert!(before >= 3, "at least one frame per touched page: {before}");

    // Destruction is refused while the binding exists.
    assert!(matches!(
        kernel.destroy_object(&mut ctxs[1], &object),
        Err(KernelError::ObjectInUse(_))
    ));

    kernel.unmap(&mut ctxs[1], va).unwrap();
    kernel.destroy_object(&mut ctxs[1], &object).unwrap();
    assert_eq!(
        kernel.machine().frames_allocated(),
        0,
        "all frames must return to the free pool"
    );
}

#[test]
fn replica_eviction_survives_memory_pressure() {
    // Node 0 has very few frames; a reader on node 0 replicating many
    // pages must evict older replicas instead of dying.
    let kernel = Kernel::boot(machine(2, 8), KernelConfig::default());
    let space = kernel.create_space();
    let object = kernel.create_object(6);
    let va = space.map_anywhere(object, Rights::RW).unwrap();
    let mut ctxs = attach_all(&kernel, &space, 2);

    // Writer on node 1 fills six pages (6 of node 1's 8 frames).
    for pg in 0..6u64 {
        ctxs[1].write(va + pg * 4096, 100 + pg as u32);
    }
    ctxs[1].suspend();
    ctxs[0].compute(20_000_000); // past t1: replication allowed

    // Reader on node 0 walks all six pages twice. Its module has 8
    // frames; replicas must be evicted to keep going, and every value
    // must still be correct.
    for round in 0..2 {
        for pg in 0..6u64 {
            assert_eq!(
                ctxs[0].read(va + pg * 4096),
                100 + pg as u32,
                "round {round} page {pg}"
            );
        }
    }
    // Also allocate fresh pages on node 0 to force eviction for *owned*
    // data, not just replicas.
    let obj2 = kernel.create_object(5);
    let va2 = space.map_anywhere(obj2, Rights::RW).unwrap();
    for pg in 0..5u64 {
        ctxs[0].write(va2 + pg * 4096, pg as u32);
    }
    for pg in 0..5u64 {
        assert_eq!(ctxs[0].read(va2 + pg * 4096), pg as u32);
    }
    assert!(
        kernel.stats().snapshot().reclaims > 0,
        "memory pressure must have evicted replicas"
    );
}

#[test]
fn out_of_memory_without_evictable_replicas_is_reported() {
    // Every frame on node 0 holds a *sole* copy: nothing is evictable,
    // so allocation must fail cleanly rather than evict someone's data.
    let kernel = Kernel::boot(machine(1, 4), KernelConfig::default());
    let space = kernel.create_space();
    let object = kernel.create_object(5);
    let va = space.map_anywhere(object, Rights::RW).unwrap();
    let mut ctx = kernel.attach(space, 0, 0).unwrap();
    for pg in 0..4u64 {
        ctx.try_write(va + pg * 4096, 1).unwrap();
    }
    let err = ctx.try_write(va + 4 * 4096, 1);
    assert!(
        matches!(err, Err(KernelError::OutOfMemory)),
        "expected OutOfMemory, got {err:?}"
    );
}

#[test]
fn reclaim_prefers_replicas_and_keeps_sole_copies() {
    let kernel = Kernel::boot(machine(2, 4), KernelConfig::default());
    let space = kernel.create_space();
    // Two pages of private data on node 0 (sole copies), then replicas
    // of remote pages until node 0 fills; further replicas must evict
    // only the replicas.
    let private = kernel.create_object(2);
    let pva = space.map_anywhere(private, Rights::RW).unwrap();
    let shared = kernel.create_object(4);
    let sva = space.map_anywhere(shared, Rights::RW).unwrap();
    let mut ctxs = attach_all(&kernel, &space, 2);
    ctxs[0].write(pva, 11);
    ctxs[0].write(pva + 4096, 22);
    ctxs[1].suspend();
    ctxs[1].resume();
    for pg in 0..4u64 {
        ctxs[1].write(sva + pg * 4096, pg as u32);
    }
    ctxs[1].suspend();
    ctxs[0].compute(20_000_000);
    // Node 0 has 2 frames free; reading 4 shared pages forces eviction
    // of earlier replicas, never the private pages.
    for pg in 0..4u64 {
        assert_eq!(ctxs[0].read(sva + pg * 4096), pg as u32);
    }
    assert_eq!(ctxs[0].read(pva), 11, "sole copies must never be evicted");
    assert_eq!(ctxs[0].read(pva + 4096), 22);
}

#[test]
fn first_touch_of_a_recycled_frame_reads_zero() {
    // One frame per node: the second object's first touch must reuse the
    // frame the first object wrote and freed, and clear it.
    let kernel = Kernel::boot(machine(1, 1), KernelConfig::default());
    let words = kernel.machine().cfg().words_per_page();
    let space = kernel.create_space();
    let mut ctx = kernel.attach(Arc::clone(&space), 0, 0).unwrap();

    let first = kernel.create_object(1);
    let va = space.map_anywhere(Arc::clone(&first), Rights::RW).unwrap();
    let ones: Vec<u32> = (1..=words as u32).collect();
    ctx.write_block(va, &ones);
    kernel.unmap(&mut ctx, va).unwrap();
    kernel.destroy_object(&mut ctx, &first).unwrap();
    assert_eq!(kernel.machine().frames_allocated(), 0);
    assert_eq!(kernel.machine().frames_materialized(), 1);

    let second = kernel.create_object(1);
    let va = space.map_anywhere(second, Rights::RW).unwrap();
    let mut got = vec![u32::MAX; words];
    ctx.read_block(va, &mut got);
    assert!(got.iter().all(|&w| w == 0), "recycled frame not cleared");
    assert_eq!(
        kernel.machine().frames_materialized(),
        1,
        "the frame was reused, not materialised again"
    );
}
