//! Regression test: the steady-state fault path performs zero heap
//! allocations.
//!
//! The slow-path overhaul gave every processor a `FaultScratch` — a
//! reusable `ShootdownBatch`, a `CmapMsg` pool, and drain/dying-frame
//! scratch vectors — so a fault that migrates a page, shoots down the
//! peer, and updates the directory touches the allocator only while the
//! pools warm up. This binary installs a counting global allocator
//! (which is why the test lives alone in its own integration target) and
//! pins the property down: after a warm-up phase, a long migration
//! ping-pong between two processors must allocate nothing at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use numa_machine::{Machine, MachineConfig, Mem};
use platinum::{Kernel, KernelConfig, PolicyKind, Rights};

struct Counting;
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(p, l, n) }
    }
}

#[global_allocator]
static A: Counting = Counting;

#[test]
fn steady_state_fault_path_is_allocation_free() {
    let machine = Machine::new(MachineConfig {
        nodes: 2,
        frames_per_node: 64,
        skew_window_ns: None,
        fast_path: true,
        ..MachineConfig::default()
    })
    .unwrap();
    // Always-replicate: the page migrates on every write fault and never
    // freezes — the pure slow-path regime.
    let kernel = Kernel::boot(
        machine,
        KernelConfig {
            policy: PolicyKind::AlwaysReplicate,
            ..KernelConfig::default()
        },
    );
    let space = kernel.create_space();
    let object = kernel.create_object(1);
    let va = space.map_anywhere(object, Rights::RW).unwrap();
    let mut a = kernel.attach(Arc::clone(&space), 0, 0).unwrap();
    let mut b = kernel.attach(space, 1, 0).unwrap();

    // One ping: each side faults (migrate + shootdown + directory
    // update) with the peer suspended, so the peer applies the queued
    // invalidation lazily on resume — the fault_heavy mix's kernel.
    let mut ping = |k: u32| {
        b.suspend();
        a.write(va, k);
        b.resume();
        a.suspend();
        b.write(va, k);
        a.resume();
    };

    // Warm-up: message pools, queue and batch capacities, thread-table
    // growth all settle here.
    for k in 0..512 {
        ping(k);
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    for k in 0..4096 {
        ping(k);
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state fault path allocated {} times over 8192 faults",
        after - before
    );
}
