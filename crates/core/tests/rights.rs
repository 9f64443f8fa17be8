//! Access-rights enforcement at the virtual-memory level: the coherency
//! protocol may restrict physical mappings below the granted rights, but
//! never grants beyond them.

use std::sync::Arc;

use numa_machine::{Machine, MachineConfig, Mem};
use platinum::{Kernel, KernelConfig, KernelError, Rights};

fn kernel() -> Arc<Kernel> {
    let m = Machine::new(MachineConfig {
        nodes: 2,
        frames_per_node: 16,
        skew_window_ns: None,
        ..MachineConfig::default()
    })
    .unwrap();
    Kernel::boot(m, KernelConfig::default())
}

#[test]
fn read_only_grant_rejects_writes_and_atomics() {
    let kernel = kernel();
    let space = kernel.create_space();
    let object = kernel.create_object(1);
    let va = space.map_anywhere(object, Rights::RO).unwrap();
    let mut ctx = kernel.attach(space, 0, 0).unwrap();
    assert_eq!(ctx.try_read(va).unwrap(), 0);
    assert!(matches!(ctx.try_write(va, 1), Err(KernelError::Access(_))));
    // Atomics require write access too — the fault handler treats them
    // as writes.
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        ctx.fetch_add(va, 1);
    }));
    assert!(r.is_err(), "fetch_add on a read-only grant must fail");
}

#[test]
fn same_object_different_rights_in_different_spaces() {
    // "Neither the virtual address range nor the access rights need be
    // the same in every address space" (§1.1).
    let kernel = kernel();
    let object = kernel.create_object(1);
    let writer_space = kernel.create_space();
    let reader_space = kernel.create_space();
    let wva = writer_space
        .map_anywhere(Arc::clone(&object), Rights::RW)
        .unwrap();
    let rva = reader_space.map_anywhere(object, Rights::RO).unwrap();

    let mut w = kernel.attach(writer_space, 0, 0).unwrap();
    let mut r = kernel.attach(reader_space, 1, 0).unwrap();
    w.write(wva, 41);
    w.suspend();
    assert_eq!(r.read(rva), 41, "shared object, different va and rights");
    assert!(r.try_write(rva, 1).is_err());
    // Suspend the reader before the writer invalidates its replica (the
    // single test thread cannot acknowledge its own shootdown).
    r.suspend();
    w.resume();
    w.write(wva, 42);
    r.resume();
    assert_eq!(r.read(rva), 42);
}

#[test]
fn misaligned_accesses_error() {
    let kernel = kernel();
    let space = kernel.create_space();
    let object = kernel.create_object(1);
    let va = space.map_anywhere(object, Rights::RW).unwrap();
    let mut ctx = kernel.attach(space, 0, 0).unwrap();
    assert!(ctx.try_read(va + 2).is_err());
    assert!(ctx.try_write(va + 1, 0).is_err());
}

#[test]
fn unmapped_guard_pages_fault() {
    let kernel = kernel();
    let space = kernel.create_space();
    let a = kernel.create_object(1);
    let b = kernel.create_object(1);
    let va_a = space.map_anywhere(a, Rights::RW).unwrap();
    let va_b = space.map_anywhere(b, Rights::RW).unwrap();
    let mut ctx = kernel.attach(space, 0, 0).unwrap();
    ctx.write(va_a, 1);
    ctx.write(va_b, 2);
    // map_anywhere leaves a guard page between regions: an off-by-one
    // page overrun is a bus error, not silent corruption.
    let guard = va_a + 4096;
    assert!(guard < va_b, "layout sanity");
    assert!(ctx.try_read(guard).is_err(), "guard page must be unmapped");
}
