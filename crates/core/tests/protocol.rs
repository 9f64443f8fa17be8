//! Deterministic tests of the coherency protocol: every transition of the
//! paper's Figure 4, driven single-threaded through multiple processor
//! contexts.
//!
//! Convention: a context is `suspend`ed whenever another processor's
//! operation might shoot it down (a suspended processor is "inactive" in
//! the paper's sense — it is not interrupted and applies changes on
//! resume). This makes each test a deterministic protocol trace.

use std::sync::Arc;

use numa_machine::{Machine, MachineConfig, Mem};
use platinum::{CpState, Kernel, KernelConfig, PolicyKind, Rights, UserCtx, ACE_MAX_MIGRATIONS};

fn machine(nodes: usize) -> Arc<Machine> {
    Machine::new(MachineConfig {
        nodes,
        frames_per_node: 64,
        skew_window_ns: None,
        ..MachineConfig::default()
    })
    .unwrap()
}

fn setup_with_policy(nodes: usize, policy: PolicyKind) -> (Arc<Kernel>, u64, Vec<UserCtx>) {
    let kernel = Kernel::boot(
        machine(nodes),
        KernelConfig {
            policy,
            ..KernelConfig::default()
        },
    );
    let space = kernel.create_space();
    let object = kernel.create_object(4);
    let va = space.map_anywhere(object, Rights::RW).unwrap();
    let ctxs: Vec<UserCtx> = (0..nodes)
        .map(|p| kernel.attach(Arc::clone(&space), p, 0).unwrap())
        .collect();
    (kernel, va, ctxs)
}

fn setup(nodes: usize) -> (Arc<Kernel>, u64, Vec<UserCtx>) {
    setup_with_policy(nodes, PolicyKind::Platinum)
}

/// State snapshot helpers.
fn state_of(kernel: &Kernel, ctx: &UserCtx, va: u64) -> CpState {
    kernel.cpage_for_va(ctx.space(), va).unwrap().lock().state
}

fn copies_of(kernel: &Kernel, ctx: &UserCtx, va: u64) -> usize {
    kernel
        .cpage_for_va(ctx.space(), va)
        .unwrap()
        .lock()
        .copies
        .len()
}

#[test]
fn empty_to_present1_on_read() {
    let (kernel, va, mut ctxs) = setup(2);
    let v = ctxs[0].read(va);
    assert_eq!(v, 0, "fresh pages are zero-filled");
    let page = kernel.cpage_for_va(ctxs[0].space(), va).unwrap();
    let g = page.lock();
    assert_eq!(g.state, CpState::Present1);
    assert_eq!(g.copies.len(), 1);
    assert_eq!(g.copies[0].module_id(), 0, "copy allocated locally");
    assert!(!g.has_writer());
    g.check_invariants().unwrap();
}

#[test]
fn empty_to_modified_on_write() {
    let (kernel, va, mut ctxs) = setup(2);
    ctxs[1].write(va, 7);
    let page = kernel.cpage_for_va(ctxs[1].space(), va).unwrap();
    let g = page.lock();
    assert_eq!(g.state, CpState::Modified);
    assert_eq!(g.copies.len(), 1);
    assert_eq!(g.copies[0].module_id(), 1);
    assert!(g.has_writer());
    g.check_invariants().unwrap();
}

#[test]
fn present1_to_present_plus_on_remote_read() {
    let (kernel, va, mut ctxs) = setup(3);
    ctxs[0].write(va + 4, 11); // modified on node 0
    ctxs[0].suspend();

    // Reader on node 1: restrict (node 0 inactive, not awaited), then
    // replicate.
    assert_eq!(ctxs[1].read(va + 4), 11);
    assert_eq!(state_of(&kernel, &ctxs[1], va), CpState::PresentPlus);
    assert_eq!(copies_of(&kernel, &ctxs[1], va), 2);

    // A third reader grows the directory again.
    assert_eq!(ctxs[2].read(va + 4), 11);
    assert_eq!(copies_of(&kernel, &ctxs[2], va), 3);
    assert_eq!(kernel.stats().snapshot().replications, 2);
    ctxs[0].resume();
}

#[test]
fn present1_local_write_upgrades_without_invalidation() {
    let (kernel, va, mut ctxs) = setup(2);
    let _ = ctxs[0].read(va); // present1 on node 0
    assert_eq!(state_of(&kernel, &ctxs[0], va), CpState::Present1);
    ctxs[0].write(va, 5); // same node: upgrade
    let page = kernel.cpage_for_va(ctxs[0].space(), va).unwrap();
    let g = page.lock();
    assert_eq!(g.state, CpState::Modified);
    assert_eq!(
        g.last_invalidation, None,
        "present1->modified performs no invalidation (§3.2)"
    );
    assert_eq!(g.copies.len(), 1);
}

#[test]
fn present_plus_write_collapses_to_modified() {
    let (kernel, va, mut ctxs) = setup(3);
    let _ = ctxs[0].read(va);
    let _ = ctxs[1].read(va);
    let _ = ctxs[2].read(va);
    assert_eq!(copies_of(&kernel, &ctxs[0], va), 3);

    ctxs[1].suspend();
    ctxs[2].suspend();
    ctxs[0].write(va, 9);

    let page = kernel.cpage_for_va(ctxs[0].space(), va).unwrap();
    {
        let g = page.lock();
        assert_eq!(g.state, CpState::Modified);
        assert_eq!(g.copies.len(), 1);
        assert_eq!(g.copies[0].module_id(), 0, "the local copy survives");
        assert!(g.last_invalidation.is_some(), "this was an invalidation");
        g.check_invariants().unwrap();
    }
    let s = kernel.stats().snapshot();
    assert_eq!(s.invalidations, 1);
    assert_eq!(s.frames_freed, 2);

    // Readers resume, re-fault, and see the new value... but the page was
    // just invalidated, so the policy freezes rather than replicates.
    ctxs[1].resume();
    assert_eq!(ctxs[1].read(va), 9);
    assert_eq!(
        copies_of(&kernel, &ctxs[1], va),
        1,
        "frozen: no replication"
    );
}

#[test]
fn modified_remote_read_restricts_writer() {
    let (kernel, va, mut ctxs) = setup(2);
    ctxs[0].write(va, 3);
    ctxs[0].suspend();
    assert_eq!(ctxs[1].read(va), 3);
    assert_eq!(state_of(&kernel, &ctxs[1], va), CpState::PresentPlus);

    // The writer resumes; its mapping was restricted, so the next write
    // faults and collapses the replicas again.
    ctxs[1].suspend();
    ctxs[0].resume();
    ctxs[0].write(va, 4);
    assert_eq!(state_of(&kernel, &ctxs[0], va), CpState::Modified);
    ctxs[1].resume();
    assert_eq!(ctxs[1].read(va), 4, "reader must observe the new value");
}

#[test]
fn modified_remote_write_migrates() {
    let (kernel, va, mut ctxs) = setup(2);
    ctxs[0].write(va, 1); // modified on node 0
    ctxs[0].suspend();
    ctxs[1].write(va, 2); // first remote write: no recent invalidation -> migrate
    let page = kernel.cpage_for_va(ctxs[1].space(), va).unwrap();
    {
        let g = page.lock();
        assert_eq!(g.state, CpState::Modified);
        assert_eq!(g.copies.len(), 1);
        assert_eq!(g.copies[0].module_id(), 1, "page migrated to the writer");
        assert_eq!(g.migrations, 1);
        assert!(g.last_invalidation.is_some());
    }
    let s = kernel.stats().snapshot();
    assert_eq!(s.migrations, 1);
    assert_eq!(s.frames_freed, 1);
    ctxs[0].resume();
    assert_eq!(ctxs[0].read(va), 2, "old node re-faults and sees new data");
}

#[test]
fn write_ping_pong_freezes_page() {
    let (kernel, va, mut ctxs) = setup(2);
    ctxs[0].write(va, 1);
    ctxs[0].suspend();
    ctxs[1].write(va, 2); // migrate, stamps the invalidation history
    ctxs[1].suspend();
    ctxs[0].resume();
    ctxs[0].write(va, 3); // within t1 of the invalidation: freeze
    let page = kernel.cpage_for_va(ctxs[0].space(), va).unwrap();
    {
        let g = page.lock();
        assert!(g.frozen, "interleaved writes must freeze the page");
        assert_eq!(g.state, CpState::Modified);
        assert_eq!(g.copies.len(), 1);
        assert_eq!(g.copies[0].module_id(), 1, "frozen page stays where it was");
        g.check_invariants().unwrap();
    }
    let s = kernel.stats().snapshot();
    assert_eq!(s.freezes, 1);
    assert!(s.remote_maps >= 1);
    // Both processors keep working on the single frozen copy.
    ctxs[1].resume();
    assert_eq!(ctxs[1].read(va), 3);
    ctxs[1].write(va, 4);
    assert_eq!(ctxs[0].read(va), 4);
    // No further protocol work: still one copy, still frozen.
    assert_eq!(copies_of(&kernel, &ctxs[0], va), 1);
}

#[test]
fn defrost_thaws_frozen_page() {
    let (kernel, va, mut ctxs) = setup(2);
    // Freeze the page as above.
    ctxs[0].write(va, 1);
    ctxs[0].suspend();
    ctxs[1].write(va, 2);
    ctxs[1].suspend();
    ctxs[0].resume();
    ctxs[0].write(va, 3);
    assert!(
        kernel
            .cpage_for_va(ctxs[0].space(), va)
            .unwrap()
            .lock()
            .frozen
    );

    // The defrost daemon runs (ctx 1 suspended: not awaited).
    kernel.run_defrost(&mut ctxs[0]);
    let page = kernel.cpage_for_va(ctxs[0].space(), va).unwrap();
    {
        let g = page.lock();
        assert!(!g.frozen);
        assert_eq!(g.state, CpState::Present1, "thawed page has no writers");
        assert_eq!(g.thaws, 1);
    }
    // Later (outside t1) the page replicates freely again.
    ctxs[0].compute(20_000_000); // 20 ms of virtual time
    assert_eq!(ctxs[0].read(va), 3);
    ctxs[1].resume();
    ctxs[1].compute(20_000_000);
    assert_eq!(ctxs[1].read(va), 3);
    assert_eq!(
        copies_of(&kernel, &ctxs[1], va),
        2,
        "post-thaw reads replicate again"
    );
}

#[test]
fn explicit_thaw() {
    let (kernel, va, mut ctxs) = setup(2);
    ctxs[0].write(va, 1);
    ctxs[0].suspend();
    ctxs[1].write(va, 2);
    ctxs[1].suspend();
    ctxs[0].resume();
    ctxs[0].write(va, 3);
    assert!(
        kernel
            .cpage_for_va(ctxs[0].space(), va)
            .unwrap()
            .lock()
            .frozen
    );
    ctxs[0].thaw(va).unwrap();
    assert!(
        !kernel
            .cpage_for_va(ctxs[0].space(), va)
            .unwrap()
            .lock()
            .frozen
    );
}

#[test]
fn thaw_on_access_variant_replicates_after_t1() {
    let (kernel, va, mut ctxs) = setup_with_policy(3, PolicyKind::PlatinumThawOnAccess);
    ctxs[0].write(va, 1);
    ctxs[0].suspend();
    ctxs[1].write(va, 2);
    ctxs[1].suspend();
    ctxs[0].resume();
    ctxs[0].write(va, 3);
    assert!(
        kernel
            .cpage_for_va(ctxs[0].space(), va)
            .unwrap()
            .lock()
            .frozen
    );
    ctxs[0].suspend();

    // Within t1 a mapping-less processor still gets a remote mapping.
    assert_eq!(ctxs[2].read(va), 3);
    assert!(
        kernel
            .cpage_for_va(ctxs[2].space(), va)
            .unwrap()
            .lock()
            .frozen
    );

    // After t1 expires, the next *fault* thaws the page without waiting
    // for the defrost daemon. ctx2 holds a read-only mapping, so a write
    // faults; the policy replies Replicate and the page migrates-and-thaws.
    // (ctx1, the holder of the old copy, is suspended and therefore not
    // interrupted; it applies the invalidation on resume.)
    ctxs[2].compute(20_000_000);
    ctxs[2].write(va, 9);
    let page = kernel.cpage_for_va(ctxs[2].space(), va).unwrap();
    {
        let g = page.lock();
        assert!(!g.frozen, "access must thaw after t1 under this variant");
        assert_eq!(g.thaws, 1);
        assert_eq!(g.copies[0].module_id(), 2, "thaw-by-migration moved it");
    }
    ctxs[0].resume();
    assert_eq!(ctxs[0].read(va), 9);
}

#[test]
fn never_replicate_remote_maps() {
    let (kernel, va, mut ctxs) = setup_with_policy(3, PolicyKind::LocalFirstTouch);
    ctxs[0].write(va, 42);
    assert_eq!(ctxs[1].read(va), 42);
    assert_eq!(ctxs[2].read(va), 42);
    let page = kernel.cpage_for_va(ctxs[0].space(), va).unwrap();
    let g = page.lock();
    assert_eq!(g.copies.len(), 1, "static placement never replicates");
    assert_eq!(g.copies[0].module_id(), 0, "first touch placed it");
    let s = kernel.stats().snapshot();
    assert_eq!(s.replications, 0);
    assert_eq!(s.remote_maps, 2);
    assert!(
        !g.frozen,
        "remote mapping without interference is not a freeze"
    );
}

#[test]
fn never_replicate_remote_write_keeps_placement() {
    let (kernel, va, mut ctxs) = setup_with_policy(2, PolicyKind::LocalFirstTouch);
    ctxs[0].write(va, 1);
    ctxs[0].suspend();
    ctxs[1].write(va, 2);
    let page = kernel.cpage_for_va(ctxs[1].space(), va).unwrap();
    let g = page.lock();
    assert_eq!(g.copies[0].module_id(), 0, "page never moves");
    assert_eq!(g.migrations, 0);
    drop(g);
    ctxs[0].resume();
    assert_eq!(ctxs[0].read(va), 2);
}

/// A frame recycled through `free_frame` must not leak its previous
/// page's words into the next page's first touch. One frame per node, so
/// page B's first touch on node 0 is certain to reuse the frame page A
/// migrated out of.
#[test]
fn first_touch_zero_fills_a_recycled_frame() {
    let machine = Machine::new(MachineConfig {
        nodes: 2,
        frames_per_node: 1,
        skew_window_ns: None,
        ..MachineConfig::default()
    })
    .unwrap();
    let page_bytes = machine.cfg().page_bytes();
    let kernel = Kernel::boot(
        machine,
        KernelConfig {
            policy: PolicyKind::AlwaysReplicate,
            ..KernelConfig::default()
        },
    );
    let space = kernel.create_space();
    let object = kernel.create_object(2);
    let page_a = space.map_anywhere(object, Rights::RW).unwrap();
    let page_b = page_a + page_bytes;
    let mut p0 = kernel.attach(Arc::clone(&space), 0, 0).unwrap();
    let mut p1 = kernel.attach(space, 1, 0).unwrap();

    p0.write(page_a + 5 * 4, 0xdead);
    p0.suspend();
    p1.write(page_a, 1); // migrates A to node 1, freeing node 0's frame
    assert_eq!(kernel.machine().module(0).frames_allocated(), 0);
    p1.suspend();
    p0.resume();
    assert_eq!(
        p0.read(page_b + 5 * 4),
        0,
        "a never-written page read back the recycled frame's old contents"
    );
    assert_eq!(kernel.machine().module(0).frames_allocated(), 1);
}

#[test]
fn always_replicate_never_freezes() {
    let (kernel, va, mut ctxs) = setup_with_policy(2, PolicyKind::AlwaysReplicate);
    for round in 0..4u32 {
        ctxs[1].suspend();
        ctxs[0].resume();
        ctxs[0].write(va, round * 2);
        ctxs[0].suspend();
        ctxs[1].resume();
        ctxs[1].write(va, round * 2 + 1);
    }
    let s = kernel.stats().snapshot();
    assert_eq!(s.freezes, 0);
    assert!(s.migrations >= 7, "every remote write migrates");
    // Suspend the current writer before reading from the other node: the
    // read restricts the writer's mapping via shootdown.
    ctxs[1].suspend();
    ctxs[0].resume();
    assert_eq!(ctxs[0].read(va), 7);
}

#[test]
fn ace_style_bounds_migrations_then_freezes() {
    let (kernel, va, mut ctxs) = setup_with_policy(2, PolicyKind::AceStyle);
    ctxs[0].write(va, 0);
    for round in 1..6u32 {
        let (a, b) = if round % 2 == 1 { (0, 1) } else { (1, 0) };
        ctxs[a].suspend();
        ctxs[b].resume();
        ctxs[b].write(va, round);
    }
    let s = kernel.stats().snapshot();
    assert_eq!(
        s.migrations,
        u64::from(ACE_MAX_MIGRATIONS),
        "ACE migrates at most ACE_MAX_MIGRATIONS times"
    );
    let page = kernel.cpage_for_va(ctxs[0].space(), va).unwrap();
    assert!(page.lock().frozen, "then freezes in place for good");
}

#[test]
fn replication_preserves_data_and_invalidation_propagates() {
    let (_kernel, va, mut ctxs) = setup(4);
    // Fill a whole page on node 0.
    for i in 0..64u64 {
        ctxs[0].write(va + 4 * i, i as u32 * 3);
    }
    ctxs[0].suspend();
    // Everyone replicates and checks the full contents.
    for ctx in ctxs.iter_mut().skip(1) {
        for i in 0..64u64 {
            assert_eq!(ctx.read(va + 4 * i), i as u32 * 3);
        }
    }
    // Node 1 rewrites one word: replicas must die.
    ctxs[2].suspend();
    ctxs[3].suspend();
    ctxs[1].write(va + 4, 999);
    ctxs[2].resume();
    assert_eq!(ctxs[2].read(va + 4), 999, "stale replica must not be read");
    ctxs[3].resume();
    assert_eq!(ctxs[3].read(va + 4), 999);
    ctxs[0].resume();
    assert_eq!(ctxs[0].read(va + 4), 999);
}

#[test]
fn two_address_spaces_share_one_object_coherently() {
    let kernel = Kernel::boot(machine(2), KernelConfig::default());
    let object = kernel.create_object(1);
    let s1 = kernel.create_space();
    let s2 = kernel.create_space();
    let va1 = s1.map_anywhere(Arc::clone(&object), Rights::RW).unwrap();
    let va2 = s2.map_anywhere(Arc::clone(&object), Rights::RO).unwrap();
    let mut a = kernel.attach(Arc::clone(&s1), 0, 0).unwrap();
    let mut b = kernel.attach(Arc::clone(&s2), 1, 0).unwrap();

    a.write(va1, 77);
    a.suspend();
    assert_eq!(b.read(va2), 77, "different space, same object page");

    // The writer invalidates the replica through the *other* space's
    // Cmap queue (the binding list spans spaces).
    b.suspend();
    a.resume();
    a.write(va1, 78);
    b.resume();
    assert_eq!(b.read(va2), 78);

    // Each space's own Cmap entry holds the one coherent page, and the
    // by-name lookup agrees with the handle.
    let e1 = s1.cmap().entry(s1.vpn_of(va1)).unwrap();
    let e2 = s2.cmap().entry(s2.vpn_of(va2)).unwrap();
    assert!(Arc::ptr_eq(&e1.page, &e2.page));
    assert_eq!(e1.page.id(), e1.cpage);
    for (s, va) in [(&s1, va1), (&s2, va2)] {
        assert!(Arc::ptr_eq(&kernel.cpage_for_va(s, va).unwrap(), &e1.page));
    }

    // And the read-only space cannot write.
    assert!(b.try_write(va2, 1).is_err());
}

#[test]
fn protection_and_bus_errors() {
    let (kernel, _va, mut ctxs) = setup(1);
    // Untouched address far beyond any region: bus error.
    let r = ctxs[0].try_read(0x4000_0000);
    assert!(r.is_err());
    // Read-only region rejects writes at the VM level.
    let ro = kernel.create_object(1);
    let ro_va = ctxs[0]
        .space()
        .map_at(ro, 0, 1, 0x4100_0000, Rights::RO)
        .map(|_| 0x4100_0000u64)
        .unwrap();
    assert_eq!(ctxs[0].try_read(ro_va).unwrap(), 0);
    assert!(ctxs[0].try_write(ro_va, 1).is_err());
}

#[test]
fn atomic_ops_are_coherent_on_frozen_page() {
    let (kernel, va, mut ctxs) = setup(2);
    // Freeze the page with interleaved writes.
    ctxs[0].write(va, 0);
    ctxs[0].suspend();
    ctxs[1].write(va, 0);
    ctxs[1].suspend();
    ctxs[0].resume();
    ctxs[0].write(va, 0);
    ctxs[1].resume();
    assert!(
        kernel
            .cpage_for_va(ctxs[0].space(), va)
            .unwrap()
            .lock()
            .frozen
    );

    // Atomic increments from both processors through remote mappings.
    for _ in 0..50 {
        ctxs[0].fetch_add(va, 1);
        ctxs[1].fetch_add(va, 1);
    }
    assert_eq!(ctxs[0].read(va), 100);
    assert_eq!(ctxs[1].compare_exchange(va, 100, 7), Ok(100));
    assert_eq!(ctxs[0].swap(va, 9), 7);
}

#[test]
fn migration_of_thread_refaults_pages() {
    let (kernel, va, mut ctxs) = setup(3);
    ctxs[1].suspend();
    ctxs[2].suspend();
    let mut ctx = ctxs.remove(0);
    ctx.write(va, 5);
    assert_eq!(state_of(&kernel, &ctx, va), CpState::Modified);

    // Kill the other contexts so their processors free up... not needed:
    // migrate to an unoccupied processor is impossible (all occupied), so
    // drop one.
    drop(ctxs.pop()); // frees processor 2
    ctx.migrate(2).unwrap();
    assert_eq!(ctx.proc_id(), 2);
    // The thread's data follows it on the next write fault (migration
    // policy: no recent invalidation).
    ctx.write(va, 6);
    let page = kernel.cpage_for_va(ctx.space(), va).unwrap();
    assert_eq!(page.lock().copies[0].module_id(), 2);
    assert_eq!(ctx.read(va), 6);
    // Migrating onto an occupied processor fails.
    assert!(ctx.migrate(1).is_err());
}

#[test]
fn read_block_and_write_block_roundtrip_across_pages() {
    let (_kernel, va, mut ctxs) = setup(2);
    let n = 3000usize; // spans three 4 KB pages
    let src: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect();
    ctxs[0].write_block(va, &src);
    ctxs[0].suspend();
    let mut dst = vec![0u32; n];
    ctxs[1].read_block(va, &mut dst);
    assert_eq!(src, dst);
}

#[test]
fn post_mortem_report_shows_frozen_pages() {
    let (kernel, va, mut ctxs) = setup(2);
    ctxs[0].write(va, 1);
    ctxs[0].suspend();
    ctxs[1].write(va, 2);
    ctxs[1].suspend();
    ctxs[0].resume();
    ctxs[0].write(va, 3);
    let report = kernel.report();
    assert_eq!(report.ever_frozen().len(), 1);
    assert!(report.totals.faults >= 3);
    let text = report.to_string();
    assert!(
        text.contains("FROZEN"),
        "report must flag frozen pages:\n{text}"
    );
}

/// One object mapped three times (`a`, `b`, `c`) in one space under
/// thaw-on-access, on two nodes, left with the page frozen on node 0:
/// processor 1 holds a remote writable translation through `a` and a
/// remote read-only one through `b`, `c` is untouched, processor 0 is
/// suspended, and processor 1's freeze window has expired.
fn aliased_frozen_page() -> (Arc<Kernel>, [u64; 3], Vec<UserCtx>) {
    let kernel = Kernel::boot(
        machine(2),
        KernelConfig {
            policy: PolicyKind::PlatinumThawOnAccess,
            ..KernelConfig::default()
        },
    );
    let space = kernel.create_space();
    let object = kernel.create_object(1);
    let vas = [(); 3].map(|_| space.map_anywhere(Arc::clone(&object), Rights::RW).unwrap());
    let [a, b, _] = vas;
    let mut ctxs: Vec<UserCtx> = (0..2)
        .map(|p| kernel.attach(Arc::clone(&space), p, 0).unwrap())
        .collect();
    ctxs[1].write(a, 1);
    ctxs[1].suspend();
    ctxs[0].write(a, 2); // migrates the page to node 0
    ctxs[0].suspend();
    ctxs[1].resume();
    ctxs[1].write(a, 3); // the invalidation is recent: freeze, map remotely
    assert_eq!(ctxs[1].read(b), 3);
    let page = kernel.cpage_for_va(ctxs[1].space(), a).unwrap();
    {
        let g = page.lock();
        assert!(g.frozen);
        assert_eq!(g.copies[0].module_id(), 0);
    }
    ctxs[1].compute(20_000_000);
    (kernel, vas, ctxs)
}

/// A migration removes every translation its initiator holds to the old
/// copy, not just the one it faulted through: a read through an alias
/// must not return the freed frame's stale word.
#[test]
fn migration_invalidates_the_initiators_aliases() {
    let (kernel, [a, b, _], mut ctxs) = aliased_frozen_page();
    ctxs[1].write(b, 4);
    let page = kernel.cpage_for_va(ctxs[1].space(), b).unwrap();
    {
        let g = page.lock();
        assert!(!g.frozen, "the access thawed the page");
        assert_eq!(g.copies.len(), 1);
        assert_eq!(g.copies[0].module_id(), 1, "the write migrated the page");
    }
    assert_eq!(
        ctxs[1].read(a),
        4,
        "read through a translation to a freed frame"
    );
}

/// A replication restricts every writable translation its initiator
/// holds, not just the one it faulted through: a write through an alias
/// must fault and invalidate the new replica.
#[test]
fn replication_restricts_the_initiators_aliases() {
    let (kernel, [a, _, c], mut ctxs) = aliased_frozen_page();
    assert_eq!(ctxs[1].read(c), 3);
    assert_eq!(state_of(&kernel, &ctxs[1], c), CpState::PresentPlus);
    let faults = ctxs[1].counters().faults;
    ctxs[1].write(a, 9);
    assert_eq!(
        ctxs[1].counters().faults,
        faults + 1,
        "a write through a translation the replication restricted"
    );
    assert_eq!(state_of(&kernel, &ctxs[1], a), CpState::Modified);
    assert_eq!(ctxs[1].read(c), 9, "read a stale replica");
}

/// A thaw run by a processor active in one space reaches its own
/// translation in another: the directive waits in that space's queue and
/// is applied when the processor switches back.
#[test]
fn a_thaw_reaches_the_initiators_other_space() {
    let kernel = Kernel::boot(machine(2), KernelConfig::default());
    let object = kernel.create_object(1);
    let s1 = kernel.create_space();
    let s2 = kernel.create_space();
    let va1 = s1.map_anywhere(Arc::clone(&object), Rights::RW).unwrap();
    let va2 = s2.map_anywhere(object, Rights::RW).unwrap();
    let mut p0 = kernel.attach(Arc::clone(&s2), 0, 0).unwrap();
    let mut p1 = kernel.attach(Arc::clone(&s1), 1, 0).unwrap();
    p0.write(va2, 1);
    p0.suspend();
    p1.write(va1, 2); // migrates the page to node 1
    p1.suspend();
    p0.resume();
    p0.write(va2, 3); // frozen on node 1, mapped writable in s2
    let page = kernel.cpage_for_va(&s2, va2).unwrap();
    assert!(page.lock().frozen);

    // Past t2, a fault in s1 runs the defrost daemon, then replicates.
    p0.switch_space(Arc::clone(&s1));
    p0.compute(kernel.config().t2_defrost_ns);
    assert_eq!(p0.read(va1), 3);
    assert_eq!(page.lock().thaws, 1);

    p0.switch_space(Arc::clone(&s2));
    let faults = p0.counters().faults;
    p0.write(va2, 4);
    assert_eq!(
        p0.counters().faults,
        faults + 1,
        "a write through a translation the thaw invalidated"
    );
    assert_eq!(page.lock().state, CpState::Modified);
    p0.switch_space(s1);
    assert_eq!(p0.read(va1), 4, "read a stale replica");
    p1.resume();
}
