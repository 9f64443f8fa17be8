//! Property test: the translation fast path is observationally identical
//! to the reference charging path.
//!
//! For any random page table (placement, rights, handle or no handle) and
//! any random access sequence, replaying the sequence through
//! [`ProcCore::fast_path`] must produce the same operation results, the
//! same final virtual time, the same access counters (including ATC
//! hit/miss counts) and the same memory contents as the reference
//! `Atc::lookup` + `charge_word_access` + `frame_data` steps.
//!
//! Two machines: the paper's flat 2-node Butterfly, and a 4-node machine
//! with an asymmetric class matrix in which every class has its own read,
//! write and atomic latency and a service time that saturates the
//! (narrowed) contention bucket, so queueing delays, bucket rolls and
//! backlog inheritance are all in play. That pins the charge a
//! handle-carrying ATC entry embeds, the per-kind reference counts and
//! the booking transition against the reference path.

use std::sync::Arc;

use numa_machine::{
    AccessKind, FastPath, LinkTiming, Machine, MachineConfig, PhysPage, ProcCore, Topology,
};
use proptest::prelude::*;

fn machine(fast_path: bool) -> Arc<Machine> {
    Machine::new(MachineConfig {
        nodes: 2,
        frames_per_node: 16,
        skew_window_ns: None,
        fast_path,
        ..MachineConfig::default()
    })
    .expect("valid config")
}

/// Four nodes, four classes, `class[from * 4 + to]` asymmetric (0 → 1 is
/// class 1, 1 → 0 class 3). Every service time exceeds some latency of
/// its class, and a bucket serves 20 us, so a lone processor's stream
/// overloads its buckets.
fn asymmetric() -> Arc<Machine> {
    let class = |read_ns, write_ns, atomic_ns, service_ns| LinkTiming {
        read_ns,
        write_ns,
        atomic_ns,
        service_ns,
    };
    let topology = Topology::from_matrix(
        4,
        vec![0, 1, 2, 3, 3, 0, 1, 2, 1, 2, 0, 3, 2, 3, 1, 0],
        vec![
            class(300, 250, 600, 900),
            class(4000, 2100, 5200, 2600),
            class(7300, 3900, 9100, 6100),
            class(1500, 1700, 2900, 4700),
        ],
    )
    .expect("well-formed matrix");
    Machine::new(MachineConfig {
        nodes: 4,
        frames_per_node: 16,
        topology: Some(topology),
        skew_window_ns: None,
        contention_bucket_ns: 20_000,
        ..MachineConfig::default()
    })
    .expect("valid config")
}

/// One machine per core, so the shared modules' contention cannot
/// couple the two cores' clocks.
fn machines(asymmetric_machine: bool) -> (Arc<Machine>, Arc<Machine>) {
    if asymmetric_machine {
        (asymmetric(), asymmetric())
    } else {
        (machine(true), machine(true))
    }
}

const ASID: u32 = 7;
/// Mapped virtual pages; the op generator also probes two unmapped vpns.
const NPAGES: u64 = 8;

/// Installs the same translations in both cores. The fast core
/// alternates between handle-carrying inserts and plain ATC inserts
/// (the latter exercises the null-handle fallback inside `fast_path`).
fn install(fast: &mut ProcCore, slow: &mut ProcCore, pages: &[(u8, bool, bool)]) -> Vec<PhysPage> {
    let nodes = fast.machine().nprocs();
    let mut pps = Vec::new();
    for (vpn, &(node, writable, with_handle)) in pages.iter().enumerate() {
        let pp = PhysPage::new(node as usize % nodes, vpn);
        if with_handle {
            fast.atc_insert(ASID, vpn as u64, pp, writable);
        } else {
            fast.atc().insert(ASID, vpn as u64, pp, writable);
        }
        slow.atc().insert(ASID, vpn as u64, pp, writable);
        pps.push(pp);
    }
    pps
}

// The shim's default case count (256) scales with `PROPTEST_CASES`; CI's
// `determinism` job runs these at 10x.
proptest! {
    #[test]
    fn fast_path_is_observationally_identical(
        asymmetric_machine in any::<bool>(),
        proc in 0usize..4,
        pages in prop::collection::vec(
            (0u8..4, any::<bool>(), any::<bool>()),
            NPAGES as usize..NPAGES as usize + 1,
        ),
        ops in prop::collection::vec(
            (0u64..NPAGES + 2, 0u8..5, any::<u32>()),
            1..200,
        ),
    ) {
        let (mf, ms) = machines(asymmetric_machine);
        let proc = proc % mf.nprocs();
        let mut fast = ProcCore::new(Arc::clone(&mf), proc, 0);
        let mut slow = ProcCore::new(Arc::clone(&ms), proc, 0);
        let pps = install(&mut fast, &mut slow, &pages);
        let wpp = mf.cfg().words_per_page();

        for &(vpn, op, val) in &ops {
            let (write, kind) = match op {
                0 => (false, AccessKind::Read),
                1 => (true, AccessKind::Write),
                _ => (true, AccessKind::Atomic),
            };
            let word = val as usize % wpp;
            let outcome = fast.fast_path(ASID, vpn, write, kind);
            let reference = slow.atc().lookup(ASID, vpn);
            match (outcome, reference) {
                (FastPath::Miss, None) => {}
                (FastPath::NoRights, Some((_, w))) => {
                    prop_assert!(write && !w, "NoRights only on a write to a read-only entry");
                }
                (FastPath::Hit(frame), Some((pp, w))) => {
                    prop_assert!(!write || w);
                    slow.charge_word_access(pp, kind);
                    let sf = ms.frame_data(pp);
                    match op {
                        0 => prop_assert_eq!(frame.load(word), sf.load(word)),
                        1 => {
                            frame.store(word, val);
                            sf.store(word, val);
                        }
                        2 => prop_assert_eq!(
                            frame.fetch_add(word, val),
                            sf.fetch_add(word, val)
                        ),
                        3 => prop_assert_eq!(frame.swap(word, val), sf.swap(word, val)),
                        _ => prop_assert_eq!(
                            frame.compare_exchange(word, val, val ^ 1),
                            sf.compare_exchange(word, val, val ^ 1)
                        ),
                    }
                }
                (got, want) => {
                    return Err(TestCaseError::fail(format!(
                        "probe results diverged on vpn {vpn}: fast {:?}, reference {:?}",
                        std::mem::discriminant(&got),
                        want,
                    )));
                }
            }
        }

        prop_assert_eq!(fast.vtime(), slow.vtime(), "virtual time diverged");
        prop_assert_eq!(fast.counters(), slow.counters(), "counters diverged");
        for &pp in &pps {
            for w in 0..wpp {
                prop_assert_eq!(mf.frame_data(pp).load(w), ms.frame_data(pp).load(w));
            }
        }
    }

    /// The block form: a hit charges `n` words as the reference path's
    /// `charge_word_block` does, from the entry, and hands back the frame
    /// the reference resolves through the machine; a miss or a rights
    /// fault charges nothing. Runs reach far past a bucket, so streams
    /// cross edges and, on the asymmetric machine, queue.
    #[test]
    fn fast_block_is_observationally_identical(
        asymmetric_machine in any::<bool>(),
        proc in 0usize..4,
        pages in prop::collection::vec(
            (0u8..4, any::<bool>(), any::<bool>()),
            NPAGES as usize..NPAGES as usize + 1,
        ),
        ops in prop::collection::vec(
            (0u64..NPAGES + 2, 0u8..3, 0u64..2048, any::<u32>()),
            1..60,
        ),
    ) {
        let (mf, ms) = machines(asymmetric_machine);
        let proc = proc % mf.nprocs();
        let mut fast = ProcCore::new(Arc::clone(&mf), proc, 0);
        let mut slow = ProcCore::new(Arc::clone(&ms), proc, 0);
        install(&mut fast, &mut slow, &pages);
        let wpp = mf.cfg().words_per_page();

        for &(vpn, op, n, val) in &ops {
            let kind = [AccessKind::Read, AccessKind::Write, AccessKind::Atomic][usize::from(op)];
            let write = kind != AccessKind::Read;
            let word = val as usize % wpp;
            let len = (n as usize).min(wpp - word);
            let outcome = fast.fast_block(ASID, vpn, write, kind, n);
            let reference = slow.atc().lookup(ASID, vpn);
            match (outcome, reference) {
                (FastPath::Miss, None) => {}
                (FastPath::NoRights, Some((_, w))) => prop_assert!(write && !w),
                (FastPath::Hit(frame), Some((pp, w))) => {
                    prop_assert!(!write || w);
                    slow.charge_word_block(pp, kind, n);
                    let sf = ms.frame_data(pp);
                    if write {
                        let src: Vec<u32> = (0..len as u32).map(|i| val ^ i).collect();
                        frame.store_slice(word, &src);
                        sf.store_slice(word, &src);
                    } else {
                        let (mut a, mut b) = (vec![0; len], vec![0; len]);
                        frame.load_slice(word, &mut a);
                        sf.load_slice(word, &mut b);
                        prop_assert_eq!(a, b);
                    }
                }
                _ => return Err(TestCaseError::fail("probe results diverged")),
            }
            prop_assert_eq!(fast.vtime(), slow.vtime(), "virtual time diverged");
        }
        prop_assert_eq!(fast.counters(), slow.counters(), "counters diverged");
    }

    #[test]
    fn fast_probe_charges_nothing(
        asymmetric_machine in any::<bool>(),
        pages in prop::collection::vec(
            (0u8..4, any::<bool>(), any::<bool>()),
            NPAGES as usize..NPAGES as usize + 1,
        ),
        probes in prop::collection::vec((0u64..NPAGES + 2, any::<bool>()), 1..50),
    ) {
        let (mf, ms) = machines(asymmetric_machine);
        let mut fast = ProcCore::new(Arc::clone(&mf), 0, 0);
        let mut slow = ProcCore::new(Arc::clone(&ms), 0, 0);
        install(&mut fast, &mut slow, &pages);

        for &(vpn, write) in &probes {
            let outcome = fast.fast_probe(ASID, vpn, write);
            let reference = slow.atc().lookup(ASID, vpn);
            match (outcome, reference) {
                (FastPath::Miss, None) => {}
                (FastPath::NoRights, Some((_, w))) => prop_assert!(write && !w),
                (FastPath::Hit(_), Some((_, w))) => prop_assert!(!write || w),
                _ => return Err(TestCaseError::fail("probe results diverged")),
            }
        }
        // The probes count as lookups but charge no time and no accesses.
        prop_assert_eq!(fast.vtime(), 0);
        prop_assert_eq!(fast.counters(), slow.counters());
        prop_assert_eq!(fast.counters().total_refs(), 0);
    }
}

/// The asymmetric machine really queues, and every kind of every class
/// is charged from the entry exactly as the reference path charges it:
/// each processor hammers a handle-carrying entry on every node, thirty
/// accesses of all three kinds at a time, and the classes whose service
/// outruns their latency overflow their buckets.
#[test]
fn saturated_asymmetric_machine_charges_like_the_reference() {
    for proc in 0..4 {
        let (mf, ms) = machines(true);
        let mut fast = ProcCore::new(Arc::clone(&mf), proc, 0);
        let mut slow = ProcCore::new(Arc::clone(&ms), proc, 0);
        let pages: Vec<_> = (0..4).map(|node| (node, true, true)).collect();
        install(&mut fast, &mut slow, &pages);
        for i in 0..600u64 {
            let vpn = i / 30 % 4;
            let kind = [AccessKind::Read, AccessKind::Write, AccessKind::Atomic][(i % 3) as usize];
            assert!(matches!(
                fast.fast_path(ASID, vpn, kind != AccessKind::Read, kind),
                FastPath::Hit(_)
            ));
            let (pp, _) = slow.atc().lookup(ASID, vpn).expect("resident");
            slow.charge_word_access(pp, kind);
            assert_eq!(fast.vtime(), slow.vtime(), "processor {proc}, access {i}");
        }
        let (cf, cs) = (fast.counters(), slow.counters());
        assert_eq!(cf, cs, "processor {proc}");
        assert!(cf.queue_delay_ns > 0, "processor {proc} must queue");
        assert_eq!(cf.local_reads + cf.local_writes + cf.local_atomics, 150);
        assert_eq!(cf.remote_reads + cf.remote_writes + cf.remote_atomics, 450);
    }
}

#[test]
fn config_flag_reaches_the_core() {
    let on = ProcCore::new(machine(true), 0, 0);
    let off = ProcCore::new(machine(false), 0, 0);
    assert!(on.fast_path_enabled());
    assert!(!off.fast_path_enabled());
}
