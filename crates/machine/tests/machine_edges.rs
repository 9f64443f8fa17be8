//! Edge-case integration tests of the machine substrate.

use std::sync::Arc;

use numa_machine::skew::IDLE;
use numa_machine::uma::{UmaConfig, UmaCtx, UmaMachine};
use numa_machine::{
    AccessKind, FastPath, Frame, Machine, MachineConfig, Mem, Pacer, PhysPage, ProcCore,
};

fn machine(nodes: usize) -> Arc<Machine> {
    Machine::new(MachineConfig {
        nodes,
        frames_per_node: 16,
        skew_window_ns: None,
        ..MachineConfig::default()
    })
    .unwrap()
}

#[test]
fn block_charges_span_buckets_without_self_queueing() {
    // A long local stream (several buckets worth) must see zero queueing
    // delay: a self-paced processor cannot contend with itself.
    let m = machine(2);
    let mut core = ProcCore::new(Arc::clone(&m), 0, 0);
    core.charge_word_block(PhysPage::new(0, 0), AccessKind::Read, 4096);
    // A local stream saturates its own module exactly (service ==
    // latency); the bucketed model's chunk/bucket misalignment may charge
    // a sub-percent residue, but no real queueing.
    let delay = core.counters().queue_delay_ns;
    let stream = 4096 * 320;
    assert!(
        delay < stream / 100,
        "self-paced local stream must not materially self-queue: {delay} ns"
    );
    assert_eq!(core.vtime(), stream + delay);
    assert_eq!(core.counters().local_reads, 4096);

    // A remote stream runs at 12% utilization: exactly zero queueing.
    // (Fresh machine: the local stream above already booked module 0's
    // buckets over the same virtual times.)
    let m = machine(2);
    let mut r = ProcCore::new(Arc::clone(&m), 1, 0);
    r.charge_word_block(PhysPage::new(0, 0), AccessKind::Read, 2048);
    assert_eq!(r.counters().remote_reads, 2048);
    assert_eq!(r.counters().queue_delay_ns, 0);
    assert_eq!(r.vtime(), 2048 * 5000);
}

#[test]
#[should_panic(expected = "onto itself")]
fn block_transfer_to_same_frame_panics() {
    let m = machine(2);
    let mut core = ProcCore::new(m, 0, 0);
    core.block_transfer(PhysPage::new(0, 0), PhysPage::new(0, 0));
}

#[test]
fn big_machines_boot_beyond_the_old_64_node_cap() {
    for nodes in [64usize, 65, 128, 256] {
        let m = Machine::new(MachineConfig {
            nodes,
            frames_per_node: 2,
            skew_window_ns: None,
            ..MachineConfig::default()
        })
        .unwrap();
        assert_eq!(m.nprocs(), nodes);
        // The highest processor charges locally and remotely: processor
        // sets no longer truncate at bit 63.
        let mut core = ProcCore::new(Arc::clone(&m), nodes - 1, 0);
        core.charge_word_access(PhysPage::new(nodes - 1, 1), AccessKind::Write);
        core.charge_word_access(PhysPage::new(0, 0), AccessKind::Read);
        assert_eq!(core.counters().local_writes, 1);
        assert_eq!(core.counters().remote_reads, 1);
    }
    assert!(Machine::new(MachineConfig {
        nodes: 4097,
        ..MachineConfig::default()
    })
    .is_err());
}

#[test]
fn uma_read_spin_is_uncharged_but_sees_fresh_data() {
    let m = UmaMachine::new(UmaConfig {
        procs: 2,
        mem_words: 1 << 10,
    })
    .unwrap();
    let mut a = UmaCtx::new(Arc::clone(&m), 0);
    let mut b = UmaCtx::new(Arc::clone(&m), 1);
    b.write(0, 7);
    let before = a.vtime();
    assert_eq!(a.read_spin(0), 7);
    assert_eq!(a.vtime(), before, "spin reads are uncharged");
}

#[test]
fn skew_window_couples_numa_clocks() {
    // With the window on, a runaway processor stalls (in real time)
    // until the other catches up; verify by running both and checking
    // final clock spread stays within the window + one posting interval.
    let m = Machine::new(MachineConfig {
        nodes: 2,
        frames_per_node: 16,
        skew_window_ns: Some(500_000),
        ..MachineConfig::default()
    })
    .unwrap();
    // Both processors run from 0 before either thread starts, as a
    // context's activation posts its clock.
    m.skew().post(0, 0);
    m.skew().post(1, 0);
    let spread = std::thread::scope(|s| {
        // The slow processor does extra "compute" per access.
        let run = |p: usize, compute: u64| {
            let m = Arc::clone(&m);
            s.spawn(move || {
                let mut c = ProcCore::new(Arc::clone(&m), p, 0);
                let mut pacer = Pacer::new(p);
                for _ in 0..40_000 {
                    c.charge_word_access(PhysPage::new(p, 0), AccessKind::Read);
                    c.charge(compute);
                    if pacer.tick() {
                        while pacer.should_throttle(m.skew(), c.vtime()) {
                            std::thread::yield_now();
                        }
                    }
                }
                m.skew().post(p, IDLE);
                c.vtime()
            })
        };
        let (fast, slow) = (run(0, 0), run(1, 320));
        (fast.join().unwrap(), slow.join().unwrap())
    });
    // Both did 40k accesses: fast at 320 ns each (12.8 ms), slow at
    // 640 ns each (25.6 ms). Unthrottled, fast would finish at 12.8 ms;
    // the window forces it to track the slow clock to within ~0.5 ms
    // until the end. We can only assert the mechanism didn't deadlock
    // and both finished with sane clocks.
    assert!(spread.0 >= 40_000 * 320);
    assert!(spread.1 >= 40_000 * 640);
}

#[test]
fn frame_handle_survives_later_materialisation() {
    // A handle cached by `atc_insert` points at storage materialised on
    // demand; frames of the same module materialising afterwards must
    // neither move nor replace it.
    let m = Machine::new(MachineConfig {
        nodes: 1,
        frames_per_node: 16_384,
        skew_window_ns: None,
        ..MachineConfig::default()
    })
    .unwrap();
    let pp = PhysPage::new(0, 5_000);
    let mut core = ProcCore::new(Arc::clone(&m), 0, 0);
    core.atc_insert(1, 10, pp, true);
    fn through_handle(core: &mut ProcCore) -> &Frame {
        match core.fast_path(1, 10, true, AccessKind::Write) {
            FastPath::Hit(f) => f,
            _ => panic!("installed translation must hit"),
        }
    }
    let before = through_handle(&mut core) as *const Frame;
    m.frame_data(pp).store(9, 0xaaaa);

    for f in (0..16_384).filter(|&f| f != 5_000).take(10_000) {
        m.frame_data(PhysPage::new(0, f)).store(9, f as u32);
    }
    assert_eq!(m.frames_materialized(), 10_001);

    let f = through_handle(&mut core);
    assert!(std::ptr::eq(f, before), "the frame moved");
    assert_eq!(f.load(9), 0xaaaa, "the handle lost the frame's contents");
    f.store(9, 0xbbbb);
    assert_eq!(m.frame_data(pp).load(9), 0xbbbb);
}

#[test]
fn racing_first_uses_agree_on_one_storage() {
    // Eight threads name the same unmaterialised frame at once. Each
    // stores to its own word and, after all have, loads every word: had
    // any of them been handed a storage of its own, its peers' stores
    // would be missing from it.
    const THREADS: usize = 8;
    for round in 0..64 {
        let m = machine(1);
        let start = std::sync::Barrier::new(THREADS);
        let stored = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (m, start, stored) = (&m, &start, &stored);
                s.spawn(move || {
                    start.wait();
                    let f = m.frame_data(PhysPage::new(0, round % 16));
                    f.store(t, 100 + t as u32);
                    stored.wait();
                    for peer in 0..THREADS {
                        assert_eq!(f.load(peer), 100 + peer as u32);
                    }
                });
            }
        });
        assert_eq!(m.frames_materialized(), 1);
    }
}
