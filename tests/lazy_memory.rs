//! Physical memory is materialised on first use: a frame's storage
//! exists only once something has named it. Every assertion here is an
//! exact frame count — nothing is timed.

use platinum_repro::apps::gauss::{self, Gauss, GaussConfig};
use platinum_repro::kernel::PolicyKind;
use platinum_repro::machine::{Machine, MachineConfig, PhysPage};
use platinum_repro::runtime::sim::{Sim, SimBuilder};

#[test]
fn a_16_gb_machine_boots_with_no_frame_materialised() {
    let m = Machine::new(MachineConfig {
        nodes: 4,
        frames_per_node: 1 << 20,
        ..MachineConfig::default()
    })
    .unwrap();
    assert_eq!(m.frames_materialized(), 0);
    // The far end of the pool is as reachable as the near one, and using
    // it costs exactly the frames used.
    let last = PhysPage::new(3, (1 << 20) - 1);
    m.frame_data(last).store(7, 0xfeed);
    assert_eq!(m.frame_data(last).load(7), 0xfeed);
    assert_eq!(m.frame_data(PhysPage::new(0, 0)).load(7), 0);
    assert_eq!(m.frames_materialized(), 2);
    assert_eq!(m.module(3).frames_materialized(), 1);
    assert_eq!(m.module(1).frames_materialized(), 0);
}

/// Shared-memory Gaussian elimination — the staging `harness::run_gauss`
/// runs — on a machine the caller keeps so its frame counts can be read.
fn gauss_n48(sim: &mut Sim, p: usize) {
    let cfg = GaussConfig::with_n(48);
    let g = Gauss::stage(sim, &cfg, p);
    g.init(sim);
    g.measured(sim);
    assert_eq!(g.checksum(sim), gauss::reference_checksum(&cfg));
}

#[test]
fn gauss_materialises_exactly_the_frames_it_allocates() {
    // One processor never frees a frame, so the frames allocated at the
    // end are the high-water mark — and exactly those were materialised,
    // out of 16 x 4096 configured.
    let mut sim = SimBuilder::nodes(16).policy(PolicyKind::Platinum).build();
    assert_eq!(sim.machine.frames_materialized(), 0);
    gauss_n48(&mut sim, 1);
    assert_eq!(sim.kernel.stats().snapshot().frames_freed, 0);
    let allocated = sim.machine.frames_allocated();
    assert!(allocated >= 48, "one page per matrix row at least");
    assert_eq!(sim.machine.frames_materialized(), allocated);
    assert_eq!(sim.kernel.report().frames_materialized, allocated);

    // With replication and migration frames are freed and reused, so the
    // count is bracketed instead: every allocated frame is materialised,
    // and a materialised frame that is no longer allocated was freed.
    let mut sim = SimBuilder::nodes(4).policy(PolicyKind::Platinum).build();
    gauss_n48(&mut sim, 4);
    let allocated = sim.machine.frames_allocated();
    let freed = sim.kernel.stats().snapshot().frames_freed as usize;
    let materialised = sim.machine.frames_materialized();
    assert!(
        (allocated..=allocated + freed).contains(&materialised),
        "{materialised} materialised, {allocated} allocated, {freed} freed"
    );
}
