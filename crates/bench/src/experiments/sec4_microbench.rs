//! §4 basic-operation timings.
//!
//! Reproduces the paper's measured costs of the coherent-memory
//! mechanism on the 16-processor machine:
//!
//! * page-sized block transfer: ~1.11 ms,
//! * read miss replicating a non-modified page: 1.34-1.38 ms
//!   (kernel data local vs. remote),
//! * read miss replicating a modified page, one processor restricted:
//!   1.38-1.59 ms,
//! * write miss on a present+ page, one invalidation + one page freed:
//!   0.25-0.45 ms,
//! * incremental cost per additional interrupted processor: <= 17 us
//!   (~7 us IPI + ~10 us page free), versus ~55 us reported by
//!   Black et al. for the Mach shared-Pmap mechanism on an Encore
//!   Multimax (modelled by the `SharedPmapStall` comparator).

use crate::report::Table;
use numa_machine::{Machine, MachineConfig, Mem, ProcCore};

use crate::micro::{vcost, MicroBench};
use crate::run::{Artifact, Run};

pub(crate) fn run(run: &mut Run) {
    run.start(Artifact::None);
    println!("Section 4: basic operation costs (16-node machine)\n");

    block_transfer();
    read_miss_non_modified();
    read_miss_modified();
    write_miss_present_plus();
    incremental_shootdown();
}

fn block_transfer() {
    let machine = Machine::new(MachineConfig {
        nodes: 2,
        skew_window_ns: None,
        ..MachineConfig::default()
    })
    .unwrap();
    machine.module(0).alloc_frame(0).unwrap();
    machine.module(1).alloc_frame(1).unwrap();
    let mut core = ProcCore::new(machine, 0, 0);
    let before = core.vtime();
    core.block_transfer(
        numa_machine::PhysPage::new(0, 0),
        numa_machine::PhysPage::new(1, 0),
    );
    let cost = core.vtime() - before;
    println!(
        "block transfer, 4 KB page:        {:>8.3} ms   (paper: ~1.11 ms)",
        cost as f64 / 1e6
    );
}

/// Read miss replicating a non-modified page. The kernel-data-local case
/// arranges the Cmap (space home) and Cpage metadata (first-touch home)
/// on the faulting node; the remote case homes both elsewhere.
fn read_miss_non_modified() {
    // Local kernel data: space 0 (home 0), first touch by processor 0,
    // then the data migrates away and ages past t1 so the re-read
    // replicates a non-modified (present+) page.
    let mb = MicroBench::new(false);
    let va = mb.va;
    {
        let mut c0 = mb.attach(0);
        let _ = c0.read(va); // present1 on node 0, cpage home 0
        c0.suspend();
        let mut c2 = mb.attach(2);
        c2.write(va, 7); // migrates to node 2 (invalidates node 0)
        c2.suspend();
        let mut c3 = mb.attach(3);
        c3.compute(20_000_000); // outside t1
        let _ = c3.read(va); // restrict (inactive writer) + replicate: present+
        c3.suspend();
        c0.resume();
        c0.compute(25_000_000);
        let (cost, v) = vcost(&mut c0, |c| c.read(va));
        assert_eq!(v, 7);
        println!(
            "read miss, non-modified, kernel data local:  {:>8.3} ms   (paper: 1.34 ms)",
            cost as f64 / 1e6
        );
    }

    // Remote kernel data: a second space (home 1), first touch by
    // processor 1, faulting processor 0.
    let mb = MicroBench::new(false);
    let space2 = mb.sim.kernel.create_space(); // AsId 1 -> home 1
    let object = mb.sim.kernel.create_object(1);
    let va = space2.map_anywhere(object, platinum::Rights::RW).unwrap();
    {
        let mut c1 = mb
            .sim
            .kernel
            .attach(std::sync::Arc::clone(&space2), 1, 0)
            .unwrap();
        let _ = c1.read(va); // present1 on node 1, home 1
        c1.suspend();
        // Start well past the warmer's clock so the measurement does not
        // inherit residual bus occupancy from setup.
        let mut c0 = mb
            .sim
            .kernel
            .attach(std::sync::Arc::clone(&space2), 0, 50_000_000)
            .unwrap();
        let (cost, _) = vcost(&mut c0, |c| c.read(va));
        println!(
            "read miss, non-modified, kernel data remote: {:>8.3} ms   (paper: 1.38 ms)",
            cost as f64 / 1e6
        );
    }
}

/// Read miss replicating a modified page: one live writer must be
/// interrupted and restricted to read-only access.
fn read_miss_modified() {
    let mb = MicroBench::new(false);
    let va = mb.va;
    let cost = mb.with_pollers(
        &[1],
        |ctx| ctx.write(va, 42),
        |ctx| {
            let (cost, v) = vcost(ctx, |c| c.read(va));
            assert_eq!(v, 42);
            cost
        },
    );
    println!(
        "read miss, modified, 1 writer restricted:    {:>8.3} ms   (paper: 1.38-1.59 ms)",
        cost as f64 / 1e6
    );
}

/// Write miss on a present+ page with one remote replica to invalidate
/// and free.
fn write_miss_present_plus() {
    let mb = MicroBench::new(false);
    let va = mb.va;
    let cost = mb.with_pollers(
        &[1],
        |ctx| {
            let _ = ctx.read(va); // replica on node 1
        },
        |ctx| {
            let _ = ctx.read(va); // own copy on node 0 -> present+
            ctx.compute(20_000_000); // age past t1 (avoid freezing)
            let (cost, _) = vcost(ctx, |c| c.write(va, 9));
            cost
        },
    );
    println!(
        "write miss, present+, 1 invalidation+free:   {:>8.3} ms   (paper: 0.25-0.45 ms)\n",
        cost as f64 / 1e6
    );
}

/// Incremental cost per additional interrupted processor, PLATINUM vs
/// the Mach-style shared-Pmap comparator.
fn incremental_shootdown() {
    println!("write miss on present+ with k live replica holders:");
    let measure = |mach: bool, k: usize| -> u64 {
        let mb = MicroBench::new(mach);
        let va = mb.va;
        let pollers: Vec<usize> = (1..=k).collect();
        mb.with_pollers(
            &pollers,
            |ctx| {
                let _ = ctx.read(va);
            },
            |ctx| {
                let _ = ctx.read(va);
                ctx.compute(20_000_000);
                let (cost, _) = vcost(ctx, |c| c.write(va, 1));
                cost
            },
        )
    };

    let ks = [1usize, 2, 4, 8, 15];
    let mut t = Table::new(vec![
        "k",
        "PLATINUM ms",
        "incr us/proc",
        "Mach-style ms",
        "incr us/proc",
    ]);
    let mut prev: Option<(usize, u64, u64)> = None;
    let mut first = (0u64, 0u64);
    let mut last = (0u64, 0u64);
    for &k in &ks {
        let plat = measure(false, k);
        let mach = measure(true, k);
        let (plat_incr, mach_incr) = match prev {
            None => ("-".to_string(), "-".to_string()),
            Some((pk, pp, pm)) => {
                let d = (k - pk) as f64 * 1e3;
                (
                    format!("{:.1}", (plat as f64 - pp as f64) / d),
                    format!("{:.1}", (mach as f64 - pm as f64) / d),
                )
            }
        };
        t.row(vec![
            k.to_string(),
            format!("{:.3}", plat as f64 / 1e6),
            plat_incr,
            format!("{:.3}", mach as f64 / 1e6),
            mach_incr,
        ]);
        if prev.is_none() {
            first = (plat, mach);
        }
        last = (plat, mach);
        prev = Some((k, plat, mach));
    }
    println!("{t}");
    let span = (ks[ks.len() - 1] - ks[0]) as f64 * 1e3;
    println!(
        "PLATINUM incremental cost per extra processor:   {:.1} us (paper: <= 17 us)",
        (last.0 as f64 - first.0 as f64) / span
    );
    println!(
        "Mach-style incremental cost per extra processor: {:.1} us (Black et al.: ~55 us)",
        (last.1 as f64 - first.1 as f64) / span
    );
}
