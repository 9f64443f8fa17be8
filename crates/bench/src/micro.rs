//! Orchestration for the §4 micro-benchmarks.
//!
//! The paper's basic-operation timings involve *live* target processors
//! that must be interrupted (restricting a writer's mapping, invalidating
//! replicas). [`MicroBench`] keeps a chosen set of "poller" processors
//! live beside the measured one: each attaches a context and optionally
//! touches the measured page (to become a replica holder or the writer),
//! and then stays attached and running — a processor executing user code,
//! as far as the shootdown mechanism is concerned — while one host thread
//! drives them all through a [`Lockstep`].

use numa_machine::{MachineConfig, Mem, Va};
use platinum::{Lockstep, Rights, ShootdownMode, UserCtx};
use platinum_runtime::sim::{Sim, SimBuilder};

/// A booted 16-node simulation + one mapped page, the §4 measurement
/// fixture.
pub(crate) struct MicroBench {
    /// The machine, kernel and measurement address space.
    pub(crate) sim: Sim,
    /// A mapped, read-write page.
    pub(crate) va: Va,
}

impl MicroBench {
    /// Boots the fixture with the paper's 16 processors and an optional
    /// Mach-style shootdown comparator.
    ///
    /// The skew window is disabled: micro-measurements want exact charges,
    /// not coupled clocks.
    pub(crate) fn new(mach_mode: bool) -> Self {
        Self::with_nodes(16, mach_mode)
    }

    /// Boots with an explicit node count.
    pub(crate) fn with_nodes(nodes: usize, mach_mode: bool) -> Self {
        let sim = SimBuilder::nodes(nodes)
            .machine_config(MachineConfig {
                nodes,
                frames_per_node: 256,
                skew_window_ns: None,
                ..MachineConfig::default()
            })
            .shootdown(if mach_mode {
                ShootdownMode::SharedPmapStall
            } else {
                ShootdownMode::PerProcessorPmap
            })
            .build();
        let va = sim
            .space
            .map_anywhere(sim.kernel.create_object(4), Rights::RW)
            .expect("fresh mapping");
        Self { sim, va }
    }

    /// Attaches a context on `proc`.
    ///
    /// # Panics
    ///
    /// Panics if the processor is occupied.
    pub(crate) fn attach(&self, proc: usize) -> UserCtx {
        self.sim.attach(proc).expect("processor free")
    }

    /// Runs `measured` on processor 0 while processors `pollers` stay
    /// live. Each poller first executes `warm` (e.g. read the page to
    /// become a replica holder), in ascending processor order; all of
    /// them then sit in one [`Lockstep`] with processor 0, so a shootdown
    /// the measured closure initiates interrupts them for real and their
    /// acknowledgments drain inline.
    ///
    /// Returns the measured closure's result.
    pub(crate) fn with_pollers<T>(
        &self,
        pollers: &[usize],
        warm: impl Fn(&mut UserCtx),
        measured: impl FnOnce(&mut UserCtx) -> T,
    ) -> T {
        let mut procs = Lockstep::new(self.sim.machine.cfg().nodes);
        procs.adopt(self.attach(0));
        for &p in pollers {
            procs.adopt(self.attach(p));
            procs.run(p, &warm);
        }
        procs.run(0, measured)
    }
}

/// Measures the virtual-time cost of `op` on `ctx`.
pub(crate) fn vcost<T>(ctx: &mut UserCtx, op: impl FnOnce(&mut UserCtx) -> T) -> (u64, T) {
    let before = ctx.vtime();
    let out = op(ctx);
    (ctx.vtime() - before, out)
}

/// Round-robin write ping-pong on a fresh page over processors
/// `0..procs`, `pings` writes in total: each write invalidates the
/// previous writer's copy and migrates the page, so every reference is
/// an ATC miss and the protocol slow path does all the work. One host
/// thread; returns the elapsed virtual time.
pub(crate) fn fault_heavy(sim: &Sim, procs: usize, pings: u64) -> u64 {
    let object = sim.kernel.create_object(1);
    let va = sim.space.map_anywhere(object, Rights::RW).unwrap();
    let mut ctxs: Vec<UserCtx> = (0..procs).map(|p| sim.attach(p).unwrap()).collect();
    // Only the current writer runs; everyone else sits suspended so the
    // migration's shootdown handshake never waits on a spinning peer in
    // host time.
    for c in ctxs.iter_mut().skip(1) {
        c.suspend();
    }
    for k in 0..pings {
        let i = (k as usize) % procs;
        ctxs[i].write(va, k as u32);
        ctxs[(i + 1) % procs].resume();
        ctxs[i].suspend();
    }
    ctxs.iter().map(|c| c.core().vtime()).max().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_boots_and_measures() {
        let mb = MicroBench::new(false);
        let mut ctx = mb.attach(0);
        let (cost, _) = vcost(&mut ctx, |c| c.write(mb.va, 1));
        assert!(cost > 0, "a first write must cost protocol work");
    }

    #[test]
    fn pollers_enable_live_shootdowns() {
        let mb = MicroBench::with_nodes(4, false);
        // Processor 1 writes the page and stays live; processor 0's read
        // must restrict it via a real IPI.
        let cost = mb.with_pollers(
            &[1],
            |ctx| ctx.write(mb.va, 42),
            |ctx| {
                let (cost, v) = vcost(ctx, |c| c.read(mb.va));
                assert_eq!(v, 42);
                cost
            },
        );
        assert!(cost > 1_000_000, "read miss on modified: {cost} ns");
        assert_eq!(mb.sim.kernel.stats().snapshot().ipis_sent, 1);
    }
}
