//! Orchestration for the §4 micro-benchmarks.
//!
//! The paper's basic-operation timings involve *live* target processors
//! that must be interrupted (restricting a writer's mapping, invalidating
//! replicas). [`MicroBench`] runs "poller" threads on a chosen set of
//! processors: each attaches a context, optionally touches the measured
//! page (to become a replica holder or the writer), and then services its
//! IPI doorbell in a loop until told to stop — a processor running user
//! code, as far as the shootdown mechanism is concerned.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use numa_machine::{MachineConfig, Mem, Va};
use platinum::{Rights, ShootdownMode, UserCtx};
use platinum_runtime::sim::{Sim, SimBuilder};

/// A booted 16-node simulation + one mapped page, the §4 measurement
/// fixture.
pub struct MicroBench {
    /// The machine, kernel and measurement address space.
    pub sim: Sim,
    /// A mapped, read-write page.
    pub va: Va,
}

impl MicroBench {
    /// Boots the fixture with the paper's 16 processors and an optional
    /// Mach-style shootdown comparator.
    ///
    /// The skew window is disabled: micro-measurements want exact charges,
    /// not coupled clocks.
    pub fn new(mach_mode: bool) -> Self {
        Self::with_nodes(16, mach_mode)
    }

    /// Boots with an explicit node count.
    pub fn with_nodes(nodes: usize, mach_mode: bool) -> Self {
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
    pub fn attach(&self, proc: usize) -> UserCtx {
        self.sim.attach(proc).expect("processor free")
    }

    /// Runs `measured` on processor 0 while processors `pollers` run live
    /// polling loops. Each poller first executes `warm` (e.g. read the
    /// page to become a replica holder), then signals readiness; the
    /// measured closure starts only after every poller is ready.
    ///
    /// Returns the measured closure's result.
    pub fn with_pollers<T: Send>(
        &self,
        pollers: &[usize],
        warm: impl Fn(usize, &mut UserCtx) + Sync,
        measured: impl FnOnce(&mut UserCtx) -> T + Send,
    ) -> T {
        let stop = AtomicBool::new(false);
        let ready = AtomicUsize::new(0);
        let warm = &warm;
        let stop_ref = &stop;
        let ready_ref = &ready;
        std::thread::scope(|s| {
            for &p in pollers {
                s.spawn(move || {
                    let mut ctx = self.attach(p);
                    warm(p, &mut ctx);
                    ready_ref.fetch_add(1, Ordering::Release);
                    while !stop_ref.load(Ordering::Acquire) {
                        ctx.poll();
                        std::thread::yield_now();
                    }
                });
            }
            let mut ctx = self.attach(0);
            while ready.load(Ordering::Acquire) < pollers.len() {
                std::thread::yield_now();
            }
            let out = measured(&mut ctx);
            stop.store(true, Ordering::Release);
            out
        })
    }
}

/// Measures the virtual-time cost of `op` on `ctx`.
pub fn vcost<T>(ctx: &mut UserCtx, op: impl FnOnce(&mut UserCtx) -> T) -> (u64, T) {
    let before = ctx.vtime();
    let out = op(ctx);
    (ctx.vtime() - before, out)
}

/// Round-robin write ping-pong on a fresh page over processors
/// `0..procs`, `pings` writes in total: each write invalidates the
/// previous writer's copy and migrates the page, so every reference is
/// an ATC miss and the protocol slow path does all the work. One host
/// thread; returns (elapsed virtual time, host seconds of the loop).
pub fn fault_heavy(sim: &Sim, procs: usize, pings: u64) -> (u64, f64) {
    let object = sim.kernel.create_object(1);
    let va = sim.space.map_anywhere(object, Rights::RW).unwrap();
    let mut ctxs: Vec<UserCtx> = (0..procs).map(|p| sim.attach(p).unwrap()).collect();
    // Only the current writer runs; everyone else sits suspended so the
    // migration's shootdown handshake never waits on a spinning peer in
    // host time.
    for c in ctxs.iter_mut().skip(1) {
        c.suspend();
    }
    let start = Instant::now();
    for k in 0..pings {
        let i = (k as usize) % procs;
        ctxs[i].write(va, k as u32);
        ctxs[(i + 1) % procs].resume();
        ctxs[i].suspend();
    }
    let secs = start.elapsed().as_secs_f64();
    let elapsed = ctxs.iter().map(|c| c.core().vtime()).max().unwrap();
    (elapsed, secs)
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
            |_, ctx| ctx.write(mb.va, 42),
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
