//! The replayer: re-execute a recorded reference stream against any
//! placement policy.
//!
//! Replay reconstructs the capture machine (same node count, frame depth,
//! page size, zone layout), boots a kernel with the requested
//! [`PolicyKind`], and executes the recorded op list *in exactly the
//! recorded global order* on one host thread: a [`Lockstep`] executor owns
//! every processor's context, each op runs on the context of the processor
//! that recorded it, and a shootdown's targets acknowledge inline, inside
//! the initiator's wait (DESIGN.md §10 has the determinism argument).
//!
//! Each op's post-execution virtual time is kept in a side array so that
//! [`Op::AdvanceDep`] release edges can read the *replayed* producer
//! time — under a slow policy the consumer inherits the slow release
//! time, exactly as the application's synchronization would behave.

use numa_machine::{MachineConfig, Mem, Topology};
use platinum::{PolicyKind, PtableConfig, StatsSnapshot, UserCtx};
use platinum_runtime::measure::{RunStats, WorkerStats};
use platinum_runtime::sim::{Sim, SimBuilder};
use platinum_runtime::Lockstep;

use crate::format::{Op, Phase, RefTrace};

/// One replayed phase: the label it was recorded under plus the replay's
/// per-worker clocks and access counters.
#[derive(Clone, Debug)]
pub struct PhaseOutcome {
    /// The phase label from the trace.
    pub label: String,
    /// Replay statistics, same shape as a live run's.
    pub stats: RunStats,
}

impl PhaseOutcome {
    /// The phase's execution time: maximum final virtual time.
    pub fn elapsed_ns(&self) -> u64 {
        self.stats.elapsed_ns()
    }
}

/// The outcome of replaying a whole trace under one policy.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// The policy the trace was replayed against.
    pub policy: PolicyKind,
    /// Per-phase outcomes, in trace order.
    pub phases: Vec<PhaseOutcome>,
    /// Kernel protocol counters accumulated across all phases.
    pub kernel: StatsSnapshot,
}

impl ReplayOutcome {
    /// The last phase's execution time — the measured region by harness
    /// convention. Zero for an empty trace.
    pub fn measured_elapsed_ns(&self) -> u64 {
        self.phases.last().map(|p| p.elapsed_ns()).unwrap_or(0)
    }

    /// Fraction of charged references served by remote memory, summed
    /// over the last (measured) phase's workers.
    pub fn measured_remote_ratio(&self) -> f64 {
        self.phases
            .last()
            .map_or(0.0, |p| p.stats.merged_counters().remote_fraction())
    }
}

/// What a record/replay machine needs that the trace format does not
/// record. Hand [`Capture::new`](crate::Capture::new) and
/// [`ReplayOptions::replay`] the same value and both boot the same
/// machine — one function builds it for either side — which is what the
/// bit-identity guarantee rests on; any value yields a deterministic
/// replay (same trace + policy + options → identical virtual times).
#[derive(Clone, Debug, Default)]
pub struct ReplayOptions {
    /// The machine description; `None` is the flat Butterfly.
    pub topology: Option<Topology>,
    /// The page-table fabric configuration; `None` is the centralized
    /// default.
    pub ptable: Option<PtableConfig>,
}

impl ReplayOptions {
    /// Replays `trace` against `kind` on the machine these options
    /// describe. See [`replay`].
    pub fn replay(&self, trace: &RefTrace, kind: PolicyKind) -> ReplayOutcome {
        let sim = self.boot(trace.nodes, trace.frames_per_node, trace.page_shift, kind);
        for &pages in &trace.zones {
            sim.alloc_zone(pages as usize);
        }
        let phases = trace
            .phases
            .iter()
            .map(|ph| replay_phase(&sim, ph))
            .collect();
        ReplayOutcome {
            policy: kind,
            phases,
            kernel: sim.kernel.stats().snapshot(),
        }
    }

    /// Boots the machine a capture runs on and every replay of it
    /// rebuilds: virtual-clock skew window disabled (serialized execution
    /// needs no throttle), these options' topology and page-table fabric.
    pub fn boot(
        &self,
        nodes: usize,
        frames_per_node: usize,
        page_shift: u32,
        kind: PolicyKind,
    ) -> Sim {
        let mut mc = MachineConfig::with_nodes(nodes);
        mc.frames_per_node = frames_per_node;
        mc.page_shift = page_shift;
        mc.skew_window_ns = None;
        let mut b = SimBuilder::nodes(nodes).machine_config(mc).policy(kind);
        if let Some(t) = &self.topology {
            b = b.topology(t.clone());
        }
        if let Some(p) = self.ptable {
            b = b.ptable(p);
        }
        b.build()
    }
}

/// Replays `trace` against `kind` on the default machine (flat topology,
/// centralized page tables) and returns the outcome. The replay is
/// deterministic: same trace + same policy → identical virtual times and
/// counters, and a PLATINUM replay of a fresh capture reproduces the
/// capture run bit for bit.
///
/// # Panics
///
/// Panics on a trace that no capture could have produced (an op outside
/// its processor's `Attach`…`Detach` bracket, a processor index beyond
/// the phase's worker count, an `AdvanceDep` naming a missing op);
/// [`RefTrace::read_from`] rejects those before they get here.
pub fn replay(trace: &RefTrace, kind: PolicyKind) -> ReplayOutcome {
    ReplayOptions::default().replay(trace, kind)
}

fn replay_phase(sim: &Sim, ph: &Phase) -> PhaseOutcome {
    let mut procs = Lockstep::new(ph.workers);
    let mut post = vec![0u64; ph.ops.len()];
    let mut workers: Vec<Option<WorkerStats>> = vec![None; ph.workers];
    let mut block_buf: Vec<u32> = Vec::new();
    let mut i = 0;
    while i < ph.ops.len() {
        let rec = ph.ops[i];
        let p = rec.proc as usize;
        match rec.op {
            Op::Attach => {
                let ctx = sim.attach(p).expect("replay claims a free processor");
                post[i] = ctx.vtime();
                procs.adopt(ctx);
                i += 1;
            }
            Op::Detach => {
                let mut ctx = procs.release(p);
                ctx.service_ipis();
                workers[p] = Some(WorkerStats {
                    proc: p,
                    vtime_ns: ctx.vtime(),
                    counters: ctx.counters(),
                });
                post[i] = ctx.vtime();
                i += 1;
            }
            _ => {
                // One executor step for the whole run of ops this
                // processor performs before anyone else does anything —
                // the hand-off is paid per run, not per op.
                let run = ph.ops[i..]
                    .iter()
                    .take_while(|r| r.proc == rec.proc && !matches!(r.op, Op::Attach | Op::Detach))
                    .count();
                procs.run(p, |ctx| {
                    for j in i..i + run {
                        let (done, rest) = post.split_at_mut(j);
                        exec(ctx, ph.ops[j].op, done, &mut block_buf);
                        rest[0] = ctx.vtime();
                    }
                });
                i += run;
            }
        }
    }
    let workers = workers
        .into_iter()
        .map(|w| w.expect("every worker of the phase reached its Detach op"))
        .collect();
    PhaseOutcome {
        label: ph.label.clone(),
        stats: RunStats { workers },
    }
}

/// Executes one recorded op against the replay kernel. Values were not
/// recorded (the protocol's behaviour and charges are value-independent),
/// so writes store zero and atomics add zero; block ops borrow the
/// phase's reusable scratch buffer instead of allocating per op.
fn exec(ctx: &mut UserCtx, op: Op, post: &[u64], block_buf: &mut Vec<u32>) {
    match op {
        Op::Read { va } => {
            ctx.read(va);
        }
        Op::Write { va } => ctx.write(va, 0),
        Op::ReadSpin { va } => {
            ctx.read_spin(va);
        }
        Op::Atomic { va } => {
            ctx.fetch_add(va, 0);
        }
        Op::ReadBlock { va, words } => {
            block_buf.clear();
            block_buf.resize(words as usize, 0);
            ctx.read_block(va, block_buf);
        }
        Op::WriteBlock { va, words } => {
            block_buf.clear();
            block_buf.resize(words as usize, 0);
            ctx.write_block(va, block_buf);
        }
        Op::Compute { ns } => ctx.compute(ns),
        Op::AdvanceDep { seq } => ctx.advance_to(post[seq as usize]),
        Op::AdvanceAbs { t } => ctx.advance_to(t),
        Op::SetVtime { t } => ctx.set_vtime(t),
        Op::Poll => ctx.poll(),
        Op::BeginWait => ctx.begin_wait(),
        Op::EndWait => ctx.end_wait(),
        Op::TraceLock { va, acquire } => ctx.trace_lock(va, acquire),
        Op::Attach | Op::Detach => unreachable!("handled by replay_phase"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Capture;
    use numa_machine::TimingConfig;
    use platinum_runtime::sync::{Barrier, SpinLock};

    /// A small hand-written workload exercising every op kind the
    /// recorder emits: private sweeps, a contended lock + shared counter
    /// (spin reads, atomics, advance_to release edges), a barrier, block
    /// transfers, and compute charges.
    fn capture_mini(
        nodes: usize,
        opts: &ReplayOptions,
    ) -> (crate::RefTrace, RunStats, StatsSnapshot) {
        let mut cap = Capture::new(nodes, opts);
        let sync = cap.alloc_zone(1);
        let data = cap.alloc_zone(4);
        let lock_va = sync.base();
        let barrier_count_va = sync.base() + 32;
        let barrier_gen_va = sync.base() + 36;
        let counter_va = sync.base() + 64;
        let base = data.base();
        let n = nodes;
        let (_r, live) = cap.run_phase("mini", n, move |i, ctx| {
            let lock = SpinLock::new(lock_va);
            let barrier = Barrier::new(barrier_count_va, barrier_gen_va, n as u32);
            // Private sweep: first-touch placement, charged reads/writes.
            for k in 0..64u64 {
                ctx.write(base + (i as u64) * 1024 + 4 * k, (k as u32) * 3 + 1);
                ctx.read(base + (i as u64) * 1024 + 4 * k);
            }
            ctx.compute(5_000);
            barrier.wait(ctx);
            // Contended critical section: the lock word freezes, spin
            // reads and release edges land in the trace.
            for _ in 0..16 {
                lock.acquire(ctx);
                let v = ctx.fetch_add(counter_va, 1);
                ctx.write(base + 4096 + 4 * u64::from(v % 32), v);
                lock.release(ctx);
                ctx.compute(1_000);
            }
            barrier.wait(ctx);
            // Block transfer from a shared region.
            let mut buf = vec![0u32; 128];
            ctx.read_block(base + 4096, &mut buf);
            ctx.write_block(base + 8192 + (i as u64) * 512, &buf);
            ctx.fetch_add(counter_va, 0)
        });
        let stats = cap.stats_snapshot();
        (cap.finish(), live, stats)
    }

    #[test]
    fn same_policy_replay_is_bit_identical() {
        // The default machine, and one whose description the trace does
        // not carry: capture and replay go through the same value.
        let hier2 = ReplayOptions {
            topology: Some(Topology::hier2(4, 2, &TimingConfig::default())),
            ..ReplayOptions::default()
        };
        for (nodes, opts) in [(3, ReplayOptions::default()), (4, hier2)] {
            let (trace, live, live_kernel) = capture_mini(nodes, &opts);
            assert!(trace.total_ops() > 0);
            let out = opts.replay(&trace, PolicyKind::Platinum);
            assert_eq!(out.phases.len(), 1);
            let replayed = &out.phases[0].stats;
            for (a, b) in live.workers.iter().zip(&replayed.workers) {
                assert_eq!(a.proc, b.proc);
                assert_eq!(a.vtime_ns, b.vtime_ns, "proc {} vtime drifted", a.proc);
                assert_eq!(a.counters, b.counters, "proc {} counters drifted", a.proc);
            }
            assert_eq!(
                trace.phases[0].final_vtimes,
                replayed
                    .workers
                    .iter()
                    .map(|w| w.vtime_ns)
                    .collect::<Vec<_>>()
            );
            assert_eq!(out.kernel, live_kernel, "kernel protocol counters drifted");
        }
    }

    #[test]
    fn replay_survives_serialization_round_trip() {
        let (trace, live, _) = capture_mini(2, &ReplayOptions::default());
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        let back = crate::RefTrace::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(trace, back);
        let out = replay(&back, PolicyKind::Platinum);
        assert_eq!(out.phases[0].stats.elapsed_ns(), live.elapsed_ns());
    }

    #[test]
    fn other_policies_replay_to_completion() {
        let (trace, live, _) = capture_mini(2, &ReplayOptions::default());
        for kind in [
            PolicyKind::MigrateOnly,
            PolicyKind::ReplicateOnly,
            PolicyKind::LocalFirstTouch,
            PolicyKind::RemoteAlways,
        ] {
            let out = replay(&trace, kind);
            assert!(out.measured_elapsed_ns() > 0, "{kind:?} produced no time");
            // Same reference stream: the modelled computation comes from
            // the trace alone, so it is policy-invariant (reference
            // counters are not — fault-path page copies charge refs too).
            let c = out.phases[0].stats.merged_counters();
            let l = live.merged_counters();
            assert_eq!(c.compute_ns, l.compute_ns, "{kind:?} lost compute ops");
        }
        // Elapsed time can legitimately go either way on this
        // lock-dominated workload (the §4.2 anecdote: freezing the lock
        // page hurts PLATINUM), but off-node static placement must serve
        // a larger share of references remotely than the coherent policy.
        let remote = replay(&trace, PolicyKind::RemoteAlways);
        let plat = replay(&trace, PolicyKind::Platinum);
        assert!(
            remote.measured_remote_ratio() > plat.measured_remote_ratio(),
            "remote-always was not more remote: {} <= {}",
            remote.measured_remote_ratio(),
            plat.measured_remote_ratio()
        );
    }
}
