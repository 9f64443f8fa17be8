//! The replayer: re-execute a given reference stream against any
//! placement policy.
//!
//! Replay reconstructs the trace's machine (same node count, frame depth,
//! page size, zone layout), boots a kernel with the requested
//! [`PolicyKind`], and executes the op list *in exactly its global order*
//! on one host thread: a [`Lockstep`] executor owns every processor's
//! context, each op runs on the context of the processor the trace names,
//! and a shootdown's targets acknowledge inline, inside the initiator's
//! wait (DESIGN.md §10 has the determinism argument).
//!
//! Each op's post-execution virtual time is kept in a side array so that
//! [`Op::AdvanceDep`] release edges can read the *replayed* producer
//! time — under a slow policy the consumer inherits the slow release
//! time, exactly as the application's synchronization would behave.

use numa_machine::{MachineConfig, Mem};
use platinum::{PolicyKind, StatsSnapshot, UserCtx};
use platinum_runtime::measure::{RunStats, WorkerStats};
use platinum_runtime::sim::{Sim, SimBuilder};
use platinum_runtime::Lockstep;

use crate::format::{Op, Phase, RefTrace};

/// One replayed phase: its label in the trace plus the replay's
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
    pub(crate) fn elapsed_ns(&self) -> u64 {
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
}

/// Replays `trace` against `kind` and returns the outcome. The machine
/// is the trace's (node count, frame depth, page size) as the flat
/// Butterfly with centralized page tables and the virtual-clock skew
/// window disabled (it paces only free-running threads); the trace's
/// zones are allocated in order, then its phases run one after another.
/// The replay is deterministic: same trace + same policy → identical
/// virtual times and counters.
///
/// # Panics
///
/// Panics on a trace the replayer cannot execute (an op outside its
/// processor's `Attach`…`Detach` bracket, a processor index beyond the
/// phase's worker count, an `AdvanceDep` naming a missing op);
/// [`RefTrace::read_from`] rejects those before they get here.
pub fn replay(trace: &RefTrace, kind: PolicyKind) -> ReplayOutcome {
    let mut mc = MachineConfig::with_nodes(trace.nodes);
    mc.frames_per_node = trace.frames_per_node;
    mc.page_shift = trace.page_shift;
    mc.skew_window_ns = None;
    let sim = SimBuilder::nodes(trace.nodes)
        .machine_config(mc)
        .policy(kind)
        .build();
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

/// Executes one op against the replay kernel. Values are not in the
/// trace (the protocol's behaviour and charges are value-independent),
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
    use crate::format::Rec;

    const NODES: usize = 3;
    const FRAMES: usize = 4096;

    /// Where replay maps zones of `pages` pages: the same `alloc_zone`
    /// calls on the same boot.
    fn zone_bases<const N: usize>(pages: [u64; N]) -> [u64; N] {
        let sim = SimBuilder::nodes(NODES).frames_per_node(FRAMES).build();
        pages.map(|p| sim.alloc_zone(p as usize).base())
    }

    /// A one-phase trace of `workers` processors on `zones`; `body`
    /// appends the ops between the attaches and the detaches through
    /// `push`, which returns the op's sequence number.
    fn trace(
        workers: usize,
        zones: &[u64],
        body: impl FnOnce(&mut dyn FnMut(usize, Op) -> u64),
    ) -> RefTrace {
        let mut ops = Vec::new();
        let mut push = |p: usize, op| {
            ops.push(Rec { proc: p as u8, op });
            ops.len() as u64 - 1
        };
        for p in 0..workers {
            push(p, Op::Attach);
        }
        body(&mut push);
        for p in 0..workers {
            push(p, Op::Detach);
        }
        RefTrace {
            nodes: NODES,
            frames_per_node: FRAMES,
            page_shift: MachineConfig::default().page_shift,
            zones: zones.to_vec(),
            phases: vec![Phase {
                label: "mini".to_string(),
                workers,
                final_vtimes: vec![0; workers],
                ops,
            }],
        }
    }

    /// A hand-built stream with every op kind: private sweeps with
    /// compute charges, a lock handed round the processors (spin reads
    /// inside begin/end wait, atomics, trace-lock marks, polls, and each
    /// holder's release as the next one's `AdvanceDep`), an absolute
    /// join, and block transfers from a shared region.
    fn mini() -> RefTrace {
        const ZONES: [u64; 2] = [1, 4];
        let [sync, data] = zone_bases(ZONES);
        let (lock, counter) = (sync, sync + 64);
        let mark = |acquire| Op::TraceLock { va: lock, acquire };
        trace(NODES, &ZONES, |push| {
            for p in 0..NODES {
                let mine = data + p as u64 * 1024;
                for k in 0..16 {
                    push(p, Op::Write { va: mine + 4 * k });
                    push(p, Op::Read { va: mine + 4 * k });
                }
                push(p, Op::Compute { ns: 5_000 });
            }
            let mut release = None;
            for round in 0..8u64 {
                let p = round as usize % NODES;
                if let Some(seq) = release {
                    push(p, Op::AdvanceDep { seq });
                }
                push(p, Op::BeginWait);
                push(p, Op::ReadSpin { va: lock });
                push(p, Op::EndWait);
                push(p, Op::Atomic { va: lock });
                push(p, mark(true));
                push(p, Op::Atomic { va: counter });
                push(
                    p,
                    Op::Write {
                        va: data + 4096 + 4 * round,
                    },
                );
                release = Some(push(p, Op::Write { va: lock }));
                push(p, mark(false));
                push((p + 1) % NODES, Op::ReadSpin { va: lock });
                push(p, Op::Poll);
                push(p, Op::Compute { ns: 1_000 });
            }
            for p in 0..NODES {
                push(p, Op::AdvanceAbs { t: 500_000 });
                push(
                    p,
                    Op::ReadBlock {
                        va: data + 4096,
                        words: 128,
                    },
                );
                let va = data + 8192 + p as u64 * 512;
                push(p, Op::WriteBlock { va, words: 128 });
            }
        })
    }

    /// Every worker's clock and counters, and the kernel's protocol
    /// counters, agree.
    fn assert_same(a: &ReplayOutcome, b: &ReplayOutcome) {
        assert_eq!(a.phases.len(), b.phases.len());
        for (x, y) in a.phases.iter().zip(&b.phases) {
            for (u, v) in x.stats.workers.iter().zip(&y.stats.workers) {
                assert_eq!(u.proc, v.proc);
                assert_eq!(u.vtime_ns, v.vtime_ns, "proc {} vtime drifted", u.proc);
                assert_eq!(u.counters, v.counters, "proc {} counters drifted", u.proc);
            }
        }
        assert_eq!(a.kernel, b.kernel, "kernel protocol counters drifted");
    }

    #[test]
    fn same_policy_replay_is_bit_identical() {
        let trace = mini();
        for kind in PolicyKind::FIG1_SET {
            let first = replay(&trace, kind);
            assert!(first.measured_elapsed_ns() > 0, "{kind:?} produced no time");
            assert_same(&first, &replay(&trace, kind));
        }
    }

    #[test]
    fn replay_survives_serialization_round_trip() {
        let trace = mini();
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        let back = RefTrace::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(trace, back);
        assert_same(
            &replay(&back, PolicyKind::Platinum),
            &replay(&trace, PolicyKind::Platinum),
        );
    }

    #[test]
    fn other_policies_replay_to_completion() {
        let trace = mini();
        let compute_ns: u64 = trace.phases[0]
            .ops
            .iter()
            .map(|r| match r.op {
                Op::Compute { ns } => ns,
                _ => 0,
            })
            .sum();
        for kind in PolicyKind::FIG1_SET {
            let out = replay(&trace, kind);
            // Same reference stream: the modelled computation comes from
            // the trace alone, so it is policy-invariant (reference
            // counters are not — fault-path page copies charge refs too).
            let c = out.phases[0].stats.merged_counters();
            assert_eq!(c.compute_ns, compute_ns, "{kind:?} lost compute ops");
        }
        // Elapsed time can legitimately go either way on this
        // lock-dominated stream (the §4.2 anecdote: freezing the lock
        // page hurts PLATINUM), but off-node static placement must serve
        // a larger share of references remotely than the coherent policy.
        // The share of the measured (last) phase's references served
        // remotely.
        let remote_ratio = |out: &ReplayOutcome| {
            let last = out.phases.last().expect("the trace has phases");
            last.stats.merged_counters().remote_fraction()
        };
        let remote = remote_ratio(&replay(&trace, PolicyKind::RemoteAlways));
        let plat = remote_ratio(&replay(&trace, PolicyKind::Platinum));
        assert!(
            remote > plat,
            "remote-always was not more remote: {remote} <= {plat}"
        );
    }

    /// A release edge carries the replayed policy's time: processor 1
    /// waits on processor 0's last write, so under a slower policy it
    /// inherits that policy's later post-time, not the time the trace was
    /// taken at (here, PLATINUM's, written into `final_vtimes`).
    #[test]
    fn advance_dep_inherits_the_replayed_producer_time() {
        const ZONES: [u64; 1] = [1];
        let [page] = zone_bases(ZONES);
        let mut trace = trace(2, &ZONES, |push| {
            let mut last = 0;
            for k in 0..64 {
                push(0, Op::Read { va: page + 4 * k });
                last = push(0, Op::Write { va: page + 4 * k });
            }
            push(1, Op::AdvanceDep { seq: last });
        });
        let clocks = |out: &ReplayOutcome| -> Vec<u64> {
            out.phases[0]
                .stats
                .workers
                .iter()
                .map(|w| w.vtime_ns)
                .collect()
        };
        let taken = clocks(&replay(&trace, PolicyKind::Platinum));
        assert_eq!(taken[1], taken[0], "the consumer waits for the producer");
        trace.phases[0].final_vtimes = taken.clone();
        let slow = clocks(&replay(&trace, PolicyKind::RemoteAlways));
        assert!(
            slow[0] > taken[0],
            "remote-always is slower: {slow:?} vs {taken:?}"
        );
        assert_eq!(
            slow[1], slow[0],
            "the consumer inherits the replayed release"
        );
    }
}
