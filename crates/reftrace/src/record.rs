//! The recorder: run an application once and write its reference stream
//! down.
//!
//! [`Capture`] boots a PLATINUM simulation whose memory interface is
//! wrapped by [`RecordingCtx`]: every [`Mem`] call first wins the global
//! FIFO [`Gate`](crate::gate::Gate), then executes against the real
//! kernel, then appends one [`Rec`] to the phase's totally ordered op
//! list. Serialization makes the recorded order *the* execution order, so
//! replaying the list op by op reproduces the run exactly (see the crate
//! docs for the argument).
//!
//! While a worker waits for the gate it services incoming shootdown IPIs
//! ([`platinum::UserCtx::service_ipis`]) and nothing else — the gate
//! holder may be blocked on that worker's ack, but any other kernel
//! activity (clock ticks, defrost) would perturb the schedule being
//! recorded.

use std::collections::HashMap;
use std::sync::Arc;

use numa_machine::{MachineConfig, Mem, Va};
use parking_lot::Mutex;
use platinum::{PolicyKind, StatsSnapshot, UserCtx};
use platinum_runtime::measure::{RunStats, WorkerStats};
use platinum_runtime::par::pool;
use platinum_runtime::sim::Sim;
use platinum_runtime::zones::Zone;
use platinum_runtime::Stage;

use crate::format::{Op, Phase, Rec, RefTrace};
use crate::gate::Gate;
use crate::replay::ReplayOptions;

/// The release-time map is bounded: one entry per recorded op would grow
/// without limit on long runs, and only *recent* post-times ever match an
/// `advance_to` target (synchronization edges are short). On overflow the
/// map is cleared; affected edges fall back to [`Op::AdvanceAbs`].
const VTIME_MAP_CAP: usize = 1 << 22;

/// Per-phase recording state shared by all workers.
#[derive(Default)]
struct PhaseState {
    gate: Gate,
    ops: Mutex<Vec<Rec>>,
    /// post-vtime → global sequence number of the op that produced it
    /// (last writer wins), consulted by `advance_to` to emit release
    /// edges as dependencies.
    vtime_seqs: Mutex<HashMap<u64, u64>>,
}

impl PhaseState {
    /// Appends an op and indexes its post-execution virtual time. Must be
    /// called while holding the gate.
    fn push(&self, proc: u8, op: Op, post_vtime: u64) {
        let seq = {
            let mut ops = self.ops.lock();
            ops.push(Rec { proc, op });
            (ops.len() - 1) as u64
        };
        let mut map = self.vtime_seqs.lock();
        if map.len() >= VTIME_MAP_CAP {
            map.clear();
        }
        map.insert(post_vtime, seq);
    }
}

/// A recording session: a booted PLATINUM simulation plus the trace being
/// accumulated. Allocate zones, run phases (each phase's closure receives
/// a [`RecordingCtx`] in place of a [`UserCtx`]), then [`Capture::finish`]
/// to obtain the [`RefTrace`].
///
/// The capture run doubles as the *live* PLATINUM measurement: phase
/// results carry real [`RunStats`], and a same-policy replay of the
/// finished trace must reproduce them bit for bit.
pub struct Capture {
    sim: Sim,
    zones: Vec<u64>,
    phases: Vec<Phase>,
}

impl Capture {
    /// Boots a `nodes`-node capture machine: PLATINUM policy, 4096 frames
    /// per node, on the topology and page-table fabric `opts` names. The
    /// trace format records neither — replay the finished trace through
    /// the same `opts` value ([`ReplayOptions::replay`]) and it runs on
    /// the same machine; with `ReplayOptions::default()` that is the flat
    /// Butterfly with centralized tables, and plain `replay` matches.
    pub fn new(nodes: usize, opts: &ReplayOptions) -> Self {
        Self {
            sim: opts.boot(
                nodes,
                4096,
                MachineConfig::default().page_shift,
                PolicyKind::Platinum,
            ),
            zones: Vec::new(),
            phases: Vec::new(),
        }
    }

    /// The underlying simulation, itself a [`Stage`]: work staged on it
    /// runs on the capture machine but stays out of the trace (checksum
    /// verification — run it *after* snapshotting any statistics).
    pub fn sim(&mut self) -> &mut Sim {
        &mut self.sim
    }

    /// Snapshot of the capture kernel's protocol counters (freezes,
    /// replications, ...). Take it before any unrecorded verification
    /// work if the numbers are to be compared against a replay.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.sim.kernel.stats().snapshot()
    }

    /// Allocates a page-aligned zone and records its size so replay can
    /// reproduce the virtual-address layout. Zone allocation is pure
    /// bookkeeping (frames are faulted in lazily), so the call sequence —
    /// not its interleaving with phases — is what matters.
    pub fn alloc_zone(&mut self, pages: usize) -> Zone {
        self.zones.push(pages as u64);
        self.sim.alloc_zone(pages)
    }

    /// Runs `f(worker_index, ctx)` on processors `0..n`, recording every
    /// memory operation, and appends the resulting op list as a phase.
    /// Returns the workers' results and their *live* run statistics.
    pub fn run_phase<F, R>(&mut self, label: &str, n: usize, f: F) -> (Vec<R>, RunStats)
    where
        F: Fn(usize, &mut RecordingCtx) -> R + Sync,
        R: Send,
    {
        let st = Arc::new(PhaseState::default());
        let sim = &self.sim;
        // The runtime's worker pool with the recorder's two extra steps:
        // attach and detach each take the gate and are written into the
        // op list, so replay attaches and detaches in the recorded order.
        let (results, stats) = pool(
            n,
            |p| {
                let _g = st.gate.lock(|| {});
                let ctx = sim
                    .attach(p)
                    .expect("recording worker claims a free processor");
                st.push(p as u8, Op::Attach, ctx.vtime());
                RecordingCtx {
                    ctx,
                    st: Arc::clone(&st),
                }
            },
            f,
            |proc, RecordingCtx { mut ctx, st }| {
                let _g = st.gate.lock(|| ctx.service_ipis());
                let stats = WorkerStats {
                    proc,
                    vtime_ns: ctx.vtime(),
                    counters: ctx.counters(),
                };
                st.push(proc as u8, Op::Detach, ctx.vtime());
                drop(ctx);
                stats
            },
        );
        let st = Arc::into_inner(st).expect("every recording context detached");
        self.phases.push(Phase {
            label: label.to_string(),
            workers: n,
            final_vtimes: stats.workers.iter().map(|w| w.vtime_ns).collect(),
            ops: st.ops.into_inner(),
        });
        (results, stats)
    }

    /// Seals the recording into a self-contained [`RefTrace`].
    pub fn finish(self) -> RefTrace {
        let cfg = self.sim.machine.cfg();
        RefTrace {
            nodes: cfg.nodes,
            frames_per_node: cfg.frames_per_node,
            page_shift: cfg.page_shift,
            zones: self.zones,
            phases: self.phases,
        }
    }
}

/// Staging on a capture records: zone sizes go into the trace in call
/// order and every phase becomes a labelled op list.
impl Stage for Capture {
    type Ctx = RecordingCtx;

    fn page_words(&self) -> usize {
        self.sim.page_words()
    }

    fn alloc_zone(&mut self, pages: usize) -> Zone {
        Capture::alloc_zone(self, pages)
    }

    fn phase<R, F>(&mut self, label: &str, n: usize, f: F) -> (Vec<R>, RunStats)
    where
        F: Fn(usize, &mut RecordingCtx) -> R + Sync,
        R: Send,
    {
        self.run_phase(label, n, f)
    }
}

/// A [`UserCtx`] wrapped for recording: implements [`Mem`] by winning the
/// phase's global gate, executing the real operation, and appending it to
/// the op list. Application code written against `Mem` (including the
/// runtime's locks, barriers and event counts) records itself unchanged.
pub struct RecordingCtx {
    ctx: UserCtx,
    st: Arc<PhaseState>,
}

impl RecordingCtx {
    /// The wrapped kernel context (read-only; going around the recorder
    /// for mutation would leave holes in the trace).
    pub fn inner(&self) -> &UserCtx {
        &self.ctx
    }

    /// Gate → execute → record. The split borrow (gate on `st`, executor
    /// on `ctx`) lets waiting service IPIs targeted at this processor.
    fn op<R>(&mut self, op: Op, exec: impl FnOnce(&mut UserCtx) -> R) -> R {
        let Self { ctx, st } = self;
        let _g = st.gate.lock(|| ctx.service_ipis());
        let r = exec(ctx);
        st.push(ctx.proc_id() as u8, op, ctx.vtime());
        r
    }
}

impl Mem for RecordingCtx {
    fn proc_id(&self) -> usize {
        self.ctx.proc_id()
    }

    fn nprocs(&self) -> usize {
        self.ctx.nprocs()
    }

    fn vtime(&self) -> u64 {
        self.ctx.vtime()
    }

    fn advance_to(&mut self, t: u64) {
        let Self { ctx, st } = self;
        let _g = st.gate.lock(|| ctx.service_ipis());
        // Release edge: if some recorded op produced exactly this time
        // (a lock release, an event-count advance), record the dependency
        // so replay under another policy propagates *that policy's* time.
        let dep = st.vtime_seqs.lock().get(&t).copied();
        let op = match dep {
            Some(seq) => Op::AdvanceDep { seq },
            None => Op::AdvanceAbs { t },
        };
        ctx.advance_to(t);
        st.push(ctx.proc_id() as u8, op, ctx.vtime());
    }

    fn compute(&mut self, ns: u64) {
        self.op(Op::Compute { ns }, |c| c.compute(ns));
    }

    fn read(&mut self, va: Va) -> u32 {
        self.op(Op::Read { va }, |c| c.read(va))
    }

    fn write(&mut self, va: Va, val: u32) {
        self.op(Op::Write { va }, |c| c.write(va, val));
    }

    fn read_spin(&mut self, va: Va) -> u32 {
        self.op(Op::ReadSpin { va }, |c| c.read_spin(va))
    }

    fn fetch_add(&mut self, va: Va, delta: u32) -> u32 {
        self.op(Op::Atomic { va }, |c| c.fetch_add(va, delta))
    }

    fn compare_exchange(&mut self, va: Va, current: u32, new: u32) -> Result<u32, u32> {
        self.op(Op::Atomic { va }, |c| c.compare_exchange(va, current, new))
    }

    fn swap(&mut self, va: Va, val: u32) -> u32 {
        self.op(Op::Atomic { va }, |c| c.swap(va, val))
    }

    fn poll(&mut self) {
        self.op(Op::Poll, |c| c.poll());
    }

    fn begin_wait(&mut self) {
        self.op(Op::BeginWait, |c| c.begin_wait());
    }

    fn end_wait(&mut self) {
        self.op(Op::EndWait, |c| c.end_wait());
    }

    fn trace_lock(&mut self, va: Va, acquire: bool) {
        self.op(Op::TraceLock { va, acquire }, |c| c.trace_lock(va, acquire));
    }

    fn read_block(&mut self, va: Va, dst: &mut [u32]) {
        let words = dst.len() as u64;
        self.op(Op::ReadBlock { va, words }, |c| c.read_block(va, dst));
    }

    fn write_block(&mut self, va: Va, src: &[u32]) {
        let words = src.len() as u64;
        self.op(Op::WriteBlock { va, words }, |c| c.write_block(va, src));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replay attaches and detaches where the trace says, so every worker
    /// of every phase must be bracketed by exactly one of each.
    #[test]
    fn each_worker_records_one_attach_and_one_detach_per_phase() {
        let mut cap = Capture::new(4, &ReplayOptions::default());
        let word = cap.alloc_zone(1).alloc_words(1);
        for (label, n) in [("three", 3), ("four", 4)] {
            cap.run_phase(label, n, |_, ctx| ctx.fetch_add(word, 1));
        }
        let trace = cap.finish();
        assert_eq!(trace.phases.len(), 2);
        for phase in &trace.phases {
            for p in 0..phase.workers {
                let ops: Vec<Op> = phase
                    .ops
                    .iter()
                    .filter(|r| usize::from(r.proc) == p)
                    .map(|r| r.op)
                    .collect();
                assert_eq!(
                    ops,
                    [Op::Attach, Op::Atomic { va: word }, Op::Detach],
                    "phase {} worker {p}",
                    phase.label
                );
            }
        }
    }
}
