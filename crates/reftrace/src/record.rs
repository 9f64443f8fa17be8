//! The recorder: run an application once and write its reference stream
//! down.
//!
//! [`Capture`] boots a PLATINUM simulation and runs each phase's stepped
//! workers on one host thread, in the order the one scheduler fixes
//! (`platinum_runtime::step`), through a [`RecordingCtx`]: every [`Mem`]
//! call executes against the real kernel, then appends one [`Rec`] to the
//! phase's op list. The executor already runs one operation at a time,
//! so the recorded order *is* the execution order, and replaying the
//! list op by op reproduces the run exactly (see the crate docs for the
//! argument). A blocked processor's retests are its own spin reads, so
//! they are recorded like any other operation.

use std::collections::HashMap;

use numa_machine::{MachineConfig, Mem, Va};
use platinum::{Lockstep, PolicyKind, StatsSnapshot, UserCtx};
use platinum_runtime::measure::{RunStats, WorkerStats};
use platinum_runtime::sim::Sim;
use platinum_runtime::step::{schedule, Procs, Step};
use platinum_runtime::zones::Zone;
use platinum_runtime::Stage;

use crate::format::{Op, Phase, Rec, RefTrace};
use crate::replay::ReplayOptions;

/// The release-time map is bounded: one entry per recorded op would grow
/// without limit on long runs, and only *recent* post-times ever match an
/// `advance_to` target (synchronization edges are short). On overflow the
/// map is cleared; affected edges fall back to [`Op::AdvanceAbs`].
const VTIME_MAP_CAP: usize = 1 << 22;

/// A recording session: a booted PLATINUM simulation plus the trace being
/// accumulated. Allocate zones, run phases (each worker's steps receive a
/// [`RecordingCtx`] in place of a [`UserCtx`]), then [`Capture::finish`]
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

    /// Runs the stepped worker `worker(i)` on processor `i` for `i` in
    /// `0..n`, recording every memory operation, and appends the
    /// resulting op list as a phase. Returns the workers' *live* run
    /// statistics. A worker's attach opens its stream and its detach,
    /// when it finishes, closes it, so replay attaches and detaches in
    /// the recorded order.
    pub fn run_phase<'a, W>(
        &mut self,
        label: &str,
        n: usize,
        worker: impl FnMut(usize) -> W,
    ) -> RunStats
    where
        W: FnMut(&mut RecordingCtx) -> Step<'a>,
    {
        let mut rec = RecordingCtx {
            procs: Lockstep::new(n),
            p: 0,
            ops: Vec::new(),
            vtime_seqs: HashMap::new(),
        };
        for p in 0..n {
            let ctx = self
                .sim
                .attach(p)
                .expect("recording worker claims a free processor");
            rec.procs.adopt(ctx);
            rec.p = p;
            rec.push(Op::Attach);
        }
        let mut workers: Vec<W> = (0..n).map(worker).collect();
        let stats = schedule(label, &mut rec, &mut workers);
        self.phases.push(Phase {
            label: label.to_string(),
            workers: n,
            final_vtimes: stats.workers.iter().map(|w| w.vtime_ns).collect(),
            ops: rec.ops,
        });
        stats
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

    fn steps<'a, W>(&mut self, label: &str, n: usize, worker: impl FnMut(usize) -> W) -> RunStats
    where
        W: FnMut(&mut RecordingCtx) -> Step<'a>,
    {
        self.run_phase(label, n, worker)
    }
}

/// A phase's kernel contexts under recording: the lockstep executor that
/// holds them, pointed at the processor whose step is running. It
/// implements [`Mem`] by executing each operation on that processor and
/// appending it to the op list, so application code written against
/// `Mem` (including the runtime's locks, barriers and event counts)
/// records itself unchanged.
pub struct RecordingCtx {
    procs: Lockstep,
    /// The processor the current step runs on.
    p: usize,
    ops: Vec<Rec>,
    /// post-vtime → sequence number of the op that produced it (last
    /// writer wins), consulted by `advance_to` to emit release edges as
    /// dependencies.
    vtime_seqs: HashMap<u64, u64>,
}

impl RecordingCtx {
    /// The running processor's kernel context (read-only; going around
    /// the recorder for mutation would leave holes in the trace).
    pub fn inner(&self) -> &UserCtx {
        self.procs.ctx(self.p)
    }

    /// Appends an op by the running processor and indexes its
    /// post-execution virtual time.
    fn push(&mut self, op: Op) {
        let seq = self.ops.len() as u64;
        self.ops.push(Rec {
            proc: self.p as u8,
            op,
        });
        if self.vtime_seqs.len() >= VTIME_MAP_CAP {
            self.vtime_seqs.clear();
        }
        self.vtime_seqs.insert(self.inner().vtime(), seq);
    }

    /// Execute → record.
    fn op<R>(&mut self, op: Op, exec: impl FnOnce(&mut UserCtx) -> R) -> R {
        let r = self.procs.run(self.p, exec);
        self.push(op);
        r
    }
}

/// The scheduler drives the recording context itself, pointed at each
/// step's processor in turn.
impl Procs for RecordingCtx {
    type Ctx = RecordingCtx;

    fn vtime(&self, p: usize) -> u64 {
        self.procs.ctx(p).vtime()
    }

    fn on<R>(&mut self, p: usize, f: impl FnOnce(&mut RecordingCtx) -> R) -> R {
        self.p = p;
        f(self)
    }

    fn finish(&mut self, p: usize) -> WorkerStats {
        self.p = p;
        let stats = self.procs.finish(p);
        self.ops.push(Rec {
            proc: p as u8,
            op: Op::Detach,
        });
        self.vtime_seqs
            .insert(stats.vtime_ns, self.ops.len() as u64 - 1);
        stats
    }
}

impl Mem for RecordingCtx {
    fn proc_id(&self) -> usize {
        self.p
    }
    fn nprocs(&self) -> usize {
        self.inner().nprocs()
    }
    fn vtime(&self) -> u64 {
        self.inner().vtime()
    }
    fn advance_to(&mut self, t: u64) {
        // Release edge: if some recorded op produced exactly this time
        // (a lock release, an event-count advance), record the dependency
        // so replay under another policy propagates *that policy's* time.
        let op = match self.vtime_seqs.get(&t) {
            Some(&seq) => Op::AdvanceDep { seq },
            None => Op::AdvanceAbs { t },
        };
        self.op(op, |c| c.advance_to(t));
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
            cap.phase(label, n, |_, ctx| ctx.fetch_add(word, 1));
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
