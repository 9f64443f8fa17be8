//! Stepped execution: the one way to run a phase's processors in a fixed
//! order (DESIGN.md §5 rule 0).
//!
//! A worker is a closure that runs one bounded step of its processor's
//! program per call — a block transfer of at most a page, a computation
//! charge, a handful of word references — and says how the step ended
//! ([`Step`]). [`schedule`] runs a phase's workers on one host thread:
//! the runnable processor with the lowest (virtual time, processor id)
//! takes a turn of steps until its clock has moved [`SKEW_WINDOW_NS`]
//! past where the turn began, or a step waits or finishes. A waiting
//! processor retests its [`Wait`] at once and after every other turn (one
//! uncharged spin read); once it holds, the waiter completes it,
//! inheriting the releaser's time. A finished processor is detached at
//! once. No host schedule can reorder anything, so a stepped run is a
//! function of its inputs.

use numa_machine::uma::UmaCtx;
use numa_machine::{Mem, SKEW_WINDOW_NS};
use platinum::{Lockstep, UserCtx};

use crate::measure::{RunStats, WorkerStats};
use crate::sync::Wait;

/// How a step ended.
pub enum Step<'a> {
    /// The program has more to do.
    Ready,
    /// The program continues once the wait holds.
    Wait(Wait<'a>),
    /// The program is finished.
    Done,
}

impl<'a> From<Option<Wait<'a>>> for Step<'a> {
    /// A wait that may be unnecessary: `None` continues at once.
    fn from(w: Option<Wait<'a>>) -> Self {
        w.map_or(Step::Ready, Step::Wait)
    }
}

/// The contexts of a phase's processors, held by one host thread.
pub(crate) trait Procs {
    /// The context a step runs on.
    type Ctx: Mem;

    /// Processor `p`'s virtual clock.
    fn vtime(&self, p: usize) -> u64;

    /// Runs `f` on processor `p`'s context.
    fn on<R>(&mut self, p: usize, f: impl FnOnce(&mut Self::Ctx) -> R) -> R;

    /// Processor `p` finished: its statistics; it is detached.
    fn finish(&mut self, p: usize) -> WorkerStats;
}

/// Runs `workers[p]` on processor `p` until every worker is done; see the
/// module docs. Statistics come back in worker order.
///
/// # Panics
///
/// Panics, naming `label` and the processors, if every unfinished
/// processor is blocked: nothing could ever release them.
pub(crate) fn schedule<'a, P, W>(label: &str, procs: &mut P, workers: &mut [W]) -> RunStats
where
    P: Procs,
    W: FnMut(&mut P::Ctx) -> Step<'a>,
{
    let n = workers.len();
    let mut waits: Vec<Option<Wait<'a>>> = vec![None; n];
    let mut stats: Vec<Option<WorkerStats>> = vec![None; n];
    loop {
        // The runnable processor with the lowest (clock, id); ids rise, so
        // only a strictly lower clock takes over. A plain loop, because it
        // runs every turn and `min_by_key` compares through a function
        // pointer per processor.
        let mut next: Option<(u64, usize)> = None;
        for p in (0..n).filter(|&p| stats[p].is_none() && waits[p].is_none()) {
            let t = procs.vtime(p);
            if next.is_none_or(|(best, _)| t < best) {
                next = Some((t, p));
            }
        }
        let Some((_, p)) = next else {
            let blocked: Vec<usize> = (0..n).filter(|&p| waits[p].is_some()).collect();
            assert!(
                blocked.is_empty(),
                "phase {label:?}: processors {blocked:?} are all blocked and nothing runs to release them"
            );
            return RunStats {
                workers: stats.into_iter().flatten().collect(),
            };
        };
        let worker = &mut workers[p];
        let r = procs.on(p, |ctx| {
            let end = ctx.vtime() + SKEW_WINDOW_NS;
            loop {
                match worker(ctx) {
                    Step::Ready if ctx.vtime() < end => {}
                    r => break r,
                }
            }
        });
        match r {
            Step::Ready => {}
            Step::Wait(w) => waits[p] = Some(w),
            Step::Done => stats[p] = Some(procs.finish(p)),
        }
        for (q, wait) in waits.iter_mut().enumerate() {
            if wait.is_some_and(|w| procs.on(q, |ctx| w.holds(ctx))) {
                *wait = None;
            }
        }
    }
}

/// The kernel's executor: a shootdown's awaited targets are serviced
/// inline, so a blocked processor stays an active target.
impl Procs for Lockstep {
    type Ctx = UserCtx;

    fn vtime(&self, p: usize) -> u64 {
        self.ctx(p).vtime()
    }

    fn on<R>(&mut self, p: usize, f: impl FnOnce(&mut UserCtx) -> R) -> R {
        self.run(p, f)
    }

    fn finish(&mut self, p: usize) -> WorkerStats {
        worker_stats(&self.release(p))
    }
}

/// The UMA comparator has no shootdowns: its contexts need no executor.
impl Procs for Vec<UmaCtx> {
    type Ctx = UmaCtx;

    fn vtime(&self, p: usize) -> u64 {
        self[p].vtime()
    }

    fn on<R>(&mut self, p: usize, f: impl FnOnce(&mut UmaCtx) -> R) -> R {
        f(&mut self[p])
    }

    fn finish(&mut self, p: usize) -> WorkerStats {
        WorkerStats {
            proc: p,
            vtime_ns: self[p].vtime(),
            counters: self[p].counters(),
        }
    }
}

/// A kernel context's outcome.
pub(crate) fn worker_stats(ctx: &UserCtx) -> WorkerStats {
    WorkerStats {
        proc: ctx.core().id(),
        vtime_ns: ctx.vtime(),
        counters: ctx.counters(),
    }
}
