//! The staging seam: the two places a workload can be laid out and run.
//!
//! An application allocates zones, then runs phases of one worker per
//! processor. [`Stage`] is exactly that, so each application writes its
//! layout and phase sequence once and the caller picks where it happens:
//! a booted [`Sim`] or the UMA comparator. A
//! staging takes an already-booted stage — machine size, policy, fault
//! plan, tracer are the caller's business — and whatever the caller wants
//! to read off it afterwards is still in its hands.
//!
//! Every stage runs a phase's workers as steps on one host thread, in the
//! one order [`crate::step::schedule`] fixes.

use std::cell::Cell;
use std::sync::Arc;

use numa_machine::uma::{UmaCtx, UmaMachine};
use numa_machine::Mem;
use platinum::UserCtx;

use crate::measure::RunStats;
use crate::sim::Sim;
use crate::step::{schedule, Step};
use crate::zones::Zone;

/// Somewhere a workload can allocate zones and run phases.
pub trait Stage {
    /// The memory interface a phase hands each worker.
    type Ctx: Mem;

    /// Words per page — the granularity zones are sized and aligned in.
    fn page_words(&self) -> usize;

    /// Allocates a zone of `pages` pages, disjoint from every other zone
    /// of this stage.
    fn alloc_zone(&mut self, pages: usize) -> Zone;

    /// Runs the stepped worker `worker(i)` on processor `i` for `i` in
    /// `0..n`, each on a fresh context whose clock starts at 0 (see
    /// `crate::step`); statistics come back in worker order. `label`
    /// names the phase in a panic.
    fn steps<'a, W>(&mut self, label: &str, n: usize, worker: impl FnMut(usize) -> W) -> RunStats
    where
        W: FnMut(&mut Self::Ctx) -> Step<'a>;

    /// Runs `f(worker_index, ctx)` on processors `0..n` as one step each:
    /// for phases with no waits and no step longer than the contention
    /// ring's span. Results come back in worker order.
    fn phase<R, F>(&mut self, label: &str, n: usize, f: F) -> (Vec<R>, RunStats)
    where
        F: Fn(usize, &mut Self::Ctx) -> R,
    {
        let out: Vec<Cell<Option<R>>> = (0..n).map(|_| Cell::new(None)).collect();
        let stats = self.steps(label, n, |i| {
            let (f, out) = (&f, &out);
            move |ctx: &mut Self::Ctx| {
                out[i].set(Some(f(i, ctx)));
                Step::Done
            }
        });
        let out = out
            .into_iter()
            .map(|r| r.into_inner().expect("every worker ran"));
        (out.collect(), stats)
    }
}

impl Stage for Sim {
    type Ctx = UserCtx;

    fn page_words(&self) -> usize {
        self.machine.cfg().words_per_page()
    }

    fn alloc_zone(&mut self, pages: usize) -> Zone {
        Sim::alloc_zone(self, pages)
    }

    fn steps<'a, W>(&mut self, label: &str, n: usize, worker: impl FnMut(usize) -> W) -> RunStats
    where
        W: FnMut(&mut UserCtx) -> Step<'a>,
    {
        Sim::steps(self, label, n, worker)
    }
}

/// The comparator has no paging, so a page is one word: alignment costs
/// nothing and zones pack back to back from its bump allocator. Its cache
/// model is address-sensitive; word pages put a staged layout at the
/// addresses a hand-packed one would use.
impl Stage for Arc<UmaMachine> {
    type Ctx = UmaCtx;

    fn page_words(&self) -> usize {
        1
    }

    fn alloc_zone(&mut self, pages: usize) -> Zone {
        Zone::new(self.alloc_words(pages), pages, 1)
    }

    fn steps<'a, W>(&mut self, label: &str, n: usize, worker: impl FnMut(usize) -> W) -> RunStats
    where
        W: FnMut(&mut UmaCtx) -> Step<'a>,
    {
        assert!(n >= 1 && n <= self.cfg().procs);
        let mut procs: Vec<UmaCtx> = (0..n).map(|p| UmaCtx::new(Arc::clone(self), p)).collect();
        let mut workers: Vec<W> = (0..n).map(worker).collect();
        schedule(label, &mut procs, &mut workers)
    }
}

#[cfg(test)]
mod tests {
    use numa_machine::uma::UmaConfig;

    use super::*;

    #[test]
    fn uma_workers_run() {
        let mut m = UmaMachine::new(UmaConfig {
            procs: 3,
            mem_words: 1 << 16,
        })
        .unwrap();
        let base = m.alloc_words(4);
        let (_, stats) = m.phase("", 3, |i, ctx| {
            ctx.write(base + 4 * i as u64, i as u32);
            ctx.read(base + 4 * i as u64)
        });
        assert_eq!(stats.workers.len(), 3);
        assert!(stats.elapsed_ns() > 0);
    }
}
