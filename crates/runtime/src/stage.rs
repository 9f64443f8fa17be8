//! The staging seam: the three places a workload can be laid out and run.
//!
//! An application allocates zones, then runs phases of one worker per
//! processor. [`Stage`] is exactly that, so each application writes its
//! layout and phase sequence once and the caller picks where it happens:
//! a booted [`Sim`], a `platinum_reftrace::Capture` (which writes zone
//! sizes and phase op lists into the trace), or the UMA comparator. A
//! staging takes an already-booted stage — machine size, policy, fault
//! plan, tracer are the caller's business — and whatever the caller wants
//! to read off it afterwards is still in its hands.

use std::sync::Arc;

use numa_machine::uma::{UmaCtx, UmaMachine};
use numa_machine::Mem;
use platinum::UserCtx;

use crate::measure::{RunStats, WorkerStats};
use crate::par::pool;
use crate::sim::Sim;
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

    /// Runs `f(worker_index, ctx)` on processors `0..n`, each on a fresh
    /// context whose clock starts at 0; results and statistics come back
    /// in worker order. `label` names the phase where the stage keeps a
    /// record of it.
    fn phase<R, F>(&mut self, label: &str, n: usize, f: F) -> (Vec<R>, RunStats)
    where
        F: Fn(usize, &mut Self::Ctx) -> R + Sync,
        R: Send;
}

impl Stage for Sim {
    type Ctx = UserCtx;

    fn page_words(&self) -> usize {
        self.machine.cfg().words_per_page()
    }

    fn alloc_zone(&mut self, pages: usize) -> Zone {
        Sim::alloc_zone(self, pages)
    }

    fn phase<R, F>(&mut self, _label: &str, n: usize, f: F) -> (Vec<R>, RunStats)
    where
        F: Fn(usize, &mut UserCtx) -> R + Sync,
        R: Send,
    {
        self.run(n, f)
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

    fn phase<R, F>(&mut self, _label: &str, n: usize, f: F) -> (Vec<R>, RunStats)
    where
        F: Fn(usize, &mut UmaCtx) -> R + Sync,
        R: Send,
    {
        assert!(n >= 1 && n <= self.cfg().procs);
        pool(
            n,
            |p| UmaCtx::new(Arc::clone(self), p),
            f,
            |proc, ctx| WorkerStats {
                proc,
                vtime_ns: ctx.vtime(),
                counters: ctx.counters(),
            },
        )
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
