//! Parallel spawn helpers: one worker thread per simulated processor.

use crate::measure::{RunStats, WorkerStats};

/// The free-running worker pool: `n` scoped OS threads, worker `i`
/// running `attach(i)`, then `f(i, &mut ctx)`, then `detach(i, ctx)`;
/// results and per-worker statistics come back in worker order. It runs
/// [`crate::Sim::run`]; the host schedule interleaves its threads, so
/// stepped phases ([`crate::step`]) run everything a figure measures.
///
/// # Panics
///
/// Panics if any worker panics.
pub(crate) fn pool<C, R>(
    n: usize,
    attach: impl Fn(usize) -> C + Sync,
    f: impl Fn(usize, &mut C) -> R + Sync,
    detach: impl Fn(usize, C) -> WorkerStats + Sync,
) -> (Vec<R>, RunStats)
where
    R: Send,
{
    let (attach, f, detach) = (&attach, &f, &detach);
    let (results, workers) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                s.spawn(move || {
                    let mut ctx = attach(i);
                    let r = f(i, &mut ctx);
                    (r, detach(i, ctx))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .unzip()
    });
    (results, RunStats { workers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimBuilder;
    use numa_machine::Mem;

    #[test]
    fn harness_runs_workers() {
        let h = SimBuilder::nodes(4).build();
        let mut zone = h.alloc_zone(1);
        let counter = zone.alloc_words(1);
        let (results, stats) = h.run(4, |i, ctx| {
            ctx.fetch_add(counter, 1);
            i * 10
        });
        assert_eq!(results, vec![0, 10, 20, 30]);
        assert_eq!(stats.workers.len(), 4);
        assert!(stats.elapsed_ns() > 0);
        let (v, _) = h.run(1, |_, ctx| ctx.read(counter));
        assert_eq!(v[0], 4);
    }

    #[test]
    fn harness_runs_twice_reusing_processors() {
        let h = SimBuilder::nodes(2).build();
        let mut zone = h.alloc_zone(1);
        let word = zone.alloc_words(1);
        let (_, s1) = h.run(2, |_, ctx| ctx.fetch_add(word, 1));
        let (_, s2) = h.run(2, |_, ctx| ctx.fetch_add(word, 1));
        assert_eq!(s1.workers.len(), 2);
        assert_eq!(s2.workers.len(), 2);
    }

    /// A context that only knows which worker it belongs to.
    fn idle_stats(proc: usize, _ctx: usize) -> WorkerStats {
        WorkerStats {
            proc,
            vtime_ns: 0,
            counters: Default::default(),
        }
    }

    #[test]
    fn pool_returns_results_in_worker_order_not_completion_order() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Worker i returns only after worker i + 1 has: completion order
        // is 3, 2, 1, 0.
        let done: Vec<AtomicBool> = (0..5).map(|i| AtomicBool::new(i == 4)).collect();
        let (results, stats) = pool(
            4,
            |i| i,
            |i, ctx| {
                assert_eq!(*ctx, i, "worker i runs on the context attach(i) made");
                while !done[i + 1].load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                done[i].store(true, Ordering::Release);
                i * 10
            },
            idle_stats,
        );
        assert_eq!(results, vec![0, 10, 20, 30]);
        let procs: Vec<usize> = stats.workers.iter().map(|w| w.proc).collect();
        assert_eq!(procs, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn pool_propagates_a_worker_panic() {
        pool(
            3,
            |i| i,
            |i, _| assert_ne!(i, 1, "worker 1 fails"),
            idle_stats,
        );
    }
}
