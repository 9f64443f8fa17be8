//! Parallel spawn helpers: one worker thread per simulated processor.

use std::sync::Arc;

use numa_machine::uma::{UmaConfig, UmaCtx, UmaMachine};
use numa_machine::Mem;
use platinum::{AddressSpace, Kernel, UserCtx};

use crate::measure::{RunStats, WorkerStats};

/// Runs `f(worker_index, ctx)` on processors `0..n` of `kernel`, one OS
/// thread per simulated processor, starting all virtual clocks at 0.
///
/// # Panics
///
/// Panics if any worker panics, or if a processor is already occupied.
pub fn run_workers<F, R>(
    kernel: &Arc<Kernel>,
    space: &Arc<AddressSpace>,
    n: usize,
    f: F,
) -> (Vec<R>, RunStats)
where
    F: Fn(usize, &mut UserCtx) -> R + Sync,
    R: Send,
{
    assert!(n >= 1 && n <= kernel.machine().nprocs());
    let f = &f;
    let mut out: Vec<Option<(R, WorkerStats)>> = Vec::new();
    out.resize_with(n, || None);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|p| {
                let kernel = Arc::clone(kernel);
                let space = Arc::clone(space);
                s.spawn(move || {
                    let mut ctx = kernel
                        .attach(space, p, 0)
                        .expect("processor free for worker");
                    let r = f(p, &mut ctx);
                    let stats = WorkerStats {
                        proc: p,
                        vtime_ns: ctx.vtime(),
                        counters: ctx.counters(),
                    };
                    (r, stats)
                })
            })
            .collect();
        for (p, h) in handles.into_iter().enumerate() {
            out[p] = Some(h.join().expect("worker panicked"));
        }
    });
    let mut results = Vec::with_capacity(n);
    let mut workers = Vec::with_capacity(n);
    for slot in out {
        let (r, w) = slot.expect("every worker reports");
        results.push(r);
        workers.push(w);
    }
    (results, RunStats { workers })
}

/// Runs `f(worker_index, ctx)` on `n` processors of a UMA comparator
/// machine (Figure 5's Sequent Symmetry stand-in).
pub fn run_uma_workers<F, R>(machine: &Arc<UmaMachine>, n: usize, f: F) -> (Vec<R>, RunStats)
where
    F: Fn(usize, &mut UmaCtx) -> R + Sync,
    R: Send,
{
    assert!(n >= 1 && n <= machine.cfg().procs);
    let f = &f;
    let mut out: Vec<Option<(R, WorkerStats)>> = Vec::new();
    out.resize_with(n, || None);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|p| {
                let machine = Arc::clone(machine);
                s.spawn(move || {
                    let mut ctx = UmaCtx::new(machine, p);
                    let r = f(p, &mut ctx);
                    let stats = WorkerStats {
                        proc: p,
                        vtime_ns: ctx.vtime(),
                        counters: ctx.counters(),
                    };
                    (r, stats)
                })
            })
            .collect();
        for (p, h) in handles.into_iter().enumerate() {
            out[p] = Some(h.join().expect("worker panicked"));
        }
    });
    let mut results = Vec::with_capacity(n);
    let mut workers = Vec::with_capacity(n);
    for slot in out {
        let (r, w) = slot.expect("every worker reports");
        results.push(r);
        workers.push(w);
    }
    (results, RunStats { workers })
}

/// Builds a UMA comparator machine with `procs` processors and enough
/// memory for `mem_words` words.
pub fn uma_machine(procs: usize, mem_words: usize) -> Arc<UmaMachine> {
    UmaMachine::new(UmaConfig {
        procs,
        mem_words,
        ..UmaConfig::default()
    })
    .expect("valid UMA config")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimBuilder;

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

    #[test]
    fn uma_workers_run() {
        let m = uma_machine(3, 1 << 16);
        let base = m.alloc_words(4);
        let (_, stats) = run_uma_workers(&m, 3, |i, ctx| {
            ctx.write(base + 4 * i as u64, i as u32);
            ctx.read(base + 4 * i as u64)
        });
        assert_eq!(stats.workers.len(), 3);
        assert!(stats.elapsed_ns() > 0);
    }
}
