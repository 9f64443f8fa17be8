//! Measurement bookkeeping for parallel runs.

use numa_machine::AccessCounters;

/// One worker's outcome.
#[derive(Clone, Debug)]
pub struct WorkerStats {
    /// The simulated processor the worker ran on.
    pub proc: usize,
    /// The worker's final virtual time, ns.
    pub vtime_ns: u64,
    /// The worker's access counters.
    pub counters: AccessCounters,
}

/// The outcome of a parallel run.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Per-worker outcomes.
    pub workers: Vec<WorkerStats>,
}

impl RunStats {
    /// The run's execution time: the paper measures wall-clock time of
    /// the whole computation, which in virtual time is the maximum over
    /// the participating processors.
    pub fn elapsed_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.vtime_ns).max().unwrap_or(0)
    }

    /// All workers' counters summed.
    pub fn merged_counters(&self) -> AccessCounters {
        let mut total = AccessCounters::default();
        for w in &self.workers {
            total.merge(&w.counters);
        }
        total
    }
}

/// Speedup of a parallel time against a serial baseline.
pub fn speedup(serial_ns: u64, parallel_ns: u64) -> f64 {
    if parallel_ns == 0 {
        return 0.0;
    }
    serial_ns as f64 / parallel_ns as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(proc: usize, vtime: u64) -> WorkerStats {
        WorkerStats {
            proc,
            vtime_ns: vtime,
            counters: AccessCounters::default(),
        }
    }

    #[test]
    fn elapsed_is_max() {
        let r = RunStats {
            workers: vec![w(0, 100), w(1, 250), w(2, 180)],
        };
        assert_eq!(r.elapsed_ns(), 250);
    }

    #[test]
    fn speedup_math() {
        assert_eq!(speedup(1000, 250), 4.0);
        assert_eq!(speedup(1000, 0), 0.0);
    }

    #[test]
    fn empty_run() {
        let r = RunStats { workers: vec![] };
        assert_eq!(r.elapsed_ns(), 0);
    }
}
