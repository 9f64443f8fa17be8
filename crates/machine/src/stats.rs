//! Per-processor access statistics.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters accumulated by one simulated processor.
///
/// These underpin the kernel's post-mortem memory-management report
/// (§4.2 of the paper: "the kernel produces a detailed report on the
/// behavior of memory management").
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AccessCounters {
    /// 32-bit reads satisfied by the local memory module.
    pub local_reads: u64,
    /// 32-bit reads that crossed the switch.
    pub remote_reads: u64,
    /// 32-bit writes to the local module.
    pub local_writes: u64,
    /// 32-bit writes that crossed the switch.
    pub remote_writes: u64,
    /// Atomic read-modify-writes on the local module.
    pub local_atomics: u64,
    /// Atomic read-modify-writes that crossed the switch.
    pub remote_atomics: u64,
    /// Total queueing delay suffered at busy memory modules, in ns.
    pub queue_delay_ns: u64,
    /// Block transfers initiated by this processor.
    pub block_transfers: u64,
    /// Words moved by those block transfers.
    pub block_words: u64,
    /// Interprocessor interrupts handled.
    pub ipis_handled: u64,
    /// Coherent-memory page faults taken (incremented by the kernel).
    pub faults: u64,
    /// Nanoseconds of modelled computation (non-memory work).
    pub compute_ns: u64,
    /// ATC hits (snapshotted from the ATC at collection time).
    pub atc_hits: u64,
    /// ATC misses.
    pub atc_misses: u64,
}

impl AccessCounters {
    /// Total memory references of any kind.
    pub fn total_refs(&self) -> u64 {
        self.local_reads
            + self.remote_reads
            + self.local_writes
            + self.remote_writes
            + self.local_atomics
            + self.remote_atomics
    }

    /// Total references that crossed the switch.
    pub fn remote_refs(&self) -> u64 {
        self.remote_reads + self.remote_writes + self.remote_atomics
    }

    /// Fraction of references that were remote, or 0.0 with no references.
    pub fn remote_fraction(&self) -> f64 {
        let total = self.total_refs();
        if total == 0 {
            0.0
        } else {
            self.remote_refs() as f64 / total as f64
        }
    }

    /// Accumulates `other` into `self` (for summing per-processor
    /// counters into a machine-wide total).
    pub fn merge(&mut self, other: &AccessCounters) {
        self.local_reads += other.local_reads;
        self.remote_reads += other.remote_reads;
        self.local_writes += other.local_writes;
        self.remote_writes += other.remote_writes;
        self.local_atomics += other.local_atomics;
        self.remote_atomics += other.remote_atomics;
        self.queue_delay_ns += other.queue_delay_ns;
        self.block_transfers += other.block_transfers;
        self.block_words += other.block_words;
        self.ipis_handled += other.ipis_handled;
        self.faults += other.faults;
        self.compute_ns += other.compute_ns;
        self.atc_hits += other.atc_hits;
        self.atc_misses += other.atc_misses;
    }
}

/// A shared event count bumped with a relaxed load and a relaxed store,
/// nothing lock-prefixed, for events on a path that must stay that way
/// (a contention booking): exact in any schedule driven by one host
/// thread; under free-running threads a racing bump may be lost. It
/// lives here, not in `contention.rs`, so the ring's one store stays
/// `book`'s.
#[derive(Debug, Default)]
pub(crate) struct RelaxedTally(AtomicU64);

impl RelaxedTally {
    /// Counts one event.
    #[inline]
    pub(crate) fn bump(&self) {
        self.0
            .store(self.0.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// The events counted so far.
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_fractions() {
        let c = AccessCounters {
            local_reads: 6,
            remote_reads: 2,
            local_writes: 1,
            remote_writes: 1,
            ..Default::default()
        };
        assert_eq!(c.total_refs(), 10);
        assert_eq!(c.remote_refs(), 3);
        assert!((c.remote_fraction() - 0.3).abs() < 1e-12);
        assert_eq!(AccessCounters::default().remote_fraction(), 0.0);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = AccessCounters {
            local_reads: 1,
            faults: 2,
            queue_delay_ns: 10,
            ..Default::default()
        };
        let b = AccessCounters {
            local_reads: 3,
            faults: 1,
            block_words: 1024,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.local_reads, 4);
        assert_eq!(a.faults, 3);
        assert_eq!(a.block_words, 1024);
        assert_eq!(a.queue_delay_ns, 10);
    }
}
