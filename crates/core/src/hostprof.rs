//! Host-time phase profiling for the fault slow path.
//!
//! The simulator's virtual clock says what the *modelled* machine spends;
//! this module says where the *host* spends wall-clock while serving it,
//! bucketed by slow-path phase. It exists for `benchmark/` (perf_ledger),
//! which reports the buckets per fault as `core.prof_*`, and costs one
//! relaxed load and a predictable branch per instrumented span while
//! disabled, so it stays compiled into release kernels.
//!
//! The buckets overlap deliberately: `fault` spans the whole coherent
//! fault handler, while `shootdown`, `transfer`, and `directory` time the
//! components nested inside it (and `directory` also counts message
//! drains outside any fault). Read `fault` as the total and the rest as
//! its attribution.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// A slow-path phase bucket.
#[derive(Clone, Copy, Debug)]
pub enum HostPhase {
    /// The coherent fault handler, entry to exit.
    Fault = 0,
    /// Shootdown posting and acknowledgment waits.
    Shootdown = 1,
    /// Page block transfers.
    Transfer = 2,
    /// Directory and translation updates: message drains and `map_page`.
    Directory = 3,
    /// Simulated page-table walks on ATC misses (the translation fabric).
    Walk = 4,
}

/// Wall-clock nanoseconds spent per [`HostPhase`], collected only while
/// enabled.
#[derive(Debug, Default)]
pub struct HostProf {
    enabled: AtomicBool,
    buckets: [AtomicU64; 5],
}

/// A point-in-time copy of the five buckets, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostProfSnapshot {
    /// Total wall-clock inside the coherent fault handler.
    pub fault_ns: u64,
    /// Wall-clock posting shootdowns and awaiting acknowledgments.
    pub shootdown_ns: u64,
    /// Wall-clock in page block transfers.
    pub transfer_ns: u64,
    /// Wall-clock updating directories: message drains and `map_page`.
    pub directory_ns: u64,
    /// Wall-clock in simulated page-table walks (outside any fault).
    pub walk_ns: u64,
}

impl HostProf {
    /// Starts collecting.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Begins a span: `None` while disabled, so the off path never reads
    /// the host clock.
    #[inline(always)]
    pub(crate) fn begin(&self) -> Option<Instant> {
        if self.enabled.load(Ordering::Relaxed) {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Ends a span begun with [`HostProf::begin`].
    #[inline(always)]
    pub(crate) fn end(&self, phase: HostPhase, begin: Option<Instant>) {
        if let Some(t) = begin {
            self.buckets[phase as usize]
                .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Copies out the bucket totals.
    pub fn snapshot(&self) -> HostProfSnapshot {
        HostProfSnapshot {
            fault_ns: self.buckets[HostPhase::Fault as usize].load(Ordering::Relaxed),
            shootdown_ns: self.buckets[HostPhase::Shootdown as usize].load(Ordering::Relaxed),
            transfer_ns: self.buckets[HostPhase::Transfer as usize].load(Ordering::Relaxed),
            directory_ns: self.buckets[HostPhase::Directory as usize].load(Ordering::Relaxed),
            walk_ns: self.buckets[HostPhase::Walk as usize].load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_collect_nothing() {
        let p = HostProf::default();
        let t = p.begin();
        assert!(t.is_none());
        p.end(HostPhase::Fault, t);
        assert_eq!(p.snapshot(), HostProfSnapshot::default());
    }

    #[test]
    fn enabled_spans_accumulate() {
        let p = HostProf::default();
        p.enable();
        let t = p.begin();
        assert!(t.is_some());
        std::thread::sleep(std::time::Duration::from_millis(1));
        p.end(HostPhase::Transfer, t);
        assert!(p.snapshot().transfer_ns > 0);
        assert_eq!(p.snapshot().fault_ns, 0);
    }
}
