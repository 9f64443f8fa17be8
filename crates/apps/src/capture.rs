//! Reference-trace capture runners: each application's one staging
//! (the same calls [`crate::harness`] makes), on a
//! [`platinum_reftrace::Capture`] instead of a bare simulation.
//!
//! Each runner executes the application once under the PLATINUM policy
//! (the capture run doubles as the live measurement), verifies the
//! application's own correctness condition *unrecorded*, on the capture's
//! inner simulation — verification re-reads the whole data set and is no
//! part of the workload being compared — and returns the sealed
//! [`RefTrace`] next to the live [`AppRun`]. Replaying the trace under
//! `PolicyKind::Platinum` through the [`ReplayOptions`] the runner was
//! given must reproduce the live run's virtual times bit for bit;
//! replaying under any other policy prices the same reference stream
//! under that policy.
//!
//! The message-passing Gaussian variant is not capturable: it talks to
//! kernel ports directly, around the `Mem` seam the recorder wraps.

use platinum::StatsSnapshot;
use platinum_reftrace::{Capture, RefTrace, ReplayOptions};
use platinum_runtime::measure::RunStats;

use crate::gauss::{Gauss, GaussConfig};
use crate::harness::AppRun;
use crate::mergesort::{Sort, SortConfig};
use crate::neural::{Neural, NeuralConfig};

/// A recorded application run: the trace plus the live measurement it
/// was taken from.
#[derive(Debug)]
pub struct CapturedRun {
    /// The recorded reference stream, ready to replay.
    pub trace: RefTrace,
    /// The capture run's own results (PLATINUM policy). `kernel_stats`
    /// is snapshotted before the unrecorded verification pass so it is
    /// directly comparable with a replay's.
    pub live: AppRun,
}

impl CapturedRun {
    /// Seals `cap`; `kernel_stats` is the snapshot taken between the
    /// measured phase and the verification that produced `checksum`.
    fn seal(cap: Capture, run: RunStats, kernel_stats: StatsSnapshot, checksum: u64) -> Self {
        CapturedRun {
            live: AppRun {
                elapsed_ns: run.elapsed_ns(),
                checksum,
                kernel_stats,
                run,
            },
            trace: cap.finish(),
        }
    }
}

/// Records shared-memory Gaussian elimination on `p` of `nodes`
/// processors: an owner-first-touch init phase and the measured
/// elimination phase, exactly as `harness::run_gauss` stages them.
pub fn record_gauss(
    nodes: usize,
    p: usize,
    cfg: &GaussConfig,
    opts: &ReplayOptions,
) -> CapturedRun {
    let mut cap = Capture::new(nodes, opts);
    let g = Gauss::stage(&mut cap, cfg, p);
    g.init(&mut cap);
    let run = g.measured(&mut cap);
    let kernel_stats = cap.stats_snapshot();
    let checksum = g.checksum(cap.sim());
    CapturedRun::seal(cap, run, kernel_stats, checksum)
}

/// Records the tree merge sort on `p` of `nodes` processors.
///
/// # Panics
///
/// Panics if the sorted output fails verification.
pub fn record_mergesort(
    nodes: usize,
    p: usize,
    cfg: &SortConfig,
    opts: &ReplayOptions,
) -> CapturedRun {
    let mut cap = Capture::new(nodes, opts);
    let sort = Sort::stage(&mut cap, cfg, p);
    sort.init(&mut cap);
    let run = sort.measured(&mut cap);
    let kernel_stats = cap.stats_snapshot();
    sort.verify(cap.sim());
    CapturedRun::seal(cap, run, kernel_stats, 1)
}

/// Records the neural-network simulator on `p` of `nodes` processors.
/// Returns the capture plus the final training error from the
/// (unrecorded) evaluation pass.
pub fn record_neural(
    nodes: usize,
    p: usize,
    cfg: &NeuralConfig,
    opts: &ReplayOptions,
) -> (CapturedRun, f64) {
    let mut cap = Capture::new(nodes, opts);
    let net = Neural::stage(&mut cap, cfg, p);
    net.init(&mut cap);
    let run = net.measured(&mut cap);
    let kernel_stats = cap.stats_snapshot();
    let error = net.total_error(cap.sim());
    (CapturedRun::seal(cap, run, kernel_stats, 0), error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gauss;
    use platinum::PolicyKind;
    use platinum_reftrace::replay;

    /// The reftrace round-trip on a real application: capture a small
    /// gauss run, replay it under PLATINUM, and demand bit-identical
    /// virtual times, counters, and kernel protocol statistics.
    #[test]
    fn gauss_capture_replays_bit_identically() {
        let cfg = GaussConfig::with_n(32);
        let captured = record_gauss(4, 4, &cfg, &ReplayOptions::default());
        assert_eq!(
            captured.live.checksum,
            gauss::reference_checksum(&cfg),
            "capture run corrupted the application"
        );
        let out = replay(&captured.trace, PolicyKind::Platinum);
        assert_eq!(
            out.measured_elapsed_ns(),
            captured.live.elapsed_ns,
            "measured-phase vtime drifted"
        );
        let last = out.phases.last().unwrap();
        for (a, b) in captured.live.run.workers.iter().zip(&last.stats.workers) {
            assert_eq!(a.vtime_ns, b.vtime_ns, "proc {} vtime drifted", a.proc);
            assert_eq!(a.counters, b.counters, "proc {} counters drifted", a.proc);
        }
        assert_eq!(
            out.kernel, captured.live.kernel_stats,
            "kernel stats drifted"
        );
    }

    #[test]
    fn mergesort_capture_verifies_and_replays() {
        let cfg = SortConfig::with_n(1 << 10);
        let captured = record_mergesort(4, 4, &cfg, &ReplayOptions::default());
        let out = replay(&captured.trace, PolicyKind::Platinum);
        assert_eq!(out.measured_elapsed_ns(), captured.live.elapsed_ns);
    }

    #[test]
    fn neural_capture_replays_under_other_policy() {
        let cfg = NeuralConfig::with_epochs(2);
        let (captured, _err) = record_neural(4, 4, &cfg, &ReplayOptions::default());
        let plat = replay(&captured.trace, PolicyKind::Platinum);
        assert_eq!(plat.measured_elapsed_ns(), captured.live.elapsed_ns);
        let remote = replay(&captured.trace, PolicyKind::RemoteAlways);
        assert!(remote.measured_elapsed_ns() > 0);
    }
}
