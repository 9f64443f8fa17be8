//! Reference-trace capture runners: one per application, mirroring the
//! phase structure of [`crate::harness`] but recording every memory
//! operation through [`platinum_reftrace::Capture`].
//!
//! Each runner executes the application once under the PLATINUM policy
//! (the capture run doubles as the live measurement), verifies the
//! application's own correctness condition *unrecorded* — verification
//! re-reads the whole data set and is no part of the workload being
//! compared — and returns the sealed [`RefTrace`] next to the live
//! [`AppRun`]. Replaying the trace under `PolicyKind::Platinum` through
//! the [`ReplayOptions`] the runner was given must reproduce the live
//! run's virtual times bit for bit; replaying under any other policy
//! prices the same reference stream under that policy.
//!
//! The message-passing Gaussian variant is not capturable: it talks to
//! kernel ports directly, around the `Mem` seam the recorder wraps.

use platinum_reftrace::{Capture, RefTrace, ReplayOptions};
use platinum_runtime::sync::{Barrier, EventCount};
use platinum_server::{KvConfig, KvTable, TrafficConfig, Workload};

use crate::gauss::{self, GaussConfig, GaussLayout};
use crate::harness::AppRun;
use crate::mergesort::{self, SortConfig, SortLayout};
use crate::neural::{self, NeuralConfig, NeuralLayout};

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
    let page_words = cap.sim().machine.cfg().words_per_page();
    let mut data = cap.alloc_zone(GaussLayout::zone_pages(cfg.n, page_words));
    let lay = GaussLayout::alloc(&mut data, cfg.n, page_words);
    let mut sync = cap.alloc_zone(1);
    let ec = EventCount::new(sync.alloc_words(1));

    cap.run_phase("init", p, |tid, ctx| {
        gauss::init_owned_rows(ctx, &lay, cfg, tid, p)
    });
    let (_, run) = cap.run_phase("measured", p, |tid, ctx| {
        gauss::run_shared(ctx, &lay, cfg, &ec, tid, p);
    });

    let kernel_stats = cap.stats_snapshot();
    let (sums, _) = cap.sim().run(1, |_, ctx| gauss::checksum(ctx, &lay));
    CapturedRun {
        live: AppRun {
            elapsed_ns: run.elapsed_ns(),
            checksum: sums[0],
            kernel_stats,
            run,
        },
        trace: cap.finish(),
    }
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
    let page_words = cap.sim().machine.cfg().words_per_page();
    let mut data = cap.alloc_zone(SortLayout::zone_pages(cfg.n, page_words));
    let lay = SortLayout::alloc(&mut data, cfg.n);
    let mut sync = cap.alloc_zone(1);
    let barrier = Barrier::new(sync.alloc_words(1), sync.alloc_words(1), p as u32);

    cap.run_phase("init", p, |tid, ctx| {
        mergesort::init_segment(ctx, &lay, cfg, tid, p)
    });
    let (_, run) = cap.run_phase("measured", p, |tid, ctx| {
        mergesort::run(ctx, &lay, cfg, &barrier, tid, p);
    });

    let kernel_stats = cap.stats_snapshot();
    let (checks, _) = cap.sim().run(1, |_, ctx| {
        mergesort::verify(ctx, &lay, cfg, p).map(|()| 1u64)
    });
    checks[0].as_ref().expect("merge sort output must verify");
    CapturedRun {
        live: AppRun {
            elapsed_ns: run.elapsed_ns(),
            checksum: 1,
            kernel_stats,
            run,
        },
        trace: cap.finish(),
    }
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
    let mut zone = cap.alloc_zone(NeuralLayout::zone_pages());
    let lay = NeuralLayout::alloc(&mut zone);

    cap.run_phase("init", 1, |_, ctx| neural::init(ctx, &lay));
    cap.run_phase("init-weights", p, |tid, ctx| {
        neural::init_owned_weights(ctx, &lay, tid, p)
    });
    let (_, run) = cap.run_phase("measured", p, |tid, ctx| {
        neural::train(ctx, &lay, cfg, tid, p)
    });

    let kernel_stats = cap.stats_snapshot();
    let (errors, _) = cap.sim().run(1, |_, ctx| neural::total_error(ctx, &lay));
    (
        CapturedRun {
            live: AppRun {
                elapsed_ns: run.elapsed_ns(),
                checksum: 0,
                kernel_stats,
                run,
            },
            trace: cap.finish(),
        },
        errors[0],
    )
}

/// Records the key-value server workload on `p` of `nodes` processors:
/// a striped populate phase and a measured serve phase in which each
/// worker paces its own open-loop arrival schedule with `advance_to`
/// (recorded, so a replay reproduces the idle gaps exactly). The live
/// checksum is the post-serve table audit, which also asserts no slot
/// was torn.
pub fn record_kv(
    nodes: usize,
    p: usize,
    kcfg: KvConfig,
    traffic: &TrafficConfig,
    opts: &ReplayOptions,
) -> CapturedRun {
    let keys = kcfg.keys;
    let mut cap = Capture::new(nodes, opts);
    let page_words = cap.sim().machine.cfg().words_per_page();
    let mut data = cap.alloc_zone(kcfg.table_pages(page_words));
    let mut locks = cap.alloc_zone(kcfg.lock_pages());
    let kv = KvTable::layout(kcfg, &mut data, &mut locks);
    let schedules = traffic.per_proc_schedules(p);

    cap.run_phase("populate", p, |tid, ctx| {
        kv.populate(ctx, tid, p)
            .expect("recorded populate cannot fail")
    });
    let (_, run) = cap.run_phase("serve", p, |tid, ctx| {
        use numa_machine::Mem;
        for req in &schedules[tid] {
            if ctx.vtime() < req.arrival_ns {
                ctx.advance_to(req.arrival_ns);
            }
            kv.execute(ctx, req).expect("recorded request cannot fail");
        }
    });

    let kernel_stats = cap.stats_snapshot();
    let (audits, _) = cap.sim().run(1, |_, ctx| {
        kv.verify(ctx).expect("live access cannot fail unfaulted")
    });
    assert_eq!(audits[0].occupied, keys, "keys lost from the table");
    CapturedRun {
        live: AppRun {
            elapsed_ns: run.elapsed_ns(),
            checksum: audits[0].checksum,
            kernel_stats,
            run,
        },
        trace: cap.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn kv_capture_replays_bit_identically() {
        let traffic = TrafficConfig {
            keys: 1 << 9,
            requests_per_proc: 200,
            mean_interarrival_ns: 10_000,
            ..TrafficConfig::default()
        };
        let captured = record_kv(
            4,
            4,
            KvConfig::for_keys(1 << 9, 4),
            &traffic,
            &ReplayOptions::default(),
        );
        let out = replay(&captured.trace, PolicyKind::Platinum);
        assert_eq!(
            out.measured_elapsed_ns(),
            captured.live.elapsed_ns,
            "serve-phase vtime drifted"
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
        // The same stream priced under a different policy still replays.
        // (No ordering assertion at this tiny scale: PLATINUM pays
        // page-copy costs that per-word remote latency can undercut;
        // the policy-spread check lives in policy_matrix at real sizes.)
        let remote = replay(&captured.trace, PolicyKind::RemoteAlways);
        assert_ne!(
            remote.measured_elapsed_ns(),
            0,
            "remote-always replay must execute the serve phase"
        );
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
