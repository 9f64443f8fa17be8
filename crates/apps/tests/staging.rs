//! Each application is staged once, against `platinum_runtime::Stage`.
//! These tests hold the three things that rests on: the staging runs on
//! every stage, live == captured == replayed, and the runners still
//! report what they reported before the stagings were unified.
//!
//! Every comparison of numbers runs at `p = 1`, where no host scheduling
//! enters and every number is exact.

use numa_machine::uma::{UmaConfig, UmaMachine};
use platinum::{PolicyKind, StatsSnapshot};
use platinum_apps::capture::{record_gauss, record_mergesort, record_neural, CapturedRun};
use platinum_apps::gauss::{self, Gauss, GaussConfig};
use platinum_apps::harness::{
    run_gauss, run_gauss_anecdote, run_gauss_profiled, run_mergesort_platinum, run_mergesort_uma,
    run_neural, AppRun, GaussStyle,
};
use platinum_apps::mergesort::{Sort, SortConfig};
use platinum_apps::neural::NeuralConfig;
use platinum_reftrace::{replay, Capture, ReplayOptions};
use platinum_runtime::sim::SimBuilder;
use platinum_runtime::Stage;

const NODES: usize = 4;

/// Stages both `Mem`-generic applications on `stage` and runs their own
/// verification there.
fn apps_verify_on<S: Stage>(stage: &mut S) {
    let cfg = GaussConfig::with_n(16);
    let g = Gauss::stage(stage, &cfg, 2);
    g.init(stage);
    g.measured(stage);
    assert_eq!(g.checksum(stage), gauss::reference_checksum(&cfg));

    let cfg = SortConfig::with_n(256);
    let sort = Sort::stage(stage, &cfg, 2);
    sort.init(stage);
    assert!(sort.measured(stage).elapsed_ns() > 0);
    sort.verify(stage);
}

#[test]
fn one_staging_runs_on_all_three_stages() {
    apps_verify_on(&mut SimBuilder::nodes(NODES).build());
    let uma = UmaMachine::new(UmaConfig {
        procs: NODES,
        mem_words: 1 << 12,
    });
    apps_verify_on(&mut uma.unwrap());

    let mut cap = Capture::new(NODES, &ReplayOptions::default());
    apps_verify_on(&mut cap);
    let trace = cap.finish();
    // Matrix + event count, arrays + barrier; three phases per app (the
    // verification pass is a phase like any other when staged on the
    // capture itself).
    assert_eq!(trace.zones, [18, 1, 5, 1]);
    let labels: Vec<&str> = trace.phases.iter().map(|p| p.label.as_str()).collect();
    assert_eq!(
        labels,
        ["init", "measured", "verify", "init", "measured", "verify"]
    );
    assert!(replay(&trace, PolicyKind::Platinum).measured_elapsed_ns() > 0);
}

/// Live (`harness`), captured (`capture`) and replayed agree on the
/// measured phase: one staging, so there is nothing to keep in sync.
fn assert_live_captured_replayed(live: &AppRun, captured: &CapturedRun) {
    let out = replay(&captured.trace, PolicyKind::Platinum);
    assert_eq!(
        live.elapsed_ns, captured.live.elapsed_ns,
        "live vs captured"
    );
    assert_eq!(
        captured.live.elapsed_ns,
        out.measured_elapsed_ns(),
        "captured vs replayed"
    );
    let replayed = &out.phases.last().unwrap().stats;
    assert_eq!(
        live.run.merged_counters(),
        captured.live.run.merged_counters()
    );
    assert_eq!(
        captured.live.run.merged_counters(),
        replayed.merged_counters()
    );
    assert_eq!(live.checksum, captured.live.checksum);
    assert_eq!(captured.live.kernel_stats, out.kernel);
}

#[test]
fn live_captured_and_replayed_agree_at_p1() {
    let opts = ReplayOptions::default();

    let cfg = GaussConfig::with_n(40);
    let live = run_gauss(GaussStyle::Shared(PolicyKind::Platinum), NODES, 1, &cfg);
    assert_live_captured_replayed(&live, &record_gauss(NODES, 1, &cfg, &opts));

    let cfg = SortConfig::with_n(1 << 10);
    let live = run_mergesort_platinum(NODES, 1, &cfg);
    assert_live_captured_replayed(&live, &record_mergesort(NODES, 1, &cfg, &opts));

    let cfg = NeuralConfig::with_epochs(2);
    let (live, live_err) = run_neural(NODES, 1, &cfg);
    let (captured, captured_err) = record_neural(NODES, 1, &cfg, &opts);
    assert_live_captured_replayed(&live, &captured);
    assert_eq!(live_err, captured_err);
}

/// What a runner reported at the commit before the stagings were unified
/// (PR 16, `aaeb6ce`), recorded there first: measured-phase time,
/// checksum, charged reads, faults seen by the workers, faults counted by
/// the kernel (init and verification included).
type Pinned = (u64, u64, u64, u64, u64);

fn assert_pinned(name: &str, run: &AppRun, want: Pinned) {
    let c = run.run.merged_counters();
    let got = (
        run.elapsed_ns,
        run.checksum,
        c.local_reads + c.remote_reads,
        c.faults,
        run.kernel_stats.faults,
    );
    assert_eq!(got, want, "{name}");
}

#[test]
fn every_runner_reports_what_it_did_before_the_stagings_were_unified() {
    const SUM: u64 = 3709162445983319444;
    let g = GaussConfig::with_n(40);
    let gauss = |style| run_gauss(style, NODES, 1, &g);
    assert_pinned(
        "gauss shared",
        &gauss(GaussStyle::Shared(PolicyKind::Platinum)),
        (101_132_640, SUM, 44_319, 80, 160),
    );
    assert_pinned(
        "gauss uniform system",
        &gauss(GaussStyle::UniformSystem),
        (281_661_540, SUM, 44_290, 80, 160),
    );
    assert_pinned(
        "gauss message passing",
        &gauss(GaussStyle::MessagePassing),
        (94_185_280, SUM, 23_759, 79, 159),
    );
    assert_pinned(
        "anecdote, colocated",
        &run_gauss_anecdote(NODES, 1, &g, true, 1_000_000_000),
        (101_809_440, SUM, 45_180, 82, 163),
    );
    assert_pinned(
        "anecdote, separated",
        &run_gauss_anecdote(NODES, 1, &g, false, 1_000_000_000),
        (102_158_400, SUM, 45_200, 83, 164),
    );
    let profiled = run_gauss_profiled(NODES, 1, &g, None);
    assert_pinned(
        "gauss profiled",
        &profiled.run,
        (101_132_640, SUM, 44_319, 80, 160),
    );
    assert_eq!(profiled.run.run.merged_counters().total_refs(), 65_680);

    let s = SortConfig::with_n(1 << 10);
    assert_pinned(
        "mergesort platinum",
        &run_mergesort_platinum(NODES, 1, &s),
        (28_175_680, 1, 10_322, 4, 6),
    );
    // The comparator's cache model is address-sensitive: this value holds
    // only while the arrays and the barrier words sit where a hand-packed
    // layout put them (words 0, n, 2n, 2n + 1).
    let uma = run_mergesort_uma(NODES, 1, &s);
    assert_pinned("mergesort uma", &uma, (31_302_600, 1, 10_241, 0, 0));
    assert_eq!(uma.kernel_stats, StatsSnapshot::default());

    let (neural, error) = run_neural(NODES, 1, &NeuralConfig::with_epochs(2));
    assert_pinned("neural", &neural, (299_621_760, 0, 43_053, 65, 131));
    assert_eq!(error, 41.16239929199219);
}
