//! End-to-end integration tests spanning every crate: applications on
//! top of the runtime, on top of the kernel, on top of the simulated
//! machine — checking both correctness and the performance *shape* the
//! paper reports.

use platinum_repro::apps::gauss::{self, GaussConfig};
use platinum_repro::apps::harness::{
    run_gauss, run_gauss_anecdote, run_mergesort_platinum, run_mergesort_uma, run_neural,
    GaussStyle, PolicyKind,
};
use platinum_repro::apps::mergesort::SortConfig;
use platinum_repro::apps::neural::NeuralConfig;

#[test]
fn gauss_all_styles_all_processor_counts_agree() {
    let cfg = GaussConfig {
        n: 64,
        ..Default::default()
    };
    let expected = gauss::reference_checksum(&cfg);
    for style in [
        GaussStyle::Shared(PolicyKind::Platinum),
        GaussStyle::UniformSystem,
        GaussStyle::MessagePassing,
    ] {
        for p in [1usize, 2, 5, 8] {
            let run = run_gauss(style, 8, p, &cfg);
            assert_eq!(run.checksum, expected, "{} diverged at p={p}", style.name());
        }
    }
}

#[test]
fn gauss_platinum_beats_static_placement_in_absolute_time() {
    // The paper's core claim, in absolute time: transparent coherent
    // memory far outperforms static placement with remote access.
    let cfg = GaussConfig {
        n: 128,
        ..Default::default()
    };
    let plat = run_gauss(GaussStyle::Shared(PolicyKind::Platinum), 8, 8, &cfg);
    let us = run_gauss(GaussStyle::UniformSystem, 8, 8, &cfg);
    assert!(
        plat.elapsed_ns * 3 < us.elapsed_ns * 2,
        "PLATINUM ({} ms) must beat static placement ({} ms) by >1.5x",
        plat.elapsed_ns / 1_000_000,
        us.elapsed_ns / 1_000_000
    );
}

#[test]
fn gauss_platinum_close_to_message_passing() {
    let cfg = GaussConfig {
        n: 128,
        ..Default::default()
    };
    let plat = run_gauss(GaussStyle::Shared(PolicyKind::Platinum), 8, 8, &cfg);
    let smp = run_gauss(GaussStyle::MessagePassing, 8, 8, &cfg);
    // "Comparable with hand-tuned programs": within 2x at this small size
    // (the gap narrows as the problem grows; at the paper's 800x800 it is
    // ~10%).
    assert!(
        plat.elapsed_ns < smp.elapsed_ns * 2,
        "PLATINUM ({} ms) should be within 2x of message passing ({} ms)",
        plat.elapsed_ns / 1_000_000,
        smp.elapsed_ns / 1_000_000
    );
}

#[test]
fn gauss_speedup_shape() {
    let cfg = GaussConfig {
        n: 160,
        ..Default::default()
    };
    let t1 = run_gauss(GaussStyle::Shared(PolicyKind::Platinum), 8, 1, &cfg).elapsed_ns;
    let t4 = run_gauss(GaussStyle::Shared(PolicyKind::Platinum), 8, 4, &cfg).elapsed_ns;
    let t8 = run_gauss(GaussStyle::Shared(PolicyKind::Platinum), 8, 8, &cfg).elapsed_ns;
    let s4 = t1 as f64 / t4 as f64;
    let s8 = t1 as f64 / t8 as f64;
    assert!(s4 > 2.5, "speedup at 4 processors too low: {s4:.2}");
    assert!(s8 > s4, "speedup must keep growing: {s4:.2} -> {s8:.2}");
}

#[test]
fn mergesort_sorts_on_both_machines_and_platinum_speeds_up() {
    let cfg = SortConfig {
        n: 1 << 13,
        ..Default::default()
    };
    // Verification happens inside the runners (they panic otherwise).
    let p1 = run_mergesort_platinum(8, 1, &cfg).elapsed_ns;
    let p8 = run_mergesort_platinum(8, 8, &cfg).elapsed_ns;
    assert!(p8 < p1, "8 processors must beat 1: {p1} vs {p8}");
    let u8_ = run_mergesort_uma(8, 8, &cfg);
    assert!(u8_.elapsed_ns > 0);
}

#[test]
fn neural_freezes_pages_and_still_learns() {
    let cfg = NeuralConfig::with_epochs(30);
    let (run, err) = run_neural(4, 4, &cfg);
    assert!(
        run.kernel_stats.freezes > 0,
        "fine-grain sharing must freeze"
    );
    // Hogwild training is racy, but the encoder problem is easy: the
    // final error must be clearly below the untrained baseline (16
    // patterns x ~1.0 error each at initialization).
    assert!(err < 100.0, "training diverged: error {err}");
}

#[test]
fn anecdote_thawing_rescues_colocated_layout() {
    let cfg = GaussConfig {
        n: 144,
        ..Default::default()
    };
    let frozen = run_gauss_anecdote(8, 6, &cfg, true, u64::MAX / 2);
    // The run is far shorter than the paper's 1 s defrost period at this
    // problem size; scale t2 down so the daemon actually fires.
    let thawed = run_gauss_anecdote(8, 6, &cfg, true, 100_000_000);
    let separated = run_gauss_anecdote(8, 6, &cfg, false, 1_000_000_000);
    assert_eq!(frozen.checksum, separated.checksum);
    assert_eq!(thawed.checksum, separated.checksum);
    assert!(
        frozen.elapsed_ns > separated.elapsed_ns * 5 / 4,
        "the frozen co-located page must hurt: frozen {} ms vs separated {} ms",
        frozen.elapsed_ns / 1_000_000,
        separated.elapsed_ns / 1_000_000
    );
    assert!(
        thawed.elapsed_ns * 10 < frozen.elapsed_ns * 9,
        "thawing must recover performance: thawed {} ms vs frozen {} ms",
        thawed.elapsed_ns / 1_000_000,
        frozen.elapsed_ns / 1_000_000
    );
    assert!(frozen.kernel_stats.freezes > 0);
    assert!(thawed.kernel_stats.thaws > 0);
}

#[test]
fn ace_policy_slower_on_coarse_grain_migratory_sharing() {
    // §8: bounding migrations leaves coarse-grain sharing remote forever.
    use platinum_repro::apps::workloads::{round_robin, SharingConfig};
    use platinum_repro::runtime::sim::SimBuilder;
    use platinum_repro::runtime::sync::EventCount;

    let cfg = SharingConfig {
        struct_words: 1024,
        refs_per_op: 1024,
        write_pct: 60,
        ops_per_proc: 12,
        compute_ns_per_op: 15_000_000,
    };
    let run_with = |policy: PolicyKind| {
        let h = SimBuilder::nodes(4)
            .frames_per_node(64)
            .policy(policy)
            .build();
        let mut data = h.alloc_zone(2);
        let base = data.alloc_page_aligned(cfg.struct_words);
        let mut sync = h.alloc_zone(1);
        let turn = EventCount::new(sync.alloc_words(1));
        let run = h.steps("measured", 4, |tid| round_robin(base, &turn, &cfg, tid, 4));
        run.elapsed_ns()
    };
    let plat = run_with(PolicyKind::Platinum);
    let ace = run_with(PolicyKind::AceStyle);
    assert!(
        ace > plat,
        "ACE ({} ms) must lose to PLATINUM ({} ms) on migratory sharing",
        ace / 1_000_000,
        plat / 1_000_000
    );
}
