//! Every application run is a function of its inputs: the harness
//! runners step their processors on one host thread in one fixed order,
//! so two runs agree bit for bit at any processor count, and a phase that
//! can never finish fails by name instead of spinning.

use numa_machine::Mem;
use platinum::UserCtx;
use platinum_apps::gauss::GaussConfig;
use platinum_apps::harness::{
    run_gauss, run_gauss_anecdote, run_mergesort_platinum, run_mergesort_uma, run_neural, AppRun,
    GaussStyle, PolicyKind,
};
use platinum_apps::mergesort::SortConfig;
use platinum_apps::neural::NeuralConfig;
use platinum_runtime::sim::SimBuilder;
use platinum_runtime::sync::Barrier;
use platinum_runtime::Step;

const P: usize = 4;

/// Runs `run` twice and demands the same outcome, field by field.
fn twice(what: &str, run: impl Fn() -> AppRun) {
    let (a, b) = (run(), run());
    assert_eq!(a.elapsed_ns, b.elapsed_ns, "{what}: elapsed");
    assert_eq!(a.checksum, b.checksum, "{what}: checksum");
    assert_eq!(a.run.workers.len(), P, "{what}: workers");
    for (x, y) in a.run.workers.iter().zip(&b.run.workers) {
        assert_eq!(x.proc, y.proc, "{what}: worker order");
        assert_eq!(x.vtime_ns, y.vtime_ns, "{what}: processor {} clock", x.proc);
        assert_eq!(
            x.counters, y.counters,
            "{what}: processor {} counters",
            x.proc
        );
    }
    assert_eq!(a.kernel_stats, b.kernel_stats, "{what}: kernel statistics");
}

#[test]
fn every_runner_repeats_bit_for_bit() {
    let gauss = GaussConfig::with_n(48);
    for style in [
        GaussStyle::Shared(PolicyKind::Platinum),
        GaussStyle::UniformSystem,
        GaussStyle::MessagePassing,
    ] {
        twice(style.name(), || run_gauss(style, P, P, &gauss));
    }
    for colocated in [true, false] {
        twice("anecdote", || {
            run_gauss_anecdote(P, P, &gauss, colocated, 1_000_000)
        });
    }
    let sort = SortConfig::with_n(1 << 12);
    twice("merge sort", || run_mergesort_platinum(P, P, &sort));
    twice("merge sort on the comparator", || {
        run_mergesort_uma(P, P, &sort)
    });
    let neural = NeuralConfig::with_epochs(4);
    twice("neural", || run_neural(P, P, &neural).0);
}

/// A three-way barrier that only two processors ever reach: nothing can
/// release them, and the phase names itself and both.
#[test]
#[should_panic(expected = "phase \"stuck\": processors [0, 1] are all blocked")]
fn a_phase_that_can_never_finish_names_its_blocked_processors() {
    let sim = SimBuilder::nodes(3).build();
    let mut zone = sim.alloc_zone(1);
    let barrier = Barrier::new(zone.alloc_words(1), zone.alloc_words(1), 3);
    sim.steps("stuck", 3, |tid| {
        let barrier = &barrier;
        let mut arrived = false;
        move |ctx: &mut UserCtx| {
            if tid == 2 || std::mem::replace(&mut arrived, true) {
                return Step::Done;
            }
            ctx.compute(1_000);
            barrier.arrive(ctx).into()
        }
    });
}
