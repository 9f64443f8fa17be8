//! Ready-made runners: boot a machine + kernel, lay out an application,
//! run it at a given processor count, and report timing + correctness.
//!
//! The per-figure benchmark binaries, the examples, and the integration
//! tests all drive the applications through these functions so that
//! "the same program" really is the same program everywhere.

use std::sync::Arc;

use numa_machine::Mem;
use platinum::{FaultPlan, StatsSnapshot};
use platinum_runtime::measure::RunStats;
use platinum_runtime::par::{run_uma_workers, uma_machine};
use platinum_runtime::sim::{Sim, SimBuilder};
use platinum_runtime::sync::{Barrier, EventCount};

use crate::gauss::{self, GaussConfig, GaussLayout};
use crate::mergesort::{self, SortConfig, SortLayout};
use crate::neural::{self, NeuralConfig, NeuralLayout};

pub use platinum::PolicyKind;

/// The programming style of the Figure 1 comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GaussStyle {
    /// Transparent coherent memory under the given policy.
    Shared(PolicyKind),
    /// Uniform-System style: static placement + explicit pivot copy.
    UniformSystem,
    /// SMP style: private rows, pivot broadcast over ports.
    MessagePassing,
}

impl GaussStyle {
    /// Harness display name.
    pub fn name(self) -> &'static str {
        match self {
            GaussStyle::Shared(PolicyKind::Platinum) => "PLATINUM coherent memory",
            GaussStyle::Shared(k) => k.name(),
            GaussStyle::UniformSystem => "Uniform System style",
            GaussStyle::MessagePassing => "SMP message passing",
        }
    }
}

/// Outcome of one application run.
#[derive(Clone, Debug)]
pub struct AppRun {
    /// Execution time of the measured phase (max worker virtual time).
    pub elapsed_ns: u64,
    /// Application checksum (variant-independent for Gauss; 0 when the
    /// application verifies differently).
    pub checksum: u64,
    /// Kernel event counters at the end of the run (zeroes on the UMA
    /// comparator).
    pub kernel_stats: StatsSnapshot,
    /// Per-run statistics.
    pub run: RunStats,
}

/// Boots a simulation under `policy`, with an optional deterministic
/// fault-injection plan (the chaos runners' shared entry).
fn boot(nodes: usize, policy: PolicyKind, faults: Option<Arc<FaultPlan>>) -> Sim {
    let mut b = SimBuilder::nodes(nodes).policy(policy);
    if let Some(plan) = faults {
        b = b.faults(plan);
    }
    b.build()
}

/// Runs Gaussian elimination in the given style on `p` of `nodes`
/// processors.
pub fn run_gauss(style: GaussStyle, nodes: usize, p: usize, cfg: &GaussConfig) -> AppRun {
    run_gauss_faulty(style, nodes, p, cfg, None)
}

/// [`run_gauss`] with the PLATINUM policy under a fault-injection plan:
/// the chaos_soak entry point. Correctness is asserted the same way —
/// the returned checksum must match the fault-free reference.
pub fn run_gauss_chaos(nodes: usize, p: usize, cfg: &GaussConfig, plan: Arc<FaultPlan>) -> AppRun {
    run_gauss_faulty(
        GaussStyle::Shared(PolicyKind::Platinum),
        nodes,
        p,
        cfg,
        Some(plan),
    )
}

fn run_gauss_faulty(
    style: GaussStyle,
    nodes: usize,
    p: usize,
    cfg: &GaussConfig,
    faults: Option<Arc<FaultPlan>>,
) -> AppRun {
    let policy = match style {
        GaussStyle::Shared(k) => k,
        GaussStyle::UniformSystem => PolicyKind::NeverReplicate,
        GaussStyle::MessagePassing => PolicyKind::Platinum,
    };
    let h = boot(nodes, policy, faults);
    let page_words = h.machine.cfg().words_per_page();
    let mut data = h.alloc_zone(GaussLayout::zone_pages(cfg.n, page_words));
    let lay = GaussLayout::alloc(&mut data, cfg.n, page_words);
    let mut sync = h.alloc_zone(1);
    let ec = EventCount::new(sync.alloc_words(1));

    // Initialization pass decides data placement: owners first-touch
    // their rows, except in the Uniform System style, whose storage
    // discipline scatters rows over every memory in the machine.
    match style {
        GaussStyle::UniformSystem => {
            h.run(nodes, |node, ctx| {
                gauss::init_scattered_rows(ctx, &lay, cfg, node, nodes)
            });
        }
        _ => {
            h.run(p, |tid, ctx| gauss::init_owned_rows(ctx, &lay, cfg, tid, p));
        }
    }

    // Measured pass: the elimination phase, as in LeBlanc's studies.
    let (_, run) = match style {
        GaussStyle::Shared(_) => h.run(p, |tid, ctx| {
            gauss::run_shared(ctx, &lay, cfg, &ec, tid, p);
        }),
        GaussStyle::UniformSystem => h.run(p, |tid, ctx| {
            gauss::run_uniform_system(ctx, &lay, cfg, &ec, tid, p);
        }),
        GaussStyle::MessagePassing => {
            let ports: Vec<Arc<platinum::Port>> = (0..p).map(|_| h.kernel.create_port()).collect();
            let ports = &ports;
            let lay = &lay;
            h.run(p, move |tid, ctx| {
                gauss::run_message_passing(ctx, lay, cfg, ports, tid, p);
            })
        }
    };

    let (sums, _) = h.run(1, |_, ctx| gauss::checksum(ctx, &lay));
    AppRun {
        elapsed_ns: run.elapsed_ns(),
        checksum: sums[0],
        kernel_stats: h.kernel.stats().snapshot(),
        run,
    }
}

/// A profiled application run: the run itself plus where the kernel's
/// *host* time went during the measured phase — the raw material of the
/// protocol-cost-vs-machine-size sweeps.
#[derive(Clone, Debug)]
pub struct ProfiledRun {
    /// The application run (PLATINUM policy).
    pub run: AppRun,
    /// Host-time phase profile of the measured pass.
    pub prof: platinum::hostprof::HostProfSnapshot,
    /// Host wall-clock seconds of the measured pass.
    pub host_secs: f64,
    /// Charged memory references in the measured pass, for per-op
    /// normalization of the profile.
    pub ops: u64,
}

/// Runs shared-memory Gaussian elimination under PLATINUM with the
/// kernel's host phase profiler enabled during the measured pass, on an
/// optional machine description. The sweep entry point
/// (`scaled_speedup --procs`): the profiler's per-span clock reads make
/// this marginally slower than [`run_gauss`], so the unprofiled runners
/// stay the source of every checked timing figure.
pub fn run_gauss_profiled(
    nodes: usize,
    p: usize,
    cfg: &GaussConfig,
    topo: Option<&numa_machine::Topology>,
) -> ProfiledRun {
    let mut b = SimBuilder::nodes(nodes)
        // 512 rather than the default 4096 is a model input, not a
        // host-memory budget (frames materialise on first use): the
        // inverted-page-table hash is `% frames_per_node`, and the
        // published `--procs` sweeps were taken with it.
        .frames_per_node(512)
        .policy(PolicyKind::Platinum);
    if let Some(t) = topo {
        b = b.topology(t.clone());
    }
    let h = b.build();
    let page_words = h.machine.cfg().words_per_page();
    let mut data = h.alloc_zone(GaussLayout::zone_pages(cfg.n, page_words));
    let lay = GaussLayout::alloc(&mut data, cfg.n, page_words);
    let mut sync = h.alloc_zone(1);
    let ec = EventCount::new(sync.alloc_words(1));

    h.run(p, |tid, ctx| gauss::init_owned_rows(ctx, &lay, cfg, tid, p));

    h.kernel.host_prof().enable();
    let t0 = std::time::Instant::now();
    let (_, run) = h.run(p, |tid, ctx| {
        gauss::run_shared(ctx, &lay, cfg, &ec, tid, p);
    });
    let host_secs = t0.elapsed().as_secs_f64();
    let prof = h.kernel.host_prof().snapshot();

    let (sums, _) = h.run(1, |_, ctx| gauss::checksum(ctx, &lay));
    let ops = run.merged_counters().total_refs();
    ProfiledRun {
        run: AppRun {
            elapsed_ns: run.elapsed_ns(),
            checksum: sums[0],
            kernel_stats: h.kernel.stats().snapshot(),
            run,
        },
        prof,
        host_secs,
        ops,
    }
}

/// Runs the §4.2 anecdote: Gaussian elimination with a shared
/// matrix-size variable read in the inner loop and a barrier at the
/// start of the elimination phase.
///
/// With `colocated = true` the barrier words share a page with the
/// matrix-size variable (the paper's original, accidental layout); with
/// `false` they live in separate zones (the fixed layout). `t2_ns`
/// controls the defrost daemon period — pass a huge value to model the
/// kernel before thawing existed.
pub fn run_gauss_anecdote(
    nodes: usize,
    p: usize,
    cfg: &GaussConfig,
    colocated: bool,
    t2_ns: u64,
) -> AppRun {
    let h = SimBuilder::nodes(nodes)
        .frames_per_node(4096)
        .policy(PolicyKind::Platinum)
        .defrost_ns(t2_ns)
        .build();
    let page_words = h.machine.cfg().words_per_page();
    let mut data = h.alloc_zone(GaussLayout::zone_pages(cfg.n, page_words));
    let lay = GaussLayout::alloc(&mut data, cfg.n, page_words);

    let mut sync = h.alloc_zone(2);
    let ec = EventCount::new(sync.alloc_page_aligned(1));
    let (msize_va, barrier) = if colocated {
        // The accident: the matrix-size variable and the barrier words
        // share one page.
        let base = sync.alloc_page_aligned(3);
        (base, Barrier::new(base + 4, base + 8, p as u32))
    } else {
        // The fix: page-separated allocations.
        let mut vars = h.alloc_zone(2);
        let msize = vars.alloc_page_aligned(1);
        let b = sync.alloc_page_aligned(2);
        (msize, Barrier::new(b, b + 4, p as u32))
    };

    h.run(p, |tid, ctx| {
        if tid == 0 {
            ctx.write(msize_va, cfg.n as u32);
        }
        gauss::init_owned_rows(ctx, &lay, cfg, tid, p);
    });
    let (_, run) = h.run(p, |tid, ctx| {
        gauss::run_shared_anecdote(ctx, &lay, cfg, &ec, tid, p, msize_va, &barrier);
    });
    let (sums, _) = h.run(1, |_, ctx| gauss::checksum(ctx, &lay));
    AppRun {
        elapsed_ns: run.elapsed_ns(),
        checksum: sums[0],
        kernel_stats: h.kernel.stats().snapshot(),
        run,
    }
}

/// Runs the tree merge sort on PLATINUM with `p` of `nodes` processors.
///
/// # Panics
///
/// Panics if the sorted output fails verification.
pub fn run_mergesort_platinum(nodes: usize, p: usize, cfg: &SortConfig) -> AppRun {
    run_mergesort_faulty(nodes, p, cfg, None)
}

/// [`run_mergesort_platinum`] under a fault-injection plan; the sorted
/// output is verified exactly as in the fault-free run.
///
/// # Panics
///
/// Panics if the sorted output fails verification.
pub fn run_mergesort_chaos(
    nodes: usize,
    p: usize,
    cfg: &SortConfig,
    plan: Arc<FaultPlan>,
) -> AppRun {
    run_mergesort_faulty(nodes, p, cfg, Some(plan))
}

fn run_mergesort_faulty(
    nodes: usize,
    p: usize,
    cfg: &SortConfig,
    faults: Option<Arc<FaultPlan>>,
) -> AppRun {
    let h = boot(nodes, PolicyKind::Platinum, faults);
    let page_words = h.machine.cfg().words_per_page();
    let mut data = h.alloc_zone(SortLayout::zone_pages(cfg.n, page_words));
    let lay = SortLayout::alloc(&mut data, cfg.n);
    let mut sync = h.alloc_zone(1);
    let barrier = Barrier::new(sync.alloc_words(1), sync.alloc_words(1), p as u32);

    h.run(p, |tid, ctx| {
        mergesort::init_segment(ctx, &lay, cfg, tid, p)
    });
    let (_, run) = h.run(p, |tid, ctx| {
        mergesort::run(ctx, &lay, cfg, &barrier, tid, p);
    });
    let (checks, _) = h.run(1, |_, ctx| {
        mergesort::verify(ctx, &lay, cfg, p).map(|()| 1u64)
    });
    checks[0].as_ref().expect("merge sort output must verify");
    AppRun {
        elapsed_ns: run.elapsed_ns(),
        checksum: 1,
        kernel_stats: h.kernel.stats().snapshot(),
        run,
    }
}

/// Runs the tree merge sort on the UMA comparator (the Sequent Symmetry
/// stand-in of Figure 5) with `p` processors.
///
/// # Panics
///
/// Panics if the sorted output fails verification.
pub fn run_mergesort_uma(procs: usize, p: usize, cfg: &SortConfig) -> AppRun {
    let machine = uma_machine(procs, 4 * cfg.n + (1 << 16));
    let a = machine.alloc_words(cfg.n);
    let b = machine.alloc_words(cfg.n);
    let lay = SortLayout { a, b, n: cfg.n };
    let count = machine.alloc_words(1);
    let generation = machine.alloc_words(1);
    let barrier = Barrier::new(count, generation, p as u32);

    run_uma_workers(&machine, p, |tid, ctx| {
        mergesort::init_segment(ctx, &lay, cfg, tid, p)
    });
    let (_, run) = run_uma_workers(&machine, p, |tid, ctx| {
        mergesort::run(ctx, &lay, cfg, &barrier, tid, p);
    });
    let (checks, _) = run_uma_workers(&machine, 1, |_, ctx| {
        mergesort::verify(ctx, &lay, cfg, p).map(|()| 1u64)
    });
    checks[0].as_ref().expect("merge sort output must verify");
    AppRun {
        elapsed_ns: run.elapsed_ns(),
        checksum: 1,
        kernel_stats: StatsSnapshot::default(),
        run,
    }
}

/// Runs the neural-network simulator on PLATINUM with `p` of `nodes`
/// processors. Returns the run plus the final training error.
pub fn run_neural(nodes: usize, p: usize, cfg: &NeuralConfig) -> (AppRun, f64) {
    run_neural_faulty(nodes, p, cfg, None)
}

/// [`run_neural`] under a fault-injection plan. Returns the run plus the
/// final training error, which chaos_soak compares against the
/// fault-free run's.
pub fn run_neural_chaos(
    nodes: usize,
    p: usize,
    cfg: &NeuralConfig,
    plan: Arc<FaultPlan>,
) -> (AppRun, f64) {
    run_neural_faulty(nodes, p, cfg, Some(plan))
}

fn run_neural_faulty(
    nodes: usize,
    p: usize,
    cfg: &NeuralConfig,
    faults: Option<Arc<FaultPlan>>,
) -> (AppRun, f64) {
    let h = boot(nodes, PolicyKind::Platinum, faults);
    let mut zone = h.alloc_zone(NeuralLayout::zone_pages());
    let lay = NeuralLayout::alloc(&mut zone);
    h.run(1, |_, ctx| neural::init(ctx, &lay));
    // Owners first-touch their units' weight pages (local placement).
    h.run(p, |tid, ctx| neural::init_owned_weights(ctx, &lay, tid, p));
    let (_, run) = h.run(p, |tid, ctx| neural::train(ctx, &lay, cfg, tid, p));
    let (errors, _) = h.run(1, |_, ctx| neural::total_error(ctx, &lay));
    (
        AppRun {
            elapsed_ns: run.elapsed_ns(),
            checksum: 0,
            kernel_stats: h.kernel.stats().snapshot(),
            run,
        },
        errors[0],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_gauss() -> GaussConfig {
        GaussConfig::with_n(48)
    }

    #[test]
    fn gauss_shared_matches_reference_across_p() {
        let cfg = small_gauss();
        let expect = gauss::reference_checksum(&cfg);
        for p in [1, 2, 4] {
            let run = run_gauss(GaussStyle::Shared(PolicyKind::Platinum), 4, p, &cfg);
            assert_eq!(run.checksum, expect, "p={p} diverged");
        }
    }

    #[test]
    fn gauss_all_styles_agree() {
        let cfg = small_gauss();
        let expect = gauss::reference_checksum(&cfg);
        for style in [
            GaussStyle::Shared(PolicyKind::Platinum),
            GaussStyle::Shared(PolicyKind::NeverReplicate),
            GaussStyle::Shared(PolicyKind::AlwaysReplicate),
            GaussStyle::Shared(PolicyKind::AceStyle),
            GaussStyle::UniformSystem,
            GaussStyle::MessagePassing,
        ] {
            eprintln!("style: {}", style.name());
            let run = run_gauss(style, 4, 3, &cfg);
            assert_eq!(run.checksum, expect, "{} diverged", style.name());
        }
    }

    #[test]
    fn gauss_parallel_is_faster() {
        // Needs a problem big enough that per-round elimination work
        // dominates the per-round pivot replication overhead (~1.34 ms);
        // tiny matrices genuinely do not speed up, as inequality (2)
        // predicts.
        let cfg = GaussConfig::with_n(192);
        let t1 = run_gauss(GaussStyle::Shared(PolicyKind::Platinum), 4, 1, &cfg).elapsed_ns;
        let t4 = run_gauss(GaussStyle::Shared(PolicyKind::Platinum), 4, 4, &cfg).elapsed_ns;
        assert!(t4 < t1, "4 processors must beat 1: t1={t1} t4={t4}");
    }

    #[test]
    fn mergesort_platinum_and_uma_verify() {
        let cfg = SortConfig::with_n(1 << 12);
        let pl = run_mergesort_platinum(4, 4, &cfg);
        assert!(pl.elapsed_ns > 0);
        let uma = run_mergesort_uma(4, 4, &cfg);
        assert!(uma.elapsed_ns > 0);
    }

    #[test]
    fn neural_trains_and_freezes_pages() {
        let cfg = NeuralConfig::with_epochs(8);
        let (run, _err) = run_neural(4, 4, &cfg);
        assert!(
            run.kernel_stats.freezes > 0,
            "fine-grain sharing must freeze pages: {:?}",
            run.kernel_stats
        );
        assert!(
            run.kernel_stats.remote_maps > 0,
            "frozen pages are remote-mapped"
        );
    }
}
