//! Ready-made runners: boot a machine + kernel, stage an application on
//! it, and report timing + correctness.
//!
//! Each application's layout and phase sequence is written once, in its
//! own module, against [`platinum_runtime::Stage`]; a runner here is a
//! boot followed by calls into that staging, so the per-figure
//! experiments, the policy matrix, the examples and the integration tests
//! all run the same program.

use std::sync::Arc;

use numa_machine::uma::{UmaConfig, UmaMachine};
use platinum::{FaultPlan, StatsSnapshot};
use platinum_runtime::measure::RunStats;
use platinum_runtime::sim::{Sim, SimBuilder};

use crate::gauss::{Gauss, GaussAnecdote, GaussConfig};
use crate::mergesort::{Sort, SortConfig};
use crate::neural::{Neural, NeuralConfig};

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

impl AppRun {
    /// A live run's outcome; `sim`'s kernel counters are read now, after
    /// whatever verification pass produced `checksum`.
    fn live(sim: &Sim, run: RunStats, checksum: u64) -> Self {
        AppRun {
            elapsed_ns: run.elapsed_ns(),
            checksum,
            kernel_stats: sim.kernel.stats().snapshot(),
            run,
        }
    }
}

/// Boots a simulation under `policy`, with an optional deterministic
/// fault-injection plan.
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

/// [`run_gauss`] under an optional fault-injection plan: the chaos_soak
/// entry point. Correctness is asserted the same way — the returned
/// checksum must match the fault-free reference.
pub fn run_gauss_faulty(
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
    let mut h = boot(nodes, policy, faults);
    let g = Gauss::stage(&mut h, cfg, p);
    match style {
        GaussStyle::UniformSystem => g.init_scattered(&mut h, nodes),
        _ => g.init(&mut h),
    }
    let run = match style {
        GaussStyle::MessagePassing => g.measured_message_passing(&h),
        _ => g.measured(&mut h),
    };
    let checksum = g.checksum(&mut h);
    AppRun::live(&h, run, checksum)
}

/// A profiled application run: the run itself plus where the kernel's
/// *host* time went during the measured phase.
#[derive(Clone, Debug)]
pub struct ProfiledRun {
    /// The application run (PLATINUM policy).
    pub run: AppRun,
    /// Host-time phase profile of the measured pass.
    pub prof: platinum::hostprof::HostProfSnapshot,
}

/// Runs shared-memory Gaussian elimination under PLATINUM with the
/// kernel's host phase profiler enabled during the measured pass, on an
/// optional machine description. `benchmark/`'s `paper_apps` workload
/// reads its profile into the `core.prof_*` metrics; the profiler's
/// per-span clock reads make this marginally slower than [`run_gauss`],
/// so the unprofiled runners stay the source of every checked timing
/// figure.
pub fn run_gauss_profiled(
    nodes: usize,
    p: usize,
    cfg: &GaussConfig,
    topo: Option<&numa_machine::Topology>,
) -> ProfiledRun {
    let mut b = SimBuilder::nodes(nodes)
        // 512 rather than the default 4096 is a model input, not a
        // host-memory budget (frames materialise on first use): the
        // inverted-page-table hash is `% frames_per_node`, and
        // `benchmark/`'s `paper_apps` `core.prof_*` readings and
        // tests/staging.rs's pinned profiled run were taken with it.
        .frames_per_node(512)
        .policy(PolicyKind::Platinum);
    if let Some(t) = topo {
        b = b.topology(t.clone());
    }
    let mut h = b.build();
    let g = Gauss::stage(&mut h, cfg, p);
    g.init(&mut h);

    h.kernel.host_prof().enable();
    let run = g.measured(&mut h);
    let prof = h.kernel.host_prof().snapshot();

    let checksum = g.checksum(&mut h);
    ProfiledRun {
        run: AppRun::live(&h, run, checksum),
        prof,
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
    let mut h = SimBuilder::nodes(nodes)
        .policy(PolicyKind::Platinum)
        .defrost_ns(t2_ns)
        .build();
    let g = GaussAnecdote::stage(&mut h, cfg, p, colocated);
    g.init(&mut h);
    let run = g.measured(&mut h);
    let checksum = g.checksum(&mut h);
    AppRun::live(&h, run, checksum)
}

/// Runs the tree merge sort on PLATINUM with `p` of `nodes` processors.
///
/// # Panics
///
/// Panics if the sorted output fails verification.
pub fn run_mergesort_platinum(nodes: usize, p: usize, cfg: &SortConfig) -> AppRun {
    run_mergesort_faulty(nodes, p, cfg, None)
}

/// [`run_mergesort_platinum`] under an optional fault-injection plan;
/// the sorted output is verified exactly as in the fault-free run.
///
/// # Panics
///
/// Panics if the sorted output fails verification.
pub fn run_mergesort_faulty(
    nodes: usize,
    p: usize,
    cfg: &SortConfig,
    faults: Option<Arc<FaultPlan>>,
) -> AppRun {
    let mut h = boot(nodes, PolicyKind::Platinum, faults);
    let sort = Sort::stage(&mut h, cfg, p);
    sort.init(&mut h);
    let run = sort.measured(&mut h);
    sort.verify(&mut h);
    AppRun::live(&h, run, 1)
}

/// Runs the tree merge sort on the UMA comparator (the Sequent Symmetry
/// stand-in of Figure 5) with `p` processors.
///
/// # Panics
///
/// Panics if the sorted output fails verification.
pub fn run_mergesort_uma(procs: usize, p: usize, cfg: &SortConfig) -> AppRun {
    // Two arrays of `n` keys and the barrier words, with a little
    // headroom. The comparator zero-fills all of its memory at boot, so
    // what the sort never touches is host time and resident memory (and,
    // in blocks this size, allocator fragmentation) for nothing.
    let mut machine = UmaMachine::new(UmaConfig {
        procs,
        mem_words: 2 * cfg.n + (1 << 10),
    })
    .expect("valid UMA config");
    let sort = Sort::stage(&mut machine, cfg, p);
    sort.init(&mut machine);
    let run = sort.measured(&mut machine);
    sort.verify(&mut machine);
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

/// [`run_neural`] under an optional fault-injection plan. Returns the
/// run plus the final training error, which chaos_soak compares against
/// the fault-free run's.
pub fn run_neural_faulty(
    nodes: usize,
    p: usize,
    cfg: &NeuralConfig,
    faults: Option<Arc<FaultPlan>>,
) -> (AppRun, f64) {
    let mut h = boot(nodes, PolicyKind::Platinum, faults);
    let net = Neural::stage(&mut h, cfg, p);
    net.init(&mut h);
    let run = net.measured(&mut h);
    let error = net.total_error(&mut h);
    (AppRun::live(&h, run, 0), error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gauss;

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
