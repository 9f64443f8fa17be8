//! `platinum-bench`: the paper's evaluation as one binary,
//! `repro <experiment> [flags]`.
//!
//! The evaluation is a fixed, enumerable set — §4's timings, Table 1,
//! the §4.1 crossover, Figures 1/5/6, the §4.2 anecdote, and the
//! ablations and sweeps built around them (DESIGN.md §3) — so each
//! experiment is a module under `experiments/` exposing one plain
//! `fn(&mut Run)`, and [`repro`] dispatches to it. What every experiment
//! needs around its measurement lives once, in `run` (shared flags,
//! tracer, named checks, artifact, exit status) and `args` (the flag
//! grammar); `micro` is the §4 measurement fixture, `model` the §4.1
//! analytic model and `report` the tables, charts and series every
//! experiment prints. Host time is measured by `benchmark/`
//! (perf_ledger), not here.

#![warn(missing_docs)]

use std::process::ExitCode;

/// `println!`, unless `--json` put the artifact on stdout instead of
/// the text report.
macro_rules! say {
    ($run:expr, $($arg:tt)*) => {
        if $run.text() {
            println!($($arg)*);
        }
    };
}

mod args;
mod micro;
mod model;
mod report;
mod run;

mod experiments {
    pub(crate) mod ablations;
    pub(crate) mod anecdote_freeze;
    pub(crate) mod chaos_soak;
    pub(crate) mod crossover;
    pub(crate) mod fig1_gauss;
    pub(crate) mod fig5_mergesort;
    pub(crate) mod fig6_neural;
    pub(crate) mod policy_matrix;
    pub(crate) mod ptable_ablation;
    pub(crate) mod scaled_speedup;
    pub(crate) mod sec4_microbench;
    pub(crate) mod server_bench;
    pub(crate) mod table1_smin;
    pub(crate) mod trace_report;
}

use experiments::*;
use run::Run;

/// An experiment: its name, what it reproduces, its entry point.
type Experiment = (&'static str, &'static str, fn(&mut Run));

#[rustfmt::skip]
const EXPERIMENTS: [Experiment; 14] = [
    ("fig1_gauss", "Figure 1: Gaussian elimination speedup under three programming systems", fig1_gauss::run),
    ("table1_smin", "Table 1: inequality (2), the minimum page size for which migration pays", table1_smin::run),
    ("sec4_microbench", "§4: basic operation costs on the 16-processor machine", sec4_microbench::run),
    ("crossover", "§4.1: measured migrate-vs-remote crossover against inequality (2)", crossover::run),
    ("fig5_mergesort", "Figure 5: merge sort speedup, PLATINUM vs a Sequent-like UMA machine", fig5_mergesort::run),
    ("fig6_neural", "Figure 6: the recurrent-backpropagation simulator's speedup", fig6_neural::run),
    ("anecdote_freeze", "§4.2: the accidentally frozen page and the value of thawing", anecdote_freeze::run),
    ("trace_report", "§4.2: the frozen-page diagnosis, read off the event timeline", trace_report::run),
    ("ablations", "§4.1/§4.2/§8: t1, t2, post-freeze variant, ACE-style policy, page size", ablations::run),
    ("scaled_speedup", "§4.1: fixed-size vs scaled-problem efficiency", scaled_speedup::run),
    ("policy_matrix", "Fig. 1's comparison as a matrix: each workload live under five policies", policy_matrix::run),
    ("server_bench", "server tier: kv store and flow tables under open-loop traffic (exact)", server_bench::run),
    ("ptable_ablation", "page-table placement: walk locality and fabric time (exact)", ptable_ablation::run),
    ("chaos_soak", "apps or kv under seeded fault plans: correct, live, every fault recovered", chaos_soak::run),
];

fn list() -> String {
    let line = |(name, about, _): &Experiment| format!("{name:<16} {about}\n");
    EXPERIMENTS.iter().map(line).collect()
}

/// The `repro` binary: `argv` is `<experiment> [flags]` or `list`.
/// Returns the process's exit status (see `run`'s module docs).
pub fn repro(mut argv: Vec<String>) -> ExitCode {
    let name = if argv.is_empty() {
        String::new()
    } else {
        argv.remove(0)
    };
    if name == "list" && argv.is_empty() {
        print!("{}", list());
        return ExitCode::SUCCESS;
    }
    let Some(&(name, _, experiment)) = EXPERIMENTS.iter().find(|(n, ..)| *n == name) else {
        eprint!(
            "usage: repro <experiment> [flags] | repro list\n\n{}",
            list()
        );
        return ExitCode::from(2);
    };
    let mut run = Run::default();
    run.args = args::Args::new(argv);
    run.experiment = name;
    experiment(&mut run);
    run.finish()
}
