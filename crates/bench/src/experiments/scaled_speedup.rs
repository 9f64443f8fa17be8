//! Scaled-problem speedup (the §4.1 / Gustafson discussion).
//!
//! "We believe, as do others [28, 14], that a major role of parallel
//! machines is to solve ever-larger problems rather than to solve
//! fixed-size problems in ever-shorter times. These larger problems will
//! allow the continued use of coarse granularity as systems are made
//! larger."
//!
//! This harness contrasts fixed-size speedup (Amdahl-style: the paper's
//! Figure 1 regime, where per-processor granularity shrinks as p grows)
//! with scaled speedup (Gustafson-style: the matrix grows with p so each
//! processor keeps the same share of rows), on Gaussian elimination under
//! PLATINUM. Scaled efficiency should hold up better — coarse granularity
//! is preserved: the check `scaled_efficiency_holds_better` holds it to
//! that at the widest p.
//!
//! `--base-n N` (128) is the p = 1 matrix; `--max-procs P` (8) ends the
//! comparison.

use crate::report::Table;
use platinum_apps::gauss::GaussConfig;
use platinum_apps::harness::{run_gauss, GaussStyle, PolicyKind};

use crate::run::{Artifact, Run};

/// Scaled problem size: n(p) = base_n * p^(1/3) keeps work per
/// processor constant (total work ~ n^3).
fn scaled_n(base_n: usize, p: usize) -> usize {
    ((base_n as f64) * (p as f64).powf(1.0 / 3.0)).round() as usize
}

pub(crate) fn run(run: &mut Run) {
    let base_n = run.args.get_or("--base-n", 128usize);
    let max_procs = run.args.count("--max-procs", 1..).unwrap_or(8);
    run.start(Artifact::None);

    println!("fixed-size vs scaled-problem efficiency, Gaussian elimination on PLATINUM");
    println!("fixed: n = {base_n} at every p; scaled: n grows as p^(1/3) x {base_n} (constant work/processor)\n");

    let mut table = Table::new(vec![
        "p",
        "fixed n",
        "fixed eff %",
        "scaled n",
        "scaled eff %",
    ]);

    let fixed_cfg = GaussConfig::with_n(base_n);
    let t1_fixed = run_gauss(
        GaussStyle::Shared(PolicyKind::Platinum),
        max_procs,
        1,
        &fixed_cfg,
    )
    .elapsed_ns as f64;

    let mut ps = vec![1usize];
    let mut p = 2;
    while p <= max_procs {
        ps.push(p);
        p *= 2;
    }
    // (fixed, scaled) efficiency at the last p.
    let mut widest = (0.0, 0.0);
    for &p in &ps {
        // Fixed-size efficiency: T1 / (p * Tp).
        let tp = run_gauss(
            GaussStyle::Shared(PolicyKind::Platinum),
            max_procs,
            p,
            &fixed_cfg,
        )
        .elapsed_ns as f64;
        let fixed_eff = t1_fixed / (p as f64 * tp) * 100.0;

        // Scaled: total work ~ n^3 grows with p, so n(p) = base_n * p^(1/3);
        // efficiency = T1(n(p)) scaled-work-rate vs Tp.
        let n_scaled = scaled_n(base_n, p);
        let scaled_cfg = GaussConfig::with_n(n_scaled);
        let tp_scaled = run_gauss(
            GaussStyle::Shared(PolicyKind::Platinum),
            max_procs,
            p,
            &scaled_cfg,
        )
        .elapsed_ns as f64;
        let t1_scaled = run_gauss(
            GaussStyle::Shared(PolicyKind::Platinum),
            max_procs,
            1,
            &scaled_cfg,
        )
        .elapsed_ns as f64;
        let scaled_eff = t1_scaled / (p as f64 * tp_scaled) * 100.0;
        widest = (fixed_eff, scaled_eff);

        table.row(vec![
            p.to_string(),
            base_n.to_string(),
            format!("{fixed_eff:.1}"),
            n_scaled.to_string(),
            format!("{scaled_eff:.1}"),
        ]);
        eprintln!("  p={p} done");
    }
    println!("{table}");
    println!(
        "scaled efficiency should decay more slowly than fixed-size efficiency:\n\
         growing problems keep the data-access granularity coarse (§4.1)."
    );
    let name = "scaled_efficiency_holds_better";
    if ps.len() > 1 {
        run.check(name, widest.1 > widest.0);
    } else {
        run.skip(
            name,
            "at p = 1 both efficiencies are 100 %; raise --max-procs",
        );
    }
}
