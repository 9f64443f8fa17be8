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
//!
//! `--procs 16,32,..` switches to the machine-size sweep: each listed
//! processor count runs the *scaled* problem (n grows as p^(1/3),
//! constant work per processor) on its own p-node machine under
//! `--topology` (flat), with the kernel's host phase profiler on, and
//! the artifact carries per-p simulated throughput and
//! `host_phase_ns_per_op` — how the protocol's host cost scales with
//! machine size on a real application, the companion curve to
//! `host_throughput`'s microbenchmark view.

use numa_machine::Topology;
use platinum::trace::json::Value;
use platinum_analysis::report::Table;
use platinum_apps::gauss::GaussConfig;
use platinum_apps::harness::{run_gauss, run_gauss_profiled, GaussStyle, PolicyKind};

use crate::args::topology;
use crate::run::{Artifact, Run};

/// Scaled problem size: n(p) = base_n * p^(1/3) keeps work per
/// processor constant (total work ~ n^3).
fn scaled_n(base_n: usize, p: usize) -> usize {
    ((base_n as f64) * (p as f64).powf(1.0 / 3.0)).round() as usize
}

fn procs_sweep(run: &mut Run, topo_name: &str, machines: &[Topology], base_n: usize) {
    say!(
        run,
        "scaled-problem Gaussian elimination vs machine size ({topo_name} topology)\n"
    );
    let mut table = Table::new(vec![
        "p",
        "n",
        "vtime (ms)",
        "sim Mref/s",
        "fault ns/op",
        "shootdown ns/op",
        "transfer ns/op",
        "directory ns/op",
    ]);
    let mut entries = Vec::new();
    for topo in machines {
        let p = topo.nodes();
        let n = scaled_n(base_n, p);
        let r = run_gauss_profiled(p, p, &GaussConfig::with_n(n), Some(topo));
        let per_op = |ns: u64| ns as f64 / r.ops.max(1) as f64;
        let sim_mips = r.ops as f64 / 1e6 / r.host_secs.max(1e-9);
        table.row(vec![
            p.to_string(),
            n.to_string(),
            format!("{:.3}", r.run.elapsed_ns as f64 / 1e6),
            format!("{sim_mips:.2}"),
            format!("{:.0}", per_op(r.prof.fault_ns)),
            format!("{:.0}", per_op(r.prof.shootdown_ns)),
            format!("{:.0}", per_op(r.prof.transfer_ns)),
            format!("{:.0}", per_op(r.prof.directory_ns)),
        ]);
        entries.push(Value::obj(vec![
            ("procs", Value::Num(p as f64)),
            ("n", Value::Num(n as f64)),
            ("elapsed_ns", Value::Num(r.run.elapsed_ns as f64)),
            ("ops", Value::Num(r.ops as f64)),
            ("sim_mips", Value::Num(sim_mips)),
            (
                "host_phase_ns_per_op",
                Value::obj(vec![
                    ("fault", Value::Num(per_op(r.prof.fault_ns))),
                    ("shootdown", Value::Num(per_op(r.prof.shootdown_ns))),
                    ("transfer", Value::Num(per_op(r.prof.transfer_ns))),
                    ("directory", Value::Num(per_op(r.prof.directory_ns))),
                ]),
            ),
        ]));
        eprintln!("  p={p} done");
    }
    say!(run, "{table}");

    run.artifact(Value::obj(vec![
        ("bench", Value::str("scaled_speedup")),
        ("mode", Value::str("procs_sweep")),
        ("topology", Value::str(topo_name)),
        ("base_n", Value::Num(base_n as f64)),
        ("sweep", Value::Arr(entries)),
    ]));
}

pub(crate) fn run(run: &mut Run) {
    let base_n = run.args.get_or("--base-n", 128usize);
    // Each mode reads only its own flags, so the other mode's are
    // rejected rather than ignored.
    if let Some(ps) = run.args.list::<usize>("--procs") {
        assert!(!ps.contains(&0), "--procs entries must be at least 1");
        let topo_name = run.args.get_or("--topology", "flat".to_string());
        let machines: Vec<Topology> = ps.iter().map(|&p| topology(&topo_name, p)).collect();
        run.start(Artifact::Json);
        return procs_sweep(run, &topo_name, &machines, base_n);
    }
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
