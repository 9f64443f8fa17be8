//! Figure 6: the recurrent-backpropagation simulator's speedup.
//!
//! §5.3: "Given the very fine-grain nature of the algorithm, PLATINUM
//! cannot use replication or migration to good advantage. The coherent
//! memory system quickly gives up and the data pages of the application
//! are frozen in place. The speedup curve is linear over the range
//! measured, but the extensive use of remote accesses limits the
//! contribution of each incremental processor to about 1/2 that of a
//! processor that makes only local memory references."
//!
//! `--epochs E` (40) sets the training length, `--max-procs P` (10) the
//! sweep's end. The artifact is the speedup series.
//!
//! Two checks: pages freeze at every p ≥ 2, and the least-squares slope
//! lies in [0.35, 0.65] — ½ with the ±15 % of known deviation 3. The
//! slope is the steady state's, in which frozen pages are thawed every
//! t2 and freeze again; it applies once the serial run lasts at least t2.

use platinum::KernelConfig;
use platinum_analysis::report::{ascii_chart, series_artifact, Series, Table};
use platinum_apps::harness::run_neural;
use platinum_apps::neural::NeuralConfig;

use crate::run::{Artifact, Run};

pub(crate) fn run(run: &mut Run) {
    let max_procs = run.args.count("--max-procs", 1..).unwrap_or(10);
    let cfg = NeuralConfig::with_epochs(run.args.get_or("--epochs", 40usize));
    run.start(Artifact::Json);

    say!(
        run,
        "Figure 6: recurrent backpropagation simulator (40 units, 16 patterns)"
    );
    say!(
        run,
        "paper: linear speedup, slope ~1/2 per incremental processor\n"
    );

    let mut table = Table::new(vec![
        "p",
        "time ms",
        "speedup",
        "frozen pages",
        "remote frac",
    ]);
    let mut series = Series::new("recurrent backprop");
    let mut t1 = 0u64;
    let mut speedups = Vec::new();
    let mut freezes = Vec::new();
    for p in 1..=max_procs {
        let (app, err) = run_neural(max_procs.max(p), p, &cfg);
        if p == 1 {
            t1 = app.elapsed_ns;
        }
        let s = t1 as f64 / app.elapsed_ns as f64;
        speedups.push((p as f64, s));
        series.push(p as f64, s);
        let counters = app.run.merged_counters();
        freezes.push(app.kernel_stats.freezes);
        table.row(vec![
            p.to_string(),
            format!("{:.1}", app.elapsed_ns as f64 / 1e6),
            format!("{s:.2}"),
            app.kernel_stats.freezes.to_string(),
            format!("{:.2}", counters.remote_fraction()),
        ]);
        eprintln!("  p={p:>2} done (err {err:.2})");
    }
    let series = [series];
    say!(run, "{table}");
    say!(run, "{}", ascii_chart(&series, 60, 14));
    run.artifact(series_artifact("fig6_neural", &series));

    // Least-squares slope of speedup vs p: the "contribution of each
    // incremental processor".
    let n = speedups.len() as f64;
    let sx: f64 = speedups.iter().map(|(x, _)| x).sum();
    let sy: f64 = speedups.iter().map(|(_, y)| y).sum();
    let sxx: f64 = speedups.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = speedups.iter().map(|(x, y)| x * y).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    say!(
        run,
        "incremental-processor contribution (slope): {slope:.2}  (paper: ~0.5)"
    );

    let names = ["pages_freeze_at_every_p", "slope_near_one_half"];
    if max_procs < 2 {
        for name in names {
            run.skip(name, "the sweep has no p >= 2; raise --max-procs");
        }
        return;
    }
    run.check(names[0], freezes[1..].iter().all(|&f| f > 0));
    let t2 = KernelConfig::default().t2_defrost_ns;
    if t1 < t2 {
        run.skip(
            names[1],
            format!(
                "the serial run ({} ms) ends before t2 = {} ms, so no page reaches the \
                 freeze/thaw steady state; raise --epochs",
                t1 / 1_000_000,
                t2 / 1_000_000
            ),
        );
    } else {
        run.check(names[1], (0.35..=0.65).contains(&slope));
    }
}
