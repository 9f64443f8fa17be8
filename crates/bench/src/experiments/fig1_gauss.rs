//! Figure 1: Gaussian elimination speedup vs. processors.
//!
//! Reproduces the paper's headline result (§1, §5.1): the speedup of the
//! simulated (integer) Gaussian elimination on an 800x800 matrix under
//! three programming systems. The paper reports 16-processor speedups of
//! 13.5 for PLATINUM coherent memory, 10.6 for the Uniform System
//! implementation, and 15.3 for the SMP message-passing implementation.
//!
//! `--n N` (800) sets the matrix, `--max-procs P` (16) the sweep's end;
//! `--quick` runs a 400x400 matrix on {1,2,4,8,16} processors. The
//! artifact is the three speedup series.

use platinum_analysis::report::{ascii_chart, series_artifact, Series, Table};
use platinum_apps::gauss::GaussConfig;
use platinum_apps::harness::{run_gauss, GaussStyle, PolicyKind};

use crate::run::{Artifact, Run};

pub(crate) fn run(run: &mut Run) {
    let quick = run.args.flag("--quick");
    let n = run.args.get_or("--n", if quick { 400 } else { 800 });
    let max_procs = run.args.get_or("--max-procs", 16usize);
    run.start(Artifact::Json);
    let procs: Vec<usize> = if quick {
        [1usize, 2, 4, 8, 16]
            .into_iter()
            .filter(|&p| p <= max_procs)
            .collect()
    } else {
        (1..=max_procs).collect()
    };
    let cfg = GaussConfig::with_n(n);

    say!(
        run,
        "Figure 1: Gaussian elimination ({n}x{n}), speedup vs processors"
    );
    say!(
        run,
        "paper targets at p=16: PLATINUM 13.5, Uniform System 10.6, SMP 15.3\n"
    );

    let styles = [
        GaussStyle::Shared(PolicyKind::Platinum),
        GaussStyle::UniformSystem,
        GaussStyle::MessagePassing,
    ];

    let mut chart = Vec::new();
    let mut table = Table::new(vec![
        "p",
        "PLATINUM ms",
        "PLATINUM S",
        "UnifSys ms",
        "UnifSys S",
        "SMP ms",
        "SMP S",
    ]);

    // One serial baseline per style (styles differ in constant factors).
    let mut results: Vec<Vec<(usize, u64)>> = vec![Vec::new(); styles.len()];
    for (si, style) in styles.iter().enumerate() {
        let mut series = Series::new(style.name());
        let mut serial_ns = 0u64;
        let mut checksum = None;
        for &p in &procs {
            let app = run_gauss(*style, max_procs.max(p), p, &cfg);
            match checksum {
                None => checksum = Some(app.checksum),
                Some(c) => assert_eq!(c, app.checksum, "{} diverged at p={p}", style.name()),
            }
            if p == 1 {
                serial_ns = app.elapsed_ns;
            }
            let speedup = serial_ns as f64 / app.elapsed_ns as f64;
            series.push(p as f64, speedup);
            results[si].push((p, app.elapsed_ns));
            eprintln!(
                "  {:<26} p={p:>2}  {:>10.1} ms  speedup {:>5.2}",
                style.name(),
                app.elapsed_ns as f64 / 1e6,
                speedup
            );
        }
        chart.push(series);
    }

    for (i, &p) in procs.iter().enumerate() {
        let cell = |si: usize| {
            let (pp, t) = results[si][i];
            assert_eq!(pp, p);
            let s = results[si][0].1 as f64 / t as f64;
            (format!("{:.1}", t as f64 / 1e6), format!("{s:.2}"))
        };
        let (t0, s0) = cell(0);
        let (t1, s1) = cell(1);
        let (t2, s2) = cell(2);
        table.row(vec![p.to_string(), t0, s0, t1, s1, t2, s2]);
    }
    say!(run, "{table}");
    say!(run, "{}", ascii_chart(&chart, 60, 16));
    run.artifact(series_artifact("fig1_gauss", &chart));

    // The Uniform System's scatter storage makes its *serial* run ~4x
    // slower than the others'; self-normalized speedup hides that. Report
    // both normalizations (the paper's qualitative claim — transparent
    // coherent memory performs close to hand-tuned message passing and
    // far better than static placement — is about the absolute times).
    let best_serial = results.iter().map(|r| r[0].1).min().unwrap();
    say!(
        run,
        "{:<26} {:>12} {:>14} {:>18}",
        "system",
        "T(max p) ms",
        "self speedup",
        "vs best serial"
    );
    for (si, style) in styles.iter().enumerate() {
        let last = results[si].last().unwrap();
        let s = results[si][0].1 as f64 / last.1 as f64;
        let sb = best_serial as f64 / last.1 as f64;
        say!(
            run,
            "{:<26} {:>12.1} {:>14.2} {:>18.2}",
            style.name(),
            last.1 as f64 / 1e6,
            s,
            sb
        );
    }
    say!(
        run,
        "\npaper (16 processors): PLATINUM 13.5, Uniform System 10.6, SMP 15.3"
    );
}
