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
//!
//! Two checks hold the paper's claim in absolute time: message passing
//! ≤ PLATINUM < Uniform System at every p, and PLATINUM at the widest p
//! no more than 15.3 / 13.5 − 1 = 13.3 % slower than message passing
//! (the paper's own two speedups, over one serial program). They apply
//! once the page copy that replicates the pivot row is shorter than, and
//! within the band of, a processor's share of one elimination step:
//! below that the copy, not the elimination, is what the run measures.

use numa_machine::{MachineConfig, BLOCK_WORD_NS};
use platinum_analysis::report::{ascii_chart, series_artifact, Series, Table};
use platinum_apps::gauss::{GaussConfig, COMPUTE_NS_PER_ELEM};
use platinum_apps::harness::{run_gauss, GaussStyle, PolicyKind};

use crate::run::{Artifact, Run};

pub(crate) fn run(run: &mut Run) {
    let quick = run.args.flag("--quick");
    let n = run.args.get_or("--n", if quick { 400 } else { 800 });
    let max_procs = run.args.count("--max-procs", 1..).unwrap_or(16);
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

    // The paper's band: the slower time at most 15.3 / 13.5 of the faster.
    let within_band = |slow: u64, fast: u64| slow as f64 * 13.5 <= fast as f64 * 15.3;
    let widest = *procs.last().expect("at least one processor count");
    let (step_ns, copy_ns, premise) = step_vs_copy(n, widest);
    let [plat, us, mp] = [0, 1, 2].map(|si| &results[si]);
    let name = "message_passing_le_platinum_lt_uniform_system";
    if copy_ns < step_ns {
        let ordered = (0..procs.len()).all(|i| mp[i].1 <= plat[i].1 && plat[i].1 < us[i].1);
        run.check(name, ordered);
    } else {
        run.skip(name, premise("no shorter than"));
    }
    // PLATINUM pays the copy on every step and message passing does not:
    // a copy outside the band of the step alone puts PLATINUM outside it.
    let name = "platinum_within_13pct_of_message_passing";
    if within_band(step_ns + copy_ns, step_ns) {
        let (plat_t, mp_t) = (plat.last().unwrap().1, mp.last().unwrap().1);
        run.check(name, within_band(plat_t, mp_t));
    } else {
        run.skip(name, premise("more than 13.3 % of"));
    }
}

/// A processor's first elimination step at matrix size `n` on `p`
/// processors and the page copy that replicates the pivot row, ns, with
/// the skip reason of a check whose premise the copy is `what` the step
/// fails. The Gaussian-elimination checks hold only while the step
/// outlasts the copy: below that, replicating dominates every processor
/// count.
pub(crate) fn step_vs_copy(n: usize, p: usize) -> (u64, u64, impl Fn(&str) -> String) {
    let step_ns = n.div_ceil(p) as u64 * n as u64 * COMPUTE_NS_PER_ELEM;
    let copy_ns = MachineConfig::default().words_per_page() as u64 * BLOCK_WORD_NS;
    let premise = move |what: &str| {
        format!(
            "at p={p} the pivot row's page copy ({} us) is {what} a processor's \
             elimination step ({} us); raise --n",
            copy_ns / 1000,
            step_ns / 1000
        )
    };
    (step_ns, copy_ns, premise)
}
