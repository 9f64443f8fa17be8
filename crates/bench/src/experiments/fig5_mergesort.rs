//! Figure 5: merge sort speedup — PLATINUM/Butterfly Plus vs. a
//! Sequent-Symmetry-like UMA machine.
//!
//! §5.2: "The program shows better speedup running on the Butterfly Plus
//! under PLATINUM than on the Sequent Symmetry for the same size problem
//! on the same number of processors. We believe this is due to the small
//! cache size and write-through policy on the Sequent." Coherent pages
//! act as big, prefetching caches for the merge's linear scans; the
//! Sequent's 8 KB write-through caches keep nothing between phases.
//!
//! `--n N` (262144) sets the key count, `--max-procs P` (16) the sweep's
//! end. The artifact is the two speedup series. The shape check —
//! PLATINUM's final speedup above the comparator's — applies once each
//! processor's share of the keys no longer fits the comparator's cache:
//! the paper's explanation starts from a cache too small for the data.

use crate::report::{ascii_chart, series_artifact, Series, Table};
use numa_machine::uma::CACHE_BYTES;
use platinum_apps::harness::{run_mergesort_platinum, run_mergesort_uma};
use platinum_apps::mergesort::SortConfig;

use crate::run::{Artifact, Run};

pub(crate) fn run(run: &mut Run) {
    let n = run.args.get_or("--n", 1usize << 18);
    let max_procs = run.args.count("--max-procs", 1..).unwrap_or(16);
    run.start(Artifact::Json);
    let procs: Vec<usize> = [1usize, 2, 4, 8, 16]
        .into_iter()
        .filter(|&p| p <= max_procs)
        .collect();
    let cfg = SortConfig::with_n(n);

    say!(
        run,
        "Figure 5: merge sort ({n} keys), speedup vs processors"
    );
    say!(
        run,
        "paper: PLATINUM (Butterfly Plus) above the Sequent Symmetry throughout\n"
    );

    let mut table = Table::new(vec![
        "p",
        "PLATINUM ms",
        "PLATINUM S",
        "Sequent ms",
        "Sequent S",
    ]);
    let mut plat_series = Series::new("PLATINUM / Butterfly Plus");
    let mut uma_series = Series::new("Sequent Symmetry (UMA, 8KB WT caches)");
    let (mut plat1, mut uma1) = (0u64, 0u64);
    for &p in &procs {
        let plat = run_mergesort_platinum(max_procs.max(p), p, &cfg);
        let uma = run_mergesort_uma(max_procs.max(p), p, &cfg);
        if p == 1 {
            plat1 = plat.elapsed_ns;
            uma1 = uma.elapsed_ns;
        }
        let ps = plat1 as f64 / plat.elapsed_ns as f64;
        let us = uma1 as f64 / uma.elapsed_ns as f64;
        plat_series.push(p as f64, ps);
        uma_series.push(p as f64, us);
        table.row(vec![
            p.to_string(),
            format!("{:.1}", plat.elapsed_ns as f64 / 1e6),
            format!("{ps:.2}"),
            format!("{:.1}", uma.elapsed_ns as f64 / 1e6),
            format!("{us:.2}"),
        ]);
        eprintln!("  p={p:>2} done");
    }
    let pf = plat_series.final_y().unwrap_or(0.0);
    let uf = uma_series.final_y().unwrap_or(0.0);
    let series = [plat_series, uma_series];
    say!(run, "{table}");
    say!(run, "{}", ascii_chart(&series, 60, 14));
    say!(run, "final speedups: PLATINUM {pf:.2}, Sequent {uf:.2}");
    run.artifact(series_artifact("fig5_mergesort", &series));

    let cache_keys = CACHE_BYTES / 4;
    let widest = procs.last().copied().unwrap_or(1);
    if n / widest <= cache_keys {
        run.skip(
            "platinum_above_uma_comparator",
            format!(
                "at p={widest} a processor's {} keys fit the comparator's \
                 {cache_keys}-key cache; raise --n",
                n / widest
            ),
        );
    } else {
        run.check("platinum_above_uma_comparator", pf > uf);
    }
}
