//! The §4.2 anecdote: an accidentally frozen page, its diagnosis, and
//! the value of thawing.
//!
//! The paper's first Gaussian elimination program read the matrix size
//! from a shared variable in its inner-loop termination test; a spin-lock
//! barrier added later happened to share that variable's page. Spinning
//! froze the page, so "all but one thread generated a remote access in
//! its inner loop... a bottleneck with five or more processors". The
//! kernel's post-mortem report made the diagnosis trivial, thawing was
//! added to the kernel, and "the old version of the program took less
//! than two seconds more to run than the new version".
//!
//! Three configurations:
//!   1. co-located, defrost disabled  (the original kernel + program)
//!   2. co-located, defrost enabled   (the thawing kernel, old program)
//!   3. page-separated                (the fixed program)
//!
//! each a phase of the `--trace` file. `--n N` (300) and `--procs P` (8)
//! size the elimination. The shape check — thawing rescues the
//! co-located layout — applies once the frozen run outlasts t2 = 1 s;
//! a smaller run ends before the defrost daemon first wakes.

use crate::report::Table;
use platinum_apps::gauss::GaussConfig;
use platinum_apps::harness::run_gauss_anecdote;

use crate::run::{Artifact, Run};

pub(crate) fn run(run: &mut Run) {
    let n = run.args.get_or("--n", 300usize);
    let p = run.args.count("--procs", 1..).unwrap_or(8);
    run.start(Artifact::None);
    let cfg = GaussConfig::with_n(n);

    println!("Section 4.2 anecdote: frozen synchronization page ({n}x{n} elimination, p={p})\n");

    let never = u64::MAX / 2; // defrost effectively disabled
    let second = 1_000_000_000u64; // the paper's t2 = 1 s

    let cases = [
        ("co-located, no defrost", true, never),
        ("co-located, defrost 1s", true, second),
        ("separated pages", false, second),
    ];
    let mut table = Table::new(vec!["configuration", "time ms", "frozen pages", "thaws"]);
    let mut results = Vec::new();
    let mut checksum = None;
    for (name, colocated, t2) in cases {
        run.phase(name);
        let app = run_gauss_anecdote(16.max(p), p, &cfg, colocated, t2);
        match checksum {
            None => checksum = Some(app.checksum),
            Some(c) => assert_eq!(c, app.checksum, "{name} diverged"),
        }
        table.row(vec![
            name.to_string(),
            format!("{:.1}", app.elapsed_ns as f64 / 1e6),
            app.kernel_stats.freezes.to_string(),
            app.kernel_stats.thaws.to_string(),
        ]);
        results.push((name, app.elapsed_ns));
        eprintln!("  {name}: done");
    }
    println!("{table}");

    let frozen = results[0].1;
    let thawed = results[1].1;
    let fixed = results[2].1;
    println!(
        "slowdown without thawing: {:.2}x over the fixed program",
        frozen as f64 / fixed as f64
    );
    println!(
        "with the defrost daemon the old program costs only {:+.1} ms over the fixed one",
        (thawed as f64 - fixed as f64) / 1e6
    );
    if frozen < second {
        run.skip(
            "thawing_rescues_colocated_layout",
            "the frozen run ends before t2 = 1 s, so the defrost daemon never runs; \
             raise --n or --procs",
        );
    } else {
        run.check("thawing_rescues_colocated_layout", thawed < frozen);
    }
}
