//! Empirical validation of the §4.1 migrate-vs-remote analysis.
//!
//! Runs the round-robin shared-structure workload (the exact scenario of
//! §4.1: `p` processors take turns, each operation makes `r = ρ·s`
//! references to a page-sized structure) under two policies:
//! `AlwaysReplicate` (move the data to the operating processor) and
//! `NeverReplicate` (use remote references), sweeping the density ρ.
//! The density at which the strategies' run times cross is compared with
//! the crossover predicted by inequality (2) — using the simulator's own
//! measured fixed overhead, and with the paper's published constants for
//! reference. `--procs P` (2) sets the number of processors taking
//! turns, `--ops N` (40) the operations each performs.

use crate::model::{g_round_robin, CostModel};
use crate::report::Table;
use numa_machine::{Mem, TimingConfig};
use platinum::Lockstep;
use platinum_apps::harness::PolicyKind;
use platinum_apps::workloads::{operation_for_benchmarks, SharingConfig};
use platinum_runtime::sim::SimBuilder;

use crate::run::{Artifact, Run};

/// One policy's run: `p` processors take strict round-robin turns at the
/// operation, `cfg.ops_per_proc` each.
///
/// §4.1's model prices only the operations on `X` itself — the critical
/// section's lock is outside the model — so the turn-taking stays off the
/// simulated machine entirely: one host thread steps the processors in
/// turn order through a [`Lockstep`], and each operation starts no
/// earlier in virtual time than its predecessor ended, exactly like the
/// run-time primitives' release-time propagation but with zero simulated
/// traffic. A processor between turns is spin-waiting as far as the
/// machine is concerned (live for shootdowns, its clock frozen), and
/// leaves the machine after its last operation.
fn run_once(policy: PolicyKind, p: usize, cfg: &SharingConfig) -> u64 {
    let h = SimBuilder::nodes(p.max(2))
        .frames_per_node(512)
        .policy(policy)
        .build();
    let mut data = h.alloc_zone(2);
    let base = data.alloc_page_aligned(cfg.struct_words);
    let mut procs = Lockstep::new(p.max(2));
    for tid in 0..p {
        let mut ctx = h.attach(tid).expect("processor free");
        ctx.begin_wait();
        procs.adopt(ctx);
    }
    let mut released = 0;
    for op in 0..cfg.ops_per_proc {
        for tid in 0..p {
            released = procs.run(tid, |ctx| {
                ctx.end_wait();
                ctx.advance_to(released);
                operation_for_benchmarks(ctx, base, cfg, op);
                ctx.begin_wait();
                ctx.vtime()
            });
            if op + 1 == cfg.ops_per_proc {
                drop(procs.release(tid));
            }
        }
    }
    released
}

pub(crate) fn run(run: &mut Run) {
    let p = run.args.count("--procs", 2..).unwrap_or(2);
    let ops = run.args.get_or("--ops", 40usize);
    run.start(Artifact::None);
    let s_words = 1024u64;
    let g = g_round_robin(p);

    println!("Section 4.1 crossover: migrate vs remote access, p={p} (g(p) = {g:.3})\n");

    let mut table = Table::new(vec!["rho", "refs/op", "migrate ms", "remote ms", "winner"]);
    let mut crossover_rho: Option<(f64, f64)> = None;
    let mut prev: Option<(f64, f64)> = None; // (rho, migrate/remote ratio)
    let rhos = [
        0.125f64, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0, 1.25, 1.5,
    ];
    for &rho in &rhos {
        let refs = (rho * s_words as f64) as usize;
        // Read-dominated references, matching the analysis (its C_remote
        // uses the remote *read* latency; one write per operation keeps
        // the page migratory).
        let cfg = SharingConfig {
            struct_words: s_words as usize,
            refs_per_op: refs,
            write_pct: 0,
            ops_per_proc: ops,
            compute_ns_per_op: 0,
        };
        let migrate = run_once(PolicyKind::AlwaysReplicate, p, &cfg);
        let remote = run_once(PolicyKind::NeverReplicate, p, &cfg);
        let ratio = migrate as f64 / remote as f64;
        if let Some((prho, pratio)) = prev {
            if pratio > 1.0 && ratio <= 1.0 {
                // Linear interpolation of the crossing.
                let t = (pratio - 1.0) / (pratio - ratio);
                crossover_rho = Some((prho + t * (rho - prho), ratio));
            }
        }
        prev = Some((rho, ratio));
        table.row(vec![
            format!("{rho:.3}"),
            refs.to_string(),
            format!("{:.2}", migrate as f64 / 1e6),
            format!("{:.2}", remote as f64 / 1e6),
            if migrate < remote {
                "migrate"
            } else {
                "remote"
            }
            .to_string(),
        ]);
        eprintln!("  rho={rho:.3} done");
    }
    println!("{table}");

    // Predicted crossover from the simulator's own constants. The fixed
    // overhead here is the §4 write-miss/migration fixed cost (~0.26 ms
    // measured by sec4_microbench).
    let own = CostModel::from_timing(&TimingConfig::default(), 260_000.0);
    let paper = CostModel::paper_published();
    println!(
        "empirical crossover density: {}",
        crossover_rho
            .map(|(r, _)| format!("{r:.3}"))
            .unwrap_or_else(|| "not crossed in range".to_string())
    );
    println!(
        "inequality (2) with this simulator's overhead: rho* = {:.3}",
        own.crossover_density(s_words, g)
    );
    println!(
        "inequality (2) with the paper's constants:     rho* = {:.3}",
        paper.crossover_density(s_words, g)
    );
}
