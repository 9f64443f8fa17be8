//! Ablation studies for the design choices the paper discusses.
//!
//! * `--t1`: sensitivity of application time to the freeze window t1
//!   (§4.2: "application performance is insensitive to varying t1 from
//!   10 ms up to about 100 ms").
//! * `--t2`: sensitivity to the defrost period t2 on the frozen-page
//!   anecdote ("reducing t2 may allow coherent pages frozen accidentally
//!   to be replicated sooner, but it just adds overhead for pages that
//!   should remain frozen").
//! * `--variant`: the two post-freeze policies (defrost-only vs
//!   thaw-on-access; §4.2 reports "no significant difference").
//! * `--ace`: PLATINUM vs the ACE-style policy of §8 on coarse-grain,
//!   non-interleaved write sharing ("there is room for improvement").
//! * `--pagesize`: the §4.1 granularity analysis — larger pages amortize
//!   protocol overhead for coarse-grain access.
//!
//! With none of these flags, runs everything. `--n N` (300) and
//! `--procs P` (8; 4 for `--ace`) size the runs.
//!
//! Each study but `--variant` ends in a named check of the paper's
//! claim: `t1_insensitive`, `shorter_t2_thaws_sooner`,
//! `platinum_beats_ace_on_migratory_sharing` and
//! `larger_pages_slower_for_sub_page_rows`. `--variant` prints its
//! comparison for the reader to judge.

use crate::report::Table;
use numa_machine::MachineConfig;
use platinum_apps::gauss::{Gauss, GaussConfig, COMPUTE_NS_PER_ELEM};
use platinum_apps::harness::{run_gauss, run_gauss_anecdote, GaussStyle, PolicyKind};
use platinum_apps::neural::{Neural, NeuralConfig};
use platinum_apps::workloads::{round_robin, SharingConfig};
use platinum_runtime::sim::{Sim, SimBuilder};
use platinum_runtime::sync::EventCount;

use crate::experiments::fig1_gauss::step_vs_copy;
use crate::run::{Artifact, Run};

/// A study: the flag that selects it, its default `--procs`, and its
/// runner over (n, procs).
type Study = (&'static str, usize, fn(&mut Run, usize, usize));

pub(crate) fn run(run: &mut Run) {
    let studies: [Study; 5] = [
        ("--t1", 8, t1_sweep),
        ("--t2", 8, t2_sweep),
        ("--variant", 8, variant_compare),
        ("--ace", 4, ace_compare),
        ("--pagesize", 8, pagesize_sweep),
    ];
    let chosen = studies.map(|(flag, ..)| run.args.flag(flag));
    let all = !chosen.contains(&true);
    let n = run.args.get_or("--n", 300usize);
    let procs = run.args.count("--procs", 1..);
    run.start(Artifact::None);
    for ((_, default_procs, study), chosen) in studies.into_iter().zip(chosen) {
        if all || chosen {
            study(run, n, procs.unwrap_or(default_procs));
        }
    }
}

/// Gaussian elimination under different t1 values.
fn t1_sweep(run: &mut Run, n: usize, p: usize) {
    println!("t1 sensitivity (Gaussian elimination {n}x{n}, p={p}):");
    let cfg = GaussConfig::with_n(n);
    let mut table = Table::new(vec!["t1 ms", "time ms", "freezes"]);
    let mut elapsed = Vec::new();
    for t1_ms in [1u64, 10, 30, 100] {
        let mut h = SimBuilder::nodes(16.max(p))
            .freeze_ns(t1_ms * 1_000_000)
            .build();
        let (ns, freezes) = run_gauss_with_harness(&mut h, p, &cfg);
        elapsed.push(ns);
        table.row(vec![
            t1_ms.to_string(),
            format!("{:.1}", ns as f64 / 1e6),
            freezes.to_string(),
        ]);
        eprintln!("  t1={t1_ms} ms done");
    }
    println!("{table}");
    println!("paper: insensitive from 10 ms up to ~100 ms\n");
    // "Insensitive" over the paper's range, t1 = 10 to 100 ms: within
    // the benchmark's own 5 % virtual-time bound.
    let name = "t1_insensitive";
    let (step_ns, copy_ns, premise) = step_vs_copy(n, p);
    if copy_ns < step_ns {
        let range = &elapsed[1..];
        let (lo, hi) = (range.iter().min().unwrap(), range.iter().max().unwrap());
        run.check(name, *hi as f64 <= *lo as f64 * 1.05);
    } else {
        run.skip(name, premise("no shorter than"));
    }
}

/// Runs shared-memory GE on a booted simulation, returning (time, freezes).
fn run_gauss_with_harness(h: &mut Sim, p: usize, cfg: &GaussConfig) -> (u64, u64) {
    let g = Gauss::stage(h, cfg, p);
    g.init(h);
    let run = g.measured(h);
    (run.elapsed_ns(), h.kernel.stats().snapshot().freezes)
}

/// The anecdote under different defrost periods.
fn t2_sweep(run: &mut Run, n: usize, p: usize) {
    println!("t2 sensitivity (frozen-page anecdote, co-located layout, {n}x{n}, p={p}):");
    let cfg = GaussConfig::with_n(n);
    let mut table = Table::new(vec!["t2", "time ms", "thaws"]);
    let shortest = 100_000_000u64;
    let mut elapsed = Vec::new();
    for (label, t2) in [
        ("100 ms", shortest),
        ("1 s", 1_000_000_000),
        ("10 s", 10_000_000_000),
        ("never", u64::MAX / 2),
    ] {
        let r = run_gauss_anecdote(16.max(p), p, &cfg, true, t2);
        elapsed.push(r.elapsed_ns);
        table.row(vec![
            label.to_string(),
            format!("{:.1}", r.elapsed_ns as f64 / 1e6),
            r.kernel_stats.thaws.to_string(),
        ]);
        eprintln!("  t2={label} done");
    }
    println!("{table}");
    println!("paper: smaller t2 thaws accidental freezes sooner, at some overhead\n");
    // Each processor's share of the (n^3 - n) / 3 eliminated elements.
    let compute_ns =
        (n as u64).pow(3).saturating_sub(n as u64) / 3 / p as u64 * COMPUTE_NS_PER_ELEM;
    let name = "shorter_t2_thaws_sooner";
    if compute_ns > shortest {
        run.check(name, elapsed[0] < elapsed[3]);
    } else {
        run.skip(
            name,
            format!(
                "a processor's elimination compute ({} ms) ends before t2 = 100 ms, so \
                 the defrost daemon need never run; raise --n",
                compute_ns / 1_000_000
            ),
        );
    }
}

/// Defrost-only vs thaw-on-access.
fn variant_compare(_run: &mut Run, n: usize, p: usize) {
    println!("post-freeze policy variants (Gaussian elimination {n}x{n}, p={p} + neural net):");
    let cfg = GaussConfig::with_n(n);
    let mut table = Table::new(vec!["workload", "defrost-only ms", "thaw-on-access ms"]);
    let g1 = run_gauss(GaussStyle::Shared(PolicyKind::Platinum), 16.max(p), p, &cfg);
    let g2 = run_gauss(
        GaussStyle::Shared(PolicyKind::PlatinumThawOnAccess),
        16.max(p),
        p,
        &cfg,
    );
    assert_eq!(g1.checksum, g2.checksum);
    table.row(vec![
        "gauss".to_string(),
        format!("{:.1}", g1.elapsed_ns as f64 / 1e6),
        format!("{:.1}", g2.elapsed_ns as f64 / 1e6),
    ]);
    let ncfg = NeuralConfig::with_epochs(20);
    let (n1, _) = run_neural_with(PolicyKind::Platinum, 8, &ncfg);
    let (n2, _) = run_neural_with(PolicyKind::PlatinumThawOnAccess, 8, &ncfg);
    table.row(vec![
        "neural".to_string(),
        format!("{:.1}", n1 as f64 / 1e6),
        format!("{:.1}", n2 as f64 / 1e6),
    ]);
    println!("{table}");
    println!("paper: no significant difference between the two policies\n");
}

fn run_neural_with(policy: PolicyKind, p: usize, cfg: &NeuralConfig) -> (u64, f64) {
    let mut h = SimBuilder::nodes(p.max(2)).policy(policy).build();
    let net = Neural::stage(&mut h, cfg, p);
    net.init(&mut h);
    let run = net.measured(&mut h);
    (run.elapsed_ns(), net.total_error(&mut h))
}

/// PLATINUM vs ACE-style on coarse-grain, phase-spaced write sharing.
fn ace_compare(run: &mut Run, _n: usize, p: usize) {
    println!("PLATINUM vs ACE-style policy (coarse-grain migratory sharing, p={p}):");
    // Each processor takes long, widely-spaced turns rewriting a page:
    // migration keeps paying forever, but ACE freezes after two moves.
    let cfg = SharingConfig {
        struct_words: 1024,
        refs_per_op: 1024,
        write_pct: 60,
        ops_per_proc: 25,
        compute_ns_per_op: 15_000_000, // turns spaced far beyond t1
    };
    let mut table = Table::new(vec!["policy", "time ms", "migrations", "freezes"]);
    let mut elapsed = Vec::new();
    for policy in [PolicyKind::Platinum, PolicyKind::AceStyle] {
        let h = SimBuilder::nodes(p.max(2))
            .frames_per_node(256)
            .policy(policy)
            .build();
        let mut data = h.alloc_zone(2);
        let base = data.alloc_page_aligned(cfg.struct_words);
        let mut sync = h.alloc_zone(1);
        let turn = EventCount::new(sync.alloc_words(1));
        let stats = h.steps("measured", p, |tid| round_robin(base, &turn, &cfg, tid, p));
        elapsed.push(stats.elapsed_ns());
        let s = h.kernel.stats().snapshot();
        table.row(vec![
            policy.name().to_string(),
            format!("{:.1}", stats.elapsed_ns() as f64 / 1e6),
            s.migrations.to_string(),
            s.freezes.to_string(),
        ]);
        eprintln!("  {} done", policy.name());
    }
    println!("{table}");
    println!("paper (§8): bounding migrations leaves coarse-grain sharing remote forever\n");
    run.check(
        "platinum_beats_ace_on_migratory_sharing",
        elapsed[0] < elapsed[1],
    );
}

/// Page-size sweep on Gaussian elimination.
fn pagesize_sweep(run: &mut Run, n: usize, p: usize) {
    println!("page-size sweep (Gaussian elimination {n}x{n}, p={p}):");
    let cfg = GaussConfig::with_n(n);
    let mut table = Table::new(vec!["page", "time ms", "replications"]);
    // Elapsed time at each page larger than a row, smallest page first.
    let mut larger = Vec::new();
    for shift in [10u32, 12, 14] {
        let mut mcfg = MachineConfig::with_nodes(16.max(p));
        mcfg.page_shift = shift;
        // Keep total memory per node constant.
        mcfg.frames_per_node = (4096u64 * 4096 / (1u64 << shift)) as usize * 4;
        let mut h = SimBuilder::nodes(mcfg.nodes).machine_config(mcfg).build();
        let (elapsed, _) = run_gauss_with_harness(&mut h, p, &cfg);
        if 1usize << shift > 4 * n {
            larger.push(elapsed);
        }
        let s = h.kernel.stats().snapshot();
        table.row(vec![
            format!("{} KB", (1u64 << shift) / 1024),
            format!("{:.1}", elapsed as f64 / 1e6),
            s.replications.to_string(),
        ]);
        eprintln!("  page {shift} done");
    }
    println!("{table}");
    println!(
        "paper (§4.1): \"for a fixed granularity of data access smaller than the\n\
         size of a page, rho is inversely proportional to page size, thus negating\n\
         any potential advantage of increasing page size\" — here a row ({n} words)\n\
         is smaller than the larger pages, so bigger pages copy more unused data\n\
         per replication and lose, exactly as the analysis predicts.\n"
    );
    let name = "larger_pages_slower_for_sub_page_rows";
    if larger.len() >= 2 {
        run.check(name, larger.windows(2).all(|w| w[0] < w[1]));
    } else {
        run.skip(
            name,
            format!(
                "a row ({} bytes) is no smaller than a 4 KB page, so fewer than two \
                 swept pages exceed it; lower --n",
                4 * n
            ),
        );
    }
}
