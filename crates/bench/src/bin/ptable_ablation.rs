//! Page-table placement ablation: how much walk time the translation
//! fabric spends off-node under each [`PtablePlacement`], across
//! machine sizes and topologies, on two walk-heavy workloads.
//!
//! Every ATC miss triggers a simulated multi-level page-table walk
//! charged against the node homing the walked structures (see
//! `platinum-ptable`). This benchmark sweeps where those structures
//! live:
//!
//!   * `centralized` — canonical tables on the space's home node; walks
//!     are accounted arithmetically and charge no virtual time (the
//!     bit-identical default).
//!   * `home_node` — the same placement, but walks are *charged*: the
//!     NUMA-oblivious baseline the replicated placements are judged
//!     against.
//!   * `replicated_all` — every node builds a replica on its first walk.
//!   * `replicated_on_fault` — Mitosis-style copy-on-fault: a node earns
//!     its replica inside the fault handler it is already paying for.
//!
//! Two deterministic workloads exercise the fabric from opposite ends:
//! `fault_heavy` (round-robin write ping-pong: every reference migrates
//! the page, so every reference walks *and* every migration invalidates
//! a replica entry) and `kv` (the server tier's open-loop key-value
//! store: a large read-mostly table whose misses spread over many
//! pages). Both drive the simulation from a single host thread, so
//! every virtual-time metric is exact and `--check` compares it
//! bit-for-bit against a committed baseline.
//!
//! Per cell the artifact reports the walk tally (walks, populates,
//! invalidations and their virtual-time costs), **walk locality** — the
//! fraction of walk virtual time served on-node — **fabric_ns** (total
//! translation-fabric protocol time: walks + populates + invalidations),
//! the workload's elapsed virtual time, and host-side Mops/s (unchecked;
//! host throughput is not deterministic).
//!
//! Usage:
//!   ptable_ablation [--procs 16,64] [--topology flat|hier2|hier2x4]
//!                   [--placements a,b,c] [--workloads fault_heavy,kv]
//!                   [--pings 2000] [--kv-keys 2048] [--kv-requests 192]
//!                   [--out results/BENCH_ptable.json]
//!                   [--check --baseline FILE]
//!
//! With both `centralized` and `replicated_on_fault` in the sweep, the
//! run self-checks the fabric's reason to exist: at every (p, workload)
//! cell, replicate-on-fault must hold at least 1.2x the centralized
//! placement's walk locality, and on the fault-heavy workload at p >= 64
//! it must also spend measurably less total fabric time than the
//! centralized accounting says the same walks would have cost.

use std::time::Instant;

use numa_machine::{MachineConfig, TimingConfig, Topology};
use platinum::{PlatinumPolicy, PtableConfig, PtablePlacement, WalkSnapshot};
use platinum_analysis::report::json::Value;
use platinum_analysis::report::Table;
use platinum_bench::check::check_section;
use platinum_bench::micro::fault_heavy;
use platinum_bench::Args;
use platinum_runtime::sim::{Sim, SimBuilder};
use platinum_server::{run_open_loop, KvConfig, KvTable, TrafficConfig};

/// Boots one cell's machine: `procs` nodes under `topo`, the given
/// page-table placement, and (for the ping-pong) a never-freeze policy
/// so every round stays on the full migrate path.
fn boot(procs: usize, topo: &Topology, placement: PtablePlacement, never_freeze: bool) -> Sim {
    let mut mcfg = MachineConfig::with_nodes(procs);
    // The workloads touch few pages per node. 256 is a model input, not
    // a host-memory budget (frames materialise on first use): the
    // inverted-page-table hash is `% frames_per_node`, and the exact
    // baseline in results/ was recorded with it.
    mcfg.frames_per_node = 256;
    mcfg.skew_window_ns = None;
    let mut b = SimBuilder::nodes(procs)
        .machine_config(mcfg)
        .topology(topo.clone())
        .ptable(PtableConfig::with_placement(placement));
    if never_freeze {
        b = b.policy(PlatinumPolicy {
            t1_ns: 0,
            ..PlatinumPolicy::paper_default()
        });
    }
    b.build()
}

/// One (workload, p, placement) cell of the sweep.
struct Cell {
    workload: &'static str,
    procs: usize,
    placement: PtablePlacement,
    ops: u64,
    /// Elapsed virtual time of the measured run (exact, `--check`ed).
    elapsed_ns: u64,
    /// The fabric's walk tally over the whole run (exact, `--check`ed).
    walks: WalkSnapshot,
    /// Host-side throughput (unchecked; host clocks are not
    /// deterministic).
    host_mops: f64,
}

impl Cell {
    fn key(&self) -> String {
        format!(
            "{}/p{}/{}",
            self.workload,
            self.procs,
            self.placement.name()
        )
    }
}

/// The server tier's open-loop key-value store under the deterministic
/// serialized driver. Returns (elapsed vtime, host seconds, requests).
fn kv(sim: &mut Sim, procs: usize, traffic: &TrafficConfig) -> (u64, f64, u64) {
    let kv = KvTable::stage(KvConfig::for_keys(traffic.keys, 8), sim);
    let schedule = traffic.schedule(procs);
    let start = Instant::now();
    let report = run_open_loop(sim, &kv, procs, &schedule);
    let secs = start.elapsed().as_secs_f64();
    (report.elapsed_ns, secs, report.requests)
}

fn run_sweep(
    ps: &[usize],
    topo_name: &str,
    placements: &[PtablePlacement],
    workloads: &[&'static str],
    pings: u64,
    traffic: &TrafficConfig,
) -> Vec<Cell> {
    let timing = TimingConfig::default();
    let mut cells = Vec::new();
    for &p in ps {
        assert!(p >= 2, "--procs entries must be at least 2 (got {p})");
        let topo = Topology::by_name(topo_name, p, &timing).unwrap_or_else(|| {
            panic!("unknown --topology {topo_name:?} (expected flat, hier2, hier2x4)")
        });
        for &placement in placements {
            for &w in workloads {
                let cell = match w {
                    "fault_heavy" => {
                        let sim = boot(p, &topo, placement, true);
                        let (elapsed_ns, secs) = fault_heavy(&sim, p, pings);
                        Cell {
                            workload: "fault_heavy",
                            procs: p,
                            placement,
                            ops: pings,
                            elapsed_ns,
                            walks: sim.kernel.walk_snapshot(),
                            host_mops: pings as f64 / 1e6 / secs,
                        }
                    }
                    "kv" => {
                        let mut sim = boot(p, &topo, placement, false);
                        let (elapsed_ns, secs, requests) = kv(&mut sim, p, traffic);
                        Cell {
                            workload: "kv",
                            procs: p,
                            placement,
                            ops: requests,
                            elapsed_ns,
                            walks: sim.kernel.walk_snapshot(),
                            host_mops: requests as f64 / 1e6 / secs,
                        }
                    }
                    other => panic!("unknown workload {other:?} (expected fault_heavy, kv)"),
                };
                eprintln!("  {} done", cell.key());
                cells.push(cell);
            }
        }
    }
    cells
}

fn find<'c>(
    cells: &'c [Cell],
    workload: &str,
    procs: usize,
    placement: PtablePlacement,
) -> Option<&'c Cell> {
    cells
        .iter()
        .find(|c| c.workload == workload && c.procs == procs && c.placement == placement)
}

/// The fabric's reason to exist, asserted from the sweep's own numbers
/// wherever both ends of the comparison ran. Returns named check
/// results for the artifact.
fn self_checks(cells: &[Cell], ps: &[usize], workloads: &[&'static str]) -> Vec<(String, bool)> {
    let mut checks = Vec::new();
    for &p in ps {
        for &w in workloads {
            let (Some(central), Some(repl)) = (
                find(cells, w, p, PtablePlacement::Centralized),
                find(cells, w, p, PtablePlacement::ReplicatedOnFault),
            ) else {
                continue;
            };
            // Replicated walks must be on-node: at least 1.2x the
            // centralized placement's walk locality (in practice the gap
            // is far wider — centralized locality decays like 1/p).
            let ok = repl.walks.walk_locality() >= 1.2 * central.walks.walk_locality();
            checks.push((format!("locality_1_2x/{w}/p{p}"), ok));
            assert!(
                ok,
                "{w}/p{p}: replicate-on-fault walk locality {:.4} is not \
                 1.2x centralized {:.4}",
                repl.walks.walk_locality(),
                central.walks.walk_locality(),
            );
            // ... and at scale the whole fabric (walks + populates +
            // invalidations) must cost less virtual time than the
            // centralized accounting says the same walks would have,
            // remote charges and all. Asserted on the walk-dominated
            // ping-pong at p >= 64, where the issue's acceptance bar
            // sits; the kv cells report the same numbers unchecked.
            if w == "fault_heavy" && p >= 64 {
                let ok = repl.walks.fabric_ns() < central.walks.fabric_ns();
                checks.push((format!("fabric_cheaper/{w}/p{p}"), ok));
                assert!(
                    ok,
                    "{w}/p{p}: replicate-on-fault fabric time {} ns is not \
                     below centralized walk accounting {} ns",
                    repl.walks.fabric_ns(),
                    central.walks.fabric_ns(),
                );
            }
        }
    }
    checks
}

fn artifact(topo: &str, cells: &[Cell], checks: &[(String, bool)]) -> String {
    Value::obj(vec![
        ("bench", Value::Str("ptable_ablation".to_string())),
        ("topology", Value::Str(topo.to_string())),
        (
            "unit",
            Value::Str("virtual ns (exact); host Mops/s (unchecked)".to_string()),
        ),
        (
            "cells",
            Value::Arr(
                cells
                    .iter()
                    .map(|c| {
                        let w = &c.walks;
                        Value::obj(vec![
                            ("key", Value::Str(c.key())),
                            ("workload", Value::Str(c.workload.to_string())),
                            ("procs", Value::Int(c.procs as u64)),
                            ("placement", Value::Str(c.placement.name().to_string())),
                            ("ops", Value::Int(c.ops)),
                            ("elapsed_ns", Value::Int(c.elapsed_ns)),
                            ("walks", Value::Int(w.walks)),
                            ("walk_ns", Value::Int(w.walk_ns)),
                            ("local_walk_ns", Value::Int(w.local_walk_ns)),
                            ("walk_locality", Value::Num(w.walk_locality())),
                            ("populates", Value::Int(w.populates)),
                            ("populate_ns", Value::Int(w.populate_ns)),
                            ("invals", Value::Int(w.invals)),
                            ("inval_ns", Value::Int(w.inval_ns)),
                            ("fabric_ns", Value::Int(w.fabric_ns())),
                            ("host_mops", Value::Num(c.host_mops)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "checks",
            Value::obj(
                checks
                    .iter()
                    .map(|(name, ok)| (name.as_str(), Value::Bool(*ok)))
                    .collect(),
            ),
        ),
    ])
    .to_json()
}

fn write_artifact(out: &str, body: &str) {
    if let Some(dir) = std::path::Path::new(out)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    }
    std::fs::write(out, body).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("artifact written to {out}");
}

fn main() {
    let args = Args::parse();
    let ps: Vec<usize> = args
        .get::<String>("--procs")
        .unwrap_or_else(|| "16,64".to_string())
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|_| panic!("--procs takes a comma-separated list, got {s:?}"))
        })
        .collect();
    let topo = args
        .get::<String>("--topology")
        .unwrap_or_else(|| "hier2".to_string());
    let placements: Vec<PtablePlacement> = args
        .get::<String>("--placements")
        .map(|list| {
            list.split(',')
                .map(|s| {
                    s.trim()
                        .parse::<PtablePlacement>()
                        .unwrap_or_else(|e| panic!("--placements: {e}"))
                })
                .collect()
        })
        .unwrap_or_else(|| PtablePlacement::ALL.to_vec());
    let workload_names = args
        .get::<String>("--workloads")
        .unwrap_or_else(|| "fault_heavy,kv".to_string());
    let workloads: Vec<&'static str> = workload_names
        .split(',')
        .map(|s| match s.trim() {
            "fault_heavy" => "fault_heavy",
            "kv" => "kv",
            other => panic!("unknown workload {other:?} (expected fault_heavy, kv)"),
        })
        .collect();
    let pings = args.get_or("--pings", 2_000u64);
    let traffic = TrafficConfig {
        keys: args.get_or("--kv-keys", 2_048u64),
        requests_per_proc: args.get_or("--kv-requests", 192usize),
        mean_interarrival_ns: args.get_or("--kv-gap-ns", 5_000u64),
        write_pct: 2,
        burst_every: 0,
        ..TrafficConfig::default()
    };
    let out = args
        .get::<String>("--out")
        .unwrap_or_else(|| "results/BENCH_ptable.json".to_string());

    println!("Page-table placement ablation ({topo} topology)\n");
    let cells = run_sweep(&ps, &topo, &placements, &workloads, pings, &traffic);

    let mut table = Table::new(vec![
        "workload",
        "p",
        "placement",
        "walks",
        "locality",
        "walk (ms)",
        "pop (ms)",
        "inval (ms)",
        "fabric (ms)",
        "vtime (ms)",
        "host Mops/s",
    ]);
    for c in &cells {
        table.row(vec![
            c.workload.to_string(),
            c.procs.to_string(),
            c.placement.name().to_string(),
            c.walks.walks.to_string(),
            format!("{:.3}", c.walks.walk_locality()),
            format!("{:.3}", c.walks.walk_ns as f64 / 1e6),
            format!("{:.3}", c.walks.populate_ns as f64 / 1e6),
            format!("{:.3}", c.walks.inval_ns as f64 / 1e6),
            format!("{:.3}", c.walks.fabric_ns() as f64 / 1e6),
            format!("{:.3}", c.elapsed_ns as f64 / 1e6),
            format!("{:.2}", c.host_mops),
        ]);
    }
    println!("{table}");
    let checks = self_checks(&cells, &ps, &workloads);
    for (name, ok) in &checks {
        println!("check {name}: {}", if *ok { "PASS" } else { "FAIL" });
    }

    write_artifact(&out, &artifact(&topo, &cells, &checks));

    if args.flag("--check") {
        let path: String = args.get("--baseline").expect("--check needs --baseline");
        let baseline =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        // Virtual-time metrics are exact functions of the configuration,
        // so the comparison is equality, not a tolerance band.
        let mut ok = true;
        for c in &cells {
            let fields = [
                ("elapsed_ns", c.elapsed_ns),
                ("walks", c.walks.walks),
                ("walk_ns", c.walks.walk_ns),
                ("fabric_ns", c.walks.fabric_ns()),
            ];
            ok &= check_section(&baseline, "key", &c.key(), &fields, 0.0);
        }
        if !ok {
            eprintln!("ptable ablation drifted from the committed baseline");
            std::process::exit(1);
        }
        println!("baseline check passed: every virtual-time metric exact");
    }
}
