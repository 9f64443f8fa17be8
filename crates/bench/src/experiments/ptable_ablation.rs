//! Page-table placement ablation: how much walk time the translation
//! fabric spends off-node under each [`PtablePlacement`], across
//! machine sizes and topologies, on two walk-heavy workloads.
//!
//! Every ATC miss triggers a simulated multi-level page-table walk
//! charged against the node homing the walked structures (see
//! `platinum::ptable`). This benchmark sweeps where those structures
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
//! pages). Both drive the simulation from a single host thread, so the
//! whole artifact is exact: CI `cmp`s the `--procs 16,64 --topology
//! hier2` artifact against `results/BENCH_ptable_baseline.json` (so does
//! `tests/repro.rs`'s golden table).
//!
//! Per cell the artifact reports the walk tally (walks, populates,
//! invalidations and their virtual-time costs), **walk locality** — the
//! fraction of walk virtual time served on-node — **fabric_ns** (total
//! translation-fabric protocol time: walks + populates + invalidations)
//! and the workload's elapsed virtual time. The fabric's host cost is
//! `benchmark/`'s `core.prof_walk_ns`, not a column here.
//!
//! `--procs` (16,64), `--topology` (hier2), `--pings N` (see below),
//! `--kv-keys N` (2048), `--kv-requests N` (192 per processor). Every
//! run sweeps all four placements over both workloads; the kv traffic
//! arrives every 5 µs on average.
//!
//! **Pings scale with p².** Without `--pings`, a p-processor machine
//! runs `2000 · max(p, 64)² / 64²` pings: 2000 up to p = 64, 8000 at
//! 128, 32 000 at 256, so every node writes about p/2 times once
//! p > 64. The p >= 64 fabric check below needs it. Replicate-on-fault
//! pays a fixed cost per node (its replica populate and its first walk,
//! both charged against the home node). After that a write costs it
//! about 6.5 µs (an on-node walk plus a replica invalidation), where the
//! centralized accounting charges about 32 µs (a remote walk). The
//! fixed cost grows faster than p: on `hier2` the whole machine's came
//! to 0.03 s at p = 64, 0.09 s at 128 and 0.28 s at 256. So a fixed
//! 2000 pings stops repaying it past p = 64: the check failed at p = 128
//! and 256, and p = 256 still failed at 8000 pings. With p²-scaled
//! pings it passes on `flat`, `hier2` and `hier2x4` at p = 128 and 256,
//! the replicated fabric costing about half the centralized one. An
//! explicit `--pings` applies to every machine of the sweep.

use crate::report::Table;
use numa_machine::{MachineConfig, Topology};
use platinum::trace::json::Value;
use platinum::{PolicyKind, PtableConfig, PtablePlacement, WalkSnapshot};
use platinum_runtime::sim::{Sim, SimBuilder};
use platinum_server::{run_open_loop, KvConfig, KvTable, TrafficConfig};

use crate::args::{machines, KEYS};
use crate::micro::fault_heavy;
use crate::run::{Artifact, Run};

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
        b = b.policy(PolicyKind::AlwaysReplicate);
    }
    b.build()
}

/// One (workload, p, placement) cell of the sweep.
struct Cell {
    workload: &'static str,
    procs: usize,
    placement: PtablePlacement,
    ops: u64,
    /// Elapsed virtual time of the measured run (exact).
    elapsed_ns: u64,
    /// The fabric's walk tally over the whole run (exact).
    walks: WalkSnapshot,
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
/// serialized driver. Returns (elapsed vtime, requests).
fn kv(sim: &mut Sim, procs: usize, traffic: &TrafficConfig) -> (u64, u64) {
    let kv = KvTable::stage(KvConfig::for_keys(traffic.keys, 8), sim);
    let schedule = traffic.schedule(procs);
    let report = run_open_loop(sim, &kv, procs, &schedule);
    (report.elapsed_ns, report.requests)
}

/// The two workloads, in sweep order.
const WORKLOADS: [&str; 2] = ["fault_heavy", "kv"];

/// The fault-heavy pings a p-processor machine runs without `--pings`:
/// 2000 up to p = 64, then growing with p² (see the module doc).
fn default_pings(p: usize) -> u64 {
    let p = p.max(64) as u64;
    2_000 * p * p / (64 * 64)
}

fn run_sweep(machines: &[Topology], pings: Option<u64>, traffic: &TrafficConfig) -> Vec<Cell> {
    let mut cells = Vec::new();
    for topo in machines {
        let p = topo.nodes();
        let pings = pings.unwrap_or_else(|| default_pings(p));
        for placement in PtablePlacement::ALL {
            for w in WORKLOADS {
                let never_freeze = w == "fault_heavy";
                let mut sim = boot(p, topo, placement, never_freeze);
                let (elapsed_ns, ops) = if never_freeze {
                    (fault_heavy(&sim, p, pings), pings)
                } else {
                    kv(&mut sim, p, traffic)
                };
                let cell = Cell {
                    workload: w,
                    procs: p,
                    placement,
                    ops,
                    elapsed_ns,
                    walks: sim.kernel.walk_snapshot(),
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
) -> &'c Cell {
    cells
        .iter()
        .find(|c| c.workload == workload && c.procs == procs && c.placement == placement)
        .expect("the sweep runs every cell")
}

/// The fabric's reason to exist, checked from the sweep's own numbers.
fn self_checks(run: &mut Run, cells: &[Cell], ps: &[usize]) {
    for &p in ps {
        for w in WORKLOADS {
            let central = find(cells, w, p, PtablePlacement::Centralized);
            let repl = find(cells, w, p, PtablePlacement::ReplicatedOnFault);
            // Replicated walks must be on-node: at least 1.2x the
            // centralized placement's walk locality (in practice the gap
            // is far wider — centralized locality decays like 1/p).
            run.check(
                format!("locality_1_2x/{w}/p{p}"),
                repl.walks.walk_locality() >= 1.2 * central.walks.walk_locality(),
            );
            // ... and at scale the whole fabric (walks + populates +
            // invalidations) must cost less virtual time than the
            // centralized accounting says the same walks would have,
            // remote charges and all. Checked on the walk-dominated
            // ping-pong at p >= 64, where the issue's acceptance bar
            // sits; the kv cells report the same numbers unchecked.
            if w == "fault_heavy" && p >= 64 {
                run.check(
                    format!("fabric_cheaper/{w}/p{p}"),
                    repl.walks.fabric_ns() < central.walks.fabric_ns(),
                );
            }
        }
    }
}

fn artifact(topo: &str, cells: &[Cell], checks: Value) -> Value {
    Value::obj(vec![
        ("bench", Value::str("ptable_ablation")),
        ("topology", Value::str(topo)),
        ("unit", Value::str("virtual ns (exact)")),
        (
            "cells",
            Value::Arr(
                cells
                    .iter()
                    .map(|c| {
                        let w = &c.walks;
                        Value::obj(vec![
                            ("key", Value::Str(c.key())),
                            ("workload", Value::str(c.workload)),
                            ("procs", Value::Int(c.procs as u64)),
                            ("placement", Value::str(c.placement.name())),
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
                        ])
                    })
                    .collect(),
            ),
        ),
        ("checks", checks),
    ])
}

pub(crate) fn run(run: &mut Run) {
    let args = &mut run.args;
    let ps = args.list("--procs").unwrap_or_else(|| vec![16usize, 64]);
    let topo = args.get_or("--topology", "hier2".to_string());
    let machines = machines(&topo, &ps);
    let pings = args.get("--pings");
    let traffic = TrafficConfig {
        keys: args.count("--kv-keys", KEYS).map_or(2_048, |k| k as u64),
        requests_per_proc: args.get_or("--kv-requests", 192usize),
        mean_interarrival_ns: 5_000,
        write_pct: 2,
        burst_every: 0,
        ..TrafficConfig::default()
    };
    run.start(Artifact::Json);

    say!(run, "Page-table placement ablation ({topo} topology)\n");
    let cells = run_sweep(&machines, pings, &traffic);

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
        ]);
    }
    say!(run, "{table}");
    self_checks(run, &cells, &ps);
    run.artifact(artifact(&topo, &cells, run.checks_value()));
}
