//! Host throughput against machine size: how many simulated memory
//! references per host second the simulator sustains as the processor
//! count grows, and where the kernel's slow-path host time goes.
//!
//! Unlike every other experiment in this crate, the numbers here are
//! *host* wall-clock. Single-machine host cost — per layer, with
//! repetitions, spreads and a recorded baseline — is `benchmark/run.sh`
//! (perf_ledger); what this experiment alone does is chart the *shape* of
//! that cost against p. Three mixes bracket the design space:
//!
//!   * `all_local`  — ATC-resident reads/writes to local pages: the pure
//!     fast-path regime.
//!   * `all_remote` — ATC-resident references to statically-placed remote
//!     pages (NeverReplicate): fast path plus the contention model.
//!   * `fault_heavy` — write ping-pong circulating over every processor:
//!     each reference migrates the page, so the kernel slow path
//!     dominates.
//!
//! Each processor count of `--procs` (16,32,64,128) boots its own
//! machine under `--topology` (flat) and runs every mix — or the one
//! `--mix` names — once with the kernel phase profiler enabled: one boot
//! per (p, mix) cell, `--ops N` (2000000) references for the resident
//! mixes and `--rounds N` (20000) pings for `fault_heavy`. The throughput
//! numbers therefore carry the profiler's two clock reads per slow-path
//! span; the curve's shape against p is the deliverable. The artifact has
//! one entry per p with throughput and `host_phase_ns_per_op`.

use std::sync::Arc;
use std::time::Instant;

use numa_machine::{MachineConfig, Mem, Topology};
use platinum::hostprof::HostProfSnapshot;
use platinum::trace::json::Value;
use platinum::{PlacementPolicy, PlatinumPolicy, PolicyKind, Rights};
use platinum_analysis::report::Table;
use platinum_runtime::sim::{Sim, SimBuilder};

use crate::args::machines;
use crate::run::{Artifact, Run};

// The mixes touch at most four pages per node. The pool depth is a model
// input, not a host-memory budget (frames materialise on first use): the
// inverted-page-table hash is `% frames_per_node`, so it fixes every probe
// count, and the sweep's recorded numbers were taken at 32.
const SWEEP_FRAMES: usize = 32;

fn boot(nodes: usize, topo: &Topology, policy: impl Into<Arc<dyn PlacementPolicy>>) -> Sim {
    SimBuilder::nodes(nodes)
        .machine_config(MachineConfig {
            nodes,
            frames_per_node: SWEEP_FRAMES,
            skew_window_ns: None,
            ..MachineConfig::default()
        })
        .topology(topo.clone())
        .policy(policy)
        .build()
}

fn mips(ops: u64, secs: f64) -> f64 {
    ops as f64 / 1e6 / secs
}

const PAGES: u64 = 4;

/// The benchmark's access pattern: page `k % 4`, word `k % 64`, a write
/// every fourth op. The pattern has period 64; it is precomputed so the
/// measured loop charges the simulator, not the harness's address
/// arithmetic.
fn pattern(va: u64, page_bytes: u64) -> Vec<(u64, bool)> {
    (0..64u64)
        .map(|k| (va + (k % PAGES) * page_bytes + k * 4, k % 4 == 0))
        .collect()
}

/// ATC-resident references to pages homed on the running processor.
/// Returns elapsed host seconds for `ops` references (setup excluded)
/// plus the kernel phase profile of the measured loop.
fn all_local(nodes: usize, topo: &Topology, ops: u64) -> (f64, HostProfSnapshot) {
    let sim = boot(nodes, topo, PolicyKind::Platinum);
    let object = sim.kernel.create_object(PAGES as usize);
    let va = sim.space.map_anywhere(object, Rights::RW).unwrap();
    let page_bytes = (sim.machine.cfg().words_per_page() * 4) as u64;
    let mut ctx = sim.attach(0).unwrap();
    for i in 0..PAGES {
        ctx.write(va + i * page_bytes, i as u32); // first touch: local frame
    }
    let pat = pattern(va, page_bytes);
    let rounds = ops.div_ceil(64);
    sim.kernel.host_prof().enable();
    let start = Instant::now();
    let mut sum = 0u32;
    for r in 0..rounds {
        for &(a, write) in &pat {
            if write {
                ctx.write(a, r as u32);
            } else {
                sum = sum.wrapping_add(ctx.read(a));
            }
        }
    }
    std::hint::black_box(sum);
    (
        start.elapsed().as_secs_f64(),
        sim.kernel.host_prof().snapshot(),
    )
}

/// ATC-resident references to pages statically placed on a remote node.
fn all_remote(nodes: usize, topo: &Topology, ops: u64) -> (f64, HostProfSnapshot) {
    let sim = boot(nodes, topo, PolicyKind::NeverReplicate);
    let object = sim.kernel.create_object(PAGES as usize);
    let va = sim.space.map_anywhere(object, Rights::RW).unwrap();
    let page_bytes = (sim.machine.cfg().words_per_page() * 4) as u64;
    // First touch from processor 1 homes every page on node 1 ...
    let mut owner = sim.attach(1).unwrap();
    for i in 0..PAGES {
        owner.write(va + i * page_bytes, i as u32);
    }
    owner.suspend();
    // ... so processor 0's references stay remote forever.
    let mut ctx = sim.attach(0).unwrap();
    let pat = pattern(va, page_bytes);
    let rounds = ops.div_ceil(64);
    sim.kernel.host_prof().enable();
    let start = Instant::now();
    let mut sum = 0u32;
    for _ in 0..rounds {
        for &(a, _) in &pat {
            sum = sum.wrapping_add(ctx.read(a));
        }
    }
    std::hint::black_box(sum);
    (
        start.elapsed().as_secs_f64(),
        sim.kernel.host_prof().snapshot(),
    )
}

/// Write ping-pong: each reference invalidates the previous writer's
/// copy and migrates the page, so the protocol slow path dominates. The
/// page circulates round-robin over all `nodes` processors, `pings`
/// writes in total.
fn fault_heavy(nodes: usize, topo: &Topology, pings: u64) -> (f64, HostProfSnapshot) {
    let sim = boot(
        nodes,
        topo,
        PlatinumPolicy {
            // Never freeze: keep every round on the full migrate path.
            t1_ns: 0,
            ..PlatinumPolicy::paper_default()
        },
    );
    sim.kernel.host_prof().enable();
    let (_, secs) = crate::micro::fault_heavy(&sim, nodes, pings);
    (secs, sim.kernel.host_prof().snapshot())
}

fn per_op_ns(ns: u64, ops: u64) -> f64 {
    ns as f64 / ops.max(1) as f64
}

/// One (p, mix) cell of the machine-size sweep.
struct SweepCell {
    name: &'static str,
    ops: u64,
    fast_mips: f64,
    prof: HostProfSnapshot,
}

/// A mix: its name and its runner, which takes the machine size, the
/// machine description and the op count.
type Mix = (
    &'static str,
    fn(usize, &Topology, u64) -> (f64, HostProfSnapshot),
);

const MIXES: [Mix; 3] = [
    ("all_local", all_local),
    ("all_remote", all_remote),
    ("fault_heavy", fault_heavy),
];

/// The sweep: each machine runs `mixes` once, one boot per (p, mix)
/// cell.
fn run_sweep(
    machines: &[Topology],
    mixes: &[Mix],
    ops: u64,
    pings: u64,
) -> Vec<(usize, Vec<SweepCell>)> {
    let mut out = Vec::new();
    for t in machines {
        let p = t.nodes();
        let cells: Vec<SweepCell> = mixes
            .iter()
            .map(|&(name, run)| {
                let ops = if name == "fault_heavy" { pings } else { ops };
                let (secs, prof) = run(p, t, ops);
                SweepCell {
                    name,
                    ops,
                    fast_mips: mips(ops, secs),
                    prof,
                }
            })
            .collect();
        eprintln!("  p={p} done");
        out.push((p, cells));
    }
    out
}

fn sweep_artifact(topo: &str, sweep: &[(usize, Vec<SweepCell>)]) -> Value {
    let cell = |c: &SweepCell| {
        let per_op = |ns: u64| Value::Num(per_op_ns(ns, c.ops));
        Value::obj(vec![
            ("name", Value::str(c.name)),
            ("ops", Value::Int(c.ops)),
            ("fast_mips", Value::Num(c.fast_mips)),
            (
                "host_phase_ns_per_op",
                Value::obj(vec![
                    ("fault", per_op(c.prof.fault_ns)),
                    ("shootdown", per_op(c.prof.shootdown_ns)),
                    ("transfer", per_op(c.prof.transfer_ns)),
                    ("directory", per_op(c.prof.directory_ns)),
                    ("walk", per_op(c.prof.walk_ns)),
                ]),
            ),
        ])
    };
    Value::obj(vec![
        ("bench", Value::str("host_throughput")),
        ("mode", Value::str("procs_sweep")),
        ("topology", Value::str(topo)),
        ("unit", Value::str("simulated Mrefs per host second")),
        (
            "sweep",
            Value::Arr(
                sweep
                    .iter()
                    .map(|(p, cells)| {
                        Value::obj(vec![
                            ("procs", Value::Int(*p as u64)),
                            ("mixes", Value::Arr(cells.iter().map(cell).collect())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

pub(crate) fn run(run: &mut Run) {
    let ops = run.args.get_or("--ops", 2_000_000u64);
    let rounds = run.args.get_or("--rounds", 20_000u64);
    let only: Option<String> = run.args.get("--mix");
    let mixes: Vec<Mix> = MIXES
        .into_iter()
        .filter(|(name, _)| only.as_deref().is_none_or(|m| m == *name))
        .collect();
    assert!(
        !mixes.is_empty(),
        "--mix must be one of all_local, all_remote, fault_heavy"
    );
    let ps = run
        .args
        .list("--procs")
        .unwrap_or_else(|| vec![16usize, 32, 64, 128]);
    let topo = run.args.get_or("--topology", "flat".to_string());
    let machines = machines(&topo, &ps);
    run.start(Artifact::Json);

    say!(run, "Host throughput vs machine size ({topo} topology)\n");
    let sweep = run_sweep(&machines, &mixes, ops, rounds);
    let mut table = Table::new(vec![
        "p",
        "mix",
        "fast (Mref/s)",
        "fault ns/op",
        "shootdown ns/op",
        "transfer ns/op",
        "directory ns/op",
        "walk ns/op",
    ]);
    for (p, cells) in &sweep {
        for c in cells {
            table.row(vec![
                p.to_string(),
                c.name.to_string(),
                format!("{:.2}", c.fast_mips),
                format!("{:.0}", per_op_ns(c.prof.fault_ns, c.ops)),
                format!("{:.0}", per_op_ns(c.prof.shootdown_ns, c.ops)),
                format!("{:.0}", per_op_ns(c.prof.transfer_ns, c.ops)),
                format!("{:.0}", per_op_ns(c.prof.directory_ns, c.ops)),
                format!("{:.0}", per_op_ns(c.prof.walk_ns, c.ops)),
            ]);
        }
    }
    say!(run, "{table}");
    run.artifact(sweep_artifact(&topo, &sweep));
}
