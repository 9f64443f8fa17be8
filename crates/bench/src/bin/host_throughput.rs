//! Host throughput against machine size: how many simulated memory
//! references per host second the simulator sustains as the processor
//! count grows, and where the kernel's slow-path host time goes.
//!
//! Unlike every other binary in this crate, the numbers here are *host*
//! wall-clock. Single-machine host cost — per layer, with repetitions,
//! spreads and a recorded baseline — is `benchmark/run.sh` (perf_ledger);
//! what this binary alone does is chart the *shape* of that cost against
//! p. Three mixes bracket the design space:
//!
//!   * `all_local`  — ATC-resident reads/writes to local pages: the pure
//!     fast-path regime.
//!   * `all_remote` — ATC-resident references to statically-placed remote
//!     pages (NeverReplicate): fast path plus the contention model.
//!   * `fault_heavy` — write ping-pong circulating over every processor:
//!     each reference migrates the page, so the kernel slow path
//!     dominates.
//!
//! Usage:
//!   host_throughput [--procs 16,32,64,128] [--topology flat|hier2|hier2x4]
//!                   [--mix NAME] [--ops 2000000] [--rounds 20000] [--out FILE]
//!
//! Each listed processor count boots its own machine under `--topology`
//! and runs the selected mixes once with the kernel phase profiler
//! enabled — one boot per (p, mix) cell. The throughput numbers therefore
//! carry the profiler's two clock reads per slow-path span; the curve's
//! shape against p is the deliverable. `--out` writes the JSON artifact
//! (default results/BENCH_host_throughput_procs.json; bench artifacts
//! live under results/, never the repo root): one entry per p with
//! throughput and `host_phase_ns_per_op`.

use std::sync::Arc;
use std::time::Instant;

use numa_machine::{MachineConfig, Mem, TimingConfig, Topology};
use platinum::hostprof::HostProfSnapshot;
use platinum::{PlacementPolicy, PlatinumPolicy, PolicyKind, Rights};
use platinum_analysis::report::json::Value;
use platinum_analysis::report::Table;
use platinum_bench::Args;
use platinum_runtime::sim::{Sim, SimBuilder};

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
    let (_, secs) = platinum_bench::micro::fault_heavy(&sim, nodes, pings);
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

/// The sweep: each listed processor count boots its own machine under
/// `topo` and runs the selected mixes once, one boot per (p, mix) cell.
fn run_sweep(
    ps: &[usize],
    topo: &str,
    ops: u64,
    pings: u64,
    only: Option<&str>,
) -> Vec<(usize, Vec<SweepCell>)> {
    let timing = TimingConfig::default();
    let mut out = Vec::new();
    for &p in ps {
        assert!(p >= 2, "--procs entries must be at least 2 (got {p})");
        let t = Topology::by_name(topo, p, &timing).unwrap_or_else(|| {
            panic!("unknown --topology {topo:?} (expected flat, hier2, hier2x4)")
        });
        let cells: Vec<SweepCell> = MIXES
            .iter()
            .filter(|(name, _)| only.is_none_or(|m| m == *name))
            .map(|&(name, run)| {
                let ops = if name == "fault_heavy" { pings } else { ops };
                let (secs, prof) = run(p, &t, ops);
                SweepCell {
                    name,
                    ops,
                    fast_mips: mips(ops, secs),
                    prof,
                }
            })
            .collect();
        assert!(
            !cells.is_empty(),
            "--mix must be one of all_local, all_remote, fault_heavy"
        );
        eprintln!("  p={p} done");
        out.push((p, cells));
    }
    out
}

fn sweep_artifact(topo: &str, sweep: &[(usize, Vec<SweepCell>)]) -> String {
    let cell = |c: &SweepCell| {
        let per_op = |ns: u64| Value::Num(per_op_ns(ns, c.ops));
        Value::obj(vec![
            ("name", Value::Str(c.name.to_string())),
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
        ("bench", Value::Str("host_throughput".to_string())),
        ("mode", Value::Str("procs_sweep".to_string())),
        ("topology", Value::Str(topo.to_string())),
        (
            "unit",
            Value::Str("simulated Mrefs per host second".to_string()),
        ),
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
    let ops = args.get_or("--ops", 2_000_000u64);
    let rounds = args.get_or("--rounds", 20_000u64);
    let mix = args.get::<String>("--mix");
    let ps: Vec<usize> = args
        .get::<String>("--procs")
        .unwrap_or_else(|| "16,32,64,128".to_string())
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|_| panic!("--procs takes a comma-separated list, got {s:?}"))
        })
        .collect();
    let topo = args
        .get::<String>("--topology")
        .unwrap_or_else(|| "flat".to_string());
    let out = args
        .get::<String>("--out")
        .unwrap_or_else(|| "results/BENCH_host_throughput_procs.json".to_string());
    println!("Host throughput vs machine size ({topo} topology)\n");
    let sweep = run_sweep(&ps, &topo, ops, rounds, mix.as_deref());
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
    println!("{table}");
    write_artifact(&out, &sweep_artifact(&topo, &sweep));
}
