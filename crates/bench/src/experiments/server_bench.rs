//! Server-tier benchmark: the key-value store and the flow-table
//! pipeline under open-loop request traffic, with per-request latency
//! histograms and protocol-cost attribution.
//!
//! The open-loop driver is deterministic (serialized kernel entries in
//! merged-arrival order, `skew_window_ns: None` — see
//! `platinum_server::drive`), so every number in the artifact is a pure
//! function of the configuration: CI writes the artifact at a reduced
//! geometry and `cmp`s it against `results/BENCH_server_baseline.json`
//! (so does `tests/repro.rs`'s golden table).
//!
//! `--workload kv|flow|both` (both), `--nodes N` (8), `--shards N` (64),
//! `--keys N` (262144), `--requests-per-proc N` (131072). Defaults drive
//! ≥1M requests through the KV store (8 procs × 128Ki). The traffic's
//! seed, skew (θ = 0.99), write share (10 %) and mean gap (4 ms) are
//! fixed; the artifact's `config` object records them with the flags,
//! so a baseline regenerates from its own `config`.

use crate::report::Table;
use numa_machine::MachineConfig;
use platinum::trace::json::Value;
use platinum_runtime::sim::{Sim, SimBuilder};
use platinum_server::{
    run_open_loop, DriverReport, FlowConfig, FlowTables, KvConfig, KvTable, Request, TrafficConfig,
};

use crate::args::KEYS;
use crate::run::{Artifact, Run};

struct BenchConfig {
    nodes: usize,
    shards: usize,
    traffic: TrafficConfig,
}

/// One workload's measured numbers plus its state checksum.
struct WorkloadResult {
    name: &'static str,
    report: DriverReport,
    /// Post-run fold over the workload's quiesced state: same requests
    /// executed ⇒ same checksum (the KV audit additionally asserts no
    /// slot is torn).
    checksum: u64,
}

fn boot(nodes: usize) -> Sim {
    let mut mcfg = MachineConfig::with_nodes(nodes);
    mcfg.frames_per_node = 4096;
    mcfg.skew_window_ns = None;
    SimBuilder::nodes(nodes).machine_config(mcfg).build()
}

fn run_kv(cfg: &BenchConfig, schedule: &[Request]) -> WorkloadResult {
    let mut sim = boot(cfg.nodes);
    let kv = KvTable::stage(KvConfig::for_keys(cfg.traffic.keys, cfg.shards), &mut sim);
    let report = run_open_loop(&sim, &kv, cfg.nodes, schedule);
    let audit = sim
        .spawn(0, |ctx| kv.verify(ctx))
        .expect("processor 0 free after the driver")
        .expect("quiesced table verifies");
    assert_eq!(audit.occupied, cfg.traffic.keys, "keys lost from the table");
    WorkloadResult {
        name: "kv",
        report,
        checksum: audit.checksum,
    }
}

fn run_flow(cfg: &BenchConfig, schedule: &[Request]) -> WorkloadResult {
    let mut sim = boot(cfg.nodes);
    let ft = FlowTables::stage(FlowConfig::default(), &mut sim);
    let report = run_open_loop(&sim, &ft, cfg.nodes, schedule);
    let checksum = sim
        .spawn(0, |ctx| ft.checksum(ctx))
        .expect("processor 0 free after the driver")
        .expect("quiesced state folds");
    WorkloadResult {
        name: "flow",
        report,
        checksum,
    }
}

fn n(v: u64) -> Value {
    Value::Int(v)
}

fn workload_value(r: &WorkloadResult) -> Value {
    let rep = &r.report;
    let p = &rep.protocol;
    Value::obj(vec![
        ("name", Value::str(r.name)),
        ("requests", n(rep.requests)),
        ("reads", n(rep.reads)),
        ("writes", n(rep.writes)),
        ("retries", n(rep.retries)),
        ("elapsed_ns", n(rep.elapsed_ns)),
        ("throughput_rps", Value::Num(rep.throughput_rps())),
        ("p50_ns", n(rep.latency.p50())),
        ("p99_ns", n(rep.latency.p99())),
        ("p999_ns", n(rep.latency.p999())),
        ("max_ns", n(rep.latency.max())),
        ("latency_sum_ns", n(rep.latency.sum())),
        ("read_p50_ns", n(rep.read_latency.p50())),
        ("read_p99_ns", n(rep.read_latency.p99())),
        ("write_p50_ns", n(rep.write_latency.p50())),
        ("write_p99_ns", n(rep.write_latency.p99())),
        ("checksum", n(r.checksum)),
        (
            "per_shard",
            Value::Arr(rep.per_shard.iter().map(|&c| n(c)).collect()),
        ),
        (
            "per_proc",
            Value::Arr(rep.per_proc.iter().map(|&c| n(c)).collect()),
        ),
        (
            "protocol",
            Value::obj(vec![
                ("faults", n(p.faults)),
                ("replications", n(p.replications)),
                ("migrations", n(p.migrations)),
                ("remote_maps", n(p.remote_maps)),
                ("freezes", n(p.freezes)),
                ("thaws", n(p.thaws)),
                ("invalidations", n(p.invalidations)),
                ("shootdowns", n(p.shootdowns)),
                ("ipis_sent", n(p.ipis_sent)),
                ("defrost_runs", n(p.defrost_runs)),
                ("server_requests", n(p.server_requests)),
            ]),
        ),
        (
            "per_1k_requests",
            Value::obj(vec![
                ("faults", Value::Num(rep.per_1k(p.faults))),
                ("shootdowns", Value::Num(rep.per_1k(p.shootdowns))),
                ("freezes", Value::Num(rep.per_1k(p.freezes))),
                ("invalidations", Value::Num(rep.per_1k(p.invalidations))),
            ]),
        ),
    ])
}

fn artifact(cfg: &BenchConfig, results: &[WorkloadResult]) -> Value {
    let t = &cfg.traffic;
    Value::obj(vec![
        ("bench", Value::str("server_bench")),
        (
            "config",
            Value::obj(vec![
                ("nodes", n(cfg.nodes as u64)),
                ("shards", n(cfg.shards as u64)),
                ("keys", n(t.keys)),
                ("requests_per_proc", n(t.requests_per_proc as u64)),
                ("theta", Value::Num(t.theta)),
                ("write_pct", n(t.write_pct as u64)),
                ("seed", n(t.seed)),
                ("mean_interarrival_ns", n(t.mean_interarrival_ns)),
            ]),
        ),
        (
            "workloads",
            Value::Arr(results.iter().map(workload_value).collect()),
        ),
    ])
}

fn table(results: &[WorkloadResult]) -> Table {
    let mut t = Table::new(vec![
        "workload",
        "requests",
        "vtime (ms)",
        "krps",
        "p50 (us)",
        "p99 (us)",
        "p999 (us)",
        "faults/1k",
        "shootdowns/1k",
        "retries",
    ]);
    for r in results {
        let rep = &r.report;
        t.row(vec![
            r.name.to_string(),
            rep.requests.to_string(),
            format!("{:.3}", rep.elapsed_ns as f64 / 1e6),
            format!("{:.1}", rep.throughput_rps() / 1e3),
            format!("{:.2}", rep.latency.p50() as f64 / 1e3),
            format!("{:.2}", rep.latency.p99() as f64 / 1e3),
            format!("{:.2}", rep.latency.p999() as f64 / 1e3),
            format!("{:.2}", rep.per_1k(rep.protocol.faults)),
            format!("{:.2}", rep.per_1k(rep.protocol.shootdowns)),
            rep.retries.to_string(),
        ]);
    }
    t
}

pub(crate) fn run(run: &mut Run) {
    let args = &mut run.args;
    let workload = args.get_or("--workload", "both".to_string());
    assert!(
        ["kv", "flow", "both"].contains(&workload.as_str()),
        "unknown workload {workload:?} (expected kv, flow, both)"
    );
    let cfg = BenchConfig {
        nodes: args.count("--nodes", 1..).unwrap_or(8),
        shards: args.count("--shards", 1..).unwrap_or(64),
        traffic: TrafficConfig {
            seed: 24_301,
            // 256Ki keys → a 16 MB table, right at the per-node frame
            // pool: the measured regime mixes coherence traffic (write
            // invalidations on hot pages) with mild replacement
            // pressure. Push --keys well past the pool to study pure
            // frame thrash, or shrink it for a fully-replicable table.
            keys: args.count("--keys", KEYS).map_or(1 << 18, |k| k as u64),
            requests_per_proc: args.get_or("--requests-per-proc", 1usize << 17),
            theta: 0.99,
            write_pct: 10,
            // The simulated machine serves a faulting request in roughly
            // a millisecond (a page copy is ~1 ms of virtual time), so
            // the default arrival rate sits below saturation: p50 then
            // reflects service time and the tail reflects write-burst
            // queueing, rather than every number measuring pure backlog.
            mean_interarrival_ns: 4_000_000,
            ..TrafficConfig::default()
        },
    };
    run.start(Artifact::Json);

    say!(
        run,
        "Server tier: {} requests per workload, {} procs, open loop (deterministic)\n",
        cfg.nodes * cfg.traffic.requests_per_proc,
        cfg.nodes,
    );

    // Both workloads execute the one request stream.
    let schedule = cfg.traffic.schedule(cfg.nodes);
    let mut results = Vec::new();
    if workload == "kv" || workload == "both" {
        run.phase("kv");
        results.push(run_kv(&cfg, &schedule));
    }
    if workload == "flow" || workload == "both" {
        run.phase("flow");
        results.push(run_flow(&cfg, &schedule));
    }

    say!(run, "{}", table(&results));
    run.artifact(artifact(&cfg, &results));
}
