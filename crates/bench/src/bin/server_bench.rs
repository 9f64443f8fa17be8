//! Server-tier benchmark: the key-value store and the flow-table
//! pipeline under open-loop request traffic, with per-request latency
//! histograms and protocol-cost attribution.
//!
//! The open-loop driver is deterministic (serialized kernel entries in
//! merged-arrival order, `skew_window_ns: None` — see
//! `platinum_server::drive`), so every number in the artifact is a pure
//! function of the configuration: the `--check` gate compares against a
//! committed baseline *exactly* by default. `--mode closed` switches to
//! the concurrent saturation driver, whose numbers are host-schedule
//! dependent and never checked.
//!
//! Usage:
//!   server_bench [--workload kv|flow|both] [--nodes 8] [--shards 64]
//!                [--keys 262144] [--requests-per-proc 131072]
//!                [--theta 0.99] [--write-pct 10] [--seed 24301]
//!                [--mean-gap-ns 4000000] [--mode open|closed] [--out FILE]
//!                [--trace FILE] [--check --baseline FILE [--tolerance 0.0]]
//!
//! Defaults drive ≥1M requests through the KV store (8 procs × 128Ki).
//! The CI smoke job runs a reduced geometry against
//! `results/BENCH_server_baseline.json`; regenerate that baseline with
//! the exact flags recorded in its `config` object.

use numa_machine::MachineConfig;
use platinum_analysis::report::json::Value;
use platinum_analysis::report::Table;
use platinum_bench::check::check_section;
use platinum_bench::{Args, TraceSink};
use platinum_runtime::sim::{Sim, SimBuilder};
use platinum_server::{
    run_closed_loop, run_open_loop, DriverReport, FlowConfig, FlowTables, KvConfig, KvTable,
    ServerPhase, TrafficConfig, Workload,
};

struct BenchConfig {
    nodes: usize,
    shards: usize,
    traffic: TrafficConfig,
    mode: ServerPhase,
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

fn drive<W: Workload>(sim: &Sim, w: &W, cfg: &BenchConfig) -> DriverReport {
    match cfg.mode {
        ServerPhase::OpenLoop => {
            let schedule = cfg.traffic.schedule(cfg.nodes);
            run_open_loop(sim, w, cfg.nodes, &schedule)
        }
        ServerPhase::ClosedLoop => {
            let per_proc = cfg.traffic.per_proc_schedules(cfg.nodes);
            run_closed_loop(sim, w, &per_proc)
        }
    }
}

fn run_kv(cfg: &BenchConfig) -> WorkloadResult {
    let mut sim = boot(cfg.nodes);
    let kv = KvTable::stage(KvConfig::for_keys(cfg.traffic.keys, cfg.shards), &mut sim);
    let report = drive(&sim, &kv, cfg);
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

fn run_flow(cfg: &BenchConfig) -> WorkloadResult {
    let mut sim = boot(cfg.nodes);
    let ft = FlowTables::stage(FlowConfig::default(), &mut sim);
    let report = drive(&sim, &ft, cfg);
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
        ("name", Value::Str(r.name.to_string())),
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

fn artifact(cfg: &BenchConfig, results: &[WorkloadResult]) -> String {
    let t = &cfg.traffic;
    Value::obj(vec![
        ("bench", Value::Str("server_bench".to_string())),
        (
            "mode",
            Value::Str(
                match cfg.mode {
                    ServerPhase::OpenLoop => "open",
                    ServerPhase::ClosedLoop => "closed",
                }
                .to_string(),
            ),
        ),
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
    .to_json()
}

/// The fields the `--check` gate compares. All are exact integers under
/// the deterministic open-loop driver.
fn checked_fields(r: &WorkloadResult) -> [(&'static str, u64); 8] {
    let rep = &r.report;
    [
        ("requests", rep.requests),
        ("elapsed_ns", rep.elapsed_ns),
        ("p50_ns", rep.latency.p50()),
        ("p99_ns", rep.latency.p99()),
        ("p999_ns", rep.latency.p999()),
        ("checksum", r.checksum),
        ("latency_sum_ns", rep.latency.sum()),
        ("retries", rep.retries),
    ]
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

fn main() {
    let args = Args::parse();
    let workload = args
        .get::<String>("--workload")
        .unwrap_or_else(|| "both".to_string());
    let nodes = args.get_or("--nodes", 8usize);
    let mode = match args
        .get::<String>("--mode")
        .unwrap_or_else(|| "open".to_string())
        .as_str()
    {
        "open" => ServerPhase::OpenLoop,
        "closed" => ServerPhase::ClosedLoop,
        other => panic!("unknown mode {other:?} (expected open or closed)"),
    };
    let cfg = BenchConfig {
        nodes,
        shards: args.get_or("--shards", 64usize),
        traffic: TrafficConfig {
            seed: args.get_or("--seed", 24_301u64),
            // 256Ki keys → a 16 MB table, right at the per-node frame
            // pool: the measured regime mixes coherence traffic (write
            // invalidations on hot pages) with mild replacement
            // pressure. Push --keys well past the pool to study pure
            // frame thrash, or shrink it for a fully-replicable table.
            keys: args.get_or("--keys", 1u64 << 18),
            requests_per_proc: args.get_or("--requests-per-proc", 1usize << 17),
            theta: args.get_or("--theta", 0.99f64),
            write_pct: args.get_or("--write-pct", 10u32),
            // The simulated machine serves a faulting request in roughly
            // a millisecond (a page copy is ~1 ms of virtual time), so
            // the default arrival rate sits below saturation: p50 then
            // reflects service time and the tail reflects write-burst
            // queueing, rather than every number measuring pure backlog.
            mean_interarrival_ns: args.get_or("--mean-gap-ns", 4_000_000u64),
            ..TrafficConfig::default()
        },
        mode,
    };
    let out = args
        .get::<String>("--out")
        .unwrap_or_else(|| "BENCH_server.json".to_string());
    let sink = TraceSink::from_args(&args);

    println!(
        "Server tier: {} requests per workload, {} procs, {} mode\n",
        cfg.nodes * cfg.traffic.requests_per_proc,
        cfg.nodes,
        match cfg.mode {
            ServerPhase::OpenLoop => "open-loop (deterministic)",
            ServerPhase::ClosedLoop => "closed-loop (saturation)",
        }
    );

    let mut results = Vec::new();
    if workload == "kv" || workload == "both" {
        if let Some(s) = &sink {
            s.phase("kv");
        }
        results.push(run_kv(&cfg));
    }
    if workload == "flow" || workload == "both" {
        if let Some(s) = &sink {
            s.phase("flow");
        }
        results.push(run_flow(&cfg));
    }
    assert!(
        !results.is_empty(),
        "unknown workload {workload:?} (expected kv, flow, both)"
    );

    println!("{}", table(&results));

    std::fs::write(&out, artifact(&cfg, &results)).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("artifact written to {out}");
    platinum_bench::trace_out::finish(sink);

    if args.flag("--check") {
        assert!(
            cfg.mode == ServerPhase::OpenLoop,
            "--check requires the deterministic open-loop mode"
        );
        let path: String = args.get("--baseline").expect("--check needs --baseline");
        let tolerance = args.get_or("--tolerance", 0.0f64);
        let baseline =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let mut ok = true;
        for r in &results {
            ok &= check_section(&baseline, "name", r.name, &checked_fields(r), tolerance);
        }
        if !ok {
            eprintln!("server_bench diverged from {path} (tolerance {tolerance})");
            std::process::exit(1);
        }
    }
}
