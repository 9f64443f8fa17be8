//! The Figure-1-style policy matrix: capture each application's
//! reference stream once under PLATINUM, then replay it under the five
//! placement policies and tabulate per-policy virtual time,
//! remote-reference ratio, and freeze/defrost counts.
//!
//! One execution + five replays per application — the comparison is over
//! *identical* reference streams, so differences are attributable to the
//! policy alone. The PLATINUM replay doubles as a self-check: it must
//! reproduce the live capture run bit for bit, and on gauss the Fig. 1
//! ordering (coherent < local-only < remote-only) is asserted.
//!
//! ```text
//! cargo run --release --bin policy_matrix
//! cargo run --release --bin policy_matrix -- --n 80 --apps gauss --json
//! ```
//!
//! Flags: `--nodes N` (4), `--procs P` (4), `--n N` (gauss matrix, 96),
//! `--sort-n N` (2048), `--epochs E` (3), `--apps a,b,c`
//! (gauss,mergesort,neural; `kv` adds the server workload), `--workload
//! W` (run only that workload — `policy_matrix --workload kv` sweeps the
//! key-value store alone), `--topology T` (flat; `hier2`/`hier2x4` read
//! the comparison on a hierarchical machine — pair with `--nodes 64
//! --procs 64`), `--kv-keys N` (4096), `--kv-requests N`
//! (requests per processor, 6000), `--kv-gap-ns N` (5000: a saturating
//! arrival rate, so per-policy elapsed reflects service cost, not idle
//! pacing), `--json` (emit JSON instead of Markdown), `--out PATH` (also
//! write the JSON to a file).

use std::fmt::Write as _;

use numa_machine::{TimingConfig, Topology};
use platinum::{PolicyKind, PtableConfig, PtablePlacement};
use platinum_apps::capture::{
    record_gauss, record_kv, record_mergesort, record_neural, CapturedRun,
};
use platinum_apps::gauss::GaussConfig;
use platinum_apps::mergesort::SortConfig;
use platinum_apps::neural::NeuralConfig;
use platinum_reftrace::{ReplayOptions, ReplayOutcome};
use platinum_server::{KvConfig, TrafficConfig};

use crate::Args;

/// One cell row of the matrix: an (app, policy) pair.
struct Row {
    app: String,
    policy: &'static str,
    elapsed_ns: u64,
    remote_ratio: f64,
    freezes: u64,
    defrost_runs: u64,
    replications: u64,
    migrations: u64,
    remote_maps: u64,
    /// PLATINUM rows only: replay reproduced the live run exactly.
    bit_identical: Option<bool>,
    /// PLATINUM rows only: elapsed time of the same trace replayed with
    /// replicated page tables (`PtablePlacement::ReplicatedOnFault`)
    /// instead of the centralized default — the replicated-vs-centralized
    /// page-table comparison over an identical reference stream.
    ptable_replicated_ns: Option<u64>,
}

fn remote_ratio(run: &platinum_runtime::measure::RunStats) -> f64 {
    let c = run.merged_counters();
    let remote = c.remote_reads + c.remote_writes + c.remote_atomics;
    let total = c.total_refs();
    if total == 0 {
        0.0
    } else {
        remote as f64 / total as f64
    }
}

/// Replays `captured` under every Fig. 1 policy — the five replays are
/// independent machines, so each gets its own host thread — and returns
/// the rows, asserting that the PLATINUM replay reproduces the live run
/// bit for bit.
fn sweep(app: &str, captured: &CapturedRun, opts: &ReplayOptions) -> Vec<Row> {
    let mut rows = Vec::new();
    let outs: Vec<ReplayOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = PolicyKind::FIG1_SET
            .into_iter()
            .map(|kind| s.spawn(move || opts.replay(&captured.trace, kind)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    for (kind, out) in PolicyKind::FIG1_SET.into_iter().zip(outs) {
        let last = out.phases.last().expect("trace has a measured phase");
        let bit_identical = if kind == PolicyKind::Platinum {
            let same_as_live = last
                .stats
                .workers
                .iter()
                .zip(&captured.live.run.workers)
                .all(|(r, l)| r.vtime_ns == l.vtime_ns && r.counters == l.counters)
                && out.kernel == captured.live.kernel_stats;
            assert!(
                same_as_live,
                "{app}: PLATINUM replay diverged from the live run \
                 (replay {} ns vs live {} ns)",
                last.stats.elapsed_ns(),
                captured.live.elapsed_ns,
            );
            Some(same_as_live)
        } else {
            None
        };
        // The replicated-page-table column: replay the identical stream
        // once more under ReplicatedOnFault. The trace was captured with
        // centralized tables, so live-vs-replay identity cannot hold
        // here; what must hold is replay determinism — two replicated
        // replays agree bit for bit — asserted by running it twice.
        let ptable_replicated_ns = if kind == PolicyKind::Platinum {
            let replicated = ReplayOptions {
                ptable: Some(PtableConfig::with_placement(
                    PtablePlacement::ReplicatedOnFault,
                )),
                ..opts.clone()
            };
            let a = replicated.replay(&captured.trace, kind);
            let b = replicated.replay(&captured.trace, kind);
            let deterministic = a.phases.iter().zip(&b.phases).all(|(x, y)| {
                x.stats
                    .workers
                    .iter()
                    .zip(&y.stats.workers)
                    .all(|(u, v)| u.vtime_ns == v.vtime_ns && u.counters == v.counters)
            }) && a.kernel == b.kernel;
            assert!(
                deterministic,
                "{app}: two replicated-ptable replays diverged ({} ns vs {} ns)",
                a.measured_elapsed_ns(),
                b.measured_elapsed_ns(),
            );
            Some(a.measured_elapsed_ns())
        } else {
            None
        };
        rows.push(Row {
            app: app.to_string(),
            policy: kind.name(),
            elapsed_ns: out.measured_elapsed_ns(),
            remote_ratio: out.measured_remote_ratio(),
            freezes: out.kernel.freezes,
            defrost_runs: out.kernel.defrost_runs,
            replications: out.kernel.replications,
            migrations: out.kernel.migrations,
            remote_maps: out.kernel.remote_maps,
            bit_identical,
            ptable_replicated_ns,
        });
    }
    rows
}

fn elapsed_of(rows: &[Row], app: &str, kind: PolicyKind) -> u64 {
    rows.iter()
        .find(|r| r.app == app && r.policy == kind.name())
        .map(|r| r.elapsed_ns)
        .expect("policy row present")
}

fn markdown(rows: &[Row]) -> String {
    let mut s = String::new();
    s.push_str(
        "| app | policy | vtime (ms) | remote refs | freezes | defrosts \
         | replications | migrations | remote maps | repl-ptable vtime (ms) |\n",
    );
    s.push_str("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|\n");
    for r in rows {
        let check = match r.bit_identical {
            Some(true) => " *(= live run)*",
            _ => "",
        };
        let ptable = match r.ptable_replicated_ns {
            Some(ns) => format!("{:.3}", ns as f64 / 1e6),
            None => "—".to_string(),
        };
        let _ = writeln!(
            s,
            "| {} | {}{} | {:.3} | {:.1}% | {} | {} | {} | {} | {} | {} |",
            r.app,
            r.policy,
            check,
            r.elapsed_ns as f64 / 1e6,
            r.remote_ratio * 100.0,
            r.freezes,
            r.defrost_runs,
            r.replications,
            r.migrations,
            r.remote_maps,
            ptable,
        );
    }
    s
}

fn json(
    rows: &[Row],
    nodes: usize,
    procs: usize,
    topology: &str,
    checks: &[(String, bool)],
) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"nodes\":{nodes},\"procs\":{procs},\"topology\":\"{topology}\",\"rows\":["
    );
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"app\":\"{}\",\"policy\":\"{}\",\"elapsed_ns\":{},\
             \"remote_ratio\":{:.6},\"freezes\":{},\"defrost_runs\":{},\
             \"replications\":{},\"migrations\":{},\"remote_maps\":{}",
            r.app,
            r.policy,
            r.elapsed_ns,
            r.remote_ratio,
            r.freezes,
            r.defrost_runs,
            r.replications,
            r.migrations,
            r.remote_maps,
        );
        if let Some(b) = r.bit_identical {
            let _ = write!(s, ",\"bit_identical\":{b}");
        }
        if let Some(ns) = r.ptable_replicated_ns {
            let _ = write!(s, ",\"ptable_replicated_ns\":{ns}");
        }
        s.push('}');
    }
    s.push_str("],\"checks\":{");
    for (i, (name, ok)) in checks.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{name}\":{ok}");
    }
    s.push_str("}}");
    s
}

/// Entry point shared by the `policy_matrix` binaries: parses CLI args,
/// captures the requested apps, sweeps the Fig. 1 policies, prints the
/// table, and asserts the bit-identity and ordering self-checks.
pub fn run() {
    let args = Args::parse();
    let nodes = args.get_or("--nodes", 4usize);
    let procs = args.get_or("--procs", 4usize).min(nodes);
    let n = args.get_or("--n", 96usize);
    let sort_n = args.get_or("--sort-n", 2048usize);
    let epochs = args.get_or("--epochs", 3usize);
    let kv_keys = args.get_or("--kv-keys", 4096u64);
    let kv_requests = args.get_or("--kv-requests", 6000usize);
    let kv_gap_ns = args.get_or("--kv-gap-ns", 5_000u64);
    let apps = args
        .get::<String>("--workload")
        .or_else(|| args.get::<String>("--apps"))
        .unwrap_or_else(|| "gauss,mergesort,neural".to_string());
    let as_json = args.flag("--json");
    // An explicit machine description: `--topology hier2 --nodes 64`
    // reads the same policy comparison on a big hierarchical machine.
    // Capture and every replay boot from this one value, so the
    // PLATINUM bit-identity self-check still holds.
    let topo_name = args.get::<String>("--topology");
    let opts = ReplayOptions {
        topology: topo_name.as_deref().map(|name| {
            Topology::by_name(name, nodes, &TimingConfig::default()).unwrap_or_else(|| {
                panic!("unknown --topology {name:?} (expected flat, hier2, hier2x4)")
            })
        }),
        ptable: None,
    };

    let mut rows = Vec::new();
    let mut checks: Vec<(String, bool)> = Vec::new();
    for app in apps.split(',').map(str::trim).filter(|a| !a.is_empty()) {
        let captured = match app {
            "gauss" => record_gauss(nodes, procs, &GaussConfig::with_n(n), &opts),
            "mergesort" => record_mergesort(nodes, procs, &SortConfig::with_n(sort_n), &opts),
            "neural" => record_neural(nodes, procs, &NeuralConfig::with_epochs(epochs), &opts).0,
            "kv" => record_kv(
                nodes,
                procs,
                KvConfig::for_keys(kv_keys, 8),
                &TrafficConfig {
                    keys: kv_keys,
                    requests_per_proc: kv_requests,
                    mean_interarrival_ns: kv_gap_ns,
                    // Read-heavy, no bursts: at matrix scale the table
                    // is only ~64 pages, so the default 20%+ write mix
                    // makes every page write-hot and no placement can
                    // replicate profitably. A 2% update rate keeps the
                    // hot pages read-mostly — the regime where the
                    // placement policies actually separate.
                    write_pct: 2,
                    burst_every: 0,
                    ..TrafficConfig::default()
                },
                &opts,
            ),
            other => panic!("unknown app {other:?} (expected gauss, mergesort, neural, kv)"),
        };
        if !as_json {
            println!(
                "captured {app}: {} ops, live PLATINUM time {:.3} ms, \
                 remote refs {:.1}%",
                captured.trace.total_ops(),
                captured.live.elapsed_ns as f64 / 1e6,
                remote_ratio(&captured.live.run) * 100.0,
            );
        }
        rows.extend(sweep(app, &captured, &opts));

        if app == "kv" && opts.topology.is_none() {
            // The serve phase arrives faster than any policy can serve
            // (5 µs mean gap), so per-policy elapsed is service cost:
            // the five placements must price the same request stream
            // measurably differently, and never replicating a
            // read-mostly hot table must cost more than coherent
            // placement.
            let elapsed: Vec<u64> = PolicyKind::FIG1_SET
                .iter()
                .map(|&k| elapsed_of(&rows, app, k))
                .collect();
            let mut distinct = elapsed.clone();
            distinct.sort_unstable();
            distinct.dedup();
            checks.push(("kv_policy_spread".into(), distinct.len() >= 4));
            let (min, max) = (elapsed.iter().min().unwrap(), elapsed.iter().max().unwrap());
            assert!(
                *max > *min + *min / 100,
                "kv: no measurable policy spread (elapsed {elapsed:?})"
            );
            // A sharded KV table is fine-grain write-shared at page
            // granularity (every page holds some written slot), the
            // regime §6 of the paper calls out as hostile to page-level
            // coherence: replication cannot amortize before the next
            // invalidation, so static remote placement is the floor.
            // What PLATINUM guarantees there is *bounded* damage — the
            // freeze mechanism converges hot pages to remote mapping, so
            // coherent memory lands near the remote floor instead of
            // thrashing arbitrarily far past it. Assert that bound.
            let coherent = elapsed_of(&rows, app, PolicyKind::Platinum);
            let remote = elapsed_of(&rows, app, PolicyKind::RemoteAlways);
            checks.push((
                "kv_freeze_bounds_coherent_near_remote_floor".into(),
                coherent <= remote + remote / 2,
            ));
            assert!(
                coherent <= remote + remote / 2,
                "kv: freezing failed to bound coherent memory near the \
                 remote floor (coherent {coherent} vs remote {remote})"
            );
            // ... and the freeze escape hatch is what provides that
            // bound: naive replication (same protocol, no freezing)
            // re-copies hot pages after every invalidation and falls
            // far behind.
            let replicate = elapsed_of(&rows, app, PolicyKind::ReplicateOnly);
            checks.push((
                "kv_freeze_beats_naive_replication".into(),
                coherent < replicate,
            ));
            assert!(
                coherent < replicate,
                "kv: PLATINUM (freezing) should beat replicate-only on a \
                 write-shared table ({coherent} vs {replicate})"
            );
        }

        if app == "gauss" && opts.topology.is_none() {
            // The paper's comparison (Fig. 1): coherent memory beats
            // static placement, and local static beats all-remote.
            // Asserted on the flat Butterfly only: the n thresholds
            // below are crossover points of *that* machine's latencies
            // (inequality (2)); a hierarchical interconnect moves them
            // (2-hop page copies raise the replication amortization
            // bar), so under --topology the values are reported
            // unchecked.
            let coherent = elapsed_of(&rows, app, PolicyKind::Platinum);
            let local = elapsed_of(&rows, app, PolicyKind::LocalFirstTouch);
            let remote = elapsed_of(&rows, app, PolicyKind::RemoteAlways);
            // Tiny matrices cannot amortize replication (inequality (2)):
            // below n≈48 even all-remote placement beats coherent memory,
            // and the full strict ordering only emerges around n=80, so
            // each check is asserted only where the paper's analysis
            // predicts it. The comparison values are still reported.
            checks.push(("gauss_remote_ge_coherent".into(), remote >= coherent));
            if n >= 48 {
                assert!(
                    remote >= coherent,
                    "remote-only beat coherent memory on gauss: {remote} < {coherent}"
                );
            }
            if n >= 80 {
                assert!(
                    coherent < local && local < remote,
                    "Fig. 1 ordering failed on gauss: coherent={coherent} \
                     local-only={local} remote-only={remote}"
                );
                checks.push(("gauss_fig1_ordering".into(), true));
            }
        }
    }

    let out = json(
        &rows,
        nodes,
        procs,
        topo_name.as_deref().unwrap_or("flat"),
        &checks,
    );
    if as_json {
        println!("{out}");
    } else {
        println!("\n{}", markdown(&rows));
        for (name, ok) in &checks {
            println!("check {name}: {}", if *ok { "PASS" } else { "FAIL" });
        }
    }
    if let Some(path) = args.get::<String>("--out") {
        std::fs::write(&path, out).expect("write --out file");
        eprintln!("wrote {path}");
    }
}
