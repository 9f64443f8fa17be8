//! The Figure-1-style policy matrix: price one reference stream under
//! the five placement policies and tabulate per-policy virtual time,
//! remote-reference ratio, and freeze/defrost counts.
//!
//! The comparison is over *identical* reference streams, so differences
//! are attributable to the policy alone. The three applications get
//! there by capture and replay: each runs once under PLATINUM while its
//! stream is recorded, then the trace is replayed under every policy. The
//! PLATINUM replay doubles as a self-check: it must reproduce the live
//! capture run bit for bit, and on gauss the Fig. 1 ordering (coherent <
//! local-only < remote-only) is a named check. The key-value store needs
//! no capture: the open-loop driver runs each request to completion on
//! one host thread, so one machine per policy driving the same merged
//! schedule executes the same requests in the same order by construction.
//!
//! `--nodes N` (4), `--procs P` (4, at most nodes), `--n N` (gauss
//! matrix, 96), `--epochs E` (3), `--workload a,b,c`
//! (gauss,mergesort,neural; `kv` is the server workload — `--workload kv`
//! sweeps the key-value store alone), `--topology T` (flat;
//! `hier2`/`hier2x4` read the comparison on a hierarchical machine — pair
//! with `--nodes 64 --procs 64`), `--kv-keys N` (4096), `--kv-requests N`
//! (requests per processor, 12000). Merge sort sorts 2048 keys; kv
//! requests arrive every 5 µs on average, a saturating rate, so
//! per-policy elapsed reflects service cost, not idle pacing. The text
//! report is a Markdown table; the artifact carries the same rows plus
//! the named checks.

use std::fmt::Write as _;

use numa_machine::MachineConfig;
use platinum::trace::json::Value;
use platinum::{PolicyKind, PtableConfig, PtablePlacement};
use platinum_apps::capture::{record_gauss, record_mergesort, record_neural, CapturedRun};
use platinum_apps::gauss::GaussConfig;
use platinum_apps::mergesort::SortConfig;
use platinum_apps::neural::NeuralConfig;
use platinum_reftrace::ReplayOptions;
use platinum_server::{run_open_loop, DriverReport, KvConfig, KvTable, Request, TrafficConfig};

use crate::args::{topology, KEYS};
use crate::run::{Artifact, Run};

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
    /// PLATINUM rows of a replayed trace only: replay reproduced the
    /// live run exactly.
    bit_identical: Option<bool>,
    /// PLATINUM rows only: elapsed time of the same stream run with
    /// replicated page tables (`PtablePlacement::ReplicatedOnFault`)
    /// instead of the centralized default — the replicated-vs-centralized
    /// page-table comparison over an identical reference stream.
    ptable_replicated_ns: Option<u64>,
}

/// `f(kind)` for every Fig. 1 policy, in `FIG1_SET` order. Each call
/// boots its own machine, so each gets its own host thread.
fn per_policy<R: Send>(f: impl Fn(PolicyKind) -> R + Sync) -> Vec<R> {
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = PolicyKind::FIG1_SET
            .into_iter()
            .map(|kind| s.spawn(move || f(kind)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// `opts` with replicated page tables.
fn replicated(opts: &ReplayOptions) -> ReplayOptions {
    ReplayOptions {
        ptable: Some(PtableConfig::with_placement(
            PtablePlacement::ReplicatedOnFault,
        )),
        ..opts.clone()
    }
}

/// Replays `captured` under every Fig. 1 policy and returns the rows,
/// asserting that the PLATINUM replay reproduces the live run bit for
/// bit.
fn sweep(app: &str, captured: &CapturedRun, opts: &ReplayOptions) -> Vec<Row> {
    let mut rows = Vec::new();
    let outs = per_policy(|kind| opts.replay(&captured.trace, kind));
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
            let replicated = replicated(opts);
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

/// Drives `schedule` through a fresh kv table on a `kind` machine booted
/// as a capture boots one ([`ReplayOptions::boot`]: 4096 frames per node,
/// the default page, no skew window, the topology and page-table fabric
/// `opts` names); returns the driver's report and the quiesced table's
/// checksum.
fn kv_run(
    nodes: usize,
    procs: usize,
    kcfg: &KvConfig,
    schedule: &[Request],
    opts: &ReplayOptions,
    kind: PolicyKind,
) -> (DriverReport, u64) {
    let page_shift = MachineConfig::default().page_shift;
    let mut sim = opts.boot(nodes, 4096, page_shift, kind);
    let kv = KvTable::stage(kcfg.clone(), &mut sim);
    let report = run_open_loop(&sim, &kv, procs, schedule);
    let audit = sim
        .spawn(0, |ctx| kv.verify(ctx))
        .expect("processor 0 free after the driver")
        .expect("quiesced table verifies");
    assert_eq!(audit.occupied, kcfg.keys, "keys lost from the table");
    (report, audit.checksum)
}

/// The kv rows: one open-loop run per Fig. 1 policy over the same merged
/// schedule, and PLATINUM once more on replicated page tables.
fn kv_sweep(
    nodes: usize,
    procs: usize,
    kcfg: &KvConfig,
    traffic: &TrafficConfig,
    opts: &ReplayOptions,
) -> Vec<Row> {
    let schedule = traffic.schedule(procs);
    let runs = per_policy(|kind| kv_run(nodes, procs, kcfg, &schedule, opts, kind));
    // Placement moves data, never changes it: every policy must leave
    // the table the same requests produce.
    let checksum = runs[0].1;
    assert!(
        runs.iter().all(|(_, c)| *c == checksum),
        "kv: two policies left different tables"
    );
    let platinum = PolicyKind::Platinum;
    let (replicated, _) = kv_run(nodes, procs, kcfg, &schedule, &replicated(opts), platinum);
    PolicyKind::FIG1_SET
        .into_iter()
        .zip(runs)
        .map(|(kind, (rep, _))| Row {
            app: "kv".to_string(),
            policy: kind.name(),
            elapsed_ns: rep.elapsed_ns,
            remote_ratio: rep.counters.remote_fraction(),
            freezes: rep.protocol.freezes,
            defrost_runs: rep.protocol.defrost_runs,
            replications: rep.protocol.replications,
            migrations: rep.protocol.migrations,
            remote_maps: rep.protocol.remote_maps,
            bit_identical: None,
            ptable_replicated_ns: (kind == platinum).then_some(replicated.elapsed_ns),
        })
        .collect()
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

fn artifact(rows: &[Row], nodes: usize, procs: usize, topology: &str, checks: Value) -> Value {
    let row = |r: &Row| {
        let mut fields = vec![
            ("app", Value::str(&*r.app)),
            ("policy", Value::str(r.policy)),
            ("elapsed_ns", Value::Int(r.elapsed_ns)),
            // Six decimals, as the table's percentages need no more.
            (
                "remote_ratio",
                Value::Num((r.remote_ratio * 1e6).round() / 1e6),
            ),
            ("freezes", Value::Int(r.freezes)),
            ("defrost_runs", Value::Int(r.defrost_runs)),
            ("replications", Value::Int(r.replications)),
            ("migrations", Value::Int(r.migrations)),
            ("remote_maps", Value::Int(r.remote_maps)),
        ];
        fields.extend(r.bit_identical.map(|b| ("bit_identical", Value::Bool(b))));
        fields.extend(
            r.ptable_replicated_ns
                .map(|ns| ("ptable_replicated_ns", Value::Int(ns))),
        );
        Value::obj(fields)
    };
    Value::obj(vec![
        ("nodes", Value::Int(nodes as u64)),
        ("procs", Value::Int(procs as u64)),
        ("topology", Value::str(topology)),
        ("rows", Value::Arr(rows.iter().map(row).collect())),
        ("checks", checks),
    ])
}

/// Prices each requested workload's reference stream under the Fig. 1
/// policies, prints the table, and records the bit-identity and ordering
/// self-checks.
pub(crate) fn run(run: &mut Run) {
    let args = &mut run.args;
    let nodes = args.count("--nodes", 1..).unwrap_or(4);
    let procs = args.count("--procs", 1..=nodes).unwrap_or(nodes.min(4));
    let n = args.get_or("--n", 96usize);
    let epochs = args.get_or("--epochs", 3usize);
    let kv_keys = args.count("--kv-keys", KEYS).map_or(4096, |k| k as u64);
    let kv_requests = args.get_or("--kv-requests", 12_000usize);
    let apps: Vec<String> = args
        .list("--workload")
        .unwrap_or_else(|| ["gauss", "mergesort", "neural"].map(String::from).to_vec());
    for app in &apps {
        assert!(
            ["gauss", "mergesort", "neural", "kv"].contains(&app.as_str()),
            "unknown workload {app:?} (expected gauss, mergesort, neural, kv)"
        );
    }
    // An explicit machine description: `--topology hier2 --nodes 64`
    // reads the same policy comparison on a big hierarchical machine.
    // Capture, every replay and every kv run boot from this one value, so
    // the PLATINUM bit-identity self-check still holds.
    let topo_name: Option<String> = args.get("--topology");
    let opts = ReplayOptions {
        topology: topo_name.as_deref().map(|name| topology(name, nodes)),
        ptable: None,
    };
    run.start(Artifact::Json);

    let mut rows = Vec::new();
    for app in apps.iter().map(String::as_str) {
        if app == "kv" {
            let traffic = TrafficConfig {
                keys: kv_keys,
                requests_per_proc: kv_requests,
                mean_interarrival_ns: 5_000,
                // Read-heavy, no bursts: at matrix scale the table is
                // only ~64 pages, so the default 20%+ write mix makes
                // every page write-hot and no placement can replicate
                // profitably. A 2% update rate keeps the hot pages
                // read-mostly — the regime where the placement policies
                // actually separate.
                write_pct: 2,
                burst_every: 0,
                ..TrafficConfig::default()
            };
            say!(
                run,
                "driving kv: {} requests open loop under each policy",
                procs * kv_requests,
            );
            let kcfg = KvConfig::for_keys(kv_keys, 8);
            rows.extend(kv_sweep(nodes, procs, &kcfg, &traffic, &opts));
        } else {
            let captured = match app {
                "gauss" => record_gauss(nodes, procs, &GaussConfig::with_n(n), &opts),
                "mergesort" => record_mergesort(nodes, procs, &SortConfig::with_n(2048), &opts),
                "neural" => {
                    record_neural(nodes, procs, &NeuralConfig::with_epochs(epochs), &opts).0
                }
                other => unreachable!("workload {other:?} was checked at parse time"),
            };
            say!(
                run,
                "captured {app}: {} ops, live PLATINUM time {:.3} ms, \
                 remote refs {:.1}%",
                captured.trace.total_ops(),
                captured.live.elapsed_ns as f64 / 1e6,
                captured.live.run.merged_counters().remote_fraction() * 100.0,
            );
            rows.extend(sweep(app, &captured, &opts));
        }

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
            let (min, max) = (distinct[0], distinct[distinct.len() - 1]);
            run.check(
                "kv_policy_spread",
                distinct.len() >= 4 && max > min + min / 100,
            );
            // A sharded KV table is fine-grain write-shared at page
            // granularity (every page holds some written slot), the
            // regime §6 of the paper calls out as hostile to page-level
            // coherence: replication cannot amortize before the next
            // invalidation, so static remote placement is the floor.
            // What PLATINUM guarantees there is *bounded* damage — the
            // freeze mechanism converges hot pages to remote mapping, so
            // coherent memory lands near the remote floor instead of
            // thrashing arbitrarily far past it. Check that bound.
            let coherent = elapsed_of(&rows, app, PolicyKind::Platinum);
            let remote = elapsed_of(&rows, app, PolicyKind::RemoteAlways);
            run.check(
                "kv_freeze_bounds_coherent_near_remote_floor",
                coherent <= remote + remote / 2,
            );
            // ... and the freeze escape hatch is what provides that
            // bound: naive replication (same protocol, no freezing)
            // re-copies hot pages after every invalidation and falls
            // far behind.
            let replicate = elapsed_of(&rows, app, PolicyKind::ReplicateOnly);
            run.check("kv_freeze_beats_naive_replication", coherent < replicate);
        }

        if app == "gauss" && opts.topology.is_none() {
            // The paper's comparison (Fig. 1): coherent memory beats
            // static placement, and local static beats all-remote.
            // Checked on the flat Butterfly only: the n thresholds
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
            // each check applies only where the paper's analysis
            // predicts it. The comparison values are still reported.
            let too_small = |bar: usize| {
                format!("n = {n} < {bar}: too small to amortize replication, inequality (2)")
            };
            if n >= 48 {
                run.check("gauss_remote_ge_coherent", remote >= coherent);
            } else {
                run.skip("gauss_remote_ge_coherent", too_small(48));
            }
            if n >= 80 {
                run.check("gauss_fig1_ordering", coherent < local && local < remote);
            } else {
                run.skip("gauss_fig1_ordering", too_small(80));
            }
        }
    }

    say!(run, "\n{}", markdown(&rows));
    run.artifact(artifact(
        &rows,
        nodes,
        procs,
        topo_name.as_deref().unwrap_or("flat"),
        run.checks_value(),
    ));
}
