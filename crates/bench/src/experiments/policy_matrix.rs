//! The Figure-1-style policy matrix: run each workload live under the
//! five placement policies and tabulate per-policy virtual time,
//! remote-reference ratio, and freeze/defrost counts.
//!
//! Every cell is one live run on its own machine, as the paper's Fig. 1
//! compares the same program under each memory system. The applications
//! run as steps on one host thread (`platinum_runtime::step`) and the
//! key-value store's open-loop driver runs each request to completion on
//! one host thread, so a cell is a function of its inputs, and the
//! machines run one after another: two runs of the matrix print the same
//! artifact. A policy's timing feeds back into the program's own
//! synchronisation (a waiter spins longer behind a slow policy), so two
//! cells of one workload need not make the same references. PLATINUM
//! runs once more with replicated page tables
//! (`PtablePlacement::ReplicatedOnFault`) for the `repl-ptable` column.
//! On gauss the Fig. 1 ordering (coherent < local-only < remote-only) is
//! a named check.
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

use numa_machine::{MachineConfig, Topology};
use platinum::trace::json::Value;
use platinum::{PolicyKind, PtableConfig, PtablePlacement, StatsSnapshot};
use platinum_apps::gauss::{self, Gauss, GaussConfig};
use platinum_apps::mergesort::{Sort, SortConfig};
use platinum_apps::neural::{Neural, NeuralConfig};
use platinum_runtime::measure::RunStats;
use platinum_runtime::sim::{Sim, SimBuilder};
use platinum_server::{run_open_loop, KvConfig, KvTable, TrafficConfig};

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
    /// PLATINUM rows only: elapsed time of the same workload run with
    /// replicated page tables (`PtablePlacement::ReplicatedOnFault`)
    /// instead of the centralized default.
    ptable_replicated_ns: Option<u64>,
}

/// What one live run measured.
struct Cell {
    /// The measured phase's elapsed virtual time.
    elapsed_ns: u64,
    /// Share of the measured phase's references served remotely.
    remote_ratio: f64,
    /// The kernel's protocol counters, read before any verification.
    protocol: StatsSnapshot,
}

impl Cell {
    /// An application's cell: `run` is its measured phase, `sim` the
    /// machine it ran on, read before the application verifies itself.
    fn app(run: RunStats, sim: &Sim) -> Self {
        Cell {
            elapsed_ns: run.elapsed_ns(),
            remote_ratio: run.merged_counters().remote_fraction(),
            protocol: sim.kernel.stats().snapshot(),
        }
    }
}

/// The machine every cell boots: `nodes` nodes of 4096 frames, the
/// default page, no skew window (it paces only free-running threads), on
/// the `--topology` description.
struct Machine {
    nodes: usize,
    topology: Option<Topology>,
}

impl Machine {
    fn boot(&self, kind: PolicyKind, placement: PtablePlacement) -> Sim {
        let mut mc = MachineConfig::with_nodes(self.nodes);
        mc.frames_per_node = 4096;
        mc.skew_window_ns = None;
        let mut b = SimBuilder::nodes(self.nodes)
            .machine_config(mc)
            .policy(kind);
        if let Some(t) = &self.topology {
            b = b.topology(t.clone());
        }
        b.ptable(PtableConfig::with_placement(placement)).build()
    }
}

/// The rows of one workload: `cell(kind, placement)` once per Fig. 1
/// policy on centralized page tables, in `FIG1_SET` order, and PLATINUM
/// once more on replicated ones. The machines run one after another on
/// the calling thread: a processor's trace ring takes one producer, so
/// machines sharing the tracer must not run at once. Each machine's
/// events go under its own `--trace` phase.
fn sweep(
    run: &Run,
    app: &str,
    mut cell: impl FnMut(PolicyKind, PtablePlacement) -> Cell,
) -> Vec<Row> {
    let cells: Vec<Cell> = PolicyKind::FIG1_SET
        .into_iter()
        .map(|kind| {
            run.phase(&format!("{app} {}", kind.name()));
            cell(kind, PtablePlacement::Centralized)
        })
        .collect();
    let platinum = PolicyKind::Platinum;
    run.phase(&format!("{app} {} replicated page tables", platinum.name()));
    let replicated = cell(platinum, PtablePlacement::ReplicatedOnFault);
    PolicyKind::FIG1_SET
        .into_iter()
        .zip(cells)
        .map(|(kind, c)| Row {
            app: app.to_string(),
            policy: kind.name(),
            elapsed_ns: c.elapsed_ns,
            remote_ratio: c.remote_ratio,
            freezes: c.protocol.freezes,
            defrost_runs: c.protocol.defrost_runs,
            replications: c.protocol.replications,
            migrations: c.protocol.migrations,
            remote_maps: c.protocol.remote_maps,
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
        let ptable = match r.ptable_replicated_ns {
            Some(ns) => format!("{:.3}", ns as f64 / 1e6),
            None => "—".to_string(),
        };
        let _ = writeln!(
            s,
            "| {} | {} | {:.3} | {:.1}% | {} | {} | {} | {} | {} | {} |",
            r.app,
            r.policy,
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

/// Runs each requested workload live under the Fig. 1 policies, prints
/// the table, and records the named checks.
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
    let topo_name: Option<String> = args.get("--topology");
    let machine = Machine {
        nodes,
        topology: topo_name.as_deref().map(|name| topology(name, nodes)),
    };
    run.start(Artifact::Json);

    let mut rows = Vec::new();
    for app in apps.iter().map(String::as_str) {
        rows.extend(match app {
            "gauss" => {
                let cfg = GaussConfig::with_n(n);
                let want = gauss::reference_checksum(&cfg);
                sweep(run, app, |kind, placement| {
                    let mut sim = machine.boot(kind, placement);
                    let g = Gauss::stage(&mut sim, &cfg, procs);
                    g.init(&mut sim);
                    let cell = Cell::app(g.measured(&mut sim), &sim);
                    assert_eq!(g.checksum(&mut sim), want, "gauss under {kind:?}");
                    cell
                })
            }
            "mergesort" => {
                let cfg = SortConfig::with_n(2048);
                sweep(run, app, |kind, placement| {
                    let mut sim = machine.boot(kind, placement);
                    let sort = Sort::stage(&mut sim, &cfg, procs);
                    sort.init(&mut sim);
                    let cell = Cell::app(sort.measured(&mut sim), &sim);
                    sort.verify(&mut sim);
                    cell
                })
            }
            "neural" => {
                let cfg = NeuralConfig::with_epochs(epochs);
                sweep(run, app, |kind, placement| {
                    let mut sim = machine.boot(kind, placement);
                    let net = Neural::stage(&mut sim, &cfg, procs);
                    net.init(&mut sim);
                    // No evaluation pass: training is unsynchronised, so
                    // its error depends on the policy's timing and
                    // verifies nothing.
                    Cell::app(net.measured(&mut sim), &sim)
                })
            }
            "kv" => {
                let traffic = TrafficConfig {
                    keys: kv_keys,
                    requests_per_proc: kv_requests,
                    mean_interarrival_ns: 5_000,
                    // Read-heavy, no bursts: at matrix scale the table is
                    // only ~64 pages, so the default 20%+ write mix makes
                    // every page write-hot and no placement can replicate
                    // profitably. A 2% update rate keeps the hot pages
                    // read-mostly — the regime where the placement
                    // policies actually separate.
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
                let schedule = traffic.schedule(procs);
                let mut checksum = None;
                sweep(run, app, |kind, placement| {
                    let mut sim = machine.boot(kind, placement);
                    let kv = KvTable::stage(kcfg.clone(), &mut sim);
                    let report = run_open_loop(&sim, &kv, procs, &schedule);
                    let audit = sim
                        .spawn(0, |ctx| kv.verify(ctx))
                        .expect("processor 0 free after the driver")
                        .expect("quiesced table verifies");
                    assert_eq!(audit.occupied, kcfg.keys, "keys lost from the table");
                    // Placement moves data, never changes it: every
                    // policy must leave the table the same requests
                    // produce.
                    assert_eq!(
                        *checksum.get_or_insert(audit.checksum),
                        audit.checksum,
                        "kv: two policies left different tables"
                    );
                    Cell {
                        elapsed_ns: report.elapsed_ns,
                        remote_ratio: report.counters.remote_fraction(),
                        protocol: report.protocol,
                    }
                })
            }
            other => unreachable!("workload {other:?} was checked at parse time"),
        });

        if app == "kv" && machine.topology.is_none() {
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

        if app == "gauss" && machine.topology.is_none() {
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
