//! Drives the built `repro` binary: the golden texts, the two exact
//! gates as CI runs them, the artifact codec, the flag grammar, a
//! smallest configuration of every experiment, and (ignored, for CI's
//! `paper` job) every paper experiment at its default size.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use platinum::trace::json::{self, Value};

/// A committed file under the repository's `results/`.
fn results(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    path.join(file).to_str().expect("UTF-8 path").to_string()
}

/// A fresh, empty working directory for the test called `test`.
fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

struct Output {
    status: i32,
    stdout: String,
    stderr: String,
}

fn repro(cwd: &Path, args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(cwd)
        .env_remove("RUST_BACKTRACE")
        .output()
        .expect("run repro");
    Output {
        status: out.status.code().expect("repro exited"),
        stdout: String::from_utf8(out.stdout).expect("UTF-8 stdout"),
        stderr: String::from_utf8(out.stderr).expect("UTF-8 stderr"),
    }
}

fn files_in(dir: &Path) -> Vec<String> {
    let entries = std::fs::read_dir(dir).expect("read scratch dir");
    entries
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect()
}

fn read_json(path: &str) -> Value {
    json::parse(&std::fs::read_to_string(path).expect("read JSON file")).expect("strict JSON")
}

/// `value[key]`, mutably.
fn field<'v>(value: &'v mut Value, key: &str) -> &'v mut Value {
    let Value::Obj(fields) = value else {
        panic!("not an object");
    };
    let hit = fields.iter_mut().find(|(k, _)| k == key);
    &mut hit.unwrap_or_else(|| panic!("no key {key:?}")).1
}

/// ci.yml's `server_bench` geometry.
const SERVER_CI: [&str; 9] = [
    "server_bench",
    "--nodes=4",
    "--shards=16",
    "--keys=16384",
    "--requests-per-proc=2048",
    "--out",
    "out.json",
    "--check",
    "--baseline",
];

#[test]
fn golden_texts_are_byte_identical() {
    let cwd = scratch("golden");
    for (args, file) in [
        (&["table1_smin"][..], "table1.txt"),
        (&["sec4_microbench"], "sec4.txt"),
        (&["crossover", "--procs", "2"], "crossover_p2.txt"),
        (&["crossover", "--procs", "8"], "crossover_p8.txt"),
    ] {
        let out = repro(&cwd, args);
        assert_eq!(out.status, 0, "{args:?}: {}", out.stderr);
        let golden = std::fs::read_to_string(results(file)).unwrap();
        assert_eq!(out.stdout, golden, "{args:?} vs results/{file}");
    }
}

#[test]
fn server_bench_gate_is_exact() {
    let cwd = scratch("server_gate");
    let baseline = results("BENCH_server_baseline.json");
    let gate = |baseline: &str| repro(&cwd, &[&SERVER_CI[..], &[baseline]].concat());
    let out = gate(&baseline);
    assert_eq!(out.status, 0, "{}{}", out.stdout, out.stderr);
    assert_eq!(
        std::fs::read(cwd.join("out.json")).unwrap(),
        std::fs::read(&baseline).unwrap(),
        "the artifact is the committed baseline, byte for byte"
    );

    // One checked integer off by one — a 64-bit checksum, where an f64
    // comparison would not notice.
    let mut off_by_one = read_json(&baseline);
    let Value::Arr(workloads) = field(&mut off_by_one, "workloads") else {
        panic!("workloads is an array");
    };
    let Value::Int(sum) = field(&mut workloads[0], "checksum") else {
        panic!("checksum is an integer");
    };
    assert!(*sum > 1 << 53);
    *sum += 1;
    std::fs::write(cwd.join("off_by_one.json"), off_by_one.to_json()).unwrap();
    let out = gate("off_by_one.json");
    assert_eq!(out.status, 1, "{}{}", out.stdout, out.stderr);
    assert_eq!(out.stdout.matches("MISMATCH").count(), 1, "{}", out.stdout);

    // A section the baseline lacks is a failure, not a skip.
    let mut one_section = read_json(&baseline);
    let Value::Arr(workloads) = field(&mut one_section, "workloads") else {
        panic!("workloads is an array");
    };
    workloads.pop();
    std::fs::write(cwd.join("one_section.json"), one_section.to_json()).unwrap();
    let out = gate("one_section.json");
    assert_eq!(out.status, 1, "{}{}", out.stdout, out.stderr);
    assert!(
        out.stdout.contains("MISSING from baseline"),
        "{}",
        out.stdout
    );
}

#[test]
fn ptable_ablation_gate_is_exact() {
    let cwd = scratch("ptable_gate");
    let baseline = results("BENCH_ptable_baseline.json");
    let args = ["ptable_ablation", "--procs", "16,64", "--topology", "hier2"];
    let gate = ["--out", "out.json", "--check", "--baseline", &baseline];
    let out = repro(&cwd, &[&args[..], &gate].concat());
    assert_eq!(out.status, 0, "{}{}", out.stdout, out.stderr);

    // The artifact differs from the baseline in host throughput only.
    let without_host_time = |path: &str| {
        let mut v = read_json(path);
        let Value::Arr(cells) = field(&mut v, "cells") else {
            panic!("cells is an array");
        };
        for cell in cells {
            *field(cell, "host_mops") = Value::Null;
        }
        v
    };
    let out = cwd.join("out.json");
    assert_eq!(
        without_host_time(out.to_str().unwrap()),
        without_host_time(&baseline)
    );
}

#[test]
fn policy_matrix_json_parses_and_replay_is_bit_identical() {
    let cwd = scratch("policy_matrix");
    let args = [
        "policy_matrix",
        "--n",
        "48",
        "--workload",
        "gauss",
        "--json",
    ];
    let out = repro(&cwd, &args);
    assert_eq!(out.status, 0, "{}", out.stderr);
    let v = json::parse(&out.stdout).expect("--json prints the artifact and nothing else");
    let rows = v.get("rows").and_then(Value::as_arr).expect("rows");
    let platinum = rows
        .iter()
        .find(|r| r.get("policy").and_then(Value::as_str) == Some("PLATINUM"))
        .expect("a PLATINUM row");
    assert_eq!(platinum.get("bit_identical"), Some(&Value::Bool(true)));
}

/// The kv matrix at its default size: one machine per policy drives the
/// same open-loop schedule on one host thread, so two runs print the same
/// artifact, and §6's bounded-damage checks hold.
#[test]
fn policy_matrix_kv_is_deterministic_and_green() {
    let cwd = scratch("policy_matrix_kv");
    let args = ["policy_matrix", "--workload", "kv", "--json"];
    let first = repro(&cwd, &args);
    assert_eq!(first.status, 0, "{}{}", first.stdout, first.stderr);
    assert_eq!(repro(&cwd, &args).stdout, first.stdout, "two runs differ");
    let v = json::parse(&first.stdout).expect("--json prints the artifact and nothing else");
    let rows = v.get("rows").and_then(Value::as_arr).expect("rows");
    assert_eq!(rows.len(), 5);
    assert!(rows
        .iter()
        .all(|r| r.get("app").and_then(Value::as_str) == Some("kv")));
    let checks = v.get("checks").expect("checks");
    for name in [
        "kv_policy_spread",
        "kv_freeze_bounds_coherent_near_remote_floor",
        "kv_freeze_beats_naive_replication",
    ] {
        assert_eq!(checks.get(name), Some(&Value::Bool(true)), "{name}");
    }
}

#[test]
fn unread_arguments_are_rejected_before_boot() {
    let cwd = scratch("flags");
    // The typo that once ran the default 16,64 sweep and reported PASS.
    let out = repro(&cwd, &["ptable_ablation", "--proc", "4"]);
    assert_eq!(out.status, 2, "{}", out.stderr);
    assert_eq!(out.stdout, "", "nothing ran");
    assert!(out.stderr.contains("\"--proc\""), "{}", out.stderr);

    // The accepted set is the set the module reads, plus the shared
    // flags its artifact kind admits.
    let out = repro(&cwd, &["crossover", "--out", "x.json"]);
    assert_eq!(out.status, 2);
    assert!(
        out.stderr
            .ends_with("accepted flags: --procs --ops --trace\n"),
        "{}",
        out.stderr
    );

    // A value may not be another flag: this once wrote a file named
    // `--quick` and ran quick mode.
    let out = repro(&cwd, &["fig1_gauss", "--out", "--quick"]);
    assert_ne!(out.status, 0);
    assert!(out.stderr.contains("--out needs a value"), "{}", out.stderr);

    // One choice, one flag: `--apps` was once read beside `--workload`
    // and silently dropped.
    let out = repro(
        &cwd,
        &["policy_matrix", "--workload", "kv", "--apps", "gauss"],
    );
    assert_eq!(out.status, 2, "{}", out.stderr);
    assert!(out.stderr.contains("\"--apps\""), "{}", out.stderr);

    assert_eq!(repro(&cwd, &["no_such_experiment"]).status, 2);
    assert_eq!(repro(&cwd, &[]).status, 2);
    assert_eq!(files_in(&cwd), Vec::<String>::new());
}

#[test]
fn trace_works_where_it_was_ignored() {
    let cwd = scratch("trace");
    let args = ["--procs", "4", "--mix", "fault_heavy", "--rounds", "300"];
    let args = [&["host_throughput"][..], &args, &["--trace", "T.json"]].concat();
    let out = repro(&cwd, &args);
    assert_eq!(out.status, 0, "{}", out.stderr);
    let trace = read_json(cwd.join("T.json").to_str().unwrap());
    let events = trace.get("traceEvents").and_then(Value::as_arr).unwrap();
    let migrations = events
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some("migrate"));
    assert!(migrations.count() >= 299, "every ping migrates the page");
    // No --out: the trace is the only file written.
    assert_eq!(files_in(&cwd), ["T.json"]);
}

#[test]
fn nothing_is_written_without_out() {
    let cwd = scratch("no_out");
    // The gate's geometry, without the gate's `--out`.
    let out = repro(&cwd, &SERVER_CI[..5]);
    assert_eq!(out.status, 0, "{}", out.stderr);
    assert_eq!(files_in(&cwd), Vec::<String>::new());
}

/// The smallest configuration of every experiment.
const SMALLEST: [&str; 15] = [
    "fig1_gauss --n 16 --max-procs 2",
    "table1_smin --raw --overhead-ns 480000",
    "sec4_microbench",
    "crossover --procs 2 --ops 2",
    "fig5_mergesort --n 256 --max-procs 2",
    "fig6_neural --epochs 1 --max-procs 2",
    "anecdote_freeze --n 24 --procs 2",
    "trace_report --n 24 --procs 2",
    "ablations --ace --procs 2",
    "scaled_speedup --base-n 16 --max-procs 2",
    "policy_matrix --n 16 --workload gauss",
    "server_bench --nodes 2 --shards 2 --keys 64 --requests-per-proc 16",
    "ptable_ablation --procs 2 --pings 50 --kv-keys 64 --kv-requests 8",
    "host_throughput --procs 2 --ops 1000 --rounds 100",
    "chaos_soak --seeds 1",
];

#[test]
fn every_listed_experiment_runs_at_its_smallest_size() {
    let cwd = scratch("smallest");
    let list = repro(&cwd, &["list"]);
    assert_eq!(list.status, 0);
    let listed: BTreeSet<&str> = list
        .stdout
        .lines()
        .map(|l| l.split_whitespace().next().expect("a name per line"))
        .collect();
    let smallest = SMALLEST.map(|line| line.split(' ').collect::<Vec<_>>());
    let covered: BTreeSet<&str> = smallest.iter().map(|args| args[0]).collect();
    assert_eq!(listed, covered, "`repro list` vs this file's table");

    for mut args in smallest {
        let out = repro(&cwd, &args);
        assert_eq!(out.status, 0, "{args:?}: {}{}", out.stdout, out.stderr);
        // A check this size skips must run live at paper size.
        assert!(
            !out.stdout.contains("SKIPPED") || PAPER.contains(&args[0]),
            "{args:?} skips a check no paper-size run makes: {}",
            out.stdout
        );
        // A flag nobody reads stops every experiment before it prints.
        args.push("--no-such-flag");
        let typo = repro(&cwd, &args);
        assert_eq!(typo.status, 2, "{args:?}: {}", typo.stderr);
        assert_eq!(typo.stdout, "", "{args:?} ran before rejecting the flag");
    }
    assert_eq!(files_in(&cwd), Vec::<String>::new());
}

/// The experiments that reproduce the paper's figures, tables and
/// claims, plus `policy_matrix` (whose Fig. 1 checks its smallest size
/// skips), each run at its default size.
const PAPER: [&str; 10] = [
    "fig1_gauss",
    "fig5_mergesort",
    "fig6_neural",
    "ablations",
    "anecdote_freeze",
    "scaled_speedup",
    "crossover",
    "table1_smin",
    "sec4_microbench",
    "policy_matrix",
];

/// Every paper claim is a live check at paper size: each experiment
/// exits 0 with every check run and passed. About 40 s in release.
#[test]
#[ignore = "paper size; run in release with --ignored"]
fn every_paper_experiment_passes_at_paper_size() {
    let cwd = scratch("paper");
    for name in PAPER {
        let out = repro(&cwd, &[name]);
        assert_eq!(out.status, 0, "{name}: {}{}", out.stdout, out.stderr);
        for verdict in ["FAIL", "SKIPPED"] {
            assert!(!out.stdout.contains(verdict), "{name}: {}", out.stdout);
        }
    }
    assert_eq!(files_in(&cwd), Vec::<String>::new());
}
