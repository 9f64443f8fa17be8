//! Drives the built `repro` binary: every exact result against its
//! committed golden file, the artifact codec, the flag grammar, a
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

/// ci.yml's `server_bench` geometry.
const SERVER_CI: [&str; 5] = [
    "server_bench",
    "--nodes=4",
    "--shards=16",
    "--keys=16384",
    "--requests-per-proc=2048",
];

/// Every exact result, one row per invocation, and the file under
/// `results/` it must equal byte for byte: the `--out` artifact for a
/// `.json` golden, stdout for a text one.
const GOLDEN: [(&[&str], &str); 7] = [
    (&["table1_smin"], "table1.txt"),
    (&["sec4_microbench"], "sec4.txt"),
    (&["crossover", "--procs", "2"], "crossover_p2.txt"),
    (&["crossover", "--procs", "8"], "crossover_p8.txt"),
    (&SERVER_CI, "BENCH_server_baseline.json"),
    (
        &["ptable_ablation", "--procs", "16,64", "--topology", "hier2"],
        "BENCH_ptable_baseline.json",
    ),
    (
        &["policy_matrix", "--workload", "kv"],
        "policy_matrix_kv.json",
    ),
];

/// Where `got` first parts from `want`: the byte offset and about 60
/// bytes of each side from just before it. `None` when they are equal.
fn first_difference(got: &[u8], want: &[u8]) -> Option<String> {
    let at = got.iter().zip(want).position(|(g, w)| g != w);
    let at = at.or((got.len() != want.len()).then(|| got.len().min(want.len())))?;
    let around = |b: &[u8]| {
        let from = at.saturating_sub(20).min(b.len());
        String::from_utf8_lossy(&b[from..(from + 60).min(b.len())]).into_owned()
    };
    Some(format!(
        "first difference at byte {at}:\n  run:       {:?}\n  committed: {:?}",
        around(got),
        around(want)
    ))
}

/// Runs every row of `GOLDEN` whose file `pick` accepts and holds its
/// result to that file; `test` names the scratch directory.
fn hold_to_goldens(test: &str, pick: fn(&str) -> bool) {
    let cwd = scratch(test);
    let rows: Vec<_> = GOLDEN.into_iter().filter(|(_, file)| pick(file)).collect();
    assert!(!rows.is_empty(), "{test} picks no golden row");
    for (args, file) in rows {
        let json = file.ends_with(".json");
        let out_flag: &[&str] = if json { &["--out", "out.json"] } else { &[] };
        let out = repro(&cwd, &[args, out_flag].concat());
        assert_eq!(out.status, 0, "{args:?}: {}{}", out.stdout, out.stderr);
        let got = if json {
            std::fs::read(cwd.join("out.json")).expect("the --out artifact")
        } else {
            out.stdout.into_bytes()
        };
        let golden = std::fs::read(results(file)).expect("the committed golden");
        if let Some(diff) = first_difference(&got, &golden) {
            panic!("{args:?} vs results/{file}: {diff}");
        }
    }
}

// The four tests below split `GOLDEN` between them: the text rows and
// one test per JSON row, so every row is held by exactly one test.

#[test]
fn golden_texts_are_byte_identical() {
    hold_to_goldens("golden_texts", |file| file.ends_with(".txt"));
}

#[test]
fn server_bench_gate_is_exact() {
    hold_to_goldens("golden_server", |file| file == "BENCH_server_baseline.json");
}

#[test]
fn ptable_ablation_gate_is_exact() {
    hold_to_goldens("golden_ptable", |file| file == "BENCH_ptable_baseline.json");
}

#[test]
fn policy_matrix_kv_equals_its_golden() {
    hold_to_goldens("golden_kv", |file| file == "policy_matrix_kv.json");
}

#[test]
fn a_golden_mismatch_names_where_the_bytes_part() {
    assert_eq!(first_difference(b"same", b"same"), None);
    // A 64-bit checksum one apart, as an f64 comparison would miss it.
    let diff = first_difference(
        br#"{"checksum":10266302583755946124}"#,
        br#"{"checksum":10266302583755946123}"#,
    );
    assert!(diff.unwrap().starts_with("first difference at byte 31:"));
    // A section the run has and the golden lacks.
    let diff = first_difference(b"[kv,flow]", b"[kv]").unwrap();
    assert!(diff.starts_with("first difference at byte 3:"), "{diff}");
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

    // `repro` compares nothing with a committed file (the golden table
    // does), and a value no caller sets is a constant: both are unread.
    for gone in [
        &[&SERVER_CI[..], &["--check"]].concat()[..],
        &["ptable_ablation", "--placements", "centralized"],
    ] {
        let out = repro(&cwd, gone);
        assert_eq!(out.status, 2, "{gone:?}: {}", out.stderr);
        assert_eq!(out.stdout, "", "{gone:?} ran");
    }

    // A machine size out of range is a usage error at its read, before
    // anything boots: not a panic deep in the simulator, not a clamp.
    for (args, flag) in [
        (&["fig1_gauss", "--max-procs", "0"][..], "--max-procs"),
        (&["crossover", "--procs", "1"], "--procs"),
        (&["chaos_soak", "--nodes", "2", "--procs", "4"], "--procs"),
    ] {
        let out = repro(&cwd, args);
        assert_ne!(out.status, 0, "{args:?}");
        assert_eq!(out.stdout, "", "{args:?} ran");
        assert!(
            out.stderr.contains(&format!("{flag} must be in")),
            "{}",
            out.stderr
        );
    }

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
    // CI's geometry, without CI's `--out`.
    let out = repro(&cwd, &SERVER_CI);
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
