//! Drives the built `repro` binary: every exact result against its
//! committed golden file, the artifact codec, the flag grammar, a
//! smallest configuration of every experiment, and (ignored, for CI's
//! `paper` job) every paper experiment at its default size.

use std::collections::BTreeSet;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

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

#[derive(Debug)]
struct Output {
    status: i32,
    stdout: String,
    stderr: String,
}

/// How long one `repro` run may take: well above the slowest paper-size
/// run (`fig1_gauss`, ~32 s in release on an idle 2-core box), so only a
/// run that stopped making progress reaches it.
const DEADLINE: Duration = Duration::from_secs(300);

fn repro(cwd: &Path, args: &[&str]) -> Output {
    repro_within(cwd, args, DEADLINE)
}

/// Runs `repro args` in `cwd`. A child still running at `deadline` is
/// killed and reaped, and the calling test panics naming its arguments
/// and the time it ran.
///
/// The child writes its stdout and stderr to files of its own under
/// `CARGO_TARGET_TMPDIR`: a pipe nobody drains until exit blocks a child
/// whose output outgrows it, and `cwd` must hold only what `repro`
/// writes there itself.
fn repro_within(cwd: &Path, args: &[&str], deadline: Duration) -> Output {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let logs = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro-output");
    std::fs::create_dir_all(&logs).expect("create the output dir");
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let log = |stream: &str| logs.join(format!("{}-{run}.{stream}", std::process::id()));
    let (out_path, err_path) = (log("stdout"), log("stderr"));
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(cwd)
        .env_remove("RUST_BACKTRACE")
        .stdout(File::create(&out_path).expect("create the stdout file"))
        .stderr(File::create(&err_path).expect("create the stderr file"))
        .spawn()
        .expect("run repro");
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll repro") {
            break status;
        }
        if start.elapsed() >= deadline {
            let _ = child.kill();
            child.wait().expect("reap repro");
            panic!(
                "`repro {}` still running after {:.1?} (deadline {deadline:?}): killed",
                args.join(" "),
                start.elapsed()
            );
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let read = |path: &Path| {
        let text = std::fs::read_to_string(path).expect("UTF-8 output");
        std::fs::remove_file(path).expect("remove the output file");
        text
    };
    Output {
        status: status.code().expect("repro exited"),
        stdout: read(&out_path),
        stderr: read(&err_path),
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
const GOLDEN: [(&[&str], &str); 13] = [
    (&["table1_smin"], "table1.txt"),
    (&["sec4_microbench"], "sec4.txt"),
    (&["crossover", "--procs", "2"], "crossover_p2.txt"),
    (&["crossover", "--procs", "8"], "crossover_p8.txt"),
    (&SERVER_CI, "BENCH_server_baseline.json"),
    (
        &["ptable_ablation", "--procs", "16,64", "--topology", "hier2"],
        "BENCH_ptable_baseline.json",
    ),
    (&["policy_matrix"], "policy_matrix.json"),
    (
        &["policy_matrix", "--workload", "kv"],
        "policy_matrix_kv.json",
    ),
    (&["fig5_mergesort"], "fig5.txt"),
    (&["fig6_neural"], "fig6.txt"),
    (&["anecdote_freeze"], "anecdote.txt"),
    (&["ablations"], "ablations.txt"),
    (&["scaled_speedup"], "scaled.txt"),
];

/// The golden rows of the applications' figures at their default sizes.
const FIGURES: [&str; 5] = [
    "fig5.txt",
    "fig6.txt",
    "anecdote.txt",
    "ablations.txt",
    "scaled.txt",
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

// The six tests below split `GOLDEN` between them: the figures, the
// other text rows and one test per JSON row, so every row is held by
// exactly one test.

#[test]
fn golden_texts_are_byte_identical() {
    hold_to_goldens("golden_texts", |file| {
        file.ends_with(".txt") && !FIGURES.contains(&file)
    });
}

#[test]
fn golden_figures_are_byte_identical() {
    hold_to_goldens("golden_figures", |file| FIGURES.contains(&file));
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
fn policy_matrix_equals_its_golden() {
    hold_to_goldens("golden_matrix", |file| file == "policy_matrix.json");
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

/// Gauss under the five policies at the smallest size the first Fig. 1
/// check applies to: each cell is a live stepped run, so two runs print
/// the same artifact, and remote-always is no faster than PLATINUM.
#[test]
fn policy_matrix_gauss_is_deterministic_and_green() {
    let cwd = scratch("policy_matrix");
    let args = [
        "policy_matrix",
        "--n",
        "48",
        "--workload",
        "gauss",
        "--json",
    ];
    let first = repro(&cwd, &args);
    assert_eq!(first.status, 0, "{}{}", first.stdout, first.stderr);
    assert_eq!(repro(&cwd, &args).stdout, first.stdout, "two runs differ");
    let v = json::parse(&first.stdout).expect("--json prints the artifact and nothing else");
    let checks = v.get("checks").expect("checks");
    assert_eq!(
        checks.get("gauss_remote_ge_coherent"),
        Some(&Value::Bool(true))
    );
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
    // does), a value no caller sets is a constant, and host time is
    // `benchmark/`'s: none of these is an experiment or a flag.
    for gone in [
        &[&SERVER_CI[..], &["--check"]].concat()[..],
        &["ptable_ablation", "--placements", "centralized"],
        &["host_throughput"],
        &["scaled_speedup", "--procs", "16"],
    ] {
        let out = repro(&cwd, gone);
        assert_eq!(out.status, 2, "{gone:?}: {}", out.stderr);
        assert_eq!(out.stdout, "", "{gone:?} ran");
    }

    // A machine or problem size out of range is a usage error at its
    // read, before anything boots or prints: not a panic deep in the
    // simulator, not a clamp, not a degenerate run.
    for (args, flag) in [
        (&["fig1_gauss", "--max-procs", "0"][..], "--max-procs"),
        (&["crossover", "--procs", "1"], "--procs"),
        (&["chaos_soak", "--nodes", "2", "--procs", "4"], "--procs"),
        (&["server_bench", "--shards", "0"], "--shards"),
        (&["server_bench", "--keys", "0"], "--keys"),
        (
            &["policy_matrix", "--workload", "kv", "--kv-keys", "0"],
            "--kv-keys",
        ),
        (&["ptable_ablation", "--kv-keys", "0"], "--kv-keys"),
        (
            &["chaos_soak", "--workload", "kv", "--kv-keys", "0"],
            "--kv-keys",
        ),
        (&["fig1_gauss", "--n", "0"], "--n"),
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
    let args = "ptable_ablation --procs 4 --pings 300 --kv-keys 64 --kv-requests 8 --trace T.json";
    let out = repro(&cwd, &args.split(' ').collect::<Vec<_>>());
    assert_eq!(out.status, 0, "{}", out.stderr);
    let trace = read_json(cwd.join("T.json").to_str().unwrap());
    let events = trace.get("traceEvents").and_then(Value::as_arr).unwrap();
    let migrations = events
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some("migrate"));
    assert!(
        migrations.count() >= 4 * 299,
        "under each of the four placements, every ping after the first migrates the page"
    );
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
const SMALLEST: [&str; 14] = [
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

/// A run that outlives its deadline is killed, and the test fails naming
/// it: a livelocked experiment cannot hang the suite.
#[test]
fn an_overrunning_run_is_killed_and_named() {
    let cwd = scratch("deadline");
    let start = Instant::now();
    let panic = std::panic::catch_unwind(|| {
        repro_within(&cwd, &["fig1_gauss"], Duration::from_millis(200))
    })
    .expect_err("a paper-size fig1_gauss cannot finish in 200 ms");
    let message = panic.downcast_ref::<String>().expect("a formatted message");
    assert!(
        message.contains("`repro fig1_gauss` still running after"),
        "{message}"
    );
    assert!(message.ends_with("killed"), "{message}");
    assert!(
        start.elapsed() < Duration::from_secs(20),
        "the child was not killed"
    );
    assert_eq!(files_in(&cwd), Vec::<String>::new());
}
