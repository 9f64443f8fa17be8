//! The whole benchmark in one command: the five workloads one child
//! process each (so `peak_rss_mb` is the workload's own), every metric
//! printed by name with its unit, every output checked.

use std::process::Command;
use std::time::Instant;

use crate::json::{self, Value};
use crate::metrics::{WorkloadDecl, END_TO_END, PER_LAYER, WORKLOADS};

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    /// Also run every workload with `--trace 1` and print the per-layer table.
    pub traced: bool,
    /// Run two complete sets of the same build and hold them to the bounds.
    pub aa: bool,
    /// Write `baseline/seed.json` from this run.
    pub record_seed_baseline: bool,
}

/// One child run: the parsed result line, the `detail:` line if any, and
/// the child's wall seconds.
struct Child {
    result: Value,
    detail: Option<Value>,
    wall_s: f64,
}

impl Child {
    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn failed(&self) -> f64 {
        self.result
            .get("failed")
            .and_then(Value::as_f64)
            .unwrap_or(1.0)
    }

    /// Distinct virtual times among the run's repetitions, from its
    /// `detail:` line (1 = bit-identical; 0 if unknown).
    fn vtime_distinct(&self) -> f64 {
        self.detail
            .as_ref()
            .and_then(|d| d.get("vtime_distinct")?.as_f64())
            .unwrap_or(0.0)
    }

    fn attempted(&self) -> f64 {
        self.result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    }
}

fn child(workload: &str, opts: &Options, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t = Instant::now();
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: cannot start child: {e}"))?;
    let wall_s = t.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut detail = None;
    // The child's own metric lines are folded into the tables below; only
    // its commentary is passed through.
    for line in stdout.lines() {
        if let Some(d) = line.strip_prefix("detail: ") {
            detail = json::parse(d).ok();
        } else if line.starts_with('#') {
            println!("{line}");
        }
    }
    if !out.status.success() {
        return Err(format!("{workload}: child exited with {}", out.status));
    }
    let last = stdout.lines().last().unwrap_or("");
    let result = json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    println!("# {workload}: child wall {wall_s:.1} s");
    Ok(Child {
        result,
        detail,
        wall_s,
    })
}

/// One complete set: every workload untraced, and traced if asked.
struct Set {
    untraced: Vec<(&'static str, Child)>,
    traced: Vec<(&'static str, Child)>,
}

/// The runs of one workload present on both sides.
fn paired<'a>(
    a: &'a [(&'static str, Child)],
    b: &'a [(&'static str, Child)],
) -> impl Iterator<Item = (&'static WorkloadDecl, &'a Child, &'a Child)> {
    WORKLOADS.iter().filter_map(move |w| {
        let find = |side: &'a [(&'static str, Child)]| {
            side.iter()
                .find(|(name, _)| *name == w.name)
                .map(|(_, c)| c)
        };
        Some((w, find(a)?, find(b)?))
    })
}

fn run_set(opts: &Options, problems: &mut Vec<String>) -> Set {
    let mut set = Set {
        untraced: Vec::new(),
        traced: Vec::new(),
    };
    for w in WORKLOADS {
        for trace in [false, true] {
            if trace && !opts.traced {
                continue;
            }
            match child(w.name, opts, trace) {
                Err(e) => problems.push(e),
                Ok(c) => {
                    if c.failed() > 0.0 {
                        problems.push(format!(
                            "{}: {} of {} checks failed",
                            w.name,
                            c.failed(),
                            c.attempted()
                        ));
                    }
                    let declared: Vec<&str> = if trace {
                        PER_LAYER.iter().map(|m| m.name).collect()
                    } else {
                        END_TO_END.iter().map(|m| m.name).collect()
                    };
                    for name in declared {
                        if c.metric(name).is_none() {
                            problems.push(format!("{}: metric {name} missing", w.name));
                        }
                    }
                    if c.wall_s > 30.0 {
                        problems.push(format!("{}: run took {:.1} s (> 30 s)", w.name, c.wall_s));
                    }
                    if trace {
                        &mut set.traced
                    } else {
                        &mut set.untraced
                    }
                    .push((w.name, c));
                }
            }
        }
    }
    set
}

fn print_tables(set: &Set) {
    println!("\n== end-to-end (untraced pass; medians over each run's repetitions) ==");
    print!("{:<14} {:<5}", "metric", "unit");
    for (w, _) in &set.untraced {
        print!(" {w:>14}");
    }
    println!();
    for m in END_TO_END {
        print!("{:<14} {:<5}", m.name, m.unit);
        for (_, c) in &set.untraced {
            print!(" {:>14.5}", c.metric(m.name).unwrap_or(f64::NAN));
        }
        println!("  {} clock, bound {:.0} %", m.clock, m.bound * 100.0);
    }
    print!("{:<14} {:<5}", "failed_share", "ratio");
    for (_, c) in &set.untraced {
        print!(" {:>14}", format!("{}/{}", c.failed(), c.attempted()));
    }
    println!("  checks failed / attempted");
    for (label, key) in [("n", "n"), ("host_s q1", "q1"), ("host_s q3", "q3")] {
        print!("{label:<14} {:<5}", "");
        for (_, c) in &set.untraced {
            let v = c
                .detail
                .as_ref()
                .and_then(|d| d.get("timings")?.as_arr()?.first()?.get(key)?.as_f64());
            print!(" {:>14.5}", v.unwrap_or(f64::NAN));
        }
        println!();
    }
    if set.traced.is_empty() {
        return;
    }
    println!("\n== per layer (traced run; C count, S span, P kernel profiler, M single-function loop) ==");
    print!("{:<36} {:<6}", "metric", "unit");
    for (w, _) in &set.traced {
        print!(" {w:>14}");
    }
    println!();
    for m in PER_LAYER {
        print!("{:<36} {:<6}", m.name, m.unit);
        for (w, c) in &set.traced {
            if m.home == "all" || m.home == *w {
                print!(" {:>14.4}", c.metric(m.name).unwrap_or(f64::NAN));
            } else {
                print!(" {:>14}", "-");
            }
        }
        println!("  [{}]", m.source);
    }
}

fn set_json(set: &Set) -> Value {
    let side = |runs: &[(&'static str, Child)]| {
        Value::Obj(
            runs.iter()
                .map(|(w, c)| {
                    let mut fields = vec![
                        ("result".to_string(), c.result.clone()),
                        ("wall_s".to_string(), Value::Num(c.wall_s)),
                    ];
                    if let Some(d) = &c.detail {
                        fields.push(("detail".to_string(), d.clone()));
                    }
                    (w.to_string(), Value::Obj(fields))
                })
                .collect(),
        )
    };
    Value::obj([
        ("untraced", side(&set.untraced)),
        ("traced", side(&set.traced)),
    ])
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_json(opts: &Options) -> Vec<(String, Value)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        (
            "git_head".to_string(),
            Value::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("nproc".to_string(), Value::Num(nproc as f64)),
        (
            "rustc".to_string(),
            Value::str(command_line("rustc", &["-V"])),
        ),
        ("seed".to_string(), Value::Num(opts.seed as f64)),
        ("seconds".to_string(), Value::Num(opts.seconds)),
    ]
}

/// Holds set `b` to set `a`: every end-to-end metric within its bound,
/// virtual time exactly equal on the deterministic workloads, and — when
/// both sets were traced — every count (source C) exactly equal there too.
/// Exactness is waived, out loud, for a run whose own repetitions were not
/// bit-identical.
fn compare_aa(a: &Set, b: &Set, problems: &mut Vec<String>) -> Value {
    // A run whose own repetitions already disagreed in virtual time
    // (ROADMAP item 1's open-loop host-load flake) cannot promise another
    // run the same digits, and no median can undo that.
    let flaked = |ca: &Child, cb: &Child| ca.vtime_distinct() != 1.0 || cb.vtime_distinct() != 1.0;
    let mut rows = Vec::new();
    println!("\n== A/A: two sets of the same build ==");
    for (w, ca, cb) in paired(&a.untraced, &b.untraced) {
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (ca.metric(m.name), cb.metric(m.name)) else {
                continue;
            };
            let virtual_clock = m.clock == "virtual" && w.deterministic;
            let exact = virtual_clock && !flaked(ca, cb);
            let diff = if va == 0.0 {
                0.0
            } else {
                (vb - va).abs() / va.abs()
            };
            let ok = if exact { va == vb } else { diff <= m.bound };
            let held = if exact {
                "exact".to_string()
            } else if virtual_clock {
                format!(
                    "bound {:.0} % (not exact: {} and {} distinct virtual times within the runs)",
                    m.bound * 100.0,
                    ca.vtime_distinct(),
                    cb.vtime_distinct()
                )
            } else {
                format!("bound {:.0} %", m.bound * 100.0)
            };
            println!(
                "{:<14} {:<12} A {va:>14.6} B {vb:>14.6}  diff {:>6.2} %  {held} {}",
                w.name,
                m.name,
                diff * 100.0,
                if ok { "ok" } else { "FAIL" }
            );
            if !ok {
                problems.push(format!("A/A {} {}: {va} vs {vb}", w.name, m.name));
            }
            rows.push(Value::obj([
                ("workload", Value::str(w.name)),
                ("metric", Value::str(m.name)),
                ("a", Value::Num(va)),
                ("b", Value::Num(vb)),
                ("diff_share", Value::Num(diff)),
                ("exact", Value::Bool(exact)),
                ("ok", Value::Bool(ok)),
            ]));
        }
    }
    // Counts, likewise: exact unless a traced run flaked, and then the
    // differences are printed, not failed. The `*_distinct` metrics count
    // the flake itself and are never compared.
    let mut counts_compared = 0;
    for (w, ca, cb) in paired(&a.traced, &b.traced).filter(|(w, ..)| w.deterministic) {
        for m in PER_LAYER
            .iter()
            .filter(|m| m.source == 'C' && !m.name.ends_with("_distinct"))
        {
            counts_compared += 1;
            let (va, vb) = (ca.metric(m.name), cb.metric(m.name));
            if va == vb {
                continue;
            }
            let what = format!("A/A {} count {}: {va:?} vs {vb:?}", w.name, m.name);
            if flaked(ca, cb) {
                println!("{what} (its repetitions were not bit-identical within a run: not held)");
            } else {
                problems.push(what);
            }
        }
    }
    if counts_compared > 0 {
        println!(
            "{counts_compared} per-layer counts compared exactly on the deterministic workloads"
        );
    }
    Value::Arr(rows)
}

pub fn run(opts: &Options) -> i32 {
    let start = Instant::now();
    let mut problems = Vec::new();
    let a = run_set(opts, &mut problems);
    print_tables(&a);

    std::fs::create_dir_all(crate::OUT_DIR).expect("create benchmark/out");
    let mut doc = host_json(opts);
    doc.push(("set".to_string(), set_json(&a)));
    std::fs::write(
        format!("{}/latest.json", crate::OUT_DIR),
        Value::Obj(doc.clone()).to_pretty(),
    )
    .expect("write latest.json");

    if opts.record_seed_baseline {
        let mut seed_doc = host_json(opts);
        seed_doc.push((
            "what".to_string(),
            Value::str("what the reference host measured with this benchmark on the working tree based on git_head - a record, not a floor"),
        ));
        seed_doc.push((
            "host_dependent_results_seen_while_sizing".to_string(),
            Value::Arr(vec![
                Value::str("fig5_mergesort prints 'shape check FAILED' on this 2-core box (UMA speedup ~5.0 against 3.03 in results/fig5.txt); surfaced as apps.fig5_shape_ok / apps.uma_s16, not fixed here"),
                Value::str("policy_matrix --workload kv panics on its kv_freeze_bounds assertion in 2 runs of 4; a live capture is host-schedule dependent, which is why policy_replay synthesises its trace"),
            ]),
        ));
        seed_doc.push(("set".to_string(), set_json(&a)));
        let path = format!("{}/seed.json", crate::BASELINE_DIR);
        std::fs::write(&path, Value::Obj(seed_doc).to_pretty()).expect("write seed.json");
        println!("wrote {path}");
    }

    if opts.aa {
        let b = run_set(opts, &mut problems);
        let rows = compare_aa(&a, &b, &mut problems);
        let mut aa_doc = host_json(opts);
        aa_doc.push(("comparisons".to_string(), rows));
        aa_doc.push(("a".to_string(), set_json(&a)));
        aa_doc.push(("b".to_string(), set_json(&b)));
        let path = format!("{}/AA.json", crate::BASELINE_DIR);
        std::fs::write(&path, Value::Obj(aa_doc).to_pretty()).expect("write AA.json");
        println!("wrote {path}");
    }

    println!("\ntotal wall time {:.1} s", start.elapsed().as_secs_f64());
    if problems.is_empty() {
        println!("all checks passed, every declared metric present");
        0
    } else {
        for p in &problems {
            println!("PROBLEM: {p}");
        }
        1
    }
}

/// `--list`: every declared name and what it should move.
pub fn list() {
    println!("workloads:");
    for w in WORKLOADS {
        println!("  {:<14} {}", w.name, w.why);
    }
    println!("\nend-to-end (every workload reports each):");
    for m in END_TO_END {
        println!(
            "  {:<12} {:<3} {} clock, {} is better, bound {:.0} % - {}",
            m.name,
            m.unit,
            m.clock,
            m.better,
            m.bound * 100.0,
            m.meaning
        );
    }
    println!("\nper layer (source: C count, S span, P kernel profiler, M single-function loop):");
    for m in PER_LAYER {
        println!(
            "  {:<36} {:<6} [{}] home {:<13} moves: {}",
            m.name, m.unit, m.source, m.home, m.moves
        );
    }
}
