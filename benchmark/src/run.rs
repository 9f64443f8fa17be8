//! One workload in this process: repeat it for `--seconds`, reduce the
//! repetitions to medians, and print the result line.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::json::Value;
use crate::metrics::{Metrics, END_TO_END, PER_LAYER, WORKLOADS};
use crate::spans::Recorder;
use crate::stats::{distinct, median, quartiles, spread};
use crate::workloads::{self, Checks, Rep, Workload};

/// A timing is a median over at least this many repetitions, however
/// short `--seconds` is.
const MIN_REPS: usize = 5;
/// Each pass of the traced run gets this share of `--seconds`; the
/// single-function loops and layer slices take about as long again.
const TRACED_PASS_SHARE: f64 = 0.3;
const MIN_TRACED_REPS: usize = 3;

/// Repeats `w` until `seconds` have passed and at least `min_reps`
/// repetitions are in. A repetition that panics (a simulator assertion, a
/// diverged worker) ends the pass and counts as one failed check.
fn repeat(
    w: &mut dyn Workload,
    rec: &mut Recorder,
    seconds: f64,
    min_reps: usize,
    checks: &mut Checks,
) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        match catch_unwind(AssertUnwindSafe(|| w.rep(rec))) {
            Ok(rep) => {
                checks.add(rep.checks);
                reps.push(rep);
            }
            Err(_) => {
                checks.check(false, || "a repetition panicked".to_string());
                break;
            }
        }
    }
    reps
}

fn column(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(f).collect()
}

/// `VmHWM` of this process in MB (0 where /proc is not Linux's).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-layer metrics of a pass: for each name any repetition reported,
/// the median over the repetitions that reported it (`*_distinct` counts
/// only grow, so those take the last).
fn reduce_layer(reps: &[Rep], out: &mut Metrics) {
    for decl in PER_LAYER {
        let vals: Vec<f64> = reps.iter().filter_map(|r| r.layer.get(decl.name)).collect();
        if vals.is_empty() || out.get(decl.name).is_some() {
            continue;
        }
        let v = if decl.name.ends_with("_distinct") {
            vals[vals.len() - 1]
        } else {
            median(&vals)
        };
        out.set(decl.name, v);
    }
}

fn summary(name: &str, unit: &str, xs: &[f64]) -> Value {
    let (q1, q3) = quartiles(xs);
    Value::obj([
        ("name", Value::str(name)),
        ("unit", Value::str(unit)),
        ("median", Value::Num(median(xs))),
        ("q1", Value::Num(q1)),
        ("q3", Value::Num(q3)),
        ("n", Value::Num(xs.len() as f64)),
    ])
}

fn result_line(checks: Checks, metrics: Vec<(&'static str, &'static str, f64)>) -> String {
    Value::obj([
        ("correct", Value::Bool(checks.failed == 0)),
        ("attempted", Value::Num(checks.attempted as f64)),
        ("failed", Value::Num(checks.failed as f64)),
        (
            "metrics",
            Value::Obj(
                metrics
                    .into_iter()
                    .map(|(name, unit, v)| {
                        (
                            name.to_string(),
                            Value::obj([("value", Value::Num(v)), ("unit", Value::str(unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .to_line()
}

/// Runs `workload` and prints the result; returns the exit code.
pub fn one(workload: &str, seed: u64, seconds: f64, trace: bool) -> i32 {
    let Some(mut w) = workloads::make(workload, seed) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("perf-ledger: unknown workload {workload:?}; one of {names:?}");
        return 2;
    };
    let mut checks = Checks::default();
    if trace {
        traced(&mut *w, workload, seconds, &mut checks)
    } else {
        untraced(&mut *w, workload, seconds, &mut checks)
    }
}

/// The untraced pass: the only source of end-to-end numbers.
fn untraced(w: &mut dyn Workload, workload: &str, seconds: f64, checks: &mut Checks) -> i32 {
    let reps = repeat(w, &mut Recorder::new(false), seconds, MIN_REPS, checks);
    if reps.is_empty() {
        eprintln!("perf-ledger: {workload}: no repetition completed");
        return 1;
    }
    let host = column(&reps, |r| r.host_s);
    let setup = column(&reps, |r| r.setup_s);
    let vtime = column(&reps, |r| r.vtime_ns as f64 / 1e6);
    let rss = peak_rss_mb();
    let sim_ops = reps[reps.len() - 1].sim_ops;

    println!("# {workload}: {} repetitions", reps.len());
    println!(
        "# host_s of each: {}",
        host.iter()
            .map(|h| format!("{h:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let value = |name: &str| match name {
        "host_s" => median(&host),
        "vtime_ms" => median(&vtime),
        "peak_rss_mb" => rss,
        "setup_s" => median(&setup),
        other => unreachable!("end-to-end metric {other} has no source"),
    };
    for m in END_TO_END {
        println!(
            "{:<14} {:>16.6} {:<3} [{} clock]",
            m.name,
            value(m.name),
            m.unit,
            m.clock
        );
    }
    println!(
        "{:<14} {:>16} count  (host {:.2} ns per simulated op; host_s spread {:.2} %)",
        "sim_ops",
        sim_ops,
        median(&host) * 1e9 / sim_ops.max(1) as f64,
        spread(&host) * 100.0
    );
    // For the suite: n and quartiles behind each median.
    let detail = Value::obj([
        ("workload", Value::str(workload)),
        ("sim_ops", Value::Num(sim_ops as f64)),
        // 1 = every repetition bit-identical in virtual time.
        (
            "vtime_distinct",
            Value::Num(distinct(&reps.iter().map(|r| r.vtime_ns).collect::<Vec<_>>()) as f64),
        ),
        (
            "timings",
            Value::Arr(vec![
                summary("host_s", "s", &host),
                summary("vtime_ms", "ms", &vtime),
                summary("setup_s", "s", &setup),
            ]),
        ),
    ]);
    println!("detail: {}", detail.to_line());
    println!(
        "{}",
        result_line(
            *checks,
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit, value(m.name)))
                .collect()
        )
    );
    0
}

/// The traced run: an untraced pass for reference, a traced pass (spans,
/// kernel host profiler, per-op timings), then the single-function loops
/// and layer slices. Every per-layer metric is printed; one this workload
/// does not exercise reads 0.
fn traced(w: &mut dyn Workload, workload: &str, seconds: f64, checks: &mut Checks) -> i32 {
    let pass_s = seconds * TRACED_PASS_SHARE;
    let plain = repeat(
        w,
        &mut Recorder::new(false),
        pass_s,
        MIN_TRACED_REPS,
        checks,
    );
    let mut rec = Recorder::new(true);
    let with_spans = repeat(w, &mut rec, pass_s, MIN_TRACED_REPS, checks);
    if plain.is_empty() || with_spans.is_empty() {
        eprintln!("perf-ledger: {workload}: no repetition completed");
        return 1;
    }

    let mut out = Metrics::default();
    let host = column(&plain, |r| r.host_s);
    let traced_host = column(&with_spans, |r| r.host_s);
    let sim_ops = plain[plain.len() - 1].sim_ops;
    out.set("sim_ops", sim_ops as f64);
    out.set(
        "host_ns_per_op",
        median(&host) * 1e9 / sim_ops.max(1) as f64,
    );
    out.set("reps", plain.len() as f64);
    out.set(
        "tracing_overhead_pct",
        (median(&traced_host) / median(&host) - 1.0) * 100.0,
    );
    out.set("host_spread_pct", spread(&host) * 100.0);
    // Spans and counts taken without tracing win; what only the traced
    // pass can see (profiler buckets, per-op timings) comes from it.
    reduce_layer(&plain, &mut out);
    reduce_layer(&with_spans, &mut out);
    if catch_unwind(AssertUnwindSafe(|| w.probes(&mut rec, &mut out))).is_err() {
        checks.check(false, || "the layer probes panicked".to_string());
    }

    std::fs::create_dir_all(crate::OUT_DIR).expect("create benchmark/out");
    let path = format!("{}/spans-{workload}.json", crate::OUT_DIR);
    std::fs::write(&path, rec.to_json(workload).to_pretty()).expect("write span file");

    println!(
        "# {workload}: traced run, {} + {} repetitions, {} spans -> {path}",
        plain.len(),
        with_spans.len(),
        rec.spans().len()
    );
    println!("# self time by span name (a span minus its child spans):");
    for (name, secs, count) in rec.self_times() {
        println!("#   {name:<40} {secs:>10.4} s  x{count}");
    }
    for m in PER_LAYER {
        if let Some(v) = out.get(m.name) {
            println!("{:<38} {:>16.4} {:<6} [{}]", m.name, v, m.unit, m.source);
        }
    }
    let vtimes: Vec<u64> = plain
        .iter()
        .chain(&with_spans)
        .map(|r| r.vtime_ns)
        .collect();
    let detail = Value::obj([
        ("workload", Value::str(workload)),
        // 1 = every repetition of this run bit-identical in virtual time.
        ("vtime_distinct", Value::Num(distinct(&vtimes) as f64)),
    ]);
    println!("detail: {}", detail.to_line());
    println!(
        "{}",
        result_line(
            *checks,
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit, out.get(m.name).unwrap_or(0.0)))
                .collect()
        )
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// The result line has exactly the driver's four keys, and the names
    /// under `metrics` are exactly the declared ones, each with a value
    /// and its declared unit.
    #[test]
    fn result_line_emits_exactly_the_declared_names() {
        let checks = Checks {
            attempted: 7,
            failed: 0,
        };
        let cases: [Vec<(&'static str, &'static str, f64)>; 2] = [
            END_TO_END.iter().map(|m| (m.name, m.unit, 1.5)).collect(),
            PER_LAYER.iter().map(|m| (m.name, m.unit, 0.0)).collect(),
        ];
        for declared in cases {
            let line = result_line(checks, declared.clone());
            assert!(!line.contains('\n'));
            let doc = json::parse(&line).expect("result line parses");
            let keys: Vec<&str> = doc
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(7.0));
            let metrics = doc.get("metrics").and_then(Value::as_obj).unwrap();
            assert_eq!(metrics.len(), declared.len());
            for ((name, m), (want, unit, _)) in metrics.iter().zip(&declared) {
                assert_eq!(name, want);
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit));
                assert!(m.get("value").and_then(Value::as_f64).is_some());
            }
        }
    }

    #[test]
    fn layer_reduction_prefers_the_first_pass_and_takes_medians() {
        let rep = |v: f64| {
            let mut layer = Metrics::default();
            layer.set("core.faults", v);
            layer.set("apps.vtime_distinct", v);
            Rep {
                setup_s: 0.0,
                host_s: 0.0,
                vtime_ns: 0,
                sim_ops: 0,
                checks: Checks::default(),
                layer,
            }
        };
        let mut out = Metrics::default();
        reduce_layer(&[rep(1.0), rep(5.0), rep(3.0)], &mut out);
        assert_eq!(out.get("core.faults"), Some(3.0));
        assert_eq!(
            out.get("apps.vtime_distinct"),
            Some(3.0),
            "the last, not the median"
        );
        reduce_layer(&[rep(9.0)], &mut out);
        assert_eq!(out.get("core.faults"), Some(3.0), "an earlier pass wins");
    }
}
