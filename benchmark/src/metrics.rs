//! Every name the benchmark prints: workloads, end-to-end metrics and
//! per-layer metrics, each declared once. `BENCHMARK.json` is generated
//! from these tables (`run.sh --declare`) and a unit test holds the two
//! equal, so a metric cannot be emitted without being declared.
//!
//! Layer names are the crate directories. *Host* time is what the
//! simulator takes; *virtual* time is what the modelled Butterfly takes.

use crate::json::Value;

pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
    /// Virtual clock and counts are a pure function of the seed, so two
    /// runs must agree to the last digit. `paper_apps` runs free threads
    /// and repeats to ~0.1 % instead.
    pub deterministic: bool,
}

pub const WORKLOADS: &[WorkloadDecl] = &[
    WorkloadDecl {
        name: "ref_stream",
        why: "one thread, 96 pages against a 64-entry ATC under static placement: the translation fast path does >99.99% of the work and the kernel slow path none",
        deterministic: true,
    },
    WorkloadDecl {
        name: "fault_storm",
        why: "one thread rotating over 16 suspended contexts under always-replicate: every op faults, so fault handler, directory, shootdown queues and block transfer do all the work",
        deterministic: true,
    },
    WorkloadDecl {
        name: "kv_open_loop",
        why: "the KV server under Zipf open-loop traffic on 8 processors: live shootdown targets, freezing write-shared pages and the driver's per-request thread hand-off",
        deterministic: true,
    },
    WorkloadDecl {
        name: "policy_replay",
        why: "one seeded synthetic reference trace replayed under the five Figure-1 policies: the replay engine's per-op hand-off over fast-path-heavy to slow-path-heavy policies",
        deterministic: true,
    },
    WorkloadDecl {
        name: "paper_apps",
        why: "the paper's Gaussian elimination, merge sort and neural net run live on 1-16 processors: block transfers, barriers, event counts and ports, as a reader of the paper runs them",
        deterministic: false,
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
    pub clock: &'static str,
    pub meaning: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "host_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        clock: "host",
        meaning: "wall seconds of one repetition of the measured phase (median over the run's repetitions)",
    },
    EndToEnd {
        name: "vtime_ms",
        unit: "ms",
        better: "lower",
        bound: 0.05,
        clock: "virtual",
        meaning: "simulated milliseconds the measured work took: the makespan (max over processors, summed over a workload's runs); for kv_open_loop, whose makespan is set by the arrival schedule, the summed request latency from scheduled arrival",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
        clock: "host",
        meaning: "VmHWM of the workload's process",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        clock: "host",
        meaning: "everything before the measured phase: input generation from the seed, machine boot, mapping, attach, first touch (median over the run's repetitions)",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// C = a count read from a public statistics surface (exact);
    /// S = a benchmark-side span around a call into the layer;
    /// P = the kernel's own host-phase profiler (traced pass only);
    /// M = a tight loop over one public function.
    pub source: char,
    /// The workload whose traced run measures it ("all": each workload
    /// reports its own value). Elsewhere the metric reads 0.
    pub home: &'static str,
    /// The end-to-end metric and workload this number should move, and
    /// after "!=" the workload on which it should move nothing.
    pub moves: &'static str,
}

macro_rules! layer {
    ($name:literal, $unit:literal, $better:literal, $src:literal, $home:literal, $moves:literal) => {
        PerLayer {
            name: $name,
            unit: $unit,
            better: $better,
            source: $src,
            home: $home,
            moves: $moves,
        }
    };
}

pub const PER_LAYER: &[PerLayer] = &[
    // The run itself.
    layer!("sim_ops", "count", "lower", 'C', "all", "host_s / sim_ops is host ns per simulated event; moves only with a declared model change"),
    layer!("host_ns_per_op", "ns", "lower", 'S', "all", "host_s of its workload"),
    layer!("reps", "count", "higher", 'S', "all", "sample count n behind the untraced medians of this run"),
    layer!("tracing_overhead_pct", "%", "lower", 'S', "all", "traced / untraced host_s - 1; why end-to-end numbers come only from the untraced pass"),
    layer!("host_spread_pct", "%", "lower", 'S', "all", "interquartile range of the untraced repetitions' host_s as a share of their median"),
    // machine
    layer!("machine.ref_hit_ns", "ns", "lower", 'M', "ref_stream", "host_s ref_stream, paper_apps != fault_storm"),
    layer!("machine.ref_miss_reload_ns", "ns", "lower", 'M', "ref_stream", "host_s ref_stream != fault_storm"),
    layer!("machine.atc_lookup_ns", "ns", "lower", 'M', "ref_stream", "host_s ref_stream != kv_open_loop"),
    layer!("machine.reserve_ns", "ns", "lower", 'M', "ref_stream", "host_s ref_stream != kv_open_loop"),
    layer!("machine.frame_copy_ns", "ns", "lower", 'M', "fault_storm", "host_s fault_storm != ref_stream"),
    layer!("machine.atc_hit_rate", "ratio", "higher", 'C', "all", "vtime_ms everywhere"),
    layer!("machine.remote_ref_share", "ratio", "lower", 'C', "all", "vtime_ms everywhere"),
    layer!("machine.queue_delay_share", "ratio", "lower", 'C', "all", "vtime_ms everywhere"),
    layer!("machine.block_words", "count", "lower", 'C', "all", "vtime_ms everywhere"),
    // core: protocol counts
    layer!("core.faults", "count", "lower", 'C', "all", "vtime_ms all; vlat kv_open_loop"),
    layer!("core.replications", "count", "lower", 'C', "all", "vtime_ms all"),
    layer!("core.migrations", "count", "lower", 'C', "all", "vtime_ms all"),
    layer!("core.invalidations", "count", "lower", 'C', "all", "vtime_ms all"),
    layer!("core.shootdowns", "count", "lower", 'C', "all", "vtime_ms all; vlat kv_open_loop"),
    layer!("core.ipis_sent", "count", "lower", 'C', "all", "vtime_ms all; 0 on fault_storm, >0 on kv_open_loop"),
    layer!("core.freezes", "count", "lower", 'C', "all", "vtime_ms kv_open_loop, paper_apps"),
    layer!("core.thaws", "count", "lower", 'C', "all", "vtime_ms kv_open_loop, paper_apps"),
    layer!("core.remote_maps", "count", "lower", 'C', "all", "vtime_ms all"),
    layer!("core.frames_freed", "count", "lower", 'C', "all", "vtime_ms all"),
    layer!("core.defrost_runs", "count", "lower", 'C', "all", "vtime_ms kv_open_loop, paper_apps"),
    // core: host cost of the slow path
    layer!("core.fault_read_replicate_ns", "ns", "lower", 'S', "fault_storm", "host_s fault_storm, policy_replay != ref_stream (median of every read fault)"),
    layer!("core.fault_read_replicate_tail_ns", "ns", "lower", 'S', "fault_storm", "same; the highest percentile with >= 10 samples beyond it (p99.99 of 350 k)"),
    layer!("core.fault_write_migrate_ns", "ns", "lower", 'S', "fault_storm", "host_s fault_storm, policy_replay (migrate-only) != ref_stream (median of every write fault)"),
    layer!("core.fault_write_migrate_tail_ns", "ns", "lower", 'S', "fault_storm", "same; the highest percentile with >= 10 samples beyond it (p99.9 of 50 k)"),
    layer!("core.prof_fault_ns", "ns", "lower", 'P', "all", "host_s fault_storm, kv_open_loop != ref_stream (per fault)"),
    layer!("core.prof_shootdown_ns", "ns", "lower", 'P', "all", "host_s fault_storm, kv_open_loop != ref_stream (per fault)"),
    layer!("core.prof_transfer_ns", "ns", "lower", 'P', "all", "host_s fault_storm, kv_open_loop != ref_stream (per fault)"),
    layer!("core.prof_directory_ns", "ns", "lower", 'P', "all", "host_s fault_storm, kv_open_loop != ref_stream (per fault)"),
    layer!("core.prof_walk_ns", "ns", "lower", 'P', "all", "host_s fault_storm, kv_open_loop, ref_stream (per page-table walk; per fault where the walk count is out of reach)"),
    layer!("core.suspend_resume_ns", "ns", "lower", 'S', "fault_storm", "host_s fault_storm != ref_stream"),
    layer!("core.attach_us", "us", "lower", 'M', "fault_storm", "setup_s all != ref_stream host_s"),
    layer!("core.shootdown_live_ns", "ns", "lower", 'M', "kv_open_loop", "host_s kv_open_loop, paper_apps != fault_storm (write-invalidate against one live poller: 2 host threads)"),
    // ptable
    layer!("ptable.walks", "count", "lower", 'C', "all", "vtime_ms all (charged only off the centralized placement)"),
    layer!("ptable.walk_local_share", "ratio", "higher", 'C', "all", "vtime_ms all (charged only off the centralized placement)"),
    layer!("ptable.populates", "count", "lower", 'C', "all", "vtime_ms all"),
    layer!("ptable.invals", "count", "lower", 'C', "all", "vtime_ms all"),
    layer!("ptable.rof_fault_ns", "ns", "lower", 'S', "fault_storm", "host_s fault_storm if the fabric leaks into the default path != ref_stream"),
    // runtime
    layer!("runtime.sim_build_ms", "ms", "lower", 'S', "all", "setup_s all"),
    layer!("runtime.spawn_join_us", "us", "lower", 'M', "paper_apps", "host_s paper_apps != ref_stream"),
    layer!("runtime.barrier_wait_us", "us", "lower", 'M', "paper_apps", "host_s paper_apps != ref_stream"),
    layer!("runtime.lock_pair_ns", "ns", "lower", 'M', "paper_apps", "host_s paper_apps != ref_stream"),
    // reftrace
    layer!("reftrace.handoff_ns_per_op", "ns", "lower", 'S', "policy_replay", "host_s policy_replay != ref_stream, fault_storm"),
    layer!("reftrace.replay_platinum_s", "s", "lower", 'S', "policy_replay", "host_s policy_replay"),
    layer!("reftrace.replay_migrate_only_s", "s", "lower", 'S', "policy_replay", "host_s policy_replay"),
    layer!("reftrace.replay_replicate_only_s", "s", "lower", 'S', "policy_replay", "host_s policy_replay"),
    layer!("reftrace.replay_local_first_touch_s", "s", "lower", 'S', "policy_replay", "host_s policy_replay"),
    layer!("reftrace.replay_remote_always_s", "s", "lower", 'S', "policy_replay", "host_s policy_replay"),
    layer!("reftrace.ops", "count", "lower", 'C', "policy_replay", "host_s, vtime_ms policy_replay"),
    layer!("reftrace.vtime_distinct", "count", "lower", 'C', "policy_replay", "1 = every repetition bit-identical in virtual time"),
    layer!("reftrace.encode_mb_s", "MB/s", "higher", 'M', "policy_replay", "setup_s policy_replay"),
    layer!("reftrace.decode_mb_s", "MB/s", "higher", 'M', "policy_replay", "setup_s policy_replay"),
    // server
    layer!("server.vlat_p50_us", "us", "lower", 'C', "kv_open_loop", "virtual request latency from scheduled arrival (the driver's log-bucketed histogram)"),
    layer!("server.vlat_p99_us", "us", "lower", 'C', "kv_open_loop", "virtual request latency from scheduled arrival (the driver's log-bucketed histogram)"),
    layer!("server.vlat_samples", "count", "higher", 'C', "kv_open_loop", "sample count behind vlat_p50/p99"),
    layer!("server.drive_handoff_ns_per_req", "ns", "lower", 'S', "kv_open_loop", "host_s kv_open_loop != fault_storm (run_open_loop with a no-op workload)"),
    layer!("server.populate_s", "s", "lower", 'S', "kv_open_loop", "host_s kv_open_loop (run_open_loop with an empty schedule)"),
    layer!("server.exec_ns_per_req", "ns", "lower", 'S', "kv_open_loop", "host_s kv_open_loop (derived: measured phase minus populate, per request, minus hand-off)"),
    layer!("server.verify_s", "s", "lower", 'S', "kv_open_loop", "host wall of a kv_open_loop run outside the measured phase"),
    layer!("server.kv_get_ns", "ns", "lower", 'M', "kv_open_loop", "host_s kv_open_loop != policy_replay (one context, no driver)"),
    layer!("server.kv_put_ns", "ns", "lower", 'M', "kv_open_loop", "host_s kv_open_loop != policy_replay (one context, no driver)"),
    layer!("server.hist_record_ns", "ns", "lower", 'M', "kv_open_loop", "host_s kv_open_loop != policy_replay"),
    layer!("server.schedule_gen_ns_per_req", "ns", "lower", 'M', "kv_open_loop", "setup_s kv_open_loop"),
    layer!("server.faults_per_1k", "ratio", "lower", 'C', "kv_open_loop", "vlat_p99, vtime_ms kv_open_loop"),
    layer!("server.shootdowns_per_1k", "ratio", "lower", 'C', "kv_open_loop", "vlat_p99, vtime_ms kv_open_loop"),
    layer!("server.retries", "count", "lower", 'C', "kv_open_loop", "vtime_ms kv_open_loop"),
    layer!("server.vtime_distinct", "count", "lower", 'C', "kv_open_loop", "1 = every repetition bit-identical in virtual time"),
    // apps
    layer!("apps.fidelity_err_pct", "%", "lower", 'C', "paper_apps", "max relative error of the 16-processor Gaussian-elimination speedups (vs best serial, n = 800) against the paper's 13.5 (PLATINUM) and 15.3 (SMP)"),
    layer!("apps.gauss_s16", "ratio", "higher", 'C', "paper_apps", "fidelity_err_pct; vtime_ms paper_apps"),
    layer!("apps.smp_s16", "ratio", "higher", 'C', "paper_apps", "fidelity_err_pct; vtime_ms paper_apps"),
    layer!("apps.us_s16", "ratio", "higher", 'C', "paper_apps", "vtime_ms paper_apps"),
    layer!("apps.sort_s16", "ratio", "higher", 'C', "paper_apps", "vtime_ms paper_apps"),
    layer!("apps.uma_s16", "ratio", "higher", 'C', "paper_apps", "vtime_ms paper_apps (host-dependent on a 2-core box)"),
    layer!("apps.neural_s8", "ratio", "higher", 'C', "paper_apps", "vtime_ms paper_apps"),
    layer!("apps.fig5_shape_ok", "count", "higher", 'C', "paper_apps", "1 = PLATINUM's merge-sort speedup is above the UMA comparator's, as in the paper"),
    layer!("apps.gauss_host_s", "s", "lower", 'S', "paper_apps", "host_s paper_apps"),
    layer!("apps.sort_host_s", "s", "lower", 'S', "paper_apps", "host_s paper_apps"),
    layer!("apps.neural_host_s", "s", "lower", 'S', "paper_apps", "host_s paper_apps"),
    layer!("apps.vtime_distinct", "count", "lower", 'C', "paper_apps", "distinct virtual times over the repetitions (live threads: not bit-exact)"),
    // trace
    layer!("trace.overhead_pct", "%", "lower", 'S', "fault_storm", "host_s of any run with a tracer installed (a fault_storm slice with SimBuilder::trace vs without)"),
    layer!("trace.events", "count", "lower", 'C', "fault_storm", "events the tracer held after that slice"),
    layer!("trace.export_mb_s", "MB/s", "higher", 'S', "fault_storm", "Sim::write_trace throughput"),
    // faults
    layer!("faults.hook_overhead_pct", "%", "lower", 'S', "fault_storm", "host_s fault_storm != ref_stream (a slice with an all-zero-rate FaultPlan installed: the one-pointer-test promise)"),
    layer!("faults.should_inject_ns", "ns", "lower", 'M', "fault_storm", "host_s of chaos runs only"),
];

pub fn is_end_to_end(name: &str) -> bool {
    END_TO_END.iter().any(|m| m.name == name)
}

pub fn is_per_layer(name: &str) -> bool {
    PER_LAYER.iter().any(|m| m.name == name)
}

/// Measured values by declared name. Setting an undeclared name is a bug
/// in the benchmark and panics, so the emitted set cannot drift from the
/// declared one.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            is_end_to_end(name) || is_per_layer(name),
            "metric {name:?} is not declared in metrics.rs"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// The document `BENCHMARK.json` holds, built from the tables above.
pub fn benchmark_json(run_seconds: u64) -> Value {
    Value::obj([
        (
            "command",
            Value::Arr(vec![Value::str("bash"), Value::str("benchmark/run.sh")]),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::Num(run_seconds as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better)),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}` — the driver's rule for a name.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    /// Letters, digits and `_ / % . -`, at most 16 — the driver's rule for a unit.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_obey_the_driver_rules_and_are_unique() {
        let mut seen: Vec<&str> = Vec::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for n in names {
            assert!(valid_name(n), "bad name {n:?}");
            assert!(!seen.contains(&n), "duplicate name {n:?}");
            seen.push(n);
        }
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(u), "bad unit {u:?}");
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
    }

    #[test]
    fn contract_shape_of_end_to_end() {
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "set-up gets the largest bound");
        for m in PER_LAYER {
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(matches!(m.source, 'C' | 'S' | 'P' | 'M'));
            assert!(
                m.home == "all" || WORKLOADS.iter().any(|w| w.name == m.home),
                "{} has unknown home {}",
                m.name,
                m.home
            );
        }
    }

    #[test]
    fn valid_name_rejects_what_the_driver_would() {
        assert!(valid_name("core.fault_read_replicate_ns"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("MB/s") && valid_unit("%") && !valid_unit("µs"));
    }

    /// `BENCHMARK.json` at the repository root declares exactly what this
    /// package emits.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
        let doc = crate::json::parse(&text).expect("BENCHMARK.json parses");
        let run_seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap() as u64;
        assert!((1..=60).contains(&run_seconds));
        assert_eq!(doc, benchmark_json(run_seconds));
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
