//! perf_ledger v1 — five workloads, both clocks, every layer.
//!
//! Two ways in, both through `benchmark/run.sh` (which builds first):
//!
//! * **One workload** (the driver's contract):
//!   `--workload W --seed N --seconds S --trace 0|1` runs workload `W` in
//!   this process and prints, as the last line of stdout, one JSON object
//!   `{"correct", "attempted", "failed", "metrics"}` — every end-to-end
//!   metric with `--trace 0`, every per-layer metric with `--trace 1`.
//! * **The suite** (no `--workload`): `[--seed N] [--seconds S] [--traced]
//!   [--aa] [--record-seed-baseline]` runs the five workloads one child
//!   process each, prints every metric by name with its unit, and exits
//!   non-zero on any failed check or missing metric.
//!
//! See `benchmark/README.md` for what each number means.

mod api;
mod json;
mod metrics;
mod rng;
mod run;
mod spans;
mod stats;
mod suite;
mod workloads;

/// Where the traced pass writes its span files and the suite its latest
/// results. Relative to the repository root, which `run.sh` makes the
/// working directory.
pub const OUT_DIR: &str = "benchmark/out";
pub const BASELINE_DIR: &str = "benchmark/baseline";

/// Seconds one run measures when `--seconds` is not given; also the
/// `run_seconds` that `--declare` writes into `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        match self.0.get(i + 1) {
            Some(v) => Some(v),
            None => die(&format!("{name} needs a value")),
        }
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| die(&format!("{name}: cannot parse {v:?}"))),
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("perf-ledger: {msg}");
    eprintln!(
        "usage: run.sh --workload W --seed N --seconds S --trace 0|1\n       run.sh [--seed N] [--seconds S] [--traced] [--aa] [--record-seed-baseline]\n       run.sh --declare | --list"
    );
    std::process::exit(2);
}

fn main() {
    let args = Args(std::env::args().skip(1).collect());
    let known = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--traced",
        "--aa",
        "--record-seed-baseline",
        "--declare",
        "--list",
    ];
    for a in args.0.iter().filter(|a| a.starts_with("--")) {
        if !known.contains(&a.as_str()) {
            die(&format!("unknown option {a}"));
        }
    }
    if args.flag("--declare") {
        print!("{}", metrics::benchmark_json(RUN_SECONDS).to_pretty());
        return;
    }
    if args.flag("--list") {
        suite::list();
        return;
    }
    let seed: u64 = args.parsed("--seed", 1);
    let seconds: f64 = args.parsed("--seconds", RUN_SECONDS as f64);
    if !(seconds > 0.0 && seconds <= 60.0) {
        die("--seconds must be in (0, 60]");
    }
    let code = match args.value("--workload") {
        Some(workload) => {
            let trace = match args.value("--trace").unwrap_or("0") {
                "0" => false,
                "1" => true,
                other => die(&format!("--trace takes 0 or 1, got {other:?}")),
            };
            run::one(workload, seed, seconds, trace)
        }
        None => suite::run(&suite::Options {
            seed,
            seconds,
            traced: args.flag("--traced"),
            aa: args.flag("--aa"),
            record_seed_baseline: args.flag("--record-seed-baseline"),
        }),
    };
    std::process::exit(code);
}
