//! One experiment invocation, as the dispatcher sees it.
//!
//! [`Run`] owns — once — what every experiment needs around its
//! measurement: the flags all of them share, the tracer (installed
//! before any machine boots, flushed as a Chrome trace at the end), the
//! named self-checks, the JSON artifact and the exit status. An
//! experiment is a plain `fn(&mut Run)`: it reads its own flags from
//! [`Run::args`], calls [`Run::start`], measures, and hands back checks
//! and an artifact.
//!
//! | flag | meaning |
//! |---|---|
//! | `--trace PATH` | record protocol events; write a Chrome `trace_event` file (Perfetto) |
//! | `--out PATH` | write the JSON artifact there (nothing is written without it) |
//! | `--json` | print the artifact on stdout instead of the text report |
//!
//! Exit status: 0, 1 when a named check fails, 2 for an argument no
//! read consumed. Whether an exact artifact still equals its committed
//! record is a test's question (`tests/repro.rs`), not the binary's.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use platinum::trace::json::Value;
use platinum::trace::{chrome, Tracer};

use crate::args::Args;

/// What an experiment hands back besides its text report; decides which
/// of the shared flags it accepts.
pub(crate) enum Artifact {
    /// Nothing: only `--trace`.
    None,
    /// A JSON artifact: also `--out` and `--json`.
    Json,
}

/// One experiment invocation. See the module docs.
#[derive(Default)]
pub(crate) struct Run {
    /// The experiment's own flags are read from here, before
    /// [`Run::start`].
    pub(crate) args: Args,
    /// The experiment's name, for messages.
    pub(crate) experiment: &'static str,
    started: bool,
    /// [`Run::start`] was told to expect an artifact.
    declared: bool,
    json_stdout: bool,
    out: Option<String>,
    trace: Option<String>,
    tracer: Option<Arc<Tracer>>,
    /// Named self-checks in the order recorded; `Err` is a skip reason.
    checks: Vec<(String, Result<bool, String>)>,
    artifact: Option<Value>,
}

impl Run {
    /// Ends argument parsing; call after reading the experiment's flags
    /// and before booting anything. Reads the shared flags `artifact`
    /// admits, rejects (exit 2) any argument no read consumed, naming the
    /// flags that were read, and installs the tracer under `--trace`.
    pub(crate) fn start(&mut self, artifact: Artifact) {
        self.trace = self.args.get("--trace");
        self.declared = !matches!(artifact, Artifact::None);
        if self.declared {
            self.out = self.args.get("--out");
            self.json_stdout = self.args.flag("--json");
        }
        if let Some(arg) = self.args.leftover() {
            eprintln!(
                "repro {}: unexpected argument {arg:?}\naccepted flags: {}",
                self.experiment,
                self.args.accepted().join(" ")
            );
            std::process::exit(2);
        }
        if self.trace.is_some() {
            self.tracer();
        }
        self.started = true;
    }

    /// Whether the text report is wanted (`--json` replaces it with the
    /// artifact); the `say!` macro prints through this.
    pub(crate) fn text(&self) -> bool {
        !self.json_stdout
    }

    /// The process-global tracer, installed on first use — under
    /// `--trace`, or because the experiment analyses the event stream
    /// itself. Machines booted earlier never see it.
    pub(crate) fn tracer(&mut self) -> Arc<Tracer> {
        Arc::clone(
            self.tracer
                .get_or_insert_with(platinum::trace::install_global),
        )
    }

    /// Marks the start of a named configuration in the trace, so the
    /// exported file groups an experiment's cases.
    pub(crate) fn phase(&self, name: &str) {
        if let Some(t) = &self.tracer {
            t.begin_phase(name);
        }
    }

    /// Records a named self-check; any `false` makes the exit status 1.
    pub(crate) fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), Ok(ok)));
    }

    /// Records that a check does not apply to this configuration, and
    /// why.
    pub(crate) fn skip(&mut self, name: impl Into<String>, why: impl Into<String>) {
        self.checks.push((name.into(), Err(why.into())));
    }

    /// The checks recorded so far as a `{name: bool}` object, for
    /// artifacts that carry them.
    pub(crate) fn checks_value(&self) -> Value {
        let verdicts = self.checks.iter();
        Value::Obj(
            verdicts
                .filter_map(|(name, v)| Some((name.clone(), Value::Bool(*v.as_ref().ok()?))))
                .collect(),
        )
    }

    /// Hands over the JSON artifact.
    pub(crate) fn artifact(&mut self, value: Value) {
        self.artifact = Some(value);
    }

    /// Everything after the experiment returns: check verdicts, the
    /// artifact, the trace file, the status.
    pub(crate) fn finish(self) -> ExitCode {
        assert!(self.started, "{} never called Run::start", self.experiment);
        assert_eq!(
            self.artifact.is_some(),
            self.declared,
            "{}: artifact declared to Run::start but not handed over, or the reverse",
            self.experiment
        );
        let mut ok = true;
        for (name, verdict) in &self.checks {
            let verdict = match verdict {
                Ok(true) => "PASS".to_string(),
                Ok(false) => {
                    ok = false;
                    eprintln!("{}: check {name} failed", self.experiment);
                    "FAIL".to_string()
                }
                Err(why) => format!("SKIPPED ({why})"),
            };
            say!(self, "check {name}: {verdict}");
        }
        if let Some(body) = self.artifact.as_ref().map(Value::to_json) {
            if self.json_stdout {
                println!("{body}");
            }
            if let Some(path) = &self.out {
                write_file(path, &body);
                eprintln!("artifact written to {path}");
            }
        }
        if let (Some(path), Some(tracer)) = (&self.trace, &self.tracer) {
            let trace = tracer.snapshot();
            write_file(path, &chrome::chrome_trace_string(&trace));
            eprintln!(
                "trace: {} events ({} dropped) -> {path}",
                trace.events.len(),
                trace.dropped
            );
        }
        ExitCode::from(u8::from(!ok))
    }
}

/// Writes a requested output file, creating its directory.
///
/// # Panics
///
/// Panics when the file cannot be written — a run whose requested
/// artifact silently vanishes is worse than a crash.
fn write_file(path: &str, body: &str) {
    if let Some(dir) = Path::new(path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    }
    std::fs::write(path, body).unwrap_or_else(|e| panic!("writing {path}: {e}"));
}
