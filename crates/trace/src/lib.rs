//! Virtual-time event tracing for the PLATINUM reproduction.
//!
//! The paper's own methodology hinged on observability: the per-Cpage
//! report of §4.2 is what diagnosed the frozen spin-lock-page anecdote.
//! Aggregate counters (`platinum::KernelStats`) say *how many* times a
//! page replicated, froze, or thawed — this crate records *when*, *where*,
//! and *in what order*, against each simulated processor's virtual clock.
//!
//! # Design
//!
//! * [`Tracer`] owns one fixed-capacity ring buffer per simulated
//!   processor (`ring::Ring`). The thread driving a processor is the
//!   only writer to that processor's ring, so pushes are lock-free and
//!   wait-free: five relaxed atomic word stores and one release length
//!   store. When a ring is full the oldest events are overwritten and
//!   counted as dropped.
//! * Every event carries a virtual timestamp (the emitting processor's
//!   clock, ns), a global sequence number (a single `fetch_add`, giving a
//!   total order across processors for invariant checking), the
//!   [`EventKind`], a kind-specific `code`, and two 64-bit payload words
//!   (`page`, `arg` — see the [`EventKind`] docs for each kind's
//!   meaning).
//! * Tracing is opt-in at run time, by whether a tracer is installed:
//!   emit sites hold an `Option<Arc<Tracer>>`, so disabled means one
//!   untaken branch on a protocol path that already costs hundreds of
//!   instructions — the word-access fast path has no emit sites at all.
//!
//! # Exporters
//!
//! * [`chrome`] writes Chrome `trace_event` JSON loadable in Perfetto
//!   (<https://ui.perfetto.dev>): one process group per [`Tracer`]
//!   phase, one track per simulated processor, fault begin/end pairs as
//!   duration slices, everything else as instants.
//! * [`timeline`] renders a per-Cpage textual timeline — the freeze →
//!   serial-bottleneck → defrost story of §4.2, straight from the
//!   trace.
//!
//! # Quickstart
//!
//! ```ignore
//! let tracer = platinum_trace::install_global();
//! // ... boot a kernel (it picks up the global tracer) and run ...
//! let trace = tracer.snapshot();
//! std::fs::write("out.json", platinum_trace::chrome::chrome_trace_string(&trace))?;
//! ```

mod event;
mod ring;
mod tracer;

pub mod chrome;
pub mod json;
pub mod timeline;

pub use event::{EventKind, FaultResolution, TraceEvent};
pub use tracer::{Trace, Tracer};

use std::sync::{Arc, OnceLock};

static GLOBAL: OnceLock<Arc<Tracer>> = OnceLock::new();

/// Installs (or returns the already-installed) process-global tracer.
///
/// Kernels and machines built *after* this call pick the tracer up
/// automatically, so binaries can enable tracing without threading a
/// handle through every constructor. The first installation wins.
pub fn install_global() -> Arc<Tracer> {
    GLOBAL.get_or_init(Tracer::new).clone()
}

/// The process-global tracer, if one was installed.
pub fn global() -> Option<Arc<Tracer>> {
    GLOBAL.get().cloned()
}
