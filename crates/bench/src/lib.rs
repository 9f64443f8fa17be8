//! `platinum-bench`: shared scaffolding for the per-figure benchmark
//! binaries.
//!
//! Each table and figure of the paper's evaluation has its own binary
//! (see `src/bin/`); this library provides the tiny argument parser they
//! share, the one `--check` comparison against a committed baseline
//! artifact, and the orchestration used by the §4 micro-benchmarks (live
//! "poller" processors that service shootdown interrupts while the
//! measured processor runs a protocol operation). Host time is measured
//! by `benchmark/` (perf_ledger), not here.

#![warn(missing_docs)]

pub mod args;
pub mod check;
pub mod micro;
pub mod policy_matrix;
pub mod trace_out;

pub use args::Args;
pub use trace_out::TraceSink;
