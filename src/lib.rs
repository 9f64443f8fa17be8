//! `platinum-repro`: umbrella crate of the PLATINUM reproduction.
//!
//! Re-exports the workspace crates so examples and integration tests can
//! use one dependency. See `README.md` for the tour and `DESIGN.md` for
//! the system inventory.

#![warn(missing_docs)]

pub use numa_machine as machine;
pub use platinum as kernel;
pub use platinum_apps as apps;
pub use platinum_runtime as runtime;
