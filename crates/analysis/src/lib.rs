//! `platinum-analysis`: the paper's §4.1 analytic model and the
//! reporting helpers used by the benchmark harness.
//!
//! * [`model`] — when does it pay to migrate a page? Inequality (2),
//!   `g(p)`, and the S_min values of Table 1.
//! * [`report`] — text tables and speedup-series formatting shared by
//!   the experiments of `platinum-bench`.

#![warn(missing_docs)]

pub mod model;
pub mod report;

pub use model::{CostModel, SMin};
pub use report::{Series, Table};
