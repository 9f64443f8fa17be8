//! `platinum-apps`: the application programs of the PLATINUM paper.
//!
//! §5 reports measurements of three programs, each with a distinct
//! memory-access pattern; this crate implements all three, plus the
//! synthetic workloads used to validate the §4.1 migrate-vs-remote
//! analysis:
//!
//! * [`gauss`] — the simulated (integer) Gaussian elimination of §5.1 and
//!   Figure 1, in three programming styles: transparent shared memory
//!   (PLATINUM), Uniform-System style with static placement and explicit
//!   pivot copying, and SMP-style message passing over ports;
//! * [`mergesort`] — the tree merge sort of §5.2 and Figure 5, generic
//!   over [`numa_machine::Mem`] so the same code runs on PLATINUM and on
//!   the Sequent-like UMA comparator;
//! * [`neural`] — the recurrent-backpropagation encoder simulator of §5.3
//!   and Figure 6: fine-grain unsynchronized for-loop parallelism whose
//!   shared pages the policy correctly freezes;
//! * [`workloads`] — parameterized sharing patterns (round-robin shared
//!   structure access with controllable reference density) used to
//!   measure the §4.1 crossover empirically.
//!
//! Each application's thread bodies are written against the
//! [`numa_machine::Mem`] trait, and its layout and phase sequence once
//! against [`platinum_runtime::Stage`] (`gauss::Gauss`,
//! `mergesort::Sort`, `neural::Neural`), so the caller decides which
//! machine, kernel, and policy it runs on — and whether the run is live
//! ([`harness`]), recorded ([`capture`]), or on the UMA comparator —
//! without restating the program.

#![warn(missing_docs)]

pub mod capture;
pub mod gauss;
pub mod harness;
pub mod mergesort;
pub mod neural;
pub mod workloads;
