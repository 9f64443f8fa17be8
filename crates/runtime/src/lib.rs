//! `platinum-runtime`: the user-level run-time library for PLATINUM.
//!
//! §6 of the paper: "A run-time library for defining disjoint memory
//! allocation zones and for specifying page-aligned allocation helps
//! PLATINUM programmers [separate data with different access patterns]
//! with a minimum of effort, even without compiler support." §9: "we are
//! rapidly accumulating run-time libraries, shells, and other support
//! software to further ease the programming process."
//!
//! This crate is that library:
//!
//! * [`zones`] — disjoint, page-aligned allocation zones so that private,
//!   read-shared, write-shared, and synchronization data never co-habit a
//!   page (the §4.2 anecdote is what happens when they do);
//! * [`sync`] — spin locks, barriers, and event counts implemented *on
//!   simulated coherent memory* (so their pages freeze and thaw exactly
//!   like the paper describes) with virtual-time propagation from
//!   releasers to acquirers;
//! * `step` — stepped execution: a phase's workers run as bounded steps
//!   on one host thread, lowest virtual clock first, so a run is a
//!   function of its inputs;
//! * `par` — the free-running worker pool: one thread per simulated
//!   processor, for concurrency tests and host-time measurements;
//! * `stage` — the [`Stage`] seam applications are staged against, so
//!   one layout-plus-phases definition runs on a booted simulation and
//!   on the UMA comparator;
//! * [`measure`] — speedup bookkeeping shared by the benchmark harness.
//!
//! Everything generic is written against [`numa_machine::Mem`], so the
//! same synchronization primitives serve applications running on the
//! PLATINUM kernel and on the UMA comparator machine.

#![warn(missing_docs)]

pub mod measure;
pub(crate) mod par;
pub mod sim;
pub(crate) mod stage;
pub(crate) mod step;
pub mod sync;
pub mod zones;

/// The lockstep executor: one host thread drives every processor's
/// context in a caller-chosen order (re-exported from the kernel crate,
/// where its shootdown-ack hook lives).
pub use platinum::Lockstep;
pub use sim::{Sim, SimBuilder};
pub use stage::Stage;
pub use step::Step;
pub use sync::{Barrier, EventCount, SpinLock, Wait};
