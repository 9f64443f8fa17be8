//! `platinum-reftrace`: the policy lab's record/replay engine.
//!
//! The paper's central claim (§4, Figure 1) is *comparative*: coherent
//! replication + migration + freezing beats plain local or remote
//! placement on real workloads. Comparing policies by re-running each
//! application once per policy wastes work and — worse — entangles the
//! comparison with the application's own nondeterminism. This crate
//! separates the two concerns:
//!
//! 1. **Record** ([`Capture`]): run the application once, under the
//!    PLATINUM policy, as steps on the one stepped executor, which runs
//!    one simulated memory operation at a time. That order is one valid
//!    interleaving, and the recorder *writes it down*: each processor's
//!    reference stream
//!    (operation kind, virtual address, word counts, compute charges,
//!    synchronization release edges) lands in one global, totally-ordered
//!    op list per phase — a [`format::RefTrace`].
//! 2. **Replay** ([`replay::replay`]): re-execute the recorded op list,
//!    in exactly the recorded global order, against a fresh kernel booted
//!    with *any* [`platinum::PolicyKind`] — no application code involved.
//!    A 5-policy × 3-app comparison costs one execution plus five cheap
//!    replays.
//!
//! Replaying the trace under the *same* policy reproduces the capture
//! run's virtual times bit for bit (the round-trip test in this crate and
//! the `policy_matrix` benchmark both assert it). Replaying under a
//! different policy answers "what would this exact reference stream have
//! cost under that policy?" — the trace-driven methodology of the NUMA
//! placement literature.
//!
//! # What is (and is not) recorded
//!
//! Data *values* are not recorded: the coherency protocol's behaviour and
//! costs depend on which pages are touched with which rights, never on
//! the bits moved, so replay is value-free (writes store zeros, atomics
//! add zero). Synchronization is captured structurally: spin reads are
//! recorded one op per iteration (their global interleaving is what
//! freezes pages), and `advance_to` release edges are recorded as a
//! dependency on the op that produced the release time when possible
//! ([`format::Op::AdvanceDep`]), falling back to the absolute captured
//! time ([`format::Op::AdvanceAbs`]). Under same-policy replay the two
//! encodings are identical; under other policies the dependency form
//! propagates that policy's own timing through the synchronization graph.
//!
//! # Limitations
//!
//! The recorder wraps the [`numa_machine::Mem`] seam, so anything an
//! application does *around* that seam — notably the message-passing
//! Gaussian variant, which talks to kernel ports directly — cannot be
//! captured. The capture machine runs with the virtual-clock skew window
//! disabled (it paces only free-running threads); replays use the same
//! setting.

#![warn(missing_docs)]

pub mod format;
pub mod record;
pub mod replay;

pub use format::{Op, Phase, Rec, RefTrace};
pub use record::{Capture, RecordingCtx};
pub use replay::{replay, PhaseOutcome, ReplayOptions, ReplayOutcome};
