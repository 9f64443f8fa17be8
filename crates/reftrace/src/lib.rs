//! `platinum-reftrace`: a reference-trace format and the replay of a
//! given stream under any placement policy.
//!
//! A [`format::RefTrace`] is a per-processor reference stream (operation
//! kind, virtual address, word counts, compute charges, synchronization
//! release edges) written down as one global, totally ordered op list per
//! phase, plus the machine shape and allocation layout it assumes.
//! [`replay::replay`] re-executes that op list, in exactly its global
//! order, against a fresh kernel booted with *any*
//! [`platinum::PolicyKind`] — no application code involved — and answers
//! "what does this exact reference stream cost under that policy?", the
//! trace-driven methodology of the NUMA placement literature. Replay is
//! deterministic: the same trace under the same policy yields the same
//! virtual times and counters bit for bit.
//!
//! The paper's own comparison (`repro policy_matrix`) runs each
//! application live under each policy instead; a trace here comes from
//! its producer, e.g. a seeded synthesiser built on the format's public
//! fields.
//!
//! # What a trace holds
//!
//! Data *values* are not in the trace: the coherency protocol's behaviour
//! and costs depend on which pages are touched with which rights, never
//! on the bits moved, so replay is value-free (writes store zeros,
//! atomics add zero). Synchronization is structural: a spin read is one
//! op per iteration (their global interleaving is what freezes pages),
//! and an `advance_to` release edge is either a dependency on the op that
//! produced the release time ([`format::Op::AdvanceDep`]) or an absolute
//! time ([`format::Op::AdvanceAbs`]). Under replay the dependency form
//! propagates the replayed policy's own timing through the
//! synchronization graph. Replay boots the flat Butterfly with
//! centralized page tables and the virtual-clock skew window disabled
//! (it paces only free-running threads).

#![warn(missing_docs)]

pub(crate) mod format;
pub mod replay;

pub use format::{Op, Phase, Rec, RefTrace};
pub use replay::{replay, PhaseOutcome, ReplayOutcome};
