//! `numa-machine`: an execution-driven simulator of a NUMA multiprocessor.
//!
//! This crate is the hardware substrate for the PLATINUM reproduction
//! (Cox & Fowler, SOSP 1989). It models a machine in the style of the BBN
//! Butterfly Plus on which the paper's kernel ran:
//!
//! * one processor per node, each with a private *address translation
//!   cache* (ATC) standing in for the MC68851 MMU ([`Atc`]),
//! * one memory module per node holding word-granular page frames backed by
//!   real storage (`MemoryModule`, [`Frame`]), each with an *inverted page
//!   table* as described in §2.3 of the paper,
//! * an interconnect with per-module contention accounting and a microcoded
//!   *block-transfer engine* that consumes 75% of the bus bandwidth of both
//!   nodes involved (§7),
//! * per-processor *virtual clocks* charged from the latencies the paper
//!   reports (320 ns local reference, ~5000 ns remote read, 1100 ns per
//!   word of block transfer), and
//! * interprocessor interrupt lines used by the kernel's shootdown
//!   mechanism (§3.1).
//!
//! The simulator is *execution driven*: application code runs on real OS
//! threads, one per simulated processor, and every load/store goes through
//! [`ProcCore`] where it is translated by the ATC and charged virtual time.
//! Simulated physical memory is real memory (`AtomicU32` words), so page
//! replicas made by the kernel are genuine copies and a coherence bug
//! produces a genuinely wrong application answer. A frame's storage is
//! materialised on its first use (`MemoryModule::frame`), so host memory
//! follows the pages a run touches, not `frames_per_node`.
//!
//! The kernel built on top of this substrate lives in the `platinum` crate;
//! the [`Mem`] trait is the programming interface that applications use so
//! that the same application can run on the PLATINUM kernel, on raw NUMA
//! hardware with hand placement, or on the [`uma`] comparator machine.

#![warn(missing_docs)]

pub(crate) mod addr;
pub(crate) mod atc;
pub(crate) mod config;
pub mod contention;
pub(crate) mod frame;
pub mod mem_iface;
pub mod module;
pub(crate) mod proc;
pub(crate) mod procset;
pub mod skew;
pub(crate) mod stats;
pub(crate) mod topology;
pub mod uma;

mod machine;

pub use addr::{AccessErr, PhysPage, ProcId, Va, Vpn};
pub use atc::Atc;
pub use config::{MachineConfig, TimingConfig, BLOCK_WORD_NS, IPI_NS, SKEW_WINDOW_NS};
pub use contention::{BucketCursor, BucketedResource};
pub use frame::Frame;
pub use machine::Machine;
pub use mem_iface::Mem;
pub use proc::{AccessKind, FastPath, ProcCore};
pub use procset::{AtomicProcSet, ProcSet};
pub use skew::{Pacer, SkewWindow};
pub use stats::AccessCounters;
pub use topology::{LinkTiming, Topology};
