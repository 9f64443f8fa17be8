//! `platinum`: the PLATINUM kernel — a coherent memory abstraction for
//! NUMA multiprocessors.
//!
//! This crate reimplements the memory-management system of *The
//! Implementation of a Coherent Memory Abstraction on a NUMA
//! Multiprocessor: Experiences with PLATINUM* (Cox & Fowler, SOSP 1989)
//! on the simulated Butterfly-Plus-like machine provided by the
//! `numa-machine` crate.
//!
//! # Architecture
//!
//! The memory management system is constructed in three layers (§2.1):
//!
//! 1. **Virtual memory** ([`vm`]): address spaces and memory objects;
//!    virtual ranges bind to object pages, objects bind to coherent
//!    pages.
//! 2. **Coherent memory** ([`coherent`]): the one-to-many mapping from
//!    coherent pages to physical pages, kept consistent by a
//!    directory-based selective-invalidation protocol extended with the
//!    NUMA-specific option of *remote mapping* — the ability to disable
//!    caching block-by-block when fine-grain write-sharing would make the
//!    protocol more expensive than remote access. Includes the
//!    replication policy family ([`PolicyKind`], the one policy type;
//!    the kernel runs `KernelConfig::policy` with the freeze window
//!    `KernelConfig::t1_freeze_ns`), the freeze/defrost machinery, and
//!    the shootdown mechanism.
//! 3. **Physical map** ([`pmap`]): per-processor, per-space translation
//!    caches backing the hardware ATC.
//!
//! # Using the kernel
//!
//! ```
//! use numa_machine::{Machine, MachineConfig, Mem};
//! use platinum::{Kernel, KernelConfig, Rights};
//!
//! let machine = Machine::new(MachineConfig::with_nodes(4)).unwrap();
//! let kernel = Kernel::boot(machine, KernelConfig::default());
//! let space = kernel.create_space();
//! let object = kernel.create_object(2); // two pages
//! let base = space.map_anywhere(object, Rights::RW).unwrap();
//!
//! // Bind a thread to processor 0 and touch coherent memory.
//! let mut ctx = kernel.attach(space, 0, 0).unwrap();
//! ctx.write(base, 42);
//! assert_eq!(ctx.read(base), 42);
//! ```
//!
//! Threads on different processors attach their own contexts and share
//! the same coherent pages; the kernel replicates, migrates, or freezes
//! pages underneath them transparently.

#![warn(missing_docs)]

pub mod coherent;
pub mod costs;
pub mod error;
pub(crate) mod hash;
pub mod hostprof;
pub mod ids;
pub mod pmap;
pub mod port;
pub mod stats;
pub mod thread;
pub mod vm;

mod kernel;
mod lockstep;
mod user;

pub use coherent::cpage::{CpState, Cpage, CpageInner};
pub use coherent::policy::{FaultAction, FaultInfo, PolicyKind, ACE_MAX_MIGRATIONS};
pub use error::{KernelError, Result};
pub use ids::{AsId, CpageId, ObjId, PortId, Rights, ThreadId};
pub use kernel::{Kernel, KernelConfig, ShootdownMode};
pub use lockstep::Lockstep;
/// Deterministic fault-injection plans (re-exported so downstream crates
/// need not depend on `platinum-faults` directly).
pub use platinum_faults as faults;
pub use platinum_faults::{FaultPlan, FaultSite};
/// The translation fabric: NUMA-charged page-table walks and per-node
/// Pmap replicas (re-exported so downstream crates need not depend on
/// `platinum-ptable` directly).
pub use platinum_ptable as ptable;
pub use platinum_ptable::{PtableConfig, PtablePlacement, WalkSnapshot};
/// The protocol-event tracer (re-exported so downstream crates need not
/// depend on `platinum-trace` directly).
pub use platinum_trace as trace;
pub use port::Port;
pub use stats::{CpageReport, KernelStats, MemoryReport, StatsSnapshot};
pub use thread::{ThreadInfo, ThreadState};
pub use user::UserCtx;
pub use vm::object::MemoryObject;
pub use vm::space::{AddressSpace, Region};
