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
//! 1. **Virtual memory** (`vm`): address spaces and memory objects;
//!    virtual ranges bind to object pages, objects bind to coherent
//!    pages.
//! 2. **Coherent memory** (`coherent`): the one-to-many mapping from
//!    coherent pages to physical pages, kept consistent by a
//!    directory-based selective-invalidation protocol extended with the
//!    NUMA-specific option of *remote mapping* — the ability to disable
//!    caching block-by-block when fine-grain write-sharing would make the
//!    protocol more expensive than remote access. Includes the
//!    replication policy family ([`PolicyKind`], the one policy type;
//!    the kernel runs `KernelConfig::policy` with the freeze window
//!    `KernelConfig::t1_freeze_ns`), the freeze/defrost machinery, and
//!    the shootdown mechanism.
//! 3. **Physical map** (`pmap`): per-processor, per-space translation
//!    caches backing the hardware ATC.
//!
//! Beside the layers sit the translation fabric (`ptable`: where page
//! tables live, what a walk costs, which replicas a shootdown stales) and
//! deterministic fault-injection plans ([`faults`]).
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

pub(crate) mod coherent;
pub(crate) mod costs;
pub(crate) mod error;
pub mod faults;
pub(crate) mod hash;
pub mod hostprof;
pub(crate) mod ids;
pub(crate) mod pmap;
pub(crate) mod port;
pub(crate) mod ptable;
pub(crate) mod stats;
pub(crate) mod vm;

mod kernel;
mod lockstep;
mod user;

pub use coherent::cpage::{CpState, Cpage, CpageInner};
pub use coherent::policy::{FaultAction, FaultInfo, PolicyKind, ACE_MAX_MIGRATIONS};
pub use error::{KernelError, Result};
pub use faults::{FaultPlan, FaultSite};
pub use ids::{AsId, CpageId, ObjId, Rights, ThreadId};
pub use kernel::{Kernel, KernelConfig, ShootdownMode};
pub use lockstep::Lockstep;
/// The protocol-event tracer (re-exported so downstream crates need not
/// depend on `platinum-trace` directly).
pub use platinum_trace as trace;
pub use port::Port;
pub use ptable::{PtableConfig, PtablePlacement, WalkSnapshot};
pub use stats::{CpageReport, KernelStats, MemoryReport, StatsSnapshot};
pub use user::UserCtx;
pub use vm::object::MemoryObject;
pub use vm::space::AddressSpace;

#[cfg(test)]
mod tests {
    use super::*;

    /// Processors 0 and 64 walking flat out, released together: the walk
    /// tallies are slots of each processor's own `KernelStats` stripe, so
    /// the single-writer adds lose nothing. (With 64 stripes indexed
    /// `proc & 63` the two would share one.)
    #[test]
    fn processors_64_apart_do_not_share_a_stripe() {
        const WALKS: u64 = 1_000_000;
        let s = KernelStats::new(65);
        let go = std::sync::Barrier::new(2);
        std::thread::scope(|t| {
            for proc in [0, 64] {
                let (s, go) = (&s, &go);
                t.spawn(move || {
                    go.wait();
                    for _ in 0..WALKS {
                        s.record_walk(proc, 3, proc == 0);
                    }
                });
            }
        });
        let w = s.walk_snapshot();
        assert_eq!(w.walks, 2 * WALKS);
        assert_eq!(w.walk_ns, 6 * WALKS);
        assert_eq!(w.local_walk_ns, 3 * WALKS);
    }
}
