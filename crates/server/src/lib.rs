//! `platinum-server`: the server-shaped workload tier.
//!
//! The paper evaluates PLATINUM with three scientific kernels whose
//! sharing is phase-structured and symmetric. Production NUMA traffic is
//! nothing like that: it is request-driven, skewed (a few keys absorb
//! most of the load), churning (the hot set drifts), and mixed
//! (reader-heavy with write bursts). This crate builds that terrain on
//! top of the existing coherent memory abstraction:
//!
//! * `kv` — a sharded key-value/session store laid out over coherent
//!   pages: fixed-slot open-addressing tables, one spin lock per shard,
//!   values spanning several words within a page.
//! * `flow` — a packet-pipeline workload modeled on dataplane
//!   flow/routing tables: a read-mostly route + next-hop lookup followed
//!   by a per-flow state update.
//! * `traffic` — a deterministic open-loop request generator: seeded
//!   Zipf key popularity (`zipf`), rolling hot-set drift, configurable
//!   read/write mix with write bursts, per-processor arrival schedules
//!   in virtual time.
//! * `drive` — the measurement harness: a serialized, deterministic
//!   open-loop driver (same executor as the reftrace replay engine: one
//!   host thread, one kernel entry at a time in a fixed global order,
//!   reproduces the run exactly) with per-request virtual-time latency
//!   accounting (`hist`).
//!
//! Workloads are written against [`ServerMem`], a small extension of the
//! portable [`Mem`] interface that exposes the kernel's *fallible*
//! access path, so the same workload code composes with the fault
//! injection machinery (a `platinum::UserCtx` surfaces injected-fault
//! residuals as `Err`, which the driver retries and counts).

#![warn(missing_docs)]

use numa_machine::{Mem, Va};

pub(crate) mod drive;
pub(crate) mod flow;
pub(crate) mod hist;
pub(crate) mod kv;
pub(crate) mod rng;
pub(crate) mod traffic;
pub(crate) mod zipf;

pub use drive::{run_open_loop, DriverReport, Workload};
pub use flow::{FlowConfig, FlowTables};
pub use hist::Histogram;
pub use kv::{KvAudit, KvConfig, KvTable};
pub use rng::Rng;
pub use traffic::{Request, TrafficConfig};
pub use zipf::Zipf;

/// The memory interface the server workloads are written against:
/// [`Mem`] plus the fallible word accessors of the kernel's recoverable
/// path.
///
/// The defaults wrap the panicking [`Mem`] accessors, which is correct
/// for a backend without a recoverable error path (the flat test
/// memory). The `platinum::UserCtx` implementation forwards to
/// `try_read`/`try_write` instead, so an injected fault that exhausts its
/// recovery ladder surfaces to the request driver as an `Err` to retry
/// rather than a panic.
pub trait ServerMem: Mem {
    /// Reads the word at `va`, surfacing recoverable failures.
    fn try_load(&mut self, va: Va) -> platinum::Result<u32> {
        Ok(self.read(va))
    }

    /// Writes the word at `va`, surfacing recoverable failures.
    fn try_store(&mut self, va: Va, val: u32) -> platinum::Result<()> {
        self.write(va, val);
        Ok(())
    }
}

impl ServerMem for platinum::UserCtx {
    fn try_load(&mut self, va: Va) -> platinum::Result<u32> {
        self.try_read(va)
    }

    fn try_store(&mut self, va: Va, val: u32) -> platinum::Result<()> {
        self.try_write(va, val)
    }
}

/// Test backend (no recoverable error path).
impl ServerMem for numa_machine::mem_iface::test_support::FlatMem {}
