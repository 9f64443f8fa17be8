//! The coherent memory system: the middle layer of PLATINUM memory
//! management (§2).
//!
//! * [`active`] — the per-processor active-space word that gates
//!   shootdown interrupts (§3.1),
//! * [`cpage`] — coherent pages, their four-state protocol, and the
//!   directory of physical copies (the Cpage system of §2.3),
//! * [`cmap`] — per-space Cmap entries, reference masks, and the
//!   shootdown message queues (the Cmap system of §2.3),
//! * [`policy`] — the replication policy family, [`policy::PolicyKind`] (§4.2),
//! * `fault` — the coherent page fault handler (§3.3),
//! * `shootdown` — the NUMA shootdown mechanism (§3.1),
//! * `scratch` — per-processor allocation-free slow-path pools,
//! * [`defrost`] — the defrost daemon (§4.2).

pub(crate) mod active;
pub(crate) mod cmap;
pub(crate) mod cpage;
pub(crate) mod defrost;
pub(crate) mod policy;

mod fault;
pub(crate) mod reclaim;
pub(crate) mod scratch;
pub(crate) mod shootdown;
