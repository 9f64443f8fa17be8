//! The virtual memory system: the top layer of PLATINUM memory
//! management (§2.1).
//!
//! Manages the mappings from virtual address ranges to memory objects and
//! from memory objects to coherent pages. Modelled on the
//! machine-independent part of Mach memory management, as the paper's
//! design was.

pub(crate) mod object;
pub(crate) mod space;
