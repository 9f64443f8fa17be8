//! Kernel error types.

use core::fmt;

use numa_machine::{AccessErr, Va};

use crate::ids::{AsId, ObjId};

/// An error returned by a kernel operation.
///
/// Marked `#[non_exhaustive]`: downstream matches must keep a catch-all
/// arm, so future degraded-mode variants are not a breaking change.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum KernelError {
    /// A user memory access failed unrecoverably (bus error, protection
    /// violation at the virtual-memory level, misalignment).
    Access(AccessErr),
    /// No physical frame could be allocated on any memory module.
    OutOfMemory,
    /// The named address space does not exist.
    NoSuchSpace(AsId),
    /// A mapping request overlapped an existing region.
    MappingConflict(Va),
    /// A mapping request referenced pages beyond the end of the object.
    BadRange,
    /// The requested rights exceed what the region grants.
    RightsExceeded,
    /// The target processor already runs a thread (the simulator binds at
    /// most one thread per processor; see DESIGN.md).
    ProcessorBusy(usize),
    /// The object still has live bindings and cannot be destroyed.
    ObjectInUse(ObjId),
    /// A transient memory-module error persisted past the retry budget
    /// with no other copy to recover from (fault injection).
    TransientMemoryError {
        /// The module whose frame read kept failing.
        module: usize,
    },
    /// A shootdown target never acknowledged within the retry budget
    /// (fault injection); the page was frozen as the degraded mode.
    ShootdownTimeout {
        /// The processor that stayed silent.
        proc: usize,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Access(e) => write!(f, "access error: {e}"),
            KernelError::OutOfMemory => write!(f, "out of physical memory"),
            KernelError::NoSuchSpace(id) => write!(f, "no such address space: {id}"),
            KernelError::MappingConflict(va) => {
                write!(f, "mapping conflicts with existing region at {va:#x}")
            }
            KernelError::BadRange => write!(f, "page range beyond end of object"),
            KernelError::RightsExceeded => write!(f, "requested rights exceed the grant"),
            KernelError::ProcessorBusy(p) => write!(f, "processor {p} already runs a thread"),
            KernelError::ObjectInUse(id) => write!(f, "object {id} still has bindings"),
            KernelError::TransientMemoryError { module } => {
                write!(f, "unrecovered transient memory error on module {module}")
            }
            KernelError::ShootdownTimeout { proc } => {
                write!(f, "shootdown ack from processor {proc} timed out")
            }
        }
    }
}

impl std::error::Error for KernelError {}

impl From<AccessErr> for KernelError {
    fn from(e: AccessErr) -> Self {
        KernelError::Access(e)
    }
}

/// Convenience alias for kernel results.
pub type Result<T> = std::result::Result<T, KernelError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_from() {
        let e: KernelError = AccessErr::Protection(0x40).into();
        assert_eq!(e.to_string(), "access error: protection fault at 0x40");
        assert_eq!(
            KernelError::OutOfMemory.to_string(),
            "out of physical memory"
        );
        assert_eq!(
            KernelError::ProcessorBusy(3).to_string(),
            "processor 3 already runs a thread"
        );
        assert_eq!(
            KernelError::TransientMemoryError { module: 2 }.to_string(),
            "unrecovered transient memory error on module 2"
        );
        assert_eq!(
            KernelError::ShootdownTimeout { proc: 5 }.to_string(),
            "shootdown ack from processor 5 timed out"
        );
    }
}
