//! Globally-named kernel object identifiers.
//!
//! PLATINUM's fundamental abstractions — threads, memory objects, ports,
//! and address spaces — "all appear in a single flat global name space"
//! (§1.1 of the paper). Here threads, memory objects and address
//! spaces are named from per-kind counters in creation order; a port is
//! the `Arc<Port>` its senders and receivers share, since nothing reads
//! a port's name.

use core::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// The global name of an address space.
    AsId,
    "as"
);

impl AsId {
    /// The raw index into the kernel's space registry.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

id_type!(
    /// The global name of a memory object (an ordered list of coherent
    /// pages that can be bound into any address space).
    ObjId,
    "obj"
);
id_type!(
    /// The global name of a kernel thread.
    ThreadId,
    "thr"
);

/// The identity of a coherent page.
///
/// Also used (plus one) as the owner tag in the machines' inverted page
/// tables, so it is 64-bit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CpageId(pub u64);

impl CpageId {
    /// The raw index into the coherent page table.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for CpageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cp{}", self.0)
    }
}

/// Access rights to a range of virtual addresses, as granted by the
/// virtual memory system (the virtual-to-coherent level).
///
/// The coherency protocol may *further* restrict the virtual-to-physical
/// mapping below these rights (§3.2: "the virtual-to-physical mapping is
/// restricted in order to implement the coherency protocol").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rights {
    /// Reads permitted.
    pub read: bool,
    /// Writes (and atomic read-modify-writes) permitted.
    pub write: bool,
}

impl Rights {
    /// Read-only access.
    pub const RO: Rights = Rights {
        read: true,
        write: false,
    };
    /// Read-write access.
    pub const RW: Rights = Rights {
        read: true,
        write: true,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_display() {
        assert_eq!(format!("{}", AsId(3)), "as3");
        assert_eq!(format!("{:?}", ObjId(1)), "obj1");
        assert_eq!(format!("{:?}", CpageId(9)), "cp9");
        assert_eq!(AsId(2).index(), 2);
    }

    #[test]
    fn rights_covering() {
        // RW covers RO and RW; RO covers RO but not RW.
        assert_eq!((Rights::RW.read, Rights::RW.write), (true, true));
        assert_eq!((Rights::RO.read, Rights::RO.write), (true, false));
    }
}
