//! Address and identifier types shared by the machine and the kernel.

use core::fmt;

/// A virtual byte address.
///
/// Virtual addresses are plain 64-bit byte offsets; all data accesses are
/// word (32-bit) granular and must be 4-byte aligned, matching the
/// Butterfly Plus whose "typical unit of access is a 32-bit word" (§4.1 of
/// the paper).
pub type Va = u64;

/// A virtual page number (a [`Va`] shifted right by the page shift).
pub type Vpn = u64;

/// A processor (equivalently, node) identifier.
///
/// Processors and memory modules are paired one-to-one per node, as on the
/// Butterfly. Sets of processors, like the reference masks of §2.3, are
/// [`crate::ProcSet`]s.
pub type ProcId = usize;

/// The identity of a physical page frame: a (memory module, frame index)
/// pair.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysPage {
    /// The node whose memory module holds the frame.
    pub module: u32,
    /// The frame index within the module.
    pub frame: u32,
}

impl PhysPage {
    /// Creates a physical page identity.
    pub fn new(module: usize, frame: usize) -> Self {
        Self {
            module: module as u32,
            frame: frame as u32,
        }
    }

    /// The node whose memory module holds the frame, as a `usize`.
    pub fn module_id(&self) -> usize {
        self.module as usize
    }

    /// The frame index within the module, as a `usize`.
    pub fn frame_id(&self) -> usize {
        self.frame as usize
    }
}

impl fmt::Debug for PhysPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pp({}:{})", self.module, self.frame)
    }
}

/// An error raised by a simulated memory access.
///
/// `NoTranslation` and `Protection` correspond to the MC68851 address
/// translation and protection faults that drive the PLATINUM coherency
/// protocol (§2.1: "Most transitions in the protocol are thus initiated by
/// address translation and protection faults").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessErr {
    /// The address is not 4-byte aligned.
    Misaligned(Va),
    /// No virtual-to-physical translation exists for the page.
    NoTranslation(Va),
    /// A translation exists but does not grant the required right.
    Protection(Va),
    /// The address lies outside any mapped region (a "bus error").
    BusError(Va),
}

impl fmt::Display for AccessErr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessErr::Misaligned(va) => write!(f, "misaligned access at {va:#x}"),
            AccessErr::NoTranslation(va) => write!(f, "no translation for {va:#x}"),
            AccessErr::Protection(va) => write!(f, "protection fault at {va:#x}"),
            AccessErr::BusError(va) => write!(f, "bus error at {va:#x}"),
        }
    }
}

impl std::error::Error for AccessErr {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phys_page_roundtrip() {
        let pp = PhysPage::new(3, 17);
        assert_eq!(pp.module_id(), 3);
        assert_eq!(pp.frame_id(), 17);
        assert_eq!(format!("{pp:?}"), "pp(3:17)");
    }

    #[test]
    fn access_err_display() {
        assert_eq!(
            AccessErr::Protection(0x1000).to_string(),
            "protection fault at 0x1000"
        );
        assert_eq!(
            AccessErr::NoTranslation(0x2000).to_string(),
            "no translation for 0x2000"
        );
    }
}
