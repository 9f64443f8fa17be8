//! The kernel's cost model.
//!
//! The simulator charges the virtual clock of the processor executing a
//! kernel operation. Costs are decomposed the way §4 of the paper
//! decomposes its measurements: a fixed trap/dispatch overhead plus a
//! number of modelled kernel data-structure references, each charged at
//! the machine's local or remote word latency depending on where the
//! structure is homed. The constants are calibrated so that the §4
//! micro-operations land inside the paper's published ranges on the
//! default 16-node machine, whose block-transfer rate and IPI cost are
//! the machine's own ([`numa_machine::BLOCK_WORD_NS`],
//! [`numa_machine::IPI_NS`]):
//!
//! * page-sized block transfer: ~1.11 ms (from the machine's 1100 ns/word),
//! * read miss replicating a non-modified page: 1.34-1.38 ms,
//! * read miss replicating a modified page (one restrict IPI): 1.38-1.59 ms,
//! * write miss on a `present+` page (one invalidate IPI, one page freed):
//!   0.25-0.45 ms,
//! * incremental cost per additional interrupted processor: <= 17 us
//!   (~7 us IPI + ~10 us to free a page).

/// Fixed overhead of entering the coherent page fault handler: trap,
/// state save, dispatch, return, ns. The dominant part of the paper's
/// ~0.23 ms fixed overhead for "allocating and mapping a physical page"
/// on the 16.67 MHz MC68020.
pub(crate) const FAULT_FIXED_NS: u64 = 200_000;

/// Modelled references to the faulting address space's Cmap (homed on the
/// space's home node).
pub(crate) const CMAP_LOOKUP_REFS: u32 = 4;

/// Modelled references to the Cpage table entry (homed on the page's home
/// node). These are what make the paper's "kernel data structures local
/// vs. remote" spread (~40 us) appear.
pub(crate) const CPAGE_TOUCH_REFS: u32 = 8;

/// Modelled local references to install a Pmap + ATC entry.
pub(crate) const MAP_REFS: u32 = 8;

/// Extra fixed cost of a virtual-memory-layer fault (region lookup, Cmap
/// entry creation) the first time a page is touched in a space, ns.
pub(crate) const VM_FAULT_NS: u64 = 60_000;

/// References to post one Cmap message (remote writes into the target
/// space's queue).
pub(crate) const POST_MSG_REFS: u32 = 2;

/// Cost charged to a *target* applying one Cmap message to its own Pmap
/// and ATC, ns.
pub(crate) const APPLY_MSG_NS: u64 = 5_000;

/// Extra initiator-side cost per target under the Mach-style shared-Pmap
/// shootdown comparator, ns. Black et al. measured ~55 us incremental per
/// processor on a 16-processor Encore Multimax; we charge their constant
/// minus our modelled IPI so the comparator reproduces the published
/// comparison (see DESIGN.md).
pub(crate) const MACH_STALL_EXTRA_NS: u64 = 48_000;

/// Fixed cost of a port send/receive, excluding the per-word copy, ns.
pub(crate) const PORT_OP_NS: u64 = 30_000;

/// Cost of moving a thread's kernel stack when the thread migrates, ns
/// (§2.2: "explicitly moving the kernel stack with the thread").
pub(crate) const THREAD_MIGRATE_NS: u64 = 150_000;

/// Cost of one defrost daemon activation, excluding per-page work, ns.
pub(crate) const DEFROST_RUN_NS: u64 = 20_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_land_in_paper_ranges() {
        // Sanity-check the calibration arithmetic that the doc comment
        // promises, on the default machine timing (320 ns local word,
        // 5000 ns remote read, 1100 ns/word block transfer, 1024-word
        // pages).
        let local = 320u64;
        let copy = 1024 * 1100;
        // All kernel data local: fixed + (4 + 8 + 8) modelled local refs.
        let fixed_local =
            FAULT_FIXED_NS + u64::from(CMAP_LOOKUP_REFS + CPAGE_TOUCH_REFS + MAP_REFS) * local;
        let read_miss_local = fixed_local + copy;
        assert!(
            (1_300_000..=1_400_000).contains(&read_miss_local),
            "read miss w/ local kernel data = {read_miss_local} ns, expected ~1.34 ms"
        );
        // Cmap and Cpage structures remote: those refs at ~5000 ns.
        let remote = 5000u64;
        let fixed_remote = FAULT_FIXED_NS
            + u64::from(CMAP_LOOKUP_REFS + CPAGE_TOUCH_REFS) * remote
            + u64::from(MAP_REFS) * local;
        let read_miss_remote = fixed_remote + copy;
        assert!(
            (1_350_000..=1_450_000).contains(&read_miss_remote),
            "read miss w/ remote kernel data = {read_miss_remote} ns, expected ~1.38 ms"
        );
    }
}
