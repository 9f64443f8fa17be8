//! The portable memory interface that applications program against.

use crate::addr::Va;

/// The memory interface of one simulated processor, as seen by an
/// application thread.
///
/// Applications in this repository (Gaussian elimination, merge sort, the
/// neural-network simulator, the synthetic workloads) are written against
/// this trait so that the *same* application code runs on:
///
/// * the PLATINUM kernel's coherent memory (`platinum::UserCtx`) — the
///   paper's system,
/// * the same kernel under baseline replication policies (static
///   placement ≈ the Uniform System comparator, ACE-style, ...), and
/// * the UMA comparator machine with small write-through caches
///   ([`crate::uma::UmaCtx`]) — the Sequent Symmetry of Figure 5.
///
/// All data accesses are 32-bit-word granular, matching the Butterfly
/// Plus (§4.1 of the paper: the typical unit of access is a 32-bit word).
///
/// # Panics
///
/// The data-access methods panic on misaligned addresses and on
/// unrecoverable access violations (no mapping, insufficient rights at
/// the *virtual-memory* level). Those correspond to a program crashing
/// with a bus error on the real machine: an application bug, not a
/// recoverable condition. Kernel-internal fault handling (the coherency
/// protocol) is invisible here — that is the whole point of the coherent
/// memory abstraction.
pub trait Mem {
    /// The simulated processor this context is bound to.
    fn proc_id(&self) -> usize;

    /// The number of processors on the machine.
    fn nprocs(&self) -> usize;

    /// The processor's current virtual time, in nanoseconds.
    fn vtime(&self) -> u64;

    /// Moves the clock forward to at least `t` (used by synchronization
    /// primitives to propagate release times to acquirers).
    fn advance_to(&mut self, t: u64);

    /// Charges `ns` nanoseconds of computation (non-memory work).
    fn compute(&mut self, ns: u64);

    /// Reads the 32-bit word at `va`.
    fn read(&mut self, va: Va) -> u32;

    /// Writes the 32-bit word at `va`.
    fn write(&mut self, va: Va, val: u32);

    /// Reads the word at `va` *without charging access latency*.
    ///
    /// Spin-wait loops use this: the waiting time is modelled analytically
    /// by the synchronization primitive (via [`Mem::advance_to`]), but the
    /// accesses still exercise the coherency protocol — repeatedly
    /// touching a page from many processors is exactly what freezes it
    /// (§4.2's spin-lock anecdote). Protocol work triggered by a fault is
    /// still charged.
    fn read_spin(&mut self, va: Va) -> u32;

    /// Atomic fetch-and-add on the word at `va`, returning the previous
    /// value (the Butterfly's atomic remote 32-bit operations).
    fn fetch_add(&mut self, va: Va, delta: u32) -> u32;

    /// Atomic compare-and-exchange on the word at `va`.
    ///
    /// Returns `Ok(previous)` on success, `Err(actual)` on failure.
    fn compare_exchange(&mut self, va: Va, current: u32, new: u32) -> Result<u32, u32>;

    /// Atomic swap of the word at `va`, returning the previous value.
    fn swap(&mut self, va: Va, val: u32) -> u32;

    /// Gives the kernel an opportunity to service pending interprocessor
    /// interrupts without performing a data access. Long compute-only
    /// stretches should call this periodically.
    fn poll(&mut self) {}

    /// Declares that the processor is entering a spin-wait loop.
    ///
    /// Synchronization primitives bracket their wait loops with
    /// `begin_wait`/`end_wait`: while waiting, the processor's clock is
    /// frozen (spin reads are uncharged), so implementations with a skew
    /// window exclude it from the window's minimum. Default: no-op.
    fn begin_wait(&mut self) {}

    /// Declares that the spin-wait loop exited.
    fn end_wait(&mut self) {}

    /// Instrumentation hook: a synchronization primitive acquired
    /// (`acquire == true`) or is about to release (`acquire == false`)
    /// the lock whose state word is at `va`. Default: no-op.
    ///
    /// Implementations backed by a traced machine record the event on
    /// the protocol timeline — lock hold intervals are how the §4.2
    /// frozen-spin-lock anecdote is diagnosed.
    fn trace_lock(&mut self, va: Va, acquire: bool) {
        let _ = (va, acquire);
    }

    /// Reads `dst.len()` consecutive words starting at `va`.
    ///
    /// The default implementation is word-at-a-time; implementations may
    /// batch translation per page.
    fn read_block(&mut self, va: Va, dst: &mut [u32]) {
        for (i, w) in dst.iter_mut().enumerate() {
            *w = self.read(va + 4 * i as u64);
        }
    }

    /// Writes `src.len()` consecutive words starting at `va`.
    fn write_block(&mut self, va: Va, src: &[u32]) {
        for (i, &w) in src.iter().enumerate() {
            self.write(va + 4 * i as u64, w);
        }
    }
}

/// Test support: a trivial flat-memory [`Mem`] with simple fixed costs,
/// used by this crate's tests and by downstream crates to unit-test
/// `Mem`-generic code without booting a machine.
pub mod test_support {
    use super::*;
    use std::collections::HashMap;

    /// A trivial flat-memory `Mem` for testing default methods and
    /// `Mem`-generic primitives without a machine.
    pub struct FlatMem {
        /// Backing words (sparse).
        pub words: HashMap<Va, u32>,
        /// Current virtual time, ns.
        pub vtime: u64,
        /// Reported processor id.
        pub id: usize,
        /// Reported processor count.
        pub n: usize,
    }

    impl FlatMem {
        /// A fresh, zeroed flat memory for processor `id` of `n`.
        pub fn new(id: usize, n: usize) -> Self {
            Self {
                words: HashMap::new(),
                vtime: 0,
                id,
                n,
            }
        }
    }

    impl Mem for FlatMem {
        fn proc_id(&self) -> usize {
            self.id
        }
        fn nprocs(&self) -> usize {
            self.n
        }
        fn vtime(&self) -> u64 {
            self.vtime
        }
        fn advance_to(&mut self, t: u64) {
            self.vtime = self.vtime.max(t);
        }
        fn compute(&mut self, ns: u64) {
            self.vtime += ns;
        }
        fn read(&mut self, va: Va) -> u32 {
            assert_eq!(va % 4, 0, "misaligned");
            self.vtime += 320;
            *self.words.get(&va).unwrap_or(&0)
        }
        fn write(&mut self, va: Va, val: u32) {
            assert_eq!(va % 4, 0, "misaligned");
            self.vtime += 320;
            self.words.insert(va, val);
        }
        fn read_spin(&mut self, va: Va) -> u32 {
            *self.words.get(&va).unwrap_or(&0)
        }
        fn fetch_add(&mut self, va: Va, delta: u32) -> u32 {
            let old = *self.words.get(&va).unwrap_or(&0);
            self.words.insert(va, old.wrapping_add(delta));
            self.vtime += 640;
            old
        }
        fn compare_exchange(&mut self, va: Va, current: u32, new: u32) -> Result<u32, u32> {
            let old = *self.words.get(&va).unwrap_or(&0);
            self.vtime += 640;
            if old == current {
                self.words.insert(va, new);
                Ok(old)
            } else {
                Err(old)
            }
        }
        fn swap(&mut self, va: Va, val: u32) -> u32 {
            let old = *self.words.get(&va).unwrap_or(&0);
            self.words.insert(va, val);
            self.vtime += 640;
            old
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::FlatMem;
    use super::*;

    #[test]
    fn block_defaults() {
        let mut m = FlatMem::new(0, 1);
        m.write_block(0x100, &[1, 2, 3]);
        let mut out = [0u32; 3];
        m.read_block(0x100, &mut out);
        assert_eq!(out, [1, 2, 3]);
    }

    #[test]
    fn atomics_on_flat() {
        let mut m = FlatMem::new(0, 1);
        assert_eq!(m.fetch_add(0, 3), 0);
        assert_eq!(m.compare_exchange(0, 3, 9), Ok(3));
        assert_eq!(m.compare_exchange(0, 3, 7), Err(9));
        assert_eq!(m.swap(0, 1), 9);
    }
}
