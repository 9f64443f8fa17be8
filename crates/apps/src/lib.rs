//! `platinum-apps`: the application programs of the PLATINUM paper.
//!
//! §5 reports measurements of three programs, each with a distinct
//! memory-access pattern; this crate implements all three, plus the
//! synthetic workloads used to validate the §4.1 migrate-vs-remote
//! analysis:
//!
//! * [`gauss`] — the simulated (integer) Gaussian elimination of §5.1 and
//!   Figure 1, in three programming styles: transparent shared memory
//!   (PLATINUM), Uniform-System style with static placement and explicit
//!   pivot copying, and SMP-style message passing over ports;
//! * [`mergesort`] — the tree merge sort of §5.2 and Figure 5, generic
//!   over [`numa_machine::Mem`] so the same code runs on PLATINUM and on
//!   the Sequent-like UMA comparator;
//! * [`neural`] — the recurrent-backpropagation encoder simulator of §5.3
//!   and Figure 6: fine-grain unsynchronized for-loop parallelism whose
//!   shared pages the policy correctly freezes;
//! * [`workloads`] — parameterized sharing patterns (round-robin shared
//!   structure access with controllable reference density) used to
//!   measure the §4.1 crossover empirically.
//!
//! Each application's per-processor program is written as steps
//! ([`platinum_runtime::Step`]) against the [`numa_machine::Mem`] trait,
//! and its layout and phase sequence once against
//! [`platinum_runtime::Stage`] (`gauss::Gauss`,
//! `mergesort::Sort`, `neural::Neural`), so the caller decides which
//! machine, kernel, and policy it runs on — a booted simulation
//! ([`harness`]) or the UMA comparator — without restating the program.

#![warn(missing_docs)]

pub mod gauss;
pub mod harness;
pub mod mergesort;
pub mod neural;
pub mod workloads;

/// Runs a stepped worker alone on `m`, spinning on its waits.
#[cfg(test)]
fn run_alone<'a, M: numa_machine::Mem>(
    m: &mut M,
    mut worker: impl FnMut(&mut M) -> platinum_runtime::Step<'a>,
) {
    use platinum_runtime::Step;
    loop {
        match worker(m) {
            Step::Ready => {}
            Step::Wait(w) => w.spin(m),
            Step::Done => return,
        }
    }
}
