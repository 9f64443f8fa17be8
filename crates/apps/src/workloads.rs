//! Synthetic sharing workloads for the §4.1 migrate-vs-remote analysis.
//!
//! §4.1 analyzes a shared structure `X` of `s` words, the sole occupant
//! of a coherent page, accessed in turn by `p` processors, each operation
//! making `r` references (density ρ = r/s). [`round_robin`] reproduces
//! that scenario exactly — processors take strict round-robin turns, the
//! worst case with `g(p) = p/(p-1)` — so the benchmark harness can
//! measure the empirical crossover density and compare it with
//! inequality (2) and Table 1.

use numa_machine::{Mem, Va};
use platinum_runtime::sync::EventCount;
use platinum_runtime::Step;

/// Configuration of the round-robin shared-structure workload.
#[derive(Clone, Debug)]
pub struct SharingConfig {
    /// Size of the shared structure in words (`s`); at most one page so
    /// it is "the sole occupant of a coherent page".
    pub struct_words: usize,
    /// References per operation (`r`); density ρ = r / s... relative to
    /// the page: the analysis uses the page size as `s`, so the harness
    /// passes `struct_words == words_per_page`.
    pub refs_per_op: usize,
    /// Fraction (0..=100) of the references that are writes. The §4.1
    /// operation "performs a computation f entailing r memory references
    /// on it" inside a critical section; half-and-half is representative.
    pub write_pct: u32,
    /// Operations performed by each processor.
    pub ops_per_proc: usize,
    /// Modelled computation per operation, ns.
    pub compute_ns_per_op: u64,
}

impl Default for SharingConfig {
    fn default() -> Self {
        Self {
            struct_words: 1024,
            refs_per_op: 256,
            write_pct: 50,
            ops_per_proc: 50,
            compute_ns_per_op: 10_000,
        }
    }
}

/// One processor's strict round-robin loop over the shared structure at
/// `base`, as steps. Turn-taking uses an event count (whose own page
/// freezes, as synchronization pages do); each turn performs
/// `refs_per_op` references sweeping the structure. A turn takes three
/// steps: the wait for it, the operation and its computation, and
/// handing it on — the computation can outlast the contention ring's
/// span, so a step ends right after it.
pub fn round_robin<'a, M: Mem>(
    base: Va,
    turn: &'a EventCount,
    cfg: &'a SharingConfig,
    tid: usize,
    p: usize,
) -> impl FnMut(&mut M) -> Step<'a> + 'a {
    // Steps taken so far: the turn is `s / 3`, its step `s % 3`.
    let mut s = 0;
    move |m| {
        let (op, step) = (s / 3, s % 3);
        s += 1;
        match step {
            _ if op == cfg.ops_per_proc => Step::Done,
            0 => turn.reaching((op * p + tid) as u32).into(),
            1 => {
                operation_for_benchmarks(m, base, cfg, op);
                m.compute(cfg.compute_ns_per_op);
                Step::Ready
            }
            _ => {
                turn.advance(m);
                Step::Ready
            }
        }
    }
}

/// The §4.1 operation `f`: `refs_per_op` references spread across the
/// structure. The first reference is always a write (the §4.1 operation
/// mutates `X`, which is what makes the page migratory); of the rest,
/// `write_pct`% are writes. Public for harnesses that supply their own
/// turn-taking.
pub fn operation_for_benchmarks<M: Mem>(m: &mut M, base: Va, cfg: &SharingConfig, op: usize) {
    let stride = (cfg.struct_words / cfg.refs_per_op.max(1)).max(1);
    let mut acc = 0u32;
    for k in 0..cfg.refs_per_op {
        let idx = (k * stride + op) % cfg.struct_words;
        let va = base + 4 * idx as u64;
        if k == 0 || (k % 100) < cfg.write_pct as usize {
            m.write(va, acc.wrapping_add(k as u32));
        } else {
            acc = acc.wrapping_add(m.read(va));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_machine::mem_iface::test_support::FlatMem;

    #[test]
    fn operation_reference_count() {
        let mut m = FlatMem::new(0, 1);
        let cfg = SharingConfig {
            struct_words: 64,
            refs_per_op: 16,
            write_pct: 50,
            ..Default::default()
        };
        let t0 = m.vtime();
        operation_for_benchmarks(&mut m, 0x1000, &cfg, 0);
        // FlatMem charges 320 per read/write: exactly 16 references.
        assert_eq!(m.vtime() - t0, 16 * 320);
    }

    #[test]
    fn write_pct_bounds() {
        let mut m = FlatMem::new(0, 1);
        let mut cfg = SharingConfig {
            struct_words: 256,
            refs_per_op: 200,
            write_pct: 0,
            ..Default::default()
        };
        operation_for_benchmarks(&mut m, 0x0, &cfg, 0);
        assert_eq!(m.words.len(), 1, "0% writes still writes the mutation ref");
        cfg.write_pct = 100;
        m.words.clear();
        operation_for_benchmarks(&mut m, 0x0, &cfg, 0);
        assert!(m.words.len() > 100, "100% writes must write everywhere");
    }

    #[test]
    fn round_robin_single_proc_runs() {
        let mut m = FlatMem::new(0, 1);
        let turn = EventCount::new(0x8000);
        let cfg = SharingConfig {
            struct_words: 32,
            refs_per_op: 8,
            ops_per_proc: 5,
            ..Default::default()
        };
        crate::run_alone(&mut m, round_robin(0x1000, &turn, &cfg, 0, 1));
        assert_eq!(m.read_spin(0x8000), 5, "five turns taken");
    }
}
