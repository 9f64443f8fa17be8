//! "When does it pay to migrate a page?" — the §4.1 analytic model.
//!
//! A structure `X` of `s` words, sole occupant of a coherent page, is
//! accessed by `p` processors in turn, each operation making `r = ρ·s`
//! references. With `C_local = ρ·s·T_l`, `C_remote = ρ·s·T_r`, and
//! `C_migrate = s·T_b + F` (block transfer plus fixed overhead), it pays
//! to move the data when
//!
//! > `C_remote > g(p)·C_migrate + C_local`      (inequality 1)
//!
//! which rearranges to inequality (2) of the paper:
//!
//! > `s > (F/(T_r−T_l))·g / (ρ − (T_b/(T_r−T_l))·g)`
//!
//! With the Butterfly Plus constants (T_l = 320 ns, T_r = 5000 ns,
//! T_b = 1100 ns, F ≈ 0.5 ms) the coefficients are the paper's 107 and
//! 0.24, giving Table 1.

use numa_machine::{TimingConfig, BLOCK_WORD_NS};

/// The machine parameters of the model.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CostModel {
    /// Local reference time, ns (T_l).
    pub t_local_ns: f64,
    /// Remote reference time, ns (T_r).
    pub t_remote_ns: f64,
    /// Block-transfer time per word, ns (T_b).
    pub t_block_ns: f64,
    /// Fixed overhead of a migration, ns (F). The paper's §4.1 uses
    /// "about 0.48 ms" but its printed coefficient 107 corresponds to
    /// ~0.5 ms; `paper()` uses the value that reproduces Table 1.
    pub overhead_ns: f64,
}

/// The minimum page size for which migration pays, in words.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum SMin {
    /// Migration pays for any page at least this large.
    Words(u64),
    /// Migration never pays at this density (`ρ ≤ 0.24·g`): the protocol
    /// overhead can never be amortized. The "never" entries of Table 1.
    Never,
}

impl std::fmt::Display for SMin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SMin::Words(w) => write!(f, "{w}"),
            SMin::Never => write!(f, "never"),
        }
    }
}

impl CostModel {
    /// The paper's published constants.
    pub(crate) fn paper() -> Self {
        Self {
            t_local_ns: 320.0,
            t_remote_ns: 5000.0,
            t_block_ns: 1100.0,
            overhead_ns: 500_760.0, // 107 × (5000 − 320)
        }
    }

    /// The model with coefficients exactly as the paper *printed* them
    /// (107 and 0.24): Table 1 was computed from the rounded
    /// coefficients, not from the raw latencies, so this is the model
    /// that reproduces the printed numbers.
    pub(crate) fn paper_published() -> Self {
        Self {
            t_local_ns: 320.0,
            t_remote_ns: 5000.0,
            t_block_ns: 0.24 * (5000.0 - 320.0), // ratio exactly 0.24
            overhead_ns: 107.0 * (5000.0 - 320.0), // coefficient exactly 107
        }
    }

    /// Builds the model from a machine's word latencies, the machine-wide
    /// block-transfer rate and a measured fixed overhead.
    pub(crate) fn from_timing(t: &TimingConfig, overhead_ns: f64) -> Self {
        Self {
            t_local_ns: t.local_read_ns as f64,
            t_remote_ns: t.remote_read_ns as f64,
            t_block_ns: BLOCK_WORD_NS as f64,
            overhead_ns,
        }
    }

    /// The numerator coefficient `F / (T_r − T_l)` (the paper's 107).
    pub(crate) fn overhead_coefficient(&self) -> f64 {
        self.overhead_ns / (self.t_remote_ns - self.t_local_ns)
    }

    /// The ratio `T_b / (T_r − T_l)` (the paper's 0.24) — "the single
    /// most important characteristic of the architecture" for this
    /// decision.
    pub(crate) fn block_ratio(&self) -> f64 {
        self.t_block_ns / (self.t_remote_ns - self.t_local_ns)
    }

    /// Inequality (2): the minimum page size (words) for which migration
    /// always pays at density `rho` and movement ratio `g`.
    pub(crate) fn s_min(&self, rho: f64, g: f64) -> SMin {
        let denom = rho - self.block_ratio() * g;
        if denom <= 0.0 {
            SMin::Never
        } else {
            SMin::Words((self.overhead_coefficient() * g / denom).round() as u64)
        }
    }

    /// The crossover density for a fixed page size: the ρ above which
    /// migration pays for a page of `s_words`.
    pub(crate) fn crossover_density(&self, s_words: u64, g: f64) -> f64 {
        // From s = coef·g / (ρ − ratio·g):  ρ* = coef·g/s + ratio·g.
        self.overhead_coefficient() * g / s_words as f64 + self.block_ratio() * g
    }
}

/// `g(p)` for strict round-robin access: `p / (p − 1)` (the worst case;
/// §4.1: "g(2) = 2", approaching 1 for large `p`).
///
/// # Panics
///
/// Panics for `p < 2` — a single processor never moves data to itself.
pub(crate) fn g_round_robin(p: usize) -> f64 {
    assert!(p >= 2, "round-robin g(p) needs at least two processors");
    p as f64 / (p as f64 - 1.0)
}

/// The ρ values of Table 1's rows.
pub(crate) const TABLE1_RHOS: [f64; 9] = [0.17, 0.24, 0.35, 0.48, 0.60, 0.75, 1.0, 1.5, 2.0];
/// The g values of Table 1's columns.
pub(crate) const TABLE1_GS: [f64; 3] = [0.5, 1.0, 2.0];

/// Computes Table 1: S_min for each (ρ, g) pair.
pub(crate) fn table1(model: &CostModel) -> Vec<(f64, [SMin; 3])> {
    TABLE1_RHOS
        .iter()
        .map(|&rho| {
            let row = [
                model.s_min(rho, TABLE1_GS[0]),
                model.s_min(rho, TABLE1_GS[1]),
                model.s_min(rho, TABLE1_GS[2]),
            ];
            (rho, row)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The model's predictions, which only these tests read: whether
    /// migration pays, and each strategy's cost per operation.
    impl CostModel {
        fn migration_pays(&self, s_words: u64, rho: f64, g: f64) -> bool {
            match self.s_min(rho, g) {
                SMin::Words(min) => s_words > min,
                SMin::Never => false,
            }
        }

        /// Predicted cost of one operation (ρ·s references) under the
        /// remote-access strategy, ns.
        fn op_cost_remote(&self, s_words: u64, rho: f64) -> f64 {
            rho * s_words as f64 * self.t_remote_ns
        }

        /// Predicted amortized cost of one operation under the migration
        /// strategy, ns.
        fn op_cost_migrate(&self, s_words: u64, rho: f64, g: f64) -> f64 {
            g * (s_words as f64 * self.t_block_ns + self.overhead_ns)
                + rho * s_words as f64 * self.t_local_ns
        }
    }

    #[test]
    fn paper_coefficients() {
        let m = CostModel::paper();
        assert!((m.overhead_coefficient() - 107.0).abs() < 0.01);
        assert!((m.block_ratio() - 0.235).abs() < 0.001);
        let pp = CostModel::paper_published();
        assert!((pp.overhead_coefficient() - 107.0).abs() < 1e-9);
        assert!((pp.block_ratio() - 0.24).abs() < 1e-9);
    }

    #[test]
    fn table1_matches_paper_within_rounding() {
        // The paper's printed values, except (rho = 0.48, g = 1): the
        // paper prints 435 there, but 107/(0.48 - 0.24) = 445.8 — the
        // same arithmetic that yields the 445 it prints at
        // (rho = 0.24, g = 0.5) — so 435 is almost certainly a typo for
        // 445/446 and we expect the computed value. The paper's own
        // rounding is inconsistent elsewhere (445.83 printed as 445,
        // 972.7 as 973), so allow +-2 words.
        let expected: [(f64, [Option<u64>; 3]); 9] = [
            (0.17, [Some(1070), None, None]),
            (0.24, [Some(445), None, None]),
            (0.35, [Some(232), Some(973), None]),
            (0.48, [Some(149), Some(446), None]),
            (0.60, [Some(111), Some(298), Some(1784)]),
            (0.75, [Some(85), Some(210), Some(793)]),
            (1.0, [Some(61), Some(141), Some(412)]),
            (1.5, [Some(39), Some(84), Some(210)]),
            (2.0, [Some(28), Some(61), Some(141)]),
        ];
        let m = CostModel::paper_published();
        for (row, (rho, cols)) in table1(&m).iter().zip(expected.iter()) {
            assert_eq!(row.0, *rho);
            for (got, want) in row.1.iter().zip(cols.iter()) {
                match (got, want) {
                    (SMin::Never, None) => {}
                    (SMin::Words(w), Some(v)) => {
                        assert!(w.abs_diff(*v) <= 2, "rho={rho} got {w} want {v}");
                    }
                    other => panic!("rho={rho}: mismatch {other:?}"),
                }
            }
        }
    }

    #[test]
    fn never_region_is_density_bound() {
        let m = CostModel::paper();
        // ρ ≤ 0.24·g can never pay regardless of page size: the paper's
        // "lower bound on the minimum reference density".
        assert_eq!(m.s_min(0.2, 1.0), SMin::Never);
        assert!(!m.migration_pays(1 << 30, 0.2, 1.0));
        assert!(m.migration_pays(1024, 0.5, 1.0));
        assert!(!m.migration_pays(100, 0.5, 1.0), "below S_min = 435");
    }

    #[test]
    fn crossover_consistency() {
        let m = CostModel::paper();
        for &g in &[0.5, 1.0, 2.0] {
            let rho_star = m.crossover_density(1024, g);
            // Just above the crossover migration pays; just below it
            // does not.
            assert!(m.migration_pays(1024, rho_star * 1.01, g));
            assert!(!m.migration_pays(1024, rho_star * 0.99, g));
            // And the two strategies cost the same at the crossover.
            let a = m.op_cost_remote(1024, rho_star);
            let b = m.op_cost_migrate(1024, rho_star, g);
            assert!((a - b).abs() / a < 1e-9);
        }
    }

    #[test]
    fn g_round_robin_values() {
        assert_eq!(g_round_robin(2), 2.0);
        assert!((g_round_robin(16) - 16.0 / 15.0).abs() < 1e-12);
        assert!(g_round_robin(100) < g_round_robin(3), "g decreases with p");
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn g_round_robin_rejects_one() {
        let _ = g_round_robin(1);
    }

    #[test]
    fn smin_display() {
        assert_eq!(SMin::Words(141).to_string(), "141");
        assert_eq!(SMin::Never.to_string(), "never");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn smin_monotonic_in_density_and_g(
            rho in 0.05f64..3.0,
            g in 0.3f64..3.0,
        ) {
            let m = CostModel::paper();
            // Larger density can only shrink (or keep) the minimum page size.
            if let (SMin::Words(a), SMin::Words(b)) = (m.s_min(rho, g), m.s_min(rho + 0.2, g)) {
                prop_assert!(b <= a, "S_min must fall as density rises: {a} -> {b}");
            }
            // Larger g (more data movements per saved remote op) can only
            // grow it — or push it to "never".
            match (m.s_min(rho, g), m.s_min(rho, g * 1.5)) {
                (SMin::Words(a), SMin::Words(b)) => prop_assert!(b >= a),
                (SMin::Never, SMin::Words(_)) => {
                    prop_assert!(false, "never cannot become feasible as g grows")
                }
                _ => {}
            }
        }

        #[test]
        fn g_round_robin_decreases(p in 2usize..60) {
            prop_assert!(g_round_robin(p + 1) < g_round_robin(p));
            prop_assert!(g_round_robin(p) > 1.0);
        }

        #[test]
        fn crossover_density_is_consistent_with_s_min(
            s_exp in 6u32..14,
            g in 0.3f64..2.5,
        ) {
            let m = CostModel::paper();
            let s = 1u64 << s_exp;
            let rho_star = m.crossover_density(s, g);
            prop_assert!(m.migration_pays(s, rho_star * 1.05, g));
            prop_assert!(!m.migration_pays(s, rho_star * 0.95, g));
        }
    }
}
