//! Property-based end-to-end tests of the applications: arbitrary
//! problem shapes must produce correct results on the full stack.

use proptest::prelude::*;

use platinum_repro::apps::gauss::{self, GaussConfig};
use platinum_repro::apps::harness::{run_gauss, run_mergesort_platinum, GaussStyle, PolicyKind};
use platinum_repro::apps::mergesort::SortConfig;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        max_shrink_iters: 20,
        ..ProptestConfig::default()
    })]

    #[test]
    fn gauss_matches_reference_for_arbitrary_shapes(
        n in 8usize..56,
        p in 1usize..6,
        seed in any::<u64>(),
        style_sel in 0usize..3,
    ) {
        let cfg = GaussConfig { n, seed };
        let style = match style_sel {
            0 => GaussStyle::Shared(PolicyKind::Platinum),
            1 => GaussStyle::UniformSystem,
            _ => GaussStyle::MessagePassing,
        };
        let expected = gauss::reference_checksum(&cfg);
        let run = run_gauss(style, 6, p, &cfg);
        prop_assert_eq!(run.checksum, expected,
            "n={} p={} seed={} style={}", n, p, seed, style.name());
    }

    #[test]
    fn mergesort_sorts_arbitrary_sizes(
        log_n in 8u32..13,
        log_p in 0u32..3,
        seed in any::<u64>(),
    ) {
        let cfg = SortConfig {
            n: 1 << log_n,
            seed,
        };
        let p = 1usize << log_p;
        // The runner verifies sortedness + permutation internally and
        // panics on failure.
        let run = run_mergesort_platinum(4.max(p), p, &cfg);
        prop_assert!(run.elapsed_ns > 0);
    }
}
