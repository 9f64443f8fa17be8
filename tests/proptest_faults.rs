//! Property-based tests for the deterministic fault-injection plan.
//!
//! The whole chaos-soak story rests on [`FaultPlan`] being a pure
//! function of `(seed, site, vtime, key, attempt)`: replaying a run with
//! the same seed must reproduce the same injection decisions bit for
//! bit, with no hidden host randomness. These properties pin that down.

use proptest::prelude::*;

use platinum_repro::kernel::faults::{FaultPlan, FaultSite};

fn site(ix: u8) -> FaultSite {
    FaultSite::from_u8(ix % FaultSite::COUNT as u8).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Two plans built from the same seed agree on every decision: the
    /// plan is a pure function of its inputs, never of construction
    /// order, call order, or host state.
    #[test]
    fn same_seed_same_decisions(
        seed in any::<u64>(),
        ppm in 0u32..1_000_000,
        probes in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>(), 0u32..8), 1..64)
    ) {
        let a = FaultPlan::chaos(seed, ppm);
        let b = FaultPlan::chaos(seed, ppm);
        // Interrogate `b` in reverse to rule out order dependence.
        let from_a: Vec<bool> = probes
            .iter()
            .map(|&(s, v, k, at)| a.should_inject(site(s), v, k, at))
            .collect();
        let from_b: Vec<bool> = probes
            .iter()
            .rev()
            .map(|&(s, v, k, at)| b.should_inject(site(s), v, k, at))
            .collect();
        for (x, y) in from_a.iter().zip(from_b.iter().rev()) {
            prop_assert_eq!(x, y);
        }
    }

    /// Different seeds give different fault schedules. A 50% rate makes
    /// each probe a seed-keyed coin flip, so 128 probes agreeing across
    /// two seeds means the seed is not actually being mixed in.
    #[test]
    fn different_seeds_diverge(seed in any::<u64>()) {
        let a = FaultPlan::chaos(seed, 500_000);
        let b = FaultPlan::chaos(seed.wrapping_add(1), 500_000);
        let diverged = (0..128u64).any(|i| {
            let s = site(i as u8);
            a.should_inject(s, i * 977, i, 0) != b.should_inject(s, i * 977, i, 0)
        });
        prop_assert!(diverged, "seeds {seed} and {} gave identical schedules", seed.wrapping_add(1));
    }

    /// Injection is forced off once the retry budget is spent — this is
    /// the liveness argument: every recovery ladder terminates because
    /// its final attempt cannot fail.
    #[test]
    fn retry_budget_forces_success(
        seed in any::<u64>(),
        s in any::<u8>(),
        vtime in any::<u64>(),
        key in any::<u64>(),
        extra in 0u32..16,
    ) {
        let plan = FaultPlan::chaos(seed, 1_000_000); // always inject when allowed
        let cap = FaultPlan::MAX_RETRIES;
        prop_assert!(plan.should_inject(site(s), vtime, key, 0));
        prop_assert!(!plan.should_inject(site(s), vtime, key, cap + extra));
    }

    /// A zero rate never injects; sites keep independent rates.
    #[test]
    fn rates_are_per_site(
        seed in any::<u64>(),
        vtime in any::<u64>(),
        key in any::<u64>(),
    ) {
        let plan = FaultPlan::new(seed).with_rate(FaultSite::ShootdownAck, 1_000_000);
        prop_assert!(plan.should_inject(FaultSite::ShootdownAck, vtime, key, 0));
        for s in [FaultSite::FrameRead, FaultSite::BlockTransfer, FaultSite::FrameAlloc] {
            prop_assert!(!plan.should_inject(s, vtime, key, 0));
        }
    }
}

/// Ack-timeout backoff is monotone in the attempt number and capped, so
/// escalation time is bounded and deterministic. (The ladder is a
/// constant of the model, the same for every plan.)
#[test]
fn ack_backoff_monotone_and_capped() {
    let mut prev = 0u64;
    for attempt in 0..12 {
        let t = FaultPlan::ack_timeout_ns(attempt);
        assert!(t >= prev, "backoff not monotone at attempt {attempt}");
        prev = t;
    }
    assert!(prev <= FaultPlan::ack_timeout_ns(0).saturating_mul(8));
}
