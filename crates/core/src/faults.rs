//! Deterministic fault-injection plans for the PLATINUM simulator.
//!
//! PLATINUM's coherence protocol is built out of fragile distributed
//! steps — directory updates, ATC shootdowns, block transfers — and the
//! paper only ever ran it on healthy hardware. A [`FaultPlan`] lets the
//! simulator exercise the protocol's degraded modes: it decides, as a
//! *pure function* of `(seed, site, vtime, key, attempt)`, whether a
//! given protocol step suffers an injected fault. No host randomness is
//! consulted, so a schedule replays bit-identically under the same plan,
//! and two runs of the same deterministic schedule inject the same fault
//! sequence.
//!
//! Liveness is guaranteed by construction: once `attempt` reaches the
//! retry budget [`FaultPlan::MAX_RETRIES`], [`FaultPlan::should_inject`]
//! always answers `false`, so every bounded-retry loop in the kernel
//! terminates with a forced success (possibly after escalating to a
//! degraded mode such as freezing the page).

use std::fmt;

/// Where in the protocol a fault can be injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FaultSite {
    /// A transient memory-module error on a frame read (the source of a
    /// replication/migration copy, or a local copy being re-read).
    FrameRead = 0,
    /// A shootdown IPI is lost in transit: the target never sees it and
    /// its ack never arrives until the initiator times out and resends.
    ShootdownAck = 1,
    /// A block transfer fails mid-copy; the whole page must be re-sent.
    BlockTransfer = 2,
    /// A memory module refuses a frame allocation.
    FrameAlloc = 3,
    /// A page-table replica invalidation is lost in transit: the holder
    /// node keeps walking a stale translation replica until the initiator
    /// times out and resends (escalating to dropping the replica).
    PtableInval = 4,
}

impl FaultSite {
    /// Number of sites (rate tables are sized by this).
    pub const COUNT: usize = 5;

    /// Every site, in discriminant order.
    pub const ALL: [FaultSite; FaultSite::COUNT] = [
        FaultSite::FrameRead,
        FaultSite::ShootdownAck,
        FaultSite::BlockTransfer,
        FaultSite::FrameAlloc,
        FaultSite::PtableInval,
    ];

    /// Decodes a discriminant produced by `site as u8`.
    pub fn from_u8(v: u8) -> Option<FaultSite> {
        FaultSite::ALL.get(v as usize).copied()
    }

    /// A short stable name used by reports and traces.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::FrameRead => "frame_read",
            FaultSite::ShootdownAck => "shootdown_ack",
            FaultSite::BlockTransfer => "block_transfer",
            FaultSite::FrameAlloc => "frame_alloc",
            FaultSite::PtableInval => "ptable_inval",
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A seeded, deterministic fault-injection plan.
///
/// Install one through `KernelConfig::faults` (or `SimBuilder::faults`).
/// When no plan is installed the kernel's injection hooks reduce to one
/// pointer test, so healthy runs stay bit-identical and full speed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    /// Per-site injection probability, parts per million.
    rates_ppm: [u32; FaultSite::COUNT],
    /// Modules that refuse every allocation while the plan is installed
    /// (deterministic pressure for tests; independent of the rates).
    alloc_deny_mask: u64,
}

impl FaultPlan {
    /// The retry budget: injection is forced off once `attempt` reaches
    /// this, bounding every retry ladder.
    pub const MAX_RETRIES: u32 = 3;

    /// Base timeout before a missing shootdown ack is retried, ns; doubles
    /// per attempt (capped) as backoff.
    pub const ACK_TIMEOUT_NS: u64 = 20_000;

    /// The modelled cost of one re-read of a flaky frame, ns.
    pub const RETRY_NS: u64 = 2_000;

    /// A plan that injects nothing (all rates zero) — useful as a base
    /// for the `with_*` builders.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rates_ppm: [0; FaultSite::COUNT],
            alloc_deny_mask: 0,
        }
    }

    /// A moderate all-sites plan for chaos soak runs: every site injects
    /// with the given probability (parts per million).
    pub fn chaos(seed: u64, ppm: u32) -> Self {
        Self::new(seed).with_all_rates(ppm)
    }

    /// Sets the injection rate (parts per million) for one site.
    pub fn with_rate(mut self, site: FaultSite, ppm: u32) -> Self {
        self.rates_ppm[site as usize] = ppm.min(1_000_000);
        self
    }

    /// Sets the same injection rate (parts per million) for every site.
    pub fn with_all_rates(mut self, ppm: u32) -> Self {
        for r in &mut self.rates_ppm {
            *r = ppm.min(1_000_000);
        }
        self
    }

    /// Marks a set of modules (bitmask: bit `m` is module `m`) as refusing
    /// every allocation. The mask names modules 0-63; a module past bit 63
    /// is never denied.
    pub fn with_alloc_deny_mask(mut self, mask: u64) -> Self {
        self.alloc_deny_mask = mask;
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The timeout charged before retry number `attempt` of a missing
    /// shootdown ack: exponential backoff from [`FaultPlan::ACK_TIMEOUT_NS`],
    /// capped at 8x the base.
    pub fn ack_timeout_ns(attempt: u32) -> u64 {
        Self::ACK_TIMEOUT_NS << attempt.saturating_sub(1).min(3)
    }

    /// Whether `module` refuses every allocation under this plan.
    pub fn alloc_denied(&self, module: usize) -> bool {
        module < 64 && self.alloc_deny_mask >> module & 1 != 0
    }

    /// The injection decision: a pure function of the plan and the
    /// query. `key` disambiguates concurrent queries at the same virtual
    /// time (a frame number, a processor id, a module id); `attempt`
    /// numbers the retries of one recovery ladder, and any attempt at or
    /// past the retry budget is forced to succeed.
    pub fn should_inject(&self, site: FaultSite, vtime: u64, key: u64, attempt: u32) -> bool {
        let rate = self.rates_ppm[site as usize];
        if rate == 0 || attempt >= Self::MAX_RETRIES {
            return false;
        }
        let h = mix(self.seed, site as u64, vtime, key, u64::from(attempt));
        h % 1_000_000 < u64::from(rate)
    }
}

/// SplitMix64-style finalizer over the five query words. The add
/// constant is the 64-bit Fibonacci constant used throughout the repo's
/// hashing.
fn mix(seed: u64, site: u64, vtime: u64, key: u64, attempt: u64) -> u64 {
    const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = seed;
    for w in [site, vtime, key, attempt] {
        h = h.wrapping_add(PHI).wrapping_add(w);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure() {
        let a = FaultPlan::chaos(7, 100_000);
        let b = FaultPlan::chaos(7, 100_000);
        for v in 0..2_000u64 {
            for site in FaultSite::ALL {
                assert_eq!(
                    a.should_inject(site, v * 31, v, 0),
                    b.should_inject(site, v * 31, v, 0)
                );
            }
        }
    }

    #[test]
    fn seed_changes_the_sequence() {
        let a = FaultPlan::chaos(1, 500_000);
        let b = FaultPlan::chaos(2, 500_000);
        let diff = (0..4_000u64)
            .filter(|&v| {
                a.should_inject(FaultSite::FrameRead, v, 0, 0)
                    != b.should_inject(FaultSite::FrameRead, v, 0, 0)
            })
            .count();
        assert!(diff > 500, "seeds produced near-identical plans: {diff}");
    }

    #[test]
    fn rate_is_roughly_honoured() {
        let p = FaultPlan::new(42).with_rate(FaultSite::ShootdownAck, 250_000);
        let n = 100_000u64;
        let hits = (0..n)
            .filter(|&v| p.should_inject(FaultSite::ShootdownAck, v * 17, v, 0))
            .count() as f64;
        let frac = hits / n as f64;
        assert!((0.2..0.3).contains(&frac), "25% rate measured at {frac}");
        // Other sites stay silent.
        assert!(!(0..n).any(|v| p.should_inject(FaultSite::FrameRead, v * 17, v, 0)));
    }

    #[test]
    fn retry_budget_forces_success() {
        let p = FaultPlan::chaos(3, 1_000_000);
        assert_eq!(FaultPlan::MAX_RETRIES, 3);
        for v in 0..100u64 {
            assert!(p.should_inject(FaultSite::BlockTransfer, v, 0, 0));
            assert!(p.should_inject(FaultSite::BlockTransfer, v, 0, 2));
            assert!(!p.should_inject(FaultSite::BlockTransfer, v, 0, 3));
            assert!(!p.should_inject(FaultSite::BlockTransfer, v, 0, 99));
        }
    }

    #[test]
    fn backoff_caps() {
        assert_eq!(FaultPlan::ack_timeout_ns(1), 20_000);
        assert_eq!(FaultPlan::ack_timeout_ns(2), 40_000);
        assert_eq!(FaultPlan::ack_timeout_ns(4), 160_000);
        assert_eq!(FaultPlan::ack_timeout_ns(40), 160_000, "backoff is capped");
    }

    #[test]
    fn deny_mask() {
        let p = FaultPlan::new(0).with_alloc_deny_mask(0b101);
        assert!(p.alloc_denied(0));
        assert!(!p.alloc_denied(1));
        assert!(p.alloc_denied(2));
        // Modules past the mask's 64 bits are never denied, and module 64
        // does not alias module 0.
        assert!(!p.alloc_denied(64));
        assert!(!FaultPlan::new(0)
            .with_alloc_deny_mask(u64::MAX)
            .alloc_denied(4095));
    }
}
