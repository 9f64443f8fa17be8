//! The generator's random source: splitmix64.
//!
//! Everything the traffic generator draws — interarrival gaps, Zipf
//! ranks, read/write coin flips — comes from this generator, seeded as a
//! pure function of the run seed and the processor index. Identical
//! seeds therefore yield identical request streams on any host, which is
//! what makes the committed `server_bench` baseline an exact check
//! rather than a tolerance band.

/// A splitmix64 stream.
///
/// Chosen over a heavier generator because the determinism argument is
/// the point, not statistical strength: splitmix64 passes the only tests
/// that matter here (no visible structure in bucketed Zipf counts) and
/// is a handful of integer operations with no platform-dependent math.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 uniform bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` via Lemire's multiply-shift (no modulo bias
    /// worth correcting at these stream lengths, and branch-free).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)` with 53 bits of precision. The conversion is
    /// a single exactly-rounded IEEE multiply, so it is bit-stable
    /// across hosts.
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Mixes two words into a seed (finalizer of splitmix64 applied to the
/// pair). Used to derive per-processor and per-key streams from the run
/// seed without correlation between them.
pub(crate) fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            assert!(r.below(13) < 13);
        }
    }

    #[test]
    fn unit_stays_in_range() {
        let mut r = Rng::new(9);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn mix_separates_streams() {
        assert_ne!(mix(1, 0), mix(0, 1));
        assert_ne!(mix(5, 1), mix(5, 2));
    }
}
