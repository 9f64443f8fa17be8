//! Zipf-distributed rank sampling over a precomputed CDF.
//!
//! Key popularity in server workloads is classically modeled as
//! Zipf(θ): the r-th most popular key is requested with probability
//! proportional to `1/r^θ` (θ ≈ 0.99 is the YCSB convention). The
//! sampler precomputes the cumulative weights once, plus a guide table
//! that maps an equal-width slice of `[0, total)` to the first rank
//! whose cumulative weight exceeds the slice's start. A draw starts at
//! its slice's guide entry and walks to the answer — O(1) expected per
//! request, no rejection loops, and every arithmetic operation is either
//! an integer op or an exactly-rounded IEEE f64 op, so the sampled
//! stream is bit-identical across hosts.
//!
//! The walk's result cannot depend on how the guide entries rounded:
//! `cum` never decreases, so stepping back while `cum[j-1] > u` and
//! forward while `cum[j] <= u` ends, from *any* starting rank, at the
//! first rank whose cumulative weight exceeds `u`. A badly rounded
//! entry only lengthens the walk.
//!
//! That last property is why `powf`/`ln` from libm are **not** used:
//! their results are implementation-defined in the last bits and differ
//! between platforms, which would break the exact `server_bench`
//! baseline check. [`det_pow`] below is a fixed polynomial evaluation
//! using only `+ - * /` and bit manipulation. Its absolute accuracy is
//! irrelevant (a slightly-off exponent is still a valid skew); its
//! *determinism* is the contract, and the chi-squared test in the crate
//! compares empirical counts against the sampler's own CDF, not against
//! an external ideal.

use crate::rng::Rng;

/// `log2(x)` for finite positive `x`, from exponent extraction plus an
/// atanh-series polynomial on the mantissa. Deterministic: bit ops and
/// exactly-rounded IEEE arithmetic only.
fn det_log2(x: f64) -> f64 {
    debug_assert!(x > 0.0 && x.is_finite());
    let bits = x.to_bits();
    let mut e = ((bits >> 52) & 0x7FF) as i64 - 1023;
    // Mantissa normalized to [1, 2), then folded into [1/√2, √2] (an
    // exact halving) so the series argument stays small.
    let mut m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000);
    if m > std::f64::consts::SQRT_2 {
        m *= 0.5;
        e += 1;
    }
    // log(m) = 2 atanh(t) with t = (m-1)/(m+1), |t| ≤ 0.172.
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let series = t
        * (2.0
            + t2 * (2.0 / 3.0
                + t2 * (2.0 / 5.0
                    + t2 * (2.0 / 7.0
                        + t2 * (2.0 / 9.0 + t2 * (2.0 / 11.0 + t2 * (2.0 / 13.0)))))));
    e as f64 + series * std::f64::consts::LOG2_E
}

/// `2^x` for moderate `x`, from exponent bit-assembly plus a Taylor
/// polynomial for the fractional part. Deterministic for the same
/// reason as [`det_log2`].
fn det_exp2(x: f64) -> f64 {
    let xi = x.floor();
    let f = x - xi; // [0, 1)
    let z = f * std::f64::consts::LN_2;
    let p = 1.0
        + z * (1.0
            + z * (0.5
                + z * (1.0 / 6.0
                    + z * (1.0 / 24.0
                        + z * (1.0 / 120.0
                            + z * (1.0 / 720.0
                                + z * (1.0 / 5040.0 + z * (1.0 / 40320.0 + z / 362880.0))))))));
    debug_assert!((-1000.0..1000.0).contains(&xi), "exp2 range");
    p * f64::from_bits(((xi as i64 + 1023) as u64) << 52)
}

/// `x^y` for positive `x`, built only from exactly-rounded IEEE ops.
pub(crate) fn det_pow(x: f64, y: f64) -> f64 {
    det_exp2(y * det_log2(x))
}

/// Guide-table entries per rank. At 4 a draw's walk from its guide
/// entry averages about an eighth of a step.
const GUIDE_PER_RANK: usize = 4;

/// A Zipf(θ) sampler over ranks `0..n` (rank 0 is the hottest).
#[derive(Clone, Debug)]
pub struct Zipf {
    /// `cum[r]` = sum of weights of ranks `0..=r`.
    cum: Vec<f64>,
    /// `guide[b]` = the first rank whose `cum` exceeds `b·total/G`, for
    /// `G = guide.len()` equal slices of `[0, total)`.
    guide: Vec<u32>,
    /// `G / total`: scales a draw to its slice.
    scale: f64,
}

impl Zipf {
    /// Precomputes the CDF for `n` ranks with exponent `theta`.
    /// `theta == 0` degenerates to uniform; `theta == 1` is the
    /// harmonic special case (pure divisions, no `det_pow`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or above `u32::MAX`, or `theta` is
    /// negative.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "empty key space");
        assert!(n <= u32::MAX as u64, "too many ranks for u32 guide entries");
        assert!(theta >= 0.0, "negative skew");
        let mut cum = Vec::with_capacity(n as usize);
        let mut total = 0.0f64;
        for r in 0..n {
            let rank = (r + 1) as f64;
            let w = if theta == 1.0 {
                1.0 / rank
            } else if theta == 0.0 {
                1.0
            } else {
                det_pow(rank, -theta)
            };
            total += w;
            cum.push(total);
        }
        let g = GUIDE_PER_RANK * cum.len();
        let width = total / g as f64;
        let mut guide = Vec::with_capacity(g);
        let mut r = 0usize;
        for b in 0..g {
            let start = b as f64 * width;
            while r + 1 < cum.len() && cum[r] <= start {
                r += 1;
            }
            guide.push(r as u32);
        }
        Zipf {
            cum,
            guide,
            scale: g as f64 / total,
        }
    }

    /// The probability mass of `rank` under this sampler's own CDF
    /// (what the chi-squared test compares empirical counts against).
    pub fn prob(&self, rank: u64) -> f64 {
        let total = *self.cum.last().expect("nonempty");
        let hi = self.cum[rank as usize];
        let lo = if rank == 0 {
            0.0
        } else {
            self.cum[rank as usize - 1]
        };
        (hi - lo) / total
    }

    /// Draws a rank: hottest ranks most likely.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let total = *self.cum.last().expect("nonempty");
        self.rank_of(rng.unit() * total)
    }

    /// The first rank whose cumulative weight exceeds `u`, for `u` in
    /// `[0, total)`: a walk from `u`'s guide entry (see the module
    /// docs for why rounding cannot change where it ends).
    pub(crate) fn rank_of(&self, u: f64) -> u64 {
        let b = ((u * self.scale) as usize).min(self.guide.len() - 1);
        let mut j = self.guide[b] as usize;
        while j > 0 && self.cum[j - 1] > u {
            j -= 1;
        }
        while self.cum[j] <= u {
            j += 1;
        }
        j as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_pow_tracks_powf_loosely() {
        // Accuracy is not the contract, but gross error would distort
        // the skew; demand ~1e-9 relative agreement on the ranks the
        // sampler actually raises.
        for r in [1u64, 2, 3, 10, 1000, 1 << 20] {
            for theta in [0.5, 0.75, 0.99, 1.2] {
                let got = det_pow(r as f64, -theta);
                let want = (r as f64).powf(-theta);
                assert!(
                    (got - want).abs() <= want.abs() * 1e-9,
                    "det_pow({r}, -{theta}) = {got}, powf = {want}"
                );
            }
        }
    }

    #[test]
    fn sample_in_range_and_skewed() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Rng::new(11);
        let mut top10 = 0u64;
        const DRAWS: u64 = 20_000;
        for _ in 0..DRAWS {
            let r = z.sample(&mut rng);
            assert!(r < 1000);
            if r < 10 {
                top10 += 1;
            }
        }
        // Top 1% of ranks should hold far more than 1% of draws.
        assert!(
            top10 > DRAWS / 10,
            "no skew: top-10 ranks drew {top10}/{DRAWS}"
        );
    }

    #[test]
    fn probs_sum_to_one() {
        let z = Zipf::new(257, 0.8);
        let sum: f64 = (0..257).map(|r| z.prob(r)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    /// The guide walk lands where a binary search of the CDF does, on
    /// every boundary: each `cum[j]` and its neighbouring floats, zero,
    /// and the largest draw below `total`.
    #[test]
    fn rank_of_matches_binary_search_at_every_boundary() {
        for n in [1u64, 2, 3, 17, 1000, 8192] {
            for theta in [0.0, 0.5, 0.99, 1.0, 1.5] {
                let z = Zipf::new(n, theta);
                let total = *z.cum.last().unwrap();
                let probes = z
                    .cum
                    .iter()
                    .flat_map(|&c| [c.next_down(), c, c.next_up()])
                    .chain([0.0, total.next_down()])
                    .filter(|u| (0.0..total).contains(u));
                for u in probes {
                    let want = z.cum.partition_point(|&c| c <= u) as u64;
                    assert_eq!(z.rank_of(u), want, "n {n}, theta {theta}, u {u:e}");
                }
            }
        }
    }

    #[test]
    fn uniform_degenerate_case() {
        let z = Zipf::new(64, 0.0);
        for r in 0..64 {
            assert!((z.prob(r) - 1.0 / 64.0).abs() < 1e-12);
        }
    }
}
