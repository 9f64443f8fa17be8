//! Log-bucketed latency histograms in virtual nanoseconds.
//!
//! HDR-style layout: values below 8 get exact buckets; above that, each
//! power-of-two range is split into 8 linear sub-buckets, so relative
//! quantile error is bounded by 12.5% while the whole table stays at
//! 512 counters. All arithmetic is integral — recording and quantile
//! extraction are bit-deterministic, which lets `server_bench`
//! commit exact p50/p99/p999 numbers as its baseline.

/// Sub-bucket resolution: 2^3 linear buckets per power of two.
const SUB_BITS: u32 = 3;
/// 61 major ranges × 8 sub-buckets + the 8 exact low buckets.
const BUCKETS: usize = 512;

/// A latency histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Index of the bucket holding `v`.
fn index(v: u64) -> usize {
    if v < (1 << SUB_BITS) {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = ((v >> (msb - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
    ((msb - SUB_BITS + 1) as usize) << SUB_BITS | sub
}

/// Largest value mapping to bucket `i` (what quantiles report).
fn upper_bound(i: usize) -> u64 {
    if i < (1 << SUB_BITS) {
        return i as u64;
    }
    let msb = (i >> SUB_BITS) as u32 + SUB_BITS - 1;
    let sub = (i & ((1 << SUB_BITS) - 1)) as u64;
    let lo = ((1 << SUB_BITS) | sub) << (msb - SUB_BITS);
    lo + (1u64 << (msb - SUB_BITS)) - 1
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `num/den` quantile as the upper bound of the bucket holding
    /// it (p99 = `quantile(99, 100)`). Integer arithmetic throughout;
    /// returns 0 for an empty histogram.
    pub(crate) fn quantile(&self, num: u64, den: u64) -> u64 {
        assert!(num <= den && den > 0, "quantile out of range");
        if self.count == 0 {
            return 0;
        }
        // Rank of the target value, 1-based, rounded up.
        let target = (self.count * num).div_ceil(den).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// p50 in one call.
    pub fn p50(&self) -> u64 {
        self.quantile(50, 100)
    }

    /// p99 in one call.
    pub fn p99(&self) -> u64 {
        self.quantile(99, 100)
    }

    /// p999 in one call.
    pub fn p999(&self) -> u64 {
        self.quantile(999, 1000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        // Every value maps to exactly one bucket whose bounds contain it.
        let mut prev = 0usize;
        for v in 0..4096u64 {
            let i = index(v);
            assert!(i >= prev, "index not monotone at {v}");
            assert!(upper_bound(i) >= v, "upper bound below value at {v}");
            prev = i;
        }
        // Spot-check the sub-bucket error bound: the bucket holding v
        // ends within 12.5% of v.
        for v in [100u64, 1_000, 10_000, 1_000_000, 123_456_789] {
            let ub = upper_bound(index(v));
            assert!(ub >= v && ub - v <= v / 8 + 1, "bound too loose at {v}");
        }
    }

    #[test]
    fn exact_small_values() {
        let mut h = Histogram::new();
        for v in 0..8 {
            h.record(v);
        }
        assert_eq!(h.quantile(1, 8), 0);
        assert_eq!(h.quantile(8, 8), 7);
        assert_eq!(h.max(), 7);
    }

    #[test]
    fn quantiles_are_ordered() {
        let mut a = Histogram::new();
        for v in 1..=1000u64 {
            a.record(v * 100);
        }
        assert_eq!(a.count(), 1000);
        let (p50, p99, p999) = (a.p50(), a.p99(), a.p999());
        assert!(p50 <= p99 && p99 <= p999 && p999 <= a.max());
        // p50 of 100..=100_000 sits near 50_000 (within bucket error).
        assert!((43_000..=57_000).contains(&p50), "p50 = {p50}");
        assert!(p99 >= 90_000, "p99 = {p99}");
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.p99(), 0);
        assert_eq!((h.count(), h.sum()), (0, 0));
    }
}
