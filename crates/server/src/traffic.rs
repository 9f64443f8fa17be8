//! Deterministic open-loop request generation.
//!
//! Each processor gets its own arrival schedule in *virtual* time,
//! derived as a pure function of `(seed, processor)`: a stream of
//! requests with Zipf-popular keys, a hot set that drifts through the
//! key space on a fixed period, and a read/write mix punctuated by
//! write bursts (the "session checkpoint" pattern: a server that mostly
//! reads suddenly persists a batch). Open loop means arrivals do not
//! wait for completions — when the simulated server falls behind, the
//! backlog shows up as queueing delay in the latency histograms, which
//! is exactly the signal a placement policy is judged on.
//!
//! The merged schedule (all processors, arrival order) is what the
//! serialized driver executes.

use crate::rng::{mix, Rng};
use crate::zipf::Zipf;

/// Generator parameters. Everything is in virtual nanoseconds and
/// per-processor terms; the whole stream is a pure function of this
/// struct, so two identically-configured generators agree bit for bit.
#[derive(Clone, Debug)]
pub struct TrafficConfig {
    /// Run seed; every per-processor stream derives from it.
    pub seed: u64,
    /// Key-space size (requests address keys `0..keys`).
    pub keys: u64,
    /// Requests generated per processor.
    pub requests_per_proc: usize,
    /// Zipf exponent for key popularity (0 = uniform, 0.99 = YCSB-ish).
    pub theta: f64,
    /// Percentage of non-burst requests that are writes (0..=100).
    pub write_pct: u32,
    /// Every `burst_every`-th request per processor opens a write burst
    /// (0 disables bursts).
    pub burst_every: u64,
    /// Length of each write burst, in requests.
    pub burst_len: u64,
    /// Period of hot-set drift in virtual ns (0 disables drift): every
    /// period, the popularity ranking rotates by `drift_step` keys.
    pub drift_period_ns: u64,
    /// How far the hot set moves per drift period.
    pub drift_step: u64,
    /// Mean per-processor interarrival gap, virtual ns (arrivals are
    /// uniform on `[0, 2 * mean]`, so the mean is exact without any
    /// transcendental sampling).
    pub mean_interarrival_ns: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            seed: 0x5EED,
            keys: 1 << 20,
            requests_per_proc: 1 << 17,
            theta: 0.99,
            write_pct: 10,
            burst_every: 256,
            burst_len: 32,
            drift_period_ns: 250_000_000,
            drift_step: 997,
            mean_interarrival_ns: 25_000,
        }
    }
}

/// One generated request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// The processor this request arrives at.
    pub proc: usize,
    /// Arrival time on that processor's virtual clock, ns.
    pub arrival_ns: u64,
    /// The key addressed.
    pub key: u64,
    /// Write (update) rather than read (lookup).
    pub write: bool,
    /// Position in the merged arrival order (stamped by
    /// [`TrafficConfig::schedule`]; per-processor position before the
    /// merge). Doubles as the value-version a write installs.
    pub serial: u64,
}

impl TrafficConfig {
    /// The drift-rotated key for a popularity `rank` at `arrival_ns`:
    /// the whole ranking slides `drift_step` keys forward each period,
    /// so yesterday's cold keys become today's hot ones.
    fn key_at(&self, rank: u64, arrival_ns: u64) -> u64 {
        if self.drift_period_ns == 0 {
            return rank;
        }
        let epoch = arrival_ns / self.drift_period_ns;
        (rank + epoch.wrapping_mul(self.drift_step)) % self.keys
    }

    /// One processor's arrival schedule, in arrival order. Pure
    /// function of `(self, proc)`; `serial` numbers the requests within
    /// this processor's stream.
    pub fn proc_schedule(&self, zipf: &Zipf, proc: usize) -> Vec<Request> {
        assert_eq!(
            zipf.n(),
            self.keys,
            "sampler sized for a different key space"
        );
        let mut rng = Rng::new(mix(self.seed, proc as u64 + 1));
        let mut out = Vec::with_capacity(self.requests_per_proc);
        let mut arrival = 0u64;
        let mut burst_left = 0u64;
        for i in 0..self.requests_per_proc as u64 {
            arrival += rng.below(2 * self.mean_interarrival_ns + 1);
            let write = if burst_left > 0 {
                burst_left -= 1;
                true
            } else if self.burst_every > 0 && i > 0 && i % self.burst_every == 0 {
                burst_left = self.burst_len.saturating_sub(1);
                true
            } else {
                rng.below(100) < self.write_pct as u64
            };
            let rank = zipf.sample(&mut rng);
            out.push(Request {
                proc,
                arrival_ns: arrival,
                key: self.key_at(rank, arrival),
                write,
                serial: i,
            });
        }
        out
    }

    /// The merged schedule: every processor's stream interleaved by
    /// arrival time (ties broken by processor index), `serial`
    /// re-stamped to the merged position. This is the total order the
    /// serialized open-loop driver executes in.
    pub fn schedule(&self, procs: usize) -> Vec<Request> {
        let zipf = Zipf::new(self.keys, self.theta);
        let mut all: Vec<Request> = (0..procs)
            .flat_map(|p| self.proc_schedule(&zipf, p))
            .collect();
        all.sort_by_key(|r| (r.arrival_ns, r.proc, r.serial));
        for (i, r) in all.iter_mut().enumerate() {
            r.serial = i as u64;
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TrafficConfig {
        TrafficConfig {
            keys: 1 << 10,
            requests_per_proc: 2_000,
            ..TrafficConfig::default()
        }
    }

    #[test]
    fn merged_schedule_is_arrival_ordered() {
        let s = small().schedule(4);
        assert_eq!(s.len(), 8_000);
        for w in s.windows(2) {
            assert!(
                (w[0].arrival_ns, w[0].proc) <= (w[1].arrival_ns, w[1].proc),
                "schedule out of order"
            );
        }
        for (i, r) in s.iter().enumerate() {
            assert_eq!(r.serial, i as u64);
            assert!(r.key < 1 << 10);
        }
    }

    #[test]
    fn write_mix_respects_bursts() {
        let cfg = TrafficConfig {
            write_pct: 0,
            burst_every: 100,
            burst_len: 10,
            ..small()
        };
        let zipf = Zipf::new(cfg.keys, cfg.theta);
        let s = cfg.proc_schedule(&zipf, 0);
        let writes = s.iter().filter(|r| r.write).count();
        // Only bursts write: 2000/100 - 1 = 19 bursts of 10.
        assert_eq!(writes, 19 * 10);
        // Bursts are contiguous runs of exactly burst_len writes.
        let first = s.iter().position(|r| r.write).unwrap();
        assert!(s[first..first + 10].iter().all(|r| r.write));
        assert!(!s[first + 10].write);
    }

    #[test]
    fn drift_rotates_the_hot_set() {
        let cfg = TrafficConfig {
            drift_period_ns: 1_000,
            drift_step: 100,
            ..small()
        };
        assert_eq!(cfg.key_at(5, 0), 5);
        assert_eq!(cfg.key_at(5, 1_000), 105);
        assert_eq!(cfg.key_at(5, 2_500), 205);
        // Wraps around the key space.
        let near_end = cfg.key_at(1_020, 1_000);
        assert!(near_end < cfg.keys);
    }

    #[test]
    fn interarrival_mean_is_close() {
        let cfg = TrafficConfig {
            requests_per_proc: 50_000,
            ..small()
        };
        let zipf = Zipf::new(cfg.keys, cfg.theta);
        let s = cfg.proc_schedule(&zipf, 0);
        let mean = s.last().unwrap().arrival_ns / s.len() as u64;
        let want = cfg.mean_interarrival_ns;
        assert!(
            mean > want * 9 / 10 && mean < want * 11 / 10,
            "mean gap {mean} vs configured {want}"
        );
    }
}
