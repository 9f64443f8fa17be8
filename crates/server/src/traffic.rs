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

/// Length of each write burst, in requests.
pub(crate) const BURST_LEN: u64 = 32;
/// How far the hot set moves per drift period, in keys.
pub(crate) const DRIFT_STEP: u64 = 997;

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
    /// of `BURST_LEN` requests (0 disables bursts).
    pub burst_every: u64,
    /// Period of hot-set drift in virtual ns (0 disables drift): every
    /// period, the popularity ranking rotates by `DRIFT_STEP` keys.
    pub drift_period_ns: u64,
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
            drift_period_ns: 250_000_000,
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
    /// [`TrafficConfig::schedule`]). Doubles as the value-version a
    /// write installs.
    pub serial: u64,
}

/// One processor's arrival schedule, generated lazily: the loop state
/// of its stream plus the request at its head. A pure function of
/// `(config, proc)`.
struct Stream {
    rng: Rng,
    /// Requests generated so far, the head included.
    generated: u64,
    arrival: u64,
    burst_left: u64,
    /// The arrival time at which the next drift epoch begins (0 until
    /// the first request computes its epoch).
    drift_edge: u64,
    /// `epoch · DRIFT_STEP mod keys` for the current drift epoch.
    offset: u64,
    head: Request,
}

impl Stream {
    fn new(cfg: &TrafficConfig, proc: usize) -> Self {
        Stream {
            rng: Rng::new(mix(cfg.seed, proc as u64 + 1)),
            generated: 0,
            arrival: 0,
            burst_left: 0,
            drift_edge: 0,
            offset: 0,
            head: Request {
                proc,
                arrival_ns: 0,
                key: 0,
                write: false,
                serial: 0,
            },
        }
    }

    /// Generates the next request into `head` and returns its arrival
    /// time, or `u64::MAX` once the stream is exhausted.
    fn advance(&mut self, cfg: &TrafficConfig, zipf: &Zipf) -> u64 {
        let i = self.generated;
        if i == cfg.requests_per_proc as u64 {
            return u64::MAX;
        }
        self.generated += 1;
        self.arrival += self.rng.below(2 * cfg.mean_interarrival_ns + 1);
        let write = if self.burst_left > 0 {
            self.burst_left -= 1;
            true
        } else if cfg.burst_every > 0 && i > 0 && i.is_multiple_of(cfg.burst_every) {
            self.burst_left = BURST_LEN - 1;
            true
        } else {
            self.rng.below(100) < cfg.write_pct as u64
        };
        let rank = zipf.sample(&mut self.rng);
        // The hot set slides `DRIFT_STEP` keys forward each drift
        // period, so yesterday's cold keys become today's hot ones.
        // Arrivals never decrease, so the division runs once per epoch.
        if self.arrival >= self.drift_edge && cfg.drift_period_ns > 0 {
            let epoch = self.arrival / cfg.drift_period_ns;
            self.offset = epoch.wrapping_mul(DRIFT_STEP) % cfg.keys;
            self.drift_edge = (epoch + 1).saturating_mul(cfg.drift_period_ns);
        }
        let key = rank + self.offset;
        self.head.arrival_ns = self.arrival;
        self.head.key = if key >= cfg.keys { key - cfg.keys } else { key };
        self.head.write = write;
        self.arrival
    }
}

impl TrafficConfig {
    /// The merged schedule: every processor's stream interleaved by
    /// arrival time (ties broken by processor index, then stream
    /// order), `serial` stamped with the merged position. This is the
    /// total order the serialized open-loop driver executes in.
    pub fn schedule(&self, procs: usize) -> Vec<Request> {
        let zipf = Zipf::new(self.keys, self.theta);
        let mut streams: Vec<Stream> = (0..procs).map(|p| Stream::new(self, p)).collect();
        let mut heads: Vec<u64> = streams.iter_mut().map(|s| s.advance(self, &zipf)).collect();
        let total = procs * self.requests_per_proc;
        let mut out = Vec::with_capacity(total);
        for serial in 0..total as u64 {
            // A select, not a branch: which head is earliest is data.
            let (mut p, mut lowest) = (0, heads[0]);
            for (q, &at) in heads.iter().enumerate().skip(1) {
                p = if at < lowest { q } else { p };
                lowest = lowest.min(at);
            }
            out.push(Request {
                serial,
                ..streams[p].head
            });
            heads[p] = streams[p].advance(self, &zipf);
        }
        out
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
            ..small()
        };
        let s = cfg.schedule(1);
        let writes = s.iter().filter(|r| r.write).count();
        // Only bursts write: 2000/100 - 1 = 19 bursts of BURST_LEN.
        assert_eq!(writes, 19 * BURST_LEN as usize);
        // Bursts are contiguous runs of exactly BURST_LEN writes.
        let (first, len) = (s.iter().position(|r| r.write).unwrap(), BURST_LEN as usize);
        assert!(s[first..first + len].iter().all(|r| r.write));
        assert!(!s[first + len].write);
    }

    #[test]
    fn drift_rotates_the_hot_set() {
        // At θ = 40 every draw is rank 0 (rank 1 weighs 2^-40), so each
        // key is the epoch's offset: `epoch · DRIFT_STEP mod keys`. Gaps
        // of up to 50 periods cross several epochs at once and wrap the
        // key space many times over.
        let cfg = TrafficConfig {
            theta: 40.0,
            drift_period_ns: 1_000,
            ..small()
        };
        let s = cfg.schedule(1);
        let key = |r: &Request| r.arrival_ns / 1_000 * DRIFT_STEP % cfg.keys;
        assert!(s.last().unwrap().arrival_ns / 1_000 * DRIFT_STEP > 10 * cfg.keys);
        for r in &s {
            assert_eq!(r.key, key(r), "{r:?}");
        }
    }

    #[test]
    fn interarrival_mean_is_close() {
        let cfg = TrafficConfig {
            requests_per_proc: 50_000,
            ..small()
        };
        let s = cfg.schedule(1);
        let mean = s.last().unwrap().arrival_ns / s.len() as u64;
        let want = cfg.mean_interarrival_ns;
        assert!(
            mean > want * 9 / 10 && mean < want * 11 / 10,
            "mean gap {mean} vs configured {want}"
        );
    }
}
