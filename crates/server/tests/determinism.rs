//! The server tier's determinism contracts, end to end.
//!
//! Three layers, three tests:
//!
//! 1. **Generator** (property): the request stream is a pure function of
//!    `TrafficConfig` — identical seeds produce identical streams, and
//!    perturbing the seed produces a different one. Two streams are also
//!    pinned to golden hashes, so a changed stream cannot pass.
//! 2. **Sampler** (statistical): `Zipf::sample` matches the sampler's
//!    own CDF under a chi-squared test. The comparison is against
//!    `Zipf::prob`, not an external ideal, so `det_pow`'s last-bit
//!    behaviour is irrelevant — the test checks the *sampling*, the
//!    determinism tests check the stream.
//! 3. **Driver** (integration): two identically-configured simulations
//!    running `run_open_loop` over the same schedule report identical
//!    latency histograms, virtual times, protocol counters, and table
//!    checksums — the property the committed `server_bench` baseline
//!    relies on — also on an oversubscribed host: the stress tests
//!    repeat the comparison 200× for both workloads while twice as many
//!    busy threads as the host has cores compete for it.

use std::sync::atomic::{AtomicBool, Ordering};

use numa_machine::MachineConfig;
use platinum_runtime::sim::{Sim, SimBuilder};
use platinum_server::{
    run_open_loop, DriverReport, FlowConfig, FlowTables, KvConfig, KvTable, Request, Rng,
    TrafficConfig, Zipf,
};
use proptest::prelude::*;

fn config_from(seed: u64, theta_i: usize, write_pct: u32, bursts: bool) -> TrafficConfig {
    TrafficConfig {
        seed,
        keys: 1 << 10,
        requests_per_proc: 512,
        theta: [0.0, 0.75, 0.99][theta_i],
        write_pct,
        burst_every: if bursts { 64 } else { 0 },
        ..TrafficConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn identical_seeds_produce_identical_streams(
        seed in any::<u64>(),
        procs in 1usize..6,
        theta_i in 0usize..3,
        write_pct in 0u32..50,
        bursts in any::<bool>(),
    ) {
        let a = config_from(seed, theta_i, write_pct, bursts).schedule(procs);
        let b = config_from(seed, theta_i, write_pct, bursts).schedule(procs);
        prop_assert_eq!(a.len(), b.len());
        prop_assert!(a == b, "same config, diverging schedules");

        // Perturbing the seed must move the stream: with 512 requests
        // per processor, two independent streams agreeing everywhere is
        // astronomically unlikely.
        let c = config_from(seed ^ 0x9E37_79B9, theta_i, write_pct, bursts).schedule(procs);
        prop_assert!(a != c, "seed change left the schedule untouched");
    }
}

/// FNV-1a over every field of every request, in schedule order.
fn stream_hash(schedule: &[Request]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for r in schedule {
        for word in [r.proc as u64, r.arrival_ns, r.key, r.write as u64, r.serial] {
            for byte in word.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01B3);
            }
        }
    }
    h
}

/// The request streams every server-tier number rests on, pinned to the
/// hashes the generator produced before its sampler, drift and merge
/// were rewritten for speed. Any change to the stream — a different
/// rank, key, arrival or merge order — moves these; the self-comparison
/// above cannot see that.
#[test]
fn schedules_match_their_golden_hashes() {
    // The ledger's `kv_open_loop` traffic.
    let ledger = TrafficConfig {
        seed: 1,
        keys: 1 << 13,
        requests_per_proc: 4096,
        theta: 0.99,
        write_pct: 10,
        mean_interarrival_ns: 16_000_000,
        drift_period_ns: 1_000_000_000,
        ..TrafficConfig::default()
    };
    // The CI `server_bench` smoke run's traffic.
    let ci = TrafficConfig {
        seed: 24_301,
        keys: 1 << 14,
        requests_per_proc: 2048,
        theta: 0.99,
        write_pct: 10,
        mean_interarrival_ns: 4_000_000,
        ..TrafficConfig::default()
    };
    for (name, cfg, procs, want) in [
        ("ledger kv", ledger, 8, 0x5640_cfcb_b47b_a640),
        ("ci server_bench", ci, 4, 0x640d_6ca4_c727_eb74),
    ] {
        let s = cfg.schedule(procs);
        assert_eq!(s.len(), procs * cfg.requests_per_proc);
        let got = stream_hash(&s);
        assert_eq!(got, want, "{name}: stream hash {got:#018x}");
    }
}

/// Chi-squared goodness of fit of `Zipf::sample` against `Zipf::prob`.
///
/// Ranks with expected count ≥ 8 get their own bucket; the long tail is
/// folded into one. The draw stream is deterministic (fixed `Rng` seed),
/// so the statistic is a constant — the bound below is the 99.9th
/// percentile of chi-squared at this bucket count, with slack; a
/// sampler/CDF mismatch (a guide-table walk that stops one rank early
/// or late, a mis-sized `unit()` draw) inflates the statistic by orders
/// of magnitude.
#[test]
fn zipf_sampling_matches_its_own_cdf() {
    const DRAWS: u64 = 200_000;
    for (seed, theta) in [(1u64, 0.99f64), (2, 0.75), (3, 0.0)] {
        let n = 1u64 << 10;
        let z = Zipf::new(n, theta);
        let mut counts = vec![0u64; n as usize];
        let mut rng = Rng::new(seed);
        for _ in 0..DRAWS {
            counts[z.sample(&mut rng) as usize] += 1;
        }

        // Bucket: individual heads, folded tail.
        let mut chi2 = 0.0f64;
        let mut buckets = 0usize;
        let mut tail_obs = 0u64;
        let mut tail_exp = 0.0f64;
        for rank in 0..n {
            let expected = z.prob(rank) * DRAWS as f64;
            if expected >= 8.0 {
                let d = counts[rank as usize] as f64 - expected;
                chi2 += d * d / expected;
                buckets += 1;
            } else {
                tail_obs += counts[rank as usize];
                tail_exp += expected;
            }
        }
        if tail_exp > 0.0 {
            let d = tail_obs as f64 - tail_exp;
            chi2 += d * d / tail_exp;
            buckets += 1;
        }

        // p999 critical value of chi2_k is about k + 3.1 sqrt(2k) + 9;
        // double it for slack (a real defect overshoots by 100x).
        let df = (buckets - 1) as f64;
        let bound = 2.0 * (df + 3.1 * (2.0 * df).sqrt() + 9.0);
        assert!(
            chi2 < bound,
            "theta {theta}: chi2 {chi2:.1} over {buckets} buckets exceeds {bound:.1}"
        );
    }
}

fn boot(nodes: usize) -> Sim {
    let mut mcfg = MachineConfig::with_nodes(nodes);
    mcfg.frames_per_node = 512;
    mcfg.skew_window_ns = None;
    SimBuilder::nodes(nodes).machine_config(mcfg).build()
}

/// One full open-loop KV run on a small machine; returns the report and
/// the post-run table checksum.
fn kv_run(nodes: usize, traffic: &TrafficConfig) -> (DriverReport, u64) {
    let mut sim = boot(nodes);
    let kv = KvTable::stage(KvConfig::for_keys(traffic.keys, 8), &mut sim);
    let schedule = traffic.schedule(nodes);
    let report = run_open_loop(&sim, &kv, nodes, &schedule);
    let audit = sim
        .spawn(0, |ctx| kv.verify(ctx))
        .expect("processor 0 free after the driver")
        .expect("quiesced table verifies");
    assert_eq!(audit.occupied, traffic.keys);
    (report, audit.checksum)
}

/// One open-loop run of a small flow-table pipeline; returns the report
/// and the post-run state checksum.
fn flow_run(nodes: usize, traffic: &TrafficConfig) -> (DriverReport, u64) {
    let mut sim = boot(nodes);
    let cfg = FlowConfig {
        flows: 1 << 10,
        route_entries: 512,
        hop_entries: 128,
        state_words: 8,
    };
    let ft = FlowTables::stage(cfg, &mut sim);
    let report = run_open_loop(&sim, &ft, nodes, &traffic.schedule(nodes));
    let checksum = sim
        .spawn(0, |ctx| ft.checksum(ctx))
        .expect("processor 0 free after the driver")
        .expect("quiesced state folds");
    (report, checksum)
}

/// Everything two runs of one configuration must agree on.
fn assert_same_run((a, ck_a): &(DriverReport, u64), (b, ck_b): &(DriverReport, u64)) {
    assert_eq!(a.requests, b.requests);
    assert_eq!(a.reads, b.reads);
    assert_eq!(a.writes, b.writes);
    assert_eq!(a.elapsed_ns, b.elapsed_ns, "virtual times diverged");
    assert_eq!(a.per_proc, b.per_proc);
    assert_eq!(a.per_shard, b.per_shard);
    assert_eq!(a.protocol, b.protocol, "protocol counters diverged");
    assert_eq!(ck_a, ck_b, "table contents diverged");
    assert_eq!(
        (a.latency.p50(), a.latency.p99(), a.latency.p999()),
        (b.latency.p50(), b.latency.p99(), b.latency.p999()),
        "latency quantiles diverged"
    );
    assert_eq!(a.latency.sum(), b.latency.sum());
    assert_eq!(a.write_latency.count(), b.write_latency.count());
}

#[test]
fn open_loop_runs_are_bit_identical() {
    let traffic = TrafficConfig {
        keys: 1 << 10,
        requests_per_proc: 600,
        mean_interarrival_ns: 8_000,
        ..TrafficConfig::default()
    };
    let first = kv_run(4, &traffic);
    assert_same_run(&first, &kv_run(4, &traffic));
    let (a, _) = first;

    assert_eq!(a.requests, 4 * 600);
    // Sanity on the measurement itself, not just its stability.
    assert!(a.elapsed_ns > 0);
    assert!(a.latency.p50() > 0, "requests cannot complete in zero time");
    assert!(a.latency.p999() >= a.latency.p50());
    assert_eq!(a.per_shard.iter().sum::<u64>(), a.requests);
    assert_eq!(
        a.protocol.server_requests, a.requests,
        "every request records one ServerRequest event"
    );
}

/// Runs `body` while `2 × available_parallelism` busy host threads
/// compete with it for the cores: the host schedule a determinism claim
/// must not depend on.
fn under_host_load(body: impl FnOnce()) {
    /// Releases the spinners even when `body` panics, so a failing
    /// comparison reports instead of hanging the scope's join.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let stop = AtomicBool::new(false);
    let spinners = 2 * std::thread::available_parallelism().map_or(2, |n| n.get());
    std::thread::scope(|s| {
        for _ in 0..spinners {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        let _stop = StopOnDrop(&stop);
        body();
    });
}

/// The comparison the exact CI gates rest on, repeated under host load.
/// With one OS thread per worker this failed within tens of repetitions
/// (a late-scheduled worker was not yet a live shootdown target); with
/// one thread owning every context there is no schedule to lose to.
#[test]
fn open_loop_kv_is_bit_identical_under_host_load() {
    let traffic = TrafficConfig {
        keys: 1 << 8,
        requests_per_proc: 150,
        mean_interarrival_ns: 8_000,
        ..TrafficConfig::default()
    };
    let reference = kv_run(4, &traffic);
    assert!(
        reference.0.protocol.ipis_sent > 0,
        "no live shootdown targets"
    );
    under_host_load(|| {
        for _ in 0..200 {
            assert_same_run(&reference, &kv_run(4, &traffic));
        }
    });
}

#[test]
fn open_loop_flow_is_bit_identical_under_host_load() {
    let traffic = TrafficConfig {
        keys: 1 << 10,
        requests_per_proc: 150,
        mean_interarrival_ns: 8_000,
        ..TrafficConfig::default()
    };
    let reference = flow_run(4, &traffic);
    assert!(
        reference.0.protocol.ipis_sent > 0,
        "no live shootdown targets"
    );
    under_host_load(|| {
        for _ in 0..200 {
            assert_same_run(&reference, &flow_run(4, &traffic));
        }
    });
}
