//! The five workloads and what they share: the repetition record, the
//! correctness tally, and the translation from the simulator's public
//! statistics surfaces to per-layer count metrics.

use std::time::Instant;

use crate::api::{AccessCounters, HostProfSnapshot, MachineConfig, StatsSnapshot, WalkSnapshot};
use crate::metrics::Metrics;
use crate::spans::Recorder;

pub mod fault_storm;
pub mod kv_open_loop;
pub mod paper_apps;
pub mod policy_replay;
pub mod ref_stream;

/// Correctness checks attempted and failed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one check; a failure is reported on stderr with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    pub fn add(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What one repetition measured. A repetition boots a fresh machine from
/// the seed (timed as set-up), runs the measured phase (timed as host
/// seconds), and checks the outputs (untimed).
pub struct Rep {
    pub setup_s: f64,
    pub host_s: f64,
    pub vtime_ns: u64,
    /// Simulated events the measured phase issued (exact).
    pub sim_ops: u64,
    pub checks: Checks,
    /// Per-layer metrics of this repetition: counts from public surfaces
    /// and, in a traced repetition, spans and profiler buckets.
    pub layer: Metrics,
}

pub trait Workload {
    /// One repetition. With `rec` enabled the repetition is *traced*:
    /// spans are recorded, the kernel's host profiler is on, and per-op
    /// timings are taken — so its `host_s` only feeds `tracing_overhead_pct`.
    fn rep(&mut self, rec: &mut Recorder) -> Rep;

    /// The single-function loops and layer slices whose home is this
    /// workload (traced run only).
    fn probes(&mut self, rec: &mut Recorder, out: &mut Metrics);
}

pub fn make(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "ref_stream" => Box::new(ref_stream::RefStream::new(seed)),
        "fault_storm" => Box::new(fault_storm::FaultStorm::new(seed)),
        "kv_open_loop" => Box::new(kv_open_loop::KvOpenLoop::new(seed)),
        "policy_replay" => Box::new(policy_replay::PolicyReplay::new(seed)),
        "paper_apps" => Box::new(paper_apps::PaperApps::new(seed)),
        _ => return None,
    })
}

/// Seconds `f` takes.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Host nanoseconds per iteration of `f`, the best of several batches so
/// a scheduler hiccup in one batch does not set the number. `f` gets the
/// iteration index; pass results through `std::hint::black_box`.
pub fn ns_per_iter(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    const BATCHES: usize = 5;
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let t = Instant::now();
        for i in 0..iters {
            f(i);
        }
        best = best.min(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// The machine the single-thread workloads and the slices boot: `nodes`
/// nodes, a shallow frame pool (the workloads map at most a few hundred
/// pages), and no skew throttle — one host thread drives every
/// processor, so there is nobody to wait for.
pub fn machine(nodes: usize) -> MachineConfig {
    MachineConfig {
        nodes,
        frames_per_node: 256,
        skew_window_ns: None,
        ..MachineConfig::default()
    }
}

pub fn counters_delta(after: &AccessCounters, before: &AccessCounters) -> AccessCounters {
    AccessCounters {
        local_reads: after.local_reads - before.local_reads,
        remote_reads: after.remote_reads - before.remote_reads,
        local_writes: after.local_writes - before.local_writes,
        remote_writes: after.remote_writes - before.remote_writes,
        local_atomics: after.local_atomics - before.local_atomics,
        remote_atomics: after.remote_atomics - before.remote_atomics,
        queue_delay_ns: after.queue_delay_ns - before.queue_delay_ns,
        block_transfers: after.block_transfers - before.block_transfers,
        block_words: after.block_words - before.block_words,
        ipis_handled: after.ipis_handled - before.ipis_handled,
        faults: after.faults - before.faults,
        compute_ns: after.compute_ns - before.compute_ns,
        atc_hits: after.atc_hits - before.atc_hits,
        atc_misses: after.atc_misses - before.atc_misses,
    }
}

/// `machine.*` counts from the processors' access counters. `busy_ns` is
/// the summed virtual time of the processors that produced `c`.
pub fn machine_counts(out: &mut Metrics, c: &AccessCounters, busy_ns: u64) {
    let lookups = c.atc_hits + c.atc_misses;
    let share = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    out.set("machine.atc_hit_rate", share(c.atc_hits, lookups));
    out.set("machine.remote_ref_share", c.remote_fraction());
    out.set(
        "machine.queue_delay_share",
        share(c.queue_delay_ns, busy_ns),
    );
    out.set("machine.block_words", c.block_words as f64);
}

/// `core.*` protocol counts from the kernel's statistics snapshot.
pub fn core_counts(out: &mut Metrics, s: &StatsSnapshot) {
    out.set("core.faults", s.faults as f64);
    out.set("core.replications", s.replications as f64);
    out.set("core.migrations", s.migrations as f64);
    out.set("core.invalidations", s.invalidations as f64);
    out.set("core.shootdowns", s.shootdowns as f64);
    out.set("core.ipis_sent", s.ipis_sent as f64);
    out.set("core.freezes", s.freezes as f64);
    out.set("core.thaws", s.thaws as f64);
    out.set("core.remote_maps", s.remote_maps as f64);
    out.set("core.frames_freed", s.frames_freed as f64);
    out.set("core.defrost_runs", s.defrost_runs as f64);
}

/// Adds the protocol counts [`core_counts`] reports from `s` into `total`
/// (workloads that make several simulator runs per repetition). The
/// snapshot itself only offers `delta`.
pub fn add_stats(total: &mut StatsSnapshot, s: &StatsSnapshot) {
    total.faults += s.faults;
    total.replications += s.replications;
    total.migrations += s.migrations;
    total.invalidations += s.invalidations;
    total.shootdowns += s.shootdowns;
    total.ipis_sent += s.ipis_sent;
    total.freezes += s.freezes;
    total.thaws += s.thaws;
    total.remote_maps += s.remote_maps;
    total.frames_freed += s.frames_freed;
    total.defrost_runs += s.defrost_runs;
}

/// `ptable.*` counts from the translation fabric's walk snapshot.
pub fn ptable_counts(out: &mut Metrics, w: &WalkSnapshot) {
    out.set("ptable.walks", w.walks as f64);
    out.set("ptable.walk_local_share", w.walk_locality());
    out.set("ptable.populates", w.populates as f64);
    out.set("ptable.invals", w.invals as f64);
}

/// `core.prof_*`: the kernel's host-phase profiler buckets, per fault —
/// except the walk bucket, which is per page-table walk where the
/// workload can read its walk count (`walks` > 0): `ref_stream` walks
/// 1.5 M times and never faults.
pub fn prof_buckets(out: &mut Metrics, p: &HostProfSnapshot, faults: u64, walks: u64) {
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    out.set("core.prof_fault_ns", per(p.fault_ns, faults));
    out.set("core.prof_shootdown_ns", per(p.shootdown_ns, faults));
    out.set("core.prof_transfer_ns", per(p.transfer_ns, faults));
    out.set("core.prof_directory_ns", per(p.directory_ns, faults));
    let walk_events = if walks > 0 { walks } else { faults };
    out.set("core.prof_walk_ns", per(p.walk_ns, walk_events));
}

/// Runs `a` and `b` alternately `pairs` times and returns the medians of
/// their timings: drift lands on both sides instead of on whichever ran
/// second.
pub fn alternate(
    pairs: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> (f64, f64) {
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for _ in 0..pairs.max(1) {
        ta.push(a());
        tb.push(b());
    }
    (crate::stats::median(&ta), crate::stats::median(&tb))
}
