//! The request driver: deterministic open-loop measurement.
//!
//! # Why the driver is deterministic
//!
//! The driver executes the merged arrival schedule on one host thread: a
//! [`Lockstep`] executor owns every worker's context, each request runs
//! to completion on its processor's context before the next one starts,
//! and shootdown targets acknowledge inline, inside the initiator's wait.
//! Kernel entries therefore happen one at a time in a fixed global order,
//! so every protocol decision — replicate vs. migrate, freeze, evict —
//! sees identical state on every run, and virtual times, counters, and
//! table contents are bit-identical (DESIGN.md §10 has the argument; the
//! reference-trace replayer rests on the same executor at per-operation
//! granularity). The skew window holds no context inside a lockstep
//! step, so the machine's `skew_window_ns` does not matter here.
//!
//! Virtual time still *overlaps* between processors — each worker's
//! clock advances independently, arrivals pace it, and a backlogged
//! worker's completions lag its arrivals — so open-loop latency
//! (completion minus scheduled arrival) includes queueing delay, which
//! is the number a server operator actually experiences.

use numa_machine::{AccessCounters, Mem as _};
use platinum::{StatsSnapshot, UserCtx};
use platinum_runtime::sim::Sim;
use platinum_runtime::Lockstep;
use platinum_trace::EventKind;

use crate::hist::Histogram;
use crate::traffic::Request;
use crate::ServerMem;

/// A server workload the driver can run: populate once, then execute
/// requests. Implementations are written against [`ServerMem`], so the
/// same workload runs live (`UserCtx`) and in unit tests (`FlatMem`).
pub trait Workload: Sync {
    /// Builds this worker's partition of the initial state.
    fn populate<M: ServerMem>(
        &self,
        m: &mut M,
        worker: usize,
        workers: usize,
    ) -> platinum::Result<()>;

    /// Executes one request.
    fn execute<M: ServerMem>(&self, m: &mut M, req: &Request) -> platinum::Result<()>;

    /// Request class for the trace record (0 read, 1 write, 2 pipeline).
    fn class(&self, req: &Request) -> u8;

    /// Number of throughput-accounting shards.
    fn shards(&self) -> usize;

    /// The shard a request against `key` is accounted to.
    fn shard_of(&self, key: u64) -> usize;
}

/// What one driver phase measured.
#[derive(Clone, Debug)]
pub struct DriverReport {
    /// Requests completed.
    pub requests: u64,
    /// Read-class requests.
    pub reads: u64,
    /// Write-class requests.
    pub writes: u64,
    /// Requests that had to be retried after a recoverable error
    /// surfaced through the fallible access path (fault injection).
    pub retries: u64,
    /// Measured-phase execution time: max worker virtual time, ns.
    pub elapsed_ns: u64,
    /// All-request latency histogram.
    pub latency: Histogram,
    /// Read-only latency histogram.
    pub read_latency: Histogram,
    /// Write latency histogram.
    pub write_latency: Histogram,
    /// Requests accounted to each workload shard.
    pub per_shard: Vec<u64>,
    /// Requests executed by each processor.
    pub per_proc: Vec<u64>,
    /// Kernel protocol counters over the measured phase only
    /// (after minus before).
    pub protocol: StatsSnapshot,
    /// Every worker's access counters over the measured phase, summed.
    pub counters: AccessCounters,
}

impl DriverReport {
    /// `count` per 1000 completed requests (protocol-cost attribution).
    pub fn per_1k(&self, count: u64) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            count as f64 * 1000.0 / self.requests as f64
        }
    }

    /// Completed requests per virtual second.
    pub fn throughput_rps(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.requests as f64 * 1e9 / self.elapsed_ns as f64
        }
    }
}

/// Upper bound on per-request retries before the driver declares the
/// fault plan unrecoverable. The injection hash is keyed by attempt, so
/// honest transient plans converge in a handful of tries.
const MAX_ATTEMPTS: u32 = 64;

/// Attaches processors `0..procs` and hands them to one lockstep
/// executor. Every worker is attached before the pass's first step, so
/// all are live shootdown targets throughout, and each holds one context
/// for the whole pass.
fn attach_all(sim: &Sim, procs: usize) -> Lockstep {
    let mut workers = Lockstep::new(procs);
    for p in 0..procs {
        workers.adopt(sim.attach(p).expect("driver claims a free processor"));
    }
    workers
}

/// Executes one request against `w`, retrying surfaced recoverable
/// errors, and accounts it in `rep` with latency measured from its
/// scheduled arrival (queueing included).
fn serve<W: Workload>(ctx: &mut UserCtx, w: &W, req: &Request, rep: &mut DriverReport) {
    let mut attempts = 0u32;
    loop {
        match w.execute(ctx, req) {
            Ok(()) => break,
            Err(e) => {
                rep.retries += 1;
                attempts += 1;
                assert!(
                    attempts < MAX_ATTEMPTS,
                    "request {} (key {}) unrecoverable after {attempts} attempts: {e}",
                    req.serial,
                    req.key
                );
            }
        }
    }
    let done = ctx.vtime();
    let latency = done - req.arrival_ns;
    let class = w.class(req);
    rep.latency.record(latency);
    if class == 1 {
        rep.write_latency.record(latency);
        rep.writes += 1;
    } else {
        rep.read_latency.record(latency);
        rep.reads += 1;
    }
    rep.per_shard[w.shard_of(req.key)] += 1;
    rep.per_proc[req.proc] += 1;
    rep.requests += 1;
    // Per-request record through the kernel's choke point: counted in
    // the aggregate stats and visible to an installed tracer.
    ctx.kernel().record(
        ctx.proc_id(),
        done,
        EventKind::ServerRequest,
        class,
        req.key,
        latency,
    );
}

/// Populates `w` (one serialized turn per worker, so each worker
/// first-touches its own partition) and then executes the merged
/// open-loop `schedule` deterministically. The populate and measured
/// phases each attach fresh contexts with clocks at zero, mirroring the
/// phase structure of every other harness in the repository.
pub fn run_open_loop<W: Workload>(
    sim: &Sim,
    w: &W,
    procs: usize,
    schedule: &[Request],
) -> DriverReport {
    let mut workers = attach_all(sim, procs);
    for t in 0..procs {
        workers.run(t, |ctx| {
            w.populate(ctx, t, procs)
                .expect("populate phase must not hit injected-fault residue")
        });
    }
    drop(workers);

    let before = sim.kernel.stats().snapshot();
    let mut workers = attach_all(sim, procs);
    let mut rep = DriverReport {
        requests: 0,
        reads: 0,
        writes: 0,
        retries: 0,
        elapsed_ns: 0,
        latency: Histogram::new(),
        read_latency: Histogram::new(),
        write_latency: Histogram::new(),
        per_shard: vec![0; w.shards()],
        per_proc: vec![0; procs],
        protocol: StatsSnapshot::default(),
        counters: AccessCounters::default(),
    };
    for req in schedule {
        workers.run(req.proc, |ctx| {
            if ctx.vtime() < req.arrival_ns {
                // Idle until the request arrives; a backlogged worker
                // skips this and the excess shows up as queueing latency.
                ctx.advance_to(req.arrival_ns);
            }
            serve(ctx, w, req, &mut rep)
        });
    }
    for p in 0..procs {
        let ctx = workers.release(p);
        rep.elapsed_ns = rep.elapsed_ns.max(ctx.vtime());
        rep.counters.merge(&ctx.counters());
    }
    rep.protocol = sim.kernel.stats().snapshot().delta(&before);
    rep
}
