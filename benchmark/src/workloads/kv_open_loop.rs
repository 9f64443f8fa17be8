//! `kv_open_loop` — the server tier as it is really used.
//!
//! `run_open_loop` on the sharded KV store: 8 processors, the default
//! PLATINUM policy, 64 Ki keys over 64 shards, Zipf(0.99) traffic with
//! 10 % writes plus write bursts, one request per processor every 4 ms of
//! virtual time — an *open* loop: requests arrive on the generator's
//! schedule whether or not the store keeps up, and latency counts from
//! the scheduled arrival. The driver serialises kernel entries in merged
//! arrival order across one OS thread per simulated processor, so on a
//! 2-core host most of the wall time is the cursor hand-off — which is
//! what users get today and what ROADMAP item 1 removes, so it is
//! measured. Unlike `fault_storm`, shootdown targets are live (they must
//! ack IPIs) and fine-grain write sharing freezes pages.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use super::{core_counts, ns_per_iter, prof_buckets, ptable_counts, timed, Checks, Rep, Workload};
use crate::api::{
    run_open_loop, DriverReport, Histogram, KernelResult, KvConfig, KvTable, MachineConfig, Mem,
    PolicyKind, Request, ServerMem, ServerWorkload, Sim, SimBuilder, TrafficConfig,
};
use crate::metrics::Metrics;
use crate::spans::{LogHist, Recorder};
use crate::stats::distinct;

const PROCS: usize = 8;
const KEYS: u64 = 1 << 13;
const SHARDS: usize = 64;
/// Requests per processor per repetition: 32 Ki requests in all, ~0.5 s.
pub const REQUESTS_PER_PROC: usize = 4096;

/// The traffic the seed selects. Everything else is the generator's
/// default (write bursts, hot-set drift).
pub fn traffic(seed: u64) -> TrafficConfig {
    TrafficConfig {
        seed,
        keys: KEYS,
        requests_per_proc: REQUESTS_PER_PROC,
        theta: 0.99,
        write_pct: 10,
        mean_interarrival_ns: 16_000_000,
        drift_period_ns: 1_000_000_000,
        ..TrafficConfig::default()
    }
}

fn boot(nodes: usize) -> (Sim, KvTable) {
    let sim = SimBuilder::nodes(nodes)
        .machine_config(MachineConfig {
            nodes,
            frames_per_node: 4096,
            // The serialised driver requires it: the skew throttle would
            // add host-dependent kernel entries.
            skew_window_ns: None,
            ..MachineConfig::default()
        })
        .build();
    let cfg = KvConfig::for_keys(KEYS, SHARDS);
    let page_words = sim.machine.cfg().words_per_page();
    let mut data = sim.alloc_zone(cfg.table_pages(page_words));
    let mut locks = sim.alloc_zone(cfg.lock_pages());
    let kv = KvTable::layout(cfg, &mut data, &mut locks);
    (sim, kv)
}

/// A workload that does nothing: what is left of `run_open_loop` is the
/// driver — thread spawn, cursor hand-off, latency bookkeeping.
struct NoOp;

impl ServerWorkload for NoOp {
    fn populate<M: ServerMem>(&self, _: &mut M, _: usize, _: usize) -> KernelResult<()> {
        Ok(())
    }
    fn execute<M: ServerMem>(&self, _: &mut M, _: &Request) -> KernelResult<()> {
        Ok(())
    }
    fn class(&self, req: &Request) -> u8 {
        req.write as u8
    }
    fn shards(&self) -> usize {
        1
    }
    fn shard_of(&self, _: u64) -> usize {
        0
    }
}

pub struct KvOpenLoop {
    seed: u64,
    /// Table checksum of the same merged schedule executed on a
    /// one-processor machine; depends only on the seed.
    expect: Option<u64>,
    /// Summed latency of every repetition so far, for `vtime_distinct`.
    vtimes: Vec<u64>,
    /// `host_s` of every untraced repetition so far, for the derived
    /// `server.exec_ns_per_req`.
    untraced_host_s: Vec<f64>,
}

impl KvOpenLoop {
    pub fn new(seed: u64) -> Self {
        KvOpenLoop {
            seed,
            expect: None,
            vtimes: Vec::new(),
            untraced_host_s: Vec::new(),
        }
    }

    fn reference_checksum(schedule: &[Request]) -> u64 {
        let serial: Vec<Request> = schedule.iter().map(|r| Request { proc: 0, ..*r }).collect();
        let (sim, kv) = boot(1);
        run_open_loop(&sim, &kv, 1, &serial);
        let mut ctx = sim.attach(0).expect("processor 0 free after the driver");
        kv.verify(&mut ctx)
            .expect("reference table verifies")
            .checksum
    }
}

impl Workload for KvOpenLoop {
    fn rep(&mut self, rec: &mut Recorder) -> Rep {
        let mut layer = Metrics::default();
        let rep_span = rec.begin("bench.kv_open_loop.rep");

        // ---- set-up -----------------------------------------------------
        let t_setup = Instant::now();
        let (schedule, gen_s) =
            timed(|| rec.span("server.schedule_gen", || traffic(self.seed).schedule(PROCS)));
        let ((sim, kv), build_s) = timed(|| rec.span("runtime.sim_build", || boot(PROCS)));
        let setup_s = t_setup.elapsed().as_secs_f64();
        layer.set("runtime.sim_build_ms", build_s * 1e3);
        layer.set(
            "server.schedule_gen_ns_per_req",
            gen_s * 1e9 / schedule.len() as f64,
        );

        // ---- measured phase -----------------------------------------------
        if rec.enabled() {
            sim.kernel.host_prof().enable();
        }
        let w0 = sim.kernel.walk_snapshot();
        let measured = rec.begin("server.run_open_loop");
        let t = Instant::now();
        let report: DriverReport = run_open_loop(&sim, &kv, PROCS, &schedule);
        let host_s = t.elapsed().as_secs_f64();
        rec.end(measured);
        let w = sim.kernel.walk_snapshot().delta(&w0);
        let vtime_ns = report.latency.sum();
        self.vtimes.push(vtime_ns);
        if !rec.enabled() {
            self.untraced_host_s.push(host_s);
        }

        // ---- checks ---------------------------------------------------------
        let mut checks = Checks::default();
        let verify = rec.begin("server.verify");
        let (audit, verify_s) = timed(|| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut ctx = sim.attach(0).expect("processor 0 free after the driver");
                kv.verify(&mut ctx).expect("quiesced table verifies")
            }))
        });
        rec.end(verify);
        layer.set("server.verify_s", verify_s);
        let expect = *self
            .expect
            .get_or_insert_with(|| Self::reference_checksum(&schedule));
        checks.check(audit.is_ok(), || {
            "KvTable::verify found a torn slot".to_string()
        });
        let audit = audit.ok();
        checks.check(audit.is_some_and(|a| a.occupied == KEYS), || {
            format!("occupied {:?} != keys {KEYS}", audit.map(|a| a.occupied))
        });
        checks.check(audit.is_some_and(|a| a.checksum == expect), || {
            format!(
                "table checksum {:?} != one-processor reference {expect:#x}",
                audit.map(|a| a.checksum)
            )
        });
        checks.check(report.requests == schedule.len() as u64, || {
            format!(
                "completed {} of {} requests",
                report.requests,
                schedule.len()
            )
        });

        let p = &report.protocol;
        core_counts(&mut layer, p);
        ptable_counts(&mut layer, &w);
        layer.set("server.vlat_p50_us", report.latency.p50() as f64 / 1e3);
        layer.set("server.vlat_p99_us", report.latency.p99() as f64 / 1e3);
        layer.set("server.vlat_samples", report.latency.count() as f64);
        layer.set("server.faults_per_1k", report.per_1k(p.faults));
        layer.set("server.shootdowns_per_1k", report.per_1k(p.shootdowns));
        layer.set("server.retries", report.retries as f64);
        layer.set("server.vtime_distinct", distinct(&self.vtimes) as f64);
        if rec.enabled() {
            // The profiler also saw the populate pass; so did these counts.
            let faults = sim.kernel.stats().snapshot().faults;
            let walks = sim.kernel.walk_snapshot().walks;
            prof_buckets(
                &mut layer,
                &sim.kernel.host_prof().snapshot(),
                faults,
                walks,
            );
        }
        rec.end(rep_span);
        Rep {
            setup_s,
            host_s,
            vtime_ns,
            sim_ops: report.requests,
            checks,
            layer,
        }
    }

    fn probes(&mut self, rec: &mut Recorder, out: &mut Metrics) {
        let probes = rec.begin("bench.kv_open_loop.probes");
        let schedule = traffic(self.seed).schedule(PROCS);
        let requests = schedule.len() as f64;
        const TRIES: usize = 3;

        // The driver alone: the same schedule through a no-op workload.
        let span = rec.begin("server.drive_handoff");
        let handoff_s = crate::stats::median(
            &(0..TRIES)
                .map(|_| {
                    let (sim, _kv) = boot(PROCS);
                    timed(|| run_open_loop(&sim, &NoOp, PROCS, &schedule)).1
                })
                .collect::<Vec<_>>(),
        );
        out.set(
            "server.drive_handoff_ns_per_req",
            handoff_s * 1e9 / requests,
        );
        rec.end(span);

        // Populate alone: the real store, an empty schedule.
        let span = rec.begin("server.populate");
        let populate_s = crate::stats::median(
            &(0..TRIES)
                .map(|_| {
                    let (sim, kv) = boot(PROCS);
                    timed(|| run_open_loop(&sim, &kv, PROCS, &[])).1
                })
                .collect::<Vec<_>>(),
        );
        out.set("server.populate_s", populate_s);
        rec.end(span);
        // What is left of a request once populate and the driver are taken
        // out: executing it, including waiting for live targets to ack.
        if !self.untraced_host_s.is_empty() {
            let per_req = (crate::stats::median(&self.untraced_host_s) - populate_s) / requests;
            out.set(
                "server.exec_ns_per_req",
                (per_req - handoff_s / requests) * 1e9,
            );
        }

        // One context, no driver: what a request costs to execute.
        let span = rec.begin("server.kv_ops");
        let (sim, kv) = boot(1);
        let mut ctx = sim.attach(0).expect("processor 0 free");
        kv.populate_owned(&mut ctx, 0, 1).expect("populate");
        let keys: Vec<u64> = schedule.iter().map(|r| r.key).collect();
        out.set(
            "server.kv_get_ns",
            ns_per_iter(keys.len() as u64, |i| {
                black_box(kv.get(&mut ctx, keys[i as usize]).expect("get"));
            }),
        );
        out.set(
            "server.kv_put_ns",
            ns_per_iter(keys.len() as u64, |i| {
                kv.put(&mut ctx, keys[i as usize], i).expect("put");
            }),
        );
        rec.end(span);

        let mut hist = Histogram::new();
        out.set(
            "server.hist_record_ns",
            ns_per_iter(4_000_000, |i| hist.record(black_box(20_000 + (i & 0xFFFF)))),
        );
        black_box(hist.count());

        let span = rec.begin("core.shootdown_live");
        out.set("core.shootdown_live_ns", shootdown_live_ns(20_000));
        rec.end(span);
        rec.end(probes);
    }
}

/// Median host ns of a write that must invalidate a replica held by a
/// *live* processor: a second host thread holds the replica and polls for
/// IPIs, so the writer's shootdown waits for a real cross-thread ack.
/// (`fault_storm`'s targets are suspended and never acked.)
fn shootdown_live_ns(rounds: u64) -> f64 {
    let sim = SimBuilder::nodes(2)
        .machine_config(super::machine(2))
        .policy(PolicyKind::AlwaysReplicate)
        .build();
    let va = sim.alloc_zone(1).base();
    // `turn` = 2k: the reader's move (replicate); 2k+1: the writer's.
    let turn = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let mut hist = LogHist::new();
    std::thread::scope(|s| {
        let (sim, turn, done) = (&sim, &turn, &done);
        s.spawn(move || {
            let mut reader = sim.attach(1).expect("processor 1 free");
            while !done.load(Ordering::Acquire) {
                let t = turn.load(Ordering::Acquire);
                if t % 2 == 0 {
                    black_box(reader.read(va));
                    turn.store(t + 1, Ordering::Release);
                } else {
                    reader.poll();
                    std::hint::spin_loop();
                }
            }
        });
        let mut writer = sim.attach(0).expect("processor 0 free");
        for k in 0..rounds {
            // The reader's replication downgrades this processor's
            // mapping, so it too must ack while it waits.
            while turn.load(Ordering::Acquire) != 2 * k + 1 {
                writer.poll();
                std::hint::spin_loop();
            }
            let t = Instant::now();
            writer.write(va, k as u32);
            hist.record(t.elapsed().as_nanos() as u64);
            if k + 1 < rounds {
                turn.store(2 * k + 2, Ordering::Release);
            }
        }
        // The turn stays odd: the reader only polls until it sees `done`.
        done.store(true, Ordering::Release);
    });
    hist.quantile(1, 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let small = |seed| {
            TrafficConfig {
                requests_per_proc: 200,
                ..traffic(seed)
            }
            .schedule(PROCS)
        };
        assert_eq!(small(3), small(3));
        assert_ne!(small(3), small(4));
        let s = small(3);
        assert_eq!(s.len(), 200 * PROCS);
        assert!(s.iter().all(|r| r.key < KEYS && r.proc < PROCS));
    }
}
