//! Chaos soak: run the three paper applications under randomized
//! deterministic fault plans and assert correctness and liveness.
//!
//! For each seed a [`FaultPlan::chaos`] plan injects transient memory
//! errors, dropped shootdown acks, failed block transfers, and refused
//! frame allocations at the given rate. Every application must still
//! produce its fault-free answer (Gauss checksum against the host
//! reference, mergesort's internal verification, a finite neural-net
//! error) and must finish within a watchdog timeout — the recovery
//! ladders are bounded by construction, so a hang is a bug, not bad luck.
//!
//! The tracer records the whole soak; at the end every injection kind
//! that fired must be paired with at least one fault→recovery span whose
//! begin time precedes its end time.
//!
//! `--seeds N` (8), `--nodes N` (4), `--procs P` (= nodes, at most
//! nodes). Every fault site fires at 25000 ppm, and a run that outlasts
//! the 120 s watchdog is a hang.
//! `--workload apps` (default) soaks the three scientific applications.
//! `--workload kv` soaks the server tier's key-value store instead: a
//! fault-free run fixes the reference table audit, then every seed's
//! chaos run must reproduce that audit exactly — the table sweep both
//! asserts no slot is torn (a half-applied update breaks the value's
//! arithmetic progression) and checksums the contents, so a lost or
//! duplicated update diverges. It takes `--kv-keys N` (1024) and
//! `--kv-requests N` (1024 per processor), at a 10 µs mean gap.
//!
//! The kv workload runs on `replicated_on_fault` page tables, so the
//! soak exercises the dropped ptable-invalidation fault site: replica
//! invalidations piggyback on shootdown rounds, and a dropped one walks
//! the same retry ladder as a dropped shootdown ack. Replica
//! invalidation is timing-only, so the audit must still match the
//! fault-free reference bit for bit.
//!
//! The one named check fails on a correctness failure, an unrecovered
//! or malformed span, or a soak that injected nothing (which would make
//! the "survived chaos" claim vacuous); a hang exits 2 from the watchdog,
//! and a run that panics (a torn kv slot, mergesort's verification)
//! re-raises its panic.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use numa_machine::MachineConfig;
use platinum::trace::{EventKind, TraceEvent};
use platinum::{FaultPlan, FaultSite, PtableConfig, PtablePlacement, StatsSnapshot};
use platinum_apps::gauss::{self, GaussConfig};
use platinum_apps::harness::{
    run_gauss_faulty, run_mergesort_faulty, run_neural_faulty, GaussStyle, PolicyKind,
};
use platinum_apps::mergesort::SortConfig;
use platinum_apps::neural::NeuralConfig;
use platinum_runtime::sim::SimBuilder;
use platinum_server::{run_open_loop, KvAudit, KvConfig, KvTable, Request, TrafficConfig};

use crate::run::{Artifact, Run};

/// Runs `f` on a watchdog thread; exits the process if it does not
/// finish within `timeout`. Liveness is part of the contract: every
/// recovery ladder is bounded, so no fault plan may hang an application.
/// A run that panics drops its sender before the timeout; its panic is
/// re-raised here, since it is a correctness failure, not a hang.
fn with_watchdog<R: Send + 'static>(
    what: &str,
    timeout: Duration,
    f: impl FnOnce() -> R + Send + 'static,
) -> R {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(timeout) {
        Ok(r) => {
            handle.join().expect("application thread panicked");
            r
        }
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(handle.join().expect_err("a run that sent nothing panicked"))
        }
        Err(RecvTimeoutError::Timeout) => {
            eprintln!("LIVENESS FAILURE: {what} still running after {timeout:?}");
            std::process::exit(2);
        }
    }
}

/// One live open-loop KV run, optionally under a fault plan: boots a
/// fresh simulation, lays out a table of `keys` keys, drives `schedule`
/// through the serialized driver (which retries requests whose fallible
/// accesses surface injected-fault residue), and sweeps the quiesced
/// table. The sweep is the correctness oracle: it asserts no slot is
/// torn and folds a checksum that any lost or duplicated update
/// diverges. Serialized driving keeps the final state a pure function
/// of the request stream, so the faulted audit must equal the
/// fault-free one bit for bit.
fn kv_soak_run(
    nodes: usize,
    procs: usize,
    keys: u64,
    schedule: &[Request],
    plan: Option<Arc<FaultPlan>>,
    ptable: PtableConfig,
) -> (KvAudit, StatsSnapshot, u64) {
    let mut mcfg = MachineConfig::with_nodes(nodes);
    mcfg.skew_window_ns = None;
    let mut b = SimBuilder::nodes(nodes).machine_config(mcfg).ptable(ptable);
    if let Some(plan) = plan {
        b = b.faults(plan);
    }
    let mut sim = b.build();
    let kv = KvTable::stage(KvConfig::for_keys(keys, 8), &mut sim);
    let report = run_open_loop(&sim, &kv, procs, schedule);
    let audit = sim
        .spawn(0, |ctx| {
            let mut attempts = 0u32;
            loop {
                match kv.verify(ctx) {
                    Ok(a) => return a,
                    Err(e) => {
                        attempts += 1;
                        assert!(attempts < 64, "audit sweep unrecoverable: {e}");
                    }
                }
            }
        })
        .expect("processor 0 free after the driver");
    (audit, sim.kernel.stats().snapshot(), report.retries)
}

/// The KV soak: a fault-free reference run fixes the expected audit,
/// then every seed replays the identical request stream under its own
/// chaos plan and must reproduce it. Returns
/// `(injected, recovery spans, failures)` for the shared trace check.
fn soak_kv(
    seeds: u64,
    nodes: usize,
    procs: usize,
    ppm: u32,
    timeout: Duration,
    traffic: &TrafficConfig,
    ptable: PtableConfig,
) -> (u64, u64, usize) {
    let keys = traffic.keys;
    let schedule: Arc<[Request]> = traffic.schedule(procs).into();
    let reference = {
        let schedule = Arc::clone(&schedule);
        with_watchdog("kv (fault-free reference)", timeout, move || {
            kv_soak_run(nodes, procs, keys, &schedule, None, ptable)
        })
        .0
    };
    assert_eq!(
        reference.occupied, keys,
        "reference run lost keys — the workload itself is broken"
    );
    println!(
        "kv reference: {} keys, checksum {:#018x}\n",
        reference.occupied, reference.checksum
    );

    let mut total_injected = 0u64;
    let mut total_recovered = 0u64;
    let mut failures = 0usize;
    for seed in 0..seeds {
        let plan = Arc::new(FaultPlan::chaos(seed, ppm));
        let (audit, stats, retries) = {
            let (schedule, plan) = (Arc::clone(&schedule), Arc::clone(&plan));
            with_watchdog(&format!("kv (seed {seed})"), timeout, move || {
                kv_soak_run(nodes, procs, keys, &schedule, Some(plan), ptable)
            })
        };
        let ok = audit.occupied == reference.occupied && audit.checksum == reference.checksum;
        if !ok {
            eprintln!(
                "CORRECTNESS FAILURE: kv seed {seed}: audit {}/{:#018x} != \
                 reference {}/{:#018x} (lost, duplicated, or torn update)",
                audit.occupied, audit.checksum, reference.occupied, reference.checksum
            );
            failures += 1;
        }
        let ki = stats.injected_faults();
        total_injected += ki;
        total_recovered += stats.fault_recoveries;
        println!(
            "seed {seed:>3}: kv {} ({ki} faults, {retries} request retries)",
            if ok { "ok" } else { "FAIL" },
        );
    }
    (total_injected, total_recovered, failures)
}

/// The original application soak: gauss, mergesort, and the neural net
/// under every seed's plan.
fn soak_apps(
    seeds: u64,
    nodes: usize,
    procs: usize,
    ppm: u32,
    timeout: Duration,
) -> (u64, u64, usize) {
    let gauss_cfg = GaussConfig::with_n(48);
    let gauss_ref = gauss::reference_checksum(&gauss_cfg);
    let sort_cfg = SortConfig::with_n(1 << 12);
    let neural_cfg = NeuralConfig::with_epochs(4);

    let mut total_injected = 0u64;
    let mut total_recovered = 0u64;
    let mut failures = 0usize;
    for seed in 0..seeds {
        let plan = Arc::new(FaultPlan::chaos(seed, ppm));

        let run = {
            let (cfg, plan) = (gauss_cfg.clone(), Arc::clone(&plan));
            with_watchdog(&format!("gauss (seed {seed})"), timeout, move || {
                run_gauss_faulty(
                    GaussStyle::Shared(PolicyKind::Platinum),
                    nodes,
                    procs,
                    &cfg,
                    Some(plan),
                )
            })
        };
        let gauss_ok = run.checksum == gauss_ref;
        if !gauss_ok {
            eprintln!(
                "CORRECTNESS FAILURE: gauss seed {seed}: checksum {:#x} != reference {gauss_ref:#x}",
                run.checksum
            );
            failures += 1;
        }
        let gi = run.kernel_stats.injected_faults();
        total_injected += gi;
        total_recovered += run.kernel_stats.fault_recoveries;

        // Mergesort verifies the sorted output internally (panics — and
        // the watchdog re-raises it — if any key is out of order or lost).
        let run = {
            let (cfg, plan) = (sort_cfg.clone(), Arc::clone(&plan));
            with_watchdog(&format!("mergesort (seed {seed})"), timeout, move || {
                run_mergesort_faulty(nodes, procs, &cfg, Some(plan))
            })
        };
        let si = run.kernel_stats.injected_faults();
        total_injected += si;
        total_recovered += run.kernel_stats.fault_recoveries;

        let (run, err) = {
            let (cfg, plan) = (neural_cfg.clone(), Arc::clone(&plan));
            with_watchdog(&format!("neural (seed {seed})"), timeout, move || {
                run_neural_faulty(nodes, procs, &cfg, Some(plan))
            })
        };
        if !err.is_finite() {
            eprintln!("CORRECTNESS FAILURE: neural seed {seed}: non-finite error {err}");
            failures += 1;
        }
        let ni = run.kernel_stats.injected_faults();
        total_injected += ni;
        total_recovered += run.kernel_stats.fault_recoveries;

        println!(
            "seed {seed:>3}: gauss {} ({gi} faults), mergesort ok ({si} faults), \
             neural err {err:.4} ({ni} faults)",
            if gauss_ok { "ok" } else { "FAIL" },
        );
    }
    (total_injected, total_recovered, failures)
}

pub(crate) fn run(run: &mut Run) {
    let args = &mut run.args;
    let workload = args.get_or("--workload", "apps".to_string());
    let seeds = args.get_or("--seeds", 8u64);
    let nodes = args.count("--nodes", 1..).unwrap_or(4);
    let procs = args.count("--procs", 1..=nodes).unwrap_or(nodes);
    let ppm = 25_000;
    let timeout = Duration::from_secs(120);
    // The kv workload's own flags are read only for it, so under `apps`
    // they are rejected rather than ignored.
    let kv = match workload.as_str() {
        "apps" => None,
        // Small enough that every seed finishes in seconds on one host
        // core, big enough that each run takes thousands of
        // lock-protected multi-word updates through the fault sites.
        // Replicated page tables so the soak reaches the
        // dropped-ptable-invalidation site.
        "kv" => Some((
            TrafficConfig {
                keys: args.get_or("--kv-keys", 1u64 << 10),
                requests_per_proc: args.get_or("--kv-requests", 1024usize),
                mean_interarrival_ns: 10_000,
                ..TrafficConfig::default()
            },
            PtableConfig::with_placement(PtablePlacement::ReplicatedOnFault),
        )),
        other => panic!("unknown workload {other:?} (expected apps or kv)"),
    };
    run.start(Artifact::None);
    // Every seed's kernel records into the run's tracer (shared with
    // `--trace`); the span check at the end sees the whole soak.
    let tracer = run.tracer();

    println!(
        "chaos soak ({workload}): {seeds} seeds, {nodes} nodes, {procs} procs, \
         {ppm} ppm per site, watchdog {timeout:?}\n"
    );

    let (total_injected, total_recovered, mut failures) = match kv {
        None => soak_apps(seeds, nodes, procs, ppm, timeout),
        Some((traffic, ptable)) => soak_kv(seeds, nodes, procs, ppm, timeout, &traffic, ptable),
    };

    println!("\ninjected faults: {total_injected}, recovery spans: {total_recovered}");
    if total_injected == 0 {
        eprintln!("soak injected no faults — raise --seeds; nothing was exercised");
        failures += 1;
    }

    // Every injection kind that fired must have produced at least one
    // fault→recovery span, and every span must be well-formed (its begin
    // vtime, carried in `arg`, precedes the recovery event's vtime). A
    // copy-page episode that saw both a read error and a transfer fault
    // is coded by whichever site failed first, so those two kinds accept
    // either code.
    let trace = tracer.snapshot();
    let recoveries: Vec<&TraceEvent> = trace.of_kind(EventKind::FaultRecovery).collect();
    for r in &recoveries {
        if r.arg > r.vtime {
            eprintln!(
                "MALFORMED SPAN: recovery at vtime {} begins at {} (page {:#x})",
                r.vtime, r.arg, r.page
            );
            failures += 1;
        }
    }
    let site_checks: [(EventKind, &[FaultSite]); 5] = [
        (
            EventKind::MemError,
            &[FaultSite::FrameRead, FaultSite::BlockTransfer],
        ),
        (EventKind::ShootdownTimeout, &[FaultSite::ShootdownAck]),
        (
            EventKind::TransferFault,
            &[FaultSite::FrameRead, FaultSite::BlockTransfer],
        ),
        (EventKind::AllocFault, &[FaultSite::FrameAlloc]),
        (EventKind::PtInvalDrop, &[FaultSite::PtableInval]),
    ];
    for (kind, sites) in site_checks {
        let fired = trace.count(kind);
        if fired == 0 {
            continue;
        }
        let spans = recoveries
            .iter()
            .filter(|r| sites.iter().any(|s| r.code == *s as u8))
            .count();
        if spans == 0 {
            eprintln!("UNRECOVERED SITE: {fired} {kind:?} events but no matching recovery span");
            failures += 1;
        } else {
            println!("site {kind:?}: {fired} injected, {spans} recovery spans");
        }
    }

    println!("\n{failures} failures");
    run.check("every_run_correct_and_live_under_injection", failures == 0);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run that panics is a failure with its own message, not a
    /// liveness failure after the timeout.
    #[test]
    #[should_panic(expected = "boom")]
    fn a_panicking_run_is_not_a_hang() {
        with_watchdog("boom", Duration::from_secs(60), || panic!("boom"));
    }
}
