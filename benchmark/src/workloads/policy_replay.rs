//! `policy_replay` — the policy-matrix sweep on a bit-reproducible input.
//!
//! A live capture differs from run to run (three `policy_matrix
//! --workload kv` captures gave 237 484 / 237 481 / 237 474 ops), so the
//! benchmark synthesises its own `RefTrace` from the seed through the
//! format's public fields: an init phase of first-touch block writes, then
//! a measured phase in which 8 workers, in per-processor runs of 1–16
//! ops, mix private pages (50 %), 16 read-mostly shared pages (25 %), 8
//! migratory pages (15 %), 4 fine-grain write-shared pages (7 %) and
//! compute (3 %). The identical stream is replayed with `replay(&trace,
//! kind)` under each Figure-1 policy, one after another. `reftrace` and
//! its per-op thread hand-off do most of the work; the five policies span
//! fast-path-heavy (remote-always) to slow-path-heavy (migrate-only).

use std::time::Instant;

use super::{add_stats, core_counts, machine, machine_counts, timed, Checks, Rep, Workload};
use crate::api::{
    replay, AccessCounters, MachineConfig, Op, Phase, PolicyKind, Rec, RefTrace, ReplayOutcome,
    SimBuilder, StatsSnapshot,
};
use crate::metrics::Metrics;
use crate::rng::Rng;
use crate::spans::Recorder;
use crate::stats::distinct;

const WORKERS: usize = 8;
const FRAMES_PER_NODE: usize = 1024;
const PAGE_SHIFT: u32 = 12;
const PAGE_BYTES: u64 = 1 << PAGE_SHIFT;
const PAGE_WORDS: u64 = PAGE_BYTES / 4;
const PRIVATE_PER_WORKER: u64 = 16;
const SHARED: u64 = 16;
const MIGRATORY: u64 = 8;
const FINE: u64 = 4;
/// Measured-phase ops per replay: one five-policy sweep takes ~0.6 s.
pub const MEASURED_OPS: usize = 96_000;
const MAX_RUN: u64 = 16;

/// Page counts of the trace's allocation zones, in allocation order:
/// private, read-mostly shared, migratory, fine-grain write-shared.
const ZONES: [u64; 4] = [PRIVATE_PER_WORKER * WORKERS as u64, SHARED, MIGRATORY, FINE];

fn trace_machine() -> MachineConfig {
    MachineConfig {
        frames_per_node: FRAMES_PER_NODE,
        page_shift: PAGE_SHIFT,
        ..machine(WORKERS)
    }
}

/// Where the replayer will map each zone: found by booting the same
/// machine and making the same `alloc_zone` calls the replayer makes.
fn zone_bases() -> [u64; 4] {
    let sim = SimBuilder::nodes(WORKERS)
        .machine_config(trace_machine())
        .build();
    ZONES.map(|pages| sim.alloc_zone(pages as usize).base())
}

/// The synthetic trace for `seed` with `measured_ops` ops in the measured
/// phase (attach/detach records not counted).
pub fn synth(seed: u64, measured_ops: usize) -> RefTrace {
    synth_at(seed, measured_ops, zone_bases())
}

fn synth_at(
    seed: u64,
    measured_ops: usize,
    [private, shared, migratory, fine]: [u64; 4],
) -> RefTrace {
    let mut rng = Rng::new(seed, 0x7EAC);
    let page = |base: u64, p: u64| base + p * PAGE_BYTES;

    // Init: each worker first-touches its private pages and its stripe of
    // every shared zone with whole-page block writes.
    let mut init = Vec::new();
    for w in 0..WORKERS as u64 {
        let proc = w as u8;
        init.push(Rec {
            proc,
            op: Op::Attach,
        });
        let mine = (0..PRIVATE_PER_WORKER).map(|p| page(private, w * PRIVATE_PER_WORKER + p));
        let striped = [(shared, SHARED), (migratory, MIGRATORY), (fine, FINE)]
            .into_iter()
            .flat_map(|(base, n)| {
                (0..n)
                    .filter(move |p| p % WORKERS as u64 == w)
                    .map(move |p| page(base, p))
            });
        for va in mine.chain(striped) {
            let op = Op::WriteBlock {
                va,
                words: PAGE_WORDS,
            };
            init.push(Rec { proc, op });
        }
        init.push(Rec {
            proc,
            op: Op::Detach,
        });
    }

    // Measured: everyone attaches first, so every worker is a live
    // shootdown target throughout, as in a real run.
    let mut ops: Vec<Rec> = Vec::with_capacity(measured_ops + 2 * WORKERS);
    ops.extend((0..WORKERS as u8).map(|proc| Rec {
        proc,
        op: Op::Attach,
    }));
    // Runs come in blocks of one run per worker, in seeded order, all of
    // one seeded length — so every worker executes the same number of ops
    // and the makespan does not hinge on how a seed splits the work.
    let body_end = WORKERS + measured_ops;
    let mut order: Vec<u64> = (0..WORKERS as u64).collect();
    let mut last = u64::MAX;
    while ops.len() < body_end {
        rng.shuffle(&mut order);
        if order[0] == last {
            // Never two runs of one processor back to back: each run
            // boundary is a thread hand-off.
            order.swap(0, WORKERS - 1);
        }
        last = order[WORKERS - 1];
        let run = 1 + rng.below(MAX_RUN);
        for &w in &order {
            let migratory_page = page(migratory, rng.below(MIGRATORY));
            for k in 0..run {
                if ops.len() == body_end {
                    break;
                }
                let word = rng.below(PAGE_WORDS) * 4;
                let roll = rng.below(100);
                let op = match rng.below(100) {
                    0..50 => {
                        let va = page(
                            private,
                            w * PRIVATE_PER_WORKER + rng.below(PRIVATE_PER_WORKER),
                        );
                        if roll < 30 {
                            Op::Write { va: va + word }
                        } else {
                            Op::Read { va: va + word }
                        }
                    }
                    50..75 => {
                        let va = page(shared, rng.below(SHARED)) + word;
                        if roll < 1 {
                            Op::Write { va }
                        } else {
                            Op::Read { va }
                        }
                    }
                    75..90 => {
                        // Read-modify-write on the run's page.
                        if k % 2 == 0 {
                            Op::Read { va: migratory_page }
                        } else {
                            Op::Write { va: migratory_page }
                        }
                    }
                    90..97 => {
                        let va = page(fine, rng.below(FINE)) + word;
                        if roll < 50 {
                            Op::Write { va }
                        } else {
                            Op::Read { va }
                        }
                    }
                    _ => Op::Compute {
                        ns: 500 + rng.below(4500),
                    },
                };
                ops.push(Rec { proc: w as u8, op });
            }
        }
    }
    ops.extend((0..WORKERS as u8).map(|proc| Rec {
        proc,
        op: Op::Detach,
    }));

    let phase = |label: &str, ops: Vec<Rec>| Phase {
        label: label.to_string(),
        workers: WORKERS,
        // No capture run exists whose clocks these could be.
        final_vtimes: vec![0; WORKERS],
        ops,
    };
    RefTrace {
        nodes: WORKERS,
        frames_per_node: FRAMES_PER_NODE,
        page_shift: PAGE_SHIFT,
        zones: ZONES.to_vec(),
        phases: vec![phase("init", init), phase("measured", ops)],
    }
}

fn policy_metric(kind: PolicyKind) -> &'static str {
    match kind {
        PolicyKind::Platinum => "reftrace.replay_platinum_s",
        PolicyKind::MigrateOnly => "reftrace.replay_migrate_only_s",
        PolicyKind::ReplicateOnly => "reftrace.replay_replicate_only_s",
        PolicyKind::LocalFirstTouch => "reftrace.replay_local_first_touch_s",
        PolicyKind::RemoteAlways => "reftrace.replay_remote_always_s",
        other => unreachable!("{other:?} is not in FIG1_SET"),
    }
}

pub struct PolicyReplay {
    seed: u64,
    vtimes: Vec<u64>,
}

impl PolicyReplay {
    pub fn new(seed: u64) -> Self {
        PolicyReplay {
            seed,
            vtimes: Vec::new(),
        }
    }
}

impl Workload for PolicyReplay {
    fn rep(&mut self, rec: &mut Recorder) -> Rep {
        let mut layer = Metrics::default();
        let rep_span = rec.begin("bench.policy_replay.rep");

        // ---- set-up: the trace is the whole input -----------------------
        let (trace, setup_s) =
            timed(|| rec.span("bench.trace_synth", || synth(self.seed, MEASURED_OPS)));

        // ---- measured phase: the five-policy sweep ----------------------
        let mut outcomes: Vec<ReplayOutcome> = Vec::new();
        let sweep = rec.begin("reftrace.sweep");
        let t = Instant::now();
        for kind in PolicyKind::FIG1_SET {
            // The span carries the name of the metric it times.
            let span = rec.begin(policy_metric(kind));
            let (outcome, secs) = timed(|| replay(&trace, kind));
            rec.end(span);
            layer.set(policy_metric(kind), secs);
            outcomes.push(outcome);
        }
        let host_s = t.elapsed().as_secs_f64();
        rec.end(sweep);

        let vtime_ns: u64 = outcomes.iter().map(|o| o.measured_elapsed_ns()).sum();
        self.vtimes.push(vtime_ns);
        let sim_ops = (trace.total_ops() * outcomes.len()) as u64;

        // ---- checks -------------------------------------------------------
        let mut checks = Checks::default();
        // What every policy must agree on for the same stream: each
        // `Compute` charged once (the kernel never charges compute), and
        // at least one reference charged per recorded read or write (the
        // fault handler's own references come on top, and differ).
        let body = &trace.phases[1].ops;
        let want_compute: u64 = body
            .iter()
            .map(|r| if let Op::Compute { ns } = r.op { ns } else { 0 })
            .sum();
        let stream_refs = body
            .iter()
            .filter(|r| matches!(r.op, Op::Read { .. } | Op::Write { .. }))
            .count() as u64;
        for o in &outcomes {
            checks.check(o.phases.len() == trace.phases.len(), || {
                format!("{:?} completed {} of 2 phases", o.policy, o.phases.len())
            });
            let c = o
                .phases
                .last()
                .map(|p| p.stats.merged_counters())
                .unwrap_or_default();
            checks.check(c.compute_ns == want_compute, || {
                format!(
                    "{:?} charged {} ns of compute, the stream holds {want_compute}",
                    o.policy, c.compute_ns
                )
            });
            checks.check(c.total_refs() >= stream_refs, || {
                format!(
                    "{:?} charged {} references, the stream holds {stream_refs}",
                    o.policy,
                    c.total_refs()
                )
            });
        }

        let mut counters = AccessCounters::default();
        let mut busy = 0u64;
        let mut stats = StatsSnapshot::default();
        for o in &outcomes {
            if let Some(p) = o.phases.last() {
                counters.merge(&p.stats.merged_counters());
                busy += p.stats.workers.iter().map(|w| w.vtime_ns).sum::<u64>();
            }
            add_stats(&mut stats, &o.kernel);
        }
        machine_counts(&mut layer, &counters, busy);
        core_counts(&mut layer, &stats);
        layer.set("reftrace.ops", trace.total_ops() as f64);
        layer.set("reftrace.vtime_distinct", distinct(&self.vtimes) as f64);
        rec.end(rep_span);
        Rep {
            setup_s,
            host_s,
            vtime_ns,
            sim_ops,
            checks,
            layer,
        }
    }

    fn probes(&mut self, rec: &mut Recorder, out: &mut Metrics) {
        let probes = rec.begin("bench.policy_replay.probes");

        // Hand-off alone: compute-only ops that alternate processor on
        // every op, so each op costs one cursor hand-off and nothing else.
        const HANDOFF_OPS: usize = 40_000;
        let mut ops: Vec<Rec> = (0..WORKERS as u8)
            .map(|proc| Rec {
                proc,
                op: Op::Attach,
            })
            .collect();
        ops.extend((0..HANDOFF_OPS).map(|i| Rec {
            proc: (i % WORKERS) as u8,
            op: Op::Compute { ns: 100 },
        }));
        ops.extend((0..WORKERS as u8).map(|proc| Rec {
            proc,
            op: Op::Detach,
        }));
        let handoff = RefTrace {
            nodes: WORKERS,
            frames_per_node: FRAMES_PER_NODE,
            page_shift: PAGE_SHIFT,
            zones: Vec::new(),
            phases: vec![Phase {
                label: "handoff".to_string(),
                workers: WORKERS,
                final_vtimes: vec![0; WORKERS],
                ops,
            }],
        };
        let span = rec.begin("reftrace.handoff");
        let secs: Vec<f64> = (0..3)
            .map(|_| timed(|| replay(&handoff, PolicyKind::Platinum)).1)
            .collect();
        rec.end(span);
        out.set(
            "reftrace.handoff_ns_per_op",
            crate::stats::median(&secs) * 1e9 / HANDOFF_OPS as f64,
        );

        // The binary format, both directions.
        let trace = synth(self.seed, MEASURED_OPS);
        let mut bytes = Vec::new();
        let span = rec.begin("reftrace.codec");
        let (_, enc_s) = timed(|| {
            for _ in 0..5 {
                bytes.clear();
                trace.write_to(&mut bytes).expect("encode to memory");
            }
        });
        let (_, dec_s) = timed(|| {
            for _ in 0..5 {
                let back = RefTrace::read_from(&mut bytes.as_slice()).expect("decode");
                assert_eq!(back.total_ops(), trace.total_ops());
            }
        });
        rec.end(span);
        let mb = 5.0 * bytes.len() as f64 / 1e6;
        out.set("reftrace.encode_mb_s", mb / enc_s);
        out.set("reftrace.decode_mb_s", mb / dec_s);
        rec.end(probes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASES: [u64; 4] = [0x10_0000, 0x20_0000, 0x30_0000, 0x40_0000];

    #[test]
    fn trace_is_a_pure_function_of_the_seed() {
        assert_eq!(synth_at(1, 2000, BASES), synth_at(1, 2000, BASES));
        assert_ne!(synth_at(1, 2000, BASES), synth_at(2, 2000, BASES));
    }

    #[test]
    fn trace_is_well_formed() {
        let t = synth_at(7, 5000, BASES);
        assert_eq!(t.phases.len(), 2);
        let measured = &t.phases[1];
        assert_eq!(measured.ops.len(), 5000 + 2 * WORKERS);
        for ph in &t.phases {
            // Per worker: one Attach before any op, one Detach after all.
            for w in 0..WORKERS as u8 {
                let mine: Vec<&Rec> = ph.ops.iter().filter(|r| r.proc == w).collect();
                assert!(matches!(mine.first().unwrap().op, Op::Attach));
                assert!(matches!(mine.last().unwrap().op, Op::Detach));
                let inner = &mine[1..mine.len() - 1];
                assert!(!inner
                    .iter()
                    .any(|r| matches!(r.op, Op::Attach | Op::Detach)));
            }
        }
        // Runs are at most MAX_RUN long and private pages stay private.
        let body = &measured.ops[WORKERS..measured.ops.len() - WORKERS];
        let mut run = 0;
        for pair in body.windows(2) {
            run = if pair[0].proc == pair[1].proc {
                run + 1
            } else {
                0
            };
            assert!(run < MAX_RUN, "run longer than {MAX_RUN}");
        }
        for r in body {
            if let Op::Read { va } | Op::Write { va } = r.op {
                if va < BASES[1] {
                    let owner = (va - BASES[0]) / PAGE_BYTES / PRIVATE_PER_WORKER;
                    assert_eq!(owner, r.proc as u64, "private page touched by a stranger");
                }
            }
        }
    }

    #[test]
    fn zone_bases_are_what_the_builder_allocates() {
        let b = zone_bases();
        assert!(b.windows(2).all(|w| w[0] < w[1]), "zones overlap: {b:?}");
        assert!(b.iter().all(|va| va % PAGE_BYTES == 0));
    }
}
