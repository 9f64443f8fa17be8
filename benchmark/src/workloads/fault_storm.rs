//! `fault_storm` — the kernel slow path and nothing else: the mirror
//! image of `ref_stream`.
//!
//! One host thread rotates over all 16 contexts of a flat 16-node machine
//! with `suspend`/`resume` (the §3.1 activity optimisation: a suspended
//! processor is never interrupted, it applies pending mapping changes
//! when it resumes). Under `AlwaysReplicate`, on 8 pages, a seeded script
//! plays rounds of eight ops on one page: seven reads from seven
//! processors that hold no copy (each replicates), then a write from an
//! eighth (invalidates every replica and migrates the page). Every op
//! faults; no IPI is ever sent because every target is inactive.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use super::{
    alternate, core_counts, counters_delta, machine, machine_counts, ns_per_iter, prof_buckets,
    ptable_counts, timed, Checks, Rep, Workload,
};
use crate::api::{
    AccessCounters, FaultPlan, FaultSite, Frame, Mem, PolicyKind, PtableConfig, PtablePlacement,
    Sim, SimBuilder, TimingConfig, Topology, UserCtx,
};
use crate::metrics::Metrics;
use crate::rng::Rng;
use crate::spans::{LogHist, Recorder};

const NODES: usize = 16;
const PAGES: usize = 8;
const ROUND: usize = 8;
/// Rounds per repetition: 400 k faulting ops, ~0.4 s.
pub const ROUNDS: usize = 50_000;
/// Rounds per layer slice (trace/faults/ptable overhead probes).
const SLICE_ROUNDS: usize = 10_000;
const PAGE_BYTES: u64 = 4096;
const PAGE_WORDS: u64 = PAGE_BYTES / 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub proc: u8,
    pub page: u8,
    pub word: u16,
    pub write: bool,
}

/// The seeded fault script: the processor that first touches each page,
/// then `rounds` rounds of seven replicating reads and one migrating
/// write. The generator tracks each page's owner so no reader or writer
/// ever holds a copy already — which is what makes every op fault.
pub fn script(seed: u64, rounds: usize) -> ([u8; PAGES], Vec<Op>) {
    let mut rng = Rng::new(seed, 0xFA17);
    let mut owner = [0u8; PAGES];
    for o in &mut owner {
        *o = rng.below(NODES as u64) as u8;
    }
    let first_owner = owner;
    let mut ops = Vec::with_capacity(rounds * ROUND);
    let mut others: Vec<u8> = Vec::with_capacity(NODES);
    for _ in 0..rounds {
        let page = rng.below(PAGES as u64) as u8;
        others.clear();
        others.extend((0..NODES as u8).filter(|&p| p != owner[page as usize]));
        rng.shuffle(&mut others);
        for (k, &proc) in others[..ROUND].iter().enumerate() {
            ops.push(Op {
                proc,
                page,
                word: rng.below(PAGE_WORDS) as u16,
                write: k == ROUND - 1,
            });
        }
        owner[page as usize] = others[ROUND - 1];
    }
    (first_owner, ops)
}

fn write_value(i: usize) -> u32 {
    (i as u32).wrapping_mul(0x85EB_CA6B) | 1
}

/// Wrapping sum of every value the reads must return (every read returns
/// the last write), from a plain array.
fn shadow_checksum(ops: &[Op]) -> u32 {
    let mut mem = vec![0u32; PAGES * PAGE_WORDS as usize];
    let mut sum = 0u32;
    for (i, op) in ops.iter().enumerate() {
        let at = op.page as usize * PAGE_WORDS as usize + op.word as usize;
        if op.write {
            mem[at] = write_value(i);
        } else {
            sum = sum.wrapping_add(mem[at]);
        }
    }
    sum
}

/// A booted storm machine: every processor attached and suspended, every
/// page first-touched (zero-filled) by its first owner.
struct Storm {
    sim: Sim,
    ctxs: Vec<UserCtx>,
    base: u64,
}

fn boot(rec: &mut Recorder, builder: SimBuilder, first_owner: &[u8; PAGES]) -> (Storm, f64) {
    let (sim, build_s) = timed(|| rec.span("runtime.sim_build", || builder.build()));
    let zone = sim.alloc_zone(PAGES);
    let base = zone.base();
    let attach = rec.begin("core.attach");
    let mut ctxs: Vec<UserCtx> = (0..NODES)
        .map(|p| {
            let mut c = sim.attach(p).expect("processor free");
            c.suspend();
            c
        })
        .collect();
    rec.end(attach);
    let touch = rec.begin("core.first_touch");
    for (page, &o) in first_owner.iter().enumerate() {
        let c = &mut ctxs[o as usize];
        c.resume();
        c.write(base + page as u64 * PAGE_BYTES, 0);
        c.suspend();
    }
    rec.end(touch);
    (Storm { sim, ctxs, base }, build_s)
}

fn flat_builder() -> SimBuilder {
    SimBuilder::nodes(NODES)
        .machine_config(machine(NODES))
        .policy(PolicyKind::AlwaysReplicate)
}

/// Plays `ops`; returns the read checksum. Only the context that runs is
/// active, so a shootdown never waits on a peer.
#[inline(never)]
fn play(storm: &mut Storm, ops: &[Op]) -> u32 {
    let mut sum = 0u32;
    for (i, op) in ops.iter().enumerate() {
        let va = storm.base + op.page as u64 * PAGE_BYTES + op.word as u64 * 4;
        let c = &mut storm.ctxs[op.proc as usize];
        c.resume();
        if op.write {
            c.write(va, write_value(i));
        } else {
            sum = sum.wrapping_add(c.read(va));
        }
        c.suspend();
    }
    sum
}

/// Host timings of a traced repetition's ops, classified by the script.
#[derive(Default)]
struct OpTimes {
    read_replicate: LogHist,
    write_migrate: LogHist,
    suspend_resume: LogHist,
}

/// [`play`] with four clock reads per op (traced repetitions only).
fn play_timed(storm: &mut Storm, ops: &[Op], times: &mut OpTimes) -> u32 {
    let mut sum = 0u32;
    for (i, op) in ops.iter().enumerate() {
        let va = storm.base + op.page as u64 * PAGE_BYTES + op.word as u64 * 4;
        let c = &mut storm.ctxs[op.proc as usize];
        let t0 = Instant::now();
        c.resume();
        let t1 = Instant::now();
        if op.write {
            c.write(va, write_value(i));
        } else {
            sum = sum.wrapping_add(c.read(va));
        }
        let t2 = Instant::now();
        c.suspend();
        let t3 = Instant::now();
        let fault_ns = (t2 - t1).as_nanos() as u64;
        if op.write {
            times.write_migrate.record(fault_ns);
        } else {
            times.read_replicate.record(fault_ns);
        }
        times
            .suspend_resume
            .record(((t1 - t0) + (t3 - t2)).as_nanos() as u64);
    }
    sum
}

/// Host seconds to boot `builder` and play a `SLICE_ROUNDS` slice, plus
/// the machine it ran on (for the slice's own counts).
fn slice(builder: SimBuilder, first_owner: &[u8; PAGES], ops: &[Op]) -> (f64, Storm) {
    let (mut storm, _) = boot(&mut Recorder::new(false), builder, first_owner);
    let (sum, secs) = timed(|| play(&mut storm, ops));
    black_box(sum);
    (secs, storm)
}

pub struct FaultStorm {
    seed: u64,
    expect: Option<u32>,
}

impl FaultStorm {
    pub fn new(seed: u64) -> Self {
        FaultStorm { seed, expect: None }
    }
}

impl Workload for FaultStorm {
    fn rep(&mut self, rec: &mut Recorder) -> Rep {
        let mut layer = Metrics::default();
        let rep_span = rec.begin("bench.fault_storm.rep");

        // ---- set-up -----------------------------------------------------
        let t_setup = Instant::now();
        let (first_owner, ops) = rec.span("bench.script_gen", || script(self.seed, ROUNDS));
        let (mut storm, build_s) = boot(rec, flat_builder(), &first_owner);
        layer.set("runtime.sim_build_ms", build_s * 1e3);
        let setup_s = t_setup.elapsed().as_secs_f64();

        // ---- measured phase -----------------------------------------------
        if rec.enabled() {
            storm.sim.kernel.host_prof().enable();
        }
        let c0: Vec<AccessCounters> = storm.ctxs.iter().map(|c| c.counters()).collect();
        let v0: Vec<u64> = storm.ctxs.iter().map(|c| c.vtime()).collect();
        let s0 = storm.sim.kernel.stats().snapshot();
        let w0 = storm.sim.kernel.walk_snapshot();
        let mut times = OpTimes::default();
        let measured = rec.begin("core.fault_storm");
        let t = Instant::now();
        let sum = if rec.enabled() {
            play_timed(&mut storm, &ops, &mut times)
        } else {
            play(&mut storm, &ops)
        };
        let host_s = t.elapsed().as_secs_f64();
        rec.end(measured);
        let busy: Vec<u64> = storm
            .ctxs
            .iter()
            .zip(&v0)
            .map(|(c, v0)| c.vtime() - v0)
            .collect();
        let vtime_ns = busy.iter().copied().max().unwrap_or(0);
        let mut c = AccessCounters::default();
        for (ctx, c0) in storm.ctxs.iter().zip(&c0) {
            c.merge(&counters_delta(&ctx.counters(), c0));
        }
        let s = storm.sim.kernel.stats().snapshot().delta(&s0);
        let w = storm.sim.kernel.walk_snapshot().delta(&w0);
        let sim_ops = ops.len() as u64;

        // ---- checks ---------------------------------------------------------
        let expect = *self.expect.get_or_insert_with(|| shadow_checksum(&ops));
        let mut checks = Checks::default();
        checks.check(sum == expect, || {
            format!("fault_storm checksum {sum:#x} != shadow replay {expect:#x}")
        });
        checks.check(s.faults == sim_ops, || {
            format!("core.faults {} != sim_ops {sim_ops}", s.faults)
        });

        machine_counts(&mut layer, &c, busy.iter().sum());
        core_counts(&mut layer, &s);
        ptable_counts(&mut layer, &w);
        if rec.enabled() {
            prof_buckets(
                &mut layer,
                &storm.sim.kernel.host_prof().snapshot(),
                s.faults,
                w.walks,
            );
            let (r, w, sr) = (
                &times.read_replicate,
                &times.write_migrate,
                &times.suspend_resume,
            );
            // 350 k reads and 50 k writes per repetition: the tails are
            // p99.99 and p99.9 (at least ten samples beyond each).
            layer.set("core.fault_read_replicate_ns", r.quantile(1, 2));
            layer.set("core.fault_read_replicate_tail_ns", r.tail());
            layer.set("core.fault_write_migrate_ns", w.quantile(1, 2));
            layer.set("core.fault_write_migrate_tail_ns", w.tail());
            layer.set("core.suspend_resume_ns", sr.quantile(1, 2));
        }
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
        let probes = rec.begin("bench.fault_storm.probes");
        const PAIRS: usize = 5;
        let (first_owner, ops) = script(self.seed, SLICE_ROUNDS);
        let plain = || slice(flat_builder(), &first_owner, &ops).0;
        let per_fault = |secs: f64| secs * 1e9 / ops.len() as f64;

        // trace: the same slice with a tracer installed.
        std::fs::create_dir_all(crate::OUT_DIR).expect("create benchmark/out");
        let trace_path = format!("{}/trace-fault_storm-slice.json", crate::OUT_DIR);
        let span = rec.begin("trace.slice");
        let mut traced_storm = None;
        let (base_s, traced_s) = alternate(PAIRS, plain, || {
            let (secs, storm) = slice(flat_builder().trace(&trace_path), &first_owner, &ops);
            traced_storm = Some(storm);
            secs
        });
        out.set("trace.overhead_pct", (traced_s / base_s - 1.0) * 100.0);
        let storm = traced_storm.expect("at least one traced slice ran");
        let (written, export_s) = timed(|| storm.sim.write_trace().expect("trace export"));
        let body = written
            .and_then(|p| std::fs::read(p).ok())
            .unwrap_or_default();
        out.set("trace.export_mb_s", body.len() as f64 / 1e6 / export_s);
        // One `"ph":` per exported record.
        let events = body.windows(5).filter(|w| w == b"\"ph\":").count();
        out.set("trace.events", events as f64);
        // ~100 MB nobody reads: the export was the measurement.
        let _ = std::fs::remove_file(&trace_path);
        drop(storm);
        rec.end(span);

        // faults: the same slice with an all-zero-rate plan installed —
        // every injection hook is taken, none fires.
        let span = rec.begin("faults.slice");
        let plan = Arc::new(FaultPlan::new(self.seed));
        let (base_s, hooked_s) = alternate(PAIRS, plain, || {
            slice(flat_builder().faults(Arc::clone(&plan)), &first_owner, &ops).0
        });
        out.set(
            "faults.hook_overhead_pct",
            (hooked_s / base_s - 1.0) * 100.0,
        );
        let armed = FaultPlan::chaos(self.seed, 1000);
        out.set(
            "faults.should_inject_ns",
            ns_per_iter(2_000_000, |i| {
                black_box(armed.should_inject(FaultSite::FrameRead, black_box(i * 977), i, 0));
            }),
        );
        rec.end(span);

        // ptable: the same slice on the hierarchical machine with
        // Mitosis-style replicate-on-fault page tables.
        let span = rec.begin("ptable.slice");
        let rof = || {
            flat_builder()
                .topology(Topology::hier2(NODES, 2, &TimingConfig::default()))
                .ptable(PtableConfig::with_placement(
                    PtablePlacement::ReplicatedOnFault,
                ))
        };
        let secs: Vec<f64> = (0..PAIRS)
            .map(|_| slice(rof(), &first_owner, &ops).0)
            .collect();
        out.set(
            "ptable.rof_fault_ns",
            per_fault(crate::stats::median(&secs)),
        );
        rec.end(span);

        // machine: one page copy, the block transfer's host cost.
        let (src, dst) = (
            Frame::new(PAGE_WORDS as usize),
            Frame::new(PAGE_WORDS as usize),
        );
        src.store(7, 7);
        out.set(
            "machine.frame_copy_ns",
            ns_per_iter(500_000, |_| {
                dst.copy_from(black_box(&src));
            }),
        );
        black_box(dst.load(7));

        // core: attach + detach of one context on a booted machine.
        let sim = flat_builder().build();
        out.set(
            "core.attach_us",
            ns_per_iter(20_000, |i| {
                black_box(sim.attach((i % NODES as u64) as usize).expect("free")).vtime();
            }) / 1e3,
        );
        rec.end(probes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_is_a_pure_function_of_the_seed() {
        assert_eq!(script(5, 100), script(5, 100));
        assert_ne!(script(5, 100).1, script(6, 100).1);
    }

    #[test]
    fn no_op_finds_a_copy_already_there() {
        let (first, ops) = script(9, 500);
        assert_eq!(ops.len(), 500 * ROUND);
        // Replay the copy sets: a read must come from a processor without
        // a copy, a write from one without a copy either.
        let mut copies: Vec<Vec<u8>> = first.iter().map(|&o| vec![o]).collect();
        for op in &ops {
            let set = &mut copies[op.page as usize];
            assert!(!set.contains(&op.proc), "{op:?} already holds a copy");
            if op.write {
                *set = vec![op.proc];
            } else {
                set.push(op.proc);
            }
        }
        assert_eq!(ops.iter().filter(|o| o.write).count(), 500);
    }

    #[test]
    fn shadow_reads_last_write() {
        let ops = [
            Op {
                proc: 1,
                page: 0,
                word: 3,
                write: false,
            },
            Op {
                proc: 2,
                page: 0,
                word: 3,
                write: true,
            },
            Op {
                proc: 3,
                page: 0,
                word: 3,
                write: false,
            },
        ];
        assert_eq!(shadow_checksum(&ops), write_value(1));
    }
}
