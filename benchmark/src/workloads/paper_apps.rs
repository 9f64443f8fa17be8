//! `paper_apps` — what a reader of the paper actually runs.
//!
//! The `platinum_apps::harness` live runs: Figure 1 Gaussian elimination
//! in its three programming styles, Figure 5 merge sort on PLATINUM and
//! on the UMA comparator, Figure 6 neural net — each at one processor and
//! at 16 (8 for the neural net). It is the only workload dominated by
//! block reads/writes, barriers, event counts and ports (`apps`,
//! `runtime`), and the only one with a paper reference. Each harness call
//! spawns one OS thread per simulated processor and the threads run
//! freely, so its virtual time is not bit-exact; it repeats to ~0.1 %.
//!
//! A repetition runs [`REP`] sizes so that a run holds a dozen of them.
//! The traced run also makes one pass at the paper's sizes ([`FULL`]:
//! n = 800, 2^18 keys, 40 epochs, ~6 s) for the speedups and
//! `apps.fidelity_err_pct`: virtual results need no repetition.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use super::{
    add_stats, core_counts, machine_counts, ns_per_iter, prof_buckets, timed, Checks, Rep, Workload,
};
use crate::api::{
    gauss, run_gauss, run_gauss_profiled, run_mergesort_platinum, run_mergesort_uma, run_neural,
    AccessCounters, AppRun, Barrier, GaussConfig, GaussStyle, Mem, NeuralConfig, PolicyKind,
    SimBuilder, SortConfig, SpinLock, StatsSnapshot,
};
use crate::metrics::Metrics;
use crate::spans::Recorder;
use crate::stats::distinct;

/// Problem sizes of one pass over the three applications.
pub struct Sizes {
    pub gauss_n: usize,
    pub sort_keys: usize,
    pub epochs: usize,
}

/// One repetition: ~0.8 s of host time.
pub const REP: Sizes = Sizes {
    gauss_n: 256,
    sort_keys: 1 << 14,
    epochs: 4,
};

/// The paper's sizes (Figures 1, 5 and 6).
pub const FULL: Sizes = Sizes {
    gauss_n: 800,
    sort_keys: 1 << 18,
    epochs: 40,
};

const NODES: usize = 16;
const NEURAL_P: usize = 8;
/// The paper's 16-processor Gaussian-elimination speedups (§5.1).
const PAPER_PLATINUM_S16: f64 = 13.5;
const PAPER_SMP_S16: f64 = 15.3;

/// What one pass measured.
#[derive(Default)]
struct Pass {
    vtime_ns: u64,
    refs: u64,
    counters: AccessCounters,
    busy_ns: u64,
    stats: StatsSnapshot,
    gauss_host_s: f64,
    sort_host_s: f64,
    neural_host_s: f64,
    /// Elapsed virtual ns by (application, processors).
    gauss: [[u64; 2]; 3],
    sort: [[u64; 2]; 2],
    neural: [u64; 2],
}

impl Pass {
    fn add(&mut self, run: &AppRun) {
        self.vtime_ns += run.elapsed_ns;
        let c = run.run.merged_counters();
        self.refs += c.total_refs();
        self.counters.merge(&c);
        self.busy_ns += run.run.workers.iter().map(|w| w.vtime_ns).sum::<u64>();
        add_stats(&mut self.stats, &run.kernel_stats);
    }
}

const STYLES: [GaussStyle; 3] = [
    GaussStyle::Shared(PolicyKind::Platinum),
    GaussStyle::UniformSystem,
    GaussStyle::MessagePassing,
];

/// Runs `f`, turning a panic inside the harness (a failed sort
/// verification, a diverged worker) into a failed check.
fn guarded<R>(checks: &mut Checks, what: &str, f: impl FnOnce() -> R) -> Option<R> {
    let r = catch_unwind(AssertUnwindSafe(f)).ok();
    checks.check(r.is_some(), || format!("{what} panicked"));
    r
}

/// One pass over the three applications at `sizes`.
fn pass(
    seed: u64,
    sizes: &Sizes,
    gauss_expect: u64,
    rec: &mut Recorder,
    checks: &mut Checks,
) -> Pass {
    let mut out = Pass::default();
    let gcfg = gauss_config(seed, sizes);
    let scfg = SortConfig {
        seed: seed ^ 0x50_27,
        ..SortConfig::with_n(sizes.sort_keys)
    };
    let ncfg = NeuralConfig::with_epochs(sizes.epochs);

    let span = rec.begin("apps.gauss");
    let t = Instant::now();
    for (si, style) in STYLES.into_iter().enumerate() {
        for (pi, p) in [1, NODES].into_iter().enumerate() {
            let what = format!("gauss {} p={p}", style.name());
            if let Some(run) = guarded(checks, &what, || run_gauss(style, NODES, p, &gcfg)) {
                checks.check(run.checksum == gauss_expect, || {
                    format!(
                        "{what}: checksum {:#x} != reference {gauss_expect:#x}",
                        run.checksum
                    )
                });
                out.gauss[si][pi] = run.elapsed_ns;
                out.add(&run);
            }
        }
    }
    out.gauss_host_s = t.elapsed().as_secs_f64();
    rec.end(span);

    let span = rec.begin("apps.mergesort");
    let t = Instant::now();
    for (pi, p) in [1, NODES].into_iter().enumerate() {
        // The harness verifies the sorted output and panics if it is wrong.
        if let Some(run) = guarded(checks, &format!("mergesort PLATINUM p={p}"), || {
            run_mergesort_platinum(NODES, p, &scfg)
        }) {
            out.sort[0][pi] = run.elapsed_ns;
            out.add(&run);
        }
        if let Some(run) = guarded(checks, &format!("mergesort UMA p={p}"), || {
            run_mergesort_uma(NODES, p, &scfg)
        }) {
            out.sort[1][pi] = run.elapsed_ns;
            out.add(&run);
        }
    }
    out.sort_host_s = t.elapsed().as_secs_f64();
    rec.end(span);

    let span = rec.begin("apps.neural");
    let t = Instant::now();
    for (pi, p) in [1, NEURAL_P].into_iter().enumerate() {
        let what = format!("neural p={p}");
        if let Some((run, err)) = guarded(checks, &what, || run_neural(NODES, p, &ncfg)) {
            checks.check(err.is_finite(), || format!("{what}: training error {err}"));
            out.neural[pi] = run.elapsed_ns;
            out.add(&run);
        }
    }
    out.neural_host_s = t.elapsed().as_secs_f64();
    rec.end(span);
    out
}

fn gauss_config(seed: u64, sizes: &Sizes) -> GaussConfig {
    GaussConfig {
        seed: seed ^ 0x6A_55,
        ..GaussConfig::with_n(sizes.gauss_n)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub struct PaperApps {
    seed: u64,
    vtimes: Vec<u64>,
}

impl PaperApps {
    pub fn new(seed: u64) -> Self {
        PaperApps {
            seed,
            vtimes: Vec::new(),
        }
    }
}

impl Workload for PaperApps {
    fn rep(&mut self, rec: &mut Recorder) -> Rep {
        let mut layer = Metrics::default();
        let rep_span = rec.begin("bench.paper_apps.rep");

        // Set-up: the harness boots its own machines inside the measured
        // calls, so what precedes them is the expected output — the serial
        // host-side elimination every simulated run must reproduce.
        let (expect, setup_s) = timed(|| {
            rec.span("bench.gauss_reference", || {
                gauss::reference_checksum(&gauss_config(self.seed, &REP))
            })
        });

        let mut checks = Checks::default();
        let t = Instant::now();
        let p = pass(self.seed, &REP, expect, rec, &mut checks);
        let host_s = t.elapsed().as_secs_f64();
        self.vtimes.push(p.vtime_ns);

        machine_counts(&mut layer, &p.counters, p.busy_ns);
        core_counts(&mut layer, &p.stats);
        layer.set("apps.gauss_host_s", p.gauss_host_s);
        layer.set("apps.sort_host_s", p.sort_host_s);
        layer.set("apps.neural_host_s", p.neural_host_s);
        layer.set("apps.vtime_distinct", distinct(&self.vtimes) as f64);
        rec.end(rep_span);
        Rep {
            setup_s,
            host_s,
            vtime_ns: p.vtime_ns,
            sim_ops: p.refs,
            checks,
            layer,
        }
    }

    fn probes(&mut self, rec: &mut Recorder, out: &mut Metrics) {
        let probes = rec.begin("bench.paper_apps.probes");

        // One pass at the paper's sizes: the speedups and the fidelity.
        let span = rec.begin("apps.full_size_pass");
        let expect = gauss::reference_checksum(&gauss_config(self.seed, &FULL));
        let mut checks = Checks::default();
        let p = pass(
            self.seed,
            &FULL,
            expect,
            &mut Recorder::new(false),
            &mut checks,
        );
        rec.end(span);
        let best_serial = p
            .gauss
            .iter()
            .map(|t| t[0])
            .filter(|&t| t > 0)
            .min()
            .unwrap_or(0);
        let [platinum, us, smp] = p.gauss.map(|t| ratio(best_serial, t[1]));
        let err = |got: f64, paper: f64| (got - paper).abs() / paper * 100.0;
        out.set(
            "apps.fidelity_err_pct",
            err(platinum, PAPER_PLATINUM_S16).max(err(smp, PAPER_SMP_S16)),
        );
        out.set("apps.gauss_s16", platinum);
        out.set("apps.us_s16", us);
        out.set("apps.smp_s16", smp);
        let sort_s16 = ratio(p.sort[0][0], p.sort[0][1]);
        let uma_s16 = ratio(p.sort[1][0], p.sort[1][1]);
        out.set("apps.sort_s16", sort_s16);
        out.set("apps.uma_s16", uma_s16);
        out.set("apps.fig5_shape_ok", (sort_s16 > uma_s16) as u8 as f64);
        out.set("apps.neural_s8", ratio(p.neural[0], p.neural[1]));
        if checks.failed > 0 {
            // The traced run reports checks too; a failure here must not
            // hide behind a fidelity number.
            out.set("apps.fidelity_err_pct", 100.0);
        }

        // Where the kernel's host time goes under a live 16-thread run.
        let span = rec.begin("core.profiled_gauss");
        let prof = run_gauss_profiled(NODES, NODES, &gauss_config(self.seed, &REP), None);
        prof_buckets(out, &prof.prof, prof.run.kernel_stats.faults, 0);
        rec.end(span);

        // runtime: thread spawn/join, a barrier round, a lock pair.
        let span = rec.begin("runtime.primitives");
        let sim = SimBuilder::nodes(NODES).build();
        out.set(
            "runtime.spawn_join_us",
            ns_per_iter(40, |_| {
                black_box(sim.run(NODES, |i, _ctx| i));
            }) / 1e3,
        );
        let mut zone = sim.alloc_zone(4);
        let barrier = Barrier::new(zone.alloc_page_aligned(1), zone.alloc_words(1), 2);
        const ROUNDS: u32 = 2000;
        let (_, secs) = timed(|| {
            sim.run(2, |_, ctx| {
                for _ in 0..ROUNDS {
                    barrier.wait(ctx);
                }
            })
        });
        out.set("runtime.barrier_wait_us", secs * 1e6 / f64::from(ROUNDS));
        let lock = SpinLock::new(zone.alloc_page_aligned(1));
        let mut ctx = sim.attach(0).expect("processor 0 free");
        out.set(
            "runtime.lock_pair_ns",
            ns_per_iter(1_000_000, |_| {
                lock.acquire(&mut ctx);
                lock.release(&mut ctx);
            }),
        );
        black_box(ctx.vtime());
        rec.end(span);
        rec.end(probes);
    }
}
