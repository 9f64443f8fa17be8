//! `ref_stream` — the translation fast path and nothing else.
//!
//! One host thread on processor 0 of a flat 16-node machine under static
//! placement (`NeverReplicate`). 96 mapped pages meet the 64-entry ATC:
//! 32 are first-touched locally, 64 are homed round-robin on the other 15
//! nodes. A seeded 4096-entry pattern — 90 % over a 24-page hot set, 10 %
//! over all 96 pages, 25 % writes — is looped for [`ROUNDS`] rounds. ATC
//! probe, frame word access and contention booking do the work; after
//! set-up's first touches nothing faults.
//!
//! The seed picks *which* pages are hot, the order, the word offsets and
//! the write positions. The shape is the same for every seed — 8 local
//! and 16 remote hot pages, no two hot pages on one ATC slot, sixteen hot
//! pages that each share a slot with one cold page — so seeds differ in
//! detail, not in hit rate or remote share.

use std::hint::black_box;
use std::time::Instant;

use super::{
    core_counts, counters_delta, machine, machine_counts, ns_per_iter, prof_buckets, ptable_counts,
    timed, Checks, Rep, Workload,
};
use crate::api::{
    Atc, BucketCursor, BucketedResource, Mem, PhysPage, PolicyKind, SimBuilder, UserCtx,
};
use crate::metrics::Metrics;
use crate::rng::Rng;
use crate::spans::Recorder;

const NODES: usize = 16;
const PAGES: u64 = 96;
const LOCAL_PAGES: u64 = 32;
const PATTERN: usize = 4096;
const HOT_REFS: usize = PATTERN * 9 / 10;
/// Rounds of the pattern per repetition: ~29 M references, ~0.4 s.
pub const ROUNDS: u64 = 7168;
const PAGE_BYTES: u64 = 4096;
const PAGE_WORDS: u64 = PAGE_BYTES / 4;

/// One pattern entry: page, word within the page, and whether it writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ref {
    pub page: u8,
    pub word: u16,
    pub write: bool,
}

/// The seeded access pattern. Pages `0..32` are local to processor 0;
/// the ATC is direct-mapped on `vpn % 64`, so pages `p` and `p + 64`
/// share a slot and pages `32..64` have a slot to themselves.
pub fn pattern(seed: u64) -> Vec<Ref> {
    let mut rng = Rng::new(seed, 0x5EF5);
    // Hot set: 8 local pages (slots 0..32), 8 remote pages with a slot of
    // their own (32..64), and 8 remote pages from 64..96 on slots the
    // local hot pages do not use.
    let mut low: Vec<u8> = (0..32).collect();
    rng.shuffle(&mut low);
    let mut mid: Vec<u8> = (32..64).collect();
    rng.shuffle(&mut mid);
    let mut hot: Vec<u8> = low[..8].to_vec();
    hot.extend_from_slice(&mid[..8]);
    hot.extend(low[8..16].iter().map(|&slot| slot + 64));
    debug_assert_eq!(hot.len(), 24);

    // Exact counts per class for every seed — local hot, remote hot and
    // cold references, and a quarter of each written — so that seeds
    // differ in order and placement but not in remote share or write mix.
    let classes: [Vec<u8>; 3] = [
        (0..HOT_REFS)
            .map(|i| hot[i % hot.len()])
            .filter(|&p| p < 32)
            .collect(),
        (0..HOT_REFS)
            .map(|i| hot[i % hot.len()])
            .filter(|&p| p >= 32)
            .collect(),
        (0..PATTERN - HOT_REFS)
            .map(|i| (i as u64 % PAGES) as u8)
            .collect(),
    ];
    let mut refs = Vec::with_capacity(PATTERN);
    for mut pages in classes {
        rng.shuffle(&mut pages);
        refs.extend(pages.into_iter().enumerate().map(|(k, page)| Ref {
            page,
            word: rng.below(PAGE_WORDS) as u16,
            write: k % 4 == 0,
        }));
    }
    rng.shuffle(&mut refs);
    refs
}

fn write_value(round: u64, i: usize) -> u32 {
    (round as u32).wrapping_mul(0x9E37_79B1) ^ i as u32
}

/// What the simulator must return: the wrapping sum of every value read
/// when the pattern runs against a plain array (every read returns the
/// last write). `init[page]` is what set-up stored in word 0 of a page.
fn shadow_checksum(pat: &[Ref], rounds: u64) -> u32 {
    let mut mem = vec![0u32; (PAGES * PAGE_WORDS) as usize];
    for p in 0..PAGES {
        mem[(p * PAGE_WORDS) as usize] = first_touch_value(p);
    }
    let mut sum = 0u32;
    for r in 0..rounds {
        for (i, e) in pat.iter().enumerate() {
            let at = e.page as usize * PAGE_WORDS as usize + e.word as usize;
            if e.write {
                mem[at] = write_value(r, i);
            } else {
                sum = sum.wrapping_add(mem[at]);
            }
        }
    }
    sum
}

fn first_touch_value(page: u64) -> u32 {
    0xF00D_0000 | page as u32
}

pub struct RefStream {
    seed: u64,
    /// The shadow checksum, computed once: it depends only on the seed.
    expect: Option<u32>,
}

impl RefStream {
    pub fn new(seed: u64) -> Self {
        RefStream { seed, expect: None }
    }
}

/// The measured loop, shared with the `machine.*` single-function loops.
#[inline(never)]
fn run_pattern(ctx: &mut UserCtx, pat: &[(u64, bool)], rounds: u64) -> u32 {
    let mut sum = 0u32;
    for r in 0..rounds {
        for (i, &(va, write)) in pat.iter().enumerate() {
            if write {
                ctx.write(va, write_value(r, i));
            } else {
                sum = sum.wrapping_add(ctx.read(va));
            }
        }
    }
    sum
}

impl Workload for RefStream {
    fn rep(&mut self, rec: &mut Recorder) -> Rep {
        let mut layer = Metrics::default();
        let rep_span = rec.begin("bench.ref_stream.rep");

        // ---- set-up -----------------------------------------------------
        let t_setup = Instant::now();
        let pat = rec.span("bench.pattern_gen", || pattern(self.seed));
        let (sim, build_s) = timed(|| {
            rec.span("runtime.sim_build", || {
                SimBuilder::nodes(NODES)
                    .machine_config(machine(NODES))
                    .policy(PolicyKind::NeverReplicate)
                    .build()
            })
        });
        layer.set("runtime.sim_build_ms", build_s * 1e3);
        let zone = sim.alloc_zone(PAGES as usize);
        let base = zone.base();
        let first_touch = rec.begin("core.first_touch");
        // Static placement homes a page where it is first touched: pages
        // 32..96 round-robin over processors 1..16, pages 0..32 here.
        for owner in 1..NODES {
            let mut ctx = sim.attach(owner).expect("processor free");
            for p in (LOCAL_PAGES..PAGES).filter(|p| 1 + (p % 15) as usize == owner) {
                ctx.write(base + p * PAGE_BYTES, first_touch_value(p));
            }
        }
        let mut ctx = sim.attach(0).expect("processor 0 free");
        for p in 0..LOCAL_PAGES {
            ctx.write(base + p * PAGE_BYTES, first_touch_value(p));
        }
        // Map the remote pages too, writable (the same value again), so
        // the measured phase takes no fault.
        for p in LOCAL_PAGES..PAGES {
            ctx.write(base + p * PAGE_BYTES, first_touch_value(p));
        }
        rec.end(first_touch);
        let flat: Vec<(u64, bool)> = pat
            .iter()
            .map(|e| {
                (
                    base + e.page as u64 * PAGE_BYTES + e.word as u64 * 4,
                    e.write,
                )
            })
            .collect();
        let setup_s = t_setup.elapsed().as_secs_f64();

        // ---- measured phase -----------------------------------------------
        if rec.enabled() {
            sim.kernel.host_prof().enable();
        }
        let c0 = ctx.counters();
        let s0 = sim.kernel.stats().snapshot();
        let w0 = sim.kernel.walk_snapshot();
        let v0 = ctx.vtime();
        let measured = rec.begin("machine.ref_stream");
        let t = Instant::now();
        let sum = run_pattern(&mut ctx, &flat, ROUNDS);
        let host_s = t.elapsed().as_secs_f64();
        rec.end(measured);
        let vtime_ns = ctx.vtime() - v0;
        let c = counters_delta(&ctx.counters(), &c0);
        let s = sim.kernel.stats().snapshot().delta(&s0);
        let w = sim.kernel.walk_snapshot().delta(&w0);
        let sim_ops = ROUNDS * PATTERN as u64;

        // ---- checks ---------------------------------------------------------
        let expect = *self
            .expect
            .get_or_insert_with(|| shadow_checksum(&pat, ROUNDS));
        let mut checks = Checks::default();
        checks.check(sum == expect, || {
            format!("ref_stream checksum {sum:#x} != shadow replay {expect:#x}")
        });
        checks.check(c.atc_hits + c.atc_misses == sim_ops, || {
            format!(
                "atc_hits {} + atc_misses {} != sim_ops {sim_ops}",
                c.atc_hits, c.atc_misses
            )
        });
        checks.check(c.total_refs() == sim_ops, || {
            format!("charged references {} != sim_ops {sim_ops}", c.total_refs())
        });

        machine_counts(&mut layer, &c, vtime_ns);
        core_counts(&mut layer, &s);
        ptable_counts(&mut layer, &w);
        if rec.enabled() {
            prof_buckets(
                &mut layer,
                &sim.kernel.host_prof().snapshot(),
                s.faults,
                w.walks,
            );
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
        let probes = rec.begin("bench.ref_stream.probes");
        let sim = SimBuilder::nodes(2).machine_config(machine(2)).build();
        let zone = sim.alloc_zone(128);
        let base = zone.base();
        let mut ctx = sim.attach(0).expect("processor 0 free");
        for p in 0..128 {
            ctx.write(base + p * PAGE_BYTES, p as u32);
        }

        // An ATC-resident read: 16 pages, all hits after the first sweep.
        let resident: Vec<u64> = (0..4096u64)
            .map(|k| base + (k % 16) * PAGE_BYTES + (k % PAGE_WORDS) * 4)
            .collect();
        let m = rec.begin("machine.ref_hit");
        out.set(
            "machine.ref_hit_ns",
            ns_per_iter(2_000_000, |i| {
                black_box(ctx.read(resident[(i & 4095) as usize]));
            }),
        );
        rec.end(m);

        // ATC miss, Pmap hit: a 128-page sweep through the 64-entry ATC
        // evicts every entry before it is reused.
        let m = rec.begin("machine.ref_miss_reload");
        out.set(
            "machine.ref_miss_reload_ns",
            ns_per_iter(1_000_000, |i| {
                black_box(ctx.read(base + (i % 128) * PAGE_BYTES));
            }),
        );
        rec.end(m);

        let mut atc = Atc::new(64);
        for vpn in 0..64 {
            atc.insert(1, vpn, PhysPage::new(0, vpn as usize), true);
        }
        let m = rec.begin("machine.atc_lookup");
        out.set(
            "machine.atc_lookup_ns",
            ns_per_iter(4_000_000, |i| {
                black_box(atc.lookup(1, black_box(i & 63)));
            }),
        );
        rec.end(m);

        // Contention booking as the fast path calls it: a caller-owned
        // cursor and a clock that moves on by one word latency per call.
        let bus = BucketedResource::new(machine(2).contention_bucket_ns);
        let mut cursor = BucketCursor::default();
        let m = rec.begin("machine.reserve");
        out.set(
            "machine.reserve_ns",
            ns_per_iter(4_000_000, |i| {
                black_box(bus.reserve_with(&mut cursor, black_box(i * 500), 250));
            }),
        );
        rec.end(m);
        rec.end(probes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_is_a_pure_function_of_the_seed() {
        assert_eq!(pattern(11), pattern(11));
        assert_ne!(pattern(11), pattern(12));
    }

    #[test]
    fn every_seed_has_the_same_shape() {
        for seed in [1, 2, 99] {
            let pat = pattern(seed);
            assert_eq!(pat.len(), PATTERN);
            // A quarter of each class is written (rounded up per class).
            let writes = pat.iter().filter(|e| e.write).count();
            assert!(
                (PATTERN / 4..PATTERN / 4 + 3).contains(&writes),
                "{writes} writes"
            );
            let local = pat.iter().filter(|e| e.page < 32).count();
            assert_eq!(local, pattern(1).iter().filter(|e| e.page < 32).count());
            assert!(pat.iter().all(|e| (e.page as u64) < PAGES));
            // The 24 most-referenced pages are the hot set: 8 local, 16
            // remote, no two on one ATC slot.
            let mut count = [0usize; PAGES as usize];
            for e in &pat {
                count[e.page as usize] += 1;
            }
            let mut by_use: Vec<usize> = (0..PAGES as usize).collect();
            by_use.sort_by_key(|&p| std::cmp::Reverse(count[p]));
            let hot = &by_use[..24];
            assert_eq!(hot.iter().filter(|&&p| p < 32).count(), 8);
            let mut slots: Vec<usize> = hot.iter().map(|p| p % 64).collect();
            slots.sort_unstable();
            slots.dedup();
            assert_eq!(slots.len(), 24);
        }
    }

    #[test]
    fn shadow_replay_reads_last_writes() {
        let pat = [
            Ref {
                page: 1,
                word: 0,
                write: false,
            },
            Ref {
                page: 1,
                word: 0,
                write: true,
            },
            Ref {
                page: 1,
                word: 0,
                write: false,
            },
        ];
        // Round 0: reads the first-touch value, writes w(0,1), reads it.
        // Round 1: reads w(0,1), writes w(1,1), reads it.
        let want = first_touch_value(1)
            .wrapping_add(write_value(0, 1))
            .wrapping_add(write_value(0, 1))
            .wrapping_add(write_value(1, 1));
        assert_eq!(shadow_checksum(&pat, 2), want);
    }
}
