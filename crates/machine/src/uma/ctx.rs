//! The per-processor context of the UMA comparator machine.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::addr::Va;
use crate::contention::BucketCursor;
use crate::mem_iface::Mem;
use crate::stats::AccessCounters;

use super::cache::TagCache;
use super::{
    UmaMachine, ATOMIC_NS, BUS_LINE_SERVICE_NS, BUS_WORD_SERVICE_NS, CACHE_BYTES, HIT_NS,
    LINE_BYTES, MISS_NS, WORDS_PER_LINE, WRITE_NS,
};

/// One simulated processor of the UMA comparator, implementing [`Mem`].
///
/// Held by the host thread that steps the comparator's processors. Every
/// access goes through the private tag cache and, on misses and writes,
/// the shared bus, accumulating virtual time the same way the NUMA
/// machine does; the stepped schedule keeps the processors' clocks
/// together.
pub struct UmaCtx {
    machine: Arc<UmaMachine>,
    id: usize,
    vtime: u64,
    cache: TagCache,
    counters: AccessCounters,
    /// This processor's memo of its clock's bus bucket.
    cursor: BucketCursor,
}

impl UmaCtx {
    /// Creates the context for processor `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the machine.
    pub fn new(machine: Arc<UmaMachine>, id: usize) -> Self {
        assert!(id < machine.cfg().procs, "processor {id} out of range");
        Self {
            machine,
            id,
            vtime: 0,
            cache: TagCache::new(CACHE_BYTES / LINE_BYTES),
            counters: AccessCounters::default(),
            cursor: BucketCursor::default(),
        }
    }

    /// Counters accumulated so far. The "local"/"remote" split reports
    /// cache hits as local references and misses/write-throughs as remote
    /// (bus) references.
    pub fn counters(&self) -> AccessCounters {
        let mut c = self.counters.clone();
        let (h, m) = self.cache.stats();
        c.atc_hits = h;
        c.atc_misses = m;
        c
    }

    #[inline]
    fn word_index(&self, va: Va) -> usize {
        assert_eq!(va % 4, 0, "misaligned access at {va:#x}");
        let idx = (va / 4) as usize;
        assert!(
            idx < self.machine.cfg().mem_words,
            "bus error: access at {va:#x} beyond physical memory"
        );
        idx
    }

    #[inline]
    fn line_of(&self, word_idx: usize) -> u64 {
        (word_idx / WORDS_PER_LINE) as u64
    }

    /// One charged bus transaction: reserves the shared bus for
    /// `service_ns`, counts the queueing delay, and sets the clock to the
    /// transaction's start plus `latency_ns`.
    fn bus(&mut self, service_ns: u64, latency_ns: u64) {
        let delay = self
            .machine
            .bus
            .reserve_with(&mut self.cursor, self.vtime, service_ns);
        self.counters.queue_delay_ns += delay;
        self.vtime += delay + latency_ns;
    }

    fn read_impl(&mut self, va: Va, charge: bool) -> u32 {
        let idx = self.word_index(va);
        let line = self.line_of(idx);
        let version = self.machine.line_version(idx);
        if self.cache.probe(line, version) {
            if charge {
                self.vtime += HIT_NS;
                self.counters.local_reads += 1;
            }
        } else {
            // Miss: a bus transaction fetches the line (and occupies the
            // bus even when the spin read itself is uncharged).
            if charge {
                self.bus(BUS_LINE_SERVICE_NS, MISS_NS);
                self.counters.remote_reads += 1;
            } else {
                self.machine
                    .bus
                    .reserve_with(&mut self.cursor, self.vtime, BUS_LINE_SERVICE_NS);
            }
            self.cache.fill(line, version);
        }
        self.machine.word(idx).load(Ordering::Acquire)
    }
}

impl Mem for UmaCtx {
    fn proc_id(&self) -> usize {
        self.id
    }

    fn nprocs(&self) -> usize {
        self.machine.cfg().procs
    }

    fn vtime(&self) -> u64 {
        self.vtime
    }

    fn advance_to(&mut self, t: u64) {
        if t > self.vtime {
            self.vtime = t;
        }
    }

    fn compute(&mut self, ns: u64) {
        self.vtime += ns;
        self.counters.compute_ns += ns;
    }

    fn read(&mut self, va: Va) -> u32 {
        self.read_impl(va, true)
    }

    fn read_spin(&mut self, va: Va) -> u32 {
        self.read_impl(va, false)
    }

    fn write(&mut self, va: Va, val: u32) {
        let idx = self.word_index(va);
        let line = self.line_of(idx);
        // Write-through: the word goes over the bus to memory; other
        // caches are invalidated by the version bump.
        self.machine.word(idx).store(val, Ordering::Release);
        let version = self.machine.bump_line_version(idx);
        if self.cache.resident(line) {
            self.cache.fill(line, version);
        }
        self.bus(BUS_WORD_SERVICE_NS, WRITE_NS);
        self.counters.remote_writes += 1;
    }

    fn fetch_add(&mut self, va: Va, delta: u32) -> u32 {
        let idx = self.word_index(va);
        self.bus(ATOMIC_NS, ATOMIC_NS);
        self.counters.remote_atomics += 1;
        let old = self.machine.word(idx).fetch_add(delta, Ordering::AcqRel);
        self.machine.bump_line_version(idx);
        old
    }

    fn compare_exchange(&mut self, va: Va, current: u32, new: u32) -> Result<u32, u32> {
        let idx = self.word_index(va);
        self.bus(ATOMIC_NS, ATOMIC_NS);
        self.counters.remote_atomics += 1;
        let r = self.machine.word(idx).compare_exchange(
            current,
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        if r.is_ok() {
            self.machine.bump_line_version(idx);
        }
        r
    }

    fn swap(&mut self, va: Va, val: u32) -> u32 {
        let idx = self.word_index(va);
        self.bus(ATOMIC_NS, ATOMIC_NS);
        self.counters.remote_atomics += 1;
        let old = self.machine.word(idx).swap(val, Ordering::AcqRel);
        self.machine.bump_line_version(idx);
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uma::UmaConfig;

    fn ctx() -> UmaCtx {
        let m = UmaMachine::new(UmaConfig {
            procs: 2,
            mem_words: 4096,
        })
        .unwrap();
        UmaCtx::new(m, 0)
    }

    #[test]
    fn read_miss_then_hit() {
        let mut c = ctx();
        c.write(0, 7);
        let t0 = c.vtime();
        assert_eq!(c.read(0), 7); // first read of the line: miss
        let t1 = c.vtime();
        assert_eq!(c.read(0), 7); // second: hit
        let t2 = c.vtime();
        assert!(t1 - t0 > t2 - t1, "miss must cost more than hit");
        assert_eq!(t2 - t1, 150);
    }

    #[test]
    fn own_write_keeps_line_hot() {
        let mut c = ctx();
        let _ = c.read(0); // fill the line
        c.write(0, 3); // own write-through updates own copy
        let before = c.vtime();
        assert_eq!(c.read(0), 3);
        assert_eq!(c.vtime() - before, 150, "still a hit after own write");
    }

    #[test]
    fn remote_write_invalidates() {
        let m = UmaMachine::new(UmaConfig {
            procs: 2,
            mem_words: 4096,
        })
        .unwrap();
        let mut a = UmaCtx::new(Arc::clone(&m), 0);
        let mut b = UmaCtx::new(Arc::clone(&m), 1);
        let _ = a.read(0);
        b.write(0, 42);
        let before = a.vtime();
        assert_eq!(a.read(0), 42, "must observe the remote write");
        assert!(
            a.vtime() - before > 150,
            "snooped-out line must miss, not hit"
        );
    }

    #[test]
    fn atomics_are_coherent() {
        let m = UmaMachine::new(UmaConfig {
            procs: 2,
            mem_words: 4096,
        })
        .unwrap();
        let mut a = UmaCtx::new(Arc::clone(&m), 0);
        let mut b = UmaCtx::new(Arc::clone(&m), 1);
        assert_eq!(a.fetch_add(0, 1), 0);
        assert_eq!(b.fetch_add(0, 1), 1);
        assert_eq!(a.read(0), 2);
        assert_eq!(b.compare_exchange(0, 2, 5), Ok(2));
        assert_eq!(a.swap(0, 9), 5);
    }

    /// The Symmetry model A has no block-transfer engine: a block copy
    /// is the processor's own loop, a line fill per miss and one
    /// write-through per word, and a lone stream never queues behind
    /// itself.
    #[test]
    fn a_block_copy_costs_its_word_loop() {
        let fresh = || {
            let m = UmaMachine::new(UmaConfig {
                procs: 1,
                mem_words: 4096,
            })
            .unwrap();
            UmaCtx::new(m, 0)
        };
        for n in [64usize, 4096] {
            let data: Vec<u32> = (0..n as u32).map(|i| i * 3 + 1).collect();
            let (mut block, mut words) = (fresh(), fresh());

            block.write_block(0, &data);
            for (i, &w) in data.iter().enumerate() {
                words.write(4 * i as u64, w);
            }
            assert_eq!(block.vtime(), words.vtime(), "{n}-word write");
            assert_eq!(block.counters(), words.counters(), "{n}-word write");

            let mut out = vec![0u32; n];
            block.read_block(0, &mut out);
            assert_eq!(out, data);
            for (i, &w) in data.iter().enumerate() {
                assert_eq!(words.read(4 * i as u64), w);
            }
            assert_eq!(block.vtime(), words.vtime(), "{n}-word read");
            assert_eq!(block.counters(), words.counters(), "{n}-word read");
            assert_eq!(block.counters().queue_delay_ns, 0, "{n} words queued");

            // The copy leaves its last lines resident: the next read hits.
            let last = 4 * (n as u64 - 1);
            let (b0, w0) = (block.vtime(), words.vtime());
            let _ = (block.read(last), words.read(last));
            assert_eq!(block.vtime() - b0, HIT_NS);
            assert_eq!(words.vtime() - w0, HIT_NS);
        }
    }

    #[test]
    fn block_write_invalidates_other_caches() {
        let m = UmaMachine::new(UmaConfig {
            procs: 2,
            mem_words: 4096,
        })
        .unwrap();
        let mut a = UmaCtx::new(Arc::clone(&m), 0);
        let mut b = UmaCtx::new(Arc::clone(&m), 1);
        let _ = b.read(0);
        a.write_block(0, &[11, 22, 33]);
        assert_eq!(b.read(0), 11, "must observe the block write");
        let mut out = [0u32; 2];
        b.read_block(4, &mut out);
        assert_eq!(out, [22, 33]);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_panics() {
        let mut c = ctx();
        let _ = c.read(2);
    }

    #[test]
    #[should_panic(expected = "bus error")]
    fn out_of_range_panics() {
        let mut c = ctx();
        let _ = c.read(4096 * 4);
    }
}
