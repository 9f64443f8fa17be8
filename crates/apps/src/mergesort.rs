//! Parallel merge sort (§5.2 of the paper, Figure 5).
//!
//! "A parallel merge sort using a simple tree of merge operations, each
//! of which is performed by a single thread." Chosen for comparison with
//! Anderson's study on a Sequent Symmetry; the same code here runs on
//! PLATINUM and on the UMA comparator machine because it is generic over
//! [`Mem`].
//!
//! Phase 0: each of the `p` threads sorts its `n/p` segment in place.
//! Phase `l` (1..=log2 p): the low `p >> l` threads each merge two
//! adjacent sorted runs from the source array into the destination
//! array; arrays ping-pong between levels. During each merge "one half
//! of the data to be merged will already be in the merging processor's
//! local memory" and the linear access pattern touches all of each
//! replicated page — the properties the paper credits for PLATINUM's
//! good showing.
//!
//! [`Sort`] is the program's one staging — zones, layout and phase
//! sequence on any [`Stage`]: the kernel, a recording capture, or the
//! UMA comparator.

use numa_machine::{Mem, Va};
use platinum_runtime::measure::RunStats;
use platinum_runtime::sync::Barrier;
use platinum_runtime::zones::Zone;
use platinum_runtime::Stage;

/// Problem configuration.
#[derive(Clone, Debug)]
pub struct SortConfig {
    /// Number of 32-bit keys; must be a multiple of the thread count.
    pub n: usize,
    /// Modelled comparison/copy cost per output element during a merge.
    pub compute_ns_per_elem: u64,
    /// Modelled cost per comparison in the local sort phase.
    pub compute_ns_per_cmp: u64,
    /// Seed for the input permutation.
    pub seed: u64,
}

impl SortConfig {
    /// The default configuration at `n` keys — seed and compute model
    /// stay single-sourced in [`Default`].
    pub fn with_n(n: usize) -> Self {
        Self {
            n,
            ..Default::default()
        }
    }
}

impl Default for SortConfig {
    fn default() -> Self {
        Self {
            n: 1 << 18,
            compute_ns_per_elem: 4000,
            compute_ns_per_cmp: 2000,
            seed: 0xC0FF_EE11,
        }
    }
}

/// Shared layout: two full-size arrays (source and scratch) plus barrier
/// words, all page-separated.
#[derive(Clone, Debug)]
pub struct SortLayout {
    /// Array A (holds the input initially).
    pub a: Va,
    /// Array B (scratch).
    pub b: Va,
    /// Number of keys.
    pub n: usize,
}

impl SortLayout {
    /// Allocates both arrays page-aligned from `zone`.
    pub fn alloc(zone: &mut Zone, n: usize) -> Self {
        let a = zone.alloc_page_aligned(n);
        let b = zone.alloc_page_aligned(n);
        Self { a, b, n }
    }

    /// Pages a zone must hold so [`SortLayout::alloc`] succeeds for `n`
    /// keys: both arrays plus alignment slop — none where a page is one
    /// word (the UMA comparator), so there the arrays pack back to back.
    pub fn zone_pages(n: usize, page_words: usize) -> usize {
        let slop = if page_words > 1 { 4 } else { 0 };
        (2 * n).div_ceil(page_words) + slop
    }
}

/// Deterministic pseudo-random key `i` of the input.
#[inline]
fn key(seed: u64, i: usize) -> u32 {
    let x = (i as u64 ^ seed)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(31)
        .wrapping_mul(0x2545_F491_4F6C_DD1D);
    (x >> 32) as u32
}

/// Initializes thread `tid`'s segment of the input (first touch places it
/// locally).
pub fn init_segment<M: Mem>(m: &mut M, lay: &SortLayout, cfg: &SortConfig, tid: usize, p: usize) {
    let seg = lay.n / p;
    let base = tid * seg;
    let buf: Vec<u32> = (0..seg).map(|i| key(cfg.seed, base + i)).collect();
    m.write_block(lay.a + 4 * base as u64, &buf);
}

/// One thread's body: local sort, then the merge tree.
///
/// `p` must be a power of two and divide `lay.n`. All `p` threads must
/// call this with the same shared `barrier`.
pub fn run<M: Mem>(
    m: &mut M,
    lay: &SortLayout,
    cfg: &SortConfig,
    barrier: &Barrier,
    tid: usize,
    p: usize,
) {
    assert!(p.is_power_of_two(), "thread count must be a power of two");
    assert!(lay.n.is_multiple_of(p), "n must divide evenly");
    let seg = lay.n / p;

    // Phase 0: sort own segment in place. A quicksort makes ~log2(seg)
    // streaming passes over the data; each pass re-reads and re-writes
    // the whole segment. On PLATINUM the segment is local memory; on a
    // machine whose cache is far smaller than the segment every pass
    // misses again and the writes go through the bus — "the problem is
    // large enough that none of the data will remain in the Sequent
    // cache between merge phases" (§5.2), and within the sort phase too.
    let base = tid * seg;
    let seg_va = lay.a + 4 * base as u64;
    let mut buf = vec![0u32; seg];
    let passes = (seg as f64).log2().ceil().max(1.0) as u32;
    for pass in 0..passes {
        m.read_block(seg_va, &mut buf);
        if pass == passes - 1 {
            // The values only matter at the end; the earlier passes model
            // the traffic of the partial partitioning steps.
            buf.sort_unstable();
        }
        m.compute(cfg.compute_ns_per_cmp * seg as u64);
        m.write_block(seg_va, &buf);
    }
    barrier.wait(m);

    // Merge tree: at level l the *owner of the left run* performs each
    // merge (threads 0, 2, 4, ... at level 1; 0, 4, 8, ... at level 2),
    // so "one half of the data to be merged will already be in the
    // merging processor's local memory" (§5.2).
    let levels = p.trailing_zeros();
    let mut src = lay.a;
    let mut dst = lay.b;
    for l in 1..=levels {
        let stride = 1usize << l;
        if tid.is_multiple_of(stride) {
            let run = seg << (l - 1);
            let left = tid * seg;
            merge_runs(m, cfg, src, dst, left, run);
        }
        barrier.wait(m);
        std::mem::swap(&mut src, &mut dst);
    }
}

/// Merges `src[left..left+run]` and `src[left+run..left+2run]` into
/// `dst[left..left+2run]`, streaming through chunk buffers so the access
/// pattern (and therefore the paging/caching behaviour) is the linear
/// scan of a real merge.
fn merge_runs<M: Mem>(m: &mut M, cfg: &SortConfig, src: Va, dst: Va, left: usize, run: usize) {
    const CHUNK: usize = 256;
    let mut a_buf = [0u32; CHUNK];
    let mut b_buf = [0u32; CHUNK];
    let mut out = Vec::with_capacity(CHUNK * 2);

    let (mut ai, mut bi) = (0usize, 0usize); // consumed from each run
    let (mut a_len, mut b_len) = (0usize, 0usize);
    let (mut a_pos, mut b_pos) = (0usize, 0usize); // cursor within buffers
    let mut written = 0usize;

    while written < 2 * run {
        if a_pos == a_len && ai < run {
            a_len = CHUNK.min(run - ai);
            m.read_block(src + 4 * (left + ai) as u64, &mut a_buf[..a_len]);
            a_pos = 0;
        }
        if b_pos == b_len && bi < run {
            b_len = CHUNK.min(run - bi);
            m.read_block(src + 4 * (left + run + bi) as u64, &mut b_buf[..b_len]);
            b_pos = 0;
        }
        out.clear();
        // Merge from the buffered chunks until one drains.
        loop {
            let a_avail = a_pos < a_len;
            let b_avail = b_pos < b_len;
            if a_avail && b_avail {
                if a_buf[a_pos] <= b_buf[b_pos] {
                    out.push(a_buf[a_pos]);
                    a_pos += 1;
                    ai += 1;
                } else {
                    out.push(b_buf[b_pos]);
                    b_pos += 1;
                    bi += 1;
                }
            } else if a_avail && bi == run {
                out.push(a_buf[a_pos]);
                a_pos += 1;
                ai += 1;
            } else if b_avail && ai == run {
                out.push(b_buf[b_pos]);
                b_pos += 1;
                bi += 1;
            } else {
                break;
            }
        }
        m.compute(cfg.compute_ns_per_elem * out.len() as u64);
        m.write_block(dst + 4 * (left + written) as u64, &out);
        written += out.len();
    }
}

/// Where the sorted output lives after `run` with `p` threads.
pub fn output_array(lay: &SortLayout, p: usize) -> Va {
    if p.trailing_zeros() % 2 == 1 {
        lay.b
    } else {
        lay.a
    }
}

/// Verifies the output is sorted and is a permutation (by XOR/sum
/// fingerprint) of the deterministic input. Returns an error description
/// on failure.
pub fn verify<M: Mem>(
    m: &mut M,
    lay: &SortLayout,
    cfg: &SortConfig,
    p: usize,
) -> Result<(), String> {
    let out = output_array(lay, p);
    let mut buf = vec![0u32; lay.n];
    m.read_block(out, &mut buf);
    for w in buf.windows(2) {
        if w[0] > w[1] {
            return Err(format!("output not sorted: {} > {}", w[0], w[1]));
        }
    }
    let (mut xor, mut sum) = (0u32, 0u64);
    let (mut exor, mut esum) = (0u32, 0u64);
    for (i, &v) in buf.iter().enumerate() {
        xor ^= v;
        sum = sum.wrapping_add(u64::from(v));
        let e = key(cfg.seed, i);
        exor ^= e;
        esum = esum.wrapping_add(u64::from(e));
    }
    if xor != exor || sum != esum {
        return Err("output is not a permutation of the input".to_string());
    }
    Ok(())
}

/// The merge sort staged on a machine: the array zone, the barrier
/// zone, and the phases in the order every runner sequences them —
/// [`Sort::init`], [`Sort::measured`], [`Sort::verify`]. The stage is
/// booted by the caller and stays the caller's.
pub struct Sort<'a> {
    cfg: &'a SortConfig,
    p: usize,
    lay: SortLayout,
    barrier: Barrier,
}

impl<'a> Sort<'a> {
    /// Allocates both arrays in one zone and the barrier's two words in
    /// another (§6: synchronization words never share a page with data).
    pub fn stage<S: Stage>(stage: &mut S, cfg: &'a SortConfig, p: usize) -> Self {
        let page_words = stage.page_words();
        let mut data = stage.alloc_zone(SortLayout::zone_pages(cfg.n, page_words));
        let lay = SortLayout::alloc(&mut data, cfg.n);
        let mut sync = stage.alloc_zone(2usize.div_ceil(page_words));
        let barrier = Barrier::new(sync.alloc_words(1), sync.alloc_words(1), p as u32);
        Self {
            cfg,
            p,
            lay,
            barrier,
        }
    }

    /// Every thread writes its own segment of the input (first touch
    /// places it locally).
    pub fn init<S: Stage>(&self, stage: &mut S) {
        stage.phase("init", self.p, |tid, ctx| {
            init_segment(ctx, &self.lay, self.cfg, tid, self.p)
        });
    }

    /// The measured pass: local sorts, then the merge tree.
    pub fn measured<S: Stage>(&self, stage: &mut S) -> RunStats {
        let (_, stats) = stage.phase("measured", self.p, |tid, ctx| {
            run(ctx, &self.lay, self.cfg, &self.barrier, tid, self.p)
        });
        stats
    }

    /// Reads the output back from one processor and checks it
    /// ([`verify`]).
    ///
    /// # Panics
    ///
    /// Panics if the output is not the sorted input.
    pub fn verify<S: Stage>(&self, stage: &mut S) {
        let (checks, _) = stage.phase("verify", 1, |_, ctx| {
            verify(ctx, &self.lay, self.cfg, self.p)
        });
        checks[0].as_ref().expect("merge sort output must verify");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_machine::mem_iface::test_support::FlatMem;
    use numa_machine::uma::{UmaConfig, UmaMachine};

    #[test]
    fn single_thread_sorts() {
        let mut m = FlatMem::new(0, 1);
        let mut zone = Zone::new(0x1000, 1 << 16, 1024);
        let cfg = SortConfig {
            n: 1024,
            ..Default::default()
        };
        let lay = SortLayout::alloc(&mut zone, cfg.n);
        let barrier = Barrier::new(zone.alloc_words(1), zone.alloc_words(1), 1);
        init_segment(&mut m, &lay, &cfg, 0, 1);
        run(&mut m, &lay, &cfg, &barrier, 0, 1);
        verify(&mut m, &lay, &cfg, 1).unwrap();
    }

    /// The comparator's cache model is address-sensitive, so its staged
    /// layout must be the hand-packed one: words 0, n, 2n and 2n + 1.
    #[test]
    fn uma_staging_packs_arrays_and_barrier_back_to_back() {
        let cfg = SortConfig::with_n(1000);
        let mut uma = UmaMachine::new(UmaConfig {
            procs: 2,
            mem_words: 4096,
        })
        .unwrap();
        let sort = Sort::stage(&mut uma, &cfg, 2);
        assert_eq!((sort.lay.a, sort.lay.b), (0, 4 * 1000));
        assert_eq!(sort.barrier.va(), 4 * 2001, "generation word");
        assert_eq!(uma.alloc_words(1), 4 * 2002, "nothing else was reserved");
    }

    #[test]
    fn output_array_alternates_with_levels() {
        let lay = SortLayout {
            a: 0x1000,
            b: 0x2000,
            n: 64,
        };
        assert_eq!(output_array(&lay, 1), lay.a); // 0 levels
        assert_eq!(output_array(&lay, 2), lay.b); // 1 level
        assert_eq!(output_array(&lay, 4), lay.a); // 2 levels
        assert_eq!(output_array(&lay, 8), lay.b); // 3 levels
    }

    #[test]
    fn keys_are_deterministic() {
        assert_eq!(key(7, 3), key(7, 3));
        assert_ne!(key(7, 3), key(8, 3));
    }

    #[test]
    fn merge_runs_is_correct() {
        let mut m = FlatMem::new(0, 1);
        // Two sorted runs of 300 (crosses the 256 chunk size).
        let left: Vec<u32> = (0..300).map(|i| i * 2).collect();
        let right: Vec<u32> = (0..300).map(|i| i * 2 + 1).collect();
        m.write_block(0x1000, &left);
        m.write_block(0x1000 + 4 * 300, &right);
        let cfg = SortConfig::default();
        merge_runs(&mut m, &cfg, 0x1000, 0x8000, 0, 300);
        let mut out = vec![0u32; 600];
        m.read_block(0x8000, &mut out);
        let expect: Vec<u32> = (0..600).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn merge_runs_handles_skew() {
        let mut m = FlatMem::new(0, 1);
        // All of run A smaller than all of run B.
        let left: Vec<u32> = (0..64).collect();
        let right: Vec<u32> = (1000..1064).collect();
        m.write_block(0x1000, &left);
        m.write_block(0x1000 + 4 * 64, &right);
        let cfg = SortConfig::default();
        merge_runs(&mut m, &cfg, 0x1000, 0x8000, 0, 64);
        let mut out = vec![0u32; 128];
        m.read_block(0x8000, &mut out);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(out[0], 0);
        assert_eq!(out[127], 1063);
    }
}
