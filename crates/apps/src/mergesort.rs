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
//! sequence on any [`Stage`]: the kernel or the UMA comparator.

use std::ops::Range;

use numa_machine::{Mem, Va};
use platinum_runtime::measure::RunStats;
use platinum_runtime::sync::Barrier;
use platinum_runtime::zones::Zone;
use platinum_runtime::{Stage, Step};

/// Modelled comparison/copy cost per output element during a merge, ns.
pub(crate) const MERGE_NS_PER_ELEM: u64 = 4000;
/// Modelled cost per comparison in the local sort phase, ns.
pub(crate) const SORT_NS_PER_CMP: u64 = 2000;

/// Problem configuration.
#[derive(Clone, Debug)]
pub struct SortConfig {
    /// Number of 32-bit keys; must be a multiple of the thread count.
    pub n: usize,
    /// Seed for the input permutation.
    pub seed: u64,
}

impl SortConfig {
    /// The default configuration at `n` keys — the seed stays
    /// single-sourced in [`Default`].
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
            seed: 0xC0FF_EE11,
        }
    }
}

/// Shared layout: two full-size arrays (source and scratch) plus barrier
/// words, all page-separated.
#[derive(Clone, Debug)]
pub(crate) struct SortLayout {
    /// Array A (holds the input initially).
    pub a: Va,
    /// Array B (scratch).
    pub b: Va,
    /// Number of keys.
    pub n: usize,
}

impl SortLayout {
    /// Allocates both arrays page-aligned from `zone`.
    pub(crate) fn alloc(zone: &mut Zone, n: usize) -> Self {
        let a = zone.alloc_page_aligned(n);
        let b = zone.alloc_page_aligned(n);
        Self { a, b, n }
    }

    /// Pages a zone must hold so [`SortLayout::alloc`] succeeds for `n`
    /// keys: both arrays plus alignment slop — none where a page is one
    /// word (the UMA comparator), so there the arrays pack back to back.
    pub(crate) fn zone_pages(n: usize, page_words: usize) -> usize {
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

/// The ranges of a `words`-word block transfer at `va` that one step
/// moves: [`CHUNK`]-key pieces, or whole pages where a page is larger
/// (so a paged machine translates each page once, as one transfer
/// would), cut at those boundaries of the address space.
fn chunks(va: Va, words: usize, page_words: usize) -> impl Iterator<Item = Range<usize>> {
    let unit = CHUNK.max(page_words);
    let first = (va / 4) as usize;
    let mut at = 0;
    std::iter::from_fn(move || {
        let start = at;
        at = words.min(at + unit - (first + at) % unit);
        (start < words).then_some(start..at)
    })
}

/// Initializes thread `tid`'s segment of the input, a chunk per step
/// (first touch places it locally).
pub(crate) fn init_segment<'a, M: Mem>(
    lay: &'a SortLayout,
    cfg: &'a SortConfig,
    tid: usize,
    p: usize,
    page_words: usize,
) -> impl FnMut(&mut M) -> Step<'a> + 'a {
    let seg = lay.n / p;
    let base = tid * seg;
    let buf: Vec<u32> = (0..seg).map(|i| key(cfg.seed, base + i)).collect();
    let va = lay.a + 4 * base as u64;
    let mut chunks = chunks(va, seg, page_words);
    move |m| match chunks.next() {
        Some(r) => {
            m.write_block(va + 4 * r.start as u64, &buf[r]);
            Step::Ready
        }
        None => Step::Done,
    }
}

/// A step of the local sort.
enum Local {
    /// Read a chunk of the segment.
    Read(Range<usize>),
    /// Charge a pass's comparisons; the last pass also sorts.
    Compute(bool),
    /// Write a chunk of the segment back.
    Write(Range<usize>),
}

/// One thread's body, as steps: local sort, then the merge tree.
///
/// `p` must be a power of two and divide `lay.n`. All `p` threads must
/// run this with the same shared `barrier`. A local-sort pass reads its
/// segment a chunk per step, charges its comparisons, and writes the
/// segment back a chunk per step; a merge fills and merges one chunk,
/// then writes it, one step each.
pub(crate) fn run<'a, M: Mem>(
    lay: &'a SortLayout,
    barrier: &'a Barrier,
    tid: usize,
    p: usize,
    page_words: usize,
) -> impl FnMut(&mut M) -> Step<'a> + 'a {
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
    let seg_va = lay.a + 4 * (tid * seg) as u64;
    let mut buf = vec![0u32; seg];
    let passes = (seg as f64).log2().ceil().max(1.0) as u32;
    let mut local = (0..passes).flat_map(move |pass| {
        let io = move || chunks(seg_va, seg, page_words);
        // The values only matter at the end; the earlier passes model the
        // traffic of the partial partitioning steps.
        io().map(Local::Read)
            .chain(std::iter::once(Local::Compute(pass + 1 == passes)))
            .chain(io().map(Local::Write))
    });
    // Merge tree: at level l the *owner of the left run* performs each
    // merge (threads 0, 2, 4, ... at level 1; 0, 4, 8, ... at level 2),
    // so "one half of the data to be merged will already be in the
    // merging processor's local memory" (§5.2).
    let levels = p.trailing_zeros();
    let (mut sorted, mut level) = (false, 0);
    let mut merging = None;
    let (mut src, mut dst) = (lay.a, lay.b);
    move |m| {
        if let Some(step) = local.next() {
            match step {
                Local::Read(r) => m.read_block(seg_va + 4 * r.start as u64, &mut buf[r]),
                Local::Compute(last) => {
                    if last {
                        buf.sort_unstable();
                    }
                    m.compute(SORT_NS_PER_CMP * seg as u64);
                }
                Local::Write(r) => m.write_block(seg_va + 4 * r.start as u64, &buf[r]),
            }
            return Step::Ready;
        }
        if merging.is_none() {
            if !std::mem::replace(&mut sorted, true) {
                return barrier.arrive(m).into();
            }
            if level == levels {
                return Step::Done;
            }
            level += 1;
            if tid.is_multiple_of(1 << level) {
                merging = Some(merge(src, dst, tid * seg, seg << (level - 1)));
                return Step::Ready;
            }
        } else if merging.as_mut().is_some_and(|step| !step(m)) {
            return Step::Ready;
        }
        merging = None;
        std::mem::swap(&mut src, &mut dst);
        barrier.arrive(m).into()
    }
}

/// Keys a merge reads from each run at a time.
const CHUNK: usize = 256;

/// Merges `src[left..left+run]` and `src[left+run..left+2run]` into
/// `dst[left..left+2run]`, streaming through chunk buffers so the access
/// pattern (and therefore the paging/caching behaviour) is the linear
/// scan of a real merge. Each call is one step — refill a drained buffer
/// and merge until one drains, or write the merged chunk — and returns
/// true once the merge is complete.
fn merge(src: Va, dst: Va, left: usize, run: usize) -> impl FnMut(&mut dyn Mem) -> bool {
    let (mut a_buf, mut b_buf) = ([0u32; CHUNK], [0u32; CHUNK]);
    let mut out = Vec::with_capacity(CHUNK * 2);
    let (mut ai, mut bi) = (0usize, 0usize); // consumed from each run
    let (mut a_len, mut b_len) = (0usize, 0usize);
    let (mut a_pos, mut b_pos) = (0usize, 0usize); // cursor within buffers
    let (mut written, mut full) = (0usize, false);
    move |m| {
        if std::mem::take(&mut full) {
            m.write_block(dst + 4 * (left + written) as u64, &out);
            written += out.len();
            return written == 2 * run;
        }
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
        m.compute(MERGE_NS_PER_ELEM * out.len() as u64);
        full = true;
        false
    }
}

/// Where the sorted output lives after `run` with `p` threads.
pub(crate) fn output_array(lay: &SortLayout, p: usize) -> Va {
    if p.trailing_zeros() % 2 == 1 {
        lay.b
    } else {
        lay.a
    }
}

/// Verifies the output is sorted and is a permutation (by XOR/sum
/// fingerprint) of the deterministic input. Returns an error description
/// on failure.
pub(crate) fn verify<M: Mem>(
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
    page_words: usize,
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
            page_words,
        }
    }

    /// Every thread writes its own segment of the input (first touch
    /// places it locally).
    pub fn init<S: Stage>(&self, stage: &mut S) {
        stage.steps("init", self.p, |tid| {
            init_segment(&self.lay, self.cfg, tid, self.p, self.page_words)
        });
    }

    /// The measured pass: local sorts, then the merge tree.
    pub fn measured<S: Stage>(&self, stage: &mut S) -> RunStats {
        stage.steps("measured", self.p, |tid| {
            run(&self.lay, &self.barrier, tid, self.p, self.page_words)
        })
    }

    /// Reads the output back from one processor and checks it
    /// (`verify`).
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
    use crate::run_alone;
    use numa_machine::mem_iface::test_support::FlatMem;
    use numa_machine::uma::{UmaConfig, UmaMachine};

    /// Runs a whole merge on one context.
    fn merge_runs(m: &mut dyn Mem, src: Va, dst: Va, left: usize, run: usize) {
        let mut step = merge(src, dst, left, run);
        while !step(m) {}
    }

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
        run_alone(&mut m, init_segment(&lay, &cfg, 0, 1, 1024));
        run_alone(&mut m, run(&lay, &barrier, 0, 1, 1024));
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
        merge_runs(&mut m, 0x1000, 0x8000, 0, 300);
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
        merge_runs(&mut m, 0x1000, 0x8000, 0, 64);
        let mut out = vec![0u32; 128];
        m.read_block(0x8000, &mut out);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(out[0], 0);
        assert_eq!(out[127], 1063);
    }
}
