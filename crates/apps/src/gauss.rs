//! Gaussian elimination (§5.1 of the paper, Figure 1).
//!
//! "This particular problem was chosen because it was used in performance
//! studies of programming systems on earlier versions of the Butterfly.
//! It simulates Gaussian elimination in the sense that it uses integer
//! rather than floating-point operations, thus emphasizing the relative
//! impact of memory performance."
//!
//! Three implementations of the same computation, one per programming
//! system in LeBlanc's comparison:
//!
//! * [`run_shared`] — the PLATINUM style: one thread per processor,
//!   statically allocated rows, the pivot row read through transparent
//!   coherent memory (17 lines of elimination-phase code in the paper).
//!   Also serves as the static-placement baseline when the kernel runs
//!   the `NeverReplicate` policy.
//! * the Uniform System style — the same [`run_shared`] body over
//!   scatter-stored rows ([`init_scattered_rows`]) on a kernel running
//!   the `NeverReplicate` policy, so every reference to a row stored on
//!   another node crosses the switch, at every processor count.
//! * [`run_message_passing`] — the SMP style: private rows, the pivot row
//!   broadcast down a binomial tree of port messages.
//!
//! All variants compute bit-identical results (wrapping integer
//! arithmetic, elimination without pivoting), so cross-variant checksum
//! equality is a strong end-to-end test of the whole stack.
//!
//! [`Gauss`] is the program's one staging — zones, layout and phase
//! sequence on any [`Stage`] — and [`GaussAnecdote`] the §4.2 variant
//! of it; every runner, recorder, benchmark and test goes through them.

use std::sync::Arc;

use numa_machine::{Mem, Va};
use platinum::{Port, UserCtx};
use platinum_runtime::measure::RunStats;
use platinum_runtime::sim::Sim;
use platinum_runtime::sync::{Barrier, EventCount};
use platinum_runtime::zones::Zone;
use platinum_runtime::Stage;

/// Modelled computation per eliminated element, ns. On the 16.67 MHz
/// MC68020 an integer multiply alone takes ~2.6 us; with the subtract,
/// indexing, and loop overhead an eliminated element costs about 3 us of
/// CPU work.
pub const COMPUTE_NS_PER_ELEM: u64 = 3000;

/// Problem configuration.
#[derive(Clone, Debug)]
pub struct GaussConfig {
    /// Matrix dimension (the paper uses 800).
    pub n: usize,
    /// Seed for the initial matrix contents.
    pub seed: u64,
}

impl GaussConfig {
    /// The default configuration at matrix dimension `n` — the one way
    /// every harness and benchmark derives a sized problem, so the seed
    /// stays single-sourced here.
    pub fn with_n(n: usize) -> Self {
        Self {
            n,
            ..Default::default()
        }
    }
}

impl Default for GaussConfig {
    fn default() -> Self {
        Self {
            n: 800,
            seed: 0x5EED_1234,
        }
    }
}

/// The shared-memory layout: matrix rows are page-aligned (one or more
/// pages per row) so rows owned by different threads never share a page —
/// the §6 allocation discipline.
#[derive(Clone, Debug)]
pub struct GaussLayout {
    /// Base of row 0.
    pub matrix: Va,
    /// Distance between consecutive rows, in words.
    pub row_stride_words: usize,
    /// Matrix dimension.
    pub n: usize,
}

impl GaussLayout {
    /// Allocates the matrix from `zone`, one page-aligned region per row.
    pub fn alloc(zone: &mut Zone, n: usize, page_words: usize) -> Self {
        let stride = n.div_ceil(page_words) * page_words;
        let matrix = zone.alloc_page_aligned(stride * n);
        Self {
            matrix,
            row_stride_words: stride,
            n,
        }
    }

    /// The address of element (row, col).
    #[inline]
    pub fn elem(&self, row: usize, col: usize) -> Va {
        self.matrix + 4 * (row * self.row_stride_words + col) as u64
    }

    /// Pages a zone must hold so [`GaussLayout::alloc`] succeeds for an
    /// `n`×`n` matrix: the page-aligned rows plus alignment slop.
    pub fn zone_pages(n: usize, page_words: usize) -> usize {
        let stride = n.div_ceil(page_words) * page_words;
        (stride * n).div_ceil(page_words) + 2
    }
}

/// Deterministic initial value for element (i, j).
#[inline]
fn initial(seed: u64, i: usize, j: usize) -> i32 {
    let x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((i as u64) << 32 | j as u64)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    ((x >> 24) as i32) % 1000 + 1
}

/// Rows owned by `tid` of `p` (interleaved static allocation).
#[inline]
pub fn owns(tid: usize, p: usize, row: usize) -> bool {
    row % p == tid
}

/// Initializes the rows owned by `tid`: first touch places each row on
/// its owner's node.
pub fn init_owned_rows<M: Mem>(
    m: &mut M,
    lay: &GaussLayout,
    cfg: &GaussConfig,
    tid: usize,
    p: usize,
) {
    let mut buf = vec![0u32; lay.n];
    for row in (0..lay.n).filter(|r| owns(tid, p, *r)) {
        for (j, b) in buf.iter_mut().enumerate() {
            *b = initial(cfg.seed, row, j) as u32;
        }
        m.write_block(lay.elem(row, 0), &buf);
    }
}

/// The memory node the Uniform System's scatter storage places `row` on:
/// pseudo-random, decoupled from task ownership.
#[inline]
pub fn scatter_node(row: usize, nodes: usize) -> usize {
    ((row as u64).wrapping_mul(2654435761) >> 16) as usize % nodes
}

/// Initializes the rows that scatter storage places on `node` — the
/// Uniform System's storage discipline spreads data over the whole
/// machine regardless of which task will use it, so most references are
/// remote at any processor count.
pub fn init_scattered_rows<M: Mem>(
    m: &mut M,
    lay: &GaussLayout,
    cfg: &GaussConfig,
    node: usize,
    nodes: usize,
) {
    let mut buf = vec![0u32; lay.n];
    for row in (0..lay.n).filter(|r| scatter_node(*r, nodes) == node) {
        for (j, b) in buf.iter_mut().enumerate() {
            *b = initial(cfg.seed, row, j) as u32;
        }
        m.write_block(lay.elem(row, 0), &buf);
    }
}

/// One thread's elimination loop over shared coherent memory.
///
/// The pivot row for round `k` is ready once event count `ec` reaches
/// `k + 1`; the owner of row `k + 1` advances `ec` as soon as it has
/// updated that row, pipelining rounds exactly as the coarse-grain
/// implementation in the paper.
pub fn run_shared<M: Mem>(m: &mut M, lay: &GaussLayout, ec: &EventCount, tid: usize, p: usize) {
    let n = lay.n;
    let mut pivot = vec![0u32; n];
    let mut row_buf = vec![0u32; n];
    if tid == 0 {
        // Row 0 is final as soon as initialization finished.
        ec.advance(m);
    }
    for k in 0..n.saturating_sub(1) {
        ec.await_at_least(m, k as u32 + 1);
        let width = n - k;
        for i in (k + 1..n).filter(|r| owns(tid, p, *r)) {
            // Transparent style: the inner loop reads the pivot row from
            // coherent memory for every row it eliminates (the natural
            // `a[k][j]` indexing of the 17-line version). The first touch
            // faults and (policy permitting) replicates the page, after
            // which all these references are local.
            m.read_block(lay.elem(k, k), &mut pivot[..width]);
            m.read_block(lay.elem(i, k), &mut row_buf[..width]);
            eliminate(&mut row_buf[..width], &pivot[..width]);
            m.compute(COMPUTE_NS_PER_ELEM * width as u64);
            m.write_block(lay.elem(i, k), &row_buf[..width]);
            if i == k + 1 {
                ec.advance(m);
            }
        }
    }
}

/// The elimination kernel: `row -= factor * pivot`, wrapping integer
/// arithmetic (the "simulated" elimination of the paper — no pivoting, no
/// division).
#[inline]
fn eliminate(row: &mut [u32], pivot: &[u32]) {
    let factor = row[0] as i32;
    for (r, &pv) in row.iter_mut().zip(pivot.iter()) {
        *r = (*r as i32).wrapping_sub(factor.wrapping_mul(pv as i32)) as u32;
    }
}

/// The §4.2 anecdote: the same elimination loop, but with the paper's
/// two pathologies built in. A shared "matrix size" variable at
/// `msize_va` is read in the termination test of the inner loop (one
/// read per element), and a barrier is taken at the start of the
/// elimination phase. When the harness co-locates the barrier's words
/// with `msize_va` on one page, the barrier traffic freezes that page
/// and every inner-loop read becomes a remote reference — "this
/// dramatically increased the execution time and became a bottleneck
/// with five or more processors". Thawing (the defrost daemon) or
/// separated allocation recovers the performance.
pub fn run_shared_anecdote<M: Mem>(
    m: &mut M,
    lay: &GaussLayout,
    ec: &EventCount,
    tid: usize,
    p: usize,
    msize_va: Va,
    start: &Barrier,
) {
    // The spin-lock barrier at the start of the elimination phase.
    start.wait(m);
    let n = lay.n;
    let mut pivot = vec![0u32; n];
    let mut row_buf = vec![0u32; n];
    if tid == 0 {
        ec.advance(m);
    }
    for k in 0..n.saturating_sub(1) {
        ec.await_at_least(m, k as u32 + 1);
        let width = n - k;
        m.read_block(lay.elem(k, k), &mut pivot[..width]);
        for i in (k + 1..n).filter(|r| owns(tid, p, *r)) {
            m.read_block(lay.elem(i, k), &mut row_buf[..width]);
            // The inner loop's termination test reads the shared matrix
            // size once per element.
            let mut j = 0;
            while j < width {
                let _n_now = m.read(msize_va);
                j += 1;
            }
            eliminate(&mut row_buf[..width], &pivot[..width]);
            m.compute(COMPUTE_NS_PER_ELEM * width as u64);
            m.write_block(lay.elem(i, k), &row_buf[..width]);
            if i == k + 1 {
                ec.advance(m);
            }
        }
    }
}

/// The SMP-style message-passing implementation: each thread keeps its
/// rows in pages nobody else ever touches, and the pivot row travels by
/// port messages down a binomial broadcast tree rooted at the owner.
///
/// `ports[t]` is thread `t`'s receive port.
pub fn run_message_passing(
    ctx: &mut UserCtx,
    lay: &GaussLayout,
    ports: &[Arc<Port>],
    tid: usize,
    p: usize,
) {
    let n = lay.n;
    let mut pivot = vec![0u32; n];
    let mut row_buf = vec![0u32; n];
    // Messages are tagged with their round (word 0) because broadcast
    // trees of adjacent rounds overlap in time: a fast sender's round
    // k+1 message can reach a port before a slow parent's round k
    // message. Early arrivals are stashed until their round comes up.
    let mut stash: std::collections::HashMap<u32, Vec<u32>> = std::collections::HashMap::new();
    for k in 0..n.saturating_sub(1) {
        let width = n - k;
        let owner = k % p;
        if tid == owner {
            ctx.read_block(lay.elem(k, k), &mut pivot[..width]);
        } else {
            let body = match stash.remove(&(k as u32)) {
                Some(body) => body,
                None => loop {
                    let msg = ctx.port_recv(&ports[tid]);
                    let round = msg[0];
                    let body = msg[1..].to_vec();
                    if round == k as u32 {
                        break body;
                    }
                    stash.insert(round, body);
                },
            };
            pivot[..width].copy_from_slice(&body);
        }
        // Binomial-tree forwarding: rank relative to the owner; rank r
        // forwards to r + 2^j for each 2^j > r.
        let rank = (tid + p - owner) % p;
        let mut step = 1usize;
        while step < p {
            if rank < step && rank + step < p {
                let dest = (owner + rank + step) % p;
                let mut msg = Vec::with_capacity(width + 1);
                msg.push(k as u32);
                msg.extend_from_slice(&pivot[..width]);
                ctx.port_send(&ports[dest], &msg);
            }
            step <<= 1;
        }
        for i in (k + 1..n).filter(|r| owns(tid, p, *r)) {
            ctx.read_block(lay.elem(i, k), &mut row_buf[..width]);
            eliminate(&mut row_buf[..width], &pivot[..width]);
            ctx.compute(COMPUTE_NS_PER_ELEM * width as u64);
            ctx.write_block(lay.elem(i, k), &row_buf[..width]);
        }
    }
}

/// Checksum of the eliminated matrix (wrapping sum of all words): equal
/// across processor counts and across the three variants.
pub fn checksum<M: Mem>(m: &mut M, lay: &GaussLayout) -> u64 {
    let mut buf = vec![0u32; lay.n];
    let mut sum = 0u64;
    for row in 0..lay.n {
        m.read_block(lay.elem(row, 0), &mut buf);
        for &w in &buf {
            sum = sum.wrapping_mul(31).wrapping_add(u64::from(w));
        }
    }
    sum
}

/// Shared-memory Gaussian elimination staged on a machine: its zones
/// and its phases, in the order every runner sequences them. The stage
/// is booted by the caller and stays the caller's, so one staging
/// serves live and recorded runs, fault soaks, profiled sweeps and tests
/// that read the machine afterwards.
pub struct Gauss<'a> {
    cfg: &'a GaussConfig,
    p: usize,
    lay: GaussLayout,
    ec: EventCount,
}

/// Allocates the matrix zone and lays the matrix out in it.
fn stage_matrix<S: Stage>(stage: &mut S, n: usize) -> GaussLayout {
    let page_words = stage.page_words();
    let mut data = stage.alloc_zone(GaussLayout::zone_pages(n, page_words));
    GaussLayout::alloc(&mut data, n, page_words)
}

impl<'a> Gauss<'a> {
    /// Allocates the matrix in one zone and the event count in another
    /// (§6: synchronization words never share a page with data).
    pub fn stage<S: Stage>(stage: &mut S, cfg: &'a GaussConfig, p: usize) -> Self {
        let lay = stage_matrix(stage, cfg.n);
        let ec = EventCount::new(stage.alloc_zone(1).alloc_words(1));
        Self { cfg, p, lay, ec }
    }

    /// Initialization decides data placement: owners first-touch their
    /// rows.
    pub fn init<S: Stage>(&self, stage: &mut S) {
        stage.phase("init", self.p, |tid, ctx| {
            init_owned_rows(ctx, &self.lay, self.cfg, tid, self.p)
        });
    }

    /// The Uniform System's initialization instead: its storage
    /// discipline scatters rows over all `nodes` memories of the
    /// machine, whichever processors will run.
    pub fn init_scattered<S: Stage>(&self, stage: &mut S, nodes: usize) {
        stage.phase("init", nodes, |node, ctx| {
            init_scattered_rows(ctx, &self.lay, self.cfg, node, nodes)
        });
    }

    /// The measured pass: the elimination phase, as in LeBlanc's studies.
    pub fn measured<S: Stage>(&self, stage: &mut S) -> RunStats {
        let (_, run) = stage.phase("measured", self.p, |tid, ctx| {
            run_shared(ctx, &self.lay, &self.ec, tid, self.p)
        });
        run
    }

    /// The measured pass in the SMP style. Ports are kernel objects
    /// outside the [`Mem`] seam, so this runs on a [`Sim`] only.
    pub fn measured_message_passing(&self, sim: &Sim) -> RunStats {
        let ports: Vec<Arc<Port>> = (0..self.p).map(|_| sim.kernel.create_port()).collect();
        let (_, run) = sim.run(self.p, |tid, ctx| {
            run_message_passing(ctx, &self.lay, &ports, tid, self.p)
        });
        run
    }

    /// Folds the eliminated matrix from one processor ([`checksum`]).
    pub fn checksum<S: Stage>(&self, stage: &mut S) -> u64 {
        let (sums, _) = stage.phase("verify", 1, |_, ctx| checksum(ctx, &self.lay));
        sums[0]
    }
}

/// The §4.2 anecdote staged on a machine: [`Gauss`] plus the shared
/// matrix-size variable and the start barrier of
/// [`run_shared_anecdote`].
pub struct GaussAnecdote<'a> {
    gauss: Gauss<'a>,
    msize_va: Va,
    start: Barrier,
}

impl<'a> GaussAnecdote<'a> {
    /// With `colocated` the barrier words share a page with the
    /// matrix-size variable (the paper's original, accidental layout);
    /// without, they live in separate zones (the fixed layout).
    pub fn stage<S: Stage>(stage: &mut S, cfg: &'a GaussConfig, p: usize, colocated: bool) -> Self {
        let lay = stage_matrix(stage, cfg.n);
        let mut sync = stage.alloc_zone(2);
        let ec = EventCount::new(sync.alloc_page_aligned(1));
        let (msize_va, start) = if colocated {
            let base = sync.alloc_page_aligned(3);
            (base, Barrier::new(base + 4, base + 8, p as u32))
        } else {
            let msize = stage.alloc_zone(2).alloc_page_aligned(1);
            let b = sync.alloc_page_aligned(2);
            (msize, Barrier::new(b, b + 4, p as u32))
        };
        Self {
            gauss: Gauss { cfg, p, lay, ec },
            msize_va,
            start,
        }
    }

    /// [`Gauss::init`], with processor 0 also publishing the matrix size.
    pub fn init<S: Stage>(&self, stage: &mut S) {
        let g = &self.gauss;
        stage.phase("init", g.p, |tid, ctx| {
            if tid == 0 {
                ctx.write(self.msize_va, g.cfg.n as u32);
            }
            init_owned_rows(ctx, &g.lay, g.cfg, tid, g.p)
        });
    }

    /// The measured pass: [`run_shared_anecdote`].
    pub fn measured<S: Stage>(&self, stage: &mut S) -> RunStats {
        let (g, msize_va, start) = (&self.gauss, self.msize_va, &self.start);
        let (_, run) = stage.phase("measured", g.p, |tid, ctx| {
            run_shared_anecdote(ctx, &g.lay, &g.ec, tid, g.p, msize_va, start)
        });
        run
    }

    /// [`Gauss::checksum`].
    pub fn checksum<S: Stage>(&self, stage: &mut S) -> u64 {
        self.gauss.checksum(stage)
    }
}

/// Reference single-threaded elimination on host memory, for oracle
/// checks in tests.
pub fn reference_checksum(cfg: &GaussConfig) -> u64 {
    let n = cfg.n;
    let mut a: Vec<Vec<i32>> = (0..n)
        .map(|i| (0..n).map(|j| initial(cfg.seed, i, j)).collect())
        .collect();
    for k in 0..n.saturating_sub(1) {
        let (rows_k, rows_i) = a.split_at_mut(k + 1);
        let pivot = &rows_k[k][k..];
        for row in rows_i {
            let factor = row[k];
            for (r, &pv) in row[k..].iter_mut().zip(pivot) {
                *r = r.wrapping_sub(factor.wrapping_mul(pv));
            }
        }
    }
    let mut sum = 0u64;
    for row in &a {
        for &v in row {
            sum = sum.wrapping_mul(31).wrapping_add(u64::from(v as u32));
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ownership_is_partition() {
        let p = 4;
        for row in 0..100 {
            let owners: Vec<usize> = (0..p).filter(|t| owns(*t, p, row)).collect();
            assert_eq!(owners.len(), 1, "each row has exactly one owner");
        }
    }

    #[test]
    fn initial_values_deterministic_and_nonzero() {
        assert_eq!(initial(1, 2, 3), initial(1, 2, 3));
        assert_ne!(initial(1, 2, 3), initial(1, 3, 2));
        for i in 0..50 {
            for j in 0..50 {
                let v = initial(42, i, j);
                assert!((-999..=1000).contains(&v));
            }
        }
    }

    #[test]
    fn eliminate_kernel_matches_reference() {
        let mut row = [10u32, 20, 30];
        let pivot = [2u32, 3, 4];
        eliminate(&mut row, &pivot);
        // factor = 10: row[j] -= 10 * pivot[j]
        assert_eq!(row[0] as i32, 10 - 10 * 2);
        assert_eq!(row[1] as i32, 20 - 10 * 3);
        assert_eq!(row[2] as i32, 30 - 10 * 4);
    }

    #[test]
    fn layout_rows_are_page_disjoint() {
        let mut zone = Zone::new(0x10000, 1 << 20, 1024);
        let lay = GaussLayout::alloc(&mut zone, 100, 1024);
        // 100 columns fit one 1024-word page; stride is a whole page.
        assert_eq!(lay.row_stride_words, 1024);
        let page = |va: Va| va / 4096;
        assert_ne!(page(lay.elem(0, 99)), page(lay.elem(1, 0)));
    }

    #[test]
    fn reference_checksum_stable() {
        let cfg = GaussConfig {
            n: 24,
            ..Default::default()
        };
        let a = reference_checksum(&cfg);
        let b = reference_checksum(&cfg);
        assert_eq!(a, b);
        let other = reference_checksum(&GaussConfig { n: 24, seed: 1 });
        assert_ne!(a, other);
        // The perf ledger's seed-1 `paper_apps` input.
        let ledger = GaussConfig {
            seed: 1 ^ 0x6A55,
            ..GaussConfig::with_n(256)
        };
        assert_eq!(reference_checksum(&ledger), 0xeb7d_211b_b64d_b493);
    }
}
