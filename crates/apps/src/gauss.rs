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
//! * `run_shared` — the PLATINUM style: one thread per processor,
//!   statically allocated rows, the pivot row read through transparent
//!   coherent memory (17 lines of elimination-phase code in the paper).
//!   Also serves as the static-placement baseline when the kernel runs
//!   the `NeverReplicate` policy.
//! * the Uniform System style — the same `run_shared` body over
//!   scatter-stored rows (`Gauss::init_scattered`) on a kernel running
//!   the `NeverReplicate` policy, so every reference to a row stored on
//!   another node crosses the switch, at every processor count.
//! * `run_message_passing` — the SMP style: private rows, the pivot row
//!   broadcast down a binomial tree of port messages.
//!
//! All variants compute bit-identical results (wrapping integer
//! arithmetic, elimination without pivoting), so cross-variant checksum
//! equality is a strong end-to-end test of the whole stack.
//!
//! [`Gauss`] is the program's one staging — zones, layout and phase
//! sequence on any [`Stage`] — and `GaussAnecdote` the §4.2 variant
//! of it; every runner, experiment and test goes through them.

use std::sync::Arc;

use numa_machine::{Mem, Va};
use platinum::{Port, UserCtx};
use platinum_runtime::measure::RunStats;
use platinum_runtime::sim::Sim;
use platinum_runtime::sync::{Barrier, EventCount};
use platinum_runtime::zones::Zone;
use platinum_runtime::{Stage, Step, Wait};

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
pub(crate) struct GaussLayout {
    /// Base of row 0.
    pub matrix: Va,
    /// Distance between consecutive rows, in words.
    pub row_stride_words: usize,
    /// Matrix dimension.
    pub n: usize,
}

impl GaussLayout {
    /// Allocates the matrix from `zone`, one page-aligned region per row.
    pub(crate) fn alloc(zone: &mut Zone, n: usize, page_words: usize) -> Self {
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
    pub(crate) fn elem(&self, row: usize, col: usize) -> Va {
        self.matrix + 4 * (row * self.row_stride_words + col) as u64
    }

    /// Pages a zone must hold so [`GaussLayout::alloc`] succeeds for an
    /// `n`×`n` matrix: the page-aligned rows plus alignment slop.
    pub(crate) fn zone_pages(n: usize, page_words: usize) -> usize {
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
pub(crate) fn owns(tid: usize, p: usize, row: usize) -> bool {
    row % p == tid
}

/// The memory node the Uniform System's scatter storage places `row` on:
/// pseudo-random, decoupled from task ownership.
#[inline]
pub(crate) fn scatter_node(row: usize, nodes: usize) -> usize {
    ((row as u64).wrapping_mul(2654435761) >> 16) as usize % nodes
}

/// Initializes each row of `rows`, one per step: first touch places it
/// on the writer's node.
fn init_rows<'a, M: Mem>(
    lay: &'a GaussLayout,
    cfg: &'a GaussConfig,
    mut rows: impl Iterator<Item = usize> + 'a,
) -> impl FnMut(&mut M) -> Step<'a> + 'a {
    let mut buf = vec![0u32; lay.n];
    move |m| {
        let Some(row) = rows.next() else {
            return Step::Done;
        };
        for (j, b) in buf.iter_mut().enumerate() {
            *b = initial(cfg.seed, row, j) as u32;
        }
        m.write_block(lay.elem(row, 0), &buf);
        Step::Ready
    }
}

/// One step of a worker's elimination loop.
#[derive(Clone, Copy)]
#[cfg_attr(test, derive(Debug, PartialEq))]
enum Turn {
    /// Round `k` begins: pivot row `k` must be ready.
    Pivot(usize),
    /// The shared style's read of pivot row `k` for one row.
    Fetch(usize),
    /// Read row `i` for round `k`.
    Read(usize, usize),
    /// One iteration of the anecdote's inner loop: one read of the
    /// shared matrix size.
    Probe,
    /// Eliminate the row read last and charge its computation.
    Compute(usize),
    /// Write row `i` back for round `k`.
    Write(usize, usize),
}

/// Worker `tid`'s steps: each round's pivot, then its own rows below it,
/// each (its pivot fetched, with `fetch`) read, (probed `n - k` times,
/// with `probes`), computed and written.
///
/// A cursor over (round `k`, row `i`, position in the row's turns): the
/// next owned row is `i + p`, so a step costs a few compares, not a
/// walk through nested iterator adaptors.
struct Turns {
    n: usize,
    tid: usize,
    p: usize,
    fetch: bool,
    probes: bool,
    k: usize,
    /// The row being stepped; `k` itself while round `k`'s pivot is due.
    i: usize,
    /// Turns of row `i` already yielded.
    pos: usize,
}

fn turns(n: usize, tid: usize, p: usize, fetch: bool, probes: bool) -> Turns {
    Turns {
        n,
        tid,
        p,
        fetch,
        probes,
        k: 0,
        i: 0,
        pos: 0,
    }
}

impl Iterator for Turns {
    type Item = Turn;

    fn next(&mut self) -> Option<Turn> {
        if self.k + 1 >= self.n {
            return None;
        }
        if self.i >= self.n {
            // Round `k`'s rows are done: round `k + 1`'s pivot is due.
            self.k += 1;
            self.i = self.k;
            if self.k + 1 >= self.n {
                return None;
            }
        }
        let k = self.k;
        if self.i == k {
            // The first row below the pivot this worker owns.
            let first = k + 1;
            self.i = first + (self.tid + self.p - first % self.p) % self.p;
            self.pos = 0;
            return Some(Turn::Pivot(k));
        }
        let mut pos = self.pos;
        self.pos += 1;
        if self.fetch {
            if pos == 0 {
                return Some(Turn::Fetch(k));
            }
            pos -= 1;
        }
        let probes = if self.probes { self.n - k } else { 0 };
        Some(match pos {
            0 => Turn::Read(k, self.i),
            _ if pos <= probes => Turn::Probe,
            _ if pos == probes + 1 => Turn::Compute(k),
            _ => {
                let i = self.i;
                self.i += self.p;
                self.pos = 0;
                Turn::Write(k, i)
            }
        })
    }
}

/// The part of a row's elimination every style shares: read the row,
/// eliminate it against `pivot` and charge the computation, write it
/// back.
fn row_turn<M: Mem>(m: &mut M, lay: &GaussLayout, turn: Turn, pivot: &[u32], row: &mut [u32]) {
    match turn {
        Turn::Read(k, i) => m.read_block(lay.elem(i, k), &mut row[..lay.n - k]),
        Turn::Compute(k) => {
            let width = lay.n - k;
            eliminate(&mut row[..width], &pivot[..width]);
            m.compute(COMPUTE_NS_PER_ELEM * width as u64);
        }
        Turn::Write(k, i) => m.write_block(lay.elem(i, k), &row[..lay.n - k]),
        Turn::Pivot(_) | Turn::Fetch(_) | Turn::Probe => unreachable!("not a row step"),
    }
}

/// One thread's elimination loop over shared coherent memory, as steps.
///
/// The pivot row for round `k` is ready once event count `ec` reaches
/// `k + 1`; the owner of row `k + 1` advances `ec` as soon as it has
/// updated that row, pipelining rounds exactly as the coarse-grain
/// implementation in the paper.
///
/// With `anecdote = Some((msize_va, start))` this is the §4.2 anecdote:
/// the same loop with the paper's two pathologies built in. A shared
/// "matrix size" variable at `msize_va` is read in the termination test
/// of the inner loop (one read per element), and the barrier `start` is
/// taken at the start of the elimination phase. When the harness
/// co-locates the barrier's words with `msize_va` on one page, the
/// barrier traffic freezes that page and every inner-loop read becomes a
/// remote reference — "this dramatically increased the execution time
/// and became a bottleneck with five or more processors". Thawing (the
/// defrost daemon) or separated allocation recovers the performance.
pub(crate) fn run_shared<'a, M: Mem>(
    lay: &'a GaussLayout,
    ec: &'a EventCount,
    tid: usize,
    p: usize,
    anecdote: Option<(Va, &'a Barrier)>,
) -> impl FnMut(&mut M) -> Step<'a> + 'a {
    let n = lay.n;
    let mut pivot = vec![0u32; n];
    let mut row_buf = vec![0u32; n];
    let (mut arrive, mut first) = (anecdote.is_some(), tid == 0);
    // The anecdote reads each round's pivot row once, at the start of the
    // step after its wait.
    let mut pivot_due = None;
    let mut turns = turns(n, tid, p, anecdote.is_none(), anecdote.is_some());
    move |m| {
        if let (true, Some((_, start))) = (std::mem::take(&mut arrive), anecdote) {
            return start.arrive(m).into();
        }
        if std::mem::take(&mut first) {
            // Row 0 is final as soon as initialization finished.
            ec.advance(m);
        }
        if let Some(k) = pivot_due.take() {
            m.read_block(lay.elem(k, k), &mut pivot[..n - k]);
        }
        let turn = match turns.next() {
            None => return Step::Done,
            Some(Turn::Pivot(k)) => {
                pivot_due = anecdote.map(|_| k);
                return ec.reaching(k as u32 + 1).into();
            }
            // The inner loop's termination test reads the shared matrix
            // size once per element.
            Some(Turn::Probe) => {
                let (msize_va, _) = anecdote.expect("only the anecdote probes");
                let _n_now = m.read(msize_va);
                return Step::Ready;
            }
            // Transparent style: each row's elimination reads the pivot
            // row from coherent memory (the natural `a[k][j]` indexing of
            // the 17-line version). The first touch faults and (policy
            // permitting) replicates the page, after which all these
            // references are local.
            Some(Turn::Fetch(k)) => {
                m.read_block(lay.elem(k, k), &mut pivot[..n - k]);
                return Step::Ready;
            }
            Some(turn) => turn,
        };
        row_turn(m, lay, turn, &pivot, &mut row_buf);
        if let Turn::Write(k, i) = turn {
            if i == k + 1 {
                ec.advance(m);
            }
        }
        Step::Ready
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

/// The SMP-style message-passing implementation: each thread keeps its
/// rows in pages nobody else ever touches, and the pivot row travels by
/// port messages down a binomial broadcast tree rooted at the owner. A
/// receive that finds its port empty blocks in the kernel until a
/// message arrives.
///
/// `ports[t]` is thread `t`'s receive port.
pub(crate) fn run_message_passing<'a>(
    lay: &'a GaussLayout,
    ports: &'a [Arc<Port>],
    tid: usize,
    p: usize,
) -> impl FnMut(&mut UserCtx) -> Step<'a> + 'a {
    let n = lay.n;
    let mut pivot = vec![0u32; n];
    let mut row_buf = vec![0u32; n];
    // Messages are tagged with their round (word 0) because broadcast
    // trees of adjacent rounds overlap in time: a fast sender's round
    // k+1 message can reach a port before a slow parent's round k
    // message. Early arrivals are stashed until their round comes up.
    let mut stash: std::collections::HashMap<u32, Vec<u32>> = std::collections::HashMap::new();
    // The round whose pivot a blocked receive is waiting for.
    let mut receiving = None;
    let mut turns = turns(n, tid, p, false, false);
    move |ctx| {
        let k = match receiving.take().or_else(|| turns.next()) {
            None => return Step::Done,
            Some(Turn::Pivot(k)) => k,
            Some(turn) => {
                row_turn(ctx, lay, turn, &pivot, &mut row_buf);
                return Step::Ready;
            }
        };
        let width = n - k;
        let owner = k % p;
        if tid == owner {
            ctx.read_block(lay.elem(k, k), &mut pivot[..width]);
        } else {
            let body = match stash.remove(&(k as u32)) {
                Some(body) => body,
                None => loop {
                    let Some(msg) = ctx.port_recv_step(&ports[tid]) else {
                        receiving = Some(Turn::Pivot(k));
                        return Step::Wait(Wait::Port(&ports[tid]));
                    };
                    let body = msg[1..].to_vec();
                    if msg[0] == k as u32 {
                        break body;
                    }
                    stash.insert(msg[0], body);
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
        Step::Ready
    }
}

/// Checksum of the eliminated matrix (wrapping sum of all words): equal
/// across processor counts and across the three variants.
pub(crate) fn checksum<M: Mem>(m: &mut M, lay: &GaussLayout) -> u64 {
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
        let (n, p) = (self.lay.n, self.p);
        stage.steps("init", p, |tid| {
            init_rows(
                &self.lay,
                self.cfg,
                (0..n).filter(move |&r| owns(tid, p, r)),
            )
        });
    }

    /// The Uniform System's initialization instead: its storage
    /// discipline scatters rows over all `nodes` memories of the machine
    /// ([`scatter_node`]), whichever processors will run, so most
    /// references are remote at any processor count.
    pub(crate) fn init_scattered<S: Stage>(&self, stage: &mut S, nodes: usize) {
        let n = self.lay.n;
        stage.steps("init", nodes, |node| {
            let rows = (0..n).filter(move |&r| scatter_node(r, nodes) == node);
            init_rows(&self.lay, self.cfg, rows)
        });
    }

    /// The measured pass: the elimination phase, as in LeBlanc's studies.
    pub fn measured<S: Stage>(&self, stage: &mut S) -> RunStats {
        stage.steps("measured", self.p, |tid| {
            run_shared(&self.lay, &self.ec, tid, self.p, None)
        })
    }

    /// The measured pass in the SMP style. Ports are kernel objects
    /// outside the [`Mem`] seam, so this runs on a [`Sim`] only.
    pub(crate) fn measured_message_passing(&self, sim: &Sim) -> RunStats {
        let ports: Vec<Arc<Port>> = (0..self.p).map(|_| sim.kernel.create_port()).collect();
        sim.steps("measured", self.p, |tid| {
            run_message_passing(&self.lay, &ports, tid, self.p)
        })
    }

    /// Folds the eliminated matrix from one processor (`checksum`).
    pub fn checksum<S: Stage>(&self, stage: &mut S) -> u64 {
        let (sums, _) = stage.phase("verify", 1, |_, ctx| checksum(ctx, &self.lay));
        sums[0]
    }
}

/// The §4.2 anecdote staged on a machine: [`Gauss`] plus the shared
/// matrix-size variable and the start barrier of
/// [`run_shared`]'s anecdote.
pub(crate) struct GaussAnecdote<'a> {
    gauss: Gauss<'a>,
    msize_va: Va,
    start: Barrier,
}

impl<'a> GaussAnecdote<'a> {
    /// With `colocated` the barrier words share a page with the
    /// matrix-size variable (the paper's original, accidental layout);
    /// without, they live in separate zones (the fixed layout).
    pub(crate) fn stage<S: Stage>(
        stage: &mut S,
        cfg: &'a GaussConfig,
        p: usize,
        colocated: bool,
    ) -> Self {
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
    pub(crate) fn init<S: Stage>(&self, stage: &mut S) {
        let g = &self.gauss;
        stage.steps("init", g.p, |tid| {
            let p = g.p;
            let mut rows = init_rows(
                &g.lay,
                g.cfg,
                (0..g.lay.n).filter(move |&r| owns(tid, p, r)),
            );
            let mut publish = tid == 0;
            move |ctx: &mut S::Ctx| {
                if std::mem::take(&mut publish) {
                    ctx.write(self.msize_va, g.cfg.n as u32);
                }
                rows(ctx)
            }
        });
    }

    /// The measured pass: [`run_shared`] with the anecdote's pathologies.
    pub(crate) fn measured<S: Stage>(&self, stage: &mut S) -> RunStats {
        let (g, msize_va, start) = (&self.gauss, self.msize_va, &self.start);
        stage.steps("measured", g.p, |tid| {
            run_shared(&g.lay, &g.ec, tid, g.p, Some((msize_va, start)))
        })
    }

    /// [`Gauss::checksum`].
    pub(crate) fn checksum<S: Stage>(&self, stage: &mut S) -> u64 {
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

    /// The nested-adaptor form the cursor replaced, kept as its oracle.
    fn turns_oracle(
        n: usize,
        tid: usize,
        p: usize,
        fetch: bool,
        probes: bool,
    ) -> impl Iterator<Item = Turn> {
        (0..n.saturating_sub(1)).flat_map(move |k| {
            let probes = if probes { n - k } else { 0 };
            let rows = (k + 1..n)
                .filter(move |&i| owns(tid, p, i))
                .flat_map(move |i| {
                    fetch
                        .then_some(Turn::Fetch(k))
                        .into_iter()
                        .chain([Turn::Read(k, i)])
                        .chain(std::iter::repeat_n(Turn::Probe, probes))
                        .chain([Turn::Compute(k), Turn::Write(k, i)])
                });
            std::iter::once(Turn::Pivot(k)).chain(rows)
        })
    }

    #[test]
    fn turn_cursor_matches_the_adaptor_oracle() {
        for n in [0, 1, 2, 3, 17, 40] {
            for p in [1, 2, 3, 5, 16] {
                for tid in 0..p {
                    for (fetch, probes) in
                        [(false, false), (true, false), (false, true), (true, true)]
                    {
                        let mut cursor = turns(n, tid, p, fetch, probes);
                        let got: Vec<Turn> = cursor.by_ref().collect();
                        let want: Vec<Turn> = turns_oracle(n, tid, p, fetch, probes).collect();
                        assert_eq!(
                            got, want,
                            "n {n} p {p} tid {tid} fetch {fetch} probes {probes}"
                        );
                        assert_eq!(cursor.next(), None, "an exhausted cursor stays done");
                    }
                }
            }
        }
    }

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
