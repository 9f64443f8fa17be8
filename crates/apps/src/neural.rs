//! The recurrent-backpropagation network simulator (§5.3, Figure 6).
//!
//! "A simulator used by neural network researchers at the University of
//! Rochester studying recurrent backpropagation networks. ... the
//! simulator operates on much less data and at a very fine granularity.
//! ... a three layer network learning a classic encoder problem. There
//! were 40 units and 16 pairs of inputs and outputs. The simulator is
//! parallelized by simple for-loop parallelization on units. Each
//! processor continually simulates a set of units depending only on the
//! atomicity of memory operations for synchronization."
//!
//! The network is a 16-8-16 encoder (40 units). Arithmetic is Q16
//! fixed point, matching the word-granular machine. There is *no*
//! synchronization between processors: activations, deltas, and weights
//! are read and written racily, exactly as the paper describes — the
//! interleaved fine-grain writes are what freezes the shared pages, and
//! the frozen remote accesses are what limits each extra processor to
//! about half the contribution of a local-only processor (Figure 6).
//!
//! [`Neural`] is the program's one staging — zone, layout and phase
//! sequence on any paged [`Stage`].

use numa_machine::{Mem, Va};
use platinum_runtime::measure::RunStats;
use platinum_runtime::zones::Zone;
use platinum_runtime::{Stage, Step};

/// Number of input units (and output units) of the encoder.
pub(crate) const INPUTS: usize = 16;
/// Number of hidden units.
pub(crate) const HIDDEN: usize = 8;
/// Number of output units.
pub(crate) const OUTPUTS: usize = 16;
/// Total units, as in the paper.
pub(crate) const UNITS: usize = INPUTS + HIDDEN + OUTPUTS;
/// Training patterns (input/output pairs).
pub(crate) const PATTERNS: usize = 16;

/// One in Q16 fixed point.
const ONE: i32 = 1 << 16;

/// Learning rate in Q16.
pub(crate) const ETA_Q16: i32 = ONE / 2;
/// Modelled cost of one multiply-accumulate, ns. The original simulator
/// did floating-point arithmetic; on the 16.67 MHz MC68020 with
/// coprocessor support an FP multiply-add lands around 5 us.
pub(crate) const MAC_NS: u64 = 9000;
/// Modelled cost of one activation-function evaluation, ns.
pub(crate) const ACT_NS: u64 = 15000;

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct NeuralConfig {
    /// Training epochs (sweeps over all patterns).
    pub epochs: usize,
}

impl NeuralConfig {
    /// The configuration trained for `epochs`.
    pub fn with_epochs(epochs: usize) -> Self {
        Self { epochs }
    }
}

impl Default for NeuralConfig {
    fn default() -> Self {
        Self::with_epochs(40)
    }
}

/// Shared-memory layout: one *unit record* page per unit, as the
/// original simulator's per-unit data structures would lay out.
///
/// Unit `u`'s record holds its activation (word 0), its error term
/// (word 1), and its incoming weights (words 2..). A record is written
/// only by the unit's owner but read by every processor whose units
/// connect to `u` — fine-grain read-write sharing on all 40 record
/// pages. The policy freezes each record on its owner's node, so owners
/// access their units locally while every cross-unit reference goes
/// remote: exactly the "extensive use of remote accesses" of Figure 6,
/// with the hot data spread over all the nodes.
#[derive(Clone, Debug)]
pub(crate) struct NeuralLayout {
    /// Base of unit 0's record page.
    pub records: Va,
    /// Page stride between unit records, in words.
    pub unit_stride_words: usize,
    /// The training patterns (one-hot), `PATTERNS * INPUTS` Q16 words,
    /// read-only once initialized.
    pub patterns: Va,
}

/// Word offset of the activation within a unit record.
const REC_ACT: usize = 0;
/// Word offset of the error term within a unit record.
const REC_DELTA: usize = 1;
/// Word offset of the first incoming weight within a unit record.
const REC_W: usize = 2;

impl NeuralLayout {
    /// Pages a zone must hold so [`NeuralLayout::alloc`] succeeds: one
    /// page per unit record plus the pattern pages.
    pub(crate) fn zone_pages() -> usize {
        UNITS + 2
    }

    /// Allocates the unit records (one page each) and the pattern page.
    ///
    /// # Panics
    ///
    /// Panics if a page cannot hold a unit record.
    pub(crate) fn alloc(zone: &mut Zone) -> Self {
        let stride = zone.page_words();
        assert!(
            stride >= REC_W + INPUTS.max(HIDDEN),
            "a {stride}-word page cannot hold a unit record"
        );
        let records = zone.alloc_page_aligned(stride * UNITS);
        Self {
            records,
            unit_stride_words: stride,
            patterns: zone.alloc_page_aligned(PATTERNS * INPUTS),
        }
    }

    /// Address of a field of unit `u`'s record.
    #[inline]
    fn rec(&self, u: usize, field: usize) -> Va {
        self.records + 4 * (u * self.unit_stride_words + field) as u64
    }

    /// Address of unit `u`'s activation.
    #[inline]
    pub(crate) fn act(&self, u: usize) -> Va {
        self.rec(u, REC_ACT)
    }

    /// Address of unit `u`'s error term.
    #[inline]
    pub(crate) fn delta(&self, u: usize) -> Va {
        self.rec(u, REC_DELTA)
    }

    /// Address of `w1[i][h]` (input `i` to hidden `h`), in hidden unit
    /// `h`'s record.
    #[inline]
    pub(crate) fn w1(&self, i: usize, h: usize) -> Va {
        self.rec(INPUTS + h, REC_W + i)
    }

    /// Address of `w2[h][o]` (hidden `h` to output `o`), in output unit
    /// `o`'s record.
    #[inline]
    pub(crate) fn w2(&self, h: usize, o: usize) -> Va {
        self.rec(INPUTS + HIDDEN + o, REC_W + h)
    }
}

/// Q16 multiply.
#[inline]
fn qmul(a: i32, b: i32) -> i32 {
    ((i64::from(a) * i64::from(b)) >> 16) as i32
}

/// Hard sigmoid in Q16: clamp(x/4 + 1/2, 0, 1).
#[inline]
fn sigmoid(x: i32) -> i32 {
    (x / 4 + ONE / 2).clamp(0, ONE)
}

/// Derivative of the hard sigmoid at pre-activation `x` (0.25 inside the
/// linear region, a small epsilon outside so learning never stalls).
#[inline]
fn dsigmoid(x: i32) -> i32 {
    if (-2 * ONE..=2 * ONE).contains(&x) {
        ONE / 4
    } else {
        ONE / 64
    }
}

/// Deterministic small initial weight.
#[inline]
fn init_weight(seed: u64, idx: usize) -> i32 {
    let x = (idx as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // In [-0.25, 0.25) Q16.
    ((x >> 40) as i32 & 0x7FFF) - 0x4000
}

/// Initializes the read-only pattern page; call once from a single
/// context before spawning workers.
pub(crate) fn init<M: Mem>(m: &mut M, lay: &NeuralLayout) {
    for pat in 0..PATTERNS {
        for i in 0..INPUTS {
            let v = if i == pat { ONE } else { 0 };
            m.write(lay.patterns + 4 * (pat * INPUTS + i) as u64, v as u32);
        }
    }
}

/// Initializes the records of the units owned by `tid`: first touch
/// places each unit's record page on its owner's node.
pub(crate) fn init_owned_weights<M: Mem>(m: &mut M, lay: &NeuralLayout, tid: usize, p: usize) {
    for u in (0..UNITS).filter(|u| owns_unit(tid, p, *u)) {
        m.write(lay.act(u), 0);
        m.write(lay.delta(u), 0);
    }
    for h in (0..HIDDEN).filter(|u| owns_unit(tid, p, INPUTS + *u)) {
        for i in 0..INPUTS {
            m.write(lay.w1(i, h), init_weight(1, i * HIDDEN + h) as u32);
        }
    }
    for o in (0..OUTPUTS).filter(|u| owns_unit(tid, p, INPUTS + HIDDEN + *u)) {
        for h in 0..HIDDEN {
            m.write(lay.w2(h, o), init_weight(2, h * OUTPUTS + o) as u32);
        }
    }
}

#[inline]
fn read_q<M: Mem>(m: &mut M, base: Va, idx: usize) -> i32 {
    m.read(base + 4 * idx as u64) as i32
}

/// Whether unit `u` belongs to processor `tid` of `p` (for-loop
/// parallelization on units).
#[inline]
pub(crate) fn owns_unit(tid: usize, p: usize, u: usize) -> bool {
    u % p == tid
}

/// One processor's training loop over its units, one reference pair
/// (a multiply-accumulate, or a weight update) per step. Completely
/// unsynchronized: other processors' activations and deltas are read
/// whenever they happen to be current, "depending only on the atomicity
/// of memory operations" — so the steps are what sets the interleaving.
pub(crate) fn train<'a, M: Mem>(
    lay: &'a NeuralLayout,
    cfg: &'a NeuralConfig,
    tid: usize,
    p: usize,
) -> impl FnMut(&mut M) -> Step<'a> + 'a {
    let mut steps = (0..cfg.epochs)
        .flat_map(|_| 0..PATTERNS)
        .flat_map(move |pat| presentation(tid, p).map(move |s| (pat, s)));
    let mut unit = UnitState::default();
    move |m| match steps.next() {
        Some((pat, step)) => {
            unit.step(m, lay, pat, step);
            Step::Ready
        }
        None => Step::Done,
    }
}

/// A step of one pattern presentation.
#[derive(Clone, Copy)]
enum Pres {
    /// Load input unit `i`'s activation from the pattern.
    Input(usize),
    /// Hidden unit `h`'s forward multiply-accumulate over input `i`.
    HiddenMac(usize, usize),
    /// Hidden unit `h`'s activation and derivative.
    HiddenOut(usize),
    /// Output unit `o`'s forward multiply-accumulate over hidden `h`.
    OutputMac(usize, usize),
    /// Output unit `o`'s activation and delta.
    OutputOut(usize),
    /// Output unit `o`'s update of its weight from hidden `h`.
    OutputUpdate(usize, usize),
    /// Hidden unit `h`'s backward multiply-accumulate over output `o`.
    BackMac(usize, usize),
    /// Hidden unit `h`'s delta.
    BackDelta(usize),
    /// Hidden unit `h`'s update of its weight from input `i`.
    BackUpdate(usize, usize),
}

/// The steps of one pattern presentation for the units owned by `tid`,
/// layer by layer, unit by unit.
fn presentation(tid: usize, p: usize) -> impl Iterator<Item = Pres> {
    let owned =
        move |first: usize, count: usize| (0..count).filter(move |u| owns_unit(tid, p, first + u));
    // Unit `u`'s steps over its `n` inputs.
    let each = |n: usize, u: usize, step: fn(usize, usize) -> Pres| (0..n).map(move |j| step(u, j));
    let inputs = owned(0, INPUTS).map(Pres::Input);
    let hidden = owned(INPUTS, HIDDEN)
        .flat_map(move |h| each(INPUTS, h, Pres::HiddenMac).chain([Pres::HiddenOut(h)]));
    let outputs = owned(INPUTS + HIDDEN, OUTPUTS).flat_map(move |o| {
        each(HIDDEN, o, Pres::OutputMac)
            .chain([Pres::OutputOut(o)])
            .chain(each(HIDDEN, o, Pres::OutputUpdate))
    });
    let backward = owned(INPUTS, HIDDEN).flat_map(move |h| {
        each(OUTPUTS, h, Pres::BackMac)
            .chain([Pres::BackDelta(h)])
            .chain(each(INPUTS, h, Pres::BackUpdate))
    });
    inputs.chain(hidden).chain(outputs).chain(backward)
}

/// What a unit carries between its steps.
#[derive(Default)]
struct UnitState {
    /// The net input or back-propagated error being accumulated.
    acc: i32,
    /// The delta the unit's weight updates apply.
    delta: i32,
}

impl UnitState {
    /// One step of presenting pattern `pat`.
    fn step<M: Mem>(&mut self, m: &mut M, lay: &NeuralLayout, pat: usize, step: Pres) {
        match step {
            Pres::Input(i) => {
                let v = read_q(m, lay.patterns, pat * INPUTS + i);
                m.write(lay.act(i), v as u32);
            }
            Pres::HiddenMac(h, i) => {
                let x = m.read(lay.act(i)) as i32;
                let w = m.read(lay.w1(i, h)) as i32;
                self.acc = self.acc.wrapping_add(qmul(w, x));
                m.compute(MAC_NS);
            }
            Pres::HiddenOut(h) => {
                let net = std::mem::take(&mut self.acc);
                m.write(lay.act(INPUTS + h), sigmoid(net) as u32);
                m.write(lay.delta(INPUTS + h), dsigmoid(net) as u32);
                m.compute(ACT_NS);
            }
            Pres::OutputMac(o, h) => {
                let a = m.read(lay.act(INPUTS + h)) as i32;
                let w = m.read(lay.w2(h, o)) as i32;
                self.acc = self.acc.wrapping_add(qmul(w, a));
                m.compute(MAC_NS);
            }
            Pres::OutputOut(o) => {
                let net = std::mem::take(&mut self.acc);
                let out = sigmoid(net);
                m.write(lay.act(INPUTS + HIDDEN + o), out as u32);
                m.compute(ACT_NS);
                let target = if o == pat { ONE } else { 0 };
                self.delta = qmul(target.wrapping_sub(out), dsigmoid(net));
                m.write(lay.delta(INPUTS + HIDDEN + o), self.delta as u32);
            }
            // Update incoming weights (racy reads of hidden activations).
            Pres::OutputUpdate(o, h) => {
                let a = m.read(lay.act(INPUTS + h)) as i32;
                let va = lay.w2(h, o);
                let w = m.read(va) as i32;
                m.write(
                    va,
                    w.wrapping_add(qmul(ETA_Q16, qmul(self.delta, a))) as u32,
                );
                m.compute(2 * MAC_NS);
            }
            Pres::BackMac(h, o) => {
                let d = m.read(lay.delta(INPUTS + HIDDEN + o)) as i32;
                // Reading the output units' records from the hidden
                // units' owners is the irreducible fine-grain sharing of
                // backpropagation.
                let w = m.read(lay.w2(h, o)) as i32;
                self.acc = self.acc.wrapping_add(qmul(w, d));
                m.compute(MAC_NS);
            }
            Pres::BackDelta(h) => {
                let err = std::mem::take(&mut self.acc);
                self.delta = qmul(err, m.read(lay.delta(INPUTS + h)) as i32);
            }
            Pres::BackUpdate(h, i) => {
                let x = m.read(lay.act(i)) as i32;
                let va = lay.w1(i, h);
                let w = m.read(va) as i32;
                m.write(
                    va,
                    w.wrapping_add(qmul(ETA_Q16, qmul(self.delta, x))) as u32,
                );
                m.compute(2 * MAC_NS);
            }
        }
    }
}

/// Evaluates the network on all patterns from one context (no learning),
/// returning the summed absolute output error in floating point (where
/// 1.0 is a full-scale error on one output).
pub(crate) fn total_error<M: Mem>(m: &mut M, lay: &NeuralLayout) -> f64 {
    let mut err = 0i64;
    for pat in 0..PATTERNS {
        let mut hidden = [0i32; HIDDEN];
        for (h, hv) in hidden.iter_mut().enumerate() {
            let mut net = 0i32;
            for i in 0..INPUTS {
                let x = read_q(m, lay.patterns, pat * INPUTS + i);
                let w = m.read(lay.w1(i, h)) as i32;
                net = net.wrapping_add(qmul(w, x));
            }
            *hv = sigmoid(net);
        }
        for o in 0..OUTPUTS {
            let mut net = 0i32;
            for (h, &hv) in hidden.iter().enumerate() {
                let w = m.read(lay.w2(h, o)) as i32;
                net = net.wrapping_add(qmul(w, hv));
            }
            let out = sigmoid(net);
            let target = if o == pat { ONE } else { 0 };
            err += i64::from((target - out).abs());
        }
    }
    err as f64 / f64::from(ONE)
}

/// The simulator staged on a machine: the unit-record zone and the
/// phases in the order every runner sequences them — [`Neural::init`],
/// [`Neural::measured`], [`Neural::total_error`]. The stage is booted
/// by the caller and stays the caller's.
pub struct Neural<'a> {
    cfg: &'a NeuralConfig,
    p: usize,
    lay: NeuralLayout,
}

impl<'a> Neural<'a> {
    /// Allocates the unit records and the pattern page in one zone.
    pub fn stage<S: Stage>(stage: &mut S, cfg: &'a NeuralConfig, p: usize) -> Self {
        let mut zone = stage.alloc_zone(NeuralLayout::zone_pages());
        Self {
            cfg,
            p,
            lay: NeuralLayout::alloc(&mut zone),
        }
    }

    /// One processor writes the patterns, then owners first-touch their
    /// units' record pages (local placement).
    pub fn init<S: Stage>(&self, stage: &mut S) {
        stage.phase("init", 1, |_, ctx| init(ctx, &self.lay));
        stage.phase("init-weights", self.p, |tid, ctx| {
            init_owned_weights(ctx, &self.lay, tid, self.p)
        });
    }

    /// The measured pass: unsynchronized training.
    pub fn measured<S: Stage>(&self, stage: &mut S) -> RunStats {
        stage.steps("measured", self.p, |tid| {
            train(&self.lay, self.cfg, tid, self.p)
        })
    }

    /// Evaluates the trained network from one processor
    /// (`total_error`).
    pub fn total_error<S: Stage>(&self, stage: &mut S) -> f64 {
        let (errors, _) = stage.phase("verify", 1, |_, ctx| total_error(ctx, &self.lay));
        errors[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_machine::mem_iface::test_support::FlatMem;
    use platinum_runtime::zones::Zone;

    fn setup() -> (FlatMem, NeuralLayout) {
        let mut m = FlatMem::new(0, 1);
        let mut zone = Zone::new(0x1000, 1 << 16, 1024);
        let lay = NeuralLayout::alloc(&mut zone);
        init(&mut m, &lay);
        init_owned_weights(&mut m, &lay, 0, 1);
        (m, lay)
    }

    #[test]
    fn fixed_point_helpers() {
        assert_eq!(qmul(ONE, ONE), ONE);
        assert_eq!(qmul(ONE / 2, ONE / 2), ONE / 4);
        assert_eq!(sigmoid(0), ONE / 2);
        assert_eq!(sigmoid(10 * ONE), ONE);
        assert_eq!(sigmoid(-10 * ONE), 0);
        assert_eq!(dsigmoid(0), ONE / 4);
        assert_eq!(dsigmoid(5 * ONE), ONE / 64);
    }

    #[test]
    fn unit_partition() {
        for u in 0..UNITS {
            let owners: Vec<usize> = (0..4).filter(|t| owns_unit(*t, 4, u)).collect();
            assert_eq!(owners.len(), 1);
        }
    }

    #[test]
    fn training_reduces_error_single_proc() {
        let (mut m, lay) = setup();
        let before = total_error(&mut m, &lay);
        let cfg = NeuralConfig::with_epochs(60);
        crate::run_alone(&mut m, train(&lay, &cfg, 0, 1));
        let after = total_error(&mut m, &lay);
        assert!(
            after < before * 0.7,
            "training must reduce error: {before} -> {after}"
        );
    }

    #[test]
    fn patterns_are_one_hot() {
        let (mut m, lay) = setup();
        for pat in 0..PATTERNS {
            let mut sum = 0i64;
            for i in 0..INPUTS {
                sum += i64::from(read_q(&mut m, lay.patterns, pat * INPUTS + i));
            }
            assert_eq!(sum, i64::from(ONE), "pattern {pat} must be one-hot");
        }
    }
}
