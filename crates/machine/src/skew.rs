//! The skew window (DESIGN.md §5): a free-running host thread whose clock
//! gets more than the window ahead of the slowest running processor is
//! held until it catches up, as contention booking assumes. The NUMA
//! machine holds one [`SkewWindow`] and each `UserCtx` keeps a [`Pacer`];
//! only a context on a thread of its own (`Sim::run`, the concurrency
//! tests) is ever held. Stepped execution on one host thread orders the
//! processors by their clocks instead, and the UMA comparator runs only
//! that way.

use std::sync::atomic::{AtomicU64, Ordering};

/// A posted clock meaning "not running" (blocked, spin-waiting, finished
/// or not started): idle processors do not hold the window back.
pub const IDLE: u64 = u64::MAX;

/// Accesses between postings of a running processor's clock.
const POST_INTERVAL: u32 = 64;

/// Every processor's posted clock and the window test.
pub struct SkewWindow {
    /// The lead allowed over the slowest running processor, ns; `None`
    /// holds no one (the deterministic one-thread drivers).
    window: Option<u64>,
    clocks: Box<[AtomicU64]>,
}

impl SkewWindow {
    /// A window of `window` ns over `procs` processors, all idle.
    pub(crate) fn new(procs: usize, window: Option<u64>) -> Self {
        let clocks = (0..procs).map(|_| AtomicU64::new(IDLE)).collect();
        Self { window, clocks }
    }

    /// Posts processor `p`'s clock, or [`IDLE`].
    pub fn post(&self, p: usize, clock: u64) {
        self.clocks[p].store(clock, Ordering::Relaxed);
    }

    /// Whether a processor at `vtime` is more than the window ahead of the
    /// slowest running processor.
    pub fn holds(&self, vtime: u64) -> bool {
        let Some(window) = self.window else {
            return false;
        };
        let min = self.clocks.iter().map(|c| c.load(Ordering::Relaxed)).min();
        min.is_some_and(|min| min != IDLE && vtime > min.saturating_add(window))
    }
}

/// One processor's side of the window, kept by the context driving it.
#[derive(Debug, Default)]
pub struct Pacer {
    proc: usize,
    accesses: u32,
    /// Spin-waiting in a synchronization primitive: the clock is frozen
    /// until the awaited event, so the processor posts [`IDLE`] and is
    /// never held — holding workers against it would deadlock.
    waiting: bool,
}

impl Pacer {
    /// Processor `proc`'s pacer, not waiting.
    pub fn new(proc: usize) -> Self {
        Self {
            proc,
            ..Self::default()
        }
    }

    /// Counts one access; true on every `POST_INTERVAL`th, when the
    /// caller asks [`Pacer::should_throttle`].
    #[inline(always)]
    pub fn tick(&mut self) -> bool {
        self.accesses += 1;
        let due = self.accesses >= POST_INTERVAL;
        if due {
            self.accesses = 0;
        }
        due
    }

    /// Posts the clock (`vtime`, or [`IDLE`] while waiting) and reports
    /// whether the window holds the processor. Never blocks: the caller
    /// loops, servicing what it must, while this says hold.
    pub fn should_throttle(&self, skew: &SkewWindow, vtime: u64) -> bool {
        skew.post(self.proc, if self.waiting { IDLE } else { vtime });
        !self.waiting && skew.holds(vtime)
    }

    /// Enters spin-wait mode.
    pub fn begin_wait(&mut self, skew: &SkewWindow) {
        self.waiting = true;
        skew.post(self.proc, IDLE);
    }

    /// Leaves spin-wait mode at clock `vtime`.
    pub fn end_wait(&mut self, skew: &SkewWindow, vtime: u64) {
        self.waiting = false;
        skew.post(self.proc, vtime);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throttle_respects_window() {
        let skew = SkewWindow::new(3, Some(1000));
        let fast = Pacer::new(0);
        assert!(!fast.should_throttle(&skew, 5000), "alone it runs free");
        skew.post(1, 0);
        skew.post(2, 3000);
        assert!(fast.should_throttle(&skew, 1001), "1 ns past the window");
        assert!(!fast.should_throttle(&skew, 1000), "exactly on its edge");
        // The test reads the slowest *running* clock.
        skew.post(1, 4500);
        assert!(!fast.should_throttle(&skew, 4000));
        assert!(fast.should_throttle(&skew, 4001), "3000 + 1000 < 4001");
    }

    #[test]
    fn idle_and_wake_publication() {
        let skew = SkewWindow::new(2, Some(1000));
        let (fast, mut slow) = (Pacer::new(0), Pacer::new(1));
        assert!(!slow.should_throttle(&skew, 0), "the slow one posts 0");
        assert!(fast.should_throttle(&skew, 5000));
        slow.begin_wait(&skew);
        assert!(!fast.should_throttle(&skew, 5000), "peer spin-waits");
        // A waiting processor keeps posting idle, and is never held.
        assert!(!slow.should_throttle(&skew, 0));
        assert!(!fast.should_throttle(&skew, 5000));
        slow.end_wait(&skew, 10);
        assert!(fast.should_throttle(&skew, 5000), "peer runs again at 10");
        skew.post(1, IDLE);
        assert!(!fast.should_throttle(&skew, 5000), "peer blocked or gone");
        // The held processor's own posting counts like any other's.
        assert!(!skew.holds(0));
        assert!(skew.holds(6001), "the fast one itself posted 5000");
    }

    #[test]
    fn no_window_never_holds() {
        let skew = SkewWindow::new(2, None);
        let fast = Pacer::new(0);
        skew.post(1, 0);
        assert!(!fast.should_throttle(&skew, u64::MAX - 1));
        assert!(!skew.holds(u64::MAX - 1));
    }

    #[test]
    fn the_pacer_asks_once_per_interval() {
        let mut p = Pacer::new(0);
        for round in 0..3 {
            for i in 1..POST_INTERVAL {
                assert!(!p.tick(), "round {round}, access {i}");
            }
            assert!(p.tick(), "round {round}: the {POST_INTERVAL}th access");
        }
    }
}
