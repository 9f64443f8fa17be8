//! Synchronization primitives on simulated coherent memory.
//!
//! The state word of every primitive lives in *simulated* memory and is
//! touched through [`Mem`], so synchronization traffic exercises the
//! coherency protocol exactly as the paper describes: "active use of
//! synchronization variables will cause their pages to be frozen" (§4.2)
//! — which is why the [`crate::zones`] module exists to keep them off
//! everyone else's pages.
//!
//! Every wait is one condition, a [`Wait`]: a stepped program returns it
//! to the scheduler (`crate::step`), a free-running thread spins on it.
//! A test is one uncharged [`Mem::read_spin`]: how many a wait takes is an
//! artifact of the simulation, so waiting time is modelled analytically —
//! the releaser records its virtual release time and the waiter's clock
//! advances to at least that, after one charged access that models the
//! successful observation. The spin reads still exercise the protocol
//! (faults, freezing).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use numa_machine::{Mem, Va};
use platinum::Port;

/// What a blocked processor waits for. See the module docs.
#[derive(Clone, Copy)]
pub enum Wait<'a> {
    /// An event count reaching a value.
    Event(&'a EventCount, u32),
    /// A barrier generation being released.
    Barrier(&'a Barrier, u32),
    /// A spin lock being acquired.
    Lock(&'a SpinLock),
    /// A message arriving at a port; the receiver is blocked in the
    /// kernel (`UserCtx::port_recv_step`) and its test reads no memory.
    Port(&'a Port),
}

impl Wait<'_> {
    /// Tests the condition once — one uncharged spin read (a lock's is
    /// followed by its compare-and-swap when the word reads free) — and,
    /// if it holds, completes the wait: the charged observation, then the
    /// releaser's time.
    pub(crate) fn holds<M: Mem>(&self, m: &mut M) -> bool {
        match *self {
            Wait::Event(ec, target) => {
                m.read_spin(ec.va) >= target && {
                    let _ = m.read(ec.va);
                    let t = ec.times.lock().get(target as usize - 1).copied();
                    m.advance_to(t.unwrap_or(0));
                    true
                }
            }
            Wait::Barrier(b, gen) => {
                m.read_spin(b.gen_va) != gen && {
                    let _ = m.read(b.gen_va);
                    let rel = b.releases.lock().get(gen as usize).copied();
                    m.advance_to(rel.unwrap_or(0));
                    true
                }
            }
            // The critical section cannot begin before the previous holder
            // released.
            Wait::Lock(l) => {
                m.read_spin(l.word) == 0 && m.compare_exchange(l.word, 0, 1).is_ok() && {
                    m.advance_to(l.release_vtime.load(Ordering::Acquire));
                    m.trace_lock(l.word, true);
                    true
                }
            }
            Wait::Port(port) => !port.is_empty(),
        }
    }

    /// The free-running form: spins until the wait holds (`Wait::holds`).
    /// (A free-running port receiver blocks in the kernel instead,
    /// `UserCtx::port_recv`.)
    pub fn spin<M: Mem>(&self, m: &mut M) {
        let mut spins = 0u32;
        m.begin_wait();
        while !self.holds(m) {
            std::hint::spin_loop();
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(8) {
                std::thread::yield_now();
            }
        }
        m.end_wait();
    }
}

/// A test-and-test-and-set spin lock on a word of coherent memory.
///
/// Clone handles freely; all clones denote the same lock.
#[derive(Clone)]
pub struct SpinLock {
    word: Va,
    /// Virtual time of the most recent release (host-side bookkeeping;
    /// see the module docs).
    release_vtime: Arc<AtomicU64>,
}

impl SpinLock {
    /// Wraps the (zero-initialized) word at `va` as a lock.
    pub fn new(va: Va) -> Self {
        Self {
            word: va,
            release_vtime: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The stepped acquire: the lock is held once the wait completes.
    /// Test-and-test-and-set: each test reads before attempting the
    /// atomic, as one did on the Butterfly to avoid hammering the remote
    /// module with RMWs.
    pub(crate) fn acquiring(&self) -> Wait<'_> {
        Wait::Lock(self)
    }

    /// Acquires the lock.
    pub fn acquire<M: Mem>(&self, m: &mut M) {
        self.acquiring().spin(m);
    }

    /// Releases the lock.
    ///
    /// # Panics
    ///
    /// Panics if the lock was not held (the word was not 1).
    pub fn release<M: Mem>(&self, m: &mut M) {
        m.trace_lock(self.word, false);
        self.release_vtime.fetch_max(m.vtime(), Ordering::AcqRel);
        let prev = m.swap(self.word, 0);
        assert_eq!(prev, 1, "releasing a lock that was not held");
    }

    /// Runs `f` under the lock.
    pub fn with<M: Mem, R>(&self, m: &mut M, f: impl FnOnce(&mut M) -> R) -> R {
        self.acquire(m);
        let r = f(m);
        self.release(m);
        r
    }
}

/// A sense-reversing barrier for a fixed set of participants.
///
/// Uses two words of coherent memory (arrival count and generation) and a
/// host-side table of per-generation release times for exact virtual-time
/// propagation.
#[derive(Clone)]
pub struct Barrier {
    count_va: Va,
    gen_va: Va,
    n: u32,
    /// `releases[g]` = virtual time at which generation `g` was released.
    releases: Arc<Mutex<Vec<u64>>>,
}

impl Barrier {
    /// Wraps two zero-initialized words (`count_va`, `gen_va`) as a
    /// barrier for `n` participants.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(count_va: Va, gen_va: Va, n: u32) -> Self {
        assert!(n > 0, "a barrier needs at least one participant");
        Self {
            count_va,
            gen_va,
            n,
            releases: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The generation word's address (instrumentation).
    pub fn va(&self) -> Va {
        self.gen_va
    }

    /// Arrives at the barrier: `None` for the last arriver, which
    /// releases the generation, otherwise the wait for its release.
    pub fn arrive<M: Mem>(&self, m: &mut M) -> Option<Wait<'_>> {
        let gen = m.read(self.gen_va);
        let arrived = m.fetch_add(self.count_va, 1) + 1;
        if arrived < self.n {
            return Some(Wait::Barrier(self, gen));
        }
        // Last arriver: record the release time, reset, and open the next
        // generation.
        {
            let mut rel = self.releases.lock();
            if rel.len() <= gen as usize {
                rel.resize(gen as usize + 1, 0);
            }
            rel[gen as usize] = m.vtime();
        }
        m.write(self.count_va, 0);
        m.write(self.gen_va, gen + 1);
        None
    }

    /// Waits until all `n` participants arrive.
    pub fn wait<M: Mem>(&self, m: &mut M) {
        if let Some(w) = self.arrive(m) {
            w.spin(m);
        }
    }
}

/// An event count (the synchronization primitive the paper's Gaussian
/// elimination uses, §5.1): a monotonically increasing counter that
/// threads can advance and await.
#[derive(Clone)]
pub struct EventCount {
    va: Va,
    /// `times[v-1]` = virtual time at which the count reached `v`.
    times: Arc<Mutex<Vec<u64>>>,
}

impl EventCount {
    /// Wraps the zero-initialized word at `va` as an event count.
    pub fn new(va: Va) -> Self {
        Self {
            va,
            times: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The counter word's address (instrumentation).
    pub fn va(&self) -> Va {
        self.va
    }

    /// Advances the count by one, returning the new value.
    pub fn advance<M: Mem>(&self, m: &mut M) -> u32 {
        let new = m.fetch_add(self.va, 1) + 1;
        let mut times = self.times.lock();
        if times.len() < new as usize {
            times.resize(new as usize, 0);
        }
        times[new as usize - 1] = m.vtime();
        new
    }

    /// The wait for the count to reach `target`; `None` when there is
    /// nothing to wait for (`target == 0`).
    pub fn reaching(&self, target: u32) -> Option<Wait<'_>> {
        (target > 0).then_some(Wait::Event(self, target))
    }

    /// Waits until the count reaches at least `target`.
    pub fn await_at_least<M: Mem>(&self, m: &mut M, target: u32) {
        if let Some(w) = self.reaching(target) {
            w.spin(m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_machine::mem_iface::test_support::FlatMem;

    #[test]
    fn spinlock_single_thread() {
        let mut m = FlatMem::new(0, 1);
        let l = SpinLock::new(0x100);
        l.acquire(&mut m);
        assert_eq!(m.read_spin(0x100), 1);
        l.release(&mut m);
        assert_eq!(m.read_spin(0x100), 0);
        let out = l.with(&mut m, |m| m.vtime());
        assert!(out > 0);
    }

    #[test]
    #[should_panic(expected = "not held")]
    fn release_unheld_panics() {
        let mut m = FlatMem::new(0, 1);
        let l = SpinLock::new(0x100);
        l.release(&mut m);
    }

    #[test]
    fn lock_propagates_release_time() {
        // Two logical contexts sharing one FlatMem store is awkward, so
        // model the handoff directly: ctx A releases late, ctx B acquires
        // with an early clock and must be dragged forward.
        let mut a = FlatMem::new(0, 2);
        let l = SpinLock::new(0x0);
        l.acquire(&mut a);
        a.advance_to(1_000_000);
        l.release(&mut a);

        let mut b = FlatMem::new(1, 2);
        // Give b the same backing word state: lock is free in its copy.
        b.words.insert(0x0, 0);
        let l2 = l.clone();
        l2.acquire(&mut b);
        assert!(b.vtime() >= 1_000_000, "acquirer inherits release time");
    }

    #[test]
    fn barrier_single_participant_never_blocks() {
        let mut m = FlatMem::new(0, 1);
        let b = Barrier::new(0x0, 0x4, 1);
        for _ in 0..3 {
            b.wait(&mut m);
        }
        assert_eq!(m.read_spin(0x4), 3, "three generations passed");
        assert_eq!(m.read_spin(0x0), 0, "count reset each time");
    }

    #[test]
    fn event_count_advance_await() {
        let mut m = FlatMem::new(0, 1);
        let ec = EventCount::new(0x8);
        assert_eq!(ec.advance(&mut m), 1);
        m.advance_to(5_000);
        assert_eq!(ec.advance(&mut m), 2);
        let mut w = FlatMem::new(1, 2);
        w.words.insert(0x8, 2); // already satisfied in w's view
        ec.await_at_least(&mut w, 2);
        assert!(w.vtime() >= 5_000, "await propagates the advance time");
        ec.await_at_least(&mut w, 0); // trivially satisfied
    }
}
