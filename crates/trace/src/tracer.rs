//! The tracer: per-processor rings, phase registry, snapshotting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::event::{EventKind, TraceEvent};
use crate::ring::Ring;

/// Rings per lazily allocated chunk of the ring table.
const CHUNK: usize = 256;

/// `CHUNK` processors' rings, each allocated on its processor's first emit.
type Chunk = Box<[OnceLock<Ring>]>;

/// Events retained per processor before the ring overwrites the oldest
/// (each event is 40 bytes).
pub(crate) const CAPACITY_PER_PROC: usize = 1 << 16;

/// Collects events from every simulated processor.
///
/// Emitting is lock-free (see the `ring` module); rings are allocated
/// lazily the first time a processor emits, so the tracer accepts every
/// processor id an event can carry (`u16`) and pays only for those that
/// emit. `emit` may be called concurrently for *different* processors;
/// per processor, the simulator's one-driving-thread model provides the
/// single producer the ring requires.
pub struct Tracer {
    /// Processor `p`'s ring is `rings[p / CHUNK][p % CHUNK]`; a chunk
    /// comes into being with its first emitting processor.
    rings: Box<[OnceLock<Chunk>]>,
    seq: AtomicU64,
    current_phase: AtomicU64,
    phases: Mutex<Vec<String>>,
}

impl Tracer {
    /// A fresh tracer with one implicit phase named `"run"`.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            rings: (0..=u16::MAX as usize / CHUNK)
                .map(|_| OnceLock::new())
                .collect(),
            seq: AtomicU64::new(0),
            current_phase: AtomicU64::new(0),
            phases: Mutex::new(vec!["run".to_string()]),
        })
    }

    /// Records one event against processor `proc`'s virtual clock.
    ///
    /// # Panics
    ///
    /// Panics if `proc` does not fit an event's `u16` processor field.
    #[inline]
    pub fn emit(&self, proc: usize, vtime: u64, kind: EventKind, code: u8, page: u64, arg: u64) {
        let chunk =
            self.rings[proc / CHUNK].get_or_init(|| (0..CHUNK).map(|_| OnceLock::new()).collect());
        let ring = chunk[proc % CHUNK].get_or_init(|| Ring::new(CAPACITY_PER_PROC));
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let phase = self.current_phase.load(Ordering::Relaxed) as u16;
        ring.push(TraceEvent {
            kind,
            code,
            proc: proc as u16,
            phase,
            vtime,
            page,
            arg,
            seq,
        });
    }

    /// Opens a named phase; events emitted from now on are grouped
    /// under it (one Perfetto process group per phase). Returns the
    /// phase index.
    ///
    /// Multi-case binaries call this between cases so that each case's
    /// virtual-time axis gets its own group instead of overlapping.
    pub fn begin_phase(&self, name: &str) -> u16 {
        let mut phases = self.phases.lock().unwrap_or_else(|e| e.into_inner());
        let idx = phases.len() as u16;
        phases.push(name.to_string());
        self.current_phase.store(idx as u64, Ordering::Relaxed);
        idx
    }

    /// Total events emitted so far (including any overwritten in rings).
    pub fn emitted(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Decodes every ring into one [`Trace`], sorted by sequence
    /// number. Take snapshots after the traced run has quiesced.
    pub fn snapshot(&self) -> Trace {
        let mut events = Vec::new();
        let mut dropped = 0;
        let chunks = self.rings.iter().filter_map(OnceLock::get);
        for ring in chunks.flat_map(|c| c.iter().filter_map(OnceLock::get)) {
            let (mut evs, d) = ring.snapshot();
            events.append(&mut evs);
            dropped += d;
        }
        events.sort_by_key(|e| e.seq);
        let phases = self
            .phases
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        Trace {
            events,
            dropped,
            phases,
        }
    }
}

/// A decoded, seq-ordered snapshot of everything a [`Tracer`] captured.
#[derive(Clone, Debug)]
pub struct Trace {
    /// All surviving events, ordered by global sequence number.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wraparound (more than
    /// `CAPACITY_PER_PROC` events on one processor).
    pub dropped: u64,
    /// Phase names; [`TraceEvent::phase`] indexes this.
    pub phases: Vec<String>,
}

impl Trace {
    /// Number of events of `kind`.
    pub fn count(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Events of `kind`, in sequence order.
    pub fn of_kind(&self, kind: EventKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Events whose `page` payload names coherent page `page`.
    pub(crate) fn for_page(&self, page: u64) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.kind.page_is_cpage() && e.page == page)
            .collect()
    }

    /// One past the highest processor id that emitted, or 0 if empty.
    pub fn nprocs(&self) -> usize {
        self.events
            .iter()
            .map(|e| e.proc as usize + 1)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_snapshot_phases() {
        let t = Tracer::new();
        t.emit(0, 10, EventKind::FaultBegin, 1, 0x1000, 0);
        t.emit(1, 20, EventKind::Freeze, 0, 5, 0);
        let p = t.begin_phase("second-case");
        assert_eq!(p, 1);
        t.emit(0, 30, EventKind::Thaw, 0, 5, 0);
        let trace = t.snapshot();
        assert_eq!(trace.events.len(), 3);
        assert_eq!(trace.dropped, 0);
        assert_eq!(trace.phases, vec!["run", "second-case"]);
        // seq order across processors
        assert!(trace.events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(trace.events[2].phase, 1);
        assert_eq!(trace.count(EventKind::Freeze), 1);
        assert_eq!(trace.for_page(5).len(), 2);
        assert!(trace
            .events
            .iter()
            .all(|e| !e.kind.page_is_cpage() || e.page == 5));
        assert_eq!(trace.nprocs(), 2);
    }

    #[test]
    fn concurrent_emit_from_distinct_procs() {
        let t = Tracer::new();
        std::thread::scope(|s| {
            for p in 0..4 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..1000 {
                        t.emit(p, i, EventKind::Invalidate, 0, i, 0);
                    }
                });
            }
        });
        let trace = t.snapshot();
        assert_eq!(trace.events.len(), 4000);
        // The global sequence is a permutation: all seqs distinct.
        let mut seqs: Vec<u64> = trace.events.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 4000);
    }
}
