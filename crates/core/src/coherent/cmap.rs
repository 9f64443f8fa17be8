//! Cmap entries and the shootdown message queues (§2.3 of the paper).

use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use numa_machine::{AtomicProcSet, ProcSet, Vpn};

use crate::coherent::cpage::Cpage;
use crate::hash::FastMap;
use crate::ids::{CpageId, Rights};

/// A Cmap entry: the cached composition of the virtual-to-object and
/// object-to-coherent mappings for one virtual page of one address space.
///
/// "A Cmap entry is analogous to a page table entry. It contains a
/// pointer to the coherent page, an access rights field, and a bit vector
/// called the reference mask" (§2.3).
pub struct CmapEntry {
    /// The name of the coherent page this virtual page maps to
    /// (`page.id()`).
    pub cpage: CpageId,
    /// The "pointer to the coherent page": the handle a fault locks the
    /// page through, so nothing between a fault and its resolution looks
    /// the page up by name.
    pub page: Arc<Cpage>,
    /// The rights the virtual memory system granted (virtual-to-coherent
    /// level). The protocol may restrict the physical mapping further.
    pub rights: Rights,
    /// Reference mask: processor `p` is a member when it holds a
    /// virtual-to-physical translation for this page in its Pmap.
    /// Maintained with atomics so faulting processors and shootdown
    /// targets never need a shared lock.
    pub refmask: AtomicProcSet,
}

impl CmapEntry {
    /// Creates an entry with an empty reference mask, sized for a machine
    /// of `nprocs` processors.
    pub(crate) fn new(page: Arc<Cpage>, rights: Rights, nprocs: usize) -> Self {
        Self {
            cpage: page.id(),
            page,
            rights,
            refmask: AtomicProcSet::with_capacity(nprocs),
        }
    }

    /// Marks processor `p` as holding a translation.
    #[inline]
    pub(crate) fn set_ref(&self, p: usize) {
        self.refmask.insert(p);
    }

    /// Clears processor `p`'s reference bit.
    #[inline]
    pub(crate) fn clear_ref(&self, p: usize) {
        self.refmask.remove(p);
    }

    /// A snapshot of the current reference mask.
    #[inline]
    pub fn refs(&self) -> ProcSet {
        self.refmask.load()
    }
}

/// A shootdown directive carried by a Cmap message (§2.3: "a directive
/// either to invalidate the current translation or to restrict the access
/// rights in it").
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Directive {
    /// Remove the virtual-to-physical translation entirely.
    Invalidate,
    /// Remove the translation only if it points at a physical copy on one
    /// of the modules in the set (used when selected replicas are being
    /// reclaimed; translations to the surviving copy are left intact).
    InvalidateModules(ProcSet),
    /// Downgrade the translation to read-only.
    RestrictToRead,
}

impl Directive {
    /// The directive's code byte in `ShootdownInit` / `ShootdownAck`
    /// trace events.
    pub(crate) fn code(&self) -> u8 {
        match self {
            Directive::Invalidate => 0,
            Directive::InvalidateModules(_) => 1,
            Directive::RestrictToRead => 2,
        }
    }
}

/// A Cmap message: "describes a change made to a virtual address space
/// that affects virtual-to-physical mappings held by two or more
/// processors" (§2.3).
pub struct CmapMsg {
    /// The virtual page whose translation must change.
    pub vpn: Vpn,
    /// What to do to it.
    pub directive: Directive,
    /// Processors that still have to apply the change; each target removes
    /// itself after updating its Pmap ("it applies the change to its
    /// Pmap and removes itself from the target mask").
    pub targets: AtomicProcSet,
}

impl CmapMsg {
    /// Creates a message for `targets`.
    pub(crate) fn new(vpn: Vpn, directive: Directive, targets: &ProcSet) -> Arc<Self> {
        Arc::new(Self {
            vpn,
            directive,
            targets: AtomicProcSet::from_set(targets),
        })
    }

    /// Rewrites the message in place for reuse. Requires exclusive access
    /// (`Arc::get_mut`), which proves no queue, target, or waiter still
    /// holds the message — the per-processor message pools rely on this
    /// to recycle acknowledged messages without heap traffic.
    pub(crate) fn reset(&mut self, vpn: Vpn, directive: Directive, targets: &ProcSet) {
        self.vpn = vpn;
        self.directive = directive;
        self.targets.store_from(targets);
    }

    /// Acknowledges the change for `p`: the removal from the target mask
    /// is the whole acknowledgment. It is a release, so everything `p`
    /// did to its Pmap and ATC before acking happens-before the
    /// initiator's observation that `p` is no longer pending. The
    /// initiator's clock is not advanced to the target's: it was charged
    /// the interrupt cost when it posted, and `Kernel::batch_flush` only
    /// waits.
    #[inline]
    pub(crate) fn ack(&self, p: usize) {
        self.targets.remove(p);
    }

    /// A snapshot of the processors that have not yet applied the change.
    #[inline]
    pub(crate) fn pending(&self) -> ProcSet {
        self.targets.load()
    }

    /// Whether processor `p` still has to apply the change.
    #[inline]
    pub(crate) fn pending_for_proc(&self, p: usize) -> bool {
        self.targets.contains(p)
    }

    /// Whether any processor in `set` has yet to apply the change — the
    /// snapshot-free test initiators spin on while awaiting their own
    /// targets.
    #[inline]
    pub(crate) fn pending_intersects(&self, set: &ProcSet) -> bool {
        self.targets.intersects(set)
    }
}

/// The per-address-space Cmap: the virtual-to-coherent page table plus the
/// queues of recent mapping-change messages (§2.3).
///
/// Messages are delivered to a private queue per target processor, so a
/// shootdown target drains its own queue without contending with
/// initiators posting to other processors.
pub struct Cmap {
    /// Virtual-to-coherent entries, created lazily on first fault.
    entries: RwLock<FastMap<Vpn, Arc<CmapEntry>>>,
    /// "A queue of Cmap messages describing recent changes to the address
    /// space" — one per target processor. A message for several targets is
    /// enqueued on each target's queue; queue `p` only ever holds messages
    /// with `p` in their target set.
    queues: Box<[Mutex<Vec<Arc<CmapMsg>>>]>,
    /// Number of processors on the machine this Cmap serves; sizes new
    /// reference masks.
    nprocs: usize,
}

impl Cmap {
    /// An empty Cmap serving a machine of `nprocs` processors.
    ///
    /// # Panics
    ///
    /// Panics if `nprocs` is 0.
    pub(crate) fn new(nprocs: usize) -> Self {
        assert!(nprocs > 0, "Cmap needs at least one processor queue");
        Self {
            entries: RwLock::new(FastMap::default()),
            queues: (0..nprocs).map(|_| Mutex::new(Vec::new())).collect(),
            nprocs,
        }
    }

    /// An empty entry for `vpn`-insertion, sized for this machine.
    pub(crate) fn make_entry(&self, page: Arc<Cpage>, rights: Rights) -> CmapEntry {
        CmapEntry::new(page, rights, self.nprocs)
    }

    /// Looks up the entry for `vpn`.
    pub fn entry(&self, vpn: Vpn) -> Option<Arc<CmapEntry>> {
        self.entries.read().get(&vpn).cloned()
    }

    /// The reference mask of the entry for `vpn`, read without an Arc
    /// round-trip — the shootdown post path only needs the mask.
    pub fn refs_of(&self, vpn: Vpn) -> Option<ProcSet> {
        self.entries.read().get(&vpn).map(|e| e.refs())
    }

    /// Runs `f` on the entry for `vpn`, if present, under the read
    /// lock — the message-apply path's `clear_ref` without cloning the
    /// entry handle.
    pub(crate) fn with_entry(&self, vpn: Vpn, f: impl FnOnce(&CmapEntry)) {
        if let Some(e) = self.entries.read().get(&vpn) {
            f(e);
        }
    }

    /// Inserts an entry for `vpn`, returning the entry actually in the
    /// table (the existing one if another processor raced the insert).
    pub(crate) fn insert(&self, vpn: Vpn, entry: CmapEntry) -> Arc<CmapEntry> {
        let mut map = self.entries.write();
        Arc::clone(map.entry(vpn).or_insert_with(|| Arc::new(entry)))
    }

    /// Removes and returns the entry for `vpn` (unmap).
    pub(crate) fn remove(&self, vpn: Vpn) -> Option<Arc<CmapEntry>> {
        self.entries.write().remove(&vpn)
    }

    /// All (vpn, entry) pairs; report and teardown support.
    pub fn snapshot(&self) -> Vec<(Vpn, Arc<CmapEntry>)> {
        let map = self.entries.read();
        map.iter().map(|(v, e)| (*v, Arc::clone(e))).collect()
    }

    /// Posts a message: it is enqueued on the private queue of every
    /// processor in its (current) target set.
    pub(crate) fn post(&self, msg: &Arc<CmapMsg>) {
        for p in msg.pending().iter() {
            self.queues[p].lock().push(Arc::clone(msg));
        }
    }

    /// The messages still pending for processor `p`: a non-destructive
    /// peek (tests and reports). Only the target's own drain,
    /// [`Cmap::pending_for_into`], removes anything.
    pub fn pending_for(&self, p: usize) -> Vec<Arc<CmapMsg>> {
        let q = self.queues[p].lock();
        q.iter()
            .filter(|m| m.pending_for_proc(p))
            .cloned()
            .collect()
    }

    /// The drain: *takes* everything queued for processor `p` by swapping
    /// the locked queue with `out`, the caller's empty buffer. The caller
    /// applies and acknowledges every message it took — only `p`'s drain
    /// ever acks for `p`, so all of them are still pending. The two
    /// buffers trade capacities, so the steady state never allocates.
    ///
    /// The queue mutex is taken even when the queue turns out empty: the
    /// activate-then-drain / post-then-check handshake ([`ActiveSpace`])
    /// rests on this acquisition ordering the drain against a racing
    /// `post`, so an unlocked emptiness test may not replace it.
    ///
    /// [`ActiveSpace`]: crate::coherent::active::ActiveSpace
    pub(crate) fn pending_for_into(&self, p: usize, out: &mut Vec<Arc<CmapMsg>>) {
        debug_assert!(out.is_empty(), "a drain hands in an empty buffer");
        let mut q = self.queues[p].lock();
        if !q.is_empty() {
            std::mem::swap(&mut *q, out);
        }
        drop(q);
        debug_assert!(out.iter().all(|m| m.pending_for_proc(p)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coherent::cpage::CpageTable;

    /// Number of distinct unacknowledged messages.
    fn queue_len(c: &Cmap) -> usize {
        let mut seen = std::collections::HashSet::new();
        for q in c.queues.iter() {
            for m in q.lock().iter() {
                if !m.pending().is_empty() {
                    seen.insert(Arc::as_ptr(m));
                }
            }
        }
        seen.len()
    }

    #[test]
    fn refmask_bits() {
        let e = CmapEntry::new(CpageTable::new().alloc(0), Rights::RW, 16);
        assert!(e.refs().is_empty());
        e.set_ref(3);
        e.set_ref(7);
        assert_eq!(e.refs(), ProcSet::from_mask((1 << 3) | (1 << 7)));
        e.clear_ref(3);
        assert_eq!(e.refs(), ProcSet::single(7));
    }

    #[test]
    fn refmask_holds_big_machine_ids() {
        let e = CmapEntry::new(CpageTable::new().alloc(0), Rights::RW, 256);
        e.set_ref(0);
        e.set_ref(200);
        assert_eq!(e.refs().iter().collect::<Vec<_>>(), vec![0, 200]);
        e.clear_ref(200);
        assert_eq!(e.refs(), ProcSet::single(0));
    }

    #[test]
    fn message_ack_drains() {
        let m = CmapMsg::new(5, Directive::Invalidate, &ProcSet::from_mask(0b1011));
        m.ack(0);
        m.ack(3);
        assert_eq!(m.pending(), ProcSet::from_mask(0b0010));
        m.ack(1);
        assert!(m.pending().is_empty());
    }

    /// What `UserCtx::drain_messages` does with a queue: take it, ack
    /// everything taken.
    fn drain(c: &Cmap, p: usize, buf: &mut Vec<Arc<CmapMsg>>) -> Vec<Vpn> {
        c.pending_for_into(p, buf);
        buf.drain(..)
            .map(|m| {
                assert!(m.pending_for_proc(p));
                m.ack(p);
                m.vpn
            })
            .collect()
    }

    #[test]
    fn queue_post_pending_compact() {
        let c = Cmap::new(64);
        let m1 = CmapMsg::new(1, Directive::Invalidate, &ProcSet::from_mask(0b01));
        let m2 = CmapMsg::new(2, Directive::RestrictToRead, &ProcSet::from_mask(0b11));
        c.post(&m1);
        c.post(&m2);
        assert_eq!(queue_len(&c), 2);

        // A message for two targets reaches both private queues, and
        // peeking never removes.
        for _ in 0..2 {
            assert_eq!(c.pending_for(0).len(), 2);
            let pending1 = c.pending_for(1);
            assert_eq!(pending1.len(), 1);
            assert_eq!(pending1[0].vpn, 2);
        }

        // A drain takes its own queue whole, once, and leaves the other
        // target's alone.
        let mut buf = Vec::new();
        assert_eq!(drain(&c, 0, &mut buf), vec![1, 2]);
        assert!(c.pending_for(0).is_empty());
        assert!(
            drain(&c, 0, &mut buf).is_empty(),
            "nothing is delivered twice"
        );
        assert_eq!(c.pending_for(1).len(), 1);
        assert_eq!(queue_len(&c), 1);
        assert_eq!(drain(&c, 1, &mut buf), vec![2]);
        assert_eq!(queue_len(&c), 0);
    }

    /// The drain and the queue trade buffers, so neither grows: after
    /// warm-up both capacities stay where two rounds left them.
    #[test]
    fn drain_ping_pongs_bounded_capacities() {
        let c = Cmap::new(64);
        let mut buf = Vec::new();
        for round in 0..10_000u64 {
            let m = CmapMsg::new(round, Directive::Invalidate, &ProcSet::from_mask(0b11));
            c.post(&m);
            for p in 0..2 {
                assert_eq!(drain(&c, p, &mut buf), vec![round]);
            }
            assert!(buf.capacity() <= 4, "scratch grew to {}", buf.capacity());
            for q in c.queues.iter() {
                assert!(q.lock().capacity() <= 4, "queue grew");
            }
        }
    }

    #[test]
    fn posted_message_skips_non_targets() {
        let c = Cmap::new(64);
        c.post(&CmapMsg::new(
            4,
            Directive::Invalidate,
            &ProcSet::from_mask(0b100),
        ));
        assert!(c.pending_for(0).is_empty());
        assert!(c.pending_for(1).is_empty());
        let p2 = c.pending_for(2);
        assert_eq!(p2.len(), 1);
        assert_eq!(p2[0].vpn, 4);
    }

    #[test]
    fn messages_reach_targets_beyond_64() {
        let c = Cmap::new(128);
        let m = CmapMsg::new(7, Directive::Invalidate, &ProcSet::single(127));
        c.post(&m);
        assert!(c.pending_for(0).is_empty());
        let q = c.pending_for(127);
        assert_eq!(q.len(), 1);
        m.ack(127);
        assert!(c.pending_for(127).is_empty());
        assert!(m.pending().is_empty());
    }

    /// A target the machine does not have is a bug in the caller: the
    /// post fails loudly instead of dropping the message.
    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn post_to_a_processor_the_cmap_was_not_sized_for_panics() {
        let c = Cmap::new(128);
        c.post(&CmapMsg::new(
            7,
            Directive::Invalidate,
            &ProcSet::single(128),
        ));
    }

    #[test]
    fn acked_messages_are_compacted_not_delivered() {
        let c = Cmap::new(64);
        let m = CmapMsg::new(9, Directive::RestrictToRead, &ProcSet::from_mask(0b11));
        c.post(&m);
        // A peek reports what is still owed, not what sits in the queue.
        m.ack(1);
        assert!(c.pending_for(1).is_empty());
        assert_eq!(c.pending_for(0).len(), 1);
    }

    #[test]
    fn insert_race_returns_existing() {
        let c = Cmap::new(64);
        let t = CpageTable::new();
        let a = c.insert(9, c.make_entry(t.alloc(0), Rights::RO));
        let b = c.insert(9, c.make_entry(t.alloc(0), Rights::RW));
        assert!(Arc::ptr_eq(&a, &b), "second insert must not replace");
        assert_eq!(b.cpage, CpageId(0));
        assert_eq!(b.page.id(), b.cpage);
        assert!(c.remove(9).is_some());
        assert!(c.entry(9).is_none());
    }
}
