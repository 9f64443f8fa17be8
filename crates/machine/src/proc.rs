//! Simulated processors: the thread-owned core.

use std::sync::Arc;

use crate::addr::{PhysPage, ProcId, Vpn};
use crate::atc::{Atc, FrameHandle, ATC_ENTRIES};
use crate::config::{BLOCK_BUS_FRACTION_PCT, BLOCK_WORD_NS};
use crate::contention::BucketCursor;
use crate::frame::Frame;
use crate::machine::Machine;
use crate::module::MemoryModule;
use crate::stats::AccessCounters;

/// The kind of a single-word memory access, for the timing model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A 32-bit load.
    Read,
    /// A 32-bit store.
    Write,
    /// An atomic read-modify-write (the Butterfly's remote atomics).
    Atomic,
}

/// The thread-owned core of one simulated processor.
///
/// Exactly one OS thread drives each `ProcCore`; it holds the processor's
/// virtual clock, its private [`Atc`], and its access counters. All timing
/// charges go through here; pacing host threads is [`crate::skew`]'s job.
pub struct ProcCore {
    machine: Arc<Machine>,
    id: ProcId,
    vtime: u64,
    atc: Atc,
    /// Every counter but the word references, kept by `[local][kind]` in
    /// `refs` (one indexed add per access) and filled in by `counters()`.
    counters: AccessCounters,
    refs: [[u64; 3]; 2],
    /// Per-destination word latencies, `lat[to] = [read, write, atomic]`,
    /// resolved from the machine's [`crate::Topology`] at construction so
    /// every charge is one array index, and copied by `atc_insert` into
    /// the entry a fast-path hit charges from. The topology is immutable
    /// after boot, so the rows never drift.
    lat: Box<[[u32; 3]]>,
    /// Per-destination memory-module service times, same resolution.
    svc: Box<[u32]>,
    /// Cached `MachineConfig::fast_path`.
    fast_enabled: bool,
    /// The contention bucket the clock is in, memoized once for every
    /// module (they share `contention_bucket_ns`, and the bucket depends
    /// on the clock alone), keeping the bucket-index division off every
    /// word charge, fast path and slow. Purely a host-side memoization:
    /// `reserve_with` books what a fresh cursor would.
    cursor: BucketCursor,
}

// A core moves to the host thread that drives it; it is `Send` through
// its fields alone (`Atc`'s impl covers the frame handles).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ProcCore>();
};

/// Books `n` consecutive word accesses on `module`, each paying `latency`
/// and occupying `service` ns of its bus, from clock `vtime`; returns the
/// clock after the last access and the queueing delay on the way.
///
/// The service is booked across the virtual time the stream actually
/// spans, one contention bucket at a time, so a self-paced stream never
/// queues behind itself: a chunk is the accesses that start before the
/// clock's bucket ends, `ceil(left / step)` of the `left` ns remaining in
/// it. That division runs only where it must:
///
/// * not at all when the rest of the stream fits (`ceil(left / step) >=
///   remaining` iff `left > step * (remaining - 1)`);
/// * once per stream when the clock is less than one `step` into its
///   bucket — where a stream that crossed the last edge without queueing
///   always lands — because with `bucket_ns = q * step + r` and an offset
///   `into < step`, `ceil((bucket_ns - into) / step)` is `q + (r > into)`;
/// * per bucket only after a queueing delay moved the clock further in.
#[inline(always)]
fn book_stream(
    cursor: &mut BucketCursor,
    mut vtime: u64,
    module: &MemoryModule,
    latency: u64,
    service: u64,
    n: u64,
) -> (u64, u64) {
    let bucket_ns = module.bucket_ns();
    let step = latency.max(1);
    let mut per_bucket = None;
    let mut remaining = n;
    let mut queue_delay = 0u64;
    while remaining > 0 {
        let into = module.bucket_into(cursor, vtime);
        let left = bucket_ns - into;
        let chunk = if left > step * (remaining - 1) {
            remaining
        } else if into < step {
            let (q, r) = *per_bucket.get_or_insert_with(|| (bucket_ns / step, bucket_ns % step));
            q + u64::from(r > into)
        } else {
            left.div_ceil(step)
        };
        let start = module.reserve_with(cursor, vtime, service * chunk);
        queue_delay += start - vtime;
        vtime = start + latency * chunk;
        remaining -= chunk;
    }
    (vtime, queue_delay)
}

/// The outcome of a [`ProcCore::fast_path`] probe.
pub enum FastPath<'a> {
    /// ATC hit with sufficient rights: the access has been charged
    /// (identically to [`ProcCore::charge_word_access`]) and the caller
    /// performs the data movement on the returned frame.
    Hit(&'a Frame),
    /// ATC hit, but the access is a write and the cached entry is
    /// read-only. Nothing was charged; the caller takes the protection
    /// fault exactly as the slow path would.
    NoRights,
    /// ATC miss. Nothing was charged beyond the miss count; the caller
    /// refills from the Pmap or faults, exactly as the slow path would.
    Miss,
}

impl ProcCore {
    /// Creates the core for processor `id` with its clock at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a valid processor of `machine`.
    pub fn new(machine: Arc<Machine>, id: ProcId, start: u64) -> Self {
        assert!(id < machine.nprocs(), "processor {id} out of range");
        let atc = Atc::new(ATC_ENTRIES);
        let topo = machine.topology();
        let narrow = |ns: u64| u32::try_from(ns).expect("Topology::validate bounds every class");
        let lat = (0..machine.nprocs())
            .map(|to| {
                let link = topo.link(id, to);
                [link.read_ns, link.write_ns, link.atomic_ns].map(narrow)
            })
            .collect();
        let svc = (0..machine.nprocs())
            .map(|to| narrow(topo.service_time(id, to)))
            .collect();
        let fast_enabled = machine.cfg().fast_path;
        Self {
            machine,
            id,
            vtime: start,
            atc,
            counters: AccessCounters::default(),
            refs: [[0; 3]; 2],
            lat,
            svc,
            fast_enabled,
            cursor: BucketCursor::default(),
        }
    }

    /// The processor id (also the node id of its local memory module).
    #[inline]
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// The machine this processor belongs to.
    #[inline]
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// The processor's private address translation cache.
    #[inline]
    pub fn atc(&mut self) -> &mut Atc {
        &mut self.atc
    }

    /// The current virtual time, in nanoseconds.
    #[inline]
    pub fn vtime(&self) -> u64 {
        self.vtime
    }

    /// Advances the virtual clock by `ns` (modelled computation).
    #[inline]
    pub fn charge(&mut self, ns: u64) {
        self.vtime += ns;
    }

    /// Advances the virtual clock by `ns` of computation, counting it.
    #[inline]
    pub fn charge_compute(&mut self, ns: u64) {
        self.vtime += ns;
        self.counters.compute_ns += ns;
    }

    /// Moves the clock forward to at least `t` (virtual-time propagation
    /// through synchronization: an acquirer cannot proceed before the
    /// releaser released).
    #[inline]
    pub fn advance_to(&mut self, t: u64) {
        if t > self.vtime {
            self.vtime = t;
        }
    }

    /// The processor's access counters so far.
    pub fn counters(&self) -> AccessCounters {
        let [[remote_reads, remote_writes, remote_atomics], [local_reads, local_writes, local_atomics]] =
            self.refs;
        let s = self.atc.stats();
        AccessCounters {
            local_reads,
            remote_reads,
            local_writes,
            remote_writes,
            local_atomics,
            remote_atomics,
            atc_hits: s.hits,
            atc_misses: s.misses,
            ..self.counters.clone()
        }
    }

    /// Whether the machine's configuration enables the access fast path.
    #[inline]
    pub fn fast_path_enabled(&self) -> bool {
        self.fast_enabled
    }

    /// Mutable access to the counters, for the kernel to record faults.
    /// The word-reference and ATC counts are not kept here: writes to
    /// them are overwritten by [`ProcCore::counters`].
    pub fn counters_mut(&mut self) -> &mut AccessCounters {
        &mut self.counters
    }

    /// Whether this processor's IPI doorbell is rung, consuming it.
    #[inline(always)]
    pub fn take_ipi(&self) -> bool {
        self.machine.take_ipi(self.id)
    }

    /// Charges one word access to the memory holding `pp` and performs the
    /// module reservation for the contention model. Returns nothing; the
    /// caller performs the actual data movement on the frame.
    pub fn charge_word_access(&mut self, pp: PhysPage, kind: AccessKind) {
        let local = pp.module_id() == self.id;
        let latency = u64::from(self.lat[pp.module_id()][kind as usize]);
        let service = u64::from(self.svc[pp.module_id()]);
        let module = self.machine.module(pp.module_id());
        let start = module.reserve_with(&mut self.cursor, self.vtime, service);
        let queue_delay = start - self.vtime;
        self.vtime = start + latency;
        self.counters.queue_delay_ns += queue_delay;
        self.count(local, kind, 1);
    }

    /// Counts `n` word accesses of `kind`, on or off this processor's node.
    #[inline(always)]
    fn count(&mut self, local: bool, kind: AccessKind, n: u64) {
        self.refs[usize::from(local)][kind as usize] += n;
    }

    /// Installs an ATC translation with a resolved frame handle, so hits
    /// on it can take the access fast path. The handle carries this
    /// processor's latencies and service time against `pp`'s node.
    ///
    /// Functionally identical to `core.atc().insert(..)`; the only
    /// difference is host-side (the cached pointers and charge).
    pub fn atc_insert(&mut self, asid: u32, vpn: Vpn, pp: PhysPage, writable: bool) {
        let to = pp.module_id();
        let module = self.machine.module(to);
        let handle = FrameHandle {
            frame: module.frame(pp.frame_id()),
            module,
            local: to == self.id,
            latency: self.lat[to],
            service: self.svc[to],
        };
        self.atc.insert_with_handle(asid, vpn, pp, writable, handle);
    }

    /// The single-word access fast path: one ATC probe that, on a hit with
    /// sufficient rights, charges the access from the probed entry's own
    /// cache line — its frame handle carries the latency and the service
    /// time — and hands the frame straight back: no machine table walk, no
    /// timing-row lookup, no kernel involvement.
    ///
    /// Every observable effect (virtual time, queue-delay and access
    /// counters, ATC hit/miss counts, module reservations) is identical to
    /// the reference path of `atc().lookup(..)`, [`Self::charge_word_access`],
    /// and `Machine::frame_data`. On [`FastPath::NoRights`] or
    /// [`FastPath::Miss`] nothing is charged and the caller continues
    /// exactly where the slow path would (protection fault, or Pmap
    /// refill/fault respectively).
    #[inline(always)]
    pub fn fast_path(
        &mut self,
        asid: u32,
        vpn: Vpn,
        write: bool,
        kind: AccessKind,
    ) -> FastPath<'_> {
        let Some((pp, writable, h)) = self.atc.lookup_with_handle(asid, vpn) else {
            return FastPath::Miss;
        };
        if write && !writable {
            return FastPath::NoRights;
        }
        if h.is_null() {
            // Entry installed without resolved pointers (plain insert):
            // charge through the machine as the slow path does.
            self.charge_word_access(pp, kind);
            return FastPath::Hit(self.machine.frame_data(pp));
        }
        let (frame, module) = h.resolve(&self.machine);
        let start = module.reserve_with(&mut self.cursor, self.vtime, u64::from(h.service));
        self.counters.queue_delay_ns += start - self.vtime;
        self.vtime = start + u64::from(h.latency[kind as usize]);
        self.refs[usize::from(h.local)][kind as usize] += 1;
        FastPath::Hit(frame)
    }

    /// An uncharged variant of [`Self::fast_path`], for spin reads: the
    /// ATC probe counts identically and the frame is resolved the same
    /// way, but no virtual time or access counters are charged.
    #[inline(always)]
    pub fn fast_probe(&mut self, asid: u32, vpn: Vpn, write: bool) -> FastPath<'_> {
        let Some((pp, writable, h)) = self.atc.lookup_with_handle(asid, vpn) else {
            return FastPath::Miss;
        };
        if write && !writable {
            return FastPath::NoRights;
        }
        if h.is_null() {
            return FastPath::Hit(self.machine.frame_data(pp));
        }
        FastPath::Hit(h.resolve(&self.machine).0)
    }

    /// The block form of [`Self::fast_path`], for software block copies:
    /// one ATC probe that, on a hit with sufficient rights, charges `n`
    /// consecutive words exactly as [`Self::charge_word_block`] would —
    /// from the entry's own latency, service time and module — and hands
    /// the frame back. A miss or a rights fault charges nothing beyond the
    /// probe's count.
    #[inline]
    pub fn fast_block(
        &mut self,
        asid: u32,
        vpn: Vpn,
        write: bool,
        kind: AccessKind,
        n: u64,
    ) -> FastPath<'_> {
        let Some((pp, writable, h)) = self.atc.lookup_with_handle(asid, vpn) else {
            return FastPath::Miss;
        };
        if write && !writable {
            return FastPath::NoRights;
        }
        if h.is_null() {
            self.charge_word_block(pp, kind, n);
            return FastPath::Hit(self.machine.frame_data(pp));
        }
        let (frame, module) = h.resolve(&self.machine);
        let latency = u64::from(h.latency[kind as usize]);
        let (vtime, delay) = book_stream(
            &mut self.cursor,
            self.vtime,
            module,
            latency,
            u64::from(h.service),
            n,
        );
        self.vtime = vtime;
        self.counters.queue_delay_ns += delay;
        self.refs[usize::from(h.local)][kind as usize] += n;
        FastPath::Hit(frame)
    }

    /// Charges `n` consecutive word accesses to the module holding `pp`,
    /// for software block copies (`read_block` and friends). Latency is
    /// per word — a software loop on the Butterfly pays full latency per
    /// reference — and the module service is booked across the virtual
    /// time the stream actually spans, one contention bucket at a time,
    /// so a self-paced stream never queues behind itself.
    pub fn charge_word_block(&mut self, pp: PhysPage, kind: AccessKind, n: u64) {
        if n == 0 {
            return;
        }
        let to = pp.module_id();
        let (vtime, delay) = book_stream(
            &mut self.cursor,
            self.vtime,
            self.machine.module(to),
            u64::from(self.lat[to][kind as usize]),
            u64::from(self.svc[to]),
            n,
        );
        self.vtime = vtime;
        self.counters.queue_delay_ns += delay;
        self.count(to == self.id, kind, n);
    }

    /// The resolved word latency this processor pays against the module
    /// on `to`, without charging anything. The translation fabric uses
    /// this to *account* walk costs under its uncharged (centralized)
    /// placement: pure arithmetic, no module reservation, no clock
    /// movement.
    #[inline]
    pub fn word_latency_to(&self, to: usize, kind: AccessKind) -> u64 {
        u64::from(self.lat[to][kind as usize])
    }

    /// Charges a kernel data-structure reference homed on `module`.
    ///
    /// The paper's fault-handler timings differ by ~40 us depending on
    /// whether "the relevant kernel data structures are local" (§4); the
    /// kernel calls this for each modelled structure touch.
    pub fn charge_kernel_ref(&mut self, module: usize, kind: AccessKind) {
        self.charge_word_access(PhysPage::new(module, 0), kind);
    }

    /// Performs a page-sized block transfer from `src` to `dst`: copies
    /// the data and charges the block-transfer engine's timing, occupying
    /// `BLOCK_BUS_FRACTION_PCT` of both modules' bus bandwidth for the
    /// duration (§7).
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` name the same frame.
    pub fn block_transfer(&mut self, src: PhysPage, dst: PhysPage) {
        assert_ne!(src, dst, "block transfer onto itself");
        let words = self.machine.cfg().words_per_page() as u64;
        let duration = words * BLOCK_WORD_NS;
        let ready = self.reserve_engines(src, dst, duration);
        if let Some(t) = self.machine.tracer() {
            use platinum_trace::EventKind;
            let route = (src.module_id() as u64) << 32 | dst.module_id() as u64;
            if ready > self.vtime {
                // The engine was busy: the transfer queued behind another
                // (the pivot-row serialization of §5.1).
                t.emit(
                    self.id,
                    self.vtime,
                    EventKind::ContentionStall,
                    0,
                    route,
                    ready - self.vtime,
                );
            }
            t.emit(self.id, ready, EventKind::BlockTransfer, 0, route, duration);
        }
        self.vtime = ready + duration;
        self.counters.block_transfers += 1;
        self.counters.block_words += words;

        let src_frame = self.machine.frame_data(src);
        self.machine
            .module(dst.module_id())
            .fill_frame(dst.frame_id(), src_frame);
    }

    /// Books the source's and the destination's transfer engines for a run
    /// of `duration` ns at the block-transfer bus share, counts the queueing
    /// delay, and returns when the transfer may start: when both engines
    /// are free and the initiator is ready. The serialization horizon is
    /// capped at four whole-page transfers so loosely-coupled clocks
    /// cannot queue behind far-future reservations (see
    /// `MemoryModule::reserve_block`).
    fn reserve_engines(&mut self, src: PhysPage, dst: PhysPage, duration: u64) -> u64 {
        let bus_occupancy = duration * BLOCK_BUS_FRACTION_PCT / 100;
        let cap = 4 * self.machine.cfg().words_per_page() as u64 * BLOCK_WORD_NS;
        let s1 = self
            .machine
            .module(src.module_id())
            .reserve_block(self.vtime, bus_occupancy, cap);
        let ready = if src.module_id() != dst.module_id() {
            self.machine
                .module(dst.module_id())
                .reserve_block(s1, bus_occupancy, cap)
        } else {
            s1
        };
        self.counters.queue_delay_ns += ready - self.vtime;
        ready
    }

    /// A block transfer that fails `fraction_pct`% of the way through
    /// (fault injection): the engines are occupied and the initiator
    /// charged for the partial copy, a word prefix actually lands in the
    /// destination frame, and the caller must retry whole-page before
    /// publishing the destination anywhere.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` name the same frame or
    /// `fraction_pct > 100`.
    pub fn failed_block_transfer(&mut self, src: PhysPage, dst: PhysPage, fraction_pct: u64) {
        assert_ne!(src, dst, "block transfer onto itself");
        assert!(fraction_pct <= 100, "fraction is a percentage");
        let words = self.machine.cfg().words_per_page() as u64;
        let copied = words * fraction_pct / 100;
        // Same queueing discipline as a successful transfer, for the
        // shorter duration the engine actually ran.
        let duration = copied * BLOCK_WORD_NS;
        let ready = self.reserve_engines(src, dst, duration);
        self.vtime = ready + duration;
        self.counters.block_words += copied;

        let src_frame = self.machine.frame_data(src);
        let dst_frame = self.machine.frame_data(dst);
        dst_frame.copy_prefix_from(src_frame, copied as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn machine(nodes: usize) -> Arc<Machine> {
        Machine::new(MachineConfig {
            nodes,
            frames_per_node: 16,
            skew_window_ns: None,
            ..MachineConfig::default()
        })
        .expect("valid config")
    }

    #[test]
    fn local_vs_remote_charging() {
        let m = machine(2);
        let mut core = ProcCore::new(Arc::clone(&m), 0, 0);
        core.charge_word_access(PhysPage::new(0, 0), AccessKind::Read);
        assert_eq!(core.vtime(), 320);
        core.charge_word_access(PhysPage::new(1, 0), AccessKind::Read);
        assert_eq!(core.vtime(), 320 + 5000);
        let c = core.counters();
        assert_eq!(c.local_reads, 1);
        assert_eq!(c.remote_reads, 1);
    }

    #[test]
    fn failed_block_transfer_leaves_torn_prefix_and_charges_partial_cost() {
        let m = machine(2);
        let words = m.cfg().words_per_page();
        let src = PhysPage::new(0, 0);
        let dst = PhysPage::new(1, 0);
        for w in 0..words {
            m.frame_data(src).store(w, 0x5000 + w as u32);
        }

        let mut core = ProcCore::new(Arc::clone(&m), 0, 0);
        core.failed_block_transfer(src, dst, 50);
        let half = words / 2;
        assert_eq!(
            core.counters().block_words,
            half as u64,
            "half the page moved"
        );
        let partial_vtime = core.vtime();
        assert!(partial_vtime > 0, "the engine ran for the partial copy");
        assert_eq!(m.frame_data(dst).load(half - 1), 0x5000 + half as u32 - 1);
        assert_eq!(
            m.frame_data(dst).load(half),
            0,
            "words past the tear untouched"
        );

        // The whole-page retry overwrites the torn prefix completely.
        core.block_transfer(src, dst);
        for w in 0..words {
            assert_eq!(m.frame_data(dst).load(w), 0x5000 + w as u32);
        }
        let full_cost = core.vtime() - partial_vtime;
        assert!(
            full_cost > partial_vtime,
            "a full transfer costs more than a half transfer ({full_cost} vs {partial_vtime})"
        );
    }

    #[test]
    fn contention_queues_at_module() {
        // Fifteen remote processors hammer node 0's module: each demands
        // 600 ns of service per 5000 ns of latency (12%), so fifteen of
        // them (180%) overload the module and someone must queue.
        let m = machine(16);
        let mut cores: Vec<ProcCore> = (1..16)
            .map(|p| ProcCore::new(Arc::clone(&m), p, 0))
            .collect();
        for _ in 0..200 {
            for c in cores.iter_mut() {
                c.charge_word_access(PhysPage::new(0, 0), AccessKind::Read);
            }
        }
        let total: u64 = cores.iter().map(|c| c.counters().queue_delay_ns).sum();
        assert!(total > 100_000, "sustained overload must queue: {total}");
    }

    #[test]
    fn block_transfer_copies_and_charges() {
        let m = machine(2);
        let mut core = ProcCore::new(Arc::clone(&m), 0, 0);
        let src = PhysPage::new(0, 0);
        let dst = PhysPage::new(1, 0);
        let words = m.cfg().words_per_page();
        for w in 0..words {
            m.frame_data(src).store(w, 0xab00 + w as u32);
        }
        // The destination was never used: the transfer materialises it
        // holding exactly the source's words.
        assert_eq!(m.frames_materialized(), 1);
        core.block_transfer(src, dst);
        assert_eq!(m.frames_materialized(), 2);
        for w in 0..words {
            assert_eq!(m.frame_data(dst).load(w), 0xab00 + w as u32, "word {w}");
        }
        // 1024 words at 1100 ns each = 1.1264 ms, the paper's ~1.11 ms
        // for a 4 KB page.
        assert_eq!(core.vtime(), 1024 * 1100);
        assert_eq!(core.counters().block_words, 1024);
        // The modules' buses were occupied: word traffic during the
        // transfer queues.
        let mut other = ProcCore::new(Arc::clone(&m), 1, 100_000);
        other.charge_word_access(PhysPage::new(0, 0), AccessKind::Read);
        assert!(
            other.counters().queue_delay_ns > 0,
            "word access during a block transfer must queue"
        );
    }

    #[test]
    fn block_transfers_from_same_source_serialize() {
        let m = machine(3);
        let mut a = ProcCore::new(Arc::clone(&m), 1, 0);
        let mut b = ProcCore::new(Arc::clone(&m), 2, 0);
        a.block_transfer(PhysPage::new(0, 0), PhysPage::new(1, 0));
        b.block_transfer(PhysPage::new(0, 1), PhysPage::new(2, 0));
        // b's transfer could not start until a's released the source
        // engine: this is the hardware serialization the paper blames for
        // pivot-row contention in Gaussian elimination (§5.1).
        let occupancy = 1024 * 1100 * 75 / 100;
        assert_eq!(b.counters().queue_delay_ns, occupancy);
    }

    #[test]
    fn fast_path_matches_reference_path() {
        let m = machine(2);
        let mut fast = ProcCore::new(Arc::clone(&m), 0, 0);
        let mut slow = ProcCore::new(Arc::clone(&m), 0, 0);
        let local = PhysPage::new(0, 0);
        let remote = PhysPage::new(1, 0);
        fast.atc_insert(7, 10, local, true);
        fast.atc_insert(7, 11, remote, false);
        slow.atc().insert(7, 10, local, true);
        slow.atc().insert(7, 11, remote, false);

        // Same access sequence through both paths. Module utilization
        // stays far below a contention bucket, so the shared modules do
        // not couple the two cores' clocks.
        let seq = [
            (10, false, AccessKind::Read),
            (10, true, AccessKind::Write),
            (11, false, AccessKind::Read),
        ];
        for (vpn, write, kind) in seq {
            assert!(matches!(
                fast.fast_path(7, vpn, write, kind),
                FastPath::Hit(_)
            ));
            let (pp, _) = slow.atc().lookup(7, vpn).expect("resident");
            slow.charge_word_access(pp, kind);
        }
        assert_eq!(fast.vtime(), slow.vtime());
        let (cf, cs) = (fast.counters(), slow.counters());
        assert_eq!(cf.local_reads, cs.local_reads);
        assert_eq!(cf.local_writes, cs.local_writes);
        assert_eq!(cf.remote_reads, cs.remote_reads);
        assert_eq!(cf.queue_delay_ns, cs.queue_delay_ns);

        // Writes through a read-only entry and misses charge nothing.
        let before = fast.vtime();
        assert!(matches!(
            fast.fast_path(7, 11, true, AccessKind::Write),
            FastPath::NoRights
        ));
        assert!(matches!(
            fast.fast_path(7, 99, false, AccessKind::Read),
            FastPath::Miss
        ));
        assert_eq!(fast.vtime(), before);

        // Fast-path data movement reaches the same storage.
        if let FastPath::Hit(f) = fast.fast_path(7, 10, true, AccessKind::Write) {
            f.store(3, 0xfeed);
        }
        assert_eq!(m.frame_data(local).load(3), 0xfeed);
    }

    /// The slow path's charging as it was before the processor's cursor
    /// served it, restated: every booking through a fresh cursor (the
    /// division every time), the position in the bucket by `%`, the chunk
    /// by an unconditional `div_ceil`.
    struct Reference {
        m: Arc<Machine>,
        id: ProcId,
        vtime: u64,
        queue_delay_ns: u64,
    }

    impl Reference {
        fn word_block(&mut self, module: usize, kind: AccessKind, n: u64) {
            let topo = self.m.topology();
            let link = topo.link(self.id, module);
            let latency = match kind {
                AccessKind::Read => link.read_ns,
                AccessKind::Write => link.write_ns,
                AccessKind::Atomic => link.atomic_ns,
            };
            let service = topo.service_time(self.id, module);
            let bucket_ns = self.m.cfg().contention_bucket_ns;
            let mut remaining = n;
            while remaining > 0 {
                let into = self.vtime % bucket_ns;
                let room = (bucket_ns - into).div_ceil(latency.max(1)).max(1);
                let chunk = remaining.min(room);
                let start = self.m.module(module).reserve_with(
                    &mut BucketCursor::default(),
                    self.vtime,
                    service * chunk,
                );
                self.queue_delay_ns += start - self.vtime;
                self.vtime = start + latency * chunk;
                remaining -= chunk;
            }
        }

        fn block_transfer(&mut self, src: usize, dst: usize) {
            let duration = self.m.cfg().words_per_page() as u64 * BLOCK_WORD_NS;
            let occupancy = duration * BLOCK_BUS_FRACTION_PCT / 100;
            let s1 = self
                .m
                .module(src)
                .reserve_block(self.vtime, occupancy, 4 * duration);
            let ready = self
                .m
                .module(dst)
                .reserve_block(s1, occupancy, 4 * duration);
            self.queue_delay_ns += ready - self.vtime;
            self.vtime = ready + duration;
        }
    }

    #[test]
    fn slow_path_through_the_cursor_matches_cursorless_charging() {
        use AccessKind::{Atomic, Read, Write};
        enum Step {
            At(u64),
            Kernel(usize, AccessKind),
            Words(usize, AccessKind, u64),
            Transfer(usize, usize),
        }
        use Step::{At, Kernel, Transfer, Words};
        const B: u64 = 100_000; // the default contention bucket
        let mut script = vec![
            // Kernel references hopping between modules inside one
            // bucket, then across an edge.
            Kernel(1, Read),
            Kernel(2, Write),
            Kernel(0, Atomic),
            Kernel(3, Read),
            At(B - 1),
            Kernel(1, Read),
            Kernel(1, Read),
        ];
        // Five remote reads (5000 ns apart) and ten local ones (320 ns)
        // placed so the last starts exactly on the bucket edge, 1 ns
        // before it, and 1 ns past it.
        for (module, n, step) in [(1, 5, 5000), (0, 10, 320)] {
            for left in [step * (n - 1), step * (n - 1) + 1, step * (n - 1) - 1] {
                script.extend([At(3 * B - left), Words(module, Read, n)]);
            }
        }
        script.extend([
            // A run longer than several buckets, and a one-word run.
            At(5 * B + 7),
            Words(2, Write, 150),
            Words(2, Read, 1),
            // Overload one bucket of module 1 (the clock steps back, as
            // it does across kernel entries) so the delays are nonzero.
            At(10 * B),
            Words(1, Read, 19),
            At(10 * B),
            Words(1, Read, 19),
            At(10 * B + 50),
            Words(1, Atomic, 19),
            At(10 * B + 60),
            Kernel(1, Read),
            // A block transfer between the word traffic: its bus share
            // queues the references that follow, on both modules, and it
            // must not disturb the cursor.
            At(20 * B + 10),
            Kernel(2, Read),
            Transfer(2, 3),
            At(20 * B + 20),
            Kernel(2, Read),
            Words(3, Read, 30),
            Transfer(2, 0),
            Kernel(0, Write),
            // A generation of the ring later, and a laggard behind it.
            At(64 * B + 5),
            Words(1, Read, 40),
            At(5),
            Kernel(1, Read),
        ]);

        let (with, without) = (machine(4), machine(4));
        let mut core = ProcCore::new(Arc::clone(&with), 0, 0);
        let mut reference = Reference {
            m: Arc::clone(&without),
            id: 0,
            vtime: 0,
            queue_delay_ns: 0,
        };
        let mut clocks = Vec::new();
        for (i, step) in script.iter().enumerate() {
            match *step {
                At(t) => {
                    core.vtime = t;
                    reference.vtime = t;
                }
                Kernel(module, kind) => {
                    core.charge_kernel_ref(module, kind);
                    reference.word_block(module, kind, 1);
                }
                Words(module, kind, n) => {
                    core.charge_word_block(PhysPage::new(module, 0), kind, n);
                    reference.word_block(module, kind, n);
                }
                Transfer(src, dst) => {
                    core.block_transfer(PhysPage::new(src, 0), PhysPage::new(dst, 1));
                    reference.block_transfer(src, dst);
                }
            }
            assert_eq!(core.vtime(), reference.vtime, "vtime after step {i}");
            assert_eq!(
                core.counters().queue_delay_ns,
                reference.queue_delay_ns,
                "queue delay after step {i}"
            );
            clocks.push(core.vtime());
        }
        assert!(reference.queue_delay_ns > 0, "the script must queue");
        for module in 0..4 {
            for &t in &clocks {
                // A transfer books up to nine buckets past its start.
                for ahead in 0..10 {
                    let at = t.saturating_sub(ahead * B);
                    assert_eq!(
                        with.module(module).bus_load_at(at),
                        without.module(module).bus_load_at(at),
                        "module {module} load at {at}"
                    );
                }
            }
        }
    }

    /// `charge_word_block` as it was before its chunking went
    /// division-free: `left.div_ceil(step)` at every bucket edge.
    fn charge_word_block_div_ceil(core: &mut ProcCore, pp: PhysPage, kind: AccessKind, n: u64) {
        if n == 0 {
            return;
        }
        let local = pp.module_id() == core.id;
        let latency = u64::from(core.lat[pp.module_id()][kind as usize]);
        let service = u64::from(core.svc[pp.module_id()]);
        let bucket_ns = core.machine.cfg().contention_bucket_ns;
        let module = core.machine.module(pp.module_id());
        let step = latency.max(1);
        let mut remaining = n;
        let mut queue_delay = 0u64;
        while remaining > 0 {
            let left = bucket_ns - module.bucket_into(&mut core.cursor, core.vtime);
            let chunk = if left > step * (remaining - 1) {
                remaining
            } else {
                left.div_ceil(step)
            };
            let start = module.reserve_with(&mut core.cursor, core.vtime, service * chunk);
            queue_delay += start - core.vtime;
            core.vtime = start + latency * chunk;
            remaining -= chunk;
        }
        core.counters.queue_delay_ns += queue_delay;
        core.count(local, kind, n);
    }

    use proptest::prelude::*;

    proptest! {
        /// The division-free chunking books what the per-edge `div_ceil`
        /// booked, block for block: the same clock, the same queueing
        /// delay, the same load in every bucket the streams touched. Each
        /// case runs a few blocks (local or remote, every access kind)
        /// from arbitrary clocks, over rings already holding bookings —
        /// light ones, and ones that overload a bucket so the streams
        /// queue and land arbitrarily far into the next. The bucket
        /// widths include ones no latency divides and ones the remote
        /// read's 5000 ns does.
        #[test]
        fn block_chunking_matches_div_ceil_oracle(
            bucket_ns in prop_oneof![Just(100_000u64), Just(7919u64), Just(1000u64), Just(320u64), Just(20_000u64)],
            booked in prop::collection::vec((0usize..2, 0u64..40, 0u64..1 << 20, 0u64..3), 0..24),
            blocks in prop::collection::vec(
                (0u64..40 * 100_000, 0u64..1100, 0u8..3, any::<bool>(), 0u8..3),
                1..6,
            ),
        ) {
            let build = || {
                Machine::new(MachineConfig {
                    nodes: 2,
                    frames_per_node: 4,
                    skew_window_ns: None,
                    contention_bucket_ns: bucket_ns,
                    ..MachineConfig::default()
                })
                .expect("valid config")
            };
            let (new, old) = (build(), build());
            // Bookings already in the ring: a bucket's worth of load
            // times 0..3 (overloaded at 2), in buckets the blocks reach.
            for &(module, bucket, offset, times) in &booked {
                let now = bucket * bucket_ns + offset % bucket_ns;
                let service = times * bucket_ns / 2 + offset % 600;
                for m in [&new, &old] {
                    let _ = m.module(module).reserve_with(&mut BucketCursor::default(), now, service);
                }
            }
            let mut a = ProcCore::new(Arc::clone(&new), 0, 0);
            let mut b = ProcCore::new(Arc::clone(&old), 0, 0);
            let mut spans = Vec::new();
            for &(at, n, kind, remote, jump) in &blocks {
                let kind = [AccessKind::Read, AccessKind::Write, AccessKind::Atomic][usize::from(kind)];
                // A jump moves the clock (kernel entries may step it
                // back) to anywhere, or to a whole number of the block's
                // steps past a bucket edge; otherwise the block streams
                // on from the last.
                let pp = PhysPage::new(usize::from(remote), 0);
                let step = a.word_latency_to(pp.module_id(), kind).max(1);
                let to = at * bucket_ns / 100_000;
                match jump {
                    0 => {}
                    1 => a.vtime = to,
                    _ => a.vtime = to - to % bucket_ns + at % 3 * step,
                }
                b.vtime = a.vtime;
                let from = a.vtime;
                a.charge_word_block(pp, kind, n);
                charge_word_block_div_ceil(&mut b, pp, kind, n);
                prop_assert_eq!(a.vtime(), b.vtime(), "clock after {} words", n);
                prop_assert_eq!(
                    a.counters().queue_delay_ns,
                    b.counters().queue_delay_ns,
                    "queue delay after {} words",
                    n
                );
                spans.push((from, a.vtime()));
            }
            prop_assert_eq!(a.counters(), b.counters());
            for (from, to) in spans {
                let mut at = from - from % bucket_ns;
                while at <= to {
                    for module in 0..2 {
                        prop_assert_eq!(
                            new.module(module).bus_load_at(at),
                            old.module(module).bus_load_at(at),
                            "module {} load at {}",
                            module,
                            at
                        );
                    }
                    at += bucket_ns;
                }
            }
        }
    }

    #[test]
    fn hierarchical_topology_charges_by_distance() {
        use crate::config::TimingConfig;
        use crate::topology::Topology;
        // 4 nodes, 2 sockets x 1 die: {0,1} on socket 0, {2,3} on socket 1.
        let mut cfg = MachineConfig {
            nodes: 4,
            frames_per_node: 4,
            skew_window_ns: None,
            ..MachineConfig::default()
        };
        cfg.topology = Some(Topology::hier2(4, 1, &TimingConfig::default()));
        let m = Machine::new(cfg).unwrap();
        let mut core = ProcCore::new(Arc::clone(&m), 0, 0);
        core.charge_word_access(PhysPage::new(1, 0), AccessKind::Read);
        assert_eq!(core.vtime(), 5000, "same-socket read is 1-hop remote");
        core.charge_word_access(PhysPage::new(2, 0), AccessKind::Read);
        assert_eq!(core.vtime(), 5000 + 10_000, "cross-socket read is 2x");
        core.charge_word_access(PhysPage::new(0, 0), AccessKind::Read);
        assert_eq!(core.vtime(), 5000 + 10_000 + 320, "local unchanged");
        // The fast path charges through the same per-destination rows.
        let mut fast = ProcCore::new(Arc::clone(&m), 0, 0);
        fast.atc_insert(7, 10, PhysPage::new(2, 0), false);
        assert!(matches!(
            fast.fast_path(7, 10, false, AccessKind::Read),
            FastPath::Hit(_)
        ));
        assert_eq!(fast.vtime(), 10_000);
        // Counters still classify by on/off node, not by hop count.
        assert_eq!(fast.counters().remote_reads, 1);
    }

    #[test]
    fn ipi_doorbell() {
        let m = machine(2);
        let core = ProcCore::new(Arc::clone(&m), 0, 0);
        assert!(!core.take_ipi());
        m.post_ipi(0);
        assert!(core.take_ipi());
        assert!(!core.take_ipi(), "doorbell is consumed");
    }

    #[test]
    fn vtime_propagation() {
        let m = machine(1);
        let mut core = ProcCore::new(Arc::clone(&m), 0, 100);
        core.advance_to(50);
        assert_eq!(core.vtime(), 100, "advance_to never goes backwards");
        core.advance_to(500);
        assert_eq!(core.vtime(), 500);
    }
}
