//! Event kinds and the decoded event record.

/// What happened. Grouped by the layer that emits it.
///
/// The `page` and `arg` payload words of a [`TraceEvent`] are
/// kind-specific:
///
/// | kind | `code` | `page` | `arg` |
/// |------|--------|--------|-------|
/// | `FaultBegin` | 1 if write fault | faulting va | 0 |
/// | `FaultEnd` | [`FaultResolution`] | coherent page id | begin vtime (ns) |
/// | `VmFault` | 0 | faulting va | 0 |
/// | `Replicate` | 0 | coherent page id | source module |
/// | `Migrate` | 0 | coherent page id | source module |
/// | `RemoteMap` | 0 | coherent page id | home module |
/// | `Invalidate` | directive code | coherent page id | surviving module |
/// | `Freeze` | 0 | coherent page id | ns since last invalidation |
/// | `Thaw` | 0 | coherent page id | 0 |
/// | `ShootdownInit` | directive code | coherent page id | target count |
/// | `ShootdownAck` | directive code | vpn | initiator proc |
/// | `Ipi` | 0 | coherent page id | target proc |
/// | `BlockTransfer` | 0 | src module << 32 \| dst module | duration (ns) |
/// | `ContentionStall` | 0 | module | queue delay (ns) |
/// | `LockWait` | 0 | coherent page id | wait (ns) |
/// | `ReplicaEvict` | 0 | coherent page id | evicted module |
/// | `FrameFree` | 0 | coherent page id | module |
/// | `DefrostRun` | 0 | pages examined | pages thawed |
/// | `LockAcquire` | 0 | lock va | spin iterations |
/// | `LockRelease` | 0 | lock va | 0 |
/// | `PolicyDecision` | 0=replicate 1=map 2=map+freeze | coherent page id | 0 |
/// | `MemError` | retry attempt | coherent page id | faulty module |
/// | `ShootdownTimeout` | retry attempt | coherent page id | silent proc |
/// | `TransferFault` | retry attempt | coherent page id | src module |
/// | `AllocFault` | probe attempt | coherent page id | refusing module |
/// | `FaultRecovery` | `platinum::FaultSite` | coherent page id | begin vtime (ns) |
/// | `ServerRequest` | 0=read 1=write 2=pipeline | request key | latency (ns) |
/// | `PtWalk` | placement code | faulting vpn | walk cost (ns) |
/// | `PtPopulate` | placement code | space id | populate cost (ns) |
/// | `PtInval` | 0 | space id | staled holder count |
/// | `PtInvalDrop` | retry attempt | space id | staled holder count |
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum EventKind {
    /// A coherency fault entered the kernel.
    FaultBegin = 0,
    /// The fault resolved; `code` says how.
    FaultEnd = 1,
    /// A virtual-memory fault (zero fill / first touch of a mapping).
    VmFault = 2,
    /// A page copy was created on the faulting processor's module.
    Replicate = 3,
    /// The page's only copy moved to the faulting processor's module.
    Migrate = 4,
    /// The fault was resolved by mapping an existing copy remotely.
    RemoteMap = 5,
    /// Copies were invalidated down to one (directed by a write).
    Invalidate = 6,
    /// The page froze: further faults remote-map instead of moving it.
    Freeze = 7,
    /// The page thawed (defrost daemon or explicit thaw).
    Thaw = 8,
    /// A TLB/ATC shootdown round started.
    ShootdownInit = 9,
    /// A processor acknowledged a shootdown message.
    ShootdownAck = 10,
    /// An interprocessor interrupt was posted.
    Ipi = 11,
    /// The block-transfer engine copied a page between modules.
    BlockTransfer = 12,
    /// A memory-module queue delayed an access (switch contention).
    ContentionStall = 13,
    /// A processor waited for another's coherent-page lock.
    LockWait = 14,
    /// A replica was evicted to satisfy an allocation (frame pressure).
    ReplicaEvict = 15,
    /// A frame returned to its module's free list.
    FrameFree = 16,
    /// The defrost daemon ran.
    DefrostRun = 17,
    /// An application spin lock was acquired (runtime layer).
    LockAcquire = 18,
    /// An application spin lock was released (runtime layer).
    LockRelease = 19,
    /// The replication policy chose how to resolve a fault.
    PolicyDecision = 20,
    /// An injected transient memory-module error hit a frame read.
    MemError = 21,
    /// A shootdown ack never arrived; the initiator timed out.
    ShootdownTimeout = 22,
    /// A block transfer failed mid-copy and must be retried whole-page.
    TransferFault = 23,
    /// A memory module refused a frame allocation (injected fault).
    AllocFault = 24,
    /// A fault-injection episode finished recovering; `arg` carries the
    /// vtime at which the first error was observed, so exporters can
    /// render the whole fault → retry → recovery episode as a span.
    FaultRecovery = 25,
    /// The server workload tier completed one request; `code` is the
    /// request class (0 read, 1 write, 2 pipeline), `page` the request
    /// key, `arg` the request's virtual-time latency in ns.
    ServerRequest = 26,
    /// A simulated page-table walk on an ATC miss (translation fabric);
    /// `code` is the placement, `page` the faulting vpn, `arg` the ns
    /// charged for the walk.
    PtWalk = 27,
    /// A node populated its translation replica for a space; `code` is
    /// the placement, `page` the space id, `arg` the ns charged.
    PtPopulate = 28,
    /// A translation-replica stale mark was written into a shootdown
    /// round's message; `page` is the space id, `arg` the number of
    /// holder replicas it stales.
    PtInval = 29,
    /// An injected drop of a translation-replica stale mark: the
    /// initiator timed out and rewrote it (`code` is the retry
    /// attempt).
    PtInvalDrop = 30,
}

impl EventKind {
    /// Number of kinds (counters and decode tables are sized by this).
    pub const COUNT: usize = 31;

    /// Every kind, in discriminant order.
    pub const ALL: [EventKind; EventKind::COUNT] = [
        EventKind::FaultBegin,
        EventKind::FaultEnd,
        EventKind::VmFault,
        EventKind::Replicate,
        EventKind::Migrate,
        EventKind::RemoteMap,
        EventKind::Invalidate,
        EventKind::Freeze,
        EventKind::Thaw,
        EventKind::ShootdownInit,
        EventKind::ShootdownAck,
        EventKind::Ipi,
        EventKind::BlockTransfer,
        EventKind::ContentionStall,
        EventKind::LockWait,
        EventKind::ReplicaEvict,
        EventKind::FrameFree,
        EventKind::DefrostRun,
        EventKind::LockAcquire,
        EventKind::LockRelease,
        EventKind::PolicyDecision,
        EventKind::MemError,
        EventKind::ShootdownTimeout,
        EventKind::TransferFault,
        EventKind::AllocFault,
        EventKind::FaultRecovery,
        EventKind::ServerRequest,
        EventKind::PtWalk,
        EventKind::PtPopulate,
        EventKind::PtInval,
        EventKind::PtInvalDrop,
    ];

    /// Decodes a discriminant produced by `kind as u8`.
    pub fn from_u8(v: u8) -> Option<EventKind> {
        EventKind::ALL.get(v as usize).copied()
    }

    /// A short stable name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::FaultBegin => "fault_begin",
            EventKind::FaultEnd => "fault",
            EventKind::VmFault => "vm_fault",
            EventKind::Replicate => "replicate",
            EventKind::Migrate => "migrate",
            EventKind::RemoteMap => "remote_map",
            EventKind::Invalidate => "invalidate",
            EventKind::Freeze => "freeze",
            EventKind::Thaw => "thaw",
            EventKind::ShootdownInit => "shootdown",
            EventKind::ShootdownAck => "shootdown_ack",
            EventKind::Ipi => "ipi",
            EventKind::BlockTransfer => "block_transfer",
            EventKind::ContentionStall => "contention_stall",
            EventKind::LockWait => "cpage_lock_wait",
            EventKind::ReplicaEvict => "replica_evict",
            EventKind::FrameFree => "frame_free",
            EventKind::DefrostRun => "defrost_run",
            EventKind::LockAcquire => "lock_acquire",
            EventKind::LockRelease => "lock_release",
            EventKind::PolicyDecision => "policy",
            EventKind::MemError => "mem_error",
            EventKind::ShootdownTimeout => "shootdown_timeout",
            EventKind::TransferFault => "transfer_fault",
            EventKind::AllocFault => "alloc_fault",
            EventKind::FaultRecovery => "fault_recovery",
            EventKind::ServerRequest => "server_request",
            EventKind::PtWalk => "pt_walk",
            EventKind::PtPopulate => "pt_populate",
            EventKind::PtInval => "pt_inval",
            EventKind::PtInvalDrop => "pt_inval_drop",
        }
    }

    /// True for kinds that pass through the kernel's `record` choke
    /// point and are therefore mirrored one-for-one in the aggregate
    /// counters. `BlockTransfer` and `ContentionStall` are emitted
    /// directly by the simulated hardware below the kernel and have no
    /// counter.
    pub fn kernel_recorded(self) -> bool {
        !matches!(self, EventKind::BlockTransfer | EventKind::ContentionStall)
    }

    /// Whether this kind's `page` payload is a coherent page id (the
    /// per-Cpage timeline filters on this).
    pub fn page_is_cpage(self) -> bool {
        matches!(
            self,
            EventKind::FaultEnd
                | EventKind::Replicate
                | EventKind::Migrate
                | EventKind::RemoteMap
                | EventKind::Invalidate
                | EventKind::Freeze
                | EventKind::Thaw
                | EventKind::ShootdownInit
                | EventKind::Ipi
                | EventKind::LockWait
                | EventKind::ReplicaEvict
                | EventKind::FrameFree
                | EventKind::PolicyDecision
                | EventKind::MemError
                | EventKind::ShootdownTimeout
                | EventKind::TransferFault
                | EventKind::AllocFault
                | EventKind::FaultRecovery
        )
    }
}

/// How a coherency fault was resolved (`code` of [`EventKind::FaultEnd`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FaultResolution {
    /// First touch: fresh frame allocated and zero-filled.
    FirstTouch = 0,
    /// A local copy already satisfied the access (race or upgrade).
    LocalHit = 1,
    /// A new replica was created locally.
    Replicated = 2,
    /// The sole copy migrated to the local module.
    Migrated = 3,
    /// An existing remote copy was mapped (page may be frozen).
    RemoteMapped = 4,
}

impl FaultResolution {
    /// Decodes a discriminant produced by `res as u8`.
    pub fn from_u8(v: u8) -> Option<FaultResolution> {
        [
            FaultResolution::FirstTouch,
            FaultResolution::LocalHit,
            FaultResolution::Replicated,
            FaultResolution::Migrated,
            FaultResolution::RemoteMapped,
        ]
        .get(v as usize)
        .copied()
    }

    /// A short stable name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            FaultResolution::FirstTouch => "first_touch",
            FaultResolution::LocalHit => "local_hit",
            FaultResolution::Replicated => "replicated",
            FaultResolution::Migrated => "migrated",
            FaultResolution::RemoteMapped => "remote_mapped",
        }
    }
}

/// One decoded trace event (the in-ring representation is five packed
/// words; see the `ring` module).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global sequence number: a total order consistent with each
    /// emitting processor's program order.
    pub seq: u64,
    /// The emitting processor's virtual clock, ns.
    pub vtime: u64,
    /// The emitting processor.
    pub proc: u16,
    /// The tracer phase active when the event was emitted (an index
    /// into [`crate::Trace::phases`]).
    pub phase: u16,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific sub-code (see [`EventKind`]).
    pub code: u8,
    /// Kind-specific payload, usually a coherent page id.
    pub page: u64,
    /// Kind-specific payload (durations, modules, counts).
    pub arg: u64,
}
