//! Machine and timing configuration.

use crate::topology::Topology;

/// Time for the block-transfer engine to move one 32-bit word, ns (§4.1:
/// a 4 KB page in about 1.1 ms). Machine-wide, as on the Butterfly Plus:
/// no topology scales it.
pub const BLOCK_WORD_NS: u64 = 1100;

/// Percentage of each involved node's memory-bus bandwidth a block
/// transfer consumes (§7: 75% on both nodes).
pub(crate) const BLOCK_BUS_FRACTION_PCT: u64 = 75;

/// Cost to deliver an interprocessor interrupt to one target and have it
/// run the Cmap synchronization handler, ns. The paper deduces roughly
/// 7 us per interrupted processor (§4). Machine-wide: the kernel charges
/// it per target whatever the distance.
pub const IPI_NS: u64 = 7000;

/// Default virtual-clock coupling window of free-running threads, ns
/// ([`MachineConfig::skew_window_ns`]).
pub const SKEW_WINDOW_NS: u64 = 2_000_000;

/// Default width of the contention model's utilization buckets, ns
/// ([`MachineConfig::contention_bucket_ns`]); the UMA comparator's bus
/// books in the same buckets.
pub(crate) const CONTENTION_BUCKET_NS: u64 = 100_000;

/// Word latencies and memory-module service times of the paper's machine,
/// the inputs `Topology::flat` and [`Topology::hier2`] build their
/// distance classes from.
///
/// Defaults are the figures the paper publishes for the 16-processor BBN
/// Butterfly Plus (§4, §4.1): a local 32-bit reference costs about 320 ns,
/// a remote read about 5000 ns ("write operations are faster").
#[derive(Clone, Debug)]
pub struct TimingConfig {
    /// Latency of a local 32-bit read, in nanoseconds.
    pub local_read_ns: u64,
    /// Latency of a local 32-bit write, in nanoseconds.
    pub local_write_ns: u64,
    /// Latency of a remote 32-bit read through the switch, in nanoseconds.
    pub remote_read_ns: u64,
    /// Latency of a remote 32-bit write, in nanoseconds. The paper notes
    /// writes are faster than the 5000 ns remote read because the requester
    /// need not wait for the reply data.
    pub remote_write_ns: u64,
    /// Latency of a local atomic read-modify-write.
    pub local_atomic_ns: u64,
    /// Latency of a remote atomic read-modify-write (the Butterfly's
    /// remote atomic 32-bit operations).
    pub remote_atomic_ns: u64,
    /// Memory-module occupancy per local access (service time for the
    /// contention model).
    pub module_service_local_ns: u64,
    /// Memory-module occupancy per remote access.
    pub module_service_remote_ns: u64,
}

impl Default for TimingConfig {
    fn default() -> Self {
        Self {
            local_read_ns: 320,
            local_write_ns: 320,
            remote_read_ns: 5000,
            remote_write_ns: 2500,
            local_atomic_ns: 640,
            remote_atomic_ns: 6000,
            module_service_local_ns: 320,
            module_service_remote_ns: 600,
        }
    }
}

/// Configuration of the simulated machine.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of nodes; each node has one processor and one memory module,
    /// as on the Butterfly Plus.
    pub nodes: usize,
    /// Number of page frames per memory module. The Butterfly Plus node
    /// had 4 MB; with 4 KB pages that is 1024 frames.
    pub frames_per_node: usize,
    /// log2 of the page size in bytes (default 12, i.e. 4 KB, the paper's
    /// default page size).
    pub page_shift: u32,
    /// Machine description for hierarchical or asymmetric interconnects.
    /// `None` (the default) charges through `Topology::flat` built from
    /// [`TimingConfig::default`]: the paper's Butterfly.
    pub topology: Option<Topology>,
    /// If set, conservative virtual-time coupling of free-running threads:
    /// a `Sim::run` thread whose clock runs more than this many
    /// nanoseconds ahead of the slowest running processor stalls until
    /// the others catch up, as contention booking assumes. A context run
    /// stepped (`Sim::steps`, a `Lockstep`) is never held: one host thread
    /// orders those processors by their clocks instead.
    pub skew_window_ns: Option<u64>,
    /// Width of the contention model's utilization buckets, ns. Should
    /// comfortably exceed typical access latencies and sit well below the
    /// skew window.
    pub contention_bucket_ns: u64,
    /// Whether processors may use the ATC frame-handle fast path: on an
    /// ATC hit with sufficient rights, the access resolves through cached
    /// frame/module pointers instead of walking the machine's tables. The
    /// timing model, counters and traces are identical either way — this
    /// only changes host-side work per simulated access. `false` forces
    /// every access through the reference slow path. Nothing ships that
    /// way: its only callers are the three equivalence suites
    /// (`machine/tests/fast_path_equiv.rs`,
    /// `core/tests/fast_path_kernel_equiv.rs`,
    /// `core/tests/ptable_equiv.rs`), which compare the fast path against
    /// it. It is the reference those tests need, not a second mode to
    /// simplify away.
    pub fast_path: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            nodes: 16,
            frames_per_node: 1024,
            page_shift: 12,
            topology: None,
            skew_window_ns: Some(SKEW_WINDOW_NS),
            contention_bucket_ns: CONTENTION_BUCKET_NS,
            fast_path: true,
        }
    }
}

impl MachineConfig {
    /// A machine with the given number of nodes and defaults otherwise.
    pub fn with_nodes(nodes: usize) -> Self {
        Self {
            nodes,
            ..Self::default()
        }
    }

    /// The page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        1u64 << self.page_shift
    }

    /// The page size in 32-bit words.
    pub fn words_per_page(&self) -> usize {
        (self.page_bytes() / 4) as usize
    }

    /// Validates the configuration.
    ///
    /// Returns a description of the first problem found, if any.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 || self.nodes > 4096 {
            return Err(format!("nodes must be 1..=4096, got {}", self.nodes));
        }
        if let Some(topo) = &self.topology {
            topo.validate(self.nodes)?;
        }
        if self.page_shift < 4 || self.page_shift > 20 {
            return Err(format!(
                "page_shift must be 4..=20, got {}",
                self.page_shift
            ));
        }
        if self.frames_per_node == 0 {
            return Err("frames_per_node must be nonzero".to_string());
        }
        if self.contention_bucket_ns == 0 {
            return Err("contention_bucket_ns must be nonzero".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let t = TimingConfig::default();
        assert_eq!(t.local_read_ns, 320);
        assert_eq!(t.remote_read_ns, 5000);
        assert_eq!(BLOCK_WORD_NS, 1100);
        assert_eq!(BLOCK_BUS_FRACTION_PCT, 75);
        let c = MachineConfig::default();
        assert_eq!(c.page_bytes(), 4096);
        assert_eq!(c.words_per_page(), 1024);
        assert_eq!(c.nodes, 16);
        c.validate().expect("default config must validate");
    }

    #[test]
    fn latency_table() {
        // Node 0 against itself and against node 1 of the default machine.
        let t = Topology::flat(2, &TimingConfig::default());
        assert_eq!(t.link(0, 0).read_ns, 320);
        assert_eq!(t.link(0, 1).read_ns, 5000);
        assert_eq!(t.link(0, 1).write_ns, 2500);
        assert_eq!(t.link(0, 1).atomic_ns, 6000);
        assert!(t.service_time(0, 0) < t.service_time(0, 1));
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = MachineConfig {
            nodes: 0,
            ..MachineConfig::default()
        };
        assert!(c.validate().is_err());
        c.nodes = 4097;
        assert!(c.validate().is_err());
        c.nodes = 65; // beyond the old u64-mask cap: now a valid machine
        assert!(c.validate().is_ok());
        c.nodes = 16;
        c.page_shift = 2;
        assert!(c.validate().is_err());
        c.page_shift = 12;
        c.frames_per_node = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn topology_node_count_must_match() {
        let t = TimingConfig::default();
        let mut c = MachineConfig::with_nodes(16);
        c.topology = Some(Topology::flat(8, &t));
        assert!(c.validate().is_err());
        c.topology = Some(Topology::hier2(16, 2, &t));
        c.validate().expect("matching topology validates");
    }
}
