//! The machine: modules, processor signalling state, and global queries.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use platinum_trace::Tracer;

use crate::addr::{PhysPage, ProcId};
use crate::config::{MachineConfig, TimingConfig};
use crate::frame::Frame;
use crate::module::MemoryModule;
use crate::skew::SkewWindow;
use crate::topology::Topology;

/// A simulated NUMA multiprocessor: one processor and one memory module
/// per node, joined by a switch modelled through per-module contention
/// accounting.
///
/// The `Machine` is passive hardware: it owns the storage and the
/// signalling state, while all activity is driven by [`crate::ProcCore`]s
/// owned by the threads simulating each processor, and by the kernel built
/// on top (the `platinum` crate).
pub struct Machine {
    cfg: MachineConfig,
    /// The resolved machine description: `cfg.topology`, or the paper's
    /// flat Butterfly when none was given. Every word latency and module
    /// service time routes through this.
    topology: Topology,
    modules: Box<[MemoryModule]>,
    /// Per-processor IPI doorbells, rung by [`Machine::post_ipi`].
    doorbells: Box<[AtomicBool]>,
    skew: SkewWindow,
    /// Protocol-event tracer, installed at most once per machine. Every
    /// layer above (kernel, runtime) emits through this single registry
    /// so one timeline covers hardware and kernel events.
    tracer: OnceLock<Arc<Tracer>>,
}

impl Machine {
    /// Builds a machine from `cfg`.
    ///
    /// Returns an error string when the configuration is invalid.
    pub fn new(cfg: MachineConfig) -> Result<Arc<Self>, String> {
        cfg.validate()?;
        let topology = cfg
            .topology
            .clone()
            .unwrap_or_else(|| Topology::flat(cfg.nodes, &TimingConfig::default()));
        let words = cfg.words_per_page();
        let modules = (0..cfg.nodes)
            .map(|n| MemoryModule::new(n, cfg.frames_per_node, words, cfg.contention_bucket_ns))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let doorbells = (0..cfg.nodes).map(|_| AtomicBool::new(false)).collect();
        let skew = SkewWindow::new(cfg.nodes, cfg.skew_window_ns);
        let tracer = OnceLock::new();
        // A process-global tracer (platinum_trace::install_global) is
        // picked up automatically, so harnesses can enable tracing
        // without threading a handle through every constructor.
        if let Some(t) = platinum_trace::global() {
            let _ = tracer.set(t);
        }
        Ok(Arc::new(Self {
            cfg,
            topology,
            modules,
            doorbells,
            skew,
            tracer,
        }))
    }

    /// Installs a protocol-event tracer on this machine. Returns `false`
    /// if one was already installed (the first installation wins).
    ///
    /// Install before attaching any threads: emit sites read the
    /// registry on every event, but a run traced from the middle has a
    /// truncated timeline.
    pub fn install_tracer(&self, tracer: Arc<Tracer>) -> bool {
        self.tracer.set(tracer).is_ok()
    }

    /// The installed tracer, if any.
    #[inline]
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.get()
    }

    /// The machine's configuration.
    #[inline]
    pub fn cfg(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The resolved machine description (defaults to the paper's flat
    /// Butterfly).
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The number of processors (== nodes == memory modules).
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.cfg.nodes
    }

    /// The memory module on node `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    #[inline]
    pub fn module(&self, m: usize) -> &MemoryModule {
        &self.modules[m]
    }

    /// The skew window coupling the processors' clocks.
    #[inline]
    pub fn skew(&self) -> &SkewWindow {
        &self.skew
    }

    /// The storage of physical page `pp`.
    ///
    /// # Panics
    ///
    /// Panics if `pp` names a nonexistent module or frame.
    #[inline]
    pub fn frame_data(&self, pp: PhysPage) -> &Frame {
        self.modules[pp.module_id()].frame(pp.frame_id())
    }

    /// Rings processor `target`'s IPI doorbell.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    pub fn post_ipi(&self, target: ProcId) {
        self.doorbells[target].store(true, Ordering::Release);
    }

    /// Whether processor `p`'s doorbell is rung, consuming it.
    #[inline(always)]
    pub(crate) fn take_ipi(&self, p: ProcId) -> bool {
        // A relaxed load keeps the RMW off the path when none is pending.
        let bell = &self.doorbells[p];
        bell.load(Ordering::Relaxed) && bell.swap(false, Ordering::Acquire)
    }

    /// Total frames allocated across all modules.
    pub fn frames_allocated(&self) -> usize {
        self.modules.iter().map(|m| m.frames_allocated()).sum()
    }

    /// Contention bookings dropped across all modules because a ring
    /// slot already held a newer generation
    /// (`crate::BucketedResource::lost_bookings`): contention the run
    /// did not see.
    pub fn lost_bookings(&self) -> u64 {
        self.modules.iter().map(MemoryModule::lost_bookings).sum()
    }

    /// Total frames whose storage has been materialised across all
    /// modules — what the machine has cost the host so far, in pages.
    pub fn frames_materialized(&self) -> usize {
        self.modules.iter().map(|m| m.frames_materialized()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_queries() {
        let m = Machine::new(MachineConfig {
            nodes: 4,
            frames_per_node: 8,
            ..MachineConfig::default()
        })
        .unwrap();
        assert_eq!(m.nprocs(), 4);
        assert_eq!(m.module(3).node(), 3);
        assert_eq!(m.frames_allocated(), 0);
        m.module(2).alloc_frame(7).unwrap();
        assert_eq!(m.frames_allocated(), 1);
    }

    #[test]
    fn invalid_config_rejected() {
        let cfg = MachineConfig {
            nodes: 0,
            ..MachineConfig::default()
        };
        assert!(Machine::new(cfg).is_err());
    }

    #[test]
    fn vtime_aggregates() {
        let m = Machine::new(MachineConfig::with_nodes(3)).unwrap();
        assert!(!m.skew().holds(u64::MAX - 1), "all idle at start");
        m.skew().post(2, 0);
        assert!(
            m.skew().holds(crate::SKEW_WINDOW_NS + 1),
            "the default window"
        );
    }

    #[test]
    fn lost_bookings_sum_over_modules() {
        use crate::proc::{AccessKind, ProcCore};
        let m = Machine::new(MachineConfig {
            nodes: 2,
            frames_per_node: 4,
            skew_window_ns: None,
            ..MachineConfig::default()
        })
        .unwrap();
        // Two ring generations ahead: the same slots of both modules.
        let ahead = 2 * 64 * m.cfg().contention_bucket_ns;
        let mut early = ProcCore::new(Arc::clone(&m), 0, ahead);
        let mut late = ProcCore::new(Arc::clone(&m), 1, 0);
        for module in 0..2 {
            early.charge_word_access(PhysPage::new(module, 0), AccessKind::Read);
        }
        assert_eq!(m.lost_bookings(), 0);
        late.charge_word_access(PhysPage::new(0, 0), AccessKind::Read);
        late.charge_word_block(PhysPage::new(1, 0), AccessKind::Read, 3);
        assert_eq!(m.module(0).lost_bookings(), 1);
        assert_eq!(
            m.module(1).lost_bookings(),
            1,
            "a block books its bucket once"
        );
        assert_eq!(m.lost_bookings(), 2);
        assert_eq!(
            late.counters().queue_delay_ns,
            0,
            "a dropped booking never queues"
        );
    }

    #[test]
    fn frame_data_reachable() {
        let m = Machine::new(MachineConfig {
            nodes: 2,
            frames_per_node: 4,
            ..MachineConfig::default()
        })
        .unwrap();
        let pp = PhysPage::new(1, 2);
        m.frame_data(pp).store(0, 123);
        assert_eq!(m.frame_data(pp).load(0), 123);
    }
}
