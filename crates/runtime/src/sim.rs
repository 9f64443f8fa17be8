//! One-call simulator setup: the [`SimBuilder`] fluent facade.
//!
//! Booting a PLATINUM simulation by hand takes five steps — machine
//! config, `Machine::new`, `Kernel::boot`, `create_space`, and
//! per-thread `attach` — plus tracer and fault-plan installation for
//! instrumented runs. The builder folds all of that into one chain, and
//! everything above the kernel crate (applications, benchmark binaries,
//! trace replay, the server tier, examples) boots through it:
//!
//! ```
//! use platinum_runtime::sim::SimBuilder;
//! use platinum::PolicyKind;
//!
//! let sim = SimBuilder::nodes(4).policy(PolicyKind::Platinum).build();
//! let zone = sim.alloc_zone(1);
//! let v = sim.spawn(0, |ctx| {
//!     use numa_machine::Mem;
//!     ctx.write(zone.base(), 7);
//!     ctx.read(zone.base())
//! });
//! assert_eq!(v.unwrap(), 7);
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;

use numa_machine::{Machine, MachineConfig, Topology};
use platinum::trace::Tracer;
use platinum::{
    AddressSpace, FaultPlan, Kernel, KernelConfig, Lockstep, PolicyKind, PtableConfig, Rights,
    ShootdownMode, UserCtx,
};

use crate::measure::RunStats;
use crate::par::pool;
use crate::step::{schedule, worker_stats, Step};
use crate::zones::Zone;

/// Fluent builder for a booted simulation. Entry point: [`SimBuilder::nodes`].
///
/// Every knob is optional; the defaults are the paper's (PLATINUM policy,
/// per-processor-Pmap shootdown, 1 s defrost period) on a machine with a
/// deep enough frame pool that replication never hits memory pressure.
pub struct SimBuilder {
    nodes: usize,
    machine: Option<MachineConfig>,
    frames_per_node: Option<usize>,
    topology: Option<Topology>,
    kernel: KernelConfig,
    trace: Option<PathBuf>,
}

impl SimBuilder {
    /// Starts a builder for a `nodes`-node machine (one processor + one
    /// memory module per node, BBN Butterfly Plus latencies).
    pub fn nodes(nodes: usize) -> Self {
        Self {
            nodes,
            machine: None,
            frames_per_node: None,
            topology: None,
            kernel: KernelConfig::default(),
            trace: None,
        }
    }

    /// Replaces the whole machine configuration (overrides
    /// [`SimBuilder::nodes`] and [`SimBuilder::frames_per_node`]).
    pub fn machine_config(mut self, cfg: MachineConfig) -> Self {
        self.machine = Some(cfg);
        self
    }

    /// Physical frames per memory module (default 4096: deep enough that
    /// benchmarks replicate freely without frame exhaustion). Depth costs
    /// the host only an 8-byte inverted-page-table entry per frame — a
    /// frame's storage materialises on first use — but it is a model
    /// input: the inverted-page-table hash is `% frames`, so changing it
    /// moves probe counts and with them virtual time.
    pub fn frames_per_node(mut self, frames: usize) -> Self {
        self.frames_per_node = Some(frames);
        self
    }

    /// Installs a machine description (interconnect latency classes).
    /// Applies on top of whichever machine configuration the builder
    /// ends up with — the default one or an explicit
    /// [`SimBuilder::machine_config`] — so harnesses can vary the
    /// interconnect without re-stating frame counts or timing knobs.
    /// Without this, the machine resolves to the flat Butterfly built
    /// from its `TimingConfig`.
    pub fn topology(mut self, topo: Topology) -> Self {
        self.topology = Some(topo);
        self
    }

    /// Installs the placement policy. The last call wins, and
    /// `sim.kernel.policy()` is the kind given here.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.kernel.policy = policy;
        self
    }

    /// Selects the shootdown mechanism (PLATINUM's per-processor Pmap or
    /// the Mach-style shared-Pmap comparator).
    pub fn shootdown(mut self, mode: ShootdownMode) -> Self {
        self.kernel.shootdown = mode;
        self
    }

    /// Freeze window t1, in virtual nanoseconds.
    pub fn freeze_ns(mut self, t1: u64) -> Self {
        self.kernel.t1_freeze_ns = t1;
        self
    }

    /// Defrost daemon period t2, in virtual nanoseconds.
    pub fn defrost_ns(mut self, t2: u64) -> Self {
        self.kernel.t2_defrost_ns = t2;
        self
    }

    /// Installs a protocol-event tracer at build time and remembers
    /// `path`; [`Sim::write_trace`] exports the Chrome/Perfetto JSON
    /// there after the run.
    pub fn trace(mut self, path: impl AsRef<Path>) -> Self {
        self.trace = Some(path.as_ref().to_path_buf());
        self
    }

    /// Installs a deterministic fault-injection plan. Without one, every
    /// injection hook in the kernel is a single pointer test.
    pub fn faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.kernel.faults = Some(plan);
        self
    }

    /// Configures the translation fabric: how page-table walks are
    /// charged and where translation structures live. The default
    /// (centralized placement) is bit-identical to a kernel without the
    /// subsystem.
    pub fn ptable(mut self, cfg: PtableConfig) -> Self {
        self.kernel.ptable = cfg;
        self
    }

    /// Boots the machine and kernel and creates the application's address
    /// space.
    ///
    /// # Panics
    ///
    /// Panics on an invalid machine configuration — simulation setup is
    /// programmer-controlled.
    pub fn build(self) -> Sim {
        let mut mcfg = self.machine.unwrap_or_else(|| {
            let mut c = MachineConfig::with_nodes(self.nodes);
            c.frames_per_node = self.frames_per_node.unwrap_or(4096);
            c
        });
        if self.topology.is_some() {
            mcfg.topology = self.topology;
        }
        let machine = Machine::new(mcfg).expect("valid machine config");
        let kernel = Kernel::boot(Arc::clone(&machine), self.kernel);
        if self.trace.is_some() {
            kernel.install_tracer(Tracer::new());
        }
        let space = kernel.create_space();
        Sim {
            machine,
            kernel,
            space,
            trace_path: self.trace,
        }
    }
}

/// A booted simulation: machine, kernel, and one application address
/// space, ready to attach threads.
pub struct Sim {
    /// The simulated NUMA machine.
    pub machine: Arc<Machine>,
    /// The kernel booted on it.
    pub kernel: Arc<Kernel>,
    /// The application's address space.
    pub space: Arc<AddressSpace>,
    trace_path: Option<PathBuf>,
}

impl Sim {
    /// The number of processors.
    pub(crate) fn nprocs(&self) -> usize {
        self.machine.nprocs()
    }

    /// Attaches a thread to `proc` in the application's space (virtual
    /// clock starting at 0). The returned context lives until dropped;
    /// at most one thread per processor.
    pub fn attach(&self, proc: usize) -> platinum::Result<UserCtx> {
        self.kernel.attach(Arc::clone(&self.space), proc, 0)
    }

    /// Attaches a thread to `proc`, runs `entry` on it, and detaches.
    pub fn spawn<R>(
        &self,
        proc: usize,
        entry: impl FnOnce(&mut UserCtx) -> R,
    ) -> platinum::Result<R> {
        let mut ctx = self.attach(proc)?;
        Ok(entry(&mut ctx))
    }

    /// Runs the stepped worker `worker(i)` on processor `i` for `i` in
    /// `0..n`, all virtual clocks starting at 0, on this host thread in
    /// the one order `crate::step::schedule` fixes, and collects
    /// per-worker statistics. `label` names the phase if it deadlocks.
    ///
    /// # Panics
    ///
    /// Panics if a processor is already occupied, or if every unfinished
    /// worker is blocked.
    pub fn steps<'a, W>(&self, label: &str, n: usize, worker: impl FnMut(usize) -> W) -> RunStats
    where
        W: FnMut(&mut UserCtx) -> Step<'a>,
    {
        assert!(n >= 1 && n <= self.nprocs());
        let mut procs = Lockstep::new(n);
        for p in 0..n {
            procs.adopt(self.attach(p).expect("processor free for worker"));
        }
        let mut workers: Vec<W> = (0..n).map(worker).collect();
        schedule(label, &mut procs, &mut workers)
    }

    /// Runs `f(worker_index, ctx)` on processors `0..n`, one free-running
    /// OS thread per simulated processor, all virtual clocks starting at
    /// 0, and collects results plus per-worker statistics. The host
    /// schedule interleaves the threads, so their clocks are held within
    /// the machine's skew window; for the concurrency tests and
    /// host-time measurements. Figures run [`Sim::steps`].
    ///
    /// # Panics
    ///
    /// Panics if any worker panics, or if a processor is already occupied.
    pub fn run<F, R>(&self, n: usize, f: F) -> (Vec<R>, RunStats)
    where
        F: Fn(usize, &mut UserCtx) -> R + Sync,
        R: Send,
    {
        assert!(n >= 1 && n <= self.nprocs());
        pool(
            n,
            |p| self.attach(p).expect("processor free for worker"),
            f,
            |_, ctx| worker_stats(&ctx),
        )
    }

    /// Creates a memory object of `pages` pages, maps it into the
    /// application's space, and wraps it as an allocation [`Zone`].
    pub fn alloc_zone(&self, pages: usize) -> Zone {
        let object = self.kernel.create_object(pages);
        let base = self
            .space
            .map_anywhere(object, Rights::RW)
            .expect("fresh mapping cannot conflict");
        let words = pages * self.machine.cfg().words_per_page();
        Zone::new(base, words, self.machine.cfg().words_per_page())
    }

    /// Exports the collected trace as Chrome/Perfetto JSON to the path
    /// given to [`SimBuilder::trace`]. Returns the path written, or
    /// `None` when no tracer was requested.
    pub fn write_trace(&self) -> std::io::Result<Option<&Path>> {
        let (Some(path), Some(tracer)) = (self.trace_path.as_deref(), self.kernel.tracer()) else {
            return Ok(None);
        };
        let json = platinum::trace::chrome::chrome_trace_string(&tracer.snapshot());
        std::fs::write(path, json)?;
        Ok(Some(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_machine::Mem;
    use platinum::PolicyKind;

    #[test]
    fn builder_boots_and_spawns() {
        let sim = SimBuilder::nodes(2).policy(PolicyKind::Platinum).build();
        assert_eq!(sim.nprocs(), 2);
        let zone = sim.alloc_zone(1);
        let base = zone.base();
        let v = sim
            .spawn(0, |ctx| {
                ctx.write(base, 41);
                ctx.read(base) + 1
            })
            .expect("processor 0 free");
        assert_eq!(v, 42);
    }

    #[test]
    fn builder_full_chain_with_faults_and_trace() {
        let dir = std::env::temp_dir().join("platinum-simbuilder-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let sim = SimBuilder::nodes(2)
            .frames_per_node(256)
            .policy(PolicyKind::Platinum)
            .shootdown(ShootdownMode::PerProcessorPmap)
            .defrost_ns(1_000_000)
            .trace(&path)
            .faults(Arc::new(FaultPlan::chaos(7, 0))) // plan installed, rate 0
            .build();
        assert!(sim.kernel.fault_plan().is_some());
        let zone = sim.alloc_zone(1);
        let base = zone.base();
        let (vals, _) = sim.run(2, |i, ctx| {
            ctx.fetch_add(base, 1);
            i
        });
        assert_eq!(vals, vec![0, 1]);
        let written = sim.write_trace().expect("trace export");
        assert_eq!(written, Some(path.as_path()));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("traceEvents"));
    }

    #[test]
    fn builder_default_defrost_matches_paper() {
        // §4.2: the defrost daemon period t2 is 1 second. The builder
        // must boot with exactly that unless overridden.
        let sim = SimBuilder::nodes(2).build();
        assert_eq!(sim.kernel.config().t2_defrost_ns, 1_000_000_000);
        let sim = SimBuilder::nodes(2).defrost_ns(5_000_000).build();
        assert_eq!(sim.kernel.config().t2_defrost_ns, 5_000_000);
    }

    #[test]
    fn builder_default_freeze_window_matches_paper() {
        // §4.2: the freeze window t1 is 10 ms. The builder must boot
        // with exactly that unless overridden.
        let sim = SimBuilder::nodes(2).build();
        assert_eq!(sim.kernel.config().t1_freeze_ns, 10_000_000);
        let sim = SimBuilder::nodes(2).freeze_ns(30_000_000).build();
        assert_eq!(sim.kernel.config().t1_freeze_ns, 30_000_000);
    }

    #[test]
    fn policy_setter_installs_what_it_is_given() {
        let every = [
            PolicyKind::Platinum,
            PolicyKind::PlatinumThawOnAccess,
            PolicyKind::MigrateOnly,
            PolicyKind::ReplicateOnly,
            PolicyKind::LocalFirstTouch,
            PolicyKind::RemoteAlways,
            PolicyKind::NeverReplicate,
            PolicyKind::AlwaysReplicate,
            PolicyKind::AceStyle,
        ];
        for kind in every {
            let sim = SimBuilder::nodes(2).policy(kind).build();
            assert_eq!(sim.kernel.policy(), kind);
        }
        // The last call wins.
        let sim = SimBuilder::nodes(2)
            .policy(PolicyKind::RemoteAlways)
            .policy(PolicyKind::AceStyle)
            .build();
        assert_eq!(sim.kernel.policy(), PolicyKind::AceStyle);
        // No call at all: the paper's policy.
        assert_eq!(
            SimBuilder::nodes(2).build().kernel.policy(),
            PolicyKind::Platinum
        );
    }

    #[test]
    fn builder_topology_applies_to_both_machine_paths() {
        use numa_machine::{TimingConfig, Topology};
        let t = TimingConfig::default();
        // Default machine path.
        let sim = SimBuilder::nodes(8)
            .topology(Topology::hier2(8, 2, &t))
            .build();
        assert_eq!(sim.machine.topology().name(), "hier2");
        // Explicit machine_config path: the topology still lands.
        let sim = SimBuilder::nodes(8)
            .machine_config(MachineConfig::with_nodes(8))
            .topology(Topology::hier2(8, 2, &t))
            .build();
        assert_eq!(sim.machine.topology().name(), "hier2");
        // No topology: the flat Butterfly default.
        let sim = SimBuilder::nodes(2).build();
        assert_eq!(sim.machine.topology().name(), "flat");
    }
}
