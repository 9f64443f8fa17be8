//! The whole simulator surface the benchmark imports, in one place.
//!
//! perf_ledger measures the simulator from outside, through public
//! functions only, and later PRs may not edit this directory — so a PR
//! that renames or removes anything listed here breaks the benchmark and
//! must keep a compatible item instead. Everything else in the
//! repository is free to change.
//!
//! Deliberately *not* imported, because ROADMAP items 1 and 3 delete
//! them: `MachineConfig::fast_path` (configs are built with
//! `..Default::default()`), `SimBuilder::{policy_box, policy_kind}`,
//! `replay_par*`, `replay_many*`, `Kernel::{new, with_policy,
//! from_config}` and `BucketedResource::reserve`.

// machine: configuration, the portable memory interface, and the types
// the single-function (M) loops time.
pub use numa_machine::{
    AccessCounters, Atc, BucketCursor, BucketedResource, Frame, MachineConfig, Mem, PhysPage,
    TimingConfig, Topology,
};
// core: policies, the fault plan, the translation-fabric selector, the
// per-thread context (`read`, `write`, `suspend`, `resume`, `vtime`,
// `counters`, `core`) and the kernel's read-only statistics surfaces
// (`create_object`, `stats`, `host_prof`, `walk_snapshot`).
pub use platinum::faults::{FaultPlan, FaultSite};
pub use platinum::hostprof::HostProfSnapshot;
pub use platinum::{
    PolicyKind, PtableConfig, PtablePlacement, Result as KernelResult, StatsSnapshot, UserCtx,
    WalkSnapshot,
};
// reftrace: the public trace format and the one replay entry point.
pub use platinum_reftrace::{replay, Op, Phase, Rec, RefTrace, ReplayOutcome};
// runtime: `SimBuilder::{nodes, machine_config, policy, topology, ptable,
// trace, faults, build}`, `Sim::{attach, run, alloc_zone, write_trace}`,
// and the synchronisation primitives the M loops time.
pub use platinum_runtime::sim::{Sim, SimBuilder};
pub use platinum_runtime::{Barrier, SpinLock};
// server: the open-loop driver, its workload trait, the KV store and the
// traffic generator.
pub use platinum_server::{
    run_open_loop, DriverReport, Histogram, KvConfig, KvTable, Request, ServerMem, TrafficConfig,
    Workload as ServerWorkload,
};
// apps: the figure runners.
pub use platinum_apps::gauss::{self, GaussConfig};
pub use platinum_apps::harness::{
    run_gauss, run_gauss_profiled, run_mergesort_platinum, run_mergesort_uma, run_neural, AppRun,
    GaussStyle,
};
pub use platinum_apps::mergesort::SortConfig;
pub use platinum_apps::neural::NeuralConfig;
