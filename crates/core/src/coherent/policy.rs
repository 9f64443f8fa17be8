//! Placement policies: where pages live, when they move, when they freeze.
//!
//! "PLATINUM is designed to support experimentation with a family of
//! policies" (§4.2). [`PolicyKind`] is that family: it decides how a
//! coherency miss is serviced ([`PolicyKind::decide`]) and where a first
//! touch places a fresh page ([`PolicyKind::place_first_touch`]). The
//! paper's interim policy is [`PolicyKind::Platinum`]; the Figure 1
//! baselines are [`PolicyKind::MigrateOnly`] (single-copy chasing),
//! [`PolicyKind::ReplicateOnly`] (read replication without migration),
//! [`PolicyKind::LocalFirstTouch`] (static placement on the first
//! toucher's module), and [`PolicyKind::RemoteAlways`] (every page
//! deliberately homed off-node — the all-remote floor).
//! [`PolicyKind::AlwaysReplicate`] (coherency at any price) and
//! [`PolicyKind::AceStyle`] (Bolosky et al.'s IBM ACE policy discussed in
//! §8) remain for the existing harnesses.

use crate::coherent::cpage::CpState;

/// Everything a policy may consult when deciding how to service a fault.
///
/// The paper's interim policy uses "a minimal history consisting of a
/// timestamp for the most recent invalidation"; other members support the
/// baseline policies.
#[derive(Clone, Copy, Debug)]
pub struct FaultInfo {
    /// The faulting processor's virtual time, ns.
    pub now: u64,
    /// Virtual time of the most recent invalidation by the protocol.
    pub last_invalidation: Option<u64>,
    /// Whether the page is currently frozen.
    pub frozen: bool,
    /// How many times the page has migrated.
    pub migrations: u32,
    /// The page's protocol state.
    pub state: CpState,
    /// Whether the fault wants write access.
    pub write: bool,
}

/// What to do about a miss with no usable local copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Make (or, for writes, move to) a local physical copy.
    Replicate,
    /// Move the page's single copy to the faulting processor's module,
    /// even for a read — the page chases its referents. Never creates a
    /// second copy and never freezes.
    Migrate,
    /// Map an existing remote copy instead — "using remote memory access
    /// effectively disables caching on a block-by-block basis" (§1).
    RemoteMap {
        /// Whether the page should also be marked frozen (enrolled with
        /// the defrost daemon). Freezing only applies when the decision
        /// was made because of write-sharing interference.
        freeze: bool,
    },
}

/// Migrations an [`PolicyKind::AceStyle`] page may make before it is
/// frozen in place for good.
pub const ACE_MAX_MIGRATIONS: u32 = 2;

/// The placement policy the kernel runs: a nameable, `Copy`-able member of
/// the policy family, used by the harnesses, the benchmark binaries,
/// `KernelConfig`, and `SimBuilder`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// The paper's interim policy (§4.2): replicate or migrate if the most
    /// recent protocol invalidation is at least t1 in the past, otherwise
    /// freeze the page. A frozen page stays remote-mapped until the
    /// defrost daemon thaws it.
    Platinum,
    /// The §4.2 alternative: an access to a frozen page replicates (and
    /// so thaws) it once t1 has expired.
    PlatinumThawOnAccess,
    /// Single-copy migration: every miss moves the page's one copy to the
    /// faulting module, reads included. No replication, no freezing — the
    /// page ping-pongs between sharers, paying a block transfer plus a
    /// shootdown per move. One of the Figure 1 baselines.
    MigrateOnly,
    /// Read replication without migration: read misses replicate freely,
    /// but a write miss never moves the page — the writer maps the
    /// existing copy remotely. (Writes to widely-read pages still collapse
    /// the copy set: that is the coherency protocol, not the policy.)
    ReplicateOnly,
    /// Static placement, local first touch: a page lives wherever it was
    /// first touched and never moves; later sharers map it remotely. This
    /// is the behaviour a carefully-written Uniform System program gets
    /// from static data scattering (the "local" memory curve of Figure 1).
    LocalFirstTouch,
    /// The all-remote floor: first touches are deliberately homed on a
    /// module *other than* the toucher's, and pages never move, so
    /// essentially every reference is a remote reference (Figure 1's
    /// "remote" curve — the cost of ignoring locality altogether).
    RemoteAlways,
    /// [`PolicyKind::LocalFirstTouch`] under its Uniform System baseline
    /// name: it decides and places exactly as that variant does.
    NeverReplicate,
    /// Always replicate/migrate, regardless of interference history — the
    /// behaviour of software caching without the remote-access escape
    /// hatch (Li's shared virtual memory, discussed in §1).
    AlwaysReplicate,
    /// Bolosky et al.'s ACE policy (§8): writable pages are never
    /// replicated and may migrate only [`ACE_MAX_MIGRATIONS`] times before
    /// being frozen in place; read-only pages replicate freely.
    AceStyle,
}

impl PolicyKind {
    /// The five-policy Figure 1 comparison set, in the order the paper
    /// plots them: the coherent policy, its two mechanisms in isolation,
    /// then the two static placements.
    pub const FIG1_SET: [PolicyKind; 5] = [
        PolicyKind::Platinum,
        PolicyKind::MigrateOnly,
        PolicyKind::ReplicateOnly,
        PolicyKind::LocalFirstTouch,
        PolicyKind::RemoteAlways,
    ];

    /// Decides how to service a miss that has no usable local copy.
    /// `t1_ns` is the kernel's interference window; only the two PLATINUM
    /// variants consult it.
    pub fn decide(self, info: &FaultInfo, t1_ns: u64) -> FaultAction {
        match self {
            PolicyKind::Platinum | PolicyKind::PlatinumThawOnAccess => {
                let recently_invalidated = match info.last_invalidation {
                    Some(t) => info.now.saturating_sub(t) < t1_ns,
                    None => false,
                };
                if info.frozen {
                    if self == PolicyKind::PlatinumThawOnAccess && !recently_invalidated {
                        // Alternative policy: the access thaws the page.
                        return FaultAction::Replicate;
                    }
                    // Default policy: remain frozen until the defrost
                    // daemon explicitly thaws the page.
                    return FaultAction::RemoteMap { freeze: true };
                }
                if recently_invalidated {
                    // Active write-sharing: running the protocol would
                    // cost more than remote access. Freeze.
                    FaultAction::RemoteMap { freeze: true }
                } else {
                    FaultAction::Replicate
                }
            }
            PolicyKind::MigrateOnly => FaultAction::Migrate,
            PolicyKind::ReplicateOnly => {
                if info.write {
                    FaultAction::RemoteMap { freeze: false }
                } else {
                    FaultAction::Replicate
                }
            }
            PolicyKind::LocalFirstTouch | PolicyKind::NeverReplicate | PolicyKind::RemoteAlways => {
                FaultAction::RemoteMap { freeze: false }
            }
            PolicyKind::AlwaysReplicate => FaultAction::Replicate,
            PolicyKind::AceStyle => {
                if info.write || info.state == CpState::Modified {
                    // A writable page: migrate a bounded number of times,
                    // then freeze in place permanently (no defrost in ACE).
                    if info.frozen || info.migrations >= ACE_MAX_MIGRATIONS {
                        FaultAction::RemoteMap { freeze: true }
                    } else {
                        FaultAction::Replicate
                    }
                } else {
                    FaultAction::Replicate
                }
            }
        }
    }

    /// Picks the module that receives a page's very first physical copy.
    /// `faulter` is the touching processor's module, `vpn` the page's
    /// virtual page number, and `nodes` the machine size. Every policy in
    /// the paper places locally; [`PolicyKind::RemoteAlways`] spreads
    /// pages over every module except the faulter's own.
    pub(crate) fn place_first_touch(self, faulter: usize, vpn: u64, nodes: usize) -> usize {
        match self {
            PolicyKind::RemoteAlways if nodes > 1 => {
                (faulter + 1 + (vpn as usize % (nodes - 1))) % nodes
            }
            _ => faulter,
        }
    }

    /// Display name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Platinum => "PLATINUM",
            PolicyKind::PlatinumThawOnAccess => "PLATINUM (thaw-on-access)",
            PolicyKind::MigrateOnly => "migrate-only",
            PolicyKind::ReplicateOnly => "replicate-only",
            PolicyKind::LocalFirstTouch => "local-first-touch",
            PolicyKind::RemoteAlways => "remote-always",
            PolicyKind::NeverReplicate => "static placement",
            PolicyKind::AlwaysReplicate => "always-replicate",
            PolicyKind::AceStyle => "ACE-style",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's t1 = 10 ms, the kernel's default.
    const T1: u64 = 10_000_000;

    fn info(now: u64, last_inval: Option<u64>, frozen: bool) -> FaultInfo {
        FaultInfo {
            now,
            last_invalidation: last_inval,
            frozen,
            migrations: 0,
            state: CpState::Modified,
            write: false,
        }
    }

    #[test]
    fn platinum_replicates_quiet_pages() {
        let p = PolicyKind::Platinum;
        assert_eq!(
            p.decide(&info(50_000_000, None, false), T1),
            FaultAction::Replicate
        );
        // Invalidation 20 ms ago: outside t1 = 10 ms.
        assert_eq!(
            p.decide(&info(50_000_000, Some(30_000_000), false), T1),
            FaultAction::Replicate
        );
        // ... but inside a 30 ms window.
        assert_eq!(
            p.decide(&info(50_000_000, Some(30_000_000), false), 30_000_000),
            FaultAction::RemoteMap { freeze: true }
        );
    }

    #[test]
    fn platinum_freezes_interfering_pages() {
        let p = PolicyKind::Platinum;
        // Invalidation 2 ms ago: inside t1.
        assert_eq!(
            p.decide(&info(50_000_000, Some(48_000_000), false), T1),
            FaultAction::RemoteMap { freeze: true }
        );
        // t1 = 0 never freezes: it decides as always-replicate does.
        assert_eq!(
            p.decide(&info(50_000_000, Some(50_000_000), false), 0),
            FaultAction::Replicate
        );
    }

    #[test]
    fn platinum_default_stays_frozen_until_defrost() {
        // Frozen long ago, window long expired — still remote-mapped.
        assert_eq!(
            PolicyKind::Platinum.decide(&info(500_000_000, Some(10_000_000), true), T1),
            FaultAction::RemoteMap { freeze: true }
        );
    }

    #[test]
    fn platinum_thaw_on_access_variant() {
        let p = PolicyKind::PlatinumThawOnAccess;
        // Window expired: the access may thaw.
        assert_eq!(
            p.decide(&info(500_000_000, Some(10_000_000), true), T1),
            FaultAction::Replicate
        );
        // Window not expired: stays frozen.
        assert_eq!(
            p.decide(&info(15_000_000, Some(10_000_000), true), T1),
            FaultAction::RemoteMap { freeze: true }
        );
    }

    #[test]
    fn never_and_always() {
        assert_eq!(
            PolicyKind::NeverReplicate.decide(&info(0, None, false), T1),
            FaultAction::RemoteMap { freeze: false }
        );
        assert_eq!(PolicyKind::NeverReplicate.place_first_touch(5, 99, 8), 5);
        assert_eq!(
            PolicyKind::AlwaysReplicate.decide(&info(0, Some(0), false), T1),
            FaultAction::Replicate
        );
    }

    #[test]
    fn migrate_only_always_migrates() {
        let p = PolicyKind::MigrateOnly;
        assert_eq!(p.decide(&info(0, None, false), T1), FaultAction::Migrate);
        let mut i = info(50_000_000, Some(49_000_000), true);
        i.write = true;
        // Even frozen, recently-invalidated pages migrate (and thaw).
        assert_eq!(p.decide(&i, T1), FaultAction::Migrate);
        // First touches stay local.
        assert_eq!(p.place_first_touch(3, 17, 8), 3);
    }

    #[test]
    fn replicate_only_never_moves_for_writes() {
        let p = PolicyKind::ReplicateOnly;
        assert_eq!(p.decide(&info(0, None, false), T1), FaultAction::Replicate);
        let mut i = info(0, None, false);
        i.write = true;
        assert_eq!(p.decide(&i, T1), FaultAction::RemoteMap { freeze: false });
    }

    #[test]
    fn local_first_touch_is_static() {
        let p = PolicyKind::LocalFirstTouch;
        let mut i = info(0, None, false);
        assert_eq!(p.decide(&i, T1), FaultAction::RemoteMap { freeze: false });
        i.write = true;
        assert_eq!(p.decide(&i, T1), FaultAction::RemoteMap { freeze: false });
        assert_eq!(p.place_first_touch(5, 99, 8), 5);
    }

    #[test]
    fn remote_always_places_off_node() {
        let p = PolicyKind::RemoteAlways;
        for faulter in 0..8 {
            for vpn in 0..64u64 {
                let home = p.place_first_touch(faulter, vpn, 8);
                assert_ne!(home, faulter, "vpn {vpn} landed on the faulter");
                assert!(home < 8);
            }
        }
        // Uniprocessor degenerate case: nowhere else to go.
        assert_eq!(p.place_first_touch(0, 7, 1), 0);
        assert_eq!(
            p.decide(&info(0, None, false), T1),
            FaultAction::RemoteMap { freeze: false }
        );
    }

    #[test]
    fn ace_bounds_migrations() {
        let p = PolicyKind::AceStyle;
        let mut i = info(0, None, false);
        i.write = true;
        i.migrations = 0;
        assert_eq!(p.decide(&i, T1), FaultAction::Replicate);
        i.migrations = ACE_MAX_MIGRATIONS;
        assert_eq!(p.decide(&i, T1), FaultAction::RemoteMap { freeze: true });
        // Read-only data replicates freely.
        i.write = false;
        i.state = CpState::Present1;
        i.migrations = 100;
        assert_eq!(p.decide(&i, T1), FaultAction::Replicate);
    }

    #[test]
    fn fig1_set_is_five_distinct_policies() {
        let names: std::collections::BTreeSet<&str> =
            PolicyKind::FIG1_SET.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 5);
    }
}
