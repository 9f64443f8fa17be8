//! Placement policies: where pages live, when they move, when they freeze.
//!
//! "PLATINUM is designed to support experimentation with a family of
//! policies" (§4.2). The [`PlacementPolicy`] trait is that seam: it decides
//! how a coherency miss is serviced ([`PlacementPolicy::decide`]) and where
//! a first touch places a fresh page ([`PlacementPolicy::place_first_touch`]).
//! The paper's interim policy is [`PlatinumPolicy`]; the Figure 1 baselines
//! are [`MigrateOnly`] (single-copy chasing), [`ReplicateOnly`] (read
//! replication without migration), [`LocalFirstTouch`] (static placement on
//! the first toucher's module), and [`RemoteAlways`] (every page deliberately
//! homed off-node — the all-remote floor). [`AlwaysReplicate`] (coherency at
//! any price) and [`AceStyle`] (Bolosky et al.'s IBM ACE policy discussed in
//! §8) remain for the existing harnesses.

use std::sync::Arc;

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

/// A page placement policy: how coherency misses are serviced and where
/// first touches land.
pub trait PlacementPolicy: Send + Sync {
    /// Decides how to service a miss that has no usable local copy.
    fn decide(&self, info: &FaultInfo) -> FaultAction;

    /// Picks the module that receives a page's very first physical copy.
    /// `faulter` is the touching processor's module, `vpn` the page's
    /// virtual page number, and `nodes` the machine size. The default —
    /// used by every policy in the paper — is local first touch.
    fn place_first_touch(&self, faulter: usize, _vpn: u64, _nodes: usize) -> usize {
        faulter
    }

    /// Whether a *frozen* page whose freeze window has expired may be
    /// thawed directly by an attempted access, rather than waiting for
    /// the defrost daemon. §4.2 describes both variants and reports no
    /// significant difference between them.
    fn thaw_on_access(&self) -> bool {
        false
    }

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

impl std::fmt::Debug for dyn PlacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The paper's interim policy (§4.2): replicate or migrate if the most
/// recent protocol invalidation is at least `t1` in the past, otherwise
/// freeze the page.
#[derive(Clone, Debug)]
pub struct PlatinumPolicy {
    /// The interference window, ns. The paper sets 10 ms and reports
    /// insensitivity from 10 ms up to about 100 ms.
    pub t1_ns: u64,
    /// Which post-freeze variant to use (§4.2): `false` keeps creating
    /// remote mappings until the defrost daemon thaws the page (the
    /// paper's default); `true` lets an access replicate-and-thaw once
    /// `t1` has expired.
    pub thaw_on_access: bool,
}

impl PlatinumPolicy {
    /// The paper's configuration: t1 = 10 ms, defrost-only thawing.
    pub fn paper_default() -> Self {
        Self {
            t1_ns: 10_000_000,
            thaw_on_access: false,
        }
    }
}

impl Default for PlatinumPolicy {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl PlacementPolicy for PlatinumPolicy {
    fn decide(&self, info: &FaultInfo) -> FaultAction {
        let recently_invalidated = match info.last_invalidation {
            Some(t) => info.now.saturating_sub(t) < self.t1_ns,
            None => false,
        };
        if info.frozen {
            if self.thaw_on_access && !recently_invalidated {
                // Alternative policy: the access thaws the page.
                return FaultAction::Replicate;
            }
            // Default policy: remain frozen until the defrost daemon
            // explicitly thaws the page.
            return FaultAction::RemoteMap { freeze: true };
        }
        if recently_invalidated {
            // Active write-sharing: running the protocol would cost more
            // than remote access. Freeze.
            FaultAction::RemoteMap { freeze: true }
        } else {
            FaultAction::Replicate
        }
    }

    fn thaw_on_access(&self) -> bool {
        self.thaw_on_access
    }

    fn name(&self) -> &'static str {
        "platinum"
    }
}

/// Single-copy migration: every miss moves the page's one copy to the
/// faulting module, reads included. No replication, no freezing — the
/// page ping-pongs between sharers, paying a block transfer plus a
/// shootdown per move. One of the Figure 1 baselines.
#[derive(Clone, Copy, Debug, Default)]
pub struct MigrateOnly;

impl PlacementPolicy for MigrateOnly {
    fn decide(&self, _info: &FaultInfo) -> FaultAction {
        FaultAction::Migrate
    }

    fn name(&self) -> &'static str {
        "migrate-only"
    }
}

/// Read replication without migration: read misses replicate freely, but a
/// write miss never moves the page — the writer maps the existing copy
/// remotely. (Writes to widely-read pages still collapse the copy set:
/// that is the coherency protocol, not the policy.)
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplicateOnly;

impl PlacementPolicy for ReplicateOnly {
    fn decide(&self, info: &FaultInfo) -> FaultAction {
        if info.write {
            FaultAction::RemoteMap { freeze: false }
        } else {
            FaultAction::Replicate
        }
    }

    fn name(&self) -> &'static str {
        "replicate-only"
    }
}

/// Static placement, local first touch: a page lives wherever it was first
/// touched and never moves; later sharers map it remotely. This is the
/// behaviour a carefully-written Uniform System program gets from static
/// data scattering (the "local" memory curve of Figure 1).
#[derive(Clone, Copy, Debug, Default)]
pub struct LocalFirstTouch;

impl PlacementPolicy for LocalFirstTouch {
    fn decide(&self, _info: &FaultInfo) -> FaultAction {
        FaultAction::RemoteMap { freeze: false }
    }

    fn name(&self) -> &'static str {
        "local-first-touch"
    }
}

/// The all-remote floor: first touches are deliberately homed on a module
/// *other than* the toucher's, and pages never move, so essentially every
/// reference is a remote reference (Figure 1's "remote" curve — the cost
/// of ignoring locality altogether).
#[derive(Clone, Copy, Debug, Default)]
pub struct RemoteAlways;

impl PlacementPolicy for RemoteAlways {
    fn decide(&self, _info: &FaultInfo) -> FaultAction {
        FaultAction::RemoteMap { freeze: false }
    }

    fn place_first_touch(&self, faulter: usize, vpn: u64, nodes: usize) -> usize {
        if nodes <= 1 {
            return faulter;
        }
        // Spread over every module except the faulter's own.
        (faulter + 1 + (vpn as usize % (nodes - 1))) % nodes
    }

    fn name(&self) -> &'static str {
        "remote-always"
    }
}

/// Always replicate/migrate, regardless of interference history — the
/// behaviour of software caching without the remote-access escape hatch
/// (Li's shared virtual memory, discussed in §1).
#[derive(Clone, Copy, Debug, Default)]
pub struct AlwaysReplicate;

impl PlacementPolicy for AlwaysReplicate {
    fn decide(&self, _info: &FaultInfo) -> FaultAction {
        FaultAction::Replicate
    }

    fn name(&self) -> &'static str {
        "always-replicate"
    }
}

/// Bolosky et al.'s ACE policy (§8): writable pages are never replicated
/// and may migrate only `max_migrations` times before being frozen in
/// place; read-only pages replicate freely.
#[derive(Clone, Copy, Debug)]
pub struct AceStyle {
    /// Migrations permitted before the page is frozen for good.
    pub max_migrations: u32,
}

impl Default for AceStyle {
    fn default() -> Self {
        Self { max_migrations: 2 }
    }
}

impl PlacementPolicy for AceStyle {
    fn decide(&self, info: &FaultInfo) -> FaultAction {
        if info.write || info.state == CpState::Modified {
            // A writable page: migrate a bounded number of times, then
            // freeze in place permanently (no defrost in ACE).
            if info.frozen || info.migrations >= self.max_migrations {
                FaultAction::RemoteMap { freeze: true }
            } else {
                FaultAction::Replicate
            }
        } else {
            FaultAction::Replicate
        }
    }

    fn name(&self) -> &'static str {
        "ace-style"
    }
}

/// Which placement policy to boot the kernel with: a nameable,
/// `Copy`-able selector over the policy family, used by the harnesses,
/// the benchmark binaries, `KernelConfig`, and `SimBuilder`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// The paper's interim policy (t1 = 10 ms, defrost-only thawing).
    Platinum,
    /// The §4.2 alternative: accesses may thaw expired frozen pages.
    PlatinumThawOnAccess,
    /// Single-copy migration, reads included (Figure 1 baseline).
    MigrateOnly,
    /// Read replication without migration (Figure 1 baseline).
    ReplicateOnly,
    /// Static placement on the first toucher's module (Figure 1 "local").
    LocalFirstTouch,
    /// Deliberately off-node placement, no movement (Figure 1 "remote").
    RemoteAlways,
    /// Static placement under its Uniform System baseline name: builds
    /// [`LocalFirstTouch`].
    NeverReplicate,
    /// Replicate/migrate unconditionally (software-caching baseline).
    AlwaysReplicate,
    /// Bolosky et al.'s ACE policy (§8).
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

    /// Instantiates the policy.
    pub fn build(self) -> Arc<dyn PlacementPolicy> {
        match self {
            PolicyKind::Platinum => Arc::new(PlatinumPolicy::paper_default()),
            PolicyKind::PlatinumThawOnAccess => Arc::new(PlatinumPolicy {
                t1_ns: 10_000_000,
                thaw_on_access: true,
            }),
            PolicyKind::MigrateOnly => Arc::new(MigrateOnly),
            PolicyKind::ReplicateOnly => Arc::new(ReplicateOnly),
            PolicyKind::LocalFirstTouch | PolicyKind::NeverReplicate => Arc::new(LocalFirstTouch),
            PolicyKind::RemoteAlways => Arc::new(RemoteAlways),
            PolicyKind::AlwaysReplicate => Arc::new(AlwaysReplicate),
            PolicyKind::AceStyle => Arc::new(AceStyle::default()),
        }
    }

    /// Harness display name.
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

impl From<PolicyKind> for Arc<dyn PlacementPolicy> {
    fn from(kind: PolicyKind) -> Self {
        kind.build()
    }
}

/// Every policy object converts into what [`crate::KernelConfig::policy`]
/// holds, so a setter taking `impl Into<Arc<dyn PlacementPolicy>>` accepts
/// a [`PolicyKind`], a policy value, or an already-shared object alike.
/// (A blanket impl over `P: PlacementPolicy` is ruled out by coherence;
/// a policy defined elsewhere writes the same three lines.)
macro_rules! policy_into_arc {
    ($($policy:ty),*) => {$(
        impl From<$policy> for Arc<dyn PlacementPolicy> {
            fn from(policy: $policy) -> Self {
                Arc::new(policy)
            }
        }
    )*};
}
policy_into_arc!(
    PlatinumPolicy,
    MigrateOnly,
    ReplicateOnly,
    LocalFirstTouch,
    RemoteAlways,
    AlwaysReplicate,
    AceStyle
);

impl std::str::FromStr for PolicyKind {
    type Err = String;

    /// Parses the kebab-case selector used by the benchmark binaries.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "platinum" => Ok(PolicyKind::Platinum),
            "platinum-thaw" | "thaw-on-access" => Ok(PolicyKind::PlatinumThawOnAccess),
            "migrate-only" => Ok(PolicyKind::MigrateOnly),
            "replicate-only" => Ok(PolicyKind::ReplicateOnly),
            "local-first-touch" | "local" => Ok(PolicyKind::LocalFirstTouch),
            "remote-always" | "remote" => Ok(PolicyKind::RemoteAlways),
            "never-replicate" => Ok(PolicyKind::NeverReplicate),
            "always-replicate" => Ok(PolicyKind::AlwaysReplicate),
            "ace-style" | "ace" => Ok(PolicyKind::AceStyle),
            other => Err(format!("unknown policy kind: {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let p = PlatinumPolicy::paper_default();
        assert_eq!(
            p.decide(&info(50_000_000, None, false)),
            FaultAction::Replicate
        );
        // Invalidation 20 ms ago: outside t1 = 10 ms.
        assert_eq!(
            p.decide(&info(50_000_000, Some(30_000_000), false)),
            FaultAction::Replicate
        );
    }

    #[test]
    fn platinum_freezes_interfering_pages() {
        let p = PlatinumPolicy::paper_default();
        // Invalidation 2 ms ago: inside t1.
        assert_eq!(
            p.decide(&info(50_000_000, Some(48_000_000), false)),
            FaultAction::RemoteMap { freeze: true }
        );
    }

    #[test]
    fn platinum_default_stays_frozen_until_defrost() {
        let p = PlatinumPolicy::paper_default();
        // Frozen long ago, window long expired — still remote-mapped.
        assert_eq!(
            p.decide(&info(500_000_000, Some(10_000_000), true)),
            FaultAction::RemoteMap { freeze: true }
        );
        assert!(!p.thaw_on_access());
    }

    #[test]
    fn platinum_thaw_on_access_variant() {
        let p = PlatinumPolicy {
            t1_ns: 10_000_000,
            thaw_on_access: true,
        };
        // Window expired: the access may thaw.
        assert_eq!(
            p.decide(&info(500_000_000, Some(10_000_000), true)),
            FaultAction::Replicate
        );
        // Window not expired: stays frozen.
        assert_eq!(
            p.decide(&info(15_000_000, Some(10_000_000), true)),
            FaultAction::RemoteMap { freeze: true }
        );
    }

    #[test]
    fn never_and_always() {
        assert_eq!(
            PolicyKind::NeverReplicate
                .build()
                .decide(&info(0, None, false)),
            FaultAction::RemoteMap { freeze: false }
        );
        assert_eq!(
            AlwaysReplicate.decide(&info(0, Some(0), false)),
            FaultAction::Replicate
        );
    }

    #[test]
    fn migrate_only_always_migrates() {
        let p = MigrateOnly;
        assert_eq!(p.decide(&info(0, None, false)), FaultAction::Migrate);
        let mut i = info(50_000_000, Some(49_000_000), true);
        i.write = true;
        // Even frozen, recently-invalidated pages migrate (and thaw).
        assert_eq!(p.decide(&i), FaultAction::Migrate);
        // First touches stay local.
        assert_eq!(p.place_first_touch(3, 17, 8), 3);
    }

    #[test]
    fn replicate_only_never_moves_for_writes() {
        let p = ReplicateOnly;
        assert_eq!(p.decide(&info(0, None, false)), FaultAction::Replicate);
        let mut i = info(0, None, false);
        i.write = true;
        assert_eq!(p.decide(&i), FaultAction::RemoteMap { freeze: false });
    }

    #[test]
    fn local_first_touch_is_static() {
        let p = LocalFirstTouch;
        let mut i = info(0, None, false);
        assert_eq!(p.decide(&i), FaultAction::RemoteMap { freeze: false });
        i.write = true;
        assert_eq!(p.decide(&i), FaultAction::RemoteMap { freeze: false });
        assert_eq!(p.place_first_touch(5, 99, 8), 5);
    }

    #[test]
    fn remote_always_places_off_node() {
        let p = RemoteAlways;
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
            p.decide(&info(0, None, false)),
            FaultAction::RemoteMap { freeze: false }
        );
    }

    #[test]
    fn ace_bounds_migrations() {
        let p = AceStyle { max_migrations: 2 };
        let mut i = info(0, None, false);
        i.write = true;
        i.migrations = 0;
        assert_eq!(p.decide(&i), FaultAction::Replicate);
        i.migrations = 2;
        assert_eq!(p.decide(&i), FaultAction::RemoteMap { freeze: true });
        // Read-only data replicates freely.
        i.write = false;
        i.state = CpState::Present1;
        i.migrations = 100;
        assert_eq!(p.decide(&i), FaultAction::Replicate);
    }

    #[test]
    fn kind_round_trips_through_parse() {
        for kind in [
            PolicyKind::Platinum,
            PolicyKind::MigrateOnly,
            PolicyKind::ReplicateOnly,
            PolicyKind::LocalFirstTouch,
            PolicyKind::RemoteAlways,
            PolicyKind::NeverReplicate,
            PolicyKind::AlwaysReplicate,
        ] {
            let spelled = kind.build().name().to_string();
            let parsed: PolicyKind = spelled.parse().expect("kebab name parses");
            // Parsing the built policy's name lands on an equivalent kind
            // (NeverReplicate builds LocalFirstTouch).
            assert_eq!(parsed.build().name(), kind.build().name());
        }
        assert!("no-such-policy".parse::<PolicyKind>().is_err());
    }

    #[test]
    fn fig1_set_is_five_distinct_policies() {
        let names: std::collections::BTreeSet<&str> =
            PolicyKind::FIG1_SET.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 5);
    }
}
