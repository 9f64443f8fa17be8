//! Property test: the PLATINUM policy, [`PolicyKind::Platinum`] and
//! [`PolicyKind::PlatinumThawOnAccess`], decides exactly as the logic
//! once inlined in the fault path did.
//!
//! The replication decision was carved out of the fault path into the
//! policy module. The paper's numbers depend on the decision function
//! staying *bit-identical* — a policy that freezes one fault earlier or
//! later changes every virtual time downstream. This test transcribes the
//! original inline decision function verbatim and replays random fault
//! streams through both, for both the paper-default and the
//! thaw-on-access variants, at the kernel's default freeze window.

use platinum::{CpState, FaultAction, FaultInfo, KernelConfig, PolicyKind};
use proptest::prelude::*;

/// The §4.2 decision logic exactly as it was inlined in the fault path
/// (freeze window `t1_ns`, optional thaw-on-access variant).
fn legacy_decide(t1_ns: u64, thaw_on_access: bool, info: &FaultInfo) -> FaultAction {
    let recently_invalidated = match info.last_invalidation {
        Some(t) => info.now.saturating_sub(t) < t1_ns,
        None => false,
    };
    if info.frozen {
        if thaw_on_access && !recently_invalidated {
            return FaultAction::Replicate;
        }
        return FaultAction::RemoteMap { freeze: true };
    }
    if recently_invalidated {
        FaultAction::RemoteMap { freeze: true }
    } else {
        FaultAction::Replicate
    }
}

fn states() -> impl Strategy<Value = CpState> {
    (0u8..4).prop_map(|i| match i {
        0 => CpState::Empty,
        1 => CpState::Present1,
        2 => CpState::PresentPlus,
        _ => CpState::Modified,
    })
}

fn maybe_time() -> impl Strategy<Value = Option<u64>> {
    (any::<bool>(), 0u64..40_000_000).prop_map(|(some, t)| some.then_some(t))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn platinum_kind_matches_prerefactor_inline_logic(
        // Times near the t1 = 10 ms boundary are the interesting region;
        // the stream also crosses it from both sides.
        now in 0u64..40_000_000,
        last_invalidation in maybe_time(),
        frozen in any::<bool>(),
        migrations in 0u32..5,
        state in states(),
        write in any::<bool>(),
        thaw_on_access in any::<bool>(),
    ) {
        let info = FaultInfo {
            now,
            last_invalidation,
            frozen,
            migrations,
            state,
            write,
        };
        let kind = if thaw_on_access {
            PolicyKind::PlatinumThawOnAccess
        } else {
            PolicyKind::Platinum
        };
        let t1 = KernelConfig::default().t1_freeze_ns;
        prop_assert_eq!(
            kind.decide(&info, t1),
            legacy_decide(t1, thaw_on_access, &info),
            "decision diverged for {:?} (thaw_on_access={})", info, thaw_on_access
        );
    }
}

/// The boundary cases the random stream might miss: exactly at the
/// freeze window, one below, one above, and the no-history case.
#[test]
fn platinum_kind_matches_at_t1_boundary() {
    let t1 = KernelConfig::default().t1_freeze_ns;
    assert_eq!(t1, 10_000_000, "the paper's t1 is 10 ms");
    for (now, last) in [
        (t1, Some(0)),
        (t1 - 1, Some(0)),
        (t1 + 1, Some(0)),
        (0, Some(0)),
        (u64::MAX, Some(u64::MAX)),
        (0, None),
    ] {
        for (frozen, kind, thaw_on_access) in [
            (false, PolicyKind::Platinum, false),
            (true, PolicyKind::Platinum, false),
            (false, PolicyKind::PlatinumThawOnAccess, true),
            (true, PolicyKind::PlatinumThawOnAccess, true),
        ] {
            let info = FaultInfo {
                now,
                last_invalidation: last,
                frozen,
                migrations: 0,
                state: CpState::PresentPlus,
                write: false,
            };
            assert_eq!(
                kind.decide(&info, t1),
                legacy_decide(t1, thaw_on_access, &info),
                "boundary case diverged: {kind:?} now={now} last={last:?} frozen={frozen}"
            );
        }
    }
}
