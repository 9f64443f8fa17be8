//! Property-based tests on the core data structures: allocation zones,
//! the ATC, the inverted page table, the contention model, and the §4.1
//! analytic model.

use proptest::prelude::*;

use platinum_repro::analysis::model::{g_round_robin, CostModel, SMin};
use platinum_repro::machine::contention::{BucketCursor, BucketedResource};
use platinum_repro::machine::module::MemoryModule;
use platinum_repro::machine::{Atc, PhysPage};
use platinum_repro::runtime::zones::Zone;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn zone_allocations_never_overlap(
        sizes in prop::collection::vec((1usize..200, any::<bool>()), 1..40)
    ) {
        let page_words = 256usize;
        let mut zone = Zone::new(0x10_0000, 1 << 16, page_words);
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for (words, aligned) in sizes {
            if zone.remaining_words() < words + page_words {
                break;
            }
            let va = if aligned {
                zone.alloc_page_aligned(words)
            } else {
                zone.alloc_words(words)
            };
            let end = va + 4 * words as u64;
            if aligned {
                prop_assert_eq!(va % (4 * page_words as u64), 0, "not page aligned");
            }
            for &(s, e) in &spans {
                prop_assert!(end <= s || va >= e, "overlap: [{va}, {end}) vs [{s}, {e})");
            }
            spans.push((va, end));
        }
    }

    #[test]
    fn page_aligned_allocations_share_pages_with_nothing(
        sizes in prop::collection::vec(1usize..100, 1..20)
    ) {
        let page_words = 256usize;
        let page_bytes = 4 * page_words as u64;
        let mut zone = Zone::new(0x10_0000, 1 << 16, page_words);
        let mut aligned_pages: Vec<(u64, u64)> = Vec::new();
        let mut other_spans: Vec<(u64, u64)> = Vec::new();
        for (i, words) in sizes.iter().enumerate() {
            if zone.remaining_words() < words + 2 * page_words {
                break;
            }
            if i % 2 == 0 {
                let va = zone.alloc_page_aligned(*words);
                aligned_pages.push((va / page_bytes, (va + 4 * *words as u64 - 1) / page_bytes));
            } else {
                let va = zone.alloc_words(*words);
                other_spans.push((va / page_bytes, (va + 4 * *words as u64 - 1) / page_bytes));
            }
        }
        for &(ps, pe) in &aligned_pages {
            for &(os, oe) in &other_spans {
                prop_assert!(pe < os || ps > oe,
                    "page-aligned allocation shares pages [{ps},{pe}] with [{os},{oe}]");
            }
        }
    }

    #[test]
    fn atc_behaves_like_a_lossy_map(
        ops in prop::collection::vec(
            (0u32..4, 0u64..64, any::<bool>(), 0u32..3), 1..200)
    ) {
        // Model: a map from (asid, vpn) to (pp, writable); the ATC may
        // lose entries (conflict eviction) but must never invent or
        // corrupt them.
        use std::collections::HashMap;
        let mut atc = Atc::new(16);
        let mut model: HashMap<(u32, u64), (PhysPage, bool)> = HashMap::new();
        for (asid, vpn, writable, action) in ops {
            match action {
                0 => {
                    let pp = PhysPage::new((vpn % 4) as usize, (vpn % 7) as usize);
                    atc.insert(asid, vpn, pp, writable);
                    model.insert((asid, vpn), (pp, writable));
                }
                1 => {
                    atc.invalidate(asid, vpn);
                    model.remove(&(asid, vpn));
                }
                _ => {
                    if let Some((pp, w)) = atc.lookup(asid, vpn) {
                        let (mpp, mw) = model.get(&(asid, vpn))
                            .copied()
                            .expect("ATC returned an entry the model never had");
                        prop_assert_eq!(pp, mpp, "ATC corrupted a frame");
                        prop_assert_eq!(w, mw, "ATC corrupted rights");
                    }
                }
            }
        }
    }

    #[test]
    fn inverted_page_table_alloc_find_free(
        cpages in prop::collection::vec(0u64..1000, 1..30)
    ) {
        let m = MemoryModule::new(0, 64, 8, 100_000);
        let mut live: Vec<(u64, usize)> = Vec::new();
        for (i, cp) in cpages.iter().enumerate() {
            if live.iter().any(|(c, _)| c == cp) {
                continue; // one copy per cpage per module
            }
            if i % 3 == 2 && !live.is_empty() {
                let (c, f) = live.remove(i % live.len());
                m.free_frame(f);
                prop_assert_eq!(m.find_frame_of(c).frame, None);
            } else if let Some(probe) = m.alloc_frame(*cp) {
                let f = probe.frame.unwrap();
                prop_assert_eq!(m.owner_of(f), Some(*cp));
                live.push((*cp, f));
            }
            // Every live page remains findable.
            for (c, f) in &live {
                prop_assert_eq!(m.find_frame_of(*c).frame, Some(*f));
            }
        }
        prop_assert_eq!(m.frames_allocated(), live.len());
    }

    #[test]
    fn contention_never_charges_an_idle_resource(
        t in 0u64..10_000_000,
        service in 1u64..5_000,
    ) {
        let r = BucketedResource::new(100_000);
        prop_assert_eq!(r.reserve_with(&mut BucketCursor::default(), t, service), 0, "first request must be free");
    }

    #[test]
    fn contention_conserves_work(
        requests in prop::collection::vec((0u64..400_000, 100u64..2000), 1..200)
    ) {
        // Total delay handed out never exceeds total service booked (the
        // server cannot queue more work than was submitted), and is zero
        // when aggregate load fits in capacity.
        let r = BucketedResource::new(100_000);
        let mut total_service = 0u64;
        let mut total_delay = 0u64;
        for &(t, s) in &requests {
            total_delay += r.reserve_with(&mut BucketCursor::default(), t, s);
            total_service += s;
        }
        // Each request's delay is bounded by the backlog, which is
        // bounded by all service ever submitted before it.
        prop_assert!(total_delay <= total_service * requests.len() as u64);
    }

    #[test]
    fn smin_monotonic_in_density_and_g(
        rho in 0.05f64..3.0,
        g in 0.3f64..3.0,
    ) {
        let m = CostModel::paper();
        // Larger density can only shrink (or keep) the minimum page size.
        if let (SMin::Words(a), SMin::Words(b)) = (m.s_min(rho, g), m.s_min(rho + 0.2, g)) {
            prop_assert!(b <= a, "S_min must fall as density rises: {a} -> {b}");
        }
        // Larger g (more data movements per saved remote op) can only
        // grow it — or push it to "never".
        match (m.s_min(rho, g), m.s_min(rho, g * 1.5)) {
            (SMin::Words(a), SMin::Words(b)) => prop_assert!(b >= a),
            (SMin::Never, SMin::Words(_)) => {
                prop_assert!(false, "never cannot become feasible as g grows")
            }
            _ => {}
        }
    }

    #[test]
    fn g_round_robin_decreases(p in 2usize..60) {
        prop_assert!(g_round_robin(p + 1) < g_round_robin(p));
        prop_assert!(g_round_robin(p) > 1.0);
    }

    #[test]
    fn crossover_density_is_consistent_with_s_min(
        s_exp in 6u32..14,
        g in 0.3f64..2.5,
    ) {
        let m = CostModel::paper();
        let s = 1u64 << s_exp;
        let rho_star = m.crossover_density(s, g);
        prop_assert!(m.migration_pays(s, rho_star * 1.05, g));
        prop_assert!(!m.migration_pays(s, rho_star * 0.95, g));
    }
}
