//! Compare the replication-policy family (§4.2, §8) on a controllable
//! sharing workload: round-robin turns over one page with a chosen
//! reference density.
//!
//! Run with:
//!   cargo run --release --example policy_explorer -- [refs_per_op]

use platinum_repro::apps::harness::PolicyKind;
use platinum_repro::apps::workloads::{round_robin, SharingConfig};
use platinum_repro::runtime::sim::SimBuilder;
use platinum_repro::runtime::sync::EventCount;

fn main() {
    let refs: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(512);
    let p = 4;
    let cfg = SharingConfig {
        struct_words: 1024,
        refs_per_op: refs,
        write_pct: 50,
        ops_per_proc: 40,
        compute_ns_per_op: 50_000,
    };
    println!(
        "round-robin shared page, {} processors, density rho = {:.2}\n",
        p,
        refs as f64 / 1024.0
    );
    println!(
        "{:<28} {:>10} {:>8} {:>8} {:>9} {:>8}",
        "policy", "time ms", "migr", "repl", "remote", "freezes"
    );
    for policy in [
        PolicyKind::Platinum,
        PolicyKind::PlatinumThawOnAccess,
        PolicyKind::NeverReplicate,
        PolicyKind::AlwaysReplicate,
        PolicyKind::AceStyle,
    ] {
        let h = SimBuilder::nodes(p)
            .frames_per_node(128)
            .policy(policy)
            .build();
        let mut data = h.alloc_zone(2);
        let base = data.alloc_page_aligned(cfg.struct_words);
        let mut sync = h.alloc_zone(1);
        let turn = EventCount::new(sync.alloc_words(1));
        let run = h.steps("measured", p, |tid| round_robin(base, &turn, &cfg, tid, p));
        let s = h.kernel.stats().snapshot();
        println!(
            "{:<28} {:>10.2} {:>8} {:>8} {:>9} {:>8}",
            policy.name(),
            run.elapsed_ns() as f64 / 1e6,
            s.migrations,
            s.replications,
            s.remote_maps,
            s.freezes,
        );
    }
    println!(
        "\nTry different densities: below the crossover (inequality 2) static\n\
         placement wins; above it migration wins; PLATINUM's policy adapts."
    );
}
