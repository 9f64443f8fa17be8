//! The §4.2 frozen-page diagnosis, made from the event trace instead of
//! the aggregate post-mortem report: install a tracer, replay the
//! co-located layout, then read the freeze → remote-references → thaw
//! story for the hottest page straight off its timeline.
//!
//! Run with:
//!   cargo run --release --example trace_anecdote

use platinum_repro::apps::gauss::GaussConfig;
use platinum_repro::apps::harness::run_gauss_anecdote;
use platinum_repro::kernel::trace::timeline::{frozen_spans, page_timeline};
use platinum_repro::kernel::trace::{install_global, EventKind};

fn main() {
    // The tracer is process-global so the harness's kernels (built
    // internally) pick it up when they boot.
    let tracer = install_global();

    let cfg = GaussConfig {
        n: 120,
        ..Default::default()
    };
    let run = run_gauss_anecdote(16, 8, &cfg, true, 1_000_000_000);
    let trace = tracer.snapshot();
    println!(
        "co-located layout, thawing kernel: {:.1} ms, {} events traced\n",
        run.elapsed_ns as f64 / 1e6,
        trace.events.len()
    );

    // Find the frozen page with the most remote-mapped faults — the
    // references the paper's programmers saw as a sudden slowdown.
    let hottest = trace
        .of_kind(EventKind::Freeze)
        .map(|e| e.page)
        .max_by_key(|&page| {
            frozen_spans(&trace, page)
                .iter()
                .map(|s| s.remote_maps_while_frozen)
                .sum::<usize>()
        });

    match hottest {
        Some(page) => {
            let spans = frozen_spans(&trace, page);
            let remote: usize = spans.iter().map(|s| s.remote_maps_while_frozen).sum();
            println!(
                "cpage {page}: {} frozen span(s), {remote} remote-mapped fault(s) while frozen",
                spans.len()
            );
            print!("{}", page_timeline(&trace, page));
        }
        None => println!("no page froze — rerun with more processors"),
    }
}
