//! Replays the §4.2 frozen-page anecdote with the tracer attached and
//! prints the diagnosis the paper's post-mortem report made possible —
//! this time from the event timeline rather than aggregate counters.
//!
//! The run uses the accidental co-located layout (barrier words sharing
//! a page with the matrix-size variable) and the thawing kernel (t2 =
//! 1 s). The report shows, for the frozen page:
//!
//!   * the freeze itself (and how stale the page's invalidation history
//!     was when the policy pulled the trigger),
//!   * the remote-mapped faults piling up while the page stayed frozen —
//!     each one a remote reference in some processor's inner loop,
//!   * the defrost daemon's thaw ending the span.
//!
//! `--n N` (120) and `--procs P` (8) size the elimination. The artifact
//! is the same report as fields (elapsed_ns, event totals, hottest
//! frozen page), so CI can diff them instead of scraping text.

use platinum::trace::json::Value;
use platinum::trace::timeline::{frozen_spans, page_timeline};
use platinum::trace::EventKind;
use platinum_apps::gauss::GaussConfig;
use platinum_apps::harness::run_gauss_anecdote;

use crate::run::{Artifact, Run};

pub(crate) fn run(run: &mut Run) {
    let n = run.args.get_or("--n", 120usize);
    let p = run.args.count("--procs", 1..).unwrap_or(8);
    run.start(Artifact::Json);
    let tracer = run.tracer();

    say!(
        run,
        "Section 4.2 anecdote under the tracer ({n}x{n} elimination, p={p})\n"
    );
    let cfg = GaussConfig::with_n(n);
    let app = run_gauss_anecdote(16.max(p), p, &cfg, true, 1_000_000_000);
    let trace = tracer.snapshot();

    // The diagnosis: the page with the longest frozen exposure.
    let mut frozen_pages: Vec<(u64, usize)> = trace
        .of_kind(EventKind::Freeze)
        .map(|e| e.page)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .map(|page| {
            let remote: usize = frozen_spans(&trace, page)
                .iter()
                .map(|s| s.remote_maps_while_frozen)
                .sum();
            (page, remote)
        })
        .collect();
    frozen_pages.sort_by_key(|&(_, remote)| std::cmp::Reverse(remote));

    let totals: Vec<(&str, usize)> = EventKind::ALL
        .into_iter()
        .map(|kind| (kind.name(), trace.count(kind)))
        .filter(|&(_, c)| c > 0)
        .collect();
    let count = |c: usize| Value::Int(c as u64);
    run.artifact(Value::obj(vec![
        ("n", count(n)),
        ("procs", count(p)),
        ("elapsed_ns", Value::Int(app.elapsed_ns)),
        ("events_traced", count(trace.events.len())),
        ("events_dropped", Value::Int(trace.dropped)),
        (
            "event_totals",
            Value::obj(totals.iter().map(|&(k, c)| (k, count(c))).collect()),
        ),
        (
            "hottest_frozen_page",
            frozen_pages.first().map_or(Value::Null, |&(page, remote)| {
                Value::obj(vec![
                    ("cpage", Value::Int(page)),
                    ("remote_maps_while_frozen", count(remote)),
                ])
            }),
        ),
    ]));
    if !run.text() {
        return;
    }

    println!(
        "run: {:.1} ms, {} events traced ({} dropped)",
        app.elapsed_ns as f64 / 1e6,
        trace.events.len(),
        trace.dropped
    );
    println!(
        "{}\n",
        crate::report::atc_summary(&app.run.merged_counters())
    );
    println!("event totals:");
    for (kind, c) in totals {
        println!("  {kind:<16} {c:>8}");
    }
    println!();

    match frozen_pages.first() {
        Some(&(page, remote)) => {
            println!(
                "hottest frozen page: cpage {page} ({remote} remote-mapped faults while frozen)\n"
            );
            print!("{}", page_timeline(&trace, page));
            println!(
                "\ndiagnosis: every remote-mapped fault above is a processor taking a remote\n\
                 reference in its inner loop because the page was frozen — the paper's\n\
                 bottleneck, visible directly on the timeline."
            );
        }
        None => println!("no page froze during this run (try a larger --procs)"),
    }
}
