use platinum_apps::gauss::{self, GaussConfig, GaussLayout};
use platinum_bench::{Args, TraceSink};
use platinum_runtime::sim::SimBuilder;
use platinum_runtime::sync::EventCount;

fn main() {
    let args = Args::parse();
    let sink = TraceSink::from_args(&args);
    let cfg = GaussConfig::with_n(200);
    let h = SimBuilder::nodes(16).build();
    let page_words = h.machine.cfg().words_per_page();
    let stride = cfg.n.div_ceil(page_words) * page_words;
    let pages = (stride * cfg.n).div_ceil(page_words) + 2;
    let mut data = h.alloc_zone(pages);
    let lay = GaussLayout::alloc(&mut data, cfg.n, page_words);
    let mut sync = h.alloc_zone(1);
    let ec = EventCount::new(sync.alloc_words(1));
    let p = 2;
    h.run(p, |tid, ctx| {
        gauss::init_owned_rows(ctx, &lay, &cfg, tid, p)
    });
    let (_, run) = h.run(p, |tid, ctx| {
        gauss::run_shared(ctx, &lay, &cfg, &ec, tid, p)
    });
    for w in &run.workers {
        let c = &w.counters;
        println!(
            "proc {}: vtime={:.0}ms compute={:.0}ms queue={:.0}ms lr={} rr={} lw={} rw={} la={} ra={} blocks={} faults={}",
            w.proc, w.vtime_ns as f64 / 1e6, c.compute_ns as f64 / 1e6,
            c.queue_delay_ns as f64 / 1e6,
            c.local_reads, c.remote_reads, c.local_writes, c.remote_writes,
            c.local_atomics, c.remote_atomics, c.block_transfers, c.faults,
        );
    }
    platinum_bench::trace_out::finish(sink);
}
