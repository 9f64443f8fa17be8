//! The recurrent-backpropagation simulator (§5.3): fine-grain,
//! unsynchronized sharing that the coherent memory system correctly
//! gives up on — the pages freeze and remote references take over.
//!
//! Run with:
//!   cargo run --release --example neural_net -- [procs] [epochs]

use platinum_repro::apps::harness::run_neural;
use platinum_repro::apps::neural::NeuralConfig;

fn main() {
    let mut args = std::env::args().skip(1);
    let procs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let epochs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(30);
    let cfg = NeuralConfig::with_epochs(epochs);

    println!(
        "recurrent backprop encoder: 40 units, 16 patterns, {procs} processors, {epochs} epochs\n"
    );
    let (run, err) = run_neural(10.max(procs), procs, &cfg);
    let c = run.run.merged_counters();
    println!("training time:     {:>8.1} ms", run.elapsed_ns as f64 / 1e6);
    println!("final error:       {err:>8.2} (full-scale units)");
    println!("pages frozen:      {:>8}", run.kernel_stats.freezes);
    println!("remote references: {:>7.1}%", c.remote_fraction() * 100.0);
    println!(
        "\n\"Given the very fine-grain nature of the algorithm, PLATINUM cannot\n\
         use replication or migration to good advantage. The coherent memory\n\
         system quickly gives up and the data pages of the application are\n\
         frozen in place.\" (§5.3)"
    );
}
