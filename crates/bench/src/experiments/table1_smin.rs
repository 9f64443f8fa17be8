//! Table 1: inequality (2) evaluated at the paper's (ρ, g) grid.
//!
//! "It always pays to migrate data when the page size is greater than
//! S_min." Prints the table computed from the coefficients as the paper
//! published them (107 and 0.24), and, with `--raw`, from the raw
//! Butterfly Plus latencies (`--overhead-ns N` then overrides the fixed
//! overhead F).

use platinum_analysis::model::{table1, CostModel, TABLE1_GS};
use platinum_analysis::report::Table;

use crate::run::{Artifact, Run};

pub(crate) fn run(run: &mut Run) {
    let model = if run.args.flag("--raw") {
        let mut m = CostModel::paper();
        if let Some(f) = run.args.get::<f64>("--overhead-ns") {
            m.overhead_ns = f;
        }
        m
    } else {
        CostModel::paper_published()
    };
    run.start(Artifact::None);

    println!("Table 1: minimum page size (words) for which migration always pays");
    println!(
        "model: T_l={} ns  T_r={} ns  T_b={:.0} ns  F={:.0} ns  (coef={:.2}, ratio={:.3})\n",
        model.t_local_ns,
        model.t_remote_ns,
        model.t_block_ns,
        model.overhead_ns,
        model.overhead_coefficient(),
        model.block_ratio()
    );

    let mut t = Table::new(vec![
        "rho".to_string(),
        format!("g(p)={}", TABLE1_GS[0]),
        format!("g(p)={}", TABLE1_GS[1]),
        format!("g(p)={}", TABLE1_GS[2]),
    ]);
    for (rho, cols) in table1(&model) {
        t.row(vec![
            format!("{rho:.2}"),
            cols[0].to_string(),
            cols[1].to_string(),
            cols[2].to_string(),
        ]);
    }
    println!("{t}");
    println!("paper prints 435 at (rho=0.48, g=1); 107/(0.48-0.24) = 445.8,");
    println!("matching the 445 it prints at (rho=0.24, g=0.5) — a suspected typo.");
}
