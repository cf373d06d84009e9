//! Parameter study: how rounds-to-agreement distribute across seeds under
//! an unreliable (probabilistic) network — the analysis toolkit in action
//! (Summary, Histogram, Table), plus a DOT snapshot of one round for
//! visual inspection.
//!
//! Run with: `cargo run --release --example parameter_study`

use anondyn::analysis::{Histogram, Summary, Table};
use anondyn::graph::dot;
use anondyn::prelude::*;

fn main() -> Result<(), anondyn::types::Error> {
    let n = 9;
    let eps = 1e-3;
    let params = Params::fault_free(n, eps)?;

    let mut table = Table::new(["link prob p", "mean rounds", "sd", "p95", "max"]);
    for &p in &[0.3, 0.5, 0.7, 0.9] {
        let mut rounds = Summary::new();
        let mut hist = Histogram::new(0.0, 60.0, 12);
        for seed in 0..40u64 {
            let outcome = Simulation::builder(params)
                .inputs_random(seed)
                .adversary(AdversarySpec::Random { p }.build(n, 0, seed * 31 + 7))
                .algorithm(factories::dac(params))
                .max_rounds(100_000)
                .run();
            assert!(outcome.all_honest_output());
            assert!(outcome.eps_agreement(eps));
            rounds.add(outcome.rounds() as f64);
            hist.add(outcome.rounds() as f64);
        }
        table.row([
            format!("{p:.1}"),
            format!("{:.1}", rounds.mean()),
            format!("{:.1}", rounds.std_dev()),
            format!("{:.0}", hist.percentile(95.0).unwrap()),
            format!("{:.0}", rounds.max().unwrap()),
        ]);
        if (p - 0.3).abs() < 1e-9 {
            println!("distribution of rounds at p = 0.3 (40 seeds):");
            println!("{hist}");
        }
    }
    println!("rounds to eps-agreement, DAC, n = {n}, eps = {eps:.0e}:");
    println!("{table}");

    // Render one adversary round as DOT for inspection with graphviz.
    let outcome = Simulation::builder(params)
        .record_schedule(true)
        .adversary(AdversarySpec::Random { p: 0.3 }.build(n, 0, 5))
        .algorithm(factories::dac(params))
        .max_rounds(3)
        .run();
    let g = outcome.schedule().round(Round::new(0)).unwrap();
    println!("round 0 of random(p=0.3) as graphviz DOT:\n");
    println!("{}", dot::edge_set_to_dot(g, "random_round0"));
    Ok(())
}
