//! E04 — Theorem 9(a): `(1, ⌊n/2⌋−1)`-dynaDegree is insufficient. Under
//! the partition adversary DAC blocks forever; a strawman that decides
//! anyway violates ε-agreement by the full input range.

use std::fmt::Write;

use adn_adversary::AdversarySpec;
use adn_analysis::Table;
use adn_sim::{factories, workload, Simulation, StopReason, TrialPool};
use adn_types::Params;

/// Runs the experiment and returns the report.
pub fn run() -> String {
    let mut out = String::new();
    let mut t = Table::new([
        "n",
        "realized D",
        "required D",
        "DAC verdict",
        "strawman range",
        "violation",
    ]);
    let sizes = [6usize, 8, 12, 16];
    let rows = TrialPool::new().run(&sizes, |&n| {
        let params = Params::fault_free(n, 1e-2).expect("valid params");
        let dac = Simulation::builder(params)
            .inputs(workload::split01(n, n / 2))
            .adversary(AdversarySpec::PartitionHalves.build(n, 0, 1))
            .algorithm(factories::dac(params))
            .max_rounds(1_000)
            .run();
        let realized = dac.min_dyna_degree().expect("rounds executed");
        let strawman = Simulation::builder(params)
            .inputs(workload::split01(n, n / 2))
            .adversary(AdversarySpec::PartitionHalves.build(n, 0, 1))
            .algorithm(factories::local_averager(10))
            .run();
        assert_eq!(dac.reason(), StopReason::MaxRounds, "DAC must block");
        assert!(!strawman.eps_agreement(1e-2), "strawman must violate");
        [
            n.to_string(),
            realized.to_string(),
            params.dac_dyna_degree().to_string(),
            format!("blocked@{}", dac.rounds()),
            format!("{:.3}", strawman.output_range()),
            "yes".to_string(),
        ]
    });
    for row in rows {
        t.row(row);
    }
    writeln!(out, "{t}").unwrap();
    writeln!(
        out,
        "check: realized D = floor(n/2)-1 (one below required); DAC never\n\
         decides; the deciding strawman disagrees by the full input range."
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn partition_blocks_dac_and_splits_strawman() {
        let r = super::run();
        assert!(r.contains("blocked@"));
        assert!(r.contains("yes"));
    }
}
