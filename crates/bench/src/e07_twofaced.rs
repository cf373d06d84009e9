//! E07 — Theorem 10: with `(1, ⌊(n+3f)/2⌋ − 1)`-dynaDegree and `f`
//! two-faced Byzantine nodes, approximate consensus is impossible — the
//! deciding strawman splits to opposite outputs; with the threshold met,
//! DBAC survives the *same* attack.

use std::fmt::Write;

use adn_adversary::{AdversarySpec, Theorem10Split};
use adn_analysis::Table;
use adn_faults::strategies::TwoFaced;
use adn_sim::{factories, Simulation, StopReason, TrialPool};
use adn_types::{NodeId, Params, Value};

/// Runs the experiment and returns the report.
pub fn run() -> String {
    let mut out = String::new();
    let mut t = Table::new(["n", "f", "setting", "realized D", "verdict", "output range"]);
    let cases = [(8usize, 1usize), (11, 2), (16, 3)];
    let rows = TrialPool::new().run(&cases, |&(n, f)| {
        let params = Params::new(n, f, 1e-2).expect("valid params");
        let byz_block = Theorem10Split::byzantine_block(n, f);
        let inputs: Vec<Value> = (0..n)
            .map(|i| Value::saturating(Theorem10Split::input_of(n, f, NodeId::new(i))))
            .collect();

        // (a) Below threshold: Theorem 10 split adversary + strawman.
        let mut below = Simulation::builder(params)
            .inputs(inputs.clone())
            .adversary(AdversarySpec::Theorem10.build(n, f, 1))
            .algorithm(factories::trimmed_local_averager(n, f, 12));
        for i in byz_block.clone() {
            below = below.byzantine(NodeId::new(i), Box::new(TwoFaced::zero_one(n / 2)));
        }
        let below = below.run();
        let d_below = below.min_dyna_degree().expect("rounds executed");
        assert!(!below.eps_agreement(1e-2), "n={n} f={f} must split");
        let below_row = [
            n.to_string(),
            f.to_string(),
            "below threshold".to_string(),
            d_below.to_string(),
            "splits".to_string(),
            format!("{:.3}", below.output_range()),
        ];

        // (b) At threshold: same two-faced attackers, DBAC, rotating
        // adversary granting exactly floor((n+3f)/2).
        let mut at = Simulation::builder(params)
            .inputs(inputs)
            .adversary(AdversarySpec::DbacThreshold.build(n, f, 3))
            .algorithm(factories::dbac_with_pend(params, 60))
            .max_rounds(20_000);
        for i in byz_block {
            at = at.byzantine(NodeId::new(i), Box::new(TwoFaced::zero_one(n / 2)));
        }
        let at = at.run();
        assert_eq!(at.reason(), StopReason::AllOutput, "n={n} f={f}");
        assert!(at.eps_agreement(1e-2));
        assert!(at.validity());
        let d_at = at.min_dyna_degree().expect("rounds executed");
        let at_row = [
            n.to_string(),
            f.to_string(),
            "at threshold (DBAC)".to_string(),
            d_at.to_string(),
            format!("agrees@{}", at.rounds()),
            format!("{:.2e}", at.output_range()),
        ];
        [below_row, at_row]
    });
    for pair in rows {
        for row in pair {
            t.row(row);
        }
    }
    writeln!(out, "{t}").unwrap();
    writeln!(
        out,
        "check: below the threshold (D = floor((n+3f)/2)-1) the groups split by\n\
         the full range under equivocation; granting one more distinct neighbor\n\
         lets DBAC beat the same attack."
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn equivocation_splits_below_threshold_only() {
        let r = super::run();
        assert!(r.contains("splits"));
        assert!(r.contains("agrees@"));
    }
}
