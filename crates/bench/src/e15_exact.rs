//! E15 — Corollary 1: deterministic binary **exact** consensus is
//! impossible even with `(1, n−2)`-dynaDegree and zero faults.
//!
//! Constructive demonstration: min-flooding solves exact consensus on the
//! complete graph, but the [`OmitOne`](adn_adversary::OmitOne) adversary —
//! which removes exactly one incoming link per receiver per round, the
//! strongest dynaDegree short of complete — suppresses the unique minimum
//! forever, leaving its holder in permanent disagreement. Approximate
//! consensus (DAC) is unharmed by the same adversary: that is precisely
//! the exact/approximate boundary the paper draws.

use std::fmt::Write;

use adn_adversary::AdversarySpec;
use adn_analysis::Table;
use adn_sim::{factories, workload, Simulation, TrialPool};
use adn_types::{Params, Value};

/// Runs the experiment and returns the report.
pub fn run() -> String {
    let mut out = String::new();
    let mut t = Table::new([
        "n",
        "adversary",
        "realized D",
        "algorithm",
        "exact agreement",
        "range",
    ]);
    let sizes = [4usize, 6, 10];
    let rows = TrialPool::new().run(&sizes, |&n| {
        let params = Params::fault_free(n, 1e-9).expect("valid params");
        // One node holds 0, the rest hold 1 (binary inputs).
        let inputs = workload::split01(n, 1);

        // (a) Complete graph: min-flood reaches exact consensus on 0.
        let complete = Simulation::builder(params)
            .inputs(inputs.clone())
            .adversary(AdversarySpec::Complete.build(n, 0, 1))
            .algorithm(factories::min_flood(n as u64))
            .run();
        let all_zero = complete.honest_outputs().iter().all(|&v| v == Value::ZERO);
        assert!(all_zero, "n={n}: complete graph must flood the minimum");
        let complete_row = [
            n.to_string(),
            "complete".to_string(),
            (n - 1).to_string(),
            "min-flood".to_string(),
            "yes (all 0)".to_string(),
            format!("{:.1}", complete.output_range()),
        ];

        // (b) OmitOne: exactly (1, n-2); the minimum never propagates.
        let omitted = Simulation::builder(params)
            .inputs(inputs.clone())
            .adversary(AdversarySpec::OmitLowest.build(n, 0, 1))
            .algorithm(factories::min_flood(n as u64))
            .run();
        let d = omitted.min_dyna_degree().expect("rounds executed");
        assert_eq!(d, n - 2, "n={n}: OmitOne must realize n-2");
        assert!(
            (omitted.output_range() - 1.0).abs() < 1e-12,
            "n={n}: the minimum's holder must disagree"
        );
        let omitted_row = [
            n.to_string(),
            "omit-lowest".to_string(),
            d.to_string(),
            "min-flood".to_string(),
            "NO (0 vs 1)".to_string(),
            format!("{:.1}", omitted.output_range()),
        ];

        // (c) Same adversary, *approximate* consensus: DAC is fine —
        // (1, n-2) is far above its floor(n/2) requirement.
        let eps = 1e-3;
        let params_apx = Params::fault_free(n, eps).expect("valid params");
        let dac = Simulation::builder(params_apx)
            .inputs(inputs)
            .adversary(AdversarySpec::OmitLowest.build(n, 0, 1))
            .algorithm(factories::dac(params_apx))
            .run();
        assert!(dac.all_honest_output());
        assert!(dac.eps_agreement(eps), "n={n}: DAC must still converge");
        let dac_row = [
            n.to_string(),
            "omit-lowest".to_string(),
            (n - 2).to_string(),
            "dac (eps=1e-3)".to_string(),
            format!("eps-agrees@{}", dac.rounds()),
            format!("{:.1e}", dac.output_range()),
        ];
        [complete_row, omitted_row, dac_row]
    });
    for triple in rows {
        for row in triple {
            t.row(row);
        }
    }
    writeln!(out, "{t}").unwrap();
    writeln!(
        out,
        "check: with every receiver missing just one message per round the\n\
         unique minimum never spreads — exact consensus fails at (1, n-2)\n\
         (Corollary 1 via Gafni-Losa) while approximate consensus is easy."
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn exact_fails_approximate_succeeds() {
        let r = super::run();
        assert!(r.contains("NO (0 vs 1)"));
        assert!(r.contains("eps-agrees@"));
    }
}
