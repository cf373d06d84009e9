//! E18 — Scale: simulator throughput and algorithm behavior as `n` grows.
//!
//! The paper's round and phase counts are independent of `n` (Eq. 2) or
//! nearly so; what grows is per-round work (O(n²) links). This experiment
//! verifies the n-independence of the *algorithmic* cost on large systems
//! and records the substrate's wall-clock throughput for the record.

use std::fmt::Write;
use std::time::Instant;

use adn_adversary::AdversarySpec;
use adn_analysis::Table;
use adn_sim::{factories, Simulation, StopReason, TrialPool};
use adn_types::{NodeId, Params};

/// Runs the experiment and returns the report.
pub fn run() -> String {
    let mut out = String::new();
    let eps = 1e-3;
    let mut t = Table::new([
        "n",
        "f",
        "algo",
        "rounds",
        "phases",
        "links delivered",
        "wall ms",
    ]);
    // 512 and 1024 joined the sweep once the columnar algorithm plane
    // made them affordable (the delivery plane steps a complete-graph
    // n = 1024 round in single-digit milliseconds).
    let sizes = [16usize, 32, 64, 128, 256, 512, 1024];
    // One worker on purpose: this experiment *times* each run, and
    // concurrent trials would contend for cores and inflate the wall-ms
    // column. The TrialPool contract (input-ordered results) still holds.
    let rows = TrialPool::with_threads(1).run(&sizes, |&n| {
        // DAC, fault-free, threshold adversary.
        let params = Params::fault_free(n, eps).expect("valid params");
        let started = Instant::now();
        let outcome = Simulation::builder(params)
            .inputs_random(7)
            .adversary(AdversarySpec::DacThreshold.build(n, 0, 7))
            .algorithm(factories::dac(params))
            .max_rounds(10_000)
            .run();
        let wall = started.elapsed().as_millis();
        assert_eq!(outcome.reason(), StopReason::AllOutput, "n={n}");
        assert!(outcome.eps_agreement(eps));
        let dac_row = [
            n.to_string(),
            "0".to_string(),
            "dac".to_string(),
            outcome.rounds().to_string(),
            outcome.max_phase().to_string(),
            outcome.traffic().deliveries().to_string(),
            wall.to_string(),
        ];

        // DBAC with the full Byzantine budget.
        let f = (n - 1) / 5;
        let params = Params::new(n, f, eps).expect("valid params");
        let mut builder = Simulation::builder(params)
            .inputs_random(7)
            .adversary(AdversarySpec::DbacThreshold.build(n, f, 7))
            .algorithm(factories::dbac_with_pend(params, u64::MAX))
            .stop_when_range_below(eps)
            .max_rounds(10_000);
        for b in 0..f {
            builder = builder.byzantine(
                NodeId::new(n - 1 - b),
                adn_faults::strategies::by_name("flip-flop", n, b as u64),
            );
        }
        let started = Instant::now();
        let outcome = builder.run();
        let wall = started.elapsed().as_millis();
        assert_eq!(outcome.reason(), StopReason::RangeConverged, "n={n}");
        let dbac_row = [
            n.to_string(),
            f.to_string(),
            "dbac".to_string(),
            outcome.rounds().to_string(),
            outcome.max_phase().to_string(),
            outcome.traffic().deliveries().to_string(),
            wall.to_string(),
        ];
        [dac_row, dbac_row]
    });
    for pair in rows {
        for row in pair {
            t.row(row);
        }
    }
    writeln!(out, "{t}").unwrap();
    writeln!(
        out,
        "check: DAC's rounds equal pend = 10 at every n (Eq. 2 is\n\
         n-independent); deliveries grow ~n^2 per round; the columnar\n\
         algorithm plane carries n = 1024 systems in a handful of\n\
         milliseconds per round."
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn scales_to_1024_nodes() {
        let r = super::run();
        assert!(r.contains("1024"));
    }
}
