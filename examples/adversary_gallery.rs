//! Gallery of message adversaries: run each one, record the realized
//! delivery schedule, and let the checker certify which (T, D)-dynaDegree
//! it provides.
//!
//! Run with: `cargo run --example adversary_gallery`

use anondyn::analysis::Table;
use anondyn::prelude::*;

fn main() -> Result<(), anondyn::types::Error> {
    let n = 9;
    let params = Params::fault_free(n, 1e-2)?;
    let rounds = 80;

    let specs = [
        AdversarySpec::Complete,
        AdversarySpec::Rotating { d: 4 },
        AdversarySpec::Spread { t: 4, d: 4 },
        AdversarySpec::AlternatingComplete { period: 3 },
        AdversarySpec::PartitionHalves,
        AdversarySpec::Random { p: 0.5 },
        AdversarySpec::AdaptiveClosest { d: 4 },
    ];

    let mut table = Table::new(["adversary", "D@T=1", "D@T=2", "D@T=4", "DAC ok?"]);
    for spec in specs {
        // Record the realized schedule by running DAC under the adversary
        // (capped; blocking adversaries simply hit the cap).
        let outcome = Simulation::builder(params)
            .record_schedule(true)
            .adversary(spec.build(n, 0, 13))
            .algorithm(factories::dac(params))
            .max_rounds(rounds)
            .run();
        let sched = outcome.schedule();
        let d = |t: usize| {
            checker::max_dyna_degree(sched, t, &[]).map_or("-".to_string(), |d| d.to_string())
        };
        table.row([
            spec.to_string(),
            d(1),
            d(2),
            d(4),
            if outcome.all_honest_output() {
                "yes"
            } else {
                "blocked"
            }
            .to_string(),
        ]);
    }
    println!(
        "realized dynaDegree per adversary (n = {n}, DAC needs D >= {}):",
        n / 2
    );
    println!("{table}");

    // The Figure 1 example needs n = 3.
    let p3 = Params::fault_free(3, 1e-2)?;
    let outcome = Simulation::builder(p3)
        .record_schedule(true)
        .adversary(AdversarySpec::Figure1.build(3, 0, 1))
        .algorithm(factories::dac(p3))
        .max_rounds(200)
        .run();
    let sched = outcome.schedule();
    println!(
        "figure 1 (n=3): satisfies (2,1): {}, satisfies (1,1): {}, DAC decided: {}",
        checker::satisfies_dyna_degree(sched, 2, 1, &[]),
        checker::satisfies_dyna_degree(sched, 1, 1, &[]),
        outcome.all_honest_output(),
    );
    Ok(())
}
