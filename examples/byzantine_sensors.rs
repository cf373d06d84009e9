//! Byzantine sensor fusion: 11 anonymous sensors agree on a reading while
//! two compromised sensors attack, using DBAC (Algorithm 2).
//!
//! One attacker equivocates (the Theorem 10 two-faced attack: "0" to half
//! the network, "1" to the other half — undetectable under anonymity); the
//! other pushes a constant extreme. With n = 11 ≥ 5f + 1 and the network
//! granting the required floor((n+3f)/2) = 8 dynamic degree, DBAC still
//! converges inside the honest input hull.
//!
//! Run with: `cargo run --example byzantine_sensors`

use anondyn::faults::strategies::{Extreme, TwoFaced};
use anondyn::prelude::*;

fn main() -> Result<(), anondyn::types::Error> {
    let n = 11;
    let f = 2;
    let eps = 1e-2;
    let params = Params::new(n, f, eps)?;

    // Honest readings cluster around 0.42; attackers sit at indices 3, 8.
    let mut inputs = workload::clustered(n, 0.42, 0.08, 2024);
    inputs[3] = Value::HALF; // attacker inputs are irrelevant
    inputs[8] = Value::HALF;

    let adversary = AdversarySpec::DbacThreshold.build(n, f, 11);

    let outcome = Simulation::builder(params)
        .inputs(inputs.clone())
        .adversary(adversary)
        .byzantine(NodeId::new(3), Box::new(TwoFaced::zero_one(n / 2)))
        .byzantine(NodeId::new(8), Box::new(Extreme { value: Value::ONE }))
        // Eq. (6) pend for n = 11 is ~3200 phases; perfectly runnable, but
        // the oracle shows convergence is far faster in practice. We run
        // the real termination rule with a tighter, still-safe pend for
        // the demo (E06, `exp 6`, has the full-bound runs).
        .algorithm(factories::dbac_with_pend(params, 60))
        .run();

    println!(
        "stopped: {} after {} rounds",
        outcome.reason(),
        outcome.rounds()
    );
    let honest_inputs: Vec<Value> = outcome
        .honest_ids()
        .iter()
        .map(|&id| inputs[id.index()])
        .collect();
    let hull = ValueInterval::of(honest_inputs).expect("honest sensors exist");
    println!("honest input hull: {hull}");
    for &id in outcome.honest_ids() {
        let out = outcome.output_of(id).expect("honest sensors decide");
        println!("  sensor {id}: fused reading {out}");
        assert!(hull.contains(out), "validity violated!");
    }
    println!(
        "disagreement: {:.2e} (eps = {eps:.0e})",
        outcome.output_range()
    );
    assert!(outcome.eps_agreement(eps));
    assert!(outcome.validity());
    println!("two attackers defeated: outputs stayed inside the honest hull");
    Ok(())
}
