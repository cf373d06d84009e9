//! Quickstart: five anonymous nodes reach ε-agreement under a churning
//! network using DAC (Algorithm 1).
//!
//! This drives a **single consensus instance** to completion — the
//! simplest execution mode, not the only one. A long-lived stream of
//! instances over one engine, with nodes crashing, recovering, and
//! joining between instances, is service mode: see
//! `examples/service_mode.rs`.
//!
//! Run with: `cargo run --example quickstart`

use anondyn::prelude::*;

fn main() -> Result<(), anondyn::types::Error> {
    // n = 5 nodes, no node faults, agree to within eps = 1e-3.
    let params = Params::fault_free(5, 1e-3)?;

    // The message adversary reshuffles each node's 3 in-neighbors every
    // round — the network never stabilizes, but satisfies
    // (1, 3)-dynaDegree, which exceeds DAC's floor(n/2) = 2 requirement.
    let adversary = AdversarySpec::Rotating { d: 3 }.build(params.n(), params.f(), 7);

    let outcome = Simulation::builder(params)
        .inputs_spread() // inputs 0, 0.25, 0.5, 0.75, 1
        .adversary(adversary)
        .algorithm(factories::dac(params))
        .run();

    println!(
        "stopped: {} after {} rounds",
        outcome.reason(),
        outcome.rounds()
    );
    println!("phases used: {}", outcome.max_phase());
    for &id in outcome.honest_ids() {
        println!(
            "  node {id}: input {} -> output {}",
            outcome.inputs()[id.index()],
            outcome.output_of(id).expect("all nodes decide"),
        );
    }
    println!("output range: {:.3e}", outcome.output_range());
    assert!(outcome.eps_agreement(1e-3));
    assert!(outcome.validity());
    println!("validity and eps-agreement verified");

    // Every run meters its realized (1, D)-dynaDegree as it goes:
    let d = outcome.min_dyna_degree().unwrap();
    println!("realized (1, D)-dynaDegree: D = {d}");
    Ok(())
}
