//! Determinism and anonymity-invariance guarantees of the substrate.

use anondyn::faults::strategies::RandomNoise;
use anondyn::prelude::*;

fn run_once(seed: u64, ports: PortNumbering) -> Outcome {
    let n = 9;
    let f = 1;
    let params = Params::new(n, f, 1e-3).unwrap();
    Simulation::builder(params)
        .record_schedule(true)
        .inputs_random(seed)
        .ports(ports)
        .adversary(AdversarySpec::Random { p: 0.6 }.build(n, f, seed))
        .byzantine(NodeId::new(3), Box::new(RandomNoise::new(seed)))
        .algorithm(factories::dbac_with_pend(params, 40))
        .max_rounds(50_000)
        .run()
}

#[test]
fn identical_configuration_replays_identically() {
    let a = run_once(42, PortNumbering::random(9, 7));
    let b = run_once(42, PortNumbering::random(9, 7));
    assert_eq!(a.rounds(), b.rounds());
    assert_eq!(a.reason(), b.reason());
    assert_eq!(a.honest_outputs(), b.honest_outputs());
    assert_eq!(a.traffic(), b.traffic());
    assert_eq!(a.schedule(), b.schedule());
    assert_eq!(a.phase_ranges(), b.phase_ranges());
}

#[test]
fn different_seeds_differ() {
    let a = run_once(42, PortNumbering::random(9, 7));
    let b = run_once(43, PortNumbering::random(9, 7));
    // Inputs differ, so outputs must differ (up to astronomically unlikely
    // collisions of 8 random floats).
    assert_ne!(a.honest_outputs(), b.honest_outputs());
}

#[test]
fn correctness_is_port_numbering_invariant() {
    // Anonymity: algorithms cannot depend on which bijection each receiver
    // uses. Exact values may differ (processing order changes tie-breaks),
    // but every correctness property must hold under any numbering.
    for ports_seed in [1u64, 2, 3, 4] {
        let outcome = run_once(11, PortNumbering::random(9, ports_seed));
        assert_eq!(
            outcome.reason(),
            StopReason::AllOutput,
            "ports_seed={ports_seed}"
        );
        assert!(outcome.eps_agreement(1e-3));
        assert!(outcome.validity());
        assert!(outcome.phase_containment_ok());
    }
    let outcome = run_once(11, PortNumbering::identity(9));
    assert_eq!(outcome.reason(), StopReason::AllOutput);
    assert!(outcome.eps_agreement(1e-3));
    assert!(outcome.validity());
}

#[test]
fn step_by_step_equals_run() {
    let n = 6;
    let params = Params::fault_free(n, 1e-3).unwrap();
    let build = || {
        Simulation::builder(params)
            .inputs_random(9)
            .adversary(AdversarySpec::Rotating { d: 3 }.build(n, 0, 9))
            .algorithm(factories::dac(params))
    };
    let whole = build().run();
    let mut sim = build().build();
    while sim.stopped().is_none() {
        sim.step();
    }
    let stepped = sim.finish();
    assert_eq!(whole.rounds(), stepped.rounds());
    assert_eq!(whole.honest_outputs(), stepped.honest_outputs());
}

#[test]
fn trace_round_count_matches_rounds() {
    let n = 5;
    let params = Params::fault_free(n, 1e-3).unwrap();
    let outcome = Simulation::builder(params)
        .record_schedule(true)
        .algorithm(factories::dac(params))
        .run();
    assert_eq!(outcome.traces().len() as u64, outcome.rounds());
    assert_eq!(outcome.schedule().len() as u64, outcome.rounds());
    // Ranges in the trace are non-increasing for DAC under the complete
    // adversary (every node updates every round).
    let ranges: Vec<f64> = outcome.traces().iter().map(|t| t.range).collect();
    assert!(
        ranges.windows(2).all(|w| w[1] <= w[0] + 1e-12),
        "{ranges:?}"
    );
}
