//! Engine edge cases: Byzantine-to-Byzantine links, crash-round receive
//! semantics, oracle/termination priority, minimal systems, and round caps.

use anondyn::faults::strategies::{Extreme, TwoFaced};
use anondyn::faults::CrashSurvivors;
use anondyn::prelude::*;
use anondyn::sim::Event;

#[test]
fn byzantine_receivers_get_no_deliveries() {
    // Byzantine nodes have no state machine; links into them must not
    // appear in the realized schedule nor in the traffic counters.
    let n = 6;
    let params = Params::new(n, 1, 1e-2).unwrap();
    let outcome = Simulation::builder(params)
        .record_schedule(true)
        .byzantine(NodeId::new(0), Box::new(Extreme { value: Value::ONE }))
        .algorithm(factories::dbac_with_pend(params, 10))
        .record_events(true)
        .max_rounds(500)
        .run();
    let log = outcome.events().unwrap();
    assert_eq!(
        log.received_by(NodeId::new(0)).count(),
        0,
        "byzantine slot must receive nothing"
    );
    for (_, e) in outcome.schedule().iter() {
        assert_eq!(e.in_degree(NodeId::new(0)), 0);
    }
}

#[test]
fn crash_round_node_broadcasts_but_does_not_transition() {
    let n = 5;
    let params = Params::new(n, 1, 1e-4).unwrap();
    let victim = NodeId::new(4);
    let mut crashes = CrashSchedule::new(n);
    crashes.crash(victim, Round::new(2), CrashSurvivors::All);
    let outcome = Simulation::builder(params)
        .crashes(crashes)
        .algorithm(factories::dac(params))
        .record_events(true)
        .max_rounds(500)
        .run();
    let log = outcome.events().unwrap();
    // The victim broadcasts in rounds 0, 1, 2 (its final partial send)...
    let bcasts: Vec<_> = log
        .for_node(victim)
        .filter(|e| matches!(e, Event::Broadcast { .. }))
        .map(|e| e.round().as_u64())
        .collect();
    assert_eq!(bcasts, vec![0, 1, 2]);
    // ...but never advances in its crash round or later.
    let advances: Vec<_> = log
        .phase_timeline(victim)
        .iter()
        .map(|(r, _)| r.as_u64())
        .collect();
    assert!(advances.iter().all(|&r| r < 2), "advances: {advances:?}");
    // And the crash event is logged at round 2.
    assert!(log
        .for_node(victim)
        .any(|e| matches!(e, Event::Crash { round, .. } if round.as_u64() == 2)));
}

#[test]
fn all_output_takes_priority_over_oracle() {
    // When both fire in the same round, AllOutput is reported: the run
    // genuinely finished.
    let n = 4;
    let params = Params::fault_free(n, 0.5).unwrap(); // pend = 1
    let outcome = Simulation::builder(params)
        .algorithm(factories::dac(params))
        .stop_when_range_below(0.9) // trivially true after one round too
        .run();
    assert_eq!(outcome.reason(), StopReason::AllOutput);
}

#[test]
fn max_rounds_zero_is_immediately_blocked() {
    let n = 4;
    let params = Params::fault_free(n, 1e-3).unwrap();
    let outcome = Simulation::builder(params)
        .algorithm(factories::dac(params))
        .max_rounds(0)
        .run();
    assert_eq!(outcome.reason(), StopReason::MaxRounds);
    assert_eq!(outcome.rounds(), 0);
}

#[test]
fn single_node_system_decides_alone() {
    // n = 1: the node is its own quorum (floor(1/2)+1 = 1) and should walk
    // through pend phases without any links at all.
    let params = Params::fault_free(1, 1e-2).unwrap();
    let outcome = Simulation::builder(params)
        .inputs(vec![Value::new(0.7).unwrap()])
        .algorithm(factories::dac(params))
        .max_rounds(100)
        .run();
    assert_eq!(outcome.reason(), StopReason::AllOutput);
    assert_eq!(
        outcome.output_of(NodeId::new(0)),
        Some(Value::new(0.7).unwrap())
    );
}

#[test]
fn finish_midflight_reports_max_rounds() {
    let params = Params::fault_free(4, 1e-6).unwrap();
    let mut sim = Simulation::builder(params)
        .algorithm(factories::dac(params))
        .build();
    sim.step();
    sim.step();
    let outcome = sim.finish();
    assert_eq!(outcome.rounds(), 2);
    assert_eq!(outcome.reason(), StopReason::MaxRounds);
    assert!(!outcome.all_honest_output());
}

#[test]
fn byzantine_cannot_be_crashed_too() {
    // A node registered Byzantine is excluded from the crash schedule's
    // effect (its slot has no algorithm); the fault budget check counts
    // both. Registering both for one node would double-count the budget —
    // the builder panics on the combined total.
    let n = 5;
    let params = Params::new(n, 1, 1e-2).unwrap();
    let crashes = CrashSchedule::at_rounds(n, [(NodeId::new(1), Round::new(1))]);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Simulation::builder(params)
            .crashes(crashes)
            .byzantine(NodeId::new(2), Box::new(TwoFaced::zero_one(2)))
            .algorithm(factories::dac(params))
            .build()
    }));
    assert!(result.is_err(), "1 crash + 1 byzantine > f = 1 must panic");
}

#[test]
fn inputs_are_preserved_in_outcome() {
    let n = 3;
    let params = Params::fault_free(n, 0.5).unwrap();
    let inputs = vec![
        Value::new(0.1).unwrap(),
        Value::new(0.2).unwrap(),
        Value::new(0.3).unwrap(),
    ];
    let outcome = Simulation::builder(params)
        .inputs(inputs.clone())
        .algorithm(factories::dac(params))
        .run();
    assert_eq!(outcome.inputs(), &inputs[..]);
}
