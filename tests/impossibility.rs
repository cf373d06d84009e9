//! The paper's negative results as executable tests: Theorems 9 and 10,
//! Corollary 1's flavor of message-dropping, and the crash/Byzantine model
//! boundary of DAC.

use anondyn::adversary::Theorem10Split;
use anondyn::faults::strategies::{PhaseForger, TwoFaced};
use anondyn::faults::CrashSchedule;
use anondyn::prelude::*;

#[test]
fn theorem9a_partition_blocks_dac_at_any_scale() {
    for n in [4usize, 8, 10, 20] {
        let params = Params::fault_free(n, 1e-2).unwrap();
        let outcome = Simulation::builder(params)
            .inputs(workload::split01(n, n / 2))
            .adversary(AdversarySpec::PartitionHalves.build(n, 0, 1))
            .algorithm(factories::dac(params))
            .max_rounds(500)
            .run();
        assert_eq!(outcome.reason(), StopReason::MaxRounds, "n={n}");
        assert!(!outcome.all_honest_output());
        // Every node is stuck in phase 0: nobody ever reached quorum.
        assert_eq!(outcome.max_phase(), 0, "n={n}");
    }
}

#[test]
fn theorem9a_strawman_violates_agreement() {
    let n = 10;
    let params = Params::fault_free(n, 1e-2).unwrap();
    let outcome = Simulation::builder(params)
        .inputs(workload::split01(n, n / 2))
        .adversary(AdversarySpec::PartitionHalves.build(n, 0, 1))
        .algorithm(factories::local_averager(8))
        .run();
    assert!(outcome.all_honest_output());
    assert!(!outcome.eps_agreement(1e-2));
    assert!((outcome.output_range() - 1.0).abs() < 1e-12);
    // Validity still holds — it is specifically agreement that breaks.
    assert!(outcome.validity());
}

#[test]
fn theorem9b_initial_crashes_block_dac_below_resilience() {
    for (n, f) in [(4usize, 2usize), (6, 3), (10, 5)] {
        let params = Params::new(n, f, 1e-2).unwrap();
        let outcome = Simulation::builder(params)
            .crashes(CrashSchedule::initial_crashes(n, f))
            .algorithm(factories::dac(params))
            .max_rounds(500)
            .run();
        assert_eq!(outcome.reason(), StopReason::MaxRounds, "n={n} f={f}");
    }
}

#[test]
fn theorem10_split_forces_validity_driven_disagreement() {
    for (n, f) in [(8usize, 1usize), (11, 2)] {
        let params = Params::new(n, f, 1e-2).unwrap();
        let inputs: Vec<Value> = (0..n)
            .map(|i| Value::saturating(Theorem10Split::input_of(n, f, NodeId::new(i))))
            .collect();
        let mut builder = Simulation::builder(params)
            .inputs(inputs)
            .adversary(AdversarySpec::Theorem10.build(n, f, 1))
            .algorithm(factories::trimmed_local_averager(n, f, 10));
        for i in Theorem10Split::byzantine_block(n, f) {
            builder = builder.byzantine(NodeId::new(i), Box::new(TwoFaced::zero_one(n / 2)));
        }
        let outcome = builder.run();
        assert!(outcome.all_honest_output());
        // Group A settles on 0, group B on 1 — the proof's forced split.
        let first = outcome.honest_ids()[0];
        let last = *outcome.honest_ids().last().unwrap();
        assert_eq!(outcome.output_of(first), Some(Value::ZERO), "n={n} f={f}");
        assert_eq!(outcome.output_of(last), Some(Value::ONE), "n={n} f={f}");
    }
}

#[test]
fn theorem10_split_blocks_dbac_itself() {
    // DBAC under the same sub-threshold adversary does not violate
    // anything — it simply never decides (termination is what fails).
    let n = 11;
    let f = 2;
    let params = Params::new(n, f, 1e-2).unwrap();
    let mut builder = Simulation::builder(params)
        .adversary(AdversarySpec::Theorem10.build(n, f, 1))
        .algorithm(factories::dbac_with_pend(params, 40))
        .max_rounds(500);
    for i in Theorem10Split::byzantine_block(n, f) {
        builder = builder.byzantine(NodeId::new(i), Box::new(TwoFaced::zero_one(n / 2)));
    }
    let outcome = builder.run();
    assert_eq!(outcome.reason(), StopReason::MaxRounds);
}

#[test]
fn silence_blocks_everything() {
    let n = 5;
    let params = Params::fault_free(n, 1e-2).unwrap();
    for factory in [
        factories::dac(params),
        factories::dbac_with_pend(params, 10),
    ] {
        let outcome = Simulation::builder(params)
            .record_schedule(true)
            .adversary(AdversarySpec::Silence.build(n, 0, 1))
            .algorithm(factory)
            .max_rounds(200)
            .run();
        assert_eq!(outcome.reason(), StopReason::MaxRounds);
        assert_eq!(outcome.schedule().total_edges(), 0);
    }
}

#[test]
fn dac_is_not_byzantine_tolerant() {
    // One phase forger hijacks the whole system through the jump rule:
    // outputs equal the forged value, violating validity. This is why the
    // Byzantine model needs DBAC's no-skip discipline.
    let n = 9;
    let params = Params::new(n, 1, 1e-2).unwrap();
    let forged = Value::new(0.987).unwrap();
    let outcome = Simulation::builder(params)
        .inputs(workload::constant(n, Value::new(0.2).unwrap()))
        .byzantine(NodeId::new(4), Box::new(PhaseForger::new(999, forged)))
        .algorithm(factories::dac(params))
        .max_rounds(200)
        .run();
    assert!(outcome.all_honest_output());
    assert!(!outcome.validity(), "outputs escaped the honest hull");
    for &id in outcome.honest_ids() {
        assert_eq!(outcome.output_of(id), Some(forged));
    }
}

#[test]
fn dbac_resists_the_same_phase_forger() {
    let n = 9;
    let params = Params::new(n, 1, 1e-2).unwrap();
    let outcome = Simulation::builder(params)
        .inputs(workload::constant(n, Value::new(0.2).unwrap()))
        .byzantine(
            NodeId::new(4),
            Box::new(PhaseForger::new(999, Value::new(0.987).unwrap())),
        )
        .algorithm(factories::dbac_with_pend(params, 30))
        .max_rounds(5_000)
        .run();
    assert!(outcome.all_honest_output());
    assert!(outcome.validity());
    assert!(outcome.eps_agreement(1e-2));
    for &id in outcome.honest_ids() {
        assert_eq!(outcome.output_of(id), Some(Value::new(0.2).unwrap()));
    }
}
