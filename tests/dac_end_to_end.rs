//! End-to-end DAC correctness across the sufficient-adversary matrix:
//! termination, validity, ε-agreement, the Lemma 1 containment chain, the
//! Remark 1 rate bound, and the realized dynaDegree — under crash faults,
//! random inputs, and multiple seeds.

use anondyn::faults::CrashSurvivors;
use anondyn::prelude::*;

const SEEDS: [u64; 4] = [3, 17, 101, 977];

fn check_all(outcome: &Outcome, eps: f64, label: &str) {
    assert_eq!(
        outcome.reason(),
        StopReason::AllOutput,
        "{label}: DAC must terminate ({outcome})"
    );
    assert!(outcome.eps_agreement(eps), "{label}: eps-agreement");
    assert!(outcome.validity(), "{label}: validity");
    assert!(
        outcome.phase_containment_ok(),
        "{label}: Lemma 1 containment chain"
    );
    if let Some(worst) = outcome.worst_rate() {
        assert!(
            worst <= 0.5 + 1e-9,
            "{label}: Remark 1 bound violated: {worst}"
        );
    }
}

#[test]
fn dac_matrix_fault_free() {
    for n in [4usize, 5, 9, 14] {
        let eps = 1e-3;
        let params = Params::fault_free(n, eps).unwrap();
        for spec in AdversarySpec::dac_sufficient(n) {
            for seed in SEEDS {
                let outcome = Simulation::builder(params)
                    .inputs_random(seed)
                    .adversary(spec.build(n, 0, seed))
                    .algorithm(factories::dac(params))
                    .max_rounds(20_000)
                    .run();
                check_all(&outcome, eps, &format!("n={n} {spec} seed={seed}"));
            }
        }
    }
}

#[test]
fn dac_matrix_with_crashes() {
    // n = 2f + 1 exactly: the tightest resilience.
    for (n, f) in [(5usize, 2usize), (9, 4), (7, 3)] {
        let eps = 1e-3;
        let params = Params::new(n, f, eps).unwrap();
        for seed in SEEDS {
            // Crash f nodes at staggered rounds, one of them mid-broadcast.
            let mut crashes = CrashSchedule::new(n);
            for (k, node) in (0..f).map(|k| (k, NodeId::new(n - 1 - k))) {
                let survivors = if k == 0 {
                    CrashSurvivors::Random {
                        keep_probability: 0.5,
                        seed,
                    }
                } else {
                    CrashSurvivors::All
                };
                crashes.crash(node, Round::new(2 * k as u64), survivors);
            }
            let outcome = Simulation::builder(params)
                .inputs_random(seed)
                .adversary(AdversarySpec::DacThreshold.build(n, f, seed))
                .crashes(crashes)
                .algorithm(factories::dac(params))
                .max_rounds(20_000)
                .run();
            check_all(&outcome, eps, &format!("n={n} f={f} seed={seed}"));
            assert_eq!(outcome.honest_ids().len(), n - f);
        }
    }
}

#[test]
fn dac_realized_schedule_meets_requirement() {
    let n = 9;
    let params = Params::fault_free(n, 1e-2).unwrap();
    let outcome = Simulation::builder(params)
        .adversary(AdversarySpec::DacThreshold.build(n, 0, 5))
        .algorithm(factories::dac(params))
        .run();
    // The threshold adversary grants exactly floor(n/2) per round.
    let d = outcome.min_dyna_degree().unwrap();
    assert_eq!(d, params.dac_dyna_degree());
}

#[test]
fn dac_converges_from_identical_inputs_in_place() {
    // All inputs equal: the range is 0 from the start; outputs must equal
    // the common input exactly (validity pins the hull to a point).
    let n = 6;
    let params = Params::fault_free(n, 1e-4).unwrap();
    let v = Value::new(0.375).unwrap();
    let outcome = Simulation::builder(params)
        .inputs(workload::constant(n, v))
        .adversary(AdversarySpec::Rotating { d: 3 }.build(n, 0, 8))
        .algorithm(factories::dac(params))
        .run();
    assert!(outcome.all_honest_output());
    for &id in outcome.honest_ids() {
        assert_eq!(outcome.output_of(id), Some(v));
    }
}

#[test]
fn dac_two_nodes_fault_free() {
    // Smallest interesting system: n = 2, D = 1 means each hears the
    // other; convergence in one phase per round.
    let params = Params::fault_free(2, 1e-3).unwrap();
    let outcome = Simulation::builder(params)
        .inputs(vec![Value::ZERO, Value::ONE])
        .adversary(AdversarySpec::Rotating { d: 1 }.build(2, 0, 1))
        .algorithm(factories::dac(params))
        .run();
    assert!(outcome.all_honest_output());
    assert!(outcome.eps_agreement(1e-3));
}

#[test]
fn dac_rounds_bounded_by_t_times_pend_plus_slack() {
    // Under spread(T, D) the worst-case T * pend round bound holds.
    let n = 7;
    let eps = 1e-3;
    let params = Params::fault_free(n, eps).unwrap();
    for t in [1usize, 3, 5] {
        let outcome = Simulation::builder(params)
            .adversary(
                AdversarySpec::Spread {
                    t,
                    d: params.dac_dyna_degree(),
                }
                .build(n, 0, 2),
            )
            .algorithm(factories::dac(params))
            .max_rounds(50_000)
            .run();
        assert!(outcome.all_honest_output());
        let bound = (t as u64) * params.dac_pend() + t as u64;
        assert!(
            outcome.rounds() <= bound,
            "T={t}: {} rounds > bound {bound}",
            outcome.rounds()
        );
    }
}

#[test]
fn dac_output_range_halves_with_eps() {
    // Tightening eps by 2 adds exactly one phase.
    let n = 5;
    let p1 = Params::fault_free(n, 1e-2).unwrap();
    let p2 = Params::fault_free(n, 5e-3).unwrap();
    assert_eq!(p2.dac_pend(), p1.dac_pend() + 1);
}
