//! E08 — Resilience boundaries: DAC needs `n ≥ 2f + 1` (crash model) and
//! DBAC needs `n ≥ 5f + 1` (Byzantine model). The sweep shows a sharp
//! on/off boundary, plus the bonus demonstration that DAC is *not*
//! Byzantine-tolerant (a single phase forger hijacks its jump rule).

use std::fmt::Write;

use adn_analysis::Table;
use adn_faults::strategies::{PhaseForger, Silent};
use adn_faults::CrashSchedule;
use adn_sim::{factories, Simulation, StopReason, TrialPool};
use adn_types::{NodeId, Params, Round, Value};

/// Runs the experiment and returns the report.
pub fn run() -> String {
    let mut out = String::new();
    let eps = 1e-2;

    // --- DAC vs crash count. ---
    let mut t = Table::new(["algo", "n", "f", "resilient?", "verdict"]);
    let pool = TrialPool::new();
    let dac_cases = [(5usize, 1usize), (5, 2), (4, 2), (6, 3), (7, 3), (9, 4)];
    let dac_rows = pool.run(&dac_cases, |&(n, f)| {
        let params = Params::new(n, f, eps).expect("valid params");
        let crashes = CrashSchedule::at_rounds(
            n,
            (0..f).map(|i| (NodeId::new(n - 1 - i), Round::new(i as u64))),
        );
        let outcome = Simulation::builder(params)
            .crashes(crashes)
            .algorithm(factories::dac(params))
            .max_rounds(2_000)
            .run();
        let ok = outcome.reason() == StopReason::AllOutput
            && outcome.eps_agreement(eps)
            && outcome.validity();
        assert_eq!(ok, params.dac_resilient(), "DAC n={n} f={f}");
        [
            "DAC/crash".to_string(),
            n.to_string(),
            f.to_string(),
            params.dac_resilient().to_string(),
            if ok {
                format!("ok@{}", outcome.rounds())
            } else {
                format!("blocked@{}", outcome.rounds())
            },
        ]
    });
    for row in dac_rows {
        t.row(row);
    }

    // --- DBAC vs Byzantine count. The attack is f *silent* Byzantine
    // nodes under the complete adversary: with n <= 5f the quorum
    // floor((n+3f)/2)+1 exceeds the n-f nodes that ever transmit, so DBAC
    // blocks; with n >= 5f+1 the honest senders alone suffice. (Two-faced
    // equivocation below the threshold is E07's subject.) ---
    let dbac_cases = [(6usize, 1usize), (5, 1), (11, 2), (10, 2), (16, 3)];
    let dbac_rows = pool.run(&dbac_cases, |&(n, f)| {
        let params = Params::new(n, f, eps).expect("valid params");
        let mut builder = Simulation::builder(params)
            .algorithm(factories::dbac_with_pend(params, 40))
            .max_rounds(2_000);
        for b in 0..f {
            builder = builder.byzantine(NodeId::new(n - 1 - b), Box::new(Silent));
        }
        let outcome = builder.run();
        let ok = outcome.reason() == StopReason::AllOutput
            && outcome.eps_agreement(eps)
            && outcome.validity();
        assert_eq!(ok, params.dbac_resilient(), "DBAC n={n} f={f}");
        [
            "DBAC/byz".to_string(),
            n.to_string(),
            f.to_string(),
            params.dbac_resilient().to_string(),
            if ok {
                format!("ok@{}", outcome.rounds())
            } else {
                format!("blocked@{}", outcome.rounds())
            },
        ]
    });
    for row in dbac_rows {
        t.row(row);
    }
    writeln!(out, "{t}").unwrap();

    // --- Bonus: DAC under a single Byzantine phase forger. ---
    let n = 7;
    let params = Params::new(n, 1, eps).expect("valid params");
    let outcome = Simulation::builder(params)
        .byzantine(
            NodeId::new(6),
            Box::new(PhaseForger::new(1_000, Value::ONE)),
        )
        .algorithm(factories::dac(params))
        .max_rounds(2_000)
        .run();
    // The forged phase-1000 state is copied by the jump rule: every honest
    // node outputs the attacker's value 1.0 regardless of inputs 0..1.
    let hijacked = outcome.honest_outputs().iter().all(|&v| v == Value::ONE);
    writeln!(
        out,
        "bonus: DAC + 1 phase forger: all outputs hijacked to 1.0: {hijacked}\n\
         (validity: {}) -- DAC is a crash-model algorithm; Byzantine behavior\n\
         requires DBAC (S V).",
        outcome.validity(),
    )
    .unwrap();
    assert!(hijacked);
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn boundaries_are_sharp() {
        let r = super::run();
        assert!(r.contains("ok@"));
        assert!(r.contains("blocked@"));
        assert!(r.contains("hijacked to 1.0: true"));
    }
}
