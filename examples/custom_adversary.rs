//! Implementing your own message adversary against the public API.
//!
//! The paper's model quantifies over *all* adversaries; downstream users
//! will want to plug in their own mobility or interference models. This
//! example implements a "convoy" adversary — nodes drive in a line and
//! each only hears a window of nearby nodes, with the window drifting over
//! time — and checks what dynaDegree it realizes and that DAC still
//! converges when the window is wide enough.
//!
//! Run with: `cargo run --example custom_adversary`

use anondyn::adversary::{Adversary, AdversaryView};
use anondyn::graph::EdgeSet;
use anondyn::prelude::*;

/// Each node hears its `reach` predecessors and successors in convoy
/// order, where the convoy order rotates by one position every `drift`
/// rounds (vehicles overtaking each other).
#[derive(Debug)]
struct Convoy {
    reach: usize,
    drift: u64,
}

impl Adversary for Convoy {
    fn edges_into(&mut self, view: &AdversaryView<'_>, e: &mut EdgeSet) {
        let n = view.params.n();
        let shift = (view.round.as_u64() / self.drift) as usize % n;
        for v in 0..n {
            // Position of v in the current convoy order.
            let pos_v = (v + shift) % n;
            for u in view.deliverers.iter() {
                if u.index() == v {
                    continue;
                }
                let pos_u = (u.index() + shift) % n;
                let dist = pos_u.abs_diff(pos_v).min(n - pos_u.abs_diff(pos_v));
                if dist <= self.reach {
                    e.insert(u, NodeId::new(v));
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "convoy"
    }
}

fn main() -> Result<(), anondyn::types::Error> {
    let n = 9;
    let eps = 1e-3;
    let params = Params::fault_free(n, eps)?;

    for reach in [1usize, 2, 4] {
        let outcome = Simulation::builder(params)
            .inputs_spread()
            .adversary(Box::new(Convoy { reach, drift: 2 }))
            .algorithm(factories::dac(params))
            .max_rounds(2_000)
            .run();
        let d1 = checker::max_dyna_degree(outcome.schedule(), 1, &[]).unwrap();
        println!(
            "reach {reach}: realized (1,{d1})-dynaDegree (DAC needs {}), verdict: {}",
            params.dac_dyna_degree(),
            if outcome.all_honest_output() {
                format!(
                    "converged in {} rounds, range {:.1e}",
                    outcome.rounds(),
                    outcome.output_range()
                )
            } else {
                "blocked (window too narrow)".to_string()
            }
        );
        if outcome.all_honest_output() {
            assert!(outcome.eps_agreement(eps));
            assert!(outcome.validity());
        }
    }
    println!("\na convoy with reach >= 2 gives every vehicle 2*reach in-neighbors");
    println!("per round, which clears DAC's floor(n/2) = 4 requirement at reach 2.");
    Ok(())
}
