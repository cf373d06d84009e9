//! The description of one standalone consensus run: everything the
//! simulator is configured with, as plain data derived from a seed. The
//! same description builds the `Simulation` that is measured and the stage
//! replay that is traced next to it, so the two are driven by identical
//! inputs, adversary, faults and port numbering.

use adn_adversary::{Adversary, AdversarySpec};
use adn_core::AlgorithmFactory;
use adn_faults::strategies::{self, ALL_STRATEGY_NAMES};
use adn_faults::{ByzantineStrategy, CrashSchedule, CrashSurvivors};
use adn_net::codec::Precision;
use adn_net::PortNumbering;
use adn_sim::quantized::quantized_factory;
use adn_sim::{factories, workload, DeliveryOrder, LinkMode, PlaneMode, SimBuilder, Simulation};
use adn_types::rng::SplitMix64;
use adn_types::{NodeId, Params, Round, Value};

use crate::util::derive;

/// Which algorithm every fault-free node runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algo {
    /// DAC with the paper's `pend = ⌈log2(1/ε)⌉`.
    Dac,
    /// DBAC with an explicit `pend`: Eq. (6)'s `⌈ln ε / ln(1 − 2⁻ⁿ)⌉`
    /// saturates to `u64::MAX` for `n ≥ 64` and such a run never ends.
    Dbac { pend: u64 },
    /// DBAC with a `k`-deep piggybacked history (no columnar plane).
    Piggyback { k: usize, pend: u64 },
    /// DAC behind the quantized wire format sized for ε.
    QuantizedDac,
}

/// Seed-port of every run: the engine's own default for `n ≤ 4096`, made
/// explicit so the replay numbers ports identically.
const PORT_SEED: u64 = 0xC0FFEE;

#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub algo: Algo,
    pub n: usize,
    pub f: usize,
    pub eps: f64,
    pub adversary: AdversarySpec,
    /// Byzantine nodes, at the highest ids, the stock strategies cycled.
    pub byzantine: usize,
    /// Crashing nodes, at the lowest ids; rounds and survivor modes are
    /// drawn from the seed.
    pub crashes: usize,
    pub order: DeliveryOrder,
    pub plane: PlaneMode,
    pub links: LinkMode,
    pub shards: usize,
    /// Lean observability: no schedule recording, no phase observation.
    pub lean: bool,
    pub events: bool,
    pub max_rounds: u64,
    pub seed: u64,
}

impl RunSpec {
    /// A fault-free DAC run on dense links with default observability;
    /// workloads override the fields they vary.
    pub fn dac(n: usize, eps: f64, seed: u64) -> RunSpec {
        RunSpec {
            algo: Algo::Dac,
            n,
            f: 0,
            eps,
            adversary: AdversarySpec::Complete,
            byzantine: 0,
            crashes: 0,
            order: DeliveryOrder::AscendingSenders,
            plane: PlaneMode::Auto,
            links: LinkMode::Dense,
            shards: 1,
            lean: false,
            events: false,
            max_rounds: 10_000,
            seed,
        }
    }

    pub fn params(&self) -> Params {
        Params::new(self.n, self.f, self.eps).expect("workload parameters are valid")
    }

    pub fn inputs(&self) -> Vec<Value> {
        workload::random(self.n, derive(self.seed, &[1]))
    }

    pub fn adversary(&self) -> Box<dyn Adversary> {
        self.adversary
            .build(self.n, self.f, derive(self.seed, &[2]))
    }

    pub fn strategies(&self) -> Vec<(NodeId, Box<dyn ByzantineStrategy>)> {
        (0..self.byzantine)
            .map(|i| {
                let name = ALL_STRATEGY_NAMES[i % ALL_STRATEGY_NAMES.len()];
                let seed = derive(self.seed, &[3, i as u64]);
                (
                    NodeId::new(self.n - 1 - i),
                    strategies::by_name(name, self.n, seed),
                )
            })
            .collect()
    }

    pub fn crash_schedule(&self) -> CrashSchedule {
        let mut rng = SplitMix64::new(derive(self.seed, &[4]));
        let mut crash = CrashSchedule::new(self.n);
        for i in 0..self.crashes {
            let round = Round::new(rng.next_below(6));
            let survivors = match i % 3 {
                0 => CrashSurvivors::All,
                1 => CrashSurvivors::None,
                _ => CrashSurvivors::Random {
                    keep_probability: 0.5,
                    seed: rng.next_u64(),
                },
            };
            crash.crash(NodeId::new(i), round, survivors);
        }
        crash
    }

    pub fn factory(&self) -> AlgorithmFactory {
        let params = self.params();
        match self.algo {
            Algo::Dac => factories::dac(params),
            Algo::Dbac { pend } => factories::dbac_with_pend(params, pend),
            Algo::Piggyback { k, pend } => factories::dbac_piggyback(params, k, pend),
            Algo::QuantizedDac => {
                quantized_factory(factories::dac(params), Precision::for_eps(self.eps))
            }
        }
    }

    pub fn ports(&self) -> PortNumbering {
        if self.links == LinkMode::Sparse {
            PortNumbering::rotation(self.n, PORT_SEED)
        } else {
            PortNumbering::random(self.n, PORT_SEED)
        }
    }

    pub fn builder(&self) -> SimBuilder {
        let mut b = Simulation::builder(self.params())
            .inputs(self.inputs())
            .adversary(self.adversary())
            .crashes(self.crash_schedule())
            .ports(self.ports())
            .algorithm(self.factory())
            .delivery_order(self.order)
            .algorithm_plane(self.plane)
            .link_mode(self.links)
            .shards(self.shards)
            .record_schedule(!self.lean)
            .observe_phases(!self.lean)
            .record_events(self.events)
            .max_rounds(self.max_rounds);
        for (node, strategy) in self.strategies() {
            b = b.byzantine(node, strategy);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_sim::StopReason;

    #[test]
    fn same_seed_same_run_and_faults_land_where_documented() {
        let mut spec = RunSpec::dac(16, 1e-2, 9);
        spec.f = 3;
        spec.crashes = 3;
        let a = spec.builder().run();
        let b = spec.builder().run();
        assert_eq!(a.reason(), StopReason::AllOutput);
        assert_eq!(a.rounds(), b.rounds());
        assert_eq!(a.honest_outputs(), b.honest_outputs());
        let crash = spec.crash_schedule();
        assert_eq!(crash.fault_count(), 3);
        assert!((0..3).all(|i| crash.is_faulty(NodeId::new(i))));

        spec.algo = Algo::Dbac { pend: 6 };
        spec.crashes = 0;
        spec.byzantine = 3;
        let ids: Vec<usize> = spec.strategies().iter().map(|(id, _)| id.index()).collect();
        assert_eq!(ids, [15, 14, 13]);
        let other = RunSpec { seed: 10, ..spec };
        assert_ne!(spec.inputs(), other.inputs());
    }
}
