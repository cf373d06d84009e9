//! `lanes_mc`: Monte-Carlo words of 64 independent DAC trials stepped in
//! lockstep by `LaneRun` — one adversary fill serving all lanes (`shared`)
//! or one fill per live lane (`perlane`).

use std::time::{Duration, Instant};

use adn_adversary::{Adversary, AdversarySpec, AdversaryView};
use adn_core::LANE_WIDTH;
use adn_graph::{EdgeSet, LaneLinks, NodeSet};
use adn_net::PortNumbering;
use adn_sim::{
    factories, scalar_lane_outcome, workload, LaneOutcome, LaneRun, SimBuilder, Simulation,
    StopReason,
};
use adn_types::{NodeId, Params, Phase, Round, Value, ValueInterval};

use super::service::{CountingAdversary, LinkCounts};
use super::Size;
use crate::layers::{probe_port_of, replay_metrics};
use crate::measure::{Cell, LayerMetrics, Recorder};
use crate::spans::{Stage, Tracer};
use crate::stats::Summary;
use crate::util::derive;

pub struct LanesCell {
    pub name: &'static str,
    pub weight: f64,
    pub seed: u64,
    pub size: Size,
    /// `true`: `Rotating{d: n/2}`, whose `lane_key` lets one fill serve
    /// every lane. `false`: `Random{p: 0.5}`, each lane draws its own.
    pub shared: bool,
}

const EPS: f64 = 1e-3;
const MAX_ROUNDS: u64 = 10_000;
/// Trials of each traced word also run as scalar simulations, for the
/// lane-versus-scalar ratio.
const SCALAR_SUBSET: usize = 4;

/// One word's 64 trials: their inputs, and — when built for measuring —
/// the link counters installed around their adversaries.
struct Word {
    inputs: Vec<Vec<Value>>,
    counts: Vec<LinkCounts>,
}

impl LanesCell {
    fn n(&self) -> usize {
        match self.size {
            Size::Full => 64,
            Size::Smoke => 16,
        }
    }

    fn params(&self) -> Params {
        Params::fault_free(self.n(), EPS).expect("valid lane parameters")
    }

    fn adversary(&self, seed: u64) -> Box<dyn Adversary> {
        let n = self.n();
        let spec = if self.shared {
            AdversarySpec::Rotating { d: n / 2 }
        } else {
            AdversarySpec::Random { p: 0.5 }
        };
        spec.build(n, 0, seed)
    }

    fn trial_inputs(&self, word: u64, trial: usize) -> Vec<Value> {
        workload::random(self.n(), derive(self.seed, &[word, trial as u64, 1]))
    }

    fn trial_builder(&self, word: u64, trial: usize, adversary: Box<dyn Adversary>) -> SimBuilder {
        let params = self.params();
        Simulation::builder(params)
            .inputs(self.trial_inputs(word, trial))
            .adversary(adversary)
            .algorithm(factories::dac(params))
            .max_rounds(MAX_ROUNDS)
    }

    fn trial_adversary(&self, word: u64, trial: usize) -> Box<dyn Adversary> {
        self.adversary(derive(self.seed, &[word, trial as u64, 2]))
    }

    /// The 64 builders of word `word`, adversaries wrapped in counters.
    fn word(&self, word: u64) -> (Vec<SimBuilder>, Word) {
        let mut w = Word {
            inputs: Vec::with_capacity(LANE_WIDTH),
            counts: Vec::with_capacity(LANE_WIDTH),
        };
        let builders = (0..LANE_WIDTH)
            .map(|t| {
                let (adversary, counts) = CountingAdversary::wrap(self.trial_adversary(word, t));
                w.inputs.push(self.trial_inputs(word, t));
                w.counts.push(counts);
                self.trial_builder(word, t, adversary)
            })
            .collect();
        (builders, w)
    }

    /// Whether lane `t` ended `AllOutput` with validity and ε-agreement.
    fn decided(inputs: &[Value], outcome: &LaneOutcome) -> bool {
        let Some(hull) = ValueInterval::of(inputs.iter().copied()) else {
            return false;
        };
        let outputs: Vec<Value> = outcome.outputs.iter().flatten().copied().collect();
        outcome.reason == StopReason::AllOutput
            && outputs.len() == inputs.len()
            && outputs.iter().all(|&v| hull.contains(v))
            && ValueInterval::of(outputs).is_some_and(|o| o.range() <= EPS + 1e-12)
    }
}

impl Cell for LanesCell {
    fn name(&self) -> &'static str {
        self.name
    }

    fn weight(&self) -> f64 {
        self.weight
    }

    fn digest_ops(&self) -> u64 {
        2
    }

    fn warm_ops(&self) -> u64 {
        match self.size {
            Size::Full => 4,
            Size::Smoke => 1,
        }
    }

    fn run_op(&mut self, index: u64, rec: &mut Recorder<'_>) {
        let (builders, word) = self.word(index);
        let lanes = builders.len() as u64;
        let mut run = match rec.untimed(Stage::SimBuild, || LaneRun::try_new(builders)) {
            Ok(run) => run,
            Err(_) => {
                rec.stats.ops += lanes;
                rec.stats.failed += lanes - 1;
                rec.stats.fail(format!(
                    "{} op {index}: LaneRun::try_new refused",
                    self.name
                ));
                return;
            }
        };
        let mut ns = 0;
        while !run.is_done() {
            ns += rec.time(Stage::SimLaneStep, || run.step()).1;
        }
        let outcomes = run.finish();
        let lane_rounds: u64 = outcomes.iter().map(|o| o.rounds).sum();
        rec.sample(ns, lane_rounds);

        // Deliveries: each lane-round delivers that round's chosen links.
        // Shared words drive adversary 0 alone, once per word round.
        let mut links = 0u64;
        let mut counted = true;
        for (t, outcome) in outcomes.iter().enumerate() {
            let counts = word.counts[if self.shared { 0 } else { t }].borrow();
            let rounds = outcome.rounds as usize;
            counted &= if self.shared {
                counts.len() >= rounds
            } else {
                counts.len() == rounds
            };
            links += counts
                .iter()
                .take(rounds)
                .map(|&c| u64::from(c))
                .sum::<u64>();
        }

        let stats = &mut *rec.stats;
        stats.ops += lanes;
        stats.rounds += lane_rounds;
        stats.deliveries += links;
        stats.messages += links;
        stats.bits += links * adn_types::Message::WIRE_BITS;
        let mut decided = 0;
        for (t, outcome) in outcomes.iter().enumerate() {
            if Self::decided(&word.inputs[t], outcome) {
                decided += 1;
            } else {
                stats.fail(format!(
                    "{} op {index} lane {t}: {:?} after {} rounds",
                    self.name, outcome.reason, outcome.rounds
                ));
            }
        }
        stats.decisions += decided;
        if !counted {
            stats.fail(format!(
                "{} op {index}: link counters out of step",
                self.name
            ));
        }
        if rec.digesting {
            stats.fixed_rounds += lane_rounds;
            stats.fixed_decisions += decided;
            let d = &mut stats.digest;
            for outcome in &outcomes {
                d.u64(outcome.rounds);
                d.u64(outcome.reason as u64);
                for v in outcome.outputs.iter().flatten() {
                    d.f64(v.get());
                }
            }
            d.u64(links);
        }
    }

    fn trace_layers(&mut self, budget: Duration, tr: &mut Tracer) -> (LayerMetrics, bool) {
        let started = Instant::now();
        let mut state_match = true;
        let (mut lane_rounds, mut word_steps) = (0u64, 0u64);
        let (mut lane_trial_ns, mut scalar_trial_ns) = (Vec::new(), Vec::new());
        let mut pass = 0u64;
        while pass == 0 || started.elapsed() < budget.mul_f64(0.8) {
            let word = super::TRACE_OPS + pass;
            tr.next_op();
            // The spanned twin.
            let builders = (0..LANE_WIDTH)
                .map(|t| self.trial_builder(word, t, self.trial_adversary(word, t)))
                .collect();
            let Ok(mut twin) = LaneRun::try_new(builders) else {
                return (LayerMetrics::new(), false);
            };
            let twin_started = Instant::now();
            while !twin.is_done() {
                tr.span(Stage::SimLaneStep, || twin.step());
            }
            lane_trial_ns.push(twin_started.elapsed().as_nanos() as f64 / LANE_WIDTH as f64);
            let outcomes = twin.finish();
            lane_rounds += outcomes.iter().map(|o| o.rounds).sum::<u64>();
            word_steps += outcomes.iter().map(|o| o.rounds).max().unwrap_or(0);

            // The stage replay of the same word.
            let mut replay = LaneReplay::new(self, word);
            replay.run(tr);
            state_match &= replay.matches(&outcomes);

            // A fixed subset of the word's trials as scalar simulations.
            for (t, outcome) in outcomes.iter().enumerate().take(SCALAR_SUBSET) {
                let builder = self.trial_builder(word, t, self.trial_adversary(word, t));
                let scalar_started = Instant::now();
                let scalar = tr.span(Stage::SimScalarTrial, || scalar_lane_outcome(builder));
                scalar_trial_ns.push(scalar_started.elapsed().as_nanos() as f64);
                state_match &= scalar == *outcome;
            }
            pass += 1;
        }
        let mut m = replay_metrics(tr, Stage::SimLaneStep);
        m.insert(
            "sim.lane_occupancy",
            lane_rounds as f64 / (LANE_WIDTH as u64 * word_steps.max(1)) as f64,
        );
        let speedup = Summary::of(&scalar_trial_ns).median / Summary::of(&lane_trial_ns).median;
        m.insert(
            if self.shared {
                "sim.lane_speedup.shared"
            } else {
                "sim.lane_speedup.perlane"
            },
            speedup,
        );
        m.insert(
            "net.port_of_ns",
            probe_port_of(&PortNumbering::random(self.n(), 0xC0FFEE), self.seed),
        );
        (m, state_match)
    }
}

/// `LaneRun::step` replayed through the public lane-layer calls:
/// `LanePlane::begin_round` → per live lane (or once, when the links are
/// shared) `snapshot_lane` + `Adversary::edges_into` +
/// `LaneLinks::or_edgeset` → per receiver `LanePlane::deliver_link` →
/// `LanePlane::end_round`, retiring lanes by `LaneRun`'s rules. Fault-free
/// runs only (all this workload has): every node transmits and executes.
struct LaneReplay {
    params: Params,
    ports: PortNumbering,
    advs: Vec<Box<dyn Adversary>>,
    shared: bool,
    plane: Box<dyn adn_core::LanePlane>,
    links: LaneLinks,
    scratch: EdgeSet,
    everyone: NodeSet,
    view_phases: Vec<Phase>,
    view_values: Vec<Value>,
    live: u64,
    round: u64,
    lane_rounds: Vec<u64>,
}

impl LaneReplay {
    fn new(cell: &LanesCell, word: u64) -> LaneReplay {
        let n = cell.n();
        let params = cell.params();
        let mut lane_inputs = Vec::with_capacity(LANE_WIDTH * n);
        for t in 0..LANE_WIDTH {
            lane_inputs.extend(cell.trial_inputs(word, t));
        }
        let advs: Vec<Box<dyn Adversary>> = (0..LANE_WIDTH)
            .map(|t| cell.trial_adversary(word, t))
            .collect();
        let shared = advs[0]
            .lane_key()
            .is_some_and(|k| advs.iter().all(|a| a.lane_key() == Some(k)));
        LaneReplay {
            params,
            ports: PortNumbering::random(n, 0xC0FFEE), // the builder's default
            advs,
            shared,
            plane: factories::dac(params)
                .make_lanes(&lane_inputs)
                .expect("DAC has a lane plane"),
            links: LaneLinks::new(n),
            scratch: EdgeSet::empty(n),
            everyone: NodeSet::full(n),
            view_phases: vec![Phase::ZERO; n],
            view_values: vec![Value::HALF; n],
            live: u64::MAX,
            round: 0,
            lane_rounds: vec![0; LANE_WIDTH],
        }
    }

    fn all_decided(&self) -> u64 {
        (0..self.params.n()).fold(u64::MAX, |acc, v| acc & self.plane.decided_word(v))
    }

    fn retire(&mut self, mut lanes: u64) {
        self.live &= !lanes;
        while lanes != 0 {
            self.lane_rounds[lanes.trailing_zeros() as usize] = self.round;
            lanes &= lanes - 1;
        }
    }

    fn drive(&mut self, lane: usize, mask: u64, snapshot: bool, tr: &mut Tracer) {
        if snapshot {
            self.plane
                .snapshot_lane(lane, &mut self.view_phases, &mut self.view_values);
        }
        self.scratch.clear();
        let view = AdversaryView {
            round: Round::new(self.round),
            params: self.params,
            phases: &self.view_phases,
            values: &self.view_values,
            deliverers: &self.everyone,
            honest: &self.everyone,
        };
        tr.span(Stage::AdversaryFill, || {
            self.advs[lane].edges_into(&view, &mut self.scratch);
        });
        tr.count("adversary.fills", 1);
        tr.count("adversary.links", self.scratch.edge_count() as u64);
        tr.span(Stage::GraphLanelinksFill, || {
            self.links.or_edgeset(&self.scratch, mask);
        });
    }

    fn run(&mut self, tr: &mut Tracer) {
        let n = self.params.n();
        while self.live != 0 {
            if self.round >= MAX_ROUNDS {
                self.retire(self.live);
                break;
            }
            self.retire(self.live & self.all_decided());
            if self.live == 0 {
                break;
            }
            tr.enter(Stage::ReplayRound);
            tr.span(Stage::CoreLaneBegin, || self.plane.begin_round());
            tr.span(Stage::GraphLanelinksFill, || self.links.clear());
            if self.shared {
                self.drive(0, self.live, false, tr);
            } else {
                let mut m = self.live;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    self.drive(lane, 1 << lane, true, tr);
                }
            }
            for v in 0..n {
                tr.enter(Stage::CoreLaneDeliver);
                let mut delivered = 0u64;
                for u in 0..n {
                    let mask = self.links.word(v, u) & self.live;
                    if mask != 0 {
                        let port = self.ports.port_of(NodeId::new(v), NodeId::new(u));
                        self.plane.deliver_link(v, port, u, mask);
                        delivered += 1;
                    }
                }
                tr.exit();
                tr.count("core.lane_links", delivered);
            }
            tr.span(Stage::CoreEndRound, || {
                self.plane.end_round(&self.everyone, self.live);
            });
            self.round += 1;
            tr.exit();
            self.retire(self.live & self.all_decided());
        }
    }

    /// Whether every lane's replayed rounds, outputs, values and phases
    /// equal the twin's harvested outcome.
    fn matches(&self, outcomes: &[LaneOutcome]) -> bool {
        let n = self.params.n();
        outcomes.iter().enumerate().all(|(lane, o)| {
            o.rounds == self.lane_rounds[lane]
                && (0..n).all(|v| {
                    o.outputs[v] == self.plane.output_of(v, lane)
                        && o.final_values[v] == self.plane.value_of(v, lane)
                        && o.phases[v] == self.plane.phase_of(v, lane)
                })
        })
    }
}
