//! The trial-lane driver: up to 64 independent trials of one
//! configuration stepped as one lockstep run.
//!
//! Monte-Carlo sweeps (E12, the statistical suites, the fuzz harnesses)
//! run hundreds of *independent trials of the same configuration*.
//! Scalar [`Simulation`](crate::Simulation) runs pay the full per-round
//! driver cost — buffers, adversary view, delivery walk, observer —
//! once per trial. [`LaneRun`] pays it once per *round across all
//! trials*: the per-trial algorithm state lives in an
//! [`adn_core::LanePlane`] (one columnar plane of `n × 64` slots; bit `t`
//! of every lane word is trial `t`), the per-trial links in an
//! [`adn_graph::LaneLinks`] word per directed link, and one
//! receiver-major walk delivers every live trial of a link in a single
//! plane call.
//!
//! Trials whose configuration cannot lane (Byzantine fabrication, event
//! recording, a factory without a lane plane, `PlaneMode::Never`,
//! mismatched parameters within a batch) fall back to scalar runs —
//! exactly the `PlaneMode::Auto` philosophy — via
//! [`TrialPool::run_lanes`](crate::TrialPool::run_lanes), which is the
//! batch front-end: callers hand it one builder closure per trial and
//! get per-trial [`LaneOutcome`]s in input order, lane-stepped where
//! possible and scalar elsewhere, byte-identical either way
//! (`tests/lane_equivalence.rs` fuzzes that contract).

use adn_adversary::{Adversary, AdversaryView};
use adn_core::{LanePlane, LANE_WIDTH};
use adn_faults::CrashSchedule;
use adn_graph::{EdgeSet, LaneLinks, NodeSet};
use adn_net::PortNumbering;
use adn_types::{NodeId, Params, Phase, Round, Value, ValueInterval};

use crate::builder::{PlaneMode, SimBuilder};
use crate::engine::DeliveryOrder;
use crate::outcome::StopReason;

/// Node-count cap of the lane path: the measured crossover. Every lane's
/// fold is scalar, while a scalar run's DAC kernel takes 64 senders per
/// step — so 64 trials as one lane word beat 64 scalar runs only while
/// rows are a word or two long. Per trial, lane / scalar, one worker, DAC
/// under one shared link realization (`Rotating{n/2}`): n = 64 100 / 206
/// µs, 128 354 / 553, 256 1910 / 1050, 512 4990 / 1950; with per-lane
/// links (`Random{0.5}`) the two are level from n = 64 up and the lanes
/// 15–25 % behind from 256. Larger configurations run as scalar trials.
pub const MAX_LANE_N: usize = 128;

/// One trial's result as harvested from a lane (or scalar-fallback) run —
/// the outcome fields whose byte equality the lane contract pins.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneOutcome {
    /// Rounds until the stop condition fired.
    pub rounds: u64,
    /// Why the trial stopped.
    pub reason: StopReason,
    /// Decided output per node slot (`None` for undecided slots).
    pub outputs: Vec<Option<Value>>,
    /// Final state value per node slot.
    pub final_values: Vec<Value>,
    /// Final phase per node slot.
    pub phases: Vec<Phase>,
}

/// Runs one builder as a scalar [`Simulation`](crate::Simulation) and
/// harvests its [`LaneOutcome`] — the fallback path of
/// [`TrialPool::run_lanes`](crate::TrialPool::run_lanes) and the
/// semantic reference the lane path is fuzzed against.
///
/// # Panics
///
/// Same conditions as [`SimBuilder::build`].
pub fn scalar_lane_outcome(builder: SimBuilder) -> LaneOutcome {
    let n = builder.params.n();
    let mut sim = builder.build();
    while sim.stopped().is_none() {
        sim.step();
    }
    // `Outcome` keeps per-phase multisets, not per-node phases — capture
    // them off the live simulation before consuming it.
    let phases: Vec<Phase> = (0..n)
        .map(|i| sim.phase_of(NodeId::new(i)).unwrap_or(Phase::ZERO))
        .collect();
    let outcome = sim.finish();
    LaneOutcome {
        rounds: outcome.rounds(),
        reason: outcome.reason(),
        outputs: (0..n).map(|i| outcome.output_of(NodeId::new(i))).collect(),
        final_values: (0..n)
            .map(|i| outcome.final_value_of(NodeId::new(i)))
            .collect(),
        phases,
    }
}

/// A lockstep run of up to [`LANE_WIDTH`] trials of one configuration.
///
/// Built from one `SimBuilder` per trial via [`LaneRun::try_new`]; the
/// builders must agree on everything the lanes share (parameters, crash
/// schedule, ports, round caps, factory lane fingerprint) while each
/// trial keeps its own inputs and its own adversary instance. Each round
/// the driver steps every live lane; a lane **retires** the moment its
/// scalar run would have stopped (all-output, range convergence, or the
/// round cap), its state freezing in place — no compaction, outcomes
/// harvested in input order by [`LaneRun::finish`].
pub struct LaneRun {
    params: Params,
    ports: PortNumbering,
    crash: CrashSchedule,
    /// One adversary instance per lane (only index 0 is driven when
    /// `shared_links`).
    advs: Vec<Box<dyn Adversary>>,
    /// Whether every lane's adversary declared the same
    /// [`Adversary::lane_key`]: realize links once, broadcast to all.
    shared_links: bool,
    plane: Box<dyn LanePlane>,
    max_rounds: u64,
    range_oracle: Option<f64>,
    fault_free: Vec<NodeId>,
    // Reused per-round scratch — steady-state stepping allocates nothing.
    deliverers: NodeSet,
    honest: NodeSet,
    links: LaneLinks,
    scratch_edges: EdgeSet,
    view_phases: Vec<Phase>,
    view_values: Vec<Value>,
    // Per-lane progress.
    live: u64,
    round: Round,
    lane_rounds: Vec<u64>,
    lane_reasons: Vec<Option<StopReason>>,
}

impl std::fmt::Debug for LaneRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LaneRun(n={}, lanes={}, live={:#x}, round={})",
            self.params.n(),
            self.advs.len(),
            self.live,
            self.round
        )
    }
}

impl LaneRun {
    /// Builds a lane run from one builder per trial, or hands the
    /// builders back when the batch cannot lane — the caller then runs
    /// them as scalar trials (see [`scalar_lane_outcome`]). The gate
    /// mirrors `PlaneMode::Auto`: every builder must offer a lane-capable
    /// factory with one shared lane fingerprint, have no Byzantine nodes,
    /// no event recording, ascending-sender delivery, a plane mode other
    /// than `Never`, and agree on parameters, inputs-independent
    /// configuration (crash schedule, ports, round cap, range oracle),
    /// with `n` at most [`MAX_LANE_N`].
    pub fn try_new(builders: Vec<SimBuilder>) -> Result<LaneRun, Vec<SimBuilder>> {
        if builders.is_empty() || builders.len() > LANE_WIDTH {
            return Err(builders);
        }
        let key = match builders[0].factory.as_ref().and_then(|f| f.lane_key()) {
            Some(key) => key,
            None => return Err(builders),
        };
        {
            let first = &builders[0];
            let n = first.params.n();
            let laneable = n <= MAX_LANE_N
                && builders.iter().all(|b| {
                    b.factory.as_ref().and_then(|f| f.lane_key()) == Some(key)
                        && b.params == first.params
                        && b.byzantine.is_empty()
                        && !b.record_events
                        && b.delivery_order == DeliveryOrder::AscendingSenders
                        && b.plane_mode != PlaneMode::Never
                        && b.max_rounds == first.max_rounds
                        && b.range_oracle == first.range_oracle
                        && b.crash == first.crash
                        && b.ports == first.ports
                        && b.allow_fault_overflow == first.allow_fault_overflow
                });
            // The engine's `f`-bound fault assert would fire on these —
            // run them scalar so the panic site and message stay the
            // scalar engine's.
            let overflow =
                !first.allow_fault_overflow && first.crash.fault_count() > first.params.f();
            if !laneable || overflow {
                return Err(builders);
            }
        }
        let params = builders[0].params;
        let n = params.n();
        let lanes = builders.len();
        let max_rounds = builders[0].max_rounds;
        let range_oracle = builders[0].range_oracle;
        let crash = builders[0].crash.clone();
        // Every lane link is keyed by its real port: the table is built
        // here, not by the first step.
        let ports = SimBuilder::resolve_ports(builders[0].ports.clone(), n);
        ports.materialize();
        let mut lane_inputs = Vec::with_capacity(lanes * n);
        for b in &builders {
            lane_inputs.extend_from_slice(&b.inputs);
        }
        let plane = builders[0]
            .factory
            .as_ref()
            .expect("gated on lane_key")
            .make_lanes(&lane_inputs)
            .expect("gated on lane_key");
        let advs: Vec<Box<dyn Adversary>> = builders.into_iter().map(|b| b.adversary).collect();
        let shared_links = advs[0]
            .lane_key()
            .is_some_and(|k| advs.iter().all(|a| a.lane_key() == Some(k)));
        let fault_free: Vec<NodeId> = NodeId::all(n).filter(|&id| !crash.is_faulty(id)).collect();
        let live = if lanes == LANE_WIDTH {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        };
        Ok(LaneRun {
            params,
            ports,
            crash,
            advs,
            shared_links,
            plane,
            max_rounds,
            range_oracle,
            fault_free,
            deliverers: NodeSet::new(n),
            honest: NodeSet::new(n),
            links: LaneLinks::new(n),
            scratch_edges: EdgeSet::empty(n),
            view_phases: vec![Phase::ZERO; n],
            view_values: vec![Value::HALF; n],
            live,
            round: Round::new(0),
            lane_rounds: vec![0; lanes],
            lane_reasons: vec![None; lanes],
        })
    }

    /// Number of trial lanes in this run.
    pub fn lanes(&self) -> usize {
        self.advs.len()
    }

    /// Lane word of the still-running trials (bit `t` = lane `t` live).
    pub fn live(&self) -> u64 {
        self.live
    }

    /// Whether every lane has retired.
    pub fn is_done(&self) -> bool {
        self.live == 0
    }

    /// AND-fold of the plane's decided words over the fault-free slots:
    /// bit `t` set iff every fault-free slot of lane `t` has output (the
    /// scalar engine's `decided == fault_free.len()`).
    fn all_decided_word(&self) -> u64 {
        self.fault_free.iter().fold(u64::MAX, |acc, &id| {
            acc & self.plane.decided_word(id.index())
        })
    }

    /// The fault-free value range of one lane — the scalar engine's
    /// per-round `range` fold, including its empty-set `0.0` default.
    fn lane_range(&self, lane: usize) -> f64 {
        ValueInterval::of(
            self.fault_free
                .iter()
                .map(|&id| self.plane.value_of(id.index(), lane)),
        )
        .map_or(0.0, ValueInterval::range)
    }

    /// Retires `lane` with the given stop reason at `rounds`.
    fn retire(&mut self, lane: usize, reason: StopReason, rounds: u64) {
        self.live &= !(1u64 << lane);
        self.lane_rounds[lane] = rounds;
        self.lane_reasons[lane] = Some(reason);
    }

    /// Snapshots lane `lane`'s start-of-round state into the adversary
    /// view scratch (the scalar engine's phase/value buffer snapshot).
    fn fill_view(&mut self, lane: usize) {
        self.plane
            .snapshot_lane(lane, &mut self.view_phases, &mut self.view_values);
    }

    /// Runs one round for every live lane, retiring lanes whose stop
    /// condition fires — each lane sees exactly the check order of the
    /// scalar engine's `step` (cap/all-output before the round, then
    /// all-output / range / cap after it, with the round counter
    /// incremented in between).
    // audit: no-alloc
    pub fn step(&mut self) {
        if self.live == 0 {
            return;
        }
        let n = self.params.n();
        // --- The scalar `check_stop_before`, per live lane. ---
        let before = self.round.as_u64();
        if before >= self.max_rounds {
            let mut m = self.live;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                m &= m - 1;
                self.retire(lane, StopReason::MaxRounds, before);
            }
            return;
        }
        let mut decided_now = self.live & self.all_decided_word();
        while decided_now != 0 {
            let lane = decided_now.trailing_zeros() as usize;
            decided_now &= decided_now - 1;
            self.retire(lane, StopReason::AllOutput, before);
        }
        if self.live == 0 {
            return;
        }

        let t = self.round;
        // --- Who transmits this round; who still executes. ---
        self.deliverers.clear();
        self.honest.clear();
        for i in 0..n {
            let id = NodeId::new(i);
            if !self.crash.is_silent(id, t) {
                self.deliverers.insert(id);
            }
            if !self.crash.has_crashed_by(id, t) {
                self.honest.insert(id);
            }
        }

        // --- Broadcast snapshot, then per-lane (or shared) links. ---
        self.plane.begin_round();
        self.links.clear();
        if self.shared_links {
            // One realization serves all lanes: the shared key certifies
            // the choice is pure in (round, deliverers, params) — which
            // also makes the view's phases/values dead inputs, so the
            // per-lane state snapshot is skipped entirely (the scratch
            // holds whatever the last per-lane fill left, or the initial
            // zero state).
            self.drive_adversary(0, t, self.live, false);
        } else {
            let mut m = self.live;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                m &= m - 1;
                self.drive_adversary(lane, t, 1u64 << lane, true);
            }
        }

        // --- Delivery: receiver-major, senders ascending within a
        // receiver — the scalar ascending-sender arrival order. ---
        for v in 0..n {
            let vid = NodeId::new(v);
            if !self.honest.contains(vid) {
                continue;
            }
            for u in 0..n {
                let mask = self.links.word(v, u) & self.live;
                if mask == 0 {
                    continue;
                }
                let uid = NodeId::new(u);
                // The scalar sender classes: Silent delivers nothing,
                // Present unconditionally, Partial per crash fate.
                if self.crash.is_silent(uid, t) {
                    continue;
                }
                if !self.crash.delivers_to_all(uid, t) && !self.crash.delivers(uid, t, vid) {
                    continue;
                }
                self.plane
                    .deliver_link(v, self.ports.port_of(vid, uid), u, mask);
            }
        }

        self.plane.end_round(&self.honest, self.live);
        self.round = t.next();

        // --- The scalar `check_stop_after`, per live lane. ---
        let after = self.round.as_u64();
        let all_decided = self.all_decided_word();
        let mut m = self.live;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            if all_decided & (1u64 << lane) != 0 {
                self.retire(lane, StopReason::AllOutput, after);
            } else if self
                .range_oracle
                .is_some_and(|eps| self.lane_range(lane) <= eps)
            {
                self.retire(lane, StopReason::RangeConverged, after);
            } else if after >= self.max_rounds {
                self.retire(lane, StopReason::MaxRounds, after);
            }
        }
    }

    /// Drives lane `lane`'s adversary for round `t` and ORs its choice
    /// into the lane links under `mask`. `snapshot` controls whether the
    /// lane's state is copied into the view first — the shared-key path
    /// skips it (values/phases are dead inputs under the purity contract).
    fn drive_adversary(&mut self, lane: usize, t: Round, mask: u64, snapshot: bool) {
        if snapshot {
            self.fill_view(lane);
        }
        self.scratch_edges.clear();
        let view = AdversaryView {
            round: t,
            params: self.params,
            phases: &self.view_phases,
            values: &self.view_values,
            deliverers: &self.deliverers,
            honest: &self.honest,
        };
        self.advs[lane].edges_into(&view, &mut self.scratch_edges);
        self.links.or_edgeset(&self.scratch_edges, mask);
    }

    /// Steps until every lane has retired, then harvests the outcomes.
    pub fn run(mut self) -> Vec<LaneOutcome> {
        while self.live != 0 {
            self.step();
        }
        self.finish()
    }

    /// Harvests every lane's [`LaneOutcome`] in input order (callable
    /// mid-flight; unretired lanes report the current round and
    /// `MaxRounds`, like the scalar `finish`).
    pub fn finish(self) -> Vec<LaneOutcome> {
        let n = self.params.n();
        (0..self.advs.len())
            .map(|lane| {
                let (rounds, reason) = match self.lane_reasons[lane] {
                    Some(reason) => (self.lane_rounds[lane], reason),
                    None => (self.round.as_u64(), StopReason::MaxRounds),
                };
                LaneOutcome {
                    rounds,
                    reason,
                    outputs: (0..n).map(|v| self.plane.output_of(v, lane)).collect(),
                    final_values: (0..n).map(|v| self.plane.value_of(v, lane)).collect(),
                    phases: (0..n).map(|v| self.plane.phase_of(v, lane)).collect(),
                }
            })
            .collect()
    }
}
