use std::fmt;

use adn_graph::Schedule;
use adn_net::Traffic;
use adn_types::{NodeId, Params, Value, ValueInterval};

use crate::observer::{PhaseRecord, RoundTrace};
use crate::trace::EventLog;

/// Why the simulation stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every fault-free node produced an output (the algorithms' own
    /// termination rule fired everywhere).
    AllOutput,
    /// The observer's oracle noticed the fault-free value range dropped to
    /// the configured threshold (used to measure convergence independently
    /// of the paper's `pend`, which is an upper bound: Eq. (6) assumes the
    /// worst-case rate `1 − 2⁻ⁿ` of Thm. 7).
    RangeConverged,
    /// The round cap was hit first — the execution is considered
    /// **blocked** (this is the expected verdict in the impossibility
    /// experiments).
    MaxRounds,
}

/// ε-agreement (Def. 3), the one statement of it: every fault-free node
/// decided (`all_decided`), and the range of their outputs is within
/// `eps`, up to `1e-12` of float rounding.
pub(crate) fn eps_agreement(all_decided: bool, output_range: f64, eps: f64) -> bool {
    all_decided && output_range <= eps + 1e-12
}

/// Validity (Def. 3), the one statement of it: every decided fault-free
/// output lies in the convex hull of the non-Byzantine `inputs` (vacuous
/// without any).
pub(crate) fn validity(
    inputs: impl IntoIterator<Item = Value>,
    outputs: impl IntoIterator<Item = Value>,
) -> bool {
    ValueInterval::of(inputs).is_none_or(|hull| outputs.into_iter().all(|v| hull.contains(v)))
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StopReason::AllOutput => "all-output",
            StopReason::RangeConverged => "range-converged",
            StopReason::MaxRounds => "max-rounds",
        };
        f.write_str(s)
    }
}

/// Everything a finished execution produced: outputs, phase multisets,
/// round traces, traffic counters, the realized (1, D)-dynaDegree and, when
/// asked for, the realized delivery schedule —
/// plus the correctness verdicts (validity, ε-agreement) computed the way
/// the paper defines them.
#[derive(Debug)]
pub struct Outcome {
    pub(crate) params: Params,
    pub(crate) inputs: Vec<Value>,
    /// Fault-free node ids (never crashed, not Byzantine).
    pub(crate) honest: Vec<NodeId>,
    /// Non-Byzantine node ids (fault-free plus crash-faulty) — validity is
    /// defined over *non-Byzantine* inputs (Def. 3).
    pub(crate) non_byzantine: Vec<NodeId>,
    pub(crate) rounds: u64,
    pub(crate) reason: StopReason,
    pub(crate) outputs: Vec<Option<Value>>,
    pub(crate) final_values: Vec<Value>,
    pub(crate) phases: Vec<PhaseRecord>,
    pub(crate) traces: Vec<RoundTrace>,
    pub(crate) schedule: Schedule,
    pub(crate) traffic: Traffic,
    pub(crate) min_dyna_degree: Option<usize>,
    pub(crate) events: Option<EventLog>,
}

impl Outcome {
    /// The parameters the execution ran with.
    pub fn params(&self) -> Params {
        self.params
    }

    /// Number of rounds executed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Why the run stopped.
    pub fn reason(&self) -> StopReason {
        self.reason
    }

    /// Fault-free node ids.
    pub fn honest_ids(&self) -> &[NodeId] {
        &self.honest
    }

    /// Faulty node ids (Byzantine plus ever-crashing) — the set to exempt
    /// when running the dynaDegree checker over [`Outcome::schedule`].
    pub fn faulty_ids(&self) -> Vec<NodeId> {
        NodeId::all(self.params.n())
            .filter(|id| !self.honest.contains(id))
            .collect()
    }

    /// The input vector (all nodes, including faulty ones).
    pub fn inputs(&self) -> &[Value] {
        &self.inputs
    }

    /// The output of `node`, if it decided.
    pub fn output_of(&self, node: NodeId) -> Option<Value> {
        self.outputs[node.index()]
    }

    /// Outputs of all fault-free nodes that decided.
    pub fn honest_outputs(&self) -> Vec<Value> {
        self.honest
            .iter()
            .filter_map(|&id| self.outputs[id.index()])
            .collect()
    }

    /// The current state value of `node` when the run stopped.
    pub fn final_value_of(&self, node: NodeId) -> Value {
        self.final_values[node.index()]
    }

    /// Whether every fault-free node decided (Termination).
    pub fn all_honest_output(&self) -> bool {
        self.honest
            .iter()
            .all(|&id| self.outputs[id.index()].is_some())
    }

    /// ε-agreement over decided fault-free outputs: all pairs within
    /// `eps`. `false` if any fault-free node is undecided.
    pub fn eps_agreement(&self, eps: f64) -> bool {
        eps_agreement(self.all_honest_output(), self.output_range(), eps)
    }

    /// Validity (Def. 3): every decided fault-free output lies in the
    /// convex hull of the **non-Byzantine** inputs.
    pub fn validity(&self) -> bool {
        let inputs = self.non_byzantine.iter().map(|&id| self.inputs[id.index()]);
        let outputs = self
            .honest
            .iter()
            .filter_map(|&id| self.outputs[id.index()]);
        validity(inputs, outputs)
    }

    /// Width of the decided fault-free output hull (0 when fewer than two
    /// outputs).
    pub fn output_range(&self) -> f64 {
        ValueInterval::of(self.honest_outputs()).map_or(0.0, ValueInterval::range)
    }

    /// Width of the fault-free *state value* hull at the end of the run —
    /// meaningful even when the stop reason was the oracle or the cap.
    pub fn final_range(&self) -> f64 {
        ValueInterval::of(self.honest.iter().map(|&id| self.final_values[id.index()]))
            .map_or(0.0, ValueInterval::range)
    }

    /// The per-phase multisets `V(p)` (Def. 5/6).
    pub fn phase_records(&self) -> &[PhaseRecord] {
        &self.phases
    }

    /// `range(V(p))` for each phase.
    pub fn phase_ranges(&self) -> Vec<f64> {
        self.phases.iter().map(PhaseRecord::range).collect()
    }

    /// Measured per-phase contraction `range(V(p+1)) / range(V(p))`,
    /// skipping phases whose range is (numerically) zero. These ratios are
    /// what Remark 1 bounds by 1/2 for DAC and Theorem 7 by `1 − 2⁻ⁿ` for
    /// DBAC.
    pub fn measured_rates(&self) -> Vec<f64> {
        let ranges = self.phase_ranges();
        ranges
            .windows(2)
            .filter(|w| w[0] > 1e-15)
            .map(|w| w[1] / w[0])
            .collect()
    }

    /// The worst (largest) measured contraction ratio, if any phase pair
    /// was measurable.
    pub fn worst_rate(&self) -> Option<f64> {
        self.measured_rates().into_iter().reduce(f64::max)
    }

    /// Checks the interval-containment chain implied by Lemma 1 / Lemma 5:
    /// `interval(V(p+1)) ⊆ interval(V(p))` for every consecutive pair of
    /// non-empty phases.
    pub fn phase_containment_ok(&self) -> bool {
        self.phases
            .windows(2)
            .all(|w| match (w[0].interval(), w[1].interval()) {
                (Some(outer), Some(inner)) => inner.is_subinterval_of(outer),
                _ => true,
            })
    }

    /// Highest phase index any fault-free node entered.
    pub fn max_phase(&self) -> u64 {
        self.phases.len().saturating_sub(1) as u64
    }

    /// Per-round traces (range / phase spread / decided count).
    pub fn traces(&self) -> &[RoundTrace] {
        &self.traces
    }

    /// The realized delivery schedule, for the offline dynaDegree checker
    /// — empty unless the run was built with
    /// [`SimBuilder::record_schedule`](crate::SimBuilder::record_schedule).
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The run's realized (1, D)-dynaDegree (Def. 1 at `T = 1`), metered
    /// on each round's traffic pass whether or not it records: what
    /// `checker::max_dyna_degree(self.schedule(), 1, &self.faulty_ids())`
    /// returns on a recorded run (`None` if no round executed or no node
    /// is fault-free).
    pub fn min_dyna_degree(&self) -> Option<usize> {
        self.min_dyna_degree
    }

    /// Traffic counters for the whole execution.
    pub fn traffic(&self) -> Traffic {
        self.traffic
    }

    /// The structured event log, if `SimBuilder::record_events(true)` was
    /// set.
    pub fn events(&self) -> Option<&EventLog> {
        self.events.as_ref()
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} after {} rounds; outputs {}/{} honest; range {:.3e}",
            self.reason,
            self.rounds,
            self.honest_outputs().len(),
            self.honest.len(),
            self.final_range(),
        )
    }
}
