//! Execution observers: per-phase value multisets and per-round traces.

use adn_types::{NodeId, Phase, Round, Value, ValueInterval};

/// The multiset `V(p)` of Definitions 5–6: the phase-`p` state of every
/// node that reached (or skipped past) phase `p`, in the order the nodes
/// entered the phase.
///
/// Skipped phases (DAC's jump) are filled with the jump target's value,
/// exactly as Definition 6 prescribes, so `range(V(p))` matches the
/// quantity the convergence-rate lemmas bound.
#[derive(Debug, Clone, Default)]
pub struct PhaseRecord {
    entries: Vec<(NodeId, Value)>,
}

impl PhaseRecord {
    /// Chronological `(node, value)` entries of this phase.
    pub fn entries(&self) -> &[(NodeId, Value)] {
        &self.entries
    }

    /// Number of nodes recorded in this phase (`n_p` in the paper).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no node reached this phase.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `range(V(p))` — max minus min (0 for fewer than 2 entries).
    pub fn range(&self) -> f64 {
        self.interval().map_or(0.0, ValueInterval::range)
    }

    /// `interval(V(p))` — the convex hull, or `None` when empty.
    pub fn interval(&self) -> Option<ValueInterval> {
        ValueInterval::of(self.entries.iter().map(|&(_, v)| v))
    }

    fn insert(&mut self, node: NodeId, value: Value) {
        // The engine's post-round sweep visits nodes in ascending id
        // order, so within one round entries arrive sorted: a node id
        // greater than the last entry's cannot be a duplicate, making the
        // common case O(1) instead of a scan of everything recorded so
        // far (which the dedup below remains for cross-round stragglers
        // entering an old phase late).
        match self.entries.last() {
            Some(&(last, _)) if node > last => self.entries.push((node, value)),
            None => self.entries.push((node, value)),
            Some(_) => {
                if !self.entries.iter().any(|&(id, _)| id == node) {
                    self.entries.push((node, value));
                }
            }
        }
    }
}

/// One round's aggregate view of the fault-free nodes, for time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundTrace {
    /// The round this snapshot was taken **after**.
    pub round: Round,
    /// Range of fault-free state values.
    pub range: f64,
    /// Minimum phase among fault-free nodes.
    pub min_phase: Phase,
    /// Maximum phase among fault-free nodes.
    pub max_phase: Phase,
    /// How many fault-free nodes have decided.
    pub decided: usize,
}

/// Internal recorder assembled by the engine.
#[derive(Debug, Default)]
pub(crate) struct Observer {
    phases: Vec<PhaseRecord>,
    traces: Vec<RoundTrace>,
}

impl Observer {
    /// Records that `node` entered `phase` holding `value`. Called for
    /// every phase in a jump's skipped span (Def. 6). First write per
    /// (node, phase) wins.
    pub fn record_enter(&mut self, node: NodeId, phase: Phase, value: Value) {
        let idx = phase.as_u64() as usize;
        if idx >= self.phases.len() {
            self.phases.resize_with(idx + 1, PhaseRecord::default);
        }
        self.phases[idx].insert(node, value);
    }

    /// Reserves room for `max_rounds` round traces, at most 64, unless
    /// the vector already has room: called at the top of a run's steps,
    /// so the vector does not grow by doubling in a run's first rounds and
    /// the build does not pay for it. (Reserved at the first push, at the
    /// end of round 0, the block landed above a logged run's growing event
    /// log and raised the peak RSS of back-to-back logged runs at
    /// n ≤ 129 from 13 to 16 MB.)
    pub fn reserve_traces(&mut self, max_rounds: u64) {
        if self.traces.capacity() == 0 {
            self.traces.reserve(max_rounds.min(64) as usize);
        }
    }

    pub fn record_trace(&mut self, trace: RoundTrace) {
        self.traces.push(trace);
    }

    /// Capacity-preserving reset for the service layer's instance
    /// turnover: trace list and every phase record's entries are cleared
    /// in place. The phase record *slots* stay (an instance reaching
    /// fewer phases than a predecessor leaves empty trailing records) —
    /// harmless, since a service run never converts the observer into an
    /// [`Outcome`](crate::Outcome), and `record_enter`'s first-write-wins
    /// dedup sees cleared entry lists.
    pub fn clear(&mut self) {
        for p in &mut self.phases {
            p.entries.clear();
        }
        self.traces.clear();
    }

    pub fn into_parts(self) -> (Vec<PhaseRecord>, Vec<RoundTrace>) {
        (self.phases, self.traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(v: f64) -> Value {
        Value::new(v).unwrap()
    }

    #[test]
    fn phase_record_range_and_interval() {
        let mut obs = Observer::default();
        obs.record_enter(NodeId::new(0), Phase::ZERO, val(0.1));
        obs.record_enter(NodeId::new(1), Phase::ZERO, val(0.7));
        let (phases, _) = obs.into_parts();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].len(), 2);
        assert!((phases[0].range() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn first_entry_per_node_wins() {
        let mut obs = Observer::default();
        obs.record_enter(NodeId::new(0), Phase::ZERO, val(0.1));
        obs.record_enter(NodeId::new(0), Phase::ZERO, val(0.9));
        let (phases, _) = obs.into_parts();
        assert_eq!(phases[0].entries(), &[(NodeId::new(0), val(0.1))]);
    }

    #[test]
    fn gaps_create_empty_records() {
        let mut obs = Observer::default();
        obs.record_enter(NodeId::new(0), Phase::new(2), val(0.5));
        let (phases, _) = obs.into_parts();
        assert_eq!(phases.len(), 3);
        assert!(phases[0].is_empty());
        assert_eq!(phases[0].range(), 0.0);
        assert!(phases[0].interval().is_none());
    }

    #[test]
    fn traces_accumulate_in_order() {
        let mut obs = Observer::default();
        for t in 0..3 {
            obs.record_trace(RoundTrace {
                round: Round::new(t),
                range: 1.0 / (t + 1) as f64,
                min_phase: Phase::ZERO,
                max_phase: Phase::new(t),
                decided: 0,
            });
        }
        let (_, traces) = obs.into_parts();
        assert_eq!(traces.len(), 3);
        assert_eq!(traces[2].max_phase, Phase::new(2));
    }
}
