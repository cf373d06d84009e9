use std::collections::VecDeque;

use adn_types::{Batch, Message, Params, Phase, Port, Value};

use crate::Algorithm;

/// The §VII "simulate the reliable-channel algorithm by piggybacking
/// history" construction, with a *bounded* history of `k` past states.
///
/// `FullExchange` runs the classic same-phase iterated algorithm of Dolev
/// et al. \[13\]: wait for `n − f` values **of your own phase** (self
/// included), trim the `f` lowest and `f` highest, move to the midpoint of
/// the rest — guaranteed convergence rate **1/2 per phase**, strictly
/// better than DBAC's worst-case `1 − 2⁻ⁿ`.
///
/// In a dynamic network the same-phase requirement is fatal for plain BAC
/// (senders that advanced stop transmitting your phase — §II-D). The fix
/// the paper sketches: every broadcast piggybacks the sender's last `k`
/// phase states, so a receiver that is at most `k` phases behind still
/// hears its own phase. The cost is `(1 + k) × 128` bits per link per
/// round; `k = 0` degenerates to the blocking [`Bac`](crate::baseline::Bac)
/// behavior, and `k` large enough to cover the execution's phase skew
/// restores liveness *and* the rate-1/2 guarantee. Experiment E13 sweeps
/// `k` to exhibit the trade-off.
///
/// # Example
///
/// ```
/// use adn_core::{Algorithm, FullExchange};
/// use adn_types::{Batch, Params, Value};
///
/// let params = Params::new(9, 1, 0.1)?;
/// let mut node = FullExchange::new(params, Value::HALF, 2);
/// let mut batch = Batch::new();
/// node.broadcast_into(&mut batch);
/// assert_eq!(batch.len(), 1); // no history yet
/// assert_eq!(node.name(), "full-exchange");
/// # Ok::<(), adn_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct FullExchange {
    params: Params,
    pend: u64,
    history_len: usize,
    value: Value,
    phase: Phase,
    ports_seen: Vec<bool>,
    /// Same-phase values collected this phase (own value included).
    collected: Vec<Value>,
    /// Most recent first: the node's state in each completed phase.
    history: VecDeque<Message>,
    output: Option<Value>,
}

impl FullExchange {
    /// Creates a node piggybacking up to `k` past states. Terminates at
    /// the rate-1/2 phase count `⌈log₂(1/ε)⌉` (same as DAC — that is the
    /// point of the construction).
    pub fn new(params: Params, input: Value, k: usize) -> Self {
        FullExchange::with_pend(params, input, k, params.dac_pend())
    }

    /// Creates a node with an explicit termination phase.
    pub fn with_pend(params: Params, input: Value, k: usize, pend: u64) -> Self {
        FullExchange {
            params,
            pend,
            history_len: k,
            value: input,
            phase: Phase::ZERO,
            ports_seen: vec![false; params.n()],
            collected: vec![input],
            // At most one entry per completed phase: `pend` bounds the
            // history whatever `k` asks for.
            history: VecDeque::with_capacity(usize::try_from(pend).map_or(k, |p| k.min(p))),
            output: if pend == 0 { Some(input) } else { None },
        }
    }

    /// The history bound `k`.
    pub fn history_len(&self) -> usize {
        self.history_len
    }

    /// Same-phase values collected so far this phase (own included).
    pub fn collected_count(&self) -> usize {
        self.collected.len()
    }
}

impl Algorithm for FullExchange {
    fn broadcast_into(&mut self, out: &mut Batch) {
        out.push(Message::new(self.value, self.phase));
        out.extend(self.history.iter().copied());
    }

    fn receive(&mut self, port: Port, batch: &[Message]) {
        if self.output.is_some() {
            return;
        }
        // One contribution per port per phase; the contribution must be
        // the sender's value *at this node's phase*, current or
        // piggybacked.
        if !self.ports_seen[port.index()] {
            if let Some(msg) = batch.iter().find(|m| m.phase() == self.phase) {
                self.ports_seen[port.index()] = true;
                self.collected.push(msg.value());
            }
        }
        let quorum = self.params.n() - self.params.f();
        if self.collected.len() >= quorum {
            // Only the extremes of the trimmed middle matter: two O(len)
            // selections replace the full sort, and the collection buffer
            // is recycled in place — phase transitions allocate nothing.
            let f = self.params.f();
            let len = self.collected.len();
            assert!(
                len > 2 * f,
                "trimming {f} from each side of {len} values leaves nothing: \
                 the construction requires n >= 3f + 1"
            );
            let lo = *self.collected.select_nth_unstable(f).1;
            let hi = *self.collected.select_nth_unstable(len - 1 - f).1;
            let new_value = lo.midpoint(hi);
            // Archive the completed phase's state for retransmission.
            if self.history_len > 0 {
                self.history
                    .push_front(Message::new(self.value, self.phase));
                self.history.truncate(self.history_len);
            }
            self.value = new_value;
            self.phase = self.phase.next();
            self.ports_seen.fill(false);
            self.collected.clear();
            self.collected.push(self.value);
            if self.phase.as_u64() >= self.pend {
                self.output = Some(self.value);
            }
        }
    }

    fn end_round(&mut self) {}

    fn output(&self) -> Option<Value> {
        self.output
    }

    fn phase(&self) -> Phase {
        self.phase
    }

    fn current_value(&self) -> Value {
        self.value
    }

    fn name(&self) -> &'static str {
        "full-exchange"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::broadcast;

    /// n = 5, f = 1: quorum n - f = 4.
    fn params() -> Params {
        Params::new(5, 1, 0.25).unwrap() // pend = 2
    }

    fn msg(v: f64, p: u64) -> Message {
        Message::new(Value::new(v).unwrap(), Phase::new(p))
    }

    fn val(v: f64) -> Value {
        Value::new(v).unwrap()
    }

    #[test]
    fn same_phase_quorum_advances_with_trimmed_midpoint() {
        let mut node = FullExchange::new(params(), val(0.0), 2);
        node.receive(Port::new(1), &[msg(1.0, 0)]);
        node.receive(Port::new(2), &[msg(0.4, 0)]);
        assert_eq!(node.phase(), Phase::ZERO);
        node.receive(Port::new(3), &[msg(0.6, 0)]);
        // Collected {0, 1, 0.4, 0.6}; trim 1 each side -> {0.4, 0.6} -> 0.5.
        assert_eq!(node.phase(), Phase::new(1));
        assert_eq!(node.current_value(), Value::HALF);
    }

    #[test]
    fn future_phase_without_history_is_useless() {
        let mut node = FullExchange::new(params(), val(0.0), 2);
        node.receive(Port::new(1), &[msg(0.5, 3)]);
        assert_eq!(node.collected_count(), 1, "no same-phase value, no credit");
        assert!(
            !node.ports_seen[1],
            "port stays available for a later resend"
        );
    }

    #[test]
    fn piggybacked_history_provides_my_phase() {
        let mut node = FullExchange::new(params(), val(0.0), 2);
        // A sender two phases ahead piggybacks phases 2 and our phase 0.
        node.receive(Port::new(1), &[msg(0.9, 2), msg(0.8, 1), msg(0.5, 0)]);
        assert_eq!(node.collected_count(), 2);
    }

    #[test]
    fn broadcast_includes_archived_phases() {
        let mut node = FullExchange::with_pend(params(), val(0.0), 2, 10);
        for p in 1..=3 {
            node.receive(Port::new(p), &[msg(0.0, 0)]);
        }
        assert_eq!(node.phase(), Phase::new(1));
        let batch = broadcast(&mut node);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].phase(), Phase::new(1));
        assert_eq!(batch[1].phase(), Phase::ZERO);
        assert_eq!(batch[1].value(), val(0.0));
    }

    #[test]
    fn history_is_bounded_by_k() {
        let mut node = FullExchange::with_pend(params(), val(0.5), 1, 100);
        for _ in 0..3 {
            for p in 1..=3 {
                node.receive(Port::new(p), &[msg(0.5, node.phase().as_u64())]);
            }
        }
        assert_eq!(node.phase(), Phase::new(3));
        assert_eq!(broadcast(&mut node).len(), 2, "only k = 1 archived state");
    }

    #[test]
    fn k_zero_never_retransmits() {
        let mut node = FullExchange::with_pend(params(), val(0.5), 0, 100);
        for p in 1..=3 {
            node.receive(Port::new(p), &[msg(0.5, 0)]);
        }
        assert_eq!(node.phase(), Phase::new(1));
        assert_eq!(broadcast(&mut node).len(), 1);
    }

    #[test]
    fn outputs_at_pend_with_rate_half_count() {
        // eps = 0.25 -> pend = 2, like DAC.
        let mut node = FullExchange::new(params(), val(0.0), 2);
        assert_eq!(node.pend_phases(), 2);
        for round in 0..2u64 {
            for p in 1..=3 {
                node.receive(Port::new(p), &[msg(0.5, round)]);
            }
        }
        assert!(node.output().is_some());
    }

    impl FullExchange {
        fn pend_phases(&self) -> u64 {
            self.pend
        }
    }

    #[test]
    fn duplicate_port_one_credit_per_phase() {
        let mut node = FullExchange::new(params(), val(0.0), 2);
        node.receive(Port::new(1), &[msg(0.3, 0)]);
        node.receive(Port::new(1), &[msg(0.4, 0)]);
        assert_eq!(node.collected_count(), 2);
    }
}
