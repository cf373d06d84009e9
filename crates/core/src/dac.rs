use adn_types::{Batch, Message, Params, Phase, Port, Value};

use crate::Algorithm;

/// DAC — Dynamic Approximate Consensus (Algorithm 1 of the paper).
///
/// Crash-tolerant approximate consensus for anonymous dynamic networks.
/// Correct when `n ≥ 2f + 1` and the realized delivery graph satisfies
/// `(T, ⌊n/2⌋)`-dynaDegree for some finite (unknown) `T`. Converges with
/// the optimal rate 1/2 per phase and outputs at phase
/// `pend = ⌈log₂(1/ε)⌉` (Eq. 2).
///
/// The two ideas that distinguish DAC from classic reliable-channel
/// iterating algorithms (§IV):
///
/// 1. **Jump**: on receiving a message from a higher phase `q`, the node
///    adopts the received state wholesale and jumps to `q` — no need to
///    re-send old phases under message loss.
/// 2. **Port bit vector**: the node tracks which local ports already
///    contributed a value *in its current phase*, so `⌊n/2⌋ + 1` distinct
///    same-phase values (its own included) can be recognized even when
///    they arrive scattered across many rounds.
///
/// Only `v_min`/`v_max` of the current phase are stored (not the multiset),
/// so the state is O(n) bits for the port vector plus O(1) values —
/// matching the paper's frugality.
///
/// # Example
///
/// ```
/// use adn_core::{Algorithm, Dac};
/// use adn_types::{Params, Port, Value};
///
/// let params = Params::new(5, 1, 0.5)?;
/// let mut node = Dac::new(params, Value::new(0.2)?);
/// assert_eq!(node.phase().as_u64(), 0);
/// assert!(node.output().is_none());
/// # Ok::<(), adn_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Dac {
    params: Params,
    pend: u64,
    value: Value,
    vmin: Value,
    vmax: Value,
    phase: Phase,
    /// `R_i` — which ports contributed a value in the current phase. The
    /// node's own contribution (`R_i[i] = 1` in the paper) is tracked
    /// implicitly: see [`Dac::distinct_count`].
    ports_seen: Vec<bool>,
    seen_count: usize,
    output: Option<Value>,
}

impl Dac {
    /// Creates a node with the given input, terminating at the paper's
    /// `pend = ⌈log₂(1/ε)⌉`.
    pub fn new(params: Params, input: Value) -> Self {
        Dac::with_pend(params, input, params.dac_pend())
    }

    /// Creates a node with an explicit termination phase (used by
    /// experiments that run past or short of the paper's bound).
    pub fn with_pend(params: Params, input: Value, pend: u64) -> Self {
        let mut node = Dac {
            params,
            pend,
            value: input,
            vmin: input,
            vmax: input,
            phase: Phase::ZERO,
            ports_seen: vec![false; params.n()],
            seen_count: 0,
            output: None,
        };
        node.maybe_output();
        node
    }

    /// The termination phase in effect.
    pub fn pend(&self) -> u64 {
        self.pend
    }

    /// Distinct same-phase contributions so far, including the node's own
    /// (`|R_i|` in the paper).
    pub fn distinct_count(&self) -> usize {
        self.seen_count + 1
    }

    /// Alg. 1, `RESET()`: clear the port vector and collapse the tracked
    /// extrema onto the current value.
    fn reset(&mut self) {
        self.ports_seen.fill(false);
        self.seen_count = 0;
        self.vmin = self.value;
        self.vmax = self.value;
    }

    /// Alg. 1, `STORE(v_j)`: widen the tracked extrema.
    fn store(&mut self, v: Value) {
        if v < self.vmin {
            self.vmin = v;
        } else if v > self.vmax {
            self.vmax = v;
        }
    }

    fn maybe_output(&mut self) {
        if self.output.is_none() && self.phase.as_u64() >= self.pend {
            self.output = Some(self.value);
        }
    }

    /// Processes one received message (Alg. 1 lines 5–15).
    fn process(&mut self, port: Port, msg: Message) {
        if self.output.is_some() {
            // Decided nodes keep broadcasting but no longer update; their
            // phase can only be pend, and every fault-free peer reaches
            // pend on its own (or jumps straight to it).
            return;
        }
        if msg.phase() > self.phase {
            // Jump: adopt the future state wholesale.
            self.value = msg.value();
            self.phase = msg.phase();
            self.reset();
        } else if msg.phase() == self.phase && !self.ports_seen[port.index()] {
            self.ports_seen[port.index()] = true;
            self.seen_count += 1;
            self.store(msg.value());
        }
        self.try_advance();
    }

    /// Advances while the quorum condition already holds — in particular
    /// for the degenerate `n = 1` system whose quorum is the node itself.
    fn try_advance(&mut self) {
        while self.output.is_none() && self.distinct_count() >= self.params.dac_quorum() {
            self.value = self.vmin.midpoint(self.vmax);
            self.phase = self.phase.next();
            self.reset();
            self.maybe_output();
        }
        self.maybe_output();
    }
}

impl Algorithm for Dac {
    fn broadcast_into(&mut self, out: &mut Batch) {
        out.push(Message::new(self.value, self.phase));
    }

    fn receive(&mut self, port: Port, batch: &[Message]) {
        for &msg in batch {
            self.process(port, msg);
        }
    }

    fn end_round(&mut self) {
        // A node can be its own quorum only when n = 1; for n >= 2 the
        // initial count of 1 is always below floor(n/2) + 1 and this is a
        // no-op.
        self.try_advance();
    }

    fn output(&self) -> Option<Value> {
        self.output
    }

    fn phase(&self) -> Phase {
        self.phase
    }

    fn current_value(&self) -> Value {
        self.value
    }

    fn reset_instance(&mut self, input: Value) -> bool {
        self.value = input;
        self.phase = Phase::ZERO;
        self.output = None;
        self.reset();
        self.maybe_output();
        true
    }

    fn name(&self) -> &'static str {
        "dac"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::single_broadcast;

    fn params(n: usize, f: usize) -> Params {
        Params::new(n, f, 0.25).unwrap() // pend = 2
    }

    fn msg(v: f64, p: u64) -> Message {
        Message::new(Value::new(v).unwrap(), Phase::new(p))
    }

    #[test]
    fn broadcast_carries_state() {
        let mut node = Dac::new(params(5, 1), Value::new(0.3).unwrap());
        let m = single_broadcast(&mut node);
        assert_eq!(m.value().get(), 0.3);
        assert_eq!(m.phase(), Phase::ZERO);
    }

    #[test]
    fn quorum_advances_phase_with_midpoint() {
        // n = 5: quorum 3 = self + 2 foreign values.
        let mut node = Dac::new(params(5, 1), Value::new(0.0).unwrap());
        node.receive(Port::new(1), &[msg(1.0, 0)]);
        assert_eq!(node.phase(), Phase::ZERO, "2 of 3 contributions");
        node.receive(Port::new(2), &[msg(0.5, 0)]);
        assert_eq!(node.phase(), Phase::new(1));
        // vmin = 0.0 (own), vmax = 1.0 -> midpoint 0.5.
        assert_eq!(node.current_value(), Value::HALF);
    }

    #[test]
    fn duplicate_port_does_not_count_twice() {
        let mut node = Dac::new(params(5, 1), Value::ZERO);
        node.receive(Port::new(1), &[msg(1.0, 0)]);
        node.receive(Port::new(1), &[msg(0.9, 0)]);
        node.receive(Port::new(1), &[msg(0.8, 0)]);
        assert_eq!(
            node.phase(),
            Phase::ZERO,
            "same port cannot fill the quorum"
        );
        assert_eq!(node.distinct_count(), 2);
    }

    #[test]
    fn jump_adopts_future_state() {
        let mut node = Dac::new(params(5, 1), Value::ZERO);
        node.receive(Port::new(3), &[msg(0.7, 1)]);
        assert_eq!(node.phase(), Phase::new(1));
        assert_eq!(node.current_value().get(), 0.7);
        // Jump resets the port vector: the same port can contribute anew
        // in the new phase.
        assert_eq!(node.distinct_count(), 1);
    }

    #[test]
    fn jump_resets_extrema_to_adopted_value() {
        let mut node = Dac::new(params(5, 1), Value::ZERO);
        // Phase-0 value widens extrema...
        node.receive(Port::new(1), &[msg(1.0, 0)]);
        // ...then a jump discards them.
        node.receive(Port::new(2), &[msg(0.6, 1)]);
        // Now two phase-1 values complete a quorum around 0.6.
        node.receive(Port::new(1), &[msg(0.6, 1)]);
        node.receive(Port::new(3), &[msg(0.6, 1)]);
        assert_eq!(node.phase(), Phase::new(2));
        assert_eq!(node.current_value().get(), 0.6);
    }

    #[test]
    fn stale_phase_messages_are_ignored() {
        let mut node = Dac::new(params(5, 1), Value::HALF);
        node.receive(Port::new(1), &[msg(0.9, 1)]); // jump to 1
        node.receive(Port::new(2), &[msg(0.0, 0)]); // stale
        assert_eq!(node.distinct_count(), 1, "stale message must not count");
        assert_eq!(node.current_value().get(), 0.9);
    }

    #[test]
    fn outputs_at_pend() {
        // eps = 0.25 -> pend = 2.
        let mut node = Dac::new(params(3, 1), Value::ZERO);
        // n = 3: quorum 2 = self + 1.
        node.receive(Port::new(1), &[msg(1.0, 0)]);
        assert_eq!(node.phase(), Phase::new(1));
        assert!(node.output().is_none());
        node.receive(Port::new(1), &[msg(0.5, 1)]);
        assert_eq!(node.phase(), Phase::new(2));
        let out = node.output().expect("must decide at pend");
        assert_eq!(out, node.current_value());
    }

    #[test]
    fn output_via_jump() {
        let mut node = Dac::new(params(3, 1), Value::ZERO);
        node.receive(Port::new(2), &[msg(0.42, 2)]);
        assert_eq!(node.output().unwrap().get(), 0.42);
    }

    #[test]
    fn decided_node_freezes() {
        let mut node = Dac::new(params(3, 1), Value::ZERO);
        node.receive(Port::new(2), &[msg(0.42, 2)]);
        let before = node.current_value();
        node.receive(Port::new(1), &[msg(0.9, 5)]);
        assert_eq!(node.current_value(), before);
        assert_eq!(node.output().unwrap(), before);
    }

    #[test]
    fn pend_zero_outputs_input_immediately() {
        let p = Params::new(3, 1, 1.0).unwrap(); // eps = 1 -> pend = 0
        let node = Dac::new(p, Value::new(0.3).unwrap());
        assert_eq!(node.output().unwrap().get(), 0.3);
    }

    #[test]
    fn quorum_can_fill_within_one_batch() {
        // All quorum contributions arriving in one round still advance.
        let mut node = Dac::new(params(5, 1), Value::ZERO);
        node.receive(Port::new(1), &[msg(0.2, 0)]);
        node.receive(Port::new(2), &[msg(0.4, 0)]);
        assert_eq!(node.phase(), Phase::new(1));
        // New phase: extrema collapsed onto the new value.
        assert_eq!(node.current_value().get(), 0.2); // mid(0, 0.4)
    }

    #[test]
    fn after_advance_remaining_messages_count_toward_new_phase() {
        // n = 3, quorum 2. Two messages in the same round: the first
        // completes phase 0, the second (phase 1) counts toward phase 1.
        let mut node = Dac::new(params(3, 1), Value::ZERO);
        node.receive(Port::new(1), &[msg(1.0, 0)]);
        assert_eq!(node.phase(), Phase::new(1));
        node.receive(Port::new(2), &[msg(0.5, 1)]);
        assert_eq!(node.phase(), Phase::new(2), "phase-1 quorum completed");
    }

    #[test]
    fn validity_extrema_never_exceed_inputs() {
        // Values stay within [min input, max input] of what was seen.
        let mut node = Dac::new(params(5, 1), Value::new(0.4).unwrap());
        node.receive(Port::new(1), &[msg(0.2, 0)]);
        node.receive(Port::new(2), &[msg(0.6, 0)]);
        let v = node.current_value().get();
        assert!((0.2..=0.6).contains(&v));
    }

    #[test]
    fn reset_instance_matches_fresh_construction() {
        let mut used = Dac::new(params(5, 1), Value::ZERO);
        used.receive(Port::new(1), &[msg(1.0, 0)]);
        used.receive(Port::new(2), &[msg(0.5, 0)]);
        assert!(used.phase() > Phase::ZERO);
        assert!(used.reset_instance(Value::new(0.3).unwrap()));
        let fresh = Dac::new(params(5, 1), Value::new(0.3).unwrap());
        assert_eq!(format!("{used:?}"), format!("{fresh:?}"));
        // Including the degenerate pend = 0 case, which decides instantly.
        let p = Params::new(3, 1, 1.0).unwrap();
        let mut node = Dac::new(p, Value::ZERO);
        assert!(node.reset_instance(Value::new(0.8).unwrap()));
        assert_eq!(node.output().unwrap().get(), 0.8);
    }

    #[test]
    fn name_and_pend_accessors() {
        let node = Dac::new(params(5, 1), Value::ZERO);
        assert_eq!(node.name(), "dac");
        assert_eq!(node.pend(), 2);
        let custom = Dac::with_pend(params(5, 1), Value::ZERO, 7);
        assert_eq!(custom.pend(), 7);
    }
}
