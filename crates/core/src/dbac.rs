use adn_types::{Batch, Message, Params, Phase, Port, Value};

use crate::{trim, Algorithm};

/// DBAC — Dynamic Byzantine Approximate Consensus (Algorithm 2 of the
/// paper).
///
/// Byzantine-tolerant approximate consensus for anonymous dynamic
/// networks. Correct when `n ≥ 5f + 1` and the realized delivery graph
/// satisfies `(T, ⌊(n+3f)/2⌋)`-dynaDegree. Converges with rate at most
/// `1 − 2⁻ⁿ` per phase (Thm. 7) and outputs at
/// `pend = ⌈ln ε / ln(1 − 2⁻ⁿ)⌉` (Eq. 6).
///
/// Differences from [`Dac`](crate::Dac) (§V):
///
/// * accepts messages from phase `≥` its own (but **never skips** phases —
///   a forged huge phase cannot drag the node forward);
/// * keeps only the `f + 1` lowest and `f + 1` highest accepted values
///   (`R_low` / `R_high`), so `f` Byzantine extremes can never *all*
///   survive the trim: the update `(max(R_low) + min(R_high)) / 2` is
///   bracketed by fault-free values;
/// * needs `⌊(n+3f)/2⌋ + 1` distinct contributors per phase.
///
/// ## Pseudocode ambiguities resolved (Alg. 2 against Lemma 6's proof)
///
/// The paper's `RESET()` keeps `R_i[i] = 1` but leaves `R_low`/`R_high`
/// empty, while the proof of Lemma 6 counts the node's own value among the
/// received ones. We store the node's own value into the lists at
/// initialization and at every reset — exactly what processing the
/// (always reliable) self-message would do. Similarly, `STORE`'s
/// `if |R_low| ≤ f + 1 then insert` is implemented as "keep the `f + 1`
/// smallest", matching the analysis (`max(R_low) = r_{f+1}`).
///
/// # Example
///
/// ```
/// use adn_core::{Algorithm, Dbac};
/// use adn_types::{Params, Value};
///
/// let params = Params::new(6, 1, 0.1)?;
/// let node = Dbac::new(params, Value::HALF);
/// assert_eq!(node.phase().as_u64(), 0);
/// // Eq. (6): pend = ceil(ln 0.1 / ln(1 - 2^-6)) = 147.
/// assert_eq!(node.pend(), 147);
/// # Ok::<(), adn_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Dbac {
    params: Params,
    pend: u64,
    value: Value,
    phase: Phase,
    ports_seen: Vec<bool>,
    seen_count: usize,
    /// The `f + 1` smallest accepted values of the current phase,
    /// ascending, unfilled slots padded (see [`crate::trim`]).
    low: Vec<Value>,
    /// The `f + 1` largest accepted values of the current phase,
    /// descending, padded likewise.
    high: Vec<Value>,
    /// Reusable scratch for sorting piggybacked batches in `receive`.
    sort_scratch: Vec<Message>,
    output: Option<Value>,
}

impl Dbac {
    /// Creates a node with the given input, terminating at the paper's
    /// `pend` from Eq. (6).
    pub fn new(params: Params, input: Value) -> Self {
        Dbac::with_pend(params, input, params.dbac_pend())
    }

    /// Creates a node with an explicit termination phase. Experiments use
    /// this because Eq. (6) is astronomically conservative for larger `n`
    /// (it assumes Thm. 7's worst-case rate `1 − 2⁻ⁿ` in every phase; E06
    /// measures the real one).
    pub fn with_pend(params: Params, input: Value, pend: u64) -> Self {
        let mut node = Dbac {
            params,
            pend,
            value: input,
            phase: Phase::ZERO,
            ports_seen: vec![false; params.n()],
            seen_count: 0,
            low: vec![Value::HALF; params.dbac_list_len()],
            high: vec![Value::HALF; params.dbac_list_len()],
            sort_scratch: Vec::new(),
            output: None,
        };
        node.reset();
        node.maybe_output();
        node
    }

    /// The termination phase in effect.
    pub fn pend(&self) -> u64 {
        self.pend
    }

    /// Distinct contributors this phase, including the node itself.
    pub fn distinct_count(&self) -> usize {
        self.seen_count + 1
    }

    /// Current `R_low` (sorted ascending), exposed for invariant tests.
    pub fn low_list(&self) -> Vec<Value> {
        self.low[..self.stored()].to_vec()
    }

    /// Current `R_high` (sorted ascending), exposed for invariant tests.
    pub fn high_list(&self) -> Vec<Value> {
        self.high[..self.stored()].iter().rev().copied().collect()
    }

    /// Values each trim list holds: every contributor's, up to `f + 1`.
    fn stored(&self) -> usize {
        self.distinct_count().min(self.low.len())
    }

    /// Alg. 2 `RESET()` + self-store (see type docs).
    fn reset(&mut self) {
        self.ports_seen.fill(false);
        self.seen_count = 0;
        trim::clear(&mut self.low, &mut self.high);
        trim::store(&mut self.low, &mut self.high, self.value);
    }

    fn maybe_output(&mut self) {
        if self.output.is_none() && self.phase.as_u64() >= self.pend {
            self.output = Some(self.value);
        }
    }

    /// Processes one received message (Alg. 2 lines 5–11).
    fn process(&mut self, port: Port, msg: Message) {
        if self.output.is_some() {
            return;
        }
        if msg.phase() >= self.phase && !self.ports_seen[port.index()] {
            self.ports_seen[port.index()] = true;
            self.seen_count += 1;
            trim::store(&mut self.low, &mut self.high, msg.value());
        }
        self.try_advance();
    }

    /// Advances while the quorum condition already holds (only possible
    /// for the degenerate `n = 1` system, whose quorum is the node
    /// itself).
    // audit: no-alloc-fn
    fn try_advance(&mut self) {
        while self.output.is_none() && self.distinct_count() >= self.params.dbac_quorum() {
            let (lo, hi) = trim::bounds(&self.low, &self.high);
            self.value = lo.midpoint(hi);
            self.phase = self.phase.next();
            self.reset();
            self.maybe_output();
        }
        self.maybe_output();
    }
}

impl Algorithm for Dbac {
    fn broadcast_into(&mut self, out: &mut Batch) {
        out.push(Message::new(self.value, self.phase));
    }

    fn receive(&mut self, port: Port, batch: &[Message]) {
        // Piggybacked batches may contain several phases from one sender;
        // processing in ascending phase order makes the node store the
        // sender's oldest still-acceptable state, which is the same-phase
        // value whenever one is present (best for convergence, §VII).
        if batch.len() == 1 {
            self.process(port, batch[0]);
        } else {
            // Reuse the node-owned scratch so piggybacked deliveries stay
            // allocation-free once its capacity covers the history depth.
            let mut sorted = std::mem::take(&mut self.sort_scratch);
            sorted.clear();
            sorted.extend_from_slice(batch);
            sorted.sort();
            for &msg in &sorted {
                self.process(port, msg);
            }
            self.sort_scratch = sorted;
        }
    }

    fn end_round(&mut self) {
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
        self.sort_scratch.clear();
        self.reset();
        self.maybe_output();
        true
    }

    fn name(&self) -> &'static str {
        "dbac"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// n = 6, f = 1: quorum floor(9/2)+1 = 5, lists of 2.
    fn params() -> Params {
        Params::new(6, 1, 0.1).unwrap()
    }

    fn msg(v: f64, p: u64) -> Message {
        Message::new(Value::new(v).unwrap(), Phase::new(p))
    }

    fn val(v: f64) -> Value {
        Value::new(v).unwrap()
    }

    #[test]
    fn initial_lists_hold_own_value() {
        let node = Dbac::new(params(), val(0.4));
        assert_eq!(node.low_list(), vec![val(0.4)]);
        assert_eq!(node.high_list(), vec![val(0.4)]);
        assert_eq!(node.distinct_count(), 1);
    }

    #[test]
    fn quorum_with_trimmed_update() {
        // Quorum 5 = self + 4 foreign. Own value 0.5; foreign 0.0, 0.1,
        // 0.9, 1.0. Lists of size f+1 = 2:
        //   low  = {0.0, 0.1}, high = {0.9, 1.0}
        //   update = (max(low) + min(high)) / 2 = (0.1 + 0.9)/2 = 0.5.
        let mut node = Dbac::new(params(), val(0.5));
        node.receive(Port::new(1), &[msg(0.0, 0)]);
        node.receive(Port::new(2), &[msg(0.1, 0)]);
        node.receive(Port::new(3), &[msg(0.9, 0)]);
        assert_eq!(node.phase(), Phase::ZERO);
        node.receive(Port::new(4), &[msg(1.0, 0)]);
        assert_eq!(node.phase(), Phase::new(1));
        assert_eq!(node.current_value(), val(0.5));
    }

    #[test]
    fn byzantine_extremes_are_trimmed() {
        // f = 1 attacker sends 1.0; honest values cluster at 0.2. The
        // update must stay bracketed by honest values: low = {0.2, 0.2},
        // high = {0.2, 1.0} -> (0.2 + 0.2)/2 = 0.2... wait min(high) = 0.2.
        let mut node = Dbac::new(params(), val(0.2));
        node.receive(Port::new(1), &[msg(1.0, 0)]); // byzantine
        node.receive(Port::new(2), &[msg(0.2, 0)]);
        node.receive(Port::new(3), &[msg(0.2, 0)]);
        node.receive(Port::new(4), &[msg(0.2, 0)]);
        assert_eq!(node.phase(), Phase::new(1));
        assert_eq!(node.current_value(), val(0.2), "one attacker moved nothing");
    }

    #[test]
    fn higher_phase_messages_are_accepted_but_no_jump() {
        let mut node = Dbac::new(params(), val(0.5));
        node.receive(Port::new(1), &[msg(0.6, 3)]);
        assert_eq!(node.phase(), Phase::ZERO, "DBAC never jumps");
        assert_eq!(node.distinct_count(), 2, "future value still counts");
    }

    #[test]
    fn phase_forgery_cannot_fast_forward() {
        // Even a phase-1000 claim only ever contributes one list entry.
        let mut node = Dbac::new(params(), val(0.5));
        node.receive(Port::new(1), &[msg(1.0, 1000)]);
        node.receive(Port::new(1), &[msg(1.0, 1001)]);
        assert_eq!(node.phase(), Phase::ZERO);
        assert_eq!(node.distinct_count(), 2, "one port, one contribution");
    }

    #[test]
    fn stale_messages_rejected() {
        let mut node = Dbac::with_pend(params(), val(0.5), 10);
        // Drive to phase 1 first.
        for p in 1..5 {
            node.receive(Port::new(p), &[msg(0.5, 0)]);
        }
        assert_eq!(node.phase(), Phase::new(1));
        node.receive(Port::new(1), &[msg(0.0, 0)]);
        assert_eq!(node.distinct_count(), 1, "phase-0 message is stale now");
    }

    #[test]
    fn duplicate_port_ignored() {
        let mut node = Dbac::new(params(), val(0.5));
        node.receive(Port::new(1), &[msg(0.1, 0)]);
        node.receive(Port::new(1), &[msg(0.2, 0)]);
        assert_eq!(node.distinct_count(), 2);
    }

    #[test]
    fn reset_after_advance_restores_self_only() {
        let mut node = Dbac::new(params(), val(0.5));
        for p in 1..=4 {
            node.receive(Port::new(p), &[msg(0.5, 0)]);
        }
        assert_eq!(node.phase(), Phase::new(1));
        assert_eq!(node.distinct_count(), 1);
        assert_eq!(node.low_list(), vec![val(0.5)]);
    }

    #[test]
    fn batch_processed_in_ascending_phase_order() {
        // A piggybacked batch carrying phases {2, 0}: the node (phase 0)
        // must store the phase-0 value, not the phase-2 one.
        let mut node = Dbac::new(params(), val(0.5));
        node.receive(Port::new(1), &[msg(0.9, 2), msg(0.1, 0)]);
        assert_eq!(node.distinct_count(), 2);
        // low list now contains 0.1 (the same-phase value), not 0.9.
        assert_eq!(node.low_list(), vec![val(0.1), val(0.5)]);
    }

    #[test]
    fn outputs_at_custom_pend() {
        let mut node = Dbac::with_pend(params(), val(0.5), 1);
        for p in 1..=4 {
            node.receive(Port::new(p), &[msg(0.5, 0)]);
        }
        assert_eq!(node.phase(), Phase::new(1));
        assert_eq!(node.output(), Some(val(0.5)));
        // Frozen afterwards.
        node.receive(Port::new(1), &[msg(0.0, 1)]);
        assert_eq!(node.distinct_count(), 1);
    }

    #[test]
    fn reset_instance_matches_fresh_construction() {
        let mut used = Dbac::with_pend(params(), val(0.5), 10);
        for p in 1..=4 {
            node_recv(&mut used, p, 0.5 - 0.05 * p as f64);
        }
        assert!(used.distinct_count() > 1 || used.phase() > Phase::ZERO);
        assert!(used.reset_instance(val(0.7)));
        let fresh = Dbac::with_pend(params(), val(0.7), 10);
        assert_eq!(format!("{used:?}"), format!("{fresh:?}"));
    }

    fn node_recv(node: &mut Dbac, port: usize, v: f64) {
        node.receive(Port::new(port), &[msg(v, 0)]);
    }

    #[test]
    fn eq6_pend_value() {
        // Documented in the type-level example: n = 6 -> rate 0.984375.
        assert_eq!(Dbac::new(params(), val(0.0)).pend(), 147);
    }

    #[test]
    fn lists_trim_beyond_capacity() {
        // f + 1 = 2. Seed with own 0.5, then add 5 values; low must keep
        // the 2 smallest, high the 2 largest.
        let mut node = Dbac::with_pend(params(), val(0.5), 100);
        // Use a bigger quorum so we stay in phase 0: only add 3 (self+3 < 5).
        node.receive(Port::new(1), &[msg(0.9, 0)]);
        node.receive(Port::new(2), &[msg(0.05, 0)]);
        node.receive(Port::new(3), &[msg(0.3, 0)]);
        assert_eq!(node.low_list(), vec![val(0.05), val(0.3)]);
        assert_eq!(node.high_list(), vec![val(0.5), val(0.9)]);
    }

    #[test]
    fn update_is_bracketed_by_fault_free_values() {
        // Lemma 5 microcosm: with at most f = 1 byzantine among accepted
        // values, max(R_low) and min(R_high) are each >= some honest value
        // and <= some honest value.
        let mut node = Dbac::new(params(), val(0.4));
        node.receive(Port::new(1), &[msg(0.0, 0)]); // byz low
        node.receive(Port::new(2), &[msg(0.35, 0)]);
        node.receive(Port::new(3), &[msg(0.45, 0)]);
        node.receive(Port::new(4), &[msg(0.5, 0)]);
        assert_eq!(node.phase(), Phase::new(1));
        let v = node.current_value().get();
        assert!((0.35..=0.5).contains(&v), "update {v} escaped honest hull");
    }
}
