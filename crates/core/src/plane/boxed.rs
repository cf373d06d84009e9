//! The boxed plane: one [`Algorithm`] state machine per slot, the oracle
//! every columnar plane is held to.

use adn_graph::NodeSet;
use adn_types::{Batch, Message, Phase, Port, Value};

use super::{
    assert_shard_bounds, take_split, AlgorithmPlane, PlaneShard, RowKernel, ShardRepr, StagedWire,
};
use crate::Algorithm;

/// One boxed [`Algorithm`] state machine per slot: the plane of every
/// algorithm that only implements the trait, and the semantic reference
/// the columnar planes are fuzzed against. Staging, delivery and the
/// end-of-round hook forward to the slot's own `broadcast_into`, `receive`
/// and `end_round`; the `phases` / `values` / `outputs` columns are copies
/// of what the nodes report, refreshed wherever a node's state can change
/// before the columns are next read: staging, `end_round`,
/// `reset_instance` and the replay-only `receive` — not per delivered
/// link, since nothing reads the columns in the middle of a round.
///
/// `Algorithm: Send` is what lets the shards of a boxed plane move to
/// their shard's thread like the columnar ones.
#[derive(Debug)]
pub struct BoxedPlane {
    nodes: Vec<Box<dyn Algorithm>>,
    phase: Vec<Phase>,
    value: Vec<Value>,
    output: Vec<Option<Value>>,
}

impl BoxedPlane {
    /// Wraps one state machine per slot (Byzantine slots included: like
    /// the columnar planes' they exist and are never driven).
    pub fn new(nodes: Vec<Box<dyn Algorithm>>) -> Self {
        let mut plane = BoxedPlane {
            phase: vec![Phase::ZERO; nodes.len()],
            value: vec![Value::HALF; nodes.len()],
            output: vec![None; nodes.len()],
            nodes,
        };
        (0..plane.nodes.len()).for_each(|v| plane.refresh(v));
        plane
    }

    /// Re-reads slot `v`'s columns from its node.
    #[inline]
    fn refresh(&mut self, v: usize) {
        let node = &self.nodes[v];
        self.phase[v] = node.phase();
        self.value[v] = node.current_value();
        self.output[v] = node.output();
    }
}

/// The boxed plane's kernel: the receiver's state machine, every link one
/// `Algorithm::receive`.
pub(super) struct BoxedRow<'a>(pub(super) &'a mut dyn Algorithm);

impl RowKernel for BoxedRow<'_> {
    #[inline(always)]
    fn live(&self) -> bool {
        true
    }

    #[inline]
    fn link(&mut self, port: Port, phase: Phase, value: Value) {
        self.0.receive(port, &[Message::new(value, phase)]);
    }

    #[inline]
    fn staged(&mut self, port: Port, sender: usize, wire: &StagedWire<'_>) {
        self.0.receive(port, &wire.batches[sender]);
    }

    #[inline]
    fn batch(&mut self, port: Port, batch: &mut [Message]) {
        self.0.receive(port, batch);
    }
}

impl AlgorithmPlane for BoxedPlane {
    fn n(&self) -> usize {
        self.nodes.len()
    }

    fn phases(&self) -> &[Phase] {
        &self.phase
    }

    fn values(&self) -> &[Value] {
        &self.value
    }

    fn outputs(&self) -> &[Option<Value>] {
        &self.output
    }

    fn stage_broadcast(&mut self, sender: usize, _snapshot: Message, out: &mut Batch) {
        self.nodes[sender].broadcast_into(out);
        self.refresh(sender);
    }

    fn receive(&mut self, receiver: usize, port: Port, batch: &[Message]) {
        self.nodes[receiver].receive(port, batch);
        self.refresh(receiver);
    }

    fn fill_shards<'a>(&'a mut self, bounds: &[usize], out: &mut [Option<PlaneShard<'a>>]) {
        assert_shard_bounds(self.nodes.len(), bounds, out.len());
        let mut nodes = &mut self.nodes[..];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = Some(PlaneShard {
                base: bounds[i],
                repr: ShardRepr::Boxed(take_split(&mut nodes, bounds[i + 1] - bounds[i])),
            });
        }
    }

    fn end_round(&mut self, executing: &NodeSet) {
        executing.for_each(|id| {
            self.nodes[id.index()].end_round();
            self.refresh(id.index());
        });
    }

    /// All or nothing: the slots run one algorithm, so the first refusal
    /// comes from slot 0, before anything was reset.
    fn reset_instance(&mut self, inputs: &[Value]) -> bool {
        assert_eq!(inputs.len(), self.nodes.len(), "one input per slot");
        for (v, input) in inputs.iter().enumerate() {
            if !self.nodes[v].reset_instance(*input) {
                return false;
            }
            self.refresh(v);
        }
        true
    }

    fn name(&self) -> &'static str {
        self.nodes.first().map_or("boxed", |node| node.name())
    }
}
