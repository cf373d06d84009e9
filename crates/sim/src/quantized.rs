//! Bandwidth-constrained execution: quantize every outgoing value to the
//! wire precision.
//!
//! The paper's `O(log n)`-bit messages cannot carry arbitrary reals. The
//! [`Quantized`] wrapper snaps every broadcast value to the
//! [`codec`](adn_net::codec) grid before it leaves the node, so the
//! simulated execution is *exactly* what a deployment over a `B`-bit wire
//! format would compute. Experiment E17 sweeps `B` to locate the precision
//! below which ε-agreement degrades — the quantitative content of the
//! bandwidth assumption.
//!
//! Quantized runs keep their columnar plane: [`QuantizedPlane`] wraps an
//! inner plane and snaps what each sender stages
//! ([`AlgorithmPlane::stage_broadcast`]) — once per sender per round,
//! since anonymity means every receiver sees the same encoded value.

use std::rc::Rc;

use adn_core::{Algorithm, AlgorithmFactory, AlgorithmPlane, PlaneShard};
use adn_graph::NodeSet;
use adn_net::codec::{snap, Precision};
use adn_types::{Batch, Message, Phase, Port, Value};

/// Snaps the staged values in place — the wire boundary, without
/// re-staging or allocating.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
fn snap_staged(out: &mut Batch, precision: Precision) {
    for m in out.iter_mut() {
        *m = Message::new(snap(m.value(), precision), m.phase());
    }
}

/// Wraps an algorithm so its broadcasts are quantized to `precision`.
///
/// Incoming messages are delivered unchanged (they already sit on the grid
/// because every sender is wrapped too). The node's *internal* state stays
/// exact — only the wire is constrained, mirroring a real fixed-point
/// encoder at the network boundary.
#[derive(Debug)]
pub struct Quantized {
    inner: Box<dyn Algorithm>,
    precision: Precision,
}

impl Quantized {
    /// Wraps `inner`, quantizing its outgoing values to `precision`.
    pub fn new(inner: Box<dyn Algorithm>, precision: Precision) -> Self {
        Quantized { inner, precision }
    }

    /// The wire precision in effect.
    pub fn precision(&self) -> Precision {
        self.precision
    }
}

impl Algorithm for Quantized {
    fn broadcast_into(&mut self, out: &mut Batch) {
        self.inner.broadcast_into(out);
        snap_staged(out, self.precision);
    }

    fn receive(&mut self, port: Port, batch: &[Message]) {
        self.inner.receive(port, batch);
    }

    fn end_round(&mut self) {
        self.inner.end_round();
    }

    fn output(&self) -> Option<Value> {
        self.inner.output()
    }

    fn phase(&self) -> Phase {
        self.inner.phase()
    }

    fn current_value(&self) -> Value {
        self.inner.current_value()
    }

    fn reset_instance(&mut self, input: Value) -> bool {
        // The wire encoder is stateless; resetting is purely the inner
        // algorithm's business.
        self.inner.reset_instance(input)
    }

    fn name(&self) -> &'static str {
        "quantized"
    }
}

/// The plane-level mirror of [`Quantized`]: wraps an inner
/// [`AlgorithmPlane`] and snaps whatever a sender stages to the codec grid
/// **once per round per sender** — staging happens before a broadcast is
/// fanned out, so the single quantize/dequantize round trip serves every
/// receiver of that sender (a [`Quantized`] node pays the same single snap
/// in `broadcast_into`; a per-link snap would recompute an identical value
/// up to `n − 1` times).
///
/// Everything else delegates: internal columns stay exact (observers and
/// adversaries read the same unquantized state as from [`Quantized`]
/// nodes), and deliveries reach the inner plane untouched — Byzantine
/// fabrications are never re-encoded.
#[derive(Debug)]
pub struct QuantizedPlane {
    inner: Box<dyn AlgorithmPlane>,
    precision: Precision,
}

impl QuantizedPlane {
    /// Wraps `inner`, quantizing its outgoing snapshots to `precision`.
    pub fn new(inner: Box<dyn AlgorithmPlane>, precision: Precision) -> Self {
        QuantizedPlane { inner, precision }
    }
}

impl AlgorithmPlane for QuantizedPlane {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn phases(&self) -> &[Phase] {
        self.inner.phases()
    }

    fn values(&self) -> &[Value] {
        self.inner.values()
    }

    fn outputs(&self) -> &[Option<Value>] {
        self.inner.outputs()
    }

    fn encode_wire(&self, msg: Message) -> Message {
        // Inner encoders first, then this grid — the composition order of
        // nested `Quantized` wrappers, whose outermost snap runs last.
        let msg = self.inner.encode_wire(msg);
        Message::new(snap(msg.value(), self.precision), msg.phase())
    }

    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    fn stage_broadcast(&mut self, sender: usize, snapshot: Message, out: &mut Batch) {
        // Whatever the inner plane stages (its own encoders applied), then
        // this grid — `encode_wire`'s order, for any inner plane.
        self.inner.stage_broadcast(sender, snapshot, out);
        snap_staged(out, self.precision);
    }

    fn receive(&mut self, receiver: usize, port: Port, batch: &[Message]) {
        self.inner.receive(receiver, port, batch);
    }

    fn fill_shards<'a>(&'a mut self, bounds: &[usize], out: &mut [Option<PlaneShard<'a>>]) {
        // The adaptor has no receive side to bypass: the wire encoding is
        // applied where a sender's broadcast is staged.
        self.inner.fill_shards(bounds, out);
    }

    fn end_round(&mut self, executing: &NodeSet) {
        self.inner.end_round(executing);
    }

    fn reset_instance(&mut self, inputs: &[Value]) -> bool {
        // The reset touches state columns only, never the wire encoding
        // this adaptor owns.
        self.inner.reset_instance(inputs)
    }

    fn name(&self) -> &'static str {
        "quantized"
    }
}

/// Factory combinator: wraps every node produced by `inner` in a
/// [`Quantized`] encoder at the given precision, and — when `inner` is
/// plane-capable — every columnar plane it builds in a
/// [`QuantizedPlane`], so quantized DAC/DBAC runs keep their columnar
/// plane (the snapshot stays pure; only the one per-sender wire encoding
/// differs).
pub fn quantized_factory(inner: AlgorithmFactory, precision: Precision) -> AlgorithmFactory {
    let inner = Rc::new(inner);
    if inner.has_plane() {
        let plane_inner = Rc::clone(&inner);
        AlgorithmFactory::with_plane(
            move |i, input| Box::new(Quantized::new(inner.make(i, input), precision)),
            move |inputs| {
                Box::new(QuantizedPlane::new(
                    plane_inner
                        .make_plane(inputs)
                        .expect("plane-capable inner factory builds a plane"),
                    precision,
                ))
            },
        )
    } else {
        AlgorithmFactory::new(move |i, input| {
            Box::new(Quantized::new(inner.make(i, input), precision))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_core::Dac;
    use adn_types::Params;

    #[test]
    fn broadcast_values_land_on_the_grid() {
        let params = Params::fault_free(5, 1e-3).unwrap();
        let p = Precision::new(4); // grid step 1/16
        let mut node = Quantized::new(Box::new(Dac::new(params, Value::new(0.3).unwrap())), p);
        let mut batch = Batch::new();
        node.broadcast_into(&mut batch);
        let v = batch[0].value().get();
        let scaled = v * 16.0;
        assert!((scaled - scaled.round()).abs() < 1e-12, "{v} off-grid");
        // 0.3 snaps to 5/16 = 0.3125.
        assert!((v - 0.3125).abs() < 1e-12);
    }

    #[test]
    fn internal_state_stays_exact() {
        let params = Params::fault_free(5, 1e-3).unwrap();
        let node = Quantized::new(
            Box::new(Dac::new(params, Value::new(0.3).unwrap())),
            Precision::new(2),
        );
        assert_eq!(node.current_value().get(), 0.3);
        assert_eq!(node.name(), "quantized");
        assert_eq!(node.phase(), Phase::ZERO);
    }

    #[test]
    fn factory_combinator_wraps_and_inherits_plane_capability() {
        let params = Params::fault_free(5, 1e-3).unwrap();
        let factory = quantized_factory(crate::factories::dac(params), Precision::for_eps(1e-3));
        assert!(
            factory.has_plane(),
            "quantized dac must keep the columnar plane"
        );
        let node = factory.make(0, Value::HALF);
        assert_eq!(node.name(), "quantized");
        let plane = factory.make_plane(&[Value::HALF; 5]).unwrap();
        assert_eq!(plane.name(), "quantized");
        assert_eq!(plane.n(), 5);

        // A plane-less inner factory stays plane-less when wrapped.
        let bac = quantized_factory(crate::factories::bac(params), Precision::new(8));
        assert!(!bac.has_plane(), "bac offers no plane to inherit");
    }

    #[test]
    fn plane_encodes_wire_once_per_sender_and_keeps_columns_exact() {
        let params = Params::fault_free(5, 1e-3).unwrap();
        let p = Precision::new(4); // grid step 1/16
        let inputs = [
            Value::new(0.3).unwrap(),
            Value::HALF,
            Value::HALF,
            Value::HALF,
            Value::HALF,
        ];
        let plane = quantized_factory(crate::factories::dac(params), p)
            .make_plane(&inputs)
            .unwrap();
        // Internal columns stay exact; only the wire encoding snaps.
        assert_eq!(plane.values()[0].get(), 0.3);
        let wire = plane.encode_wire(Message::new(inputs[0], Phase::ZERO));
        assert!((wire.value().get() - 0.3125).abs() < 1e-12);
        assert_eq!(wire.phase(), Phase::ZERO);
        // The wire value agrees bit-for-bit with the trait wrapper's.
        let mut node = Quantized::new(Box::new(Dac::new(params, inputs[0])), p);
        let mut batch = Batch::new();
        node.broadcast_into(&mut batch);
        assert_eq!(batch[0].value(), wire.value());
    }

    #[test]
    fn plane_splits_into_the_inner_planes_shards() {
        let params = Params::fault_free(7, 1e-3).unwrap();
        let mut plane = quantized_factory(crate::factories::dac(params), Precision::new(4))
            .make_plane(&[Value::HALF; 7])
            .unwrap();
        let mut shards: [Option<PlaneShard<'_>>; 2] = [None, None];
        plane.fill_shards(&[0, 3, 7], &mut shards);
        let bases: Vec<usize> = shards.iter().flatten().map(PlaneShard::base).collect();
        assert_eq!(bases, [0, 3], "one real shard per requested range");
    }

    #[test]
    fn plane_receive_forwards_fabrications_unencoded() {
        let params = Params::fault_free(5, 1e-3).unwrap();
        let p = Precision::new(1); // grid {0, 1/2, 1}: snapping is very visible
        let mut plane = quantized_factory(crate::factories::dac(params), p)
            .make_plane(&[Value::new(0.25).unwrap(); 5])
            .unwrap();
        // An off-grid Byzantine fabrication must reach the inner plane
        // untouched (exactly as `Quantized::receive` forwards it).
        let off_grid = Message::new(Value::new(0.26).unwrap(), Phase::ZERO);
        plane.receive(0, Port::new(1), &[off_grid]);
        plane.receive(0, Port::new(2), &[off_grid]); // quorum of 3: advance
                                                     // midpoint(0.25, 0.26) = 0.255 — only reachable if 0.26 was not
                                                     // snapped to the {0, 1/2, 1} grid on receive.
        assert!((plane.values()[0].get() - 0.255).abs() < 1e-12);
    }
}
