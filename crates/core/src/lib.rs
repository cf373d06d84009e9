//! The paper's contribution: approximate consensus algorithms for
//! anonymous dynamic networks.
//!
//! This crate implements, against the [`Algorithm`] state-machine
//! interface:
//!
//! * [`Dac`] — **D**ynamic **A**pproximate **C**onsensus (Algorithm 1):
//!   crash-tolerant, optimal convergence rate 1/2, correct under
//!   `(T, ⌊n/2⌋)`-dynaDegree with `n ≥ 2f + 1`.
//! * [`Dbac`] — **D**ynamic **B**yzantine **A**pproximate **C**onsensus
//!   (Algorithm 2): Byzantine-tolerant, convergence rate ≤ `1 − 2⁻ⁿ`,
//!   correct under `(T, ⌊(n+3f)/2⌋)`-dynaDegree with `n ≥ 5f + 1`.
//! * [`DbacPiggyback`] — DBAC plus a bounded history of past states per
//!   broadcast (accept-oldest variant).
//! * [`FullExchange`] — the §VII bandwidth/convergence trade-off: the
//!   reliable-channel rate-1/2 algorithm simulated by piggybacking a
//!   bounded history.
//! * [`baseline`] — prior-art algorithms that *fail* in this model
//!   (motivating §II-D) and strawmen for the impossibility experiments.
//!
//! # The execution model
//!
//! An [`Algorithm`] instance is one node's deterministic state machine.
//! Each synchronous round the simulator:
//!
//! 1. calls [`Algorithm::broadcast_into`] with a reusable [`Batch`] the
//!    node fills with its message batch (the engine keeps one buffer per
//!    node alive across rounds, so steady-state rounds allocate nothing);
//! 2. delivers batches from in-neighbors chosen by the adversary via
//!    [`Algorithm::receive`], identified only by local port;
//! 3. calls [`Algorithm::end_round`].
//!
//! Self-delivery is internal: implementations account for their own value
//! directly (the paper's `R_i[i] = 1`), so the substrate never routes a
//! node's message back to itself.
//!
//! The simulator does not hold the nodes directly: it drives one
//! [`AlgorithmPlane`] — all `n` slots' state behind one interface (see
//! [`plane`]). [`BoxedPlane`] is `n` boxed `Algorithm`s and makes exactly
//! the three calls above; [`DacPlane`] and [`DbacPlane`] are the same two
//! algorithms in columnar layout, observationally identical and without
//! the virtual call per delivered message — one plane, [`Columnar<R>`],
//! under the two [`Rule`]s that spell out what §V changes between Alg. 1
//! and Alg. 2.
//!
//! # Example
//!
//! ```
//! use adn_core::{Algorithm, Dac};
//! use adn_types::{Batch, Params, Port, Value};
//!
//! let params = Params::fault_free(3, 0.25)?;
//! let mut node = Dac::new(params, Value::ZERO);
//! let mut peer = Dac::new(params, Value::ONE);
//!
//! // The round engine owns one reusable batch per node and refills it
//! // every round; plain DAC stages exactly one message.
//! let mut batch = Batch::new();
//! peer.broadcast_into(&mut batch);
//! assert_eq!(batch.len(), 1);
//!
//! // Receive same-phase values from distinct ports: quorum for n = 3 is
//! // floor(3/2) + 1 = 2 (self + 1), so one foreign value suffices.
//! node.receive(Port::new(1), &batch);
//! assert_eq!(node.current_value(), Value::HALF); // midpoint of 0 and 1
//! # Ok::<(), adn_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod baseline;
mod dac;
mod dbac;
mod full_exchange;
pub mod lanes;
mod piggyback;
pub mod plane;
#[doc(hidden)]
pub mod probe;
mod trim;
pub mod wire;

pub use dac::Dac;
pub use dbac::Dbac;
pub use full_exchange::FullExchange;
pub use lanes::{LanePlane, Lanes, LANE_WIDTH};
pub use piggyback::DbacPiggyback;
pub use plane::{
    AlgorithmPlane, BoxedPlane, Columnar, DacPlane, DacRule, DbacPlane, DbacRule, PlaneShard,
    RowKernel, RowWalk, Rule, StagedWire, MAX_PLANE_SHARDS,
};
pub use wire::{WireAt, WireIndex, MAX_WIRE_PHASES};

use std::fmt;

use adn_types::{Batch, Message, Phase, Port, Value};

/// One node's deterministic per-round state machine.
///
/// See the [crate docs](crate) for the round structure. Implementations
/// must be deterministic: identical call sequences produce identical
/// states (the simulator's replay tests rely on it). `Send` because a
/// sharded run drives disjoint receiver ranges of a [`BoxedPlane`] from
/// one thread per shard; every state machine is plain data.
pub trait Algorithm: fmt::Debug + Send {
    /// Writes the batch of messages this node broadcasts this round into
    /// `out`. Plain DAC and DBAC stage exactly one message; piggybacking
    /// variants stage several; staging nothing means staying silent.
    ///
    /// The caller passes `out` empty and reuses the same buffer across
    /// rounds, so implementations must only append — never allocate their
    /// own vector — to keep the steady-state message plane allocation
    /// free.
    fn broadcast_into(&mut self, out: &mut Batch);

    /// Delivers the batch a single in-neighbor sent this round, identified
    /// by the local `port` it arrived on. Called at most once per port per
    /// round.
    fn receive(&mut self, port: Port, batch: &[Message]);

    /// Hook called after all deliveries of the round.
    fn end_round(&mut self);

    /// The decided output, once the algorithm's termination rule fires
    /// (`p = pend`); `None` before that.
    fn output(&self) -> Option<Value>;

    /// The node's current phase index (for observers and adversaries).
    fn phase(&self) -> Phase;

    /// The node's current state value (for observers and adversaries).
    fn current_value(&self) -> Value;

    /// Resets the node to its initial state against a fresh `input`, as if
    /// freshly constructed — what [`BoxedPlane`] builds the service layer's
    /// allocation-free instance turnover
    /// ([`AlgorithmPlane::reset_instance`]) from. Returns `false` (leaving the
    /// state untouched) if the algorithm does not support in-place resets;
    /// the service layer refuses to run such algorithms rather than
    /// silently reconstructing them. DAC and DBAC override this; the
    /// baselines and piggybacking variants keep the default.
    fn reset_instance(&mut self, input: Value) -> bool {
        let _ = input;
        false
    }

    /// Short algorithm name for reports.
    fn name(&self) -> &'static str;
}

/// Constructor closure for the boxed plane: `(node_index, input)` to a
/// boxed state machine.
type NodeCtor = Box<dyn Fn(usize, Value) -> Box<dyn Algorithm>>;
/// Constructor closure for the columnar plane: the full input vector to
/// one plane holding every slot.
type PlaneCtor = Box<dyn Fn(&[Value]) -> Box<dyn AlgorithmPlane>>;
/// Constructor closure for the trial-lane path: a **lane-major** input
/// vector (`inputs[t * n + v]` is trial `t`'s input for node `v`) to one
/// lane plane holding every `(slot, trial)` pair.
type LaneCtor = Box<dyn Fn(&[Value]) -> Box<dyn LanePlane>>;

/// Constructor bundle used by the simulator and experiment runners to
/// instantiate an algorithm: a per-node builder mapping `(node_index,
/// input)` to a boxed state machine, plus — for plane-capable algorithms
/// (DAC, DBAC) — a whole-system builder for their columnar
/// [`AlgorithmPlane`].
///
/// The per-node builder is always available — [`BoxedPlane`] over its
/// nodes is the semantic reference; the columnar plane, when present,
/// must be observationally identical to it (the engine picks which one to
/// build, see `SimBuilder::algorithm_plane` in `adn-sim`).
pub struct AlgorithmFactory {
    make: NodeCtor,
    plane: Option<PlaneCtor>,
    lanes: Option<(u64, LaneCtor)>,
}

impl AlgorithmFactory {
    /// A factory with only the per-node path — every algorithm supports
    /// this.
    pub fn new(make: impl Fn(usize, Value) -> Box<dyn Algorithm> + 'static) -> Self {
        AlgorithmFactory {
            make: Box::new(make),
            plane: None,
            lanes: None,
        }
    }

    /// A factory that additionally offers a columnar plane. `plane` maps
    /// the full input vector to one plane holding every slot; it must be
    /// observationally identical to `n` state machines built by `make`.
    pub fn with_plane(
        make: impl Fn(usize, Value) -> Box<dyn Algorithm> + 'static,
        plane: impl Fn(&[Value]) -> Box<dyn AlgorithmPlane> + 'static,
    ) -> Self {
        AlgorithmFactory {
            make: Box::new(make),
            plane: Some(Box::new(plane)),
            lanes: None,
        }
    }

    /// Adds the trial-lane path: `ctor` maps a **lane-major** input
    /// vector to one [`LanePlane`] whose every lane must be
    /// observationally identical to a scalar run of that trial.
    ///
    /// `key` is the factory's lane fingerprint: two factories may share
    /// one lane plane **iff** their keys are equal, so the key must hash
    /// every constructor parameter the closure captures (algorithm
    /// identity, `Params`, an explicit `pend`, ...). A batch driver
    /// refuses to merge trials whose factories disagree on the key.
    pub fn with_lanes(
        mut self,
        key: u64,
        ctor: impl Fn(&[Value]) -> Box<dyn LanePlane> + 'static,
    ) -> Self {
        self.lanes = Some((key, Box::new(ctor)));
        self
    }

    /// Instantiates the state machine of one node.
    pub fn make(&self, node_index: usize, input: Value) -> Box<dyn Algorithm> {
        (self.make)(node_index, input)
    }

    /// Instantiates the boxed plane: one state machine per input.
    pub fn make_boxed_plane(&self, inputs: &[Value]) -> Box<dyn AlgorithmPlane> {
        let nodes = inputs.iter().enumerate().map(|(i, &v)| self.make(i, v));
        Box::new(BoxedPlane::new(nodes.collect()))
    }

    /// Whether this factory can build a columnar plane.
    pub fn has_plane(&self) -> bool {
        self.plane.is_some()
    }

    /// Instantiates the columnar plane over the full input vector, or
    /// `None` if this algorithm has no plane.
    pub fn make_plane(&self, inputs: &[Value]) -> Option<Box<dyn AlgorithmPlane>> {
        self.plane.as_ref().map(|p| p(inputs))
    }

    /// The lane fingerprint, or `None` if this factory has no trial-lane
    /// path (see [`AlgorithmFactory::with_lanes`]).
    pub fn lane_key(&self) -> Option<u64> {
        self.lanes.as_ref().map(|(key, _)| *key)
    }

    /// Instantiates the trial-lane plane over a lane-major input vector,
    /// or `None` if this algorithm has no lane path.
    pub fn make_lanes(&self, inputs: &[Value]) -> Option<Box<dyn LanePlane>> {
        self.lanes.as_ref().map(|(_, ctor)| ctor(inputs))
    }
}

impl fmt::Debug for AlgorithmFactory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AlgorithmFactory(plane={})", self.has_plane())
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// The batch `node` broadcasts, staged into a fresh buffer.
    pub fn broadcast(node: &mut dyn Algorithm) -> Batch {
        let mut batch = Batch::new();
        node.broadcast_into(&mut batch);
        batch
    }

    /// Collects each node's single broadcast message (panics if an
    /// algorithm broadcasts a batch — these helpers are for DAC/DBAC).
    pub fn single_broadcast(node: &mut dyn Algorithm) -> Message {
        let batch = broadcast(node);
        assert_eq!(batch.len(), 1, "expected a single-message broadcast");
        batch[0]
    }
}
