use adn_adversary::{Adversary, Complete};
use adn_core::{AlgorithmFactory, MAX_PLANE_SHARDS};
use adn_faults::{ByzantineStrategy, CrashSchedule};
use adn_net::PortNumbering;
use adn_types::{NodeId, Params, Value};

use crate::engine::{DeliveryOrder, Simulation};
use crate::workload;
use crate::Outcome;

/// Which [`AlgorithmPlane`](adn_core::AlgorithmPlane) the factory builds
/// to hold the nodes' state: a columnar one, or one boxed state machine
/// per node ([`BoxedPlane`](adn_core::BoxedPlane)). The engine drives both
/// through the same round and the same delivery routine; a columnar plane
/// is observationally identical to the boxed one (both are fuzzed against
/// a naive round executor in `tests/reference_round.rs`) but pays no
/// virtual call per delivered message. No other setting restricts the
/// choice: every delivery order, link representation and observer runs on
/// either.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlaneMode {
    /// The columnar plane whenever the factory offers one, except on a
    /// run that records events, which stays on the boxed plane: the
    /// benchmark ledger pins its logged cell to boxed nodes. Both planes
    /// run the same walk and write the same log. The default.
    #[default]
    Auto,
    /// Require the columnar plane.
    ///
    /// `build` panics if the factory has none — for tests and benches
    /// that must not silently measure the boxed plane.
    Always,
    /// Always the boxed plane, even when a columnar one is available —
    /// the semantic reference in differential tests.
    Never,
}

/// A memory hint: the form in which the run's one link store
/// ([`LinkPlane`](adn_graph::LinkPlane)) holds each round's chosen links —
/// dense words (`n²/8` bytes, word-parallel everything) or id-range runs
/// and CSR rows (`O(n)` for the gallery's shapes, which is what scales
/// rounds past `n = 100 000`).
///
/// It has no semantic effect and never rejects a run: every delivery
/// order, Byzantine and crash faults, event recording, sharding and every
/// plane run on either form, to the same execution (fuzzed in
/// `tests/reference_round.rs`). An
/// adversary that cannot write runs
/// ([`sparse_capable`](adn_adversary::Adversary::sparse_capable) `false`)
/// is held as words whatever the hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkMode {
    /// Runs/CSR rows past [`PortNumbering::MAX_DENSE_N`] nodes, words up
    /// to it (where word-parallel rows win). The default.
    #[default]
    Auto,
    /// Words, even at sizes where they take gigabytes.
    Dense,
    /// Runs/CSR rows, at any size.
    Sparse,
}

/// Builder for a [`Simulation`].
///
/// Defaults: spread inputs, the [`Complete`] adversary, no faults, a
/// seeded-random port numbering, and a 100 000-round cap.
///
/// ```
/// use adn_sim::{factories, Simulation};
/// use adn_types::Params;
///
/// let params = Params::fault_free(4, 0.1)?;
/// let outcome = Simulation::builder(params)
///     .algorithm(factories::dac(params))
///     .run();
/// assert!(outcome.all_honest_output());
/// # Ok::<(), adn_types::Error>(())
/// ```
pub struct SimBuilder {
    pub(crate) params: Params,
    pub(crate) inputs: Vec<Value>,
    pub(crate) adversary: Box<dyn Adversary>,
    pub(crate) crash: CrashSchedule,
    pub(crate) byzantine: Vec<(NodeId, Box<dyn ByzantineStrategy>)>,
    /// `None` until built: the default numbering depends on `n` (a seeded
    /// random table up to [`PortNumbering::MAX_DENSE_N`], the `O(n)`
    /// rotation family above it), and materializing an explicit table for
    /// a 100 000-node run the user never asked one for would defeat the
    /// sparse plane.
    pub(crate) ports: Option<PortNumbering>,
    pub(crate) factory: Option<AlgorithmFactory>,
    pub(crate) max_rounds: u64,
    pub(crate) range_oracle: Option<f64>,
    pub(crate) record_events: bool,
    pub(crate) record_schedule: bool,
    pub(crate) observe_phases: bool,
    pub(crate) delivery_order: DeliveryOrder,
    pub(crate) plane_mode: PlaneMode,
    pub(crate) link_mode: LinkMode,
    /// Receiver-range shards the delivery loop fans out over (1 = no
    /// fan-out). See [`SimBuilder::shards`].
    pub(crate) shards: usize,
    /// Whether `build` skips the `f`-bound fault asserts. See
    /// [`SimBuilder::allow_fault_overflow`].
    pub(crate) allow_fault_overflow: bool,
}

impl std::fmt::Debug for SimBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SimBuilder({}, adversary={}, byz={})",
            self.params,
            self.adversary.name(),
            self.byzantine.len()
        )
    }
}

impl SimBuilder {
    pub(crate) fn new(params: Params) -> Self {
        SimBuilder {
            params,
            inputs: workload::spread(params.n()),
            adversary: Box::new(Complete),
            crash: CrashSchedule::new(params.n()),
            byzantine: Vec::new(),
            ports: None,
            factory: None,
            max_rounds: 100_000,
            range_oracle: None,
            record_events: false,
            record_schedule: true,
            observe_phases: true,
            delivery_order: DeliveryOrder::AscendingSenders,
            plane_mode: PlaneMode::Auto,
            link_mode: LinkMode::Auto,
            shards: 1,
            allow_fault_overflow: false,
        }
    }

    /// Resolves the port numbering: the user's explicit choice, or the
    /// size-appropriate default — the historical seeded-random table up
    /// to [`PortNumbering::MAX_DENSE_N`] (byte-identical to every
    /// pre-sparse run), the `O(n)` rotation family above it.
    pub(crate) fn resolve_ports(ports: Option<PortNumbering>, n: usize) -> PortNumbering {
        ports.unwrap_or_else(|| {
            if n <= PortNumbering::MAX_DENSE_N {
                PortNumbering::random(n, 0xC0FFEE)
            } else {
                PortNumbering::rotation(n, 0xC0FFEE)
            }
        })
    }

    /// Sets the initial values (must have length `n`).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from `n`.
    pub fn inputs(mut self, inputs: Vec<Value>) -> Self {
        assert_eq!(inputs.len(), self.params.n(), "one input per node");
        self.inputs = inputs;
        self
    }

    /// Evenly spread inputs over `[0, 1]` (the default).
    pub fn inputs_spread(self) -> Self {
        let n = self.params.n();
        self.inputs(workload::spread(n))
    }

    /// Seeded uniform random inputs.
    pub fn inputs_random(self, seed: u64) -> Self {
        let n = self.params.n();
        self.inputs(workload::random(n, seed))
    }

    /// The message adversary (default: complete graph every round).
    pub fn adversary(mut self, adversary: Box<dyn Adversary>) -> Self {
        self.adversary = adversary;
        self
    }

    /// The crash schedule (default: nobody crashes).
    ///
    /// # Panics
    ///
    /// Panics if the schedule covers a different node count.
    pub fn crashes(mut self, crash: CrashSchedule) -> Self {
        assert_eq!(crash.n(), self.params.n(), "crash schedule size mismatch");
        self.crash = crash;
        self
    }

    /// Marks `node` Byzantine with the given strategy.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range or already Byzantine.
    pub fn byzantine(mut self, node: NodeId, strategy: Box<dyn ByzantineStrategy>) -> Self {
        assert!(node.index() < self.params.n(), "node out of range");
        assert!(
            self.byzantine.iter().all(|(id, _)| *id != node),
            "node {node} is already Byzantine"
        );
        self.byzantine.push((node, strategy));
        self
    }

    /// Explicit port numbering (default: seeded random up to
    /// [`PortNumbering::MAX_DENSE_N`] nodes, seeded rotation above).
    pub fn ports(mut self, ports: PortNumbering) -> Self {
        assert_eq!(ports.n(), self.params.n(), "port numbering size mismatch");
        self.ports = Some(ports);
        self
    }

    /// The algorithm every fault-free node runs. **Required.**
    pub fn algorithm(mut self, factory: AlgorithmFactory) -> Self {
        self.factory = Some(factory);
        self
    }

    /// Round cap after which the run is declared blocked
    /// (default 100 000).
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Enables the observer oracle: stop once the fault-free value range
    /// is at most `eps` (see `StopReason::RangeConverged`).
    pub fn stop_when_range_below(mut self, eps: f64) -> Self {
        self.range_oracle = Some(eps);
        self
    }

    /// The order in which a receiver processes the round's deliveries
    /// (default: ascending sender index). The paper leaves intra-round
    /// arrival order to the adversary, so correct algorithms must not
    /// depend on it — the test suite runs all orders.
    pub fn delivery_order(mut self, order: DeliveryOrder) -> Self {
        self.delivery_order = order;
        self
    }

    /// Whether a columnar algorithm plane or boxed state machines hold the
    /// nodes' state (default: [`PlaneMode::Auto`] — columnar for
    /// plane-capable factories (DAC, DBAC, and their quantized wrappers)
    /// as long as event recording is off). See [`PlaneMode`].
    pub fn algorithm_plane(mut self, mode: PlaneMode) -> Self {
        self.plane_mode = mode;
        self
    }

    /// The form the link store holds the round's chosen links in
    /// (default: [`LinkMode::Auto`] — run/CSR rows past
    /// [`PortNumbering::MAX_DENSE_N`] nodes, words otherwise). A memory
    /// hint that never changes the execution; see [`LinkMode`].
    pub fn link_mode(mut self, mode: LinkMode) -> Self {
        self.link_mode = mode;
        self
    }

    /// Fans the delivery loop out over `shards` receiver-range shards
    /// with a deterministic input-ordered merge — byte-identical to
    /// single-shard delivery (default: 1), on either link form and under
    /// any faults.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0 or exceeds
    /// [`MAX_PLANE_SHARDS`](adn_core::MAX_PLANE_SHARDS).
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(
            (1..=MAX_PLANE_SHARDS).contains(&shards),
            "shards must be in 1..={MAX_PLANE_SHARDS}, got {shards}"
        );
        self.shards = shards;
        self
    }

    /// Records a structured [`EventLog`](crate::EventLog) of every
    /// broadcast, delivery, phase transition, crash, and decision
    /// (default: off; logs grow with rounds × links). Deliveries are read
    /// off the round's realized links after it has delivered, so the log
    /// does not change which delivery walk runs; under
    /// [`PlaneMode::Auto`] it does keep the run on boxed nodes.
    pub fn record_events(mut self, on: bool) -> Self {
        self.record_events = on;
        self
    }

    /// Records the realized per-round delivery schedule for the
    /// dynaDegree checker (default: on). A round equal to the one before
    /// is compared, not copied, and costs the schedule an index; a
    /// changed round is copied once into one dense edge set, read off
    /// [`Simulation::realized_rows`] after the round has delivered. Those
    /// copies are the recording's memory growth and the last per-round
    /// allocation of a steady-state `step` under a changing adversary:
    /// disable for throughput runs. It does not change what the round
    /// executes.
    pub fn record_schedule(mut self, on: bool) -> Self {
        self.record_schedule = on;
        self
    }

    /// Records the per-phase value multisets `V(p)` (Defs. 5–6) used by
    /// convergence-rate measurements (default: on). Disable for
    /// throughput runs; `Outcome::worst_rate` and friends then report
    /// nothing.
    pub fn observe_phases(mut self, on: bool) -> Self {
        self.observe_phases = on;
        self
    }

    /// Permits fault assignments that exceed the bound `f` (default:
    /// off — `build` panics on them). A churn plan's slice for one
    /// instance can put more than `f` nodes down at once; the service
    /// layer and its standalone-oracle tests run those instances anyway
    /// and *record* the degradation instead of refusing to simulate it.
    /// The algorithms' correctness guarantees do not apply beyond the
    /// bound.
    pub fn allow_fault_overflow(mut self, on: bool) -> Self {
        self.allow_fault_overflow = on;
        self
    }

    /// Builds the simulation for manual stepping.
    ///
    /// # Panics
    ///
    /// Panics if no algorithm factory was provided, or if the Byzantine
    /// count exceeds `f`.
    pub fn build(self) -> Simulation {
        Simulation::from_builder(self)
    }

    /// Builds and runs to completion.
    ///
    /// # Panics
    ///
    /// Same conditions as [`SimBuilder::build`].
    pub fn run(self) -> Outcome {
        self.build().run()
    }
}
