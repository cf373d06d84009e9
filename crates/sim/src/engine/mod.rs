//! The round engine: one [`Simulation`] executes §II-A's round as one
//! pipeline, whatever holds the nodes' state.
//!
//! The paper's model has one round structure — snapshot, the adversary
//! picks `E(t)`, every fault-free receiver processes its in-links in some
//! order, end of round — and [`Simulation::step`] is that list, one
//! private method per stage:
//!
//! 1. **classify** — the snapshot of the non-Byzantine states, and one
//!    pass over the senders that gives each its delivery class (Present,
//!    Partial, Byzantine, Silent) and stages each transmitting honest
//!    sender's broadcast once (`AlgorithmPlane::stage_broadcast`, into the
//!    round arena's persistent batches); a Byzantine sender that sends one
//!    message to everyone is staged here too, and classed Present;
//! 2. **fill_links** — the adversary writes `E(t)` into the run's one link
//!    store (`LinkPlane`: words, or id-range runs and CSR rows — a form
//!    fixed at build, see [`LinkMode`]);
//! 3. **order_senders** — the round's shared sender permutation under the
//!    non-ascending [`DeliveryOrder`]s, and its conditional senders;
//! 4. **fabricate** — every chosen link of a fabricating Byzantine sender,
//!    into one per-round arena, on the stepping thread;
//! 5. **stage_wire** — the head of every staged batch into two wire
//!    columns, and the round's wire index when the receivers take their
//!    links a word at a time;
//! 6. **deliver** — the row walk: one receiver-major delivery routine over
//!    the plane's shards ([`walk`]);
//! 7. **record** — everything the round records, read off its realized
//!    links ([`realized`]): traffic, a logged run's `Broadcast`, `Crash`
//!    and `Delivery` events, a recorded schedule;
//! 8. **end_round** — the plane's end-of-round hook, then one sweep for
//!    `V(p)` and the `PhaseAdvance`/`Decide` events;
//! 9. **trace_and_stop** — the round trace and the stop conditions.
//!
//! Stages 1–6 do the round's work and record nothing.
//!
//! **State backends.** What holds the nodes' state is the one thing that
//! varies, behind `adn_core::AlgorithmPlane` (see `adn_core::plane`): boxed
//! state machines, one per node — the semantic reference, and the backend
//! of every algorithm that only implements `Algorithm` — or a columnar
//! plane for DAC and DBAC, with no virtual call per link.
//! [`SimBuilder::algorithm_plane`](crate::SimBuilder::algorithm_plane)
//! only picks which of the two the factory builds ([`PlaneMode`]); no other
//! setting restricts the choice. Wire formats are orthogonal:
//! `quantized_factory` wraps the boxed nodes and the columnar plane alike,
//! and snaps what each sender stages once per round (every receiver sees
//! the same encoded value); Byzantine fabrications bypass the encoder.
//!
//! **Determinism contract.** The columnar planes are observationally
//! identical to boxed nodes under every delivery order — outputs, phase
//! multisets, traces, realized schedule, traffic and event log — because
//! both run the same walk over the same senders in the same order,
//! receivers never interact within a round, and the links the walk stops
//! feeding a columnar receiver are exactly those its algorithm ignores.
//! `tests/reference_round.rs` holds every plane mode, link form, shard
//! count, order and fault mix to a naive per-link round executor that
//! shares none of this machinery.

mod realized;
mod walk;

pub use realized::RealizedRows;
pub use walk::DeliveryOrder;

use adn_adversary::{Adversary, AdversaryView};
// The walk's test counters are compiled out of a release build here, not
// only emptied in adn-core: a branch around the empty call still moved the
// walk's register allocation.
#[cfg(debug_assertions)]
use adn_core::probe;
use adn_core::{AlgorithmPlane, PlaneShard, StagedWire, WireIndex, MAX_PLANE_SHARDS};
use adn_faults::{ByzContext, ByzantineStrategy, CrashSchedule, Uniform};
use adn_graph::{LinkPlane, Schedule};
use adn_net::{PortNumbering, RoundBuffers, SenderClass, Traffic};
use adn_types::{Batch, Message, NodeId, Params, Phase, Round, Value, ValueInterval};

use crate::builder::{LinkMode, PlaneMode, SimBuilder};
use crate::observer::{Observer, RoundTrace};
use crate::outcome::{Outcome, StopReason};
use crate::pool::fan_out;
use crate::trace::{Event, EventLog};
use walk::{deliver_rows, Fabricated, FabricatedSlice, PlaneRound, ShardCtx};

/// What [`Simulation::stage_wire`] made of a round's wire.
#[derive(Debug, Clone, Copy)]
struct WireRound {
    /// See [`PlaneRound::max_wire_phase`].
    max_wire_phase: Phase,
    /// Whether the wire index was built.
    indexed: bool,
    /// Whether its run sums were counted for run pieces
    /// ([`PlaneRound::runs`]).
    runs: bool,
    /// Whether the Present senders were counted for the traffic pass on
    /// run rows ([`WireIndex::present_in`]).
    counted: bool,
}

/// A deterministic execution of one algorithm under one adversary and one
/// fault assignment. See the [crate docs](crate) for the round structure.
///
/// Construct via [`Simulation::builder`]; drive with [`Simulation::step`]
/// or [`Simulation::run`].
pub struct Simulation {
    params: Params,
    inputs: Vec<Value>,
    ports: PortNumbering,
    adversary: Box<dyn Adversary>,
    crash: CrashSchedule,
    /// A Byzantine node's strategy at its slot, `None` elsewhere.
    byz: Box<[Option<Box<dyn ByzantineStrategy>>]>,
    /// Every node's algorithm state: boxed state machines or a columnar
    /// plane (see [`PlaneMode`]). Holds all `n` slots; the engine never
    /// drives Byzantine slots and masks them out of every read.
    plane: Box<dyn AlgorithmPlane>,
    /// Whether `plane` is a columnar one ([`Simulation::uses_plane`]).
    columnar: bool,
    /// Whether the plane's kernels take honest links a word at a time
    /// ([`PlaneShard::takes_words`]), asked once at build.
    takes_words: bool,
    /// Phase each node was last observed in (for V(p) bookkeeping).
    last_phase: Vec<Phase>,
    /// Fault-free for the whole execution: not Byzantine, never crashes.
    fault_free: Vec<NodeId>,
    round: Round,
    max_rounds: u64,
    range_oracle: Option<f64>,
    observer: Observer,
    schedule: Schedule,
    record_schedule: bool,
    observe_phases: bool,
    /// Reusable per-round arena: batches, snapshots, sender sets, scratch
    /// (built [`RoundBuffers::sparse`]: none of its dense edge sets).
    /// Persisted across rounds so steady-state `step`s never allocate.
    buffers: RoundBuffers,
    /// The round's chosen links `E(t)`, the run's one link store: words,
    /// or id-range runs / CSR rows (see [`LinkMode`]).
    links: LinkPlane,
    /// The head of every staged batch as two per-sender columns (see
    /// [`StagedWire`]).
    wire_phase: Vec<Phase>,
    wire_value: Vec<Value>,
    /// The round's wire index (see [`PlaneRound::index`]), sized once for
    /// every phase it can hold — and for the senders' rank order, under a
    /// plane whose word step settles by it.
    wire_index: WireIndex,
    /// The round's conditional senders (see [`PlaneRound::conditional`]).
    conditional: Vec<(usize, NodeId)>,
    /// The round's fabricated batches (`None` in a run without Byzantine
    /// nodes).
    fabricated: Option<Box<Fabricated>>,
    /// The ascending receiver bounds of the shards the delivery loop fans
    /// out over (one shard = no fan-out): shard `i` owns
    /// `shard_bounds[i]..shard_bounds[i + 1]`.
    shard_bounds: Vec<usize>,
    traffic: Traffic,
    /// The instance's (1, D)-dynaDegree so far, metered by the recording
    /// stage (`None` before its first round).
    min_dyna_degree: Option<usize>,
    events: Option<EventLog>,
    /// Which nodes had already decided before the current round (for
    /// Decide events).
    was_decided: Vec<bool>,
    delivery_order: DeliveryOrder,
    done: Option<StopReason>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Simulation({}, adversary={}, round={}, done={:?})",
            self.params,
            self.adversary.name(),
            self.round,
            self.done
        )
    }
}

impl Simulation {
    /// Starts configuring a simulation.
    pub fn builder(params: Params) -> SimBuilder {
        SimBuilder::new(params)
    }

    pub(crate) fn from_builder(b: SimBuilder) -> Simulation {
        let n = b.params.n();
        let factory = b
            .factory
            .expect("SimBuilder::algorithm is required before build/run");
        if !b.allow_fault_overflow {
            assert!(
                b.byzantine.len() <= b.params.f(),
                "{} byzantine nodes exceed the fault bound f = {}",
                b.byzantine.len(),
                b.params.f()
            );
            assert!(
                b.byzantine.len() + b.crash.fault_count() <= b.params.f(),
                "total faults exceed the bound f = {}",
                b.params.f()
            );
        }

        let mut byz: Box<[Option<Box<dyn ByzantineStrategy>>]> = (0..n).map(|_| None).collect();
        let byzantine = b.byzantine.len();
        for (id, strategy) in b.byzantine {
            byz[id.index()] = Some(strategy);
        }
        // A logged run takes room for a batch from every Byzantine node to
        // every other node first: grown among its event log's reallocations,
        // the arena read a higher peak RSS. Other runs grow it as they go.
        let fabricated = (byzantine > 0).then(|| {
            let k = usize::from(b.record_events) * (n - byzantine) * byzantine;
            let (links, messages) = (Vec::with_capacity(k), Batch::with_capacity(k));
            Box::new(Fabricated { links, messages })
        });

        // Which plane holds the nodes' state. Every run configuration
        // drives every plane; `Auto` keeps a logged run on the boxed one.
        let columnar = match b.plane_mode {
            PlaneMode::Never => false,
            PlaneMode::Auto => factory.has_plane() && !b.record_events,
            PlaneMode::Always => {
                assert!(
                    factory.has_plane(),
                    "PlaneMode::Always but the algorithm has no columnar plane"
                );
                true
            }
        };
        let mut plane = if columnar {
            factory
                .make_plane(&b.inputs)
                .expect("plane-capable factory builds a plane")
        } else {
            factory.make_boxed_plane(&b.inputs)
        };
        // Asked of a shard, which every wire-format adaptor forwards.
        let (takes_words, ranks_words) = {
            let mut whole = [None];
            plane.fill_shards(&[0, n], &mut whole);
            let shard = whole[0].as_ref();
            let takes_words = shard.is_some_and(PlaneShard::takes_words);
            (takes_words, shard.is_some_and(PlaneShard::ranks_words))
        };
        let (mut observer, mut fault_free) = (Observer::default(), Vec::new());
        let seeds = (&mut observer, b.observe_phases);
        Simulation::seed_instance(&byz, &b.crash, plane.values(), seeds, &mut fault_free);

        // The link store's form, the one thing `LinkMode` decides: every
        // form runs every configuration. A dense-only adversary writes
        // words whatever the hint.
        let words = match b.link_mode {
            LinkMode::Dense => true,
            LinkMode::Auto => n <= PortNumbering::MAX_DENSE_N,
            LinkMode::Sparse => false,
        } || !b.adversary.sparse_capable();
        let shard_bounds: Vec<usize> = (0..=b.shards).map(|i| n * i / b.shards).collect();

        // A random numbering's table is built here, at set-up, exactly
        // when a step will read ports: boxed nodes are keyed by them and
        // the event log records them. A columnar, unlogged run never
        // looks one up and never builds it.
        let ports = SimBuilder::resolve_ports(b.ports, n);
        if !columnar || b.record_events {
            ports.materialize();
        }

        let mut sim = Simulation {
            params: b.params,
            inputs: b.inputs,
            ports,
            adversary: b.adversary,
            crash: b.crash,
            byz,
            plane,
            columnar,
            takes_words,
            last_phase: vec![Phase::ZERO; n],
            fault_free,
            round: Round::ZERO,
            max_rounds: b.max_rounds,
            range_oracle: b.range_oracle,
            observer,
            schedule: Schedule::new(n),
            record_schedule: b.record_schedule,
            observe_phases: b.observe_phases,
            buffers: RoundBuffers::sparse(n, false),
            links: match words {
                true => LinkPlane::with_words(n),
                false => LinkPlane::new(n),
            },
            wire_phase: vec![Phase::ZERO; n],
            wire_value: vec![Value::HALF; n],
            wire_index: match ranks_words {
                true => WireIndex::ranked(n),
                false => WireIndex::new(n),
            },
            conditional: Vec::with_capacity(n),
            fabricated,
            shard_bounds,
            traffic: Traffic::new(),
            min_dyna_degree: None,
            events: b.record_events.then(EventLog::new),
            was_decided: vec![false; n],
            delivery_order: b.delivery_order,
            done: None,
        };
        // A node whose output exists before any round (pend = 0) decided
        // at initialization: round 0, before the run's first step.
        if let Some(log) = sim.events.as_mut() {
            for (i, &output) in sim.plane.outputs().iter().enumerate() {
                if let (None, Some(value)) = (&sim.byz[i], output) {
                    sim.was_decided[i] = true;
                    log.push(Event::Decide {
                        round: Round::ZERO,
                        node: NodeId::new(i),
                        value,
                    });
                }
            }
        }
        sim
    }

    /// The current round (the next one to execute).
    pub fn round(&self) -> Round {
        self.round
    }

    /// Whether the run has stopped, and why.
    pub fn stopped(&self) -> Option<StopReason> {
        self.done
    }

    /// The persistent round arena — exposed so tests can assert buffer
    /// reuse (stable capacities, no stale messages) across rounds.
    pub fn buffers(&self) -> &RoundBuffers {
        &self.buffers
    }

    /// The execution's port numbering.
    pub fn ports(&self) -> &PortNumbering {
        &self.ports
    }

    /// Whether a columnar algorithm plane holds this run's state (vs one
    /// boxed state machine per node). See
    /// [`PlaneMode`](crate::builder::PlaneMode).
    pub fn uses_plane(&self) -> bool {
        self.columnar
    }

    /// Whether the link store holds this run's chosen links as id-range
    /// runs / CSR rows (vs dense `O(n²)`-bit words). See [`LinkMode`].
    pub fn uses_sparse_links(&self) -> bool {
        self.links.words().is_none()
    }

    /// Heap bytes currently held by the run/CSR link store (`None` when it
    /// holds words) — what the scaling benchmarks compare against the
    /// words' `n²/8` bytes.
    pub fn link_plane_heap_bytes(&self) -> Option<usize> {
        self.uses_sparse_links().then(|| self.links.heap_bytes())
    }

    /// Receiver-range shards the delivery loop fans out over (1 = no
    /// fan-out).
    pub fn shards(&self) -> usize {
        self.shard_bounds.len() - 1
    }

    /// Phase of a non-Byzantine node (`None` for Byzantine slots).
    pub fn phase_of(&self, node: NodeId) -> Option<Phase> {
        let i = node.index();
        self.byz[i].is_none().then(|| self.plane.phases()[i])
    }

    /// Current value of a non-Byzantine node.
    pub fn value_of(&self, node: NodeId) -> Option<Value> {
        let i = node.index();
        self.byz[i].is_none().then(|| self.plane.values()[i])
    }

    /// Decided output of a non-Byzantine node (`None` for Byzantine slots
    /// and undecided nodes).
    pub fn output_of(&self, node: NodeId) -> Option<Value> {
        let i = node.index();
        self.plane.outputs()[i].filter(|_| self.byz[i].is_none())
    }

    /// The fault-free node ids of the current instance (never crashing in
    /// the active crash schedule, not Byzantine).
    pub(crate) fn fault_free_ids(&self) -> &[NodeId] {
        &self.fault_free
    }

    /// The current instance's [`Outcome::min_dyna_degree`] so far.
    pub(crate) fn min_dyna_degree(&self) -> Option<usize> {
        self.min_dyna_degree
    }

    /// The current input vector (refreshed per instance by
    /// [`Simulation::begin_instance`]).
    pub(crate) fn inputs(&self) -> &[Value] {
        &self.inputs
    }

    /// Mutable access to the active crash schedule — the service layer
    /// writes each instance's churn slice here (via
    /// [`ChurnPlan::slice_into`](adn_faults::ChurnPlan::slice_into))
    /// immediately before [`Simulation::begin_instance`]. Mutating the
    /// schedule mid-instance corrupts the run's fault bookkeeping.
    pub(crate) fn crash_mut(&mut self) -> &mut CrashSchedule {
        &mut self.crash
    }

    /// Rewinds the engine to round 0 for consensus instance `instance` of
    /// a service run, **in place**: once the arena, plane, and observer
    /// buffers reached their steady-state capacities, turnover allocates
    /// nothing (pinned by `tests/alloc_free.rs`).
    ///
    /// The caller installs the instance's crash schedule (via
    /// [`Simulation::crash_mut`]) *before* calling this, so the fault-free
    /// set recomputed here sees the new membership. Algorithm state is
    /// reset against the fresh `inputs` through
    /// [`AlgorithmPlane::reset_instance`];
    /// stateful adversaries and Byzantine strategies reseed through their
    /// `begin_instance` hooks, which is what makes service instance `k`
    /// byte-identical to a standalone run given the same membership,
    /// inputs, and adversary slice.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has the wrong length or the algorithm does not
    /// support in-place instance resets.
    pub(crate) fn begin_instance(&mut self, instance: u64, inputs: &[Value]) {
        let n = self.params.n();
        assert_eq!(inputs.len(), n, "one input per node");
        self.inputs.copy_from_slice(inputs);
        self.round = Round::ZERO;
        self.done = None;
        self.min_dyna_degree = None;
        self.last_phase.fill(Phase::ZERO);
        self.was_decided.fill(false);

        // Fresh algorithm state against the new inputs, in place. Down
        // nodes reset too: their inputs still count toward validity
        // (Def. 3 quantifies over non-Byzantine inputs), exactly as a
        // standalone run constructs state machines for crash-faulty nodes.
        assert!(
            self.plane.reset_instance(inputs),
            "service mode requires an algorithm with in-place instance resets"
        );

        // Per-instance reseed of stateful adversaries and strategies
        // (instance 0 is each one's construction stream).
        self.adversary.begin_instance(instance);
        for strategy in self.byz.iter_mut().flatten() {
            strategy.begin_instance(instance);
        }

        // The instance's fault-free set and V(0), into the existing
        // buffers. The service builds with an empty crash schedule, so the
        // capacity from construction (every non-Byzantine node) is maximal.
        let seeds = (&mut self.observer, self.observe_phases);
        let (byz, crash, values) = (&self.byz, &self.crash, self.plane.values());
        Simulation::seed_instance(byz, crash, values, seeds, &mut self.fault_free);
    }

    /// Seeds an instance's bookkeeping from the plane's start state, in
    /// place: `fault_free` becomes the nodes that are neither Byzantine nor
    /// faulty under `crash`, and `observer` restarts — at V(0) when phases
    /// are observed: every non-Byzantine node's start value `values[i]`,
    /// its input (Def. 5; crash-faulty nodes count until they crash). The
    /// one seeding of both instance starts: a run's build, before its
    /// round buffers exist, and [`Simulation::begin_instance`].
    fn seed_instance(
        byz: &[Option<Box<dyn ByzantineStrategy>>],
        crash: &CrashSchedule,
        values: &[Value],
        (observer, observe_phases): (&mut Observer, bool),
        fault_free: &mut Vec<NodeId>,
    ) {
        observer.clear();
        if observe_phases {
            for (i, &value) in values.iter().enumerate() {
                if byz[i].is_none() {
                    observer.record_enter(NodeId::new(i), Phase::ZERO, value);
                }
            }
        }
        fault_free.clear();
        let ids = NodeId::all(byz.len());
        fault_free.extend(ids.filter(|id| byz[id.index()].is_none() && !crash.is_faulty(*id)));
    }

    /// Executes one synchronous round: §II-A's snapshot, the adversary's
    /// `E(t)`, every fault-free receiver processing its in-links, the end
    /// of the round — as the stages below, in this order. No-op once
    /// stopped.
    pub fn step(&mut self) {
        // Check the stop conditions that are already true before doing any
        // work (e.g. pend = 0 decides at initialization).
        if self.done.is_some() || self.check_stop_before() {
            return;
        }
        let t = self.round;
        self.observer.reserve_traces(self.max_rounds);
        self.classify(t);
        self.fill_links(t);
        self.order_senders(t);
        self.fabricate(t);
        let wire = self.stage_wire();
        self.deliver(t, wire);
        self.record(t, wire.counted);
        self.end_round(t);
        self.trace_and_stop(t);
    }

    /// The round's snapshot and class pass: resets the round arena, copies
    /// the non-Byzantine states for the adversary and the strategies, and
    /// gives every sender its delivery class — staging each transmitting
    /// honest sender's broadcast on the way — then stages the uniform
    /// Byzantine senders' one message ([`Simulation::stage_uniform`]).
    fn classify(&mut self, t: Round) {
        let n = self.params.n();

        // --- Reset the persistent arena (capacity-preserving clears). ---
        self.buffers.begin_round();

        // --- Snapshot states for the adversary and Byzantine context.
        // Byzantine slots keep the arena defaults (the plane holds their
        // untouched initial state, which must not leak into the
        // adversary's view). ---
        let (phases, values) = (self.plane.phases(), self.plane.values());
        for i in (0..n).filter(|&i| self.byz[i].is_none()) {
            self.buffers.phases[i] = phases[i];
            self.buffers.values[i] = values[i];
        }

        // --- One pass over the senders: who transmits, who still executes,
        // what each stages, and its delivery class — so the delivery walk
        // reads one byte per link instead of re-deriving "Byzantine?
        // crashed? staged a batch?" per (sender, receiver) pair. ---
        let mut byzantine = false;
        for i in 0..n {
            let id = NodeId::new(i);
            let class = match self.byz[i].as_mut() {
                // A strategy first derives what it needs from the whole
                // snapshot (a median, the maximum phase) — once, here, so
                // fabrication stays O(1) per link. It stays an active
                // sender whatever `transmits()` says: it decides link by
                // link via `messages_into`, unless `stage_uniform` below
                // stages its one message.
                Some(strategy) => {
                    strategy.begin_round(&ByzContext {
                        round: t,
                        self_id: id,
                        params: self.params,
                        phases: &self.buffers.phases,
                        values: &self.buffers.values,
                    });
                    if strategy.transmits() {
                        self.buffers.deliverers.insert(id);
                    }
                    byzantine = true;
                    SenderClass::Byzantine
                }
                None => {
                    if !self.crash.has_crashed_by(id, t) {
                        self.buffers.honest.insert(id);
                    }
                    if self.crash.is_silent(id, t) {
                        SenderClass::Silent
                    } else {
                        // The broadcast, staged once into the node's
                        // persistent batch: a columnar plane stages the
                        // snapshot captured above, a boxed one asks the
                        // node.
                        self.buffers.deliverers.insert(id);
                        let snapshot = Message::new(self.buffers.values[i], self.buffers.phases[i]);
                        let batch = &mut self.buffers.batches[i];
                        self.plane.stage_broadcast(i, snapshot, batch);
                        if self.crash.delivers_to_all(id, t) {
                            self.buffers.unconditional.insert(id);
                            SenderClass::Present
                        } else {
                            SenderClass::Partial
                        }
                    }
                }
            };
            self.buffers.classes[i] = class;
            if class != SenderClass::Silent {
                self.buffers.active.insert(id);
            }
        }
        if byzantine {
            self.stage_uniform(t);
        }
    }

    /// The adversary picks `E(t)` into the link store.
    fn fill_links(&mut self, t: Round) {
        // --- Adversary picks E(t) into the link store: its words through
        // `edges_into`, its run/CSR rows through `sparse_into`. ---
        let view = AdversaryView {
            round: t,
            params: self.params,
            phases: &self.buffers.phases,
            values: &self.buffers.values,
            deliverers: &self.buffers.deliverers,
            honest: &self.buffers.honest,
        };
        self.links.begin_round(&self.buffers.deliverers);
        match self.links.words_mut() {
            Some(words) => self.adversary.edges_into(&view, words),
            None => self.adversary.sparse_into(&view, &mut self.links),
        }
    }

    /// Stages the round's message of every Byzantine sender that sends
    /// one message to all its receivers ([`ByzantineStrategy::uniform`],
    /// asked once its `begin_round` has run), and classes it Present: it
    /// then rides the delivery walk as an honest sender does — in the wire
    /// index and its rank order, in the round's maximum wire phase, fed a
    /// word at a time — and is never asked for a link's fabrication, so it
    /// misses no receiver. A message at the receiver's phase is staged
    /// only when the round's honest receivers share one start phase. It
    /// logs no `Broadcast` (nor does a fabricating sender), and each of
    /// its links is logged as a one-message `Delivery`, as before.
    fn stage_uniform(&mut self, t: Round) {
        let RoundBuffers {
            batches,
            phases,
            values,
            classes,
            honest,
            unconditional,
            ..
        } = &mut self.buffers;
        let mut honest_phases = honest.iter().map(|v| phases[v.index()]);
        let first = honest_phases.next();
        let shared = first.filter(|&p| honest_phases.all(|q| q == p));
        for (i, slot) in self.byz.iter().enumerate() {
            let Some(strategy) = slot else {
                continue;
            };
            let ctx = ByzContext {
                round: t,
                self_id: NodeId::new(i),
                params: self.params,
                phases,
                values,
            };
            let message = strategy.uniform(&ctx).and_then(|uniform| match uniform {
                Uniform::Message(m) => Some(m),
                Uniform::AtReceiverPhase(x) => shared.map(|p| Message::new(x, p)),
            });
            if let Some(message) = message {
                batches[i].push(message);
                classes[i] = SenderClass::Present;
                unconditional.insert(NodeId::new(i));
            }
        }
    }

    /// How many fault-free nodes have decided.
    pub(crate) fn decided(&self) -> usize {
        let outputs = self.plane.outputs();
        self.fault_free
            .iter()
            .filter(|id| outputs[id.index()].is_some())
            .count()
    }

    /// The round's wire: heads every staged batch into the wire columns
    /// and, when the receivers take the round's Present links a word at a
    /// time, builds the wire index over the Present senders. On run rows
    /// it then counts the Present senders for the traffic pass, and the
    /// index's phases for a plane whose kernels take run pieces
    /// ([`WireIndex::sum_runs`]); dense rounds count nothing.
    fn stage_wire(&mut self) -> WireRound {
        let RoundBuffers {
            batches,
            active,
            unconditional,
            deliverers,
            perm,
            ..
        } = &self.buffers;
        let (wire_phase, wire_value) = (&mut self.wire_phase, &mut self.wire_value);
        let mut max_wire_phase = Phase::ZERO;
        active.for_each(|u| {
            // Byzantine senders staged nothing (and a boxed node may not
            // have either).
            if let Some(head) = batches[u.index()].first() {
                wire_phase[u.index()] = head.phase();
                wire_value[u.index()] = head.value();
                max_wire_phase = max_wire_phase.max(head.phase());
            }
        });
        // Receivers take the round's Present links a word at a time when
        // their kernels can, the walk feeds them ascending, and the wire
        // holds no more phases than the index.
        let words = self.delivery_order.shared_perm(perm).is_none() && self.takes_words;
        let indexed = words && self.wire_index.build(unconditional, wire_phase, wire_value);
        #[cfg(debug_assertions)]
        if words && !indexed {
            probe::bump(probe::UNINDEXED_ROUNDS);
        }
        // Alg. 2's planes (ranked) keep the word walk on run rows too.
        let pieces = indexed && !self.wire_index.has_ranks();
        let counted = self.links.words().is_none()
            && (self.wire_index).sum_runs(unconditional, deliverers, pieces);
        WireRound {
            max_wire_phase,
            indexed,
            runs: counted && pieces,
            counted,
        }
    }

    /// The round's row walk: splits the plane into the run's shards (one
    /// shard = the whole plane), hands each the round's wire index if
    /// [`Simulation::stage_wire`] built one, and runs the one delivery
    /// routine ([`deliver_rows`]) over each shard's receivers and the link
    /// store's rows, whichever form they take. Shards > 1 run concurrently
    /// on scoped threads ([`fan_out`]: shard 0 on this thread): receivers
    /// are partitioned, not copied, and each shard reads its own
    /// receivers' part of the round's fabricated batches. The walk records
    /// nothing ([`Simulation::record`] reads the round off afterwards).
    fn deliver(&mut self, t: Round, wire: WireRound) {
        let WireRound {
            max_wire_phase,
            indexed,
            runs,
            ..
        } = wire;
        let Simulation {
            buffers,
            crash,
            ports,
            plane,
            links,
            wire_phase,
            wire_value,
            wire_index,
            conditional,
            fabricated,
            shard_bounds,
            delivery_order,
            ..
        } = self;
        let RoundBuffers {
            batches,
            classes,
            active,
            honest,
            unconditional,
            perm,
            ..
        } = buffers;

        let shards = shard_bounds.len() - 1;
        let mut slots: [Option<PlaneShard<'_>>; MAX_PLANE_SHARDS] = Default::default();
        plane.fill_shards(shard_bounds, &mut slots[..shards]);
        let (wire_value, wire_index) = (&wire_value[..], &*wire_index);
        if indexed {
            for shard in slots[..shards].iter_mut().flatten() {
                shard.index_round(wire_value, wire_index);
            }
        }
        let env = PlaneRound {
            perm: delivery_order.shared_perm(perm),
            classes,
            conditional,
            honest,
            active,
            unconditional,
            crash,
            ports,
            wire: StagedWire {
                phase: wire_phase,
                value: wire_value,
                batches,
            },
            index: indexed.then_some(wire_index),
            runs,
            max_wire_phase,
            t,
        };

        // Each shard takes its own receivers' part of the arena.
        let mut arena = match fabricated.as_deref_mut() {
            Some(Fabricated { links, messages }) => FabricatedSlice { links, messages },
            None => FabricatedSlice::default(),
        };
        let mut ctxs = (slots[..shards].iter_mut())
            .zip(&shard_bounds[1..])
            .map(|(slot, &hi)| ShardCtx {
                shard: slot.take().expect("fill_shards fills every requested slot"),
                fabricated: arena
                    .take_front(arena.links.partition_point(|&(v, _, _)| v.index() < hi)),
            });
        // The store's form is asked once per shard, not once per row read:
        // the per-read branch measured ≈ 4 % on a 1024-node complete round.
        let run_shard = |i: usize, ctx: &mut ShardCtx<'_>| {
            let range = (shard_bounds[i], shard_bounds[i + 1]);
            match links.words() {
                Some(words) => deliver_rows(&env, words, range, ctx),
                None => deliver_rows(&env, &*links, range, ctx),
            }
        };
        if shards == 1 {
            // The inline path: nothing spawned, nothing allocated.
            let mut ctx = ctxs.next().expect("a run has at least one shard");
            run_shard(0, &mut ctx);
        } else {
            fan_out(ctxs, run_shard);
        }
    }

    /// The end of the round: the plane's end-of-round hook for every
    /// executing node (exactly the non-crashed non-Byzantine set,
    /// `honest`), then one sweep over them for `V(p)` and a logged run's
    /// `PhaseAdvance` and `Decide` events.
    fn end_round(&mut self, t: Round) {
        let n = self.params.n();
        self.plane.end_round(&self.buffers.honest);

        // --- Observer: phase transitions (Def. 6 fills skipped phases). --
        let (phases, values, outputs) = (
            self.plane.phases(),
            self.plane.values(),
            self.plane.outputs(),
        );
        for i in 0..n {
            let id = NodeId::new(i);
            if !self.buffers.honest.contains(id) {
                continue;
            }
            let (new_phase, current_value) = (phases[i], values[i]);
            let old_phase = self.last_phase[i];
            if self.observe_phases {
                let mut p = old_phase;
                while p < new_phase {
                    p = p.next();
                    self.observer.record_enter(id, p, current_value);
                }
            }
            if let Some(log) = self.events.as_mut() {
                if new_phase > old_phase {
                    log.push(Event::PhaseAdvance {
                        round: t,
                        node: id,
                        from: old_phase,
                        to: new_phase,
                        value: current_value,
                    });
                }
                if !self.was_decided[i] {
                    if let Some(out) = outputs[i] {
                        self.was_decided[i] = true;
                        log.push(Event::Decide {
                            round: t,
                            node: id,
                            value: out,
                        });
                    }
                }
            }
            self.last_phase[i] = new_phase;
        }
    }

    /// The round's trace over the fault-free nodes, then the next round
    /// and the stop conditions.
    fn trace_and_stop(&mut self, t: Round) {
        let (phases, values) = (self.plane.phases(), self.plane.values());
        // --- Trace over fault-free nodes (reused scratch). ---
        let ff = &self.fault_free;
        self.buffers
            .ff_values
            .extend(ff.iter().map(|id| values[id.index()]));
        let range = ValueInterval::of(self.buffers.ff_values.iter().copied())
            .map_or(0.0, ValueInterval::range);
        let (min_phase, max_phase) = ff
            .iter()
            .map(|id| phases[id.index()])
            .fold((Phase::new(u64::MAX), Phase::ZERO), |(lo, hi), p| {
                (lo.min(p), hi.max(p))
            });
        let decided = self.decided();
        self.observer.record_trace(RoundTrace {
            round: t,
            range,
            min_phase: if ff.is_empty() {
                Phase::ZERO
            } else {
                min_phase
            },
            max_phase,
            decided,
        });

        self.round = t.next();
        self.check_stop_after(range, decided);
    }

    fn check_stop_before(&mut self) -> bool {
        if self.round.as_u64() >= self.max_rounds {
            self.done = Some(StopReason::MaxRounds);
            return true;
        }
        if self.decided() == self.fault_free.len() {
            self.done = Some(StopReason::AllOutput);
            return true;
        }
        false
    }

    fn check_stop_after(&mut self, range: f64, decided: usize) {
        if decided == self.fault_free.len() {
            self.done = Some(StopReason::AllOutput);
        } else if self.range_oracle.is_some_and(|eps| range <= eps) {
            self.done = Some(StopReason::RangeConverged);
        } else if self.round.as_u64() >= self.max_rounds {
            self.done = Some(StopReason::MaxRounds);
        }
    }

    /// Runs rounds until a stop condition fires, then consumes the
    /// simulation into its [`Outcome`].
    pub fn run(mut self) -> Outcome {
        while self.done.is_none() {
            self.step();
        }
        self.finish()
    }

    /// Consumes the simulation into its [`Outcome`] (callable mid-flight
    /// when stepping manually; the reason defaults to `MaxRounds` if no
    /// stop condition fired yet).
    pub fn finish(self) -> Outcome {
        let n = self.params.n();
        let outputs: Vec<Option<Value>> = NodeId::all(n).map(|id| self.output_of(id)).collect();
        let final_values: Vec<Value> = (0..n)
            .map(|i| {
                // Byzantine slots report the neutral default.
                self.value_of(NodeId::new(i)).unwrap_or(Value::HALF)
            })
            .collect();
        let non_byzantine: Vec<NodeId> = NodeId::all(n)
            .filter(|id| self.byz[id.index()].is_none())
            .collect();
        let (phases, traces) = self.observer.into_parts();
        Outcome {
            params: self.params,
            inputs: self.inputs,
            honest: self.fault_free,
            non_byzantine,
            rounds: self.round.as_u64(),
            reason: self.done.unwrap_or(StopReason::MaxRounds),
            outputs,
            final_values,
            phases,
            traces,
            schedule: self.schedule,
            traffic: self.traffic,
            min_dyna_degree: self.min_dyna_degree,
            events: self.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factories;
    use adn_adversary::AdversarySpec;
    use adn_faults::strategies::{Extreme, TwoFaced};
    use adn_faults::CrashSurvivors;
    use adn_graph::{checker, EdgeSet};
    use adn_types::Params;

    fn params(n: usize, f: usize, eps: f64) -> Params {
        Params::new(n, f, eps).unwrap()
    }

    #[test]
    fn dac_converges_on_complete_graph() {
        let p = params(5, 0, 1e-3);
        let outcome = Simulation::builder(p).algorithm(factories::dac(p)).run();
        assert_eq!(outcome.reason(), StopReason::AllOutput);
        assert!(outcome.eps_agreement(1e-3));
        assert!(outcome.validity());
        // Complete graph: one phase per round, pend = 10.
        assert_eq!(outcome.rounds(), 10);
    }

    #[test]
    fn dac_under_rotating_threshold_adversary() {
        let p = params(9, 0, 1e-3);
        let outcome = Simulation::builder(p)
            .adversary(AdversarySpec::DacThreshold.build(9, 0, 1))
            .algorithm(factories::dac(p))
            .run();
        assert_eq!(outcome.reason(), StopReason::AllOutput);
        assert!(outcome.eps_agreement(1e-3));
        assert!(outcome.validity());
        assert!(outcome.phase_containment_ok());
    }

    #[test]
    fn dac_measured_rate_respects_remark1() {
        let p = params(7, 0, 1e-4);
        let outcome = Simulation::builder(p)
            .adversary(AdversarySpec::Rotating { d: 4 }.build(7, 0, 3))
            .algorithm(factories::dac(p))
            .run();
        let worst = outcome.worst_rate().expect("phases recorded");
        assert!(worst <= 0.5 + 1e-9, "worst rate {worst} exceeds 1/2");
    }

    #[test]
    fn dac_survives_crashes_within_bound() {
        // n = 5, f = 2: crash two nodes mid-run.
        let p = params(5, 2, 1e-3);
        let mut crash = CrashSchedule::new(5);
        crash.crash(NodeId::new(3), Round::new(2), CrashSurvivors::All);
        crash.crash(
            NodeId::new(4),
            Round::new(4),
            CrashSurvivors::Subset(vec![NodeId::new(0)]),
        );
        let outcome = Simulation::builder(p)
            .crashes(crash)
            .algorithm(factories::dac(p))
            .run();
        assert_eq!(outcome.reason(), StopReason::AllOutput);
        assert!(outcome.eps_agreement(1e-3));
        assert!(outcome.validity());
        assert_eq!(outcome.honest_ids().len(), 3);
    }

    #[test]
    fn dac_blocks_under_partition() {
        let p = params(8, 0, 1e-2);
        let outcome = Simulation::builder(p)
            .adversary(AdversarySpec::PartitionHalves.build(8, 0, 1))
            .algorithm(factories::dac(p))
            .max_rounds(300)
            .run();
        assert_eq!(outcome.reason(), StopReason::MaxRounds);
        assert!(!outcome.all_honest_output());
    }

    #[test]
    fn dbac_tolerates_extreme_byzantine() {
        let p = params(6, 1, 1e-2);
        let outcome = Simulation::builder(p)
            .byzantine(NodeId::new(5), Box::new(Extreme { value: Value::ONE }))
            .algorithm(factories::dbac(p))
            .run();
        assert_eq!(outcome.reason(), StopReason::AllOutput);
        assert!(outcome.eps_agreement(1e-2));
        assert!(
            outcome.validity(),
            "byzantine pull must not escape the hull"
        );
    }

    #[test]
    fn dbac_tolerates_two_faced_with_sufficient_degree() {
        let p = params(11, 2, 1e-2);
        let outcome = Simulation::builder(p)
            .byzantine(NodeId::new(4), Box::new(TwoFaced::zero_one(5)))
            .byzantine(NodeId::new(6), Box::new(TwoFaced::zero_one(5)))
            .adversary(AdversarySpec::DbacThreshold.build(11, 2, 2))
            .algorithm(factories::dbac_with_pend(p, 80))
            .run();
        assert_eq!(outcome.reason(), StopReason::AllOutput);
        assert!(outcome.eps_agreement(1e-2));
        assert!(outcome.validity());
    }

    #[test]
    fn realized_schedule_feeds_checker() {
        let p = params(6, 0, 1e-2);
        let outcome = Simulation::builder(p)
            .record_schedule(true)
            .adversary(AdversarySpec::Rotating { d: 3 }.build(6, 0, 5))
            .algorithm(factories::dac(p))
            .run();
        let sched = outcome.schedule();
        assert_eq!(sched.len() as u64, outcome.rounds());
        assert_eq!(checker::max_dyna_degree(sched, 1, &[]), Some(3));
        assert_eq!(outcome.min_dyna_degree(), Some(3));
    }

    #[test]
    fn oracle_stop_fires_before_pend() {
        let p = params(5, 0, 1e-6);
        let outcome = Simulation::builder(p)
            .algorithm(factories::dac(p))
            .stop_when_range_below(0.25)
            .run();
        assert_eq!(outcome.reason(), StopReason::RangeConverged);
        assert!(outcome.rounds() < 10);
        assert!(outcome.final_range() <= 0.25);
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let p = params(8, 0, 1e-3);
        let run = || {
            Simulation::builder(p)
                .record_schedule(true)
                .inputs_random(11)
                .adversary(AdversarySpec::Random { p: 0.7 }.build(8, 0, 9))
                .algorithm(factories::dac(p))
                .max_rounds(5_000)
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.rounds(), b.rounds());
        assert_eq!(a.honest_outputs(), b.honest_outputs());
        assert_eq!(a.traffic(), b.traffic());
        assert_eq!(a.schedule(), b.schedule());
    }

    #[test]
    fn traffic_counts_complete_graph_rounds() {
        let p = params(4, 0, 0.5); // pend = 1: single phase
        let outcome = Simulation::builder(p).algorithm(factories::dac(p)).run();
        // 1 round, complete graph: 4*3 deliveries of single messages.
        assert_eq!(outcome.rounds(), 1);
        assert_eq!(outcome.traffic().deliveries(), 12);
        assert_eq!(outcome.traffic().messages(), 12);
    }

    #[test]
    fn pend_zero_stops_immediately() {
        let p = params(4, 0, 1.0);
        let outcome = Simulation::builder(p).algorithm(factories::dac(p)).run();
        assert_eq!(outcome.rounds(), 0);
        assert_eq!(outcome.reason(), StopReason::AllOutput);
        assert!(outcome.validity());
    }

    #[test]
    #[should_panic(expected = "algorithm is required")]
    fn missing_algorithm_panics() {
        let p = params(4, 0, 0.5);
        let _ = Simulation::builder(p).build();
    }

    #[test]
    #[should_panic(expected = "exceed the fault bound")]
    fn too_many_byzantine_panics() {
        let p = params(4, 0, 0.5);
        let _ = Simulation::builder(p)
            .byzantine(NodeId::new(0), Box::new(Extreme { value: Value::ONE }))
            .algorithm(factories::dbac(p))
            .build();
    }

    /// The directed case the stop must not break: on the complete graph
    /// every receiver reaches quorum on its first ⌊n/2⌋ honest links and
    /// advances past every honest snapshot, so the rest of its honest
    /// links go unfed — and then the Byzantine sender, last in the sender
    /// order, delivers a fabricated phase far above all of them. That
    /// link must still be delivered and still cause the jump, on one shard
    /// and on two.
    #[test]
    fn fabrication_behind_the_stale_point_still_jumps() {
        use crate::builder::PlaneMode;
        use adn_types::Batch;

        #[derive(Debug)]
        struct Ahead;
        impl ByzantineStrategy for Ahead {
            fn messages_into(&mut self, _: &ByzContext<'_>, _: NodeId, out: &mut Batch) {
                out.push(Message::new(Value::ONE, Phase::new(7)));
            }
            fn begin_instance(&mut self, _: u64) {}
            fn name(&self) -> &'static str {
                "ahead"
            }
        }

        let n = 9;
        let p = params(n, 1, 1e-3);
        let step_once = |mode, shards| {
            let mut sim = Simulation::builder(p)
                .byzantine(NodeId::new(n - 1), Box::new(Ahead))
                .algorithm(factories::dac_with_pend(p, 20))
                .algorithm_plane(mode)
                .shards(shards)
                .build();
            sim.step();
            sim
        };
        let reference = step_once(PlaneMode::Never, 1);
        let realized = |sim: &Simulation| {
            let mut rows = EdgeSet::empty(n);
            rows.union_rows(&sim.realized_rows());
            rows
        };
        for shards in [1, 2] {
            let plane = step_once(PlaneMode::Always, shards);
            for v in NodeId::all(n - 1) {
                assert_eq!(plane.phase_of(v), Some(Phase::new(7)), "{v} must jump");
                assert_eq!(plane.value_of(v), Some(Value::ONE), "{v}");
                assert_eq!(plane.value_of(v), reference.value_of(v), "{v}");
            }
            // All 8 × 8 links into the honest receivers count as
            // delivered, the unfed ones included, and realized.
            assert_eq!(plane.traffic.deliveries(), 64, "{shards} shards");
            assert_eq!(plane.traffic, reference.traffic, "{shards} shards");
            assert_eq!(realized(&plane).edge_count(), 64, "{shards} shards");
            assert_eq!(realized(&plane), realized(&reference), "{shards} shards");
        }
    }

    #[test]
    fn link_mode_auto_stays_dense_below_the_port_cap() {
        use crate::builder::LinkMode;
        let p = params(8, 0, 1e-2);
        let sim = Simulation::builder(p).algorithm(factories::dac(p)).build();
        assert!(!sim.uses_sparse_links(), "Auto stays dense at n = 8");
        assert!(sim.link_plane_heap_bytes().is_none());
        assert_eq!(sim.shards(), 1);
        for mode in [LinkMode::Sparse, LinkMode::Dense] {
            let sim = Simulation::builder(p)
                .algorithm(factories::dac(p))
                .link_mode(mode)
                .shards(2)
                .build();
            assert_eq!(sim.uses_sparse_links(), mode == LinkMode::Sparse);
            assert_eq!(
                sim.link_plane_heap_bytes().is_some(),
                sim.uses_sparse_links()
            );
            assert_eq!(sim.shards(), 2, "{mode:?} shards");
        }
        let p = params(8, 1, 1e-2);
        let byzantine = Simulation::builder(p)
            .byzantine(NodeId::new(7), Box::new(TwoFaced::zero_one(4)))
            .algorithm(factories::dbac(p))
            .shards(2)
            .build();
        assert_eq!(byzantine.shards(), 2, "a Byzantine run shards too");
    }

    /// The auto mode picks the plane exactly when the configuration is
    /// plane-compatible — which, with the order-general permutation walk and
    /// the quantized plane adaptor, now means: plane-capable factory, events
    /// off.
    #[test]
    fn auto_mode_selects_plane_only_when_compatible() {
        use crate::quantized::quantized_factory;
        use adn_net::codec::Precision;

        let params = Params::fault_free(6, 1e-2).unwrap();
        let plane_auto = Simulation::builder(params)
            .algorithm(factories::dac(params))
            .build();
        assert!(plane_auto.uses_plane(), "dac + defaults must use the plane");

        let events_on = Simulation::builder(params)
            .algorithm(factories::dac(params))
            .record_events(true)
            .build();
        assert!(!events_on.uses_plane(), "Auto keeps a logged run boxed");
        let events_on_columnar = Simulation::builder(params)
            .algorithm(factories::dac(params))
            .record_events(true)
            .algorithm_plane(PlaneMode::Always)
            .build();
        assert!(
            events_on_columnar.uses_plane(),
            "Always + events is a legal combination"
        );

        for order in [
            DeliveryOrder::DescendingSenders,
            DeliveryOrder::Shuffled(42),
        ] {
            let sim = Simulation::builder(params)
                .algorithm(factories::dac(params))
                .delivery_order(order)
                .build();
            assert!(
                sim.uses_plane(),
                "{order:?} drives the plane through the shared permutation"
            );
        }

        let quantized = Simulation::builder(params)
            .algorithm(quantized_factory(factories::dac(params), Precision::new(8)))
            .build();
        assert!(
            quantized.uses_plane(),
            "quantized dac inherits the plane via the wire-encoding adaptor"
        );

        let no_plane_alg = Simulation::builder(params)
            .algorithm(factories::reliable_ac(params))
            .build();
        assert!(!no_plane_alg.uses_plane(), "baselines have no plane");
        let quantized_no_plane = Simulation::builder(params)
            .algorithm(quantized_factory(
                factories::reliable_ac(params),
                Precision::new(8),
            ))
            .build();
        assert!(
            !quantized_no_plane.uses_plane(),
            "wrapping cannot conjure a plane the inner algorithm lacks"
        );
    }

    #[test]
    fn step_api_advances_one_round() {
        let p = params(5, 0, 1e-3);
        let mut sim = Simulation::builder(p).algorithm(factories::dac(p)).build();
        assert_eq!(sim.round(), Round::ZERO);
        sim.step();
        assert_eq!(sim.round(), Round::new(1));
        assert_eq!(sim.phase_of(NodeId::new(0)), Some(Phase::new(1)));
        let outcome = sim.finish();
        assert_eq!(outcome.rounds(), 1);
    }
}
