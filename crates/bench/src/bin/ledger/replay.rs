//! The stage replay: one consensus round driven through the layers'
//! public functions in `Simulation::step`'s order, with a span around
//! every call into a layer.
//!
//! The simulator's `step` is one opaque call; to attribute a round's time
//! to the crates it spends it in *without instrumenting them*, this file
//! re-executes the round from outside: `RoundBuffers::begin_round` →
//! state snapshot → `Adversary::edges_into` / `sparse_into` →
//! `EdgeSet::transpose_into` → per-sender `deliver_from_sender`, per-
//! receiver `receive_many`, or per-link `messages_into` + `receive` →
//! `end_round`, on the same inputs, adversary, faults and
//! `PortNumbering` as a `Simulation` twin. Everything between the layer
//! calls (classification, realized-row bookkeeping, traffic metering) is a
//! copy of engine glue and is *not* spanned: `adn-sim`'s own share of a
//! round is the twin's `step` time minus the spanned stages. After the
//! last round the replayed state columns must equal the twin's
//! (`trace.replay_state_match`), which is what makes the attribution
//! trustworthy.

use adn_adversary::{Adversary, AdversaryView};
use adn_core::{Algorithm, AlgorithmFactory, AlgorithmPlane};
use adn_faults::{ByzContext, ByzantineStrategy, CrashSchedule};
use adn_graph::{LinkPlane, LinkRows, Schedule};
use adn_net::{PortNumbering, RoundBuffers, SenderClass, Traffic};
use adn_sim::{DeliveryOrder, Simulation};
use adn_types::rng::SplitMix64;
use adn_types::{Message, NodeId, Params, Phase, Port, Round, Value};

use crate::spans::{Stage, Tracer};
use crate::spec::RunSpec;

/// The algorithm state behind the replay: the columnar plane or one boxed
/// state machine per non-Byzantine node.
enum Backend {
    Plane(Box<dyn AlgorithmPlane>),
    Nodes(Vec<Option<Box<dyn Algorithm>>>),
}

pub struct Replay {
    params: Params,
    ports: PortNumbering,
    adversary: Box<dyn Adversary>,
    pub crash: CrashSchedule,
    byz: Vec<Option<Box<dyn ByzantineStrategy>>>,
    backend: Backend,
    pub buffers: RoundBuffers,
    links: Option<LinkPlane>,
    wire: Vec<Message>,
    rx: Vec<(Port, Message)>,
    /// One receiver's delivering senders in arrival order (trait path).
    senders: Vec<NodeId>,
    order: DeliveryOrder,
    schedule: Option<Schedule>,
    fault_free: Vec<NodeId>,
    round: Round,
    max_rounds: u64,
    stopped: bool,
    pub traffic: Traffic,
    last_phase: Vec<Phase>,
}

/// Everything a replay is configured with: the same pieces a
/// `SimBuilder` takes, plus the execution path its `Simulation` twin
/// resolved to.
pub struct ReplayParts {
    pub params: Params,
    pub inputs: Vec<Value>,
    pub factory: AlgorithmFactory,
    pub adversary: Box<dyn Adversary>,
    pub crash: CrashSchedule,
    pub byzantine: Vec<(NodeId, Box<dyn ByzantineStrategy>)>,
    pub ports: PortNumbering,
    pub order: DeliveryOrder,
    pub max_rounds: u64,
    pub record_schedule: bool,
    pub plane: bool,
    pub sparse: bool,
}

impl Replay {
    /// Builds the replay of `spec` on the execution path its `Simulation`
    /// twin resolved to (`uses_plane`, `uses_sparse_links`).
    pub fn new(spec: &RunSpec, twin: &Simulation) -> Replay {
        Replay::from_parts(ReplayParts {
            params: spec.params(),
            inputs: spec.inputs(),
            factory: spec.factory(),
            adversary: spec.adversary(),
            crash: spec.crash_schedule(),
            byzantine: spec.strategies(),
            ports: spec.ports(),
            order: spec.order,
            max_rounds: spec.max_rounds,
            record_schedule: !spec.lean,
            plane: twin.uses_plane(),
            sparse: twin.uses_sparse_links(),
        })
    }

    pub fn from_parts(parts: ReplayParts) -> Replay {
        let n = parts.params.n();
        let mut byz: Vec<Option<Box<dyn ByzantineStrategy>>> = (0..n).map(|_| None).collect();
        for (id, strategy) in parts.byzantine {
            byz[id.index()] = Some(strategy);
        }
        let backend = if parts.plane {
            Backend::Plane(
                parts
                    .factory
                    .make_plane(&parts.inputs)
                    .expect("the twin runs a plane, so the factory builds one"),
            )
        } else {
            Backend::Nodes(
                (0..n)
                    .map(|i| {
                        byz[i]
                            .is_none()
                            .then(|| parts.factory.make(i, parts.inputs[i]))
                    })
                    .collect(),
            )
        };
        let sparse = parts.sparse;
        assert!(
            !(sparse && parts.record_schedule),
            "the sparse replay does not record schedules"
        );
        let fault_free = NodeId::all(n)
            .filter(|id| byz[id.index()].is_none() && !parts.crash.is_faulty(*id))
            .collect();
        Replay {
            params: parts.params,
            ports: parts.ports,
            adversary: parts.adversary,
            crash: parts.crash,
            byz,
            backend,
            buffers: if sparse {
                RoundBuffers::sparse(n, false)
            } else {
                RoundBuffers::new(n)
            },
            links: sparse.then(|| LinkPlane::new(n)),
            wire: vec![Message::new(Value::HALF, Phase::ZERO); if sparse { n } else { 0 }],
            rx: Vec::new(),
            senders: Vec::new(),
            order: parts.order,
            schedule: parts.record_schedule.then(|| Schedule::new(n)),
            fault_free,
            round: Round::ZERO,
            max_rounds: parts.max_rounds,
            stopped: false,
            traffic: Traffic::new(),
            last_phase: vec![Phase::ZERO; n],
        }
    }

    pub fn rounds(&self) -> u64 {
        self.round.as_u64()
    }

    /// Heap bytes of the sparse link plane (0 on the dense path).
    pub fn link_plane_bytes(&self) -> usize {
        self.links.as_ref().map_or(0, LinkPlane::heap_bytes)
    }

    /// Per-slot `(phase, value, output)`, `None` at Byzantine slots — what
    /// `Simulation::{phase_of, value_of, output_of}` report.
    pub fn state(&self) -> Vec<Option<(Phase, Value, Option<Value>)>> {
        (0..self.params.n())
            .map(|i| {
                if self.byz[i].is_some() {
                    return None;
                }
                Some(match &self.backend {
                    Backend::Plane(p) => (p.phases()[i], p.values()[i], p.outputs()[i]),
                    Backend::Nodes(algs) => {
                        let a = algs[i].as_ref().expect("non-Byzantine slot");
                        (a.phase(), a.current_value(), a.output())
                    }
                })
            })
            .collect()
    }

    /// Whether the replayed state equals the twin's, slot for slot.
    pub fn matches(&self, twin: &Simulation) -> bool {
        self.rounds() == twin.round().as_u64()
            && self.state().iter().enumerate().all(|(i, slot)| {
                let id = NodeId::new(i);
                match slot {
                    None => twin.phase_of(id).is_none(),
                    Some((phase, value, output)) => {
                        twin.phase_of(id) == Some(*phase)
                            && twin.value_of(id) == Some(*value)
                            && twin.output_of(id) == *output
                    }
                }
            })
    }

    fn decided(&self) -> usize {
        self.fault_free
            .iter()
            .filter(|id| match &self.backend {
                Backend::Plane(p) => p.outputs()[id.index()].is_some(),
                Backend::Nodes(algs) => algs[id.index()]
                    .as_ref()
                    .is_some_and(|a| a.output().is_some()),
            })
            .count()
    }

    /// Rewinds to round 0 for service instance `instance`: the crash
    /// schedule was already re-sliced by the caller, the plane reset is
    /// timed as its own stage.
    pub fn begin_instance(&mut self, instance: u64, inputs: &[Value], tr: &mut Tracer) {
        self.round = Round::ZERO;
        self.stopped = false;
        self.last_phase.fill(Phase::ZERO);
        match &mut self.backend {
            Backend::Plane(p) => {
                let ok = tr.span(Stage::CoreResetInstance, || p.reset_instance(inputs));
                assert!(ok, "service replay needs in-place plane resets");
            }
            Backend::Nodes(_) => panic!("the service replay drives the plane"),
        }
        self.fault_free.clear();
        for i in 0..self.params.n() {
            let id = NodeId::new(i);
            if self.byz[i].is_none() && !self.crash.is_faulty(id) {
                self.fault_free.push(id);
            }
        }
        self.adversary.begin_instance(instance);
        for strategy in self.byz.iter_mut().flatten() {
            strategy.begin_instance(instance);
        }
    }

    pub fn fault_free(&self) -> &[NodeId] {
        &self.fault_free
    }

    /// Replays one round under a `ReplayRound` span. Returns `false` (and
    /// records nothing) once the run's stop condition holds.
    pub fn round(&mut self, tr: &mut Tracer) -> bool {
        if self.stopped {
            return false;
        }
        if self.round.as_u64() >= self.max_rounds || self.decided() == self.fault_free.len() {
            self.stopped = true;
            return false;
        }
        tr.enter(Stage::ReplayRound);
        let n = self.params.n();
        let t = self.round;

        tr.span(Stage::NetBeginRound, || self.buffers.begin_round());

        // Start-of-round snapshot (Byzantine slots keep the defaults).
        match &self.backend {
            Backend::Plane(p) => {
                let (pp, pv) = (p.phases(), p.values());
                for i in 0..n {
                    if self.byz[i].is_none() {
                        self.buffers.phases[i] = pp[i];
                        self.buffers.values[i] = pv[i];
                    }
                }
            }
            Backend::Nodes(algs) => {
                for (i, alg) in algs.iter().enumerate() {
                    if let Some(alg) = alg {
                        self.buffers.phases[i] = alg.phase();
                        self.buffers.values[i] = alg.current_value();
                    }
                }
            }
        }
        for i in 0..n {
            let id = NodeId::new(i);
            match &self.byz[i] {
                Some(strategy) => {
                    if strategy.transmits() {
                        self.buffers.deliverers.insert(id);
                    }
                }
                None => {
                    if !self.crash.is_silent(id, t) {
                        self.buffers.deliverers.insert(id);
                    }
                    if !self.crash.has_crashed_by(id, t) {
                        self.buffers.honest.insert(id);
                    }
                }
            }
        }

        // The adversary picks E(t).
        {
            let view = AdversaryView {
                round: t,
                params: self.params,
                phases: &self.buffers.phases,
                values: &self.buffers.values,
                deliverers: &self.buffers.deliverers,
                honest: &self.buffers.honest,
            };
            match self.links.as_mut() {
                Some(lp) => {
                    tr.span(Stage::GraphLinkplaneBegin, || {
                        lp.begin_round(&self.buffers.deliverers);
                    });
                    tr.span(Stage::AdversaryFill, || {
                        self.adversary.sparse_into(&view, lp);
                    });
                }
                None => tr.span(Stage::AdversaryFill, || {
                    self.adversary.edges_into(&view, &mut self.buffers.chosen);
                }),
            }
        }
        let chosen = match &self.links {
            Some(lp) => lp.edge_count(),
            None => self.buffers.chosen.edge_count(),
        };
        tr.count("adversary.fills", 1);
        tr.count("adversary.links", chosen as u64);

        // Broadcast staging.
        match &mut self.backend {
            Backend::Plane(_) => {
                for i in 0..n {
                    if self.byz[i].is_none() && !self.crash.is_silent(NodeId::new(i), t) {
                        self.buffers.present[i] = true;
                    }
                }
            }
            Backend::Nodes(algs) => {
                tr.enter(Stage::CoreBroadcast);
                for (i, alg) in algs.iter_mut().enumerate() {
                    if let Some(alg) = alg {
                        if !self.crash.is_silent(NodeId::new(i), t) {
                            alg.broadcast_into(&mut self.buffers.batches[i]);
                            self.buffers.present[i] = true;
                        }
                    }
                }
                tr.exit();
            }
        }

        // Sender classes.
        for i in 0..n {
            let id = NodeId::new(i);
            let class = if self.byz[i].is_some() {
                SenderClass::Byzantine
            } else if !self.buffers.present[i] {
                SenderClass::Silent
            } else if self.crash.delivers_to_all(id, t) {
                SenderClass::Present
            } else {
                SenderClass::Partial
            };
            self.buffers.classes[i] = class;
            if class != SenderClass::Silent {
                self.buffers.active.insert(id);
            }
            if class == SenderClass::Present {
                self.buffers.unconditional.insert(id);
            }
        }
        self.build_sender_permutation(t);

        let mut backend = std::mem::replace(&mut self.backend, Backend::Nodes(Vec::new()));
        match &mut backend {
            Backend::Plane(p) if self.links.is_some() => self.deliver_sparse(&mut **p, t, tr),
            Backend::Plane(p) => self.deliver_plane(&mut **p, t, tr),
            Backend::Nodes(algs) => self.deliver_nodes(algs, t, tr),
        }
        if let Some(schedule) = self.schedule.as_mut() {
            schedule.push(self.buffers.realized.clone());
        }

        tr.enter(Stage::CoreEndRound);
        match &mut backend {
            Backend::Plane(p) => p.end_round(&self.buffers.honest),
            Backend::Nodes(algs) => {
                for (i, alg) in algs.iter_mut().enumerate() {
                    if let Some(alg) = alg {
                        if !self.crash.has_crashed_by(NodeId::new(i), t) {
                            alg.end_round();
                        }
                    }
                }
            }
        }
        tr.exit();
        self.backend = backend;

        // Phase-column diff: who advanced this round.
        let mut advanced = 0u64;
        let (backend, last_phase) = (&self.backend, &mut self.last_phase);
        self.buffers.honest.for_each(|id| {
            let i = id.index();
            let phase = match backend {
                Backend::Plane(p) => p.phases()[i],
                Backend::Nodes(algs) => algs[i].as_ref().map_or(Phase::ZERO, |a| a.phase()),
            };
            advanced += u64::from(phase > last_phase[i]);
            last_phase[i] = phase;
        });
        tr.count("core.advances", advanced);
        tr.count("core.executing", self.buffers.honest.len() as u64);

        self.round = t.next();
        if self.decided() == self.fault_free.len() || self.round.as_u64() >= self.max_rounds {
            self.stopped = true;
        }
        tr.exit();
        true
    }

    /// The engine's shared sender permutation for the non-ascending
    /// orders, including the `Shuffled` seed derivation its determinism
    /// contract documents.
    fn build_sender_permutation(&mut self, t: Round) {
        let n = self.params.n();
        let RoundBuffers { perm, active, .. } = &mut self.buffers;
        perm.clear();
        match self.order {
            DeliveryOrder::AscendingSenders => {}
            DeliveryOrder::DescendingSenders => {
                perm.extend(
                    (0..n)
                        .rev()
                        .map(NodeId::new)
                        .filter(|&u| active.contains(u)),
                );
            }
            DeliveryOrder::Shuffled(seed) => {
                perm.extend(NodeId::all(n));
                SplitMix64::new(seed ^ (t.as_u64() << 20)).shuffle(perm);
                perm.retain(|&u| active.contains(u));
            }
        }
    }

    /// Sender `u`'s senders in delivery order: ascending ids, or the
    /// round's shared permutation.
    fn sender_order(&self) -> Vec<NodeId> {
        match self.order {
            DeliveryOrder::AscendingSenders => NodeId::all(self.params.n()).collect(),
            _ => self.buffers.perm.clone(),
        }
    }

    fn plane_message(&self, u: usize) -> Message {
        Message::new(self.buffers.values[u], self.buffers.phases[u])
    }

    /// Byzantine sender `u`'s fabrication for `v`, into the shared scratch.
    fn fabricate(&mut self, t: Round, u: NodeId, v: NodeId, tr: &mut Tracer) -> bool {
        self.buffers.byz_scratch.clear();
        let strategy = self.byz[u.index()].as_mut().expect("classified Byzantine");
        let ctx = ByzContext {
            round: t,
            self_id: u,
            params: self.params,
            phases: &self.buffers.phases,
            values: &self.buffers.values,
        };
        tr.span(Stage::FaultsFabricate, || {
            strategy.messages_into(&ctx, v, &mut self.buffers.byz_scratch);
        });
        tr.count("faults.fabricated_links", 1);
        !self.buffers.byz_scratch.is_empty()
    }

    /// The dense columnar path: one transpose, then sender-major delivery.
    fn deliver_plane(&mut self, plane: &mut dyn AlgorithmPlane, t: Round, tr: &mut Tracer) {
        let n = self.params.n();
        tr.span(Stage::GraphTranspose, || self.buffers.transpose_chosen());
        for v_idx in 0..n {
            let v = NodeId::new(v_idx);
            if self.buffers.honest.contains(v) {
                self.buffers.realized.insert_from_masked(
                    v,
                    self.buffers.chosen.in_neighbors(v),
                    &self.buffers.unconditional,
                );
            }
        }
        for u in self.sender_order() {
            let u_idx = u.index();
            match self.buffers.classes[u_idx] {
                SenderClass::Silent => {}
                SenderClass::Present => {
                    self.buffers.plane_receivers.intersection_of(
                        self.buffers.chosen_out.in_neighbors(u),
                        &self.buffers.honest,
                    );
                    let links = self.buffers.plane_receivers.len() as u64;
                    if links == 0 {
                        continue;
                    }
                    self.traffic.record_uniform_deliveries(links, 1);
                    let msg = plane.encode_wire(self.plane_message(u_idx));
                    tr.span(Stage::CoreDeliver, || {
                        plane.deliver_from_sender(
                            msg,
                            &self.buffers.plane_receivers,
                            self.ports.ports_to(u),
                        );
                    });
                }
                SenderClass::Partial => {
                    let msg = [plane.encode_wire(self.plane_message(u_idx))];
                    for v in self.out_links(u) {
                        if !self.crash.delivers(u, t, v) {
                            continue;
                        }
                        self.traffic.record_delivery(1);
                        self.buffers.realized.insert(u, v);
                        let port = self.ports.port_of(v, u);
                        tr.span(Stage::CoreDeliver, || plane.receive(v.index(), port, &msg));
                    }
                }
                SenderClass::Byzantine => {
                    for v in self.out_links(u) {
                        if !self.fabricate(t, u, v, tr) {
                            continue;
                        }
                        self.traffic.record_delivery(self.buffers.byz_scratch.len());
                        self.buffers.realized.insert(u, v);
                        let port = self.ports.port_of(v, u);
                        tr.span(Stage::CoreDeliver, || {
                            plane.receive(v.index(), port, &self.buffers.byz_scratch);
                        });
                    }
                }
            }
        }
    }

    /// `u`'s chosen ∩ honest out-neighbors, ascending.
    fn out_links(&self, u: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.buffers
            .chosen_out
            .in_neighbors(u)
            .intersection_for_each(&self.buffers.honest, |v| out.push(v));
        out
    }

    /// The sparse path: receiver-major over the link plane's rows.
    fn deliver_sparse(&mut self, plane: &mut dyn AlgorithmPlane, t: Round, tr: &mut Tracer) {
        let n = self.params.n();
        let links = self
            .links
            .as_ref()
            .expect("sparse replay holds a link plane");
        self.buffers.active.for_each(|u| {
            self.wire[u.index()] = plane.encode_wire(Message::new(
                self.buffers.values[u.index()],
                self.buffers.phases[u.index()],
            ));
        });
        for v_idx in 0..n {
            let v = NodeId::new(v_idx);
            if !self.buffers.honest.contains(v) {
                continue;
            }
            self.rx.clear();
            tr.span(Stage::GraphRowWalk, || {
                links.for_each_in(v, |u| {
                    let delivers = match self.buffers.classes[u.index()] {
                        SenderClass::Present => true,
                        SenderClass::Partial => self.crash.delivers(u, t, v),
                        SenderClass::Silent => false,
                        SenderClass::Byzantine => {
                            unreachable!("sparse runs exclude Byzantine nodes")
                        }
                    };
                    if delivers {
                        self.rx
                            .push((self.ports.port_of(v, u), self.wire[u.index()]));
                    }
                });
            });
            if !self.rx.is_empty() {
                self.traffic
                    .record_uniform_deliveries(self.rx.len() as u64, 1);
                tr.span(Stage::CoreDeliver, || plane.receive_many(v_idx, &self.rx));
            }
        }
    }

    /// The boxed trait path: receiver-major; the `CoreDeliver` span covers
    /// one receiver's whole batch of `receive` calls (a per-link span would
    /// cost more than the call it times), with fabrications as child spans.
    fn deliver_nodes(
        &mut self,
        algs: &mut [Option<Box<dyn Algorithm>>],
        t: Round,
        tr: &mut Tracer,
    ) {
        let mut senders = std::mem::take(&mut self.senders);
        for (v_idx, alg) in algs.iter_mut().enumerate() {
            let v = NodeId::new(v_idx);
            if !self.buffers.honest.contains(v) {
                continue;
            }
            let alg = alg.as_mut().expect("honest receiver has a state machine");
            self.buffers.realized.insert_from_masked(
                v,
                self.buffers.chosen.in_neighbors(v),
                &self.buffers.unconditional,
            );
            // The receiver's chosen, non-silent senders in arrival order:
            // ascending ids, or the round's shared permutation.
            senders.clear();
            let row = self.buffers.chosen.in_neighbors(v);
            match self.order {
                DeliveryOrder::AscendingSenders => {
                    row.intersection_for_each(&self.buffers.active, |u| senders.push(u));
                }
                _ => senders.extend(self.buffers.perm.iter().filter(|&&u| row.contains(u))),
            }
            tr.enter(Stage::CoreDeliver);
            for &u in &senders {
                let u_idx = u.index();
                let class = self.buffers.classes[u_idx];
                match class {
                    SenderClass::Byzantine if !self.fabricate(t, u, v, tr) => continue,
                    SenderClass::Partial if !self.crash.delivers(u, t, v) => continue,
                    _ => {}
                }
                let batch: &[Message] = if class == SenderClass::Byzantine {
                    &self.buffers.byz_scratch
                } else {
                    &self.buffers.batches[u_idx]
                };
                self.traffic.record_delivery(batch.len());
                alg.receive(self.ports.port_of(v, u), batch);
                // Present senders' links were recorded word-parallel above.
                if class != SenderClass::Present {
                    self.buffers.realized.insert(u, v);
                }
            }
            tr.exit();
        }
        self.senders = senders;
    }
}

/// Replays `spec` next to a spanned `Simulation` twin for up to
/// `max_rounds` rounds (or to completion) and reports whether the final
/// states match. Twin steps are `SimStep` spans, replayed rounds
/// `ReplayRound` spans, both in `tr`.
pub fn replay_against_twin(spec: &RunSpec, max_rounds: u64, tr: &mut Tracer) -> ReplayReport {
    tr.enter(Stage::SimBuild);
    let mut twin = spec.builder().build();
    tr.exit();
    let mut replay = Replay::new(spec, &twin);
    let mut rounds = 0;
    while rounds < max_rounds && twin.stopped().is_none() {
        let before = twin.round();
        tr.span(Stage::SimStep, || twin.step());
        if twin.round() == before {
            break; // the stop condition held before any work
        }
        let replayed = replay.round(tr);
        assert!(replayed, "the replay stopped before its twin");
        rounds += 1;
    }
    ReplayReport {
        rounds,
        state_match: replay.matches(&twin),
        traffic: replay.traffic,
        link_plane_bytes: replay.link_plane_bytes(),
        twin_link_plane_bytes: twin.link_plane_heap_bytes().unwrap_or(0),
    }
}

#[derive(Debug, Clone, Copy)]
pub struct ReplayReport {
    pub rounds: u64,
    pub state_match: bool,
    pub traffic: Traffic,
    pub link_plane_bytes: usize,
    pub twin_link_plane_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Algo;
    use adn_adversary::AdversarySpec;
    use adn_sim::{LinkMode, PlaneMode};

    fn check(spec: RunSpec) -> (ReplayReport, Tracer) {
        let mut tr = Tracer::default();
        let report = replay_against_twin(&spec, u64::MAX, &mut tr);
        assert!(report.rounds > 0);
        assert!(report.state_match, "{spec:?}");
        // The replay metered exactly the traffic the simulator reports.
        let outcome = spec.builder().run();
        assert_eq!(outcome.rounds(), report.rounds);
        assert_eq!(outcome.traffic().deliveries(), report.traffic.deliveries());
        assert_eq!(outcome.traffic().messages(), report.traffic.messages());
        assert_eq!(outcome.traffic().bits(), report.traffic.bits());
        (report, tr)
    }

    #[test]
    fn plane_replay_matches_twin_with_crashes_byzantine_and_orders() {
        let mut spec = RunSpec::dac(24, 1e-3, 5);
        spec.plane = PlaneMode::Always;
        let (_, tr) = check(spec);
        let totals = tr.totals();
        assert_eq!(
            totals[&Stage::SimStep].count,
            totals[&Stage::ReplayRound].count
        );
        assert!(totals[&Stage::GraphTranspose].count > 0);
        assert!(tr.counter("core.advances") > 0);

        spec.f = 5;
        spec.crashes = 5;
        spec.adversary = AdversarySpec::Rotating { d: 14 };
        spec.order = DeliveryOrder::Shuffled(7);
        check(spec);
        spec.order = DeliveryOrder::DescendingSenders;
        check(spec);

        let mut byz = RunSpec::dac(31, 1e-2, 6);
        byz.algo = Algo::Dbac { pend: 8 };
        byz.f = 6;
        byz.byzantine = 6;
        byz.adversary = AdversarySpec::DbacThreshold;
        byz.plane = PlaneMode::Always;
        let (_, tr) = check(byz);
        assert!(tr.counter("faults.fabricated_links") > 0);
        assert!(tr.totals()[&Stage::FaultsFabricate].count > 0);
    }

    #[test]
    fn trait_replay_matches_twin_across_gallery_shapes() {
        let mut spec = RunSpec::dac(21, 1e-2, 3);
        spec.plane = PlaneMode::Never;
        spec.f = 10;
        spec.crashes = 10;
        spec.adversary = AdversarySpec::Spread { t: 3, d: 10 };
        let (_, tr) = check(spec);
        assert!(tr.totals()[&Stage::CoreBroadcast].count > 0);

        let mut events = RunSpec::dac(26, 1e-2, 4);
        events.algo = Algo::Dbac { pend: 6 };
        events.f = 5;
        events.byzantine = 5;
        events.adversary = AdversarySpec::DbacThreshold;
        events.events = true;
        check(events);

        let mut piggy = RunSpec::dac(20, 1e-2, 8);
        piggy.algo = Algo::Piggyback { k: 3, pend: 6 };
        piggy.f = 2;
        piggy.adversary = AdversarySpec::Random { p: 0.9 };
        check(piggy);

        let mut quant = RunSpec::dac(20, 1e-2, 2);
        quant.algo = Algo::QuantizedDac;
        quant.order = DeliveryOrder::Shuffled(7);
        quant.adversary = AdversarySpec::OmitRoundRobin;
        check(quant);
        quant.plane = PlaneMode::Never;
        check(quant);

        let mut adaptive = RunSpec::dac(20, 1e-2, 2);
        adaptive.adversary = AdversarySpec::AdaptiveClosest { d: 10 };
        check(adaptive);
    }

    #[test]
    fn sparse_replay_matches_twin_and_reports_link_plane_bytes() {
        let mut spec = RunSpec::dac(48, 1.0 / 32.0, 1);
        spec.links = LinkMode::Sparse;
        spec.lean = true;
        spec.adversary = AdversarySpec::Rotating { d: 25 };
        let (report, tr) = check(spec);
        assert!(report.link_plane_bytes > 0);
        assert_eq!(report.link_plane_bytes, report.twin_link_plane_bytes);
        assert!(tr.totals()[&Stage::GraphLinkplaneBegin].count > 0);
        spec.adversary = AdversarySpec::Staggered { d: 25, groups: 4 };
        spec.f = 5;
        spec.crashes = 5;
        check(spec);
    }
}
