//! `service_churn`: a stream of consensus instances over one long-lived
//! `ServiceRun`, on the columnar plane at small `n` — the regime where
//! per-round and per-instance overheads rival delivery.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use adn_adversary::{Adversary, AdversarySpec, AdversaryView};
use adn_faults::{ChurnPlan, CrashSchedule, DownKind};
use adn_graph::{EdgeSet, LinkPlane, NodeSet, WindowUnion};
use adn_net::PortNumbering;
use adn_sim::workload::InputStream;
use adn_sim::{factories, DeliveryOrder, InstanceRecord, PlaneMode, ServiceRun, Simulation};
use adn_types::{NodeId, Params, Round, Value};

use super::Size;
use crate::layers::{probe_port_of, replay_metrics};
use crate::measure::{Cell, LayerMetrics, Recorder};
use crate::replay::{Replay, ReplayParts};
use crate::spans::{Stage, Tracer};
use crate::util::derive;

/// Per-round link counts an adversary chose into executing receivers,
/// shared with the cell that installed the wrapper.
pub type LinkCounts = Rc<RefCell<Vec<u32>>>;

/// Counts, at the adversary boundary, the links chosen into executing
/// receivers each round. `ServiceRun` and `LaneRun` expose no `Traffic`,
/// so this is how their deliveries are counted: with crash-only faults
/// whose final broadcast reaches everyone or no one (all this benchmark
/// uses there) every such link delivers exactly one message.
#[derive(Debug)]
pub struct CountingAdversary {
    inner: Box<dyn Adversary>,
    counts: LinkCounts,
}

impl CountingAdversary {
    pub fn wrap(inner: Box<dyn Adversary>) -> (Box<dyn Adversary>, LinkCounts) {
        let counts = LinkCounts::default();
        let wrapped = CountingAdversary {
            inner,
            counts: Rc::clone(&counts),
        };
        (Box::new(wrapped), counts)
    }
}

impl Adversary for CountingAdversary {
    fn edges_into(&mut self, view: &AdversaryView<'_>, out: &mut EdgeSet) {
        self.inner.edges_into(view, out);
        let mut links = 0;
        view.honest.for_each(|v| links += out.in_degree(v));
        self.counts.borrow_mut().push(links as u32);
    }

    fn sparse_capable(&self) -> bool {
        false
    }

    fn sparse_into(&mut self, _view: &AdversaryView<'_>, _out: &mut LinkPlane) {
        unreachable!("the counting wrapper declares itself dense-only");
    }

    fn lane_key(&self) -> Option<u64> {
        self.inner.lane_key()
    }

    fn begin_instance(&mut self, instance: u64) {
        self.inner.begin_instance(instance);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// The watchdog window: 2 rounds, so the sliding `WindowUnion` (not the
/// ringless `T = 1` fast path) is what the service pays per round.
const DYNA_WINDOW: usize = 2;

pub struct ServiceCell {
    pub name: &'static str,
    pub weight: f64,
    pub seed: u64,
    pub size: Size,
    /// `false`: the `flap(n/8)` stream, every instance must decide.
    /// `true`: the `PartitionHalves` stream, every instance must burn
    /// exactly `R_max` rounds and abort.
    pub abort: bool,
    service: Option<(ServiceRun, LinkCounts)>,
    /// Instances run on the current `ServiceRun`.
    in_epoch: u64,
    epoch: u64,
}

impl ServiceCell {
    pub fn new(name: &'static str, weight: f64, seed: u64, size: Size, abort: bool) -> Self {
        let mut cell = ServiceCell {
            name,
            weight,
            seed,
            size,
            abort,
            service: None,
            in_epoch: 0,
            epoch: 0,
        };
        cell.service = Some(cell.build(0));
        cell
    }

    fn n(&self) -> usize {
        match self.size {
            Size::Full => 64,
            Size::Smoke => 16,
        }
    }

    /// Instances per `ServiceRun` before the cell builds a fresh one: the
    /// churn plan's events are materialized up to a horizon, so a stream
    /// of unbounded length is cut into epochs of E20's length.
    fn epoch_len(&self) -> u64 {
        match self.size {
            Size::Full => 1000,
            Size::Smoke => 12,
        }
    }

    const EPS: f64 = 1e-2;
    const R_MAX: u64 = 48;

    fn params(&self) -> Params {
        Params::fault_free(self.n(), Self::EPS).expect("valid service parameters")
    }

    fn inner_adversary(&self) -> Box<dyn Adversary> {
        let spec = if self.abort {
            AdversarySpec::PartitionHalves
        } else {
            AdversarySpec::Complete
        };
        spec.build(self.n(), 0, derive(self.seed, &[7]))
    }

    /// E20's heavy-churn plan: an eighth of the fleet flapping, half
    /// periodically, half on a Markov walk. The abort stream has none.
    fn churn(&self, epoch: u64) -> ChurnPlan {
        let n = self.n();
        let mut plan = ChurnPlan::new(n);
        if self.abort {
            return plan;
        }
        let horizon = Round::new(self.epoch_len() * Self::R_MAX + 1);
        for v in 0..n / 8 {
            let node = NodeId::new(2 + v);
            let v64 = v as u64;
            if v % 2 == 0 {
                plan.flap_periodic(
                    node,
                    Round::new(2 + v64 % 13),
                    2,
                    9 + v64 % 5,
                    DownKind::Abrupt,
                    horizon,
                );
            } else {
                plan.flap_random(
                    node,
                    0.05,
                    0.35,
                    derive(self.seed, &[epoch, 8, v64]),
                    horizon,
                );
            }
        }
        plan
    }

    fn inputs(&self, epoch: u64) -> InputStream {
        InputStream::random(derive(self.seed, &[epoch, 9]))
    }

    fn build(&self, epoch: u64) -> (ServiceRun, LinkCounts) {
        let params = self.params();
        let (adversary, counts) = CountingAdversary::wrap(self.inner_adversary());
        let builder = Simulation::builder(params)
            .algorithm(factories::dac(params))
            .algorithm_plane(PlaneMode::Always)
            .adversary(adversary)
            .max_rounds(Self::R_MAX);
        let service = ServiceRun::new(builder, self.churn(epoch), self.inputs(epoch))
            .dyna_window(DYNA_WINDOW);
        (service, counts)
    }

    /// Whether `record` is what this stream must produce.
    fn expected(&self, record: &InstanceRecord) -> bool {
        if self.abort {
            !record.outcome.is_decided()
                && record.rounds == Self::R_MAX
                && record.validity
                && record.min_dyna_degree == Some(self.n() / 2 - 1)
        } else {
            record.outcome.is_decided() && record.validity && record.agreement
        }
    }
}

impl Cell for ServiceCell {
    fn name(&self) -> &'static str {
        self.name
    }

    fn weight(&self) -> f64 {
        self.weight
    }

    fn digest_ops(&self) -> u64 {
        8
    }

    fn warm_ops(&self) -> u64 {
        match self.size {
            Size::Full => 2000,
            Size::Smoke => 1,
        }
    }

    fn run_op(&mut self, index: u64, rec: &mut Recorder<'_>) {
        if self.in_epoch == self.epoch_len() {
            self.epoch += 1;
            self.in_epoch = 0;
            let epoch = self.epoch;
            self.service = Some(rec.untimed(Stage::SimBuild, || self.build(epoch)));
        }
        self.in_epoch += 1;
        let (service, counts) = self.service.as_mut().expect("built in new");
        let (record, ns) = rec.time(Stage::SimInstance, || service.run_instance());
        rec.sample(ns, record.rounds);
        let links: u64 = counts.borrow_mut().drain(..).map(u64::from).sum();
        let uses_plane = service.sim().uses_plane();

        let ok = self.expected(&record) && uses_plane;
        let decided = record.outcome.is_decided() && record.validity && record.agreement;
        let (service, _) = self.service.as_ref().expect("built in new");
        let stats = &mut *rec.stats;
        stats.ops += 1;
        stats.rounds += record.rounds;
        stats.decisions += u64::from(decided);
        stats.deliveries += links;
        stats.messages += links;
        stats.bits += links * adn_types::Message::WIRE_BITS;
        if !ok {
            stats.fail(format!(
                "{} op {index}: {} after {} rounds, validity={} agreement={} min_dyna={:?} \
                 plane={uses_plane}",
                self.name,
                record.outcome,
                record.rounds,
                record.validity,
                record.agreement,
                record.min_dyna_degree
            ));
        }
        if rec.digesting {
            stats.fixed_rounds += record.rounds;
            stats.fixed_decisions += u64::from(decided);
            let d = &mut stats.digest;
            d.u64(record.rounds);
            d.u64(u64::from(record.outcome.is_decided()));
            d.u64(record.decided as u64);
            for id in NodeId::all(self.n()) {
                if let Some(v) = service.sim().output_of(id) {
                    d.f64(v.get());
                }
            }
            d.u64(links);
        }
    }

    fn trace_layers(&mut self, budget: Duration, tr: &mut Tracer) -> (LayerMetrics, bool) {
        let started = Instant::now();
        let n = self.n();
        let epoch = super::TRACE_OPS;
        let (mut twin, _) = self.build(epoch);
        let churn = self.churn(epoch);
        let stream = self.inputs(epoch);
        let params = self.params();
        let ports = PortNumbering::random(n, 0xC0FFEE); // the builder's default
        let mut replay = Replay::from_parts(ReplayParts {
            params,
            inputs: vec![Value::HALF; n],
            factory: factories::dac(params),
            adversary: self.inner_adversary(),
            crash: CrashSchedule::new(n),
            byzantine: Vec::new(),
            ports: ports.clone(),
            order: DeliveryOrder::AscendingSenders,
            max_rounds: Self::R_MAX,
            record_schedule: false,
            plane: true,
            sparse: false,
        });
        // The watchdog's sliding window, as `ServiceRun` keeps it.
        let mut window = WindowUnion::new(n);
        let mut ring: Vec<EdgeSet> = (0..DYNA_WINDOW).map(|_| EdgeSet::empty(n)).collect();
        let (mut head, mut len) = (0, 0);
        let mut honest = NodeSet::new(n);
        let mut inputs = vec![Value::HALF; n];
        let mut clock = 0u64;
        let mut state_match = true;
        let mut instance = 0u64;
        while instance < self.epoch_len()
            && (instance < 4 || started.elapsed() < budget.mul_f64(0.8))
        {
            tr.next_op();
            let record = tr.span(Stage::SimInstance, || twin.run_instance());

            tr.enter(Stage::SimTurnover);
            tr.span(Stage::SimInputFill, || stream.fill(instance, &mut inputs));
            tr.span(Stage::FaultsChurnSlice, || {
                churn.slice_into(Round::new(clock), &mut replay.crash);
            });
            replay.begin_instance(instance, &inputs, tr);
            tr.exit();
            honest.clear();
            for &id in replay.fault_free() {
                honest.insert(id);
            }
            let mut min_dyna: Option<usize> = None;
            while replay.round(tr) {
                clock += 1;
                tr.enter(Stage::GraphWindowSlide);
                if len == DYNA_WINDOW {
                    window.pop_rows(&ring[head]);
                } else {
                    len += 1;
                }
                ring[head].copy_from(&replay.buffers.realized);
                window.push_rows(&ring[head]);
                head = (head + 1) % DYNA_WINDOW;
                tr.exit();
                if len == DYNA_WINDOW {
                    if let Some(d) = window.min_degree_over(&honest) {
                        min_dyna = Some(min_dyna.map_or(d, |m| m.min(d)));
                    }
                }
            }
            state_match &= record.rounds == replay.rounds()
                && record.min_dyna_degree == min_dyna
                && replay.matches(twin.sim());
            instance += 1;
        }
        tr.count("net.deliveries", replay.traffic.deliveries());
        tr.count("net.bits", replay.traffic.bits());
        let mut m = replay_metrics(tr, Stage::SimInstance);
        m.insert("net.port_of_ns", probe_port_of(&ports, self.seed));
        (m, state_match)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RunSpec;

    #[test]
    fn counted_links_equal_metered_deliveries_under_all_or_none_crashes() {
        // Crash survivors cycle All / None / Random by index; keep the
        // first two kinds only (the ones service churn produces).
        let mut spec = RunSpec::dac(20, 1e-2, 17);
        spec.f = 2;
        spec.crashes = 2;
        let (adversary, counts) = CountingAdversary::wrap(spec.adversary());
        let outcome = spec.builder().adversary(adversary).run();
        let counted: u64 = counts.borrow().iter().map(|&c| u64::from(c)).sum();
        assert_eq!(counts.borrow().len() as u64, outcome.rounds());
        assert_eq!(counted, outcome.traffic().deliveries());
    }
}
