//! From spans to per-layer numbers: what a replay trace says about each
//! crate's share of a round, plus the stand-alone layer probes.

use std::hint::black_box;
use std::time::Instant;

use adn_net::codec::{self, Precision};
use adn_net::PortNumbering;
use adn_types::rng::SplitMix64;
use adn_types::{Message, NodeId, Phase, Value};

use crate::measure::LayerMetrics;
use crate::spans::{Stage, Tracer};
use crate::stats::{p99_if_supported, Summary};

/// Stages that are calls into a layer below `adn-sim`. A round's
/// **accounted** time is the sum of their self times; what is left of the
/// twin's `step` is `adn-sim`'s own (classification, realized rows,
/// schedule push, observers, stop checks).
const LAYER_STAGES: [Stage; 16] = [
    Stage::NetBeginRound,
    Stage::AdversaryFill,
    Stage::GraphLinkplaneBegin,
    Stage::GraphTranspose,
    Stage::GraphRowWalk,
    Stage::CoreBroadcast,
    Stage::CoreDeliver,
    Stage::FaultsFabricate,
    Stage::CoreEndRound,
    Stage::FaultsChurnSlice,
    Stage::SimInputFill,
    Stage::CoreResetInstance,
    Stage::GraphWindowSlide,
    Stage::GraphLanelinksFill,
    Stage::CoreLaneBegin,
    Stage::CoreLaneDeliver,
];

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// Per-layer numbers of one replay trace. `unit` is the twin's timed call
/// (`SimStep`, `SimInstance` or `SimLaneStep`): shares are fractions of
/// its total time. A metric is present only when its stage ran.
pub fn replay_metrics(tr: &Tracer, unit: Stage) -> LayerMetrics {
    let totals = tr.totals();
    let total = |s: Stage| totals.get(&s).map_or(0.0, |t| t.total_ns as f64);
    let own = |s: Stage| totals.get(&s).map_or(0.0, |t| t.self_ns as f64);
    let ran = |s: Stage| totals.contains_key(&s);
    let rounds = totals
        .get(&Stage::ReplayRound)
        .map_or(0.0, |t| t.count as f64);
    let step = total(unit);
    let count = |name: &str| tr.counter(name) as f64;
    let mut m = LayerMetrics::new();
    let mut put = |name: &'static str, value: Option<f64>| {
        if let Some(v) = value {
            m.insert(name, v);
        }
    };

    let accounted: f64 = LAYER_STAGES.iter().map(|&s| own(s)).sum();
    put("trace.replay_accounted_share", ratio(accounted, step));
    put(
        "sim.step_residual_share",
        ratio(accounted, step).map(|a| 1.0 - a),
    );

    if ran(Stage::CoreDeliver) {
        let deliver = own(Stage::CoreDeliver);
        put(
            "core.deliver_ns_per_delivery",
            ratio(deliver, count("net.deliveries")),
        );
        put("core.deliver_share", ratio(deliver, step));
    }
    if ran(Stage::CoreEndRound) {
        put(
            "core.end_round_us",
            ratio(total(Stage::CoreEndRound), rounds * 1e3),
        );
    }
    put(
        "core.advances_per_round",
        ratio(count("core.advances"), rounds),
    );
    put(
        "core.quorum_hit_share",
        ratio(count("core.advances"), count("core.executing")),
    );
    if ran(Stage::CoreResetInstance) {
        let t = &totals[&Stage::CoreResetInstance];
        put(
            "core.reset_instance_us",
            ratio(t.total_ns as f64, t.count as f64 * 1e3),
        );
    }
    if ran(Stage::CoreLaneDeliver) {
        put(
            "core.lane_deliver_ns_per_link",
            ratio(total(Stage::CoreLaneDeliver), count("core.lane_links")),
        );
    }

    if ran(Stage::AdversaryFill) {
        let fill = total(Stage::AdversaryFill);
        put("adversary.fill_us", ratio(fill, rounds * 1e3));
        put(
            "adversary.fill_ns_per_link",
            ratio(fill, count("adversary.links")),
        );
        put("adversary.fill_share", ratio(fill, step));
        put(
            "adversary.fills_per_round",
            ratio(count("adversary.fills"), rounds),
        );
        put(
            "adversary.links_per_round",
            ratio(count("adversary.links"), rounds),
        );
    }

    if ran(Stage::GraphTranspose) {
        let t = total(Stage::GraphTranspose);
        put("graph.transpose_us", ratio(t, rounds * 1e3));
        put("graph.transpose_share", ratio(t, step));
    }
    if ran(Stage::GraphRowWalk) {
        put(
            "graph.row_walk_ns_per_link",
            ratio(total(Stage::GraphRowWalk), count("net.deliveries")),
        );
    }
    if ran(Stage::GraphLinkplaneBegin) {
        put(
            "graph.linkplane_begin_us",
            ratio(total(Stage::GraphLinkplaneBegin), rounds * 1e3),
        );
    }
    if ran(Stage::GraphWindowSlide) {
        put(
            "graph.window_slide_us",
            ratio(total(Stage::GraphWindowSlide), rounds * 1e3),
        );
    }
    if ran(Stage::GraphLanelinksFill) {
        put(
            "graph.lanelinks_fill_us",
            ratio(total(Stage::GraphLanelinksFill), rounds * 1e3),
        );
    }

    if ran(Stage::NetBeginRound) {
        put(
            "net.begin_round_us",
            ratio(total(Stage::NetBeginRound), rounds * 1e3),
        );
    }
    put(
        "net.deliveries_per_round",
        ratio(count("net.deliveries"), rounds),
    );
    put(
        "net.bits_per_delivery",
        ratio(count("net.bits"), count("net.deliveries")),
    );

    if ran(Stage::FaultsFabricate) {
        let f = total(Stage::FaultsFabricate);
        put(
            "faults.fabricate_ns_per_link",
            ratio(f, count("faults.fabricated_links")),
        );
        put("faults.fabricate_share", ratio(f, step));
    }
    if ran(Stage::FaultsChurnSlice) {
        let t = &totals[&Stage::FaultsChurnSlice];
        put(
            "faults.churn_slice_us",
            ratio(t.total_ns as f64, t.count as f64 * 1e3),
        );
    }
    if ran(Stage::SimTurnover) {
        let t = &totals[&Stage::SimTurnover];
        put(
            "sim.service_turnover_us",
            ratio(t.total_ns as f64, t.count as f64 * 1e3),
        );
    }
    m
}

/// Per-call numbers of the spanned operations of a traced run: how long
/// the twin-free `step`, `build`, `run_instance`, lane `step` and checker
/// calls took.
pub fn op_metrics(tr: &Tracer) -> LayerMetrics {
    let mut m = LayerMetrics::new();
    let median_of = |stage: Stage, scale: f64| -> Option<(f64, Vec<f64>)> {
        let d = tr.durations(stage);
        (!d.is_empty()).then(|| (Summary::of(&d).median / scale, d))
    };
    if let Some((p50, d)) = median_of(Stage::SimStep, 1e6) {
        m.insert("sim.step_ms_p50", p50);
        if let Some(p99) = p99_if_supported(&d) {
            m.insert("sim.step_ms_p99", p99 / 1e6);
        }
    }
    if let Some((p50, _)) = median_of(Stage::SimBuild, 1e6) {
        m.insert("sim.build_ms", p50);
    }
    if let Some((p50, d)) = median_of(Stage::SimInstance, 1e6) {
        m.insert("sim.instance_ms_p50", p50);
        if let Some(p99) = p99_if_supported(&d) {
            m.insert("sim.instance_ms_p99", p99 / 1e6);
        }
    }
    if let Some((p50, _)) = median_of(Stage::SimLaneStep, 1e3) {
        m.insert("sim.lane_step_us_p50", p50);
    }
    if let Some((p50, d)) = median_of(Stage::GraphChecker, 1e6) {
        m.insert("graph.checker_ms_per_run", p50);
        let checker: f64 = d.iter().sum();
        let steps: f64 = tr.durations(Stage::SimStep).iter().sum();
        if let Some(share) = ratio(checker, checker + steps) {
            m.insert("graph.checker_share", share);
        }
    }
    m
}

/// Host nanoseconds per `PortNumbering::port_of` call, over a seeded
/// stream of `(receiver, sender)` pairs (the table on dense runs, rotation
/// arithmetic on sparse ones).
pub fn probe_port_of(ports: &PortNumbering, seed: u64) -> f64 {
    const CALLS: usize = 1 << 18;
    let n = ports.n();
    let mut rng = SplitMix64::new(seed);
    let pairs: Vec<(NodeId, NodeId)> = (0..4096)
        .map(|_| {
            (
                NodeId::new(rng.next_index(n)),
                NodeId::new(rng.next_index(n)),
            )
        })
        .collect();
    let started = Instant::now();
    let mut acc = 0usize;
    for i in 0..CALLS {
        let (v, u) = pairs[i % pairs.len()];
        acc = acc.wrapping_add(black_box(ports.port_of(black_box(v), black_box(u))).index());
    }
    black_box(acc);
    started.elapsed().as_nanos() as f64 / CALLS as f64
}

/// Host nanoseconds per `codec::encode` + `codec::decode` of one message.
pub fn probe_codec(precision: Precision, seed: u64) -> f64 {
    const CALLS: usize = 1 << 14;
    let mut rng = SplitMix64::new(seed);
    let msgs: Vec<Message> = (0..256)
        .map(|i| Message::new(Value::saturating(rng.next_f64()), Phase::new(i % 40)))
        .collect();
    let mut bytes = Vec::with_capacity(32);
    let started = Instant::now();
    let mut acc = 0u64;
    for i in 0..CALLS {
        bytes.clear();
        codec::encode(black_box(msgs[i % msgs.len()]), precision, &mut bytes);
        let (msg, used) = codec::decode(black_box(&bytes), precision).expect("round trip");
        acc = acc.wrapping_add(msg.phase().as_u64() + used as u64);
    }
    black_box(acc);
    started.elapsed().as_nanos() as f64 / CALLS as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay_against_twin;
    use crate::spec::RunSpec;
    use adn_sim::PlaneMode;

    #[test]
    fn replay_metrics_attribute_a_plane_round() {
        let mut spec = RunSpec::dac(32, 1e-3, 11);
        spec.plane = PlaneMode::Always;
        let mut tr = Tracer::default();
        let report = replay_against_twin(&spec, u64::MAX, &mut tr);
        tr.count("net.deliveries", report.traffic.deliveries());
        tr.count("net.bits", report.traffic.bits());
        let m = replay_metrics(&tr, Stage::SimStep);
        // Complete graph, fault-free: n (n - 1) deliveries of one 128-bit
        // message per round, one fill of as many links, everyone advances.
        assert_eq!(m["net.deliveries_per_round"], 32.0 * 31.0);
        assert_eq!(m["net.bits_per_delivery"], 128.0);
        assert_eq!(m["adversary.links_per_round"], 32.0 * 31.0);
        assert_eq!(m["adversary.fills_per_round"], 1.0);
        assert_eq!(m["core.advances_per_round"], 32.0);
        assert_eq!(m["core.quorum_hit_share"], 1.0);
        for name in [
            "core.deliver_ns_per_delivery",
            "core.deliver_share",
            "core.end_round_us",
            "adversary.fill_us",
            "graph.transpose_us",
            "net.begin_round_us",
        ] {
            assert!(m[name] > 0.0, "{name}");
        }
        let accounted = m["trace.replay_accounted_share"];
        assert!((accounted + m["sim.step_residual_share"] - 1.0).abs() < 1e-12);
        // Stages absent from this path carry no metric.
        assert!(!m.contains_key("faults.fabricate_share"));
        assert!(!m.contains_key("graph.linkplane_begin_us"));
        assert!(!m.contains_key("sim.service_turnover_us"));

        let ops = op_metrics(&tr);
        assert!(ops["sim.step_ms_p50"] > 0.0);
        assert!(
            !ops.contains_key("sim.step_ms_p99"),
            "under 1000 samples: no p99"
        );
        assert!(ops["sim.build_ms"] > 0.0);
    }

    #[test]
    fn probes_time_the_public_calls() {
        assert!(probe_port_of(&PortNumbering::random(64, 1), 2) > 0.0);
        assert!(probe_port_of(&PortNumbering::rotation(64, 1), 2) > 0.0);
        assert!(probe_codec(Precision::new(11), 3) > 0.0);
    }
}
