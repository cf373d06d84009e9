//! The benchmark's metric tables: names, units, directions and — for the
//! end-to-end metrics — the bound by which each may worsen before a change
//! counts as a regression. `BENCHMARK.json` lists the same tables (a
//! self-test keeps the two in step).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees. Every one is defined (and non-zero)
/// on every workload.
pub const END_TO_END: [Metric; 5] = [
    // Cells built plus a fixed warm-up pass, median of three set-ups.
    e2e("setup_s", "s", Lower, 0.25),
    // Simulated rounds per host second of stepping.
    e2e("rounds_per_s", "1/s", Higher, 0.25),
    // Runs / instances / lane trials that ended AllOutput with validity
    // and ε-agreement, per host second of stepping.
    e2e("decisions_per_s", "1/s", Higher, 0.25),
    // Host nanoseconds of stepping per delivered message batch: the
    // size-normalised cost, comparable across n and paths.
    e2e("ns_per_delivery", "ns", Lower, 0.25),
    // The process's VmHWM.
    e2e("peak_rss_mb", "MB", Lower, 0.15),
];

/// Single layers, from the traced run. A metric reads 0 on a workload
/// whose execution path does not touch its layer.
pub const PER_LAYER: [Metric; 47] = [
    layer("sim.step_ms_p50", "ms", Lower),
    layer("sim.step_ms_p99", "ms", Lower),
    layer("sim.step_residual_share", "share", Lower),
    layer("sim.build_ms", "ms", Lower),
    layer("sim.instance_ms_p50", "ms", Lower),
    layer("sim.instance_ms_p99", "ms", Lower),
    layer("sim.service_turnover_us", "us", Lower),
    layer("sim.lane_step_us_p50", "us", Lower),
    layer("sim.lane_occupancy", "share", Higher),
    layer("sim.lane_speedup.shared", "ratio", Higher),
    layer("sim.lane_speedup.perlane", "ratio", Higher),
    layer("sim.shard_speedup", "ratio", Higher),
    layer("sim.rounds_per_decision", "rounds", Lower),
    layer("core.deliver_ns_per_delivery", "ns", Lower),
    layer("core.deliver_share", "share", Higher),
    layer("core.end_round_us", "us", Lower),
    layer("core.advances_per_round", "count", Higher),
    layer("core.quorum_hit_share", "share", Higher),
    layer("core.reset_instance_us", "us", Lower),
    layer("core.lane_deliver_ns_per_link", "ns", Lower),
    layer("adversary.fill_us", "us", Lower),
    layer("adversary.fill_ns_per_link", "ns", Lower),
    layer("adversary.fill_share", "share", Lower),
    layer("adversary.fills_per_round", "count", Lower),
    layer("adversary.links_per_round", "count", Lower),
    layer("graph.transpose_us", "us", Lower),
    layer("graph.transpose_share", "share", Lower),
    layer("graph.row_walk_ns_per_link", "ns", Lower),
    layer("graph.linkplane_kb", "KB", Lower),
    layer("graph.linkplane_begin_us", "us", Lower),
    layer("graph.window_slide_us", "us", Lower),
    layer("graph.checker_ms_per_run", "ms", Lower),
    layer("graph.checker_share", "share", Lower),
    layer("graph.lanelinks_fill_us", "us", Lower),
    layer("net.begin_round_us", "us", Lower),
    layer("net.port_of_ns", "ns", Lower),
    layer("net.codec_ns_per_msg", "ns", Lower),
    layer("net.deliveries_per_round", "count", Lower),
    layer("net.bits_per_delivery", "bits", Lower),
    layer("faults.fabricate_ns_per_link", "ns", Lower),
    layer("faults.fabricate_share", "share", Lower),
    layer("faults.churn_slice_us", "us", Lower),
    layer("trace.overhead_share", "share", Lower),
    layer("trace.replay_accounted_share", "share", Higher),
    layer("trace.replay_state_match", "share", Higher),
    layer("trace.spans_recorded", "count", Lower),
    layer("trace.replay_rounds", "count", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` at the repository root must list exactly these
    /// tables. (The file is outside this directory; only this test reads
    /// it, so the benchmark itself builds from its own directory alone.)
    #[test]
    fn benchmark_json_lists_these_tables() {
        let text = include_str!("../../../../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("paths").and_then(Json::as_arr).unwrap(),
            [Json::str("crates/bench/src/bin/ledger")]
        );
        let listed = |key: &str| -> Vec<Vec<(String, Json)>> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.as_obj().unwrap().to_vec())
                .collect()
        };
        let workloads = listed("workloads");
        let gated: Vec<_> = WORKLOADS.iter().filter(|w| w.gated).collect();
        assert_eq!(workloads.len(), gated.len());
        for (listed, w) in workloads.iter().zip(gated) {
            assert_eq!(listed[0], ("name".to_string(), Json::str(w.name)));
            assert_eq!(listed[1], ("why".to_string(), Json::str(w.why)));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        let table = |key: &str, metrics: &[Metric], bounded: bool| {
            let rows = listed(key);
            assert_eq!(rows.len(), metrics.len(), "{key}");
            for (row, m) in rows.iter().zip(metrics) {
                let mut expect = vec![
                    ("name".to_string(), Json::str(m.name)),
                    ("unit".to_string(), Json::str(m.unit)),
                    ("better".to_string(), Json::str(m.better.as_str())),
                ];
                if bounded {
                    expect.push(("bound".to_string(), Json::Num(m.bound)));
                    assert!(m.bound > 0.0 && m.bound <= 0.25);
                }
                assert_eq!(*row, expect, "{key}/{}", m.name);
                assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            }
        };
        table("end_to_end", &END_TO_END, true);
        table("per_layer", &PER_LAYER, false);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
