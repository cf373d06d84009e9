//! One benchmark run of one workload: set-up, the measuring boxes, the
//! metrics, and the result lines.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use adn_bench::harness::peak_rss_bytes;

use crate::json::Json;
use crate::layers::op_metrics;
use crate::measure::{
    cell_json, combine_layers, end_to_end, run_box, run_interleaved, summary_json, workload_digest,
    Cell, CellReport, CellStats, LayerMetrics,
};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::Tracer;
use crate::stats::Summary;
use crate::util::env_stamp;
use crate::workloads::{self, Size};

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// What a run prints: the detailed record (environment, cells, quartiles,
/// sample counts) and the one-line result the driver reads.
#[derive(Debug)]
pub struct RunOutput {
    pub detail: Json,
    pub result: Json,
    pub correct: bool,
}

type Cells = Vec<Box<dyn Cell>>;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Warm-up operations use their own index range.
const WARM_OPS: u64 = 1 << 41;

/// The pinned reference results of the default seed.
const BASELINE: &str = include_str!("baseline.json");

/// Builds the workload's cells and runs the warm-up pass `reps` times; returns the last set of cells (pages touched, lazy tables
/// built) and the set-up times in seconds.
fn set_up(args: &RunArgs, reps: usize) -> Result<(Cells, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for rep in 0..reps {
        let started = Instant::now();
        let mut cells = workloads::cells(&args.workload, args.seed, args.size)
            .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
        for cell in &mut cells {
            let mut scratch = CellStats::default();
            let warm_ops = cell.warm_ops();
            run_box(
                cell.as_mut(),
                WARM_OPS + rep as u64 * 4096,
                Duration::ZERO,
                warm_ops,
                false,
                &mut scratch,
                None,
            );
        }
        times.push(started.elapsed().as_secs_f64());
        kept = Some(cells);
    }
    Ok((kept.expect("at least one set-up"), times))
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The pinned reference results (`baseline.json`).
pub fn baseline() -> Option<Json> {
    Json::parse(BASELINE).ok()
}

/// The digest and rounds-per-decision pinned for `workload`, when this run
/// used the pinned seed at full size.
fn pinned(args: &RunArgs) -> Option<(String, f64)> {
    let doc = baseline()?;
    if args.size != Size::Full || doc.get("seed")?.as_f64()? != args.seed as f64 {
        return None;
    }
    let w = doc.get("workloads")?.get(&args.workload)?;
    Some((
        w.get("digest")?.as_str()?.to_string(),
        w.get("rounds_per_decision")?.as_f64()?,
    ))
}

fn base_detail(args: &RunArgs) -> Vec<(&'static str, Json)> {
    vec![
        ("ledger", Json::str("run")),
        ("workload", Json::str(args.workload.as_str())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Num(f64::from(u8::from(args.trace)))),
        ("smoke", Json::Bool(args.size == Size::Smoke)),
        ("env", env_stamp()),
    ]
}

fn finish(
    mut detail: Vec<(&'static str, Json)>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, Json)>,
) -> RunOutput {
    let correct = failed == 0 && attempted > 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    detail.push(("result", result.clone()));
    RunOutput {
        detail: Json::obj(detail),
        result,
        correct,
    }
}

/// The untraced run: end-to-end metrics.
pub fn run_end_to_end(args: &RunArgs) -> Result<RunOutput, String> {
    let (mut cells, setup_times) = set_up(args, SETUP_REPS)?;
    let mut stats: Vec<CellStats> = cells.iter().map(|_| CellStats::default()).collect();
    run_interleaved(&mut cells, args.seconds, &mut stats);
    let reports: Vec<CellReport> = cells
        .iter()
        .zip(stats)
        .map(|(cell, stats)| CellReport {
            name: cell.name(),
            weight: cell.weight(),
            stats,
        })
        .collect();
    drop(cells);

    let e2e = end_to_end(&reports);
    let setup = Summary::of(&setup_times);
    let peak_mb = peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0));
    let digest = workload_digest(&reports).hex();
    let attempted: u64 = reports.iter().map(|c| c.stats.ops).sum();
    let mut failed: u64 = reports.iter().map(|c| c.stats.failed).sum();

    let mut detail = base_detail(args);
    detail.push(("digest", Json::str(digest.as_str())));
    detail.push(("rounds_per_decision", Json::Num(e2e.rounds_per_decision)));
    if let Some((want_digest, want_rpd)) = pinned(args) {
        let ok = want_digest == digest && want_rpd == e2e.rounds_per_decision;
        detail.push(("pinned_digest", Json::str(want_digest)));
        detail.push(("pinned_ok", Json::Bool(ok)));
        // A moved digest is one failed operation: some run's observable
        // result changed.
        failed += u64::from(!ok);
    }
    detail.push(("setup_s", summary_json(&setup)));
    detail.push(("cells", Json::Arr(reports.iter().map(cell_json).collect())));

    let values = [
        setup.median,
        e2e.rounds_per_s,
        e2e.decisions_per_s,
        e2e.ns_per_delivery,
        peak_mb,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, metric_json(v, m.unit)))
        .collect();
    Ok(finish(detail, attempted, failed, metrics))
}

/// Where the ledger leaves its files (span traces, `all` records): under
/// the cargo target directory, which is inside the checkout and ignored by
/// git.
pub fn output_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("ledger")
}

/// The traced run: per-layer metrics. Each cell's box is split into an
/// untraced slice and a spanned slice of the same operations (their
/// difference is the tracing overhead) and the stage replay with its
/// layer probes.
pub fn run_traced(args: &RunArgs) -> Result<RunOutput, String> {
    let (mut cells, _) = set_up(args, 1)?;
    let mut per_cell: Vec<(f64, LayerMetrics)> = Vec::with_capacity(cells.len());
    let mut cell_docs = Vec::with_capacity(cells.len());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut spans_recorded, mut replay_rounds) = (0u64, 0u64);
    let (mut fixed_rounds, mut fixed_decisions) = (0u64, 0u64);
    for cell in &mut cells {
        let share = Duration::from_secs_f64(args.seconds * cell.weight());
        let digest_ops = cell.digest_ops();
        let mut plain = CellStats::default();
        let next = run_box(
            cell.as_mut(),
            0,
            share.mul_f64(0.15),
            digest_ops,
            true,
            &mut plain,
            None,
        );
        let mut spanned = CellStats::default();
        let mut ops_trace = Tracer::default();
        run_box(
            cell.as_mut(),
            next,
            share.mul_f64(0.15),
            1,
            false,
            &mut spanned,
            Some(&mut ops_trace),
        );
        let mut replay_trace = Tracer::default();
        let (mut metrics, state_match) = cell.trace_layers(share.mul_f64(0.7), &mut replay_trace);
        metrics.extend(op_metrics(&ops_trace));
        let (plain_ns, spanned_ns) = (plain.ns_per_round().median, spanned.ns_per_round().median);
        if plain_ns > 0.0 {
            metrics.insert("trace.overhead_share", spanned_ns / plain_ns - 1.0);
        }
        metrics.insert("trace.replay_state_match", f64::from(u8::from(state_match)));

        attempted += plain.ops + spanned.ops + 1;
        failed += plain.failed + spanned.failed + u64::from(!state_match);
        fixed_rounds += plain.fixed_rounds;
        fixed_decisions += plain.fixed_decisions;
        spans_recorded += (ops_trace.spans().len() + replay_trace.spans().len()) as u64;
        replay_rounds += replay_trace
            .totals()
            .get(&crate::spans::Stage::ReplayRound)
            .map_or(0, |t| t.count);
        let mut failures = plain.failures;
        failures.extend(spanned.failures);
        cell_docs.push(Json::obj([
            ("name", Json::str(cell.name())),
            ("weight", Json::Num(cell.weight())),
            ("state_match", Json::Bool(state_match)),
            (
                "metrics",
                Json::obj(metrics.iter().map(|(k, v)| (*k, Json::Num(*v)))),
            ),
            (
                "failures",
                Json::Arr(failures.iter().map(Json::str).collect()),
            ),
            ("ops_trace", ops_trace.to_json(500)),
            ("replay_trace", replay_trace.to_json(2000)),
        ]));
        per_cell.push((cell.weight(), metrics));
    }
    drop(cells);

    let mut values: BTreeMap<&'static str, f64> = PER_LAYER
        .iter()
        .map(|m| (m.name, combine_layers(&per_cell, m.name)))
        .collect();
    // Counts and the conjunction of the state matches are not averages.
    values.insert("trace.spans_recorded", spans_recorded as f64);
    values.insert("trace.replay_rounds", replay_rounds as f64);
    let all_match = per_cell
        .iter()
        .all(|(_, m)| m.get("trace.replay_state_match") == Some(&1.0));
    values.insert("trace.replay_state_match", f64::from(u8::from(all_match)));
    if fixed_decisions > 0 {
        values.insert(
            "sim.rounds_per_decision",
            fixed_rounds as f64 / fixed_decisions as f64,
        );
    }
    let metrics: Vec<(&'static str, Json)> = PER_LAYER
        .iter()
        .map(|m| (m.name, metric_json(values[m.name], m.unit)))
        .collect();

    let mut detail = base_detail(args);
    detail.push(("cells", Json::Arr(cell_docs)));
    Ok(finish(detail, attempted, failed, metrics))
}

/// Writes a traced run's full record (spans included) under the cargo
/// target directory; a failure to write is reported, not fatal.
pub fn write_trace(workload: &str, out: &RunOutput) {
    let path = output_dir().join(format!("trace-{workload}.json"));
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, out.detail.render_pretty()));
    match written {
        Ok(()) => eprintln!("ledger: spans written to {}", path.display()),
        Err(e) => eprintln!("ledger: could not write {}: {e}", path.display()),
    }
}

pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    if args.trace {
        run_traced(args)
    } else {
        run_end_to_end(args)
    }
}

/// The detail record without the bulky raw spans, for the `all` file.
pub fn slim_detail(detail: &Json) -> Json {
    match detail {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| k != "ops_trace" && k != "replay_trace")
                .map(|(k, v)| (k.clone(), slim_detail(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(slim_detail).collect()),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// A `--smoke` run: n ≤ 64, a few hundredths of a second per workload.
    fn smoke(workload: &str, trace: bool) -> RunOutput {
        run(&RunArgs {
            workload: workload.to_string(),
            seed: 3,
            seconds: 0.04,
            trace,
            size: Size::Smoke,
        })
        .expect("known workload")
    }

    fn metric(out: &RunOutput, name: &str) -> f64 {
        out.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{name} missing"))
    }

    fn digest(out: &RunOutput) -> String {
        out.detail
            .get("digest")
            .and_then(Json::as_str)
            .expect("digest")
            .to_string()
    }

    #[test]
    fn smoke_runs_every_workload_with_every_end_to_end_metric() {
        for workload in WORKLOADS.map(|w| w.name) {
            let out = smoke(workload, false);
            assert!(out.correct, "{workload}: {}", out.detail.render());
            let keys: Vec<&str> = out
                .result
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            for m in END_TO_END {
                assert!(metric(&out, m.name) > 0.0, "{workload}/{}", m.name);
            }
            assert!(out.detail.get("env").and_then(|e| e.get("cores")).is_some());
        }
    }

    #[test]
    fn digests_and_rounds_per_decision_repeat_and_sharded_equals_unsharded() {
        let rpd = |out: &RunOutput| {
            out.detail
                .get("rounds_per_decision")
                .and_then(Json::as_f64)
                .expect("rounds_per_decision")
        };
        for workload in WORKLOADS.map(|w| w.name) {
            let (a, b) = (smoke(workload, false), smoke(workload, false));
            assert_eq!(digest(&a), digest(&b), "{workload}");
            assert_eq!(rpd(&a).to_bits(), rpd(&b).to_bits(), "{workload}");
            assert!(rpd(&a) > 0.0);
        }
        assert_eq!(
            digest(&smoke("sparse_scale", false)),
            digest(&smoke("sparse_sharded", false))
        );
        assert_ne!(
            digest(&smoke("dac_dense", false)),
            digest(&smoke("dbac_byz", false))
        );
    }

    #[test]
    fn traced_smoke_replays_match_and_emit_every_layer_metric() {
        // Which metrics each workload's path must light up.
        let expect: [(&str, &[&str]); 7] = [
            (
                "dac_dense",
                &[
                    "sim.step_ms_p50",
                    "core.deliver_share",
                    "graph.transpose_us",
                ],
            ),
            (
                "dbac_byz",
                &["faults.fabricate_ns_per_link", "faults.fabricate_share"],
            ),
            (
                "trait_gallery",
                &[
                    "graph.checker_ms_per_run",
                    "net.codec_ns_per_msg",
                    "adversary.fill_share",
                ],
            ),
            (
                "sparse_scale",
                &[
                    "graph.row_walk_ns_per_link",
                    "graph.linkplane_kb",
                    "graph.linkplane_begin_us",
                    "sim.shard_speedup",
                ],
            ),
            ("sparse_sharded", &["sim.shard_speedup"]),
            (
                "service_churn",
                &[
                    "sim.instance_ms_p50",
                    "sim.service_turnover_us",
                    "core.reset_instance_us",
                    "graph.window_slide_us",
                    "faults.churn_slice_us",
                ],
            ),
            (
                "lanes_mc",
                &[
                    "sim.lane_step_us_p50",
                    "sim.lane_occupancy",
                    "sim.lane_speedup.shared",
                    "sim.lane_speedup.perlane",
                    "core.lane_deliver_ns_per_link",
                    "graph.lanelinks_fill_us",
                ],
            ),
        ];
        for (workload, lit) in expect {
            let out = smoke(workload, true);
            assert!(
                out.correct,
                "{workload}: {}",
                slim_detail(&out.detail).render()
            );
            for m in PER_LAYER {
                metric(&out, m.name); // every per-layer metric is present
            }
            assert_eq!(metric(&out, "trace.replay_state_match"), 1.0, "{workload}");
            assert!(metric(&out, "trace.replay_rounds") > 0.0);
            assert!(metric(&out, "trace.replay_accounted_share") > 0.0);
            assert!(metric(&out, "sim.rounds_per_decision") > 0.0);
            assert!(metric(&out, "net.port_of_ns") > 0.0);
            for name in lit {
                assert!(metric(&out, name) > 0.0, "{workload}/{name}");
            }
        }
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let args = RunArgs {
            workload: "nope".to_string(),
            seed: 1,
            seconds: 0.01,
            trace: false,
            size: Size::Smoke,
        };
        assert!(run(&args).is_err());
    }
}
