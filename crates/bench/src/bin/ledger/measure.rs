//! The measuring loop: cells, time boxes, and how a workload's end-to-end
//! numbers are assembled from them.
//!
//! A workload is one or more **cells** (phases): `sparse_scale` is
//! `rotating` then `staggered`, `service_churn` is `decide` then `abort`.
//! A cell runs **operations** — a consensus run to completion, a service
//! instance, a 64-trial lane word — back to back in a closed loop on one
//! driver thread until its share of the run's `--seconds` is spent. Only
//! the stepping inside an operation is timed; building the operation and
//! checking its result happen between timed sections.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use adn_net::Traffic;

use crate::json::Json;
use crate::spans::{Stage, Tracer};
use crate::stats::{stream_summary, Sample, Summary};
use crate::util::Digest;

/// Everything one cell accumulated over its time box.
#[derive(Debug, Default)]
pub struct CellStats {
    /// Timed sections in execution order.
    pub stream: Vec<Sample>,
    /// Operations attempted (runs, instances, lane trials).
    pub ops: u64,
    /// Operations whose result contradicted the workload's expectation.
    pub failed: u64,
    /// Simulated rounds executed by the attempted operations.
    pub rounds: u64,
    /// Operations that ended `AllOutput` with validity and ε-agreement.
    pub decisions: u64,
    pub deliveries: u64,
    pub messages: u64,
    pub bits: u64,
    pub digest: Digest,
    /// Rounds and decisions of the digested operations alone: a fixed
    /// prefix of the operation sequence, so their ratio is a simulated
    /// quantity that repeats bit-exactly whatever the host's speed.
    pub fixed_rounds: u64,
    pub fixed_decisions: u64,
    /// The first few failure descriptions, for the report.
    pub failures: Vec<String>,
}

impl CellStats {
    pub fn add_traffic(&mut self, traffic: &Traffic) {
        self.deliveries += traffic.deliveries();
        self.messages += traffic.messages();
        self.bits += traffic.bits();
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    /// Median host nanoseconds per simulated round.
    pub fn ns_per_round(&self) -> Summary {
        stream_summary(&self.stream)
    }
}

/// Where an operation records its timed sections: always into the cell's
/// sample stream, and — in a traced run — as spans too.
pub struct Recorder<'a> {
    pub stats: &'a mut CellStats,
    pub tracer: Option<&'a mut Tracer>,
    /// Whether this operation's results feed the cell's outcome digest.
    pub digesting: bool,
}

impl Recorder<'_> {
    /// Runs `call` as one timed section and returns its result and
    /// duration. The caller pushes the sample once it knows how many
    /// rounds the section covered.
    pub fn time<T>(&mut self, stage: Stage, call: impl FnOnce() -> T) -> (T, u64) {
        match self.tracer.as_deref_mut() {
            Some(tr) => {
                tr.enter(stage);
                let out = call();
                (out, tr.exit())
            }
            None => {
                let started = Instant::now();
                let out = call();
                (out, started.elapsed().as_nanos() as u64)
            }
        }
    }

    /// Runs `call` untimed; a traced run still records it as a span.
    pub fn untimed<T>(&mut self, stage: Stage, call: impl FnOnce() -> T) -> T {
        match self.tracer.as_deref_mut() {
            Some(tr) => tr.span(stage, call),
            None => call(),
        }
    }

    pub fn sample(&mut self, ns: u64, units: u64) {
        self.stats.stream.push(Sample { ns, units });
    }

    pub fn begin_op(&mut self) {
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.next_op();
        }
    }
}

/// Per-layer numbers of one cell; a metric is absent where the layer is
/// not on the cell's execution path.
pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// One phase of a workload. Constructing the cell is part of set-up.
pub trait Cell {
    fn name(&self) -> &'static str;

    /// The cell's share of the run's measuring time (shares sum to 1).
    fn weight(&self) -> f64;

    /// How many leading operations feed the outcome digest: few enough
    /// that every run completes them whatever the host's speed.
    fn digest_ops(&self) -> u64;

    /// Operations of the set-up's warm-up pass: a fixed amount of work
    /// (not of time), so `setup_s` moves when building or first-touch
    /// costs move.
    fn warm_ops(&self) -> u64;

    /// Runs operation `index`. Inputs derive from the cell's seed and
    /// `index` only, so operation `index` is the same in every run.
    fn run_op(&mut self, index: u64, rec: &mut Recorder<'_>);

    /// The traced run's stage replay and layer probes, for about `budget`
    /// of host time: returns the per-layer numbers of this cell and
    /// whether every replayed state matched its `Simulation` twin.
    fn trace_layers(&mut self, budget: Duration, tr: &mut Tracer) -> (LayerMetrics, bool);
}

/// Runs `cell`'s operations from `first` for `budget` of host time (at
/// least `min_ops`), returning the index after the last one.
pub fn run_box(
    cell: &mut dyn Cell,
    first: u64,
    budget: Duration,
    min_ops: u64,
    digesting: bool,
    stats: &mut CellStats,
    mut tracer: Option<&mut Tracer>,
) -> u64 {
    let started = Instant::now();
    let mut index = first;
    while index - first < min_ops || started.elapsed() < budget {
        let mut rec = Recorder {
            stats: &mut *stats,
            tracer: tracer.as_deref_mut(),
            digesting: digesting && index < cell.digest_ops(),
        };
        rec.begin_op();
        cell.run_op(index, &mut rec);
        index += 1;
    }
    index
}

/// Time slices a run's measuring time is cut into. The cells take turns,
/// one slice each per turn, so every cell samples the host's speed over
/// the whole run instead of over its own few seconds of it.
pub const SLICES: u32 = 8;

/// Runs every cell for its share of `seconds`, interleaved in
/// [`SLICES`] turns; the first turn also completes each cell's digested
/// operations. Fills one [`CellStats`] per cell.
pub fn run_interleaved(cells: &mut [Box<dyn Cell>], seconds: f64, stats: &mut [CellStats]) {
    let mut next = vec![0; cells.len()];
    for turn in 0..SLICES {
        for (i, cell) in cells.iter_mut().enumerate() {
            let slice = Duration::from_secs_f64(seconds * cell.weight() / f64::from(SLICES));
            let min_ops = if turn == 0 { cell.digest_ops() } else { 1 };
            next[i] = run_box(
                cell.as_mut(),
                next[i],
                slice,
                min_ops,
                true,
                &mut stats[i],
                None,
            );
        }
    }
}

/// One cell's contribution to the workload's end-to-end numbers.
#[derive(Debug)]
pub struct CellReport {
    pub name: &'static str,
    pub weight: f64,
    pub stats: CellStats,
}

/// The end-to-end rates of a workload, assembled from its cells as a
/// fixed-share schedule: cell `c` owns share `w_c` of every host second,
/// during which it executes `1 / ns_per_round_c` rounds per nanosecond and
/// — from the exact simulated counts of its completed operations —
/// `decisions_c / rounds_c` decisions and `deliveries_c / rounds_c`
/// deliveries per round. The shares are constants of the benchmark, not
/// measurements, so a faster phase cannot buy itself a bigger weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub rounds_per_s: f64,
    pub decisions_per_s: f64,
    pub ns_per_delivery: f64,
    pub rounds_per_decision: f64,
}

pub fn end_to_end(cells: &[CellReport]) -> EndToEnd {
    let (mut rounds_s, mut decisions_s, mut deliveries_s) = (0.0, 0.0, 0.0);
    let (mut rounds, mut decisions) = (0u64, 0u64);
    for c in cells {
        rounds += c.stats.fixed_rounds;
        decisions += c.stats.fixed_decisions;
        let ns = c.stats.ns_per_round().median;
        if ns <= 0.0 || c.stats.rounds == 0 {
            continue;
        }
        let per_s = c.weight * 1e9 / ns;
        let r = c.stats.rounds as f64;
        rounds_s += per_s;
        decisions_s += per_s * c.stats.decisions as f64 / r;
        deliveries_s += per_s * c.stats.deliveries as f64 / r;
    }
    EndToEnd {
        rounds_per_s: rounds_s,
        decisions_per_s: decisions_s,
        ns_per_delivery: if deliveries_s > 0.0 {
            1e9 / deliveries_s
        } else {
            0.0
        },
        rounds_per_decision: if decisions > 0 {
            rounds as f64 / decisions as f64
        } else {
            0.0
        },
    }
}

/// Folds the cells' digests into the workload's, in cell order.
pub fn workload_digest(cells: &[CellReport]) -> Digest {
    let mut d = Digest::default();
    for c in cells {
        d.u64(c.stats.digest.value());
    }
    d
}

/// A weight-averaged per-layer metric over the cells it applies to
/// (0 when it applies to none).
pub fn combine_layers(cells: &[(f64, LayerMetrics)], name: &str) -> f64 {
    let (mut sum, mut weight) = (0.0, 0.0);
    for (w, metrics) in cells {
        if let Some(v) = metrics.get(name) {
            sum += w * v;
            weight += w;
        }
    }
    if weight > 0.0 {
        sum / weight
    } else {
        0.0
    }
}

pub fn summary_json(s: &Summary) -> Json {
    Json::obj([
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("samples", Json::Num(s.n as f64)),
    ])
}

pub fn cell_json(c: &CellReport) -> Json {
    let s = &c.stats;
    Json::obj([
        ("name", Json::str(c.name)),
        ("weight", Json::Num(c.weight)),
        ("ns_per_round", summary_json(&s.ns_per_round())),
        ("timed_sections", Json::Num(s.stream.len() as f64)),
        ("ops", Json::Num(s.ops as f64)),
        ("failed", Json::Num(s.failed as f64)),
        ("rounds", Json::Num(s.rounds as f64)),
        ("decisions", Json::Num(s.decisions as f64)),
        ("deliveries", Json::Num(s.deliveries as f64)),
        ("messages", Json::Num(s.messages as f64)),
        ("bits", Json::Num(s.bits as f64)),
        ("digest", Json::str(s.digest.hex())),
        ("digested_rounds", Json::Num(s.fixed_rounds as f64)),
        ("digested_decisions", Json::Num(s.fixed_decisions as f64)),
        (
            "failures",
            Json::Arr(s.failures.iter().map(Json::str).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(weight: f64, ns: u64, rounds: u64, decisions: u64, deliveries: u64) -> CellReport {
        CellReport {
            name: "c",
            weight,
            stats: CellStats {
                stream: (0..rounds).map(|_| Sample { ns, units: 1 }).collect(),
                rounds,
                decisions,
                deliveries,
                fixed_rounds: rounds.min(40),
                fixed_decisions: decisions.min(4),
                ..CellStats::default()
            },
        }
    }

    #[test]
    fn end_to_end_is_a_fixed_share_schedule() {
        // One cell: 1000 ns rounds, 10 rounds per decision, 100 deliveries
        // per round.
        let one = end_to_end(&[cell(1.0, 1000, 50, 5, 5000)]);
        assert!((one.rounds_per_s - 1e6).abs() < 1e-6);
        assert!((one.decisions_per_s - 1e5).abs() < 1e-6);
        assert!((one.ns_per_delivery - 10.0).abs() < 1e-9);
        assert_eq!(one.rounds_per_decision, 10.0);
        // Two cells at half a second each; the second never decides.
        let two = end_to_end(&[cell(0.5, 1000, 50, 5, 5000), cell(0.5, 2000, 40, 0, 4000)]);
        assert!((two.rounds_per_s - 750_000.0).abs() < 1e-6);
        assert!((two.decisions_per_s - 50_000.0).abs() < 1e-6);
        assert!((two.ns_per_delivery - 1e9 / 75e6).abs() < 1e-9);
        assert_eq!(two.rounds_per_decision, 20.0);
        // How many operations fit the box does not move the rates.
        let longer = end_to_end(&[cell(1.0, 1000, 500, 50, 50_000)]);
        assert_eq!(longer, one);
        // ... nor the simulated rounds per decision, taken over the fixed
        // digested prefix (here 40 rounds, 4 decisions).
        assert_eq!(longer.rounds_per_decision, 10.0);
    }

    #[test]
    fn layers_average_over_the_cells_they_apply_to() {
        let a: LayerMetrics = [("x", 2.0), ("y", 10.0)].into_iter().collect();
        let b: LayerMetrics = [("x", 4.0)].into_iter().collect();
        let cells = [(0.25, a), (0.75, b)];
        assert_eq!(combine_layers(&cells, "x"), 3.5);
        assert_eq!(combine_layers(&cells, "y"), 10.0);
        assert_eq!(combine_layers(&cells, "z"), 0.0);
    }

    #[test]
    fn failures_are_counted_and_capped_in_the_report() {
        let mut s = CellStats::default();
        for i in 0..9 {
            s.fail(format!("op {i}"));
        }
        assert_eq!(s.failed, 9);
        assert_eq!(s.failures.len(), 5);
    }
}
