//! In-memory spans and counts around every call the benchmark makes into
//! a layer. Spans are recorded from these files only — the program under
//! test is not instrumented — kept in memory, and written out when the
//! traced run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// A layer boundary the benchmark times. The dotted name's prefix is the
/// crate the timed call lives in (`bench` for the benchmark's own copy of
/// engine glue, which `adn-sim` executes inside `Simulation::step`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// `SimBuilder::build` / `ServiceRun::new` / `LaneRun::try_new`.
    SimBuild,
    /// `Simulation::step`.
    SimStep,
    /// `ServiceRun::run_instance`.
    SimInstance,
    /// `LaneRun::step`.
    SimLaneStep,
    /// `scalar_lane_outcome` on the lane word's fixed trial subset.
    SimScalarTrial,
    /// One replayed round: parent of the stage spans below.
    ReplayRound,
    /// `RoundBuffers::begin_round`.
    NetBeginRound,
    /// `Adversary::edges_into` / `sparse_into`.
    AdversaryFill,
    /// `LinkPlane::begin_round`.
    GraphLinkplaneBegin,
    /// `EdgeSet::transpose_into` (through `RoundBuffers::transpose_chosen`).
    GraphTranspose,
    /// `LinkPlane::for_each_in` over one receiver's row on the sparse
    /// path, including the per-link `port_of` and batch push it drives.
    GraphRowWalk,
    /// `Algorithm::broadcast_into` over all transmitting nodes (trait path).
    CoreBroadcast,
    /// `deliver_from_sender` / `receive_many` / `receive` /
    /// `Algorithm::receive`.
    CoreDeliver,
    /// `ByzantineStrategy::messages_into`.
    FaultsFabricate,
    /// `AlgorithmPlane::end_round` / `Algorithm::end_round` /
    /// `LanePlane::end_round`.
    CoreEndRound,
    /// One service instance turnover: parent of the slice, fill and reset
    /// spans below.
    SimTurnover,
    /// `ChurnPlan::slice_into`.
    FaultsChurnSlice,
    /// `InputStream::fill`.
    SimInputFill,
    /// `AlgorithmPlane::reset_instance`.
    CoreResetInstance,
    /// `WindowUnion::push_rows` + `pop_rows`.
    GraphWindowSlide,
    /// `LaneLinks::clear` + `or_edgeset`.
    GraphLanelinksFill,
    /// `LanePlane::begin_round` (the wire snapshot).
    CoreLaneBegin,
    /// `LanePlane::deliver_link` over one receiver's row.
    CoreLaneDeliver,
    /// `checker::max_dyna_degree` on a recorded schedule.
    GraphChecker,
}

impl Stage {
    pub fn name(self) -> &'static str {
        match self {
            Stage::SimBuild => "sim.build",
            Stage::SimStep => "sim.step",
            Stage::SimInstance => "sim.run_instance",
            Stage::SimLaneStep => "sim.lane_step",
            Stage::SimScalarTrial => "sim.scalar_trial",
            Stage::ReplayRound => "bench.replay_round",
            Stage::NetBeginRound => "net.begin_round",
            Stage::AdversaryFill => "adversary.fill",
            Stage::GraphLinkplaneBegin => "graph.linkplane_begin",
            Stage::GraphTranspose => "graph.transpose",
            Stage::GraphRowWalk => "graph.row_walk",
            Stage::CoreBroadcast => "core.broadcast",
            Stage::CoreDeliver => "core.deliver",
            Stage::FaultsFabricate => "faults.fabricate",
            Stage::CoreEndRound => "core.end_round",
            Stage::SimTurnover => "sim.service_turnover",
            Stage::FaultsChurnSlice => "faults.churn_slice",
            Stage::SimInputFill => "sim.input_fill",
            Stage::CoreResetInstance => "core.reset_instance",
            Stage::GraphWindowSlide => "graph.window_slide",
            Stage::GraphLanelinksFill => "graph.lanelinks_fill",
            Stage::CoreLaneBegin => "core.lane_begin",
            Stage::CoreLaneDeliver => "core.lane_deliver",
            Stage::GraphChecker => "graph.checker",
        }
    }
}

/// One recorded span. `parent` is the index of the span that was open
/// when this one started (`u32::MAX` at the root); `op` is shared by all
/// spans of one operation.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub stage: Stage,
    pub parent: u32,
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Count, total and self time of one stage over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTotal {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part covered by child spans.
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    counts: BTreeMap<&'static str, u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next operation: spans recorded from here share its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, stage: Stage) {
        let parent = self.open.last().copied().unwrap_or(u32::MAX);
        let start_ns = self.now();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            stage,
            parent,
            op: self.op,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span and returns its duration.
    pub fn exit(&mut self) -> u64 {
        let idx = self.open.pop().expect("exit without a matching enter") as usize;
        let end_ns = self.now();
        self.spans[idx].end_ns = end_ns;
        end_ns - self.spans[idx].start_ns
    }

    /// Times one call into a layer as a leaf span.
    pub fn span<T>(&mut self, stage: Stage, call: impl FnOnce() -> T) -> T {
        self.enter(stage);
        let out = call();
        self.exit();
        out
    }

    /// Adds `by` to a count taken at a layer boundary.
    pub fn count(&mut self, name: &'static str, by: u64) {
        *self.counts.entry(name).or_insert(0) += by;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every closed span of `stage`, in recording order.
    pub fn durations(&self, stage: Stage) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Per-stage count, total time, and self time (a span's duration minus
    /// the part of it its child spans cover).
    pub fn totals(&self) -> BTreeMap<Stage, StageTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != u32::MAX {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<Stage, StageTotal> = BTreeMap::new();
        for (s, &covered) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.stage).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(covered);
        }
        out
    }

    /// The trace as JSON: per-stage totals, counts, and the first
    /// `max_raw` raw spans (a long run records millions; the file keeps a
    /// readable prefix and says how many there were).
    pub fn to_json(&self, max_raw: usize) -> Json {
        let stages = self
            .totals()
            .into_iter()
            .map(|(stage, t)| {
                Json::obj([
                    ("name", Json::str(stage.name())),
                    ("count", Json::Num(t.count as f64)),
                    ("total_ns", Json::Num(t.total_ns as f64)),
                    ("self_ns", Json::Num(t.self_ns as f64)),
                ])
            })
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|(k, v)| (*k, Json::Num(*v as f64)))
            .collect::<Vec<_>>();
        let raw = self
            .spans
            .iter()
            .take(max_raw)
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.stage.name())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        if s.parent == u32::MAX {
                            Json::Null
                        } else {
                            Json::Num(f64::from(s.parent))
                        },
                    ),
                    ("op", Json::Num(f64::from(s.op))),
                ])
            })
            .collect();
        Json::obj([
            ("stages", Json::Arr(stages)),
            ("counts", Json::obj(counts)),
            ("spans_recorded", Json::Num(self.spans.len() as f64)),
            ("spans", Json::Arr(raw)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_parents_link_up() {
        let mut t = Tracer::default();
        t.next_op();
        t.enter(Stage::ReplayRound);
        t.span(Stage::AdversaryFill, || std::hint::black_box(1 + 1));
        t.enter(Stage::CoreDeliver);
        t.exit();
        let whole = t.exit();
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[0].parent, u32::MAX);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[2].parent, 0);
        assert!(t
            .spans()
            .iter()
            .all(|s| s.op == 1 && s.end_ns >= s.start_ns));
        let totals = t.totals();
        let round = totals[&Stage::ReplayRound];
        let kids = totals[&Stage::AdversaryFill].total_ns + totals[&Stage::CoreDeliver].total_ns;
        assert_eq!(round.total_ns, whole);
        assert_eq!(round.self_ns, whole - kids);
        assert_eq!(totals[&Stage::AdversaryFill].count, 1);
        assert_eq!(t.durations(Stage::CoreDeliver).len(), 1);
    }

    #[test]
    fn counts_accumulate_and_json_caps_raw_spans() {
        let mut t = Tracer::default();
        t.count("deliveries", 5);
        t.count("deliveries", 7);
        assert_eq!(t.counter("deliveries"), 12);
        assert_eq!(t.counter("absent"), 0);
        for _ in 0..5 {
            t.span(Stage::SimStep, || ());
        }
        let j = t.to_json(2);
        assert_eq!(j.get("spans").and_then(Json::as_arr).unwrap().len(), 2);
        assert_eq!(j.get("spans_recorded").and_then(Json::as_f64), Some(5.0));
        assert_eq!(
            j.get("counts")
                .and_then(|c| c.get("deliveries"))
                .and_then(Json::as_f64),
            Some(12.0)
        );
    }
}
