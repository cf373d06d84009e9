//! Cells whose operation is one standalone `Simulation` run to
//! completion: `dac_dense`, `dbac_byz`, the five `trait_gallery` cells,
//! and both phases of `sparse_scale` / `sparse_sharded`.

use std::time::{Duration, Instant};

use adn_graph::checker;
use adn_net::codec::Precision;
use adn_sim::StopReason;

use super::Size;
use crate::layers::{probe_codec, probe_port_of, replay_metrics};
use crate::measure::{Cell, LayerMetrics, Recorder};
use crate::replay::replay_against_twin;
use crate::spans::{Stage, Tracer};
use crate::spec::{Algo, RunSpec};
use crate::stats::Summary;
use crate::util::derive;

/// Which execution path a cell's runs must engage; a run that resolves to
/// another path is a failed operation, not a silently different number.
#[derive(Debug, Clone, Copy)]
pub struct Path {
    pub plane: bool,
    pub sparse: bool,
    pub shards: usize,
}

pub struct StandaloneCell {
    pub name: &'static str,
    pub weight: f64,
    pub digest_ops: u64,
    /// Runs of the set-up's warm-up pass at full size (one at smoke size).
    pub warm_ops: u64,
    pub seed: u64,
    pub size: Size,
    /// The run for operation `index` with operation seed `seed`.
    pub make: fn(seed: u64, index: u64, size: Size) -> RunSpec,
    pub path: Path,
    /// `Some(T)`: after the run, read the recorded schedule's realized
    /// `T`-window dynaDegree with `checker::max_dyna_degree` — timed, as
    /// part of what a `run → Outcome → checker` user waits for. The degree
    /// joins the outcome digest (under mid-window crashes it legitimately
    /// dips below the adversary's aligned-window guarantee, so there is no
    /// threshold to hold it to).
    pub checker_window: Option<usize>,
    /// Rounds replayed per stage-replay pass.
    pub replay_rounds: u64,
}

impl StandaloneCell {
    fn spec(&self, index: u64) -> RunSpec {
        (self.make)(derive(self.seed, &[index]), index, self.size)
    }

    /// Median round time of whole runs on one shard divided by the same
    /// runs' on two (base: one shard; below 1 the sharded run is slower),
    /// alternated run by run so both see the same host conditions — and
    /// whether every two-shard run ended in its one-shard twin's outcome.
    /// Whole runs on fresh inputs, not a few rounds of one: the two-shard
    /// time depends on what else the host's cores are doing and switches
    /// regime over seconds, so a short probe reads one regime's draw.
    fn shard_speedup(&self, budget: Duration) -> (f64, bool) {
        let started = Instant::now();
        let mut times = [Vec::new(), Vec::new()];
        let mut same_outcome = true;
        let mut pass = 0u64;
        while pass == 0 || started.elapsed() < budget {
            let spec = self.spec(super::TRACE_OPS + pass);
            let mut outcomes = Vec::with_capacity(2);
            for (shards, out) in [1, 2].into_iter().zip(&mut times) {
                let mut sim = RunSpec { shards, ..spec }.builder().build();
                while sim.stopped().is_none() {
                    let t = Instant::now();
                    sim.step();
                    out.push(t.elapsed().as_nanos() as f64);
                }
                let outcome = sim.finish();
                outcomes.push((
                    outcome.rounds(),
                    outcome.reason(),
                    outcome.honest_outputs(),
                    outcome.traffic(),
                ));
            }
            same_outcome &= outcomes[0] == outcomes[1];
            pass += 1;
        }
        let [single, sharded] = times.map(|t| Summary::of(&t).median);
        (single / sharded, same_outcome)
    }
}

impl Cell for StandaloneCell {
    fn name(&self) -> &'static str {
        self.name
    }

    fn weight(&self) -> f64 {
        self.weight
    }

    fn digest_ops(&self) -> u64 {
        self.digest_ops
    }

    fn warm_ops(&self) -> u64 {
        match self.size {
            Size::Full => self.warm_ops,
            Size::Smoke => 1,
        }
    }

    fn run_op(&mut self, index: u64, rec: &mut Recorder<'_>) {
        let spec = self.spec(index);
        let mut sim = rec.untimed(Stage::SimBuild, || spec.builder().build());
        let engaged = sim.uses_plane() == self.path.plane
            && sim.uses_sparse_links() == self.path.sparse
            && sim.shards() == self.path.shards;
        while sim.stopped().is_none() {
            let before = sim.round();
            let ((), ns) = rec.time(Stage::SimStep, || sim.step());
            rec.sample(ns, u64::from(sim.round() > before));
        }
        let outcome = sim.finish();
        let mut realized_degree = None;
        if let Some(window) = self.checker_window {
            let faulty = outcome.faulty_ids();
            let (degree, ns) = rec.time(Stage::GraphChecker, || {
                checker::max_dyna_degree(outcome.schedule(), window, &faulty)
            });
            rec.sample(ns, 0);
            realized_degree = degree;
        }
        let degree_ok = self.checker_window.is_none() || realized_degree.is_some();

        let decided = outcome.reason() == StopReason::AllOutput
            && outcome.validity()
            && outcome.eps_agreement(spec.eps);
        let stats = &mut *rec.stats;
        stats.ops += 1;
        stats.rounds += outcome.rounds();
        stats.decisions += u64::from(decided);
        stats.add_traffic(&outcome.traffic());
        if !(decided && engaged && degree_ok) {
            stats.fail(format!(
                "{} op {index}: reason={:?} validity={} agreement={} path_engaged={engaged} \
                 degree_ok={degree_ok}",
                self.name,
                outcome.reason(),
                outcome.validity(),
                outcome.eps_agreement(spec.eps),
            ));
        }
        if rec.digesting {
            stats.fixed_rounds += outcome.rounds();
            stats.fixed_decisions += u64::from(decided);
            let d = &mut stats.digest;
            d.u64(outcome.rounds());
            d.u64(outcome.reason() as u64);
            d.u64(realized_degree.map_or(u64::MAX, |x| x as u64));
            for v in outcome.honest_outputs() {
                d.f64(v.get());
            }
            let traffic = outcome.traffic();
            d.u64(traffic.deliveries());
            d.u64(traffic.messages());
            d.u64(traffic.bits());
        }
    }

    fn trace_layers(&mut self, budget: Duration, tr: &mut Tracer) -> (LayerMetrics, bool) {
        let started = Instant::now();
        let mut state_match = true;
        let mut pass = 0u64;
        let mut link_plane_bytes = 0usize;
        // Stage replay next to a spanned twin, fresh inputs per pass.
        while pass == 0 || started.elapsed() < budget.mul_f64(0.35) {
            let spec = self.spec(super::TRACE_OPS + pass);
            let report = replay_against_twin(&spec, self.replay_rounds, tr);
            state_match &=
                report.state_match && report.link_plane_bytes == report.twin_link_plane_bytes;
            tr.count("net.deliveries", report.traffic.deliveries());
            tr.count("net.bits", report.traffic.bits());
            link_plane_bytes = link_plane_bytes.max(report.link_plane_bytes);
            pass += 1;
            if report.rounds == 0 {
                break; // nothing to replay: do not spin on the budget
            }
        }
        let mut m = replay_metrics(tr, Stage::SimStep);

        let spec = self.spec(super::TRACE_OPS);
        if self.path.sparse {
            m.insert("graph.linkplane_kb", link_plane_bytes as f64 / 1024.0);
            let (speedup, same_outcome) = self.shard_speedup(budget.mul_f64(0.6));
            m.insert("sim.shard_speedup", speedup);
            state_match &= same_outcome;
        }
        m.insert("net.port_of_ns", probe_port_of(&spec.ports(), spec.seed));
        if spec.algo == Algo::QuantizedDac {
            m.insert(
                "net.codec_ns_per_msg",
                probe_codec(Precision::for_eps(spec.eps), spec.seed),
            );
        }
        (m, state_match)
    }
}
