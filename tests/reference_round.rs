//! A deliberately naive round executor, and `Simulation` checked against
//! it: the round as the model states it — `for v { for u in order { if
//! link && transmits && survives { receive } } }` over fresh boxed nodes,
//! nothing classified, cached, counted in bulk or skipped, every sender of
//! the order walked (silent ones too) — against the engine's one delivery
//! walk, on every plane the factory offers. Both sides report the whole
//! run: outputs and final values, rounds and stop reason, traffic, the
//! realized schedule, the round traces, the phase multisets `V(p)` and, on
//! a logged run, the event log.
//!
//! The draw spans every axis the walk branches on: 4 to 170 nodes (rows of
//! one to three words); DAC, DBAC, piggyback and quantized wires; every
//! crash-survivor kind and Byzantine nodes at random ids; the gallery's
//! adversaries and one that links crashed and silent senders too; the
//! three delivery orders; every `LinkMode` on up to five shards; event
//! recording on and off. A table of pinned cells adds what a draw rarely
//! hits, and coverage floors — on `adn_core::probe`'s counters in a debug
//! build — make sure the walk's paths were taken.
//!
//! The service leg holds every `ServiceRun` instance to the same
//! executor: instance `k` is the executor's run of the churn slice at the
//! instance's start round, the input stream's vector `k` and the
//! adversary's and strategies' instance stream `k`. It compares the
//! instance record (outcome, rounds, start round, participants, decided,
//! validity, agreement), every node's output and final value, and the
//! watchdog's `min_dyna_degree` against Def. 1's windowed union over the
//! executor's realized rounds, concatenated across instances, so windows
//! straddle instance boundaries.
//!
//! Seeds: `ADN_FUZZ_SEEDS` (default 300); a failing seed `s` is `draw(s)`,
//! or `draw_service(s)` for the service leg.

use anondyn::adversary::AdversarySpec::{
    AlternatingComplete, Complete, DacThreshold, DbacThreshold, PartitionHalves, Random, Rotating,
    Spread, Staggered,
};
use anondyn::adversary::AdversaryView;
use anondyn::consensus::probe::{
    self, COUNTERS, CUT_WORDS, QUORUM_BOUNDS, RANK_SETTLES, SENDER_SETTLES, STALE_STOPS,
    UNINDEXED_ROUNDS, WORD_STEPS,
};
use anondyn::consensus::AlgorithmFactory;
use anondyn::faults::{strategies, ByzContext};
use anondyn::net::codec::Precision;
use anondyn::net::Traffic;
use anondyn::prelude::*;
use anondyn::sim::quantized::quantized_factory;
use anondyn::sim::DeliveryOrder::{self, AscendingSenders, DescendingSenders, Shuffled};
use anondyn::sim::{Event, LinkMode, RoundTrace};
use anondyn::types::rng::SplitMix64;

/// Everything a run reports, field for field.
#[derive(Debug, PartialEq)]
struct Run {
    outputs: Vec<Option<Value>>,
    final_values: Vec<Value>,
    rounds: u64,
    reason: StopReason,
    traffic: Traffic,
    schedule: Schedule,
    traces: Vec<RoundTrace>,
    /// `V(p)`'s entries, phase by phase.
    phases: Vec<Vec<(NodeId, Value)>>,
    events: Option<Vec<Event>>,
}

/// Each link `u → v` with probability `p` a round, from every node —
/// crashed, silent ones included. The gallery only ever chooses links
/// from the round's deliverers; this one breaks that discipline, so the
/// senders the engine masks out of its permuted orders do have links.
#[derive(Debug)]
struct Undisciplined {
    p: f64,
    rng: SplitMix64,
}

impl Adversary for Undisciplined {
    fn edges_into(&mut self, view: &AdversaryView<'_>, out: &mut EdgeSet) {
        let n = view.params.n();
        for v in NodeId::all(n) {
            for u in NodeId::all(n).filter(|&u| u != v) {
                if self.rng.next_bool(self.p) {
                    out.insert(u, v);
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "undisciplined"
    }
}

/// Complete, except that receiver `v < 10` hears nothing in rounds
/// `v + 1 .. 14`: ten stragglers, each left behind in its own phase while
/// the rest advance, then all of them released.
#[derive(Debug)]
struct Stragglers;

impl Adversary for Stragglers {
    fn edges_into(&mut self, view: &AdversaryView<'_>, out: &mut EdgeSet) {
        let t = view.round.as_u64() as usize;
        for v in NodeId::all(view.params.n()) {
            if !(v.index() < 10 && (v.index() + 1..14).contains(&t)) {
                let row = &mut out.in_neighbor_sets_mut()[v.index()];
                row.copy_from(view.deliverers);
                row.remove(v);
            }
        }
    }

    fn name(&self) -> &'static str {
        "stragglers"
    }
}

/// A gallery adversary behind `edges_into` alone.
#[derive(Debug)]
struct DenseOnly(Box<dyn Adversary>);

impl Adversary for DenseOnly {
    fn edges_into(&mut self, view: &AdversaryView<'_>, out: &mut EdgeSet) {
        self.0.edges_into(view, out);
    }

    fn name(&self) -> &'static str {
        "dense-only"
    }
}

/// Where a run's links come from.
#[derive(Debug, Clone, Copy)]
enum Links {
    Spec(AdversarySpec),
    Undisciplined(f64),
    Stragglers,
    DenseOnly(AdversarySpec),
}

#[derive(Debug, Clone, Copy)]
enum Algo {
    Dac,
    Dbac,
    Piggyback,
}

/// One run's ingredients, as data: both executors build everything
/// stateful from it afresh.
#[derive(Debug, Clone)]
struct Config {
    params: Params,
    algo: Algo,
    pend: u64,
    /// The wire precision of a quantized run.
    bits: Option<u8>,
    links: Links,
    byz: Vec<(NodeId, &'static str)>,
    crash: CrashSchedule,
    inputs: Vec<Value>,
    /// The service instance the run is: the executor hands it to the
    /// adversary's and the strategies' `begin_instance` (0, each one's
    /// construction stream, for a standalone run).
    instance: u64,
    order: DeliveryOrder,
    link_mode: LinkMode,
    shards: usize,
    logged: bool,
    max_rounds: u64,
    seed: u64,
}

impl Config {
    fn factory(&self) -> AlgorithmFactory {
        let (params, pend) = (self.params, self.pend);
        let factory = match self.algo {
            Algo::Dac => factories::dac_with_pend(params, pend),
            Algo::Dbac => factories::dbac_with_pend(params, pend),
            Algo::Piggyback => factories::dbac_piggyback(params, 2, pend),
        };
        match self.bits {
            Some(bits) => quantized_factory(factory, Precision::new(bits)),
            None => factory,
        }
    }

    fn adversary(&self) -> Box<dyn Adversary> {
        let (n, f, seed) = (self.params.n(), self.params.f(), self.seed);
        match self.links {
            Links::Spec(spec) => spec.build(n, f, seed),
            Links::Undisciplined(p) => Box::new(Undisciplined {
                p,
                rng: SplitMix64::new(seed),
            }),
            Links::Stragglers => Box::new(Stragglers),
            Links::DenseOnly(spec) => Box::new(DenseOnly(spec.build(n, f, seed))),
        }
    }

    /// The strategy of the `k`-th Byzantine node.
    fn strategy(&self, k: usize) -> Box<dyn ByzantineStrategy> {
        strategies::by_name(self.byz[k].1, self.params.n(), self.seed + k as u64)
    }

    /// The engine's builder of this run on `plane`, less its inputs, its
    /// crashes and its event log.
    fn builder(&self, plane: PlaneMode) -> SimBuilder {
        let n = self.params.n();
        let mut b = Simulation::builder(self.params)
            .adversary(self.adversary())
            .ports(PortNumbering::random(n, self.seed))
            .delivery_order(self.order)
            .algorithm(self.factory())
            .algorithm_plane(plane)
            .link_mode(self.link_mode)
            .shards(self.shards)
            .max_rounds(self.max_rounds);
        for (k, &(id, _)) in self.byz.iter().enumerate() {
            b = b.byzantine(id, self.strategy(k));
        }
        b
    }
}

/// The gallery's adversaries at degree `d`, window or period `t` and link
/// probability `p`.
fn gallery(d: usize, t: usize, p: f64) -> [AdversarySpec; 9] {
    [
        Complete,
        Rotating { d },
        Random { p },
        Spread { t, d },
        AlternatingComplete { period: t },
        PartitionHalves,
        DacThreshold,
        DbacThreshold,
        Staggered { d, groups: 1 + t },
    ]
}

fn draw(seed: u64) -> Config {
    let mut rng = SplitMix64::new(seed ^ 0xD15C);
    // Most rows fit one word; one draw in four spans up to three.
    let n = match rng.next_bool(0.75) {
        true => 4 + rng.next_index(17),
        false => 21 + rng.next_index(150),
    };
    let f = rng.next_index(n / 4 + 1);
    let params = Params::new(n, f, [0.25, 1e-2, 1e-3][rng.next_index(3)]).unwrap();
    // The faulty ids at random, so they cut words anywhere: the first few
    // Byzantine, the rest crashing.
    let faulty = rng.sample_indices(n, f);
    let (byz, crashing) = faulty.split_at(rng.next_index(f + 1));
    let names = strategies::ALL_STRATEGY_NAMES;
    let byz = (byz.iter())
        .map(|&i| (NodeId::new(i), names[rng.next_index(names.len())]))
        .collect();
    let mut crash = CrashSchedule::new(n);
    for &i in crashing {
        let survivors = match rng.next_index(4) {
            0 => CrashSurvivors::All,
            1 => CrashSurvivors::None,
            2 => {
                let some = rng.sample_indices(n, n / 2).into_iter().map(NodeId::new);
                CrashSurvivors::Subset(some.collect())
            }
            _ => CrashSurvivors::Random {
                keep_probability: rng.next_f64(),
                seed: rng.next_u64(),
            },
        };
        crash.crash(NodeId::new(i), Round::new(rng.next_below(25)), survivors);
    }
    let (d, t) = (1 + rng.next_index(n - 1), 1 + rng.next_index(3));
    let p = 0.2 + 0.7 * rng.next_f64();
    // Complete bursts are verbatim: crashed and silent senders get links.
    let specs = gallery(d, t, p);
    let links = match rng.next_bool(0.2) {
        true => Links::Undisciplined(p),
        false => Links::Spec(specs[rng.next_index(specs.len())]),
    };
    let algo = [Algo::Dac, Algo::Dbac, Algo::Piggyback][rng.next_index(3)];
    let bits = rng.next_bool(0.3).then(|| 3 + rng.next_index(10) as u8);
    let shuffled = Shuffled(rng.next_u64());
    let order = [AscendingSenders, DescendingSenders, shuffled][rng.next_index(3)];
    let link_mode = [LinkMode::Auto, LinkMode::Dense, LinkMode::Sparse][rng.next_index(3)];
    Config {
        params,
        algo,
        pend: rng.next_below(8),
        bits,
        links,
        byz,
        crash,
        inputs: workload::random(n, seed),
        instance: 0,
        order,
        link_mode,
        shards: 1 + rng.next_index(5),
        logged: rng.next_bool(0.3),
        max_rounds: 40,
        seed,
    }
}

/// Fixed configurations a draw rarely hits, each with the walk counters
/// it must move.
fn pinned() -> [(&'static str, Config, &'static [usize]); 5] {
    let cell = |n, f, algo, pend, links| Config {
        params: Params::new(n, f, 1e-3).unwrap(),
        algo,
        pend,
        bits: None,
        links,
        byz: Vec::new(),
        crash: CrashSchedule::new(n),
        inputs: workload::random(n, 5),
        instance: 0,
        order: AscendingSenders,
        link_mode: LinkMode::Auto,
        shards: 1,
        logged: false,
        max_rounds: 200,
        seed: 5,
    };
    // The wire outgrows the index and comes back.
    let stragglers = Config {
        logged: true,
        ..cell(70, 0, Algo::Dac, 20, Links::Stragglers)
    };
    // Alg. 2 at its threshold degree, the eight stock strategies on ids
    // either side of the first word boundary: a receiver's row is cut
    // there, inside and between two words that hold pending links.
    let ids = [58, 60, 62, 63, 64, 65, 67, 69].map(NodeId::new);
    let names = strategies::ALL_STRATEGY_NAMES;
    let straddling = Config {
        byz: ids.into_iter().zip(names).collect(),
        logged: true,
        ..cell(140, 8, Algo::Dbac, 6, Links::Spec(DbacThreshold))
    };
    // Verbatim complete bursts hand the silent strategy links it
    // fabricates nothing for: realized links missed, on sparse links and
    // three shards.
    let bursts = AlternatingComplete { period: 2 };
    let mut crash = CrashSchedule::new(21);
    let survivors = CrashSurvivors::Subset(vec![NodeId::new(0), NodeId::new(9)]);
    crash.crash(NodeId::new(4), Round::new(1), survivors);
    let missed = Config {
        byz: vec![
            (NodeId::new(20), "silent"),
            (NodeId::new(19), "extreme-high"),
        ],
        crash,
        order: Shuffled(5),
        link_mode: LinkMode::Sparse,
        shards: 3,
        logged: true,
        ..cell(21, 3, Algo::Dbac, 8, Links::Spec(bursts))
    };
    // An adversary that cannot write runs is held as words.
    let dense_only = Config {
        links: Links::DenseOnly(Rotating { d: 17 }),
        order: DescendingSenders,
        logged: false,
        ..missed.clone()
    };
    // Spread links make a lagging receiver hear a higher phase first (a
    // jump), then same-phase senders that count anew toward the quorum of
    // the phase it jumped to, all in one round.
    let jump = cell(5, 0, Algo::Dac, 6, Links::Spec(Spread { t: 3, d: 3 }));
    [
        ("stragglers", stragglers, &[UNINDEXED_ROUNDS, WORD_STEPS]),
        ("byzantine ids around 64", straddling, &[CUT_WORDS]),
        ("missed fabrications", missed, &[]),
        ("dense-only adversary", dense_only, &[]),
        ("same-round jump", jump, &[]),
    ]
}

/// Adds `(node, value)` to `V(phase)` unless the node is in it already.
fn enter(records: &mut Vec<Vec<(NodeId, Value)>>, node: NodeId, phase: Phase, value: Value) {
    let p = phase.as_u64() as usize;
    if records.len() <= p {
        records.resize_with(p + 1, Vec::new);
    }
    if records[p].iter().all(|&(id, _)| id != node) {
        records[p].push((node, value));
    }
}

fn reference(cfg: &Config) -> Run {
    let (params, n, t_max) = (cfg.params, cfg.params.n(), cfg.max_rounds);
    let factory = cfg.factory();
    let mut adversary = cfg.adversary();
    adversary.begin_instance(cfg.instance);
    let mut byz: Vec<_> = (0..n).map(|_| None).collect();
    for (k, &(id, _)) in cfg.byz.iter().enumerate() {
        let strategy = byz[id.index()].insert(cfg.strategy(k));
        strategy.begin_instance(cfg.instance);
    }
    let (crash, inputs) = (&cfg.crash, &cfg.inputs);
    let mut nodes: Vec<_> = (0..n).map(|i| factory.make(i, inputs[i])).collect();
    let is_byz: Vec<bool> = byz.iter().map(Option::is_some).collect();
    let ports = PortNumbering::random(n, cfg.seed);
    let (mut traffic, mut schedule, mut t) = (Traffic::new(), Schedule::new(n), Round::ZERO);
    let (mut traces, mut records, mut log) = (Vec::new(), Vec::new(), Vec::new());
    // V(0) holds every non-Byzantine input (Def. 5). A node whose output
    // exists before any round (pend = 0) decided in round 0.
    let mut decided = vec![false; n];
    for v in NodeId::all(n).filter(|v| !is_byz[v.index()]) {
        enter(&mut records, v, Phase::ZERO, inputs[v.index()]);
        if let Some(value) = nodes[v.index()].output() {
            decided[v.index()] = true;
            log.push(Event::Decide {
                round: t,
                node: v,
                value,
            });
        }
    }
    let fault_free: Vec<usize> = (0..n)
        .filter(|&i| !is_byz[i] && !crash.is_faulty(NodeId::new(i)))
        .collect();
    let undecided =
        |nodes: &[Box<dyn Algorithm>]| fault_free.iter().any(|&i| nodes[i].output().is_none());
    while t.as_u64() < t_max && undecided(&nodes) {
        // What everyone can see at the start of the round.
        let state = |i: usize| (!is_byz[i]).then(|| (nodes[i].phase(), nodes[i].current_value()));
        let seen = (0..n).map(|i| state(i).unwrap_or((Phase::ZERO, Value::HALF)));
        let (phases, values): (Vec<_>, Vec<_>) = seen.unzip();
        let (round, phases, values) = (t, &phases[..], &values[..]);
        let ctx = |self_id| ByzContext {
            round,
            self_id,
            params,
            phases,
            values,
        };
        for u in NodeId::all(n) {
            byz[u.index()]
                .iter_mut()
                .for_each(|s| s.begin_round(&ctx(u)));
        }
        let transmits = |u: &NodeId| match &byz[u.index()] {
            Some(strategy) => strategy.transmits(),
            None => !crash.is_silent(*u, t),
        };
        let executes = |v: &NodeId| !is_byz[v.index()] && !crash.has_crashed_by(*v, t);
        let deliverers = &NodeSet::from_ids(n, NodeId::all(n).filter(transmits));
        let honest = &NodeSet::from_ids(n, NodeId::all(n).filter(executes));
        let view = AdversaryView {
            round,
            params,
            phases,
            values,
            deliverers,
            honest,
        };
        let mut links = EdgeSet::empty(n);
        adversary.edges_into(&view, &mut links);
        // Every non-Byzantine node that still transmits broadcasts once.
        let mut sent = vec![None; n];
        for u in NodeId::all(n).filter(|u| !is_byz[u.index()] && transmits(u)) {
            let batch = sent[u.index()].insert(Batch::new());
            nodes[u.index()].broadcast_into(batch);
            let batch_len = batch.len();
            log.push(Event::Broadcast {
                round,
                node: u,
                batch_len,
            });
        }
        // This round's crashes: crashed by it, not by the round before.
        let before = t.as_u64().checked_sub(1).map(Round::new);
        let crashes_now = |u: &NodeId| {
            crash.has_crashed_by(*u, t) && before.is_none_or(|r| !crash.has_crashed_by(*u, r))
        };
        for node in NodeId::all(n).filter(crashes_now) {
            log.push(Event::Crash { round, node });
        }
        let mut senders: Vec<NodeId> = NodeId::all(n).collect();
        match cfg.order {
            AscendingSenders => {}
            DescendingSenders => senders.reverse(),
            Shuffled(s) => SplitMix64::new(s ^ (t.as_u64() << 20)).shuffle(&mut senders),
        }
        let mut realized = EdgeSet::empty(n);
        for v in NodeId::all(n).filter(executes) {
            for &u in senders.iter().filter(|&&u| links.contains(u, v)) {
                let mut forged = Batch::new();
                if let Some(strategy) = byz[u.index()].as_mut() {
                    strategy.messages_into(&ctx(u), v, &mut forged);
                }
                let batch = match &sent[u.index()] {
                    Some(batch) if crash.delivers(u, t, v) => batch,
                    None if !forged.is_empty() => &forged,
                    _ => continue,
                };
                traffic.record_delivery(batch.len());
                realized.insert(u, v);
                let port = ports.port_of(v, u);
                nodes[v.index()].receive(port, batch);
                log.push(Event::Delivery {
                    round,
                    sender: u,
                    receiver: v,
                    port,
                    batch_len: batch.len(),
                });
            }
        }
        schedule.push(realized);
        honest.for_each(|v| nodes[v.index()].end_round());
        // Each executing node enters every phase it advanced through with
        // its value after the round (Def. 6), then may have decided.
        for v in NodeId::all(n).filter(executes) {
            let node = &nodes[v.index()];
            let (from, to, value) = (phases[v.index()], node.phase(), node.current_value());
            let mut p = from;
            while p < to {
                p = p.next();
                enter(&mut records, v, p, value);
            }
            if to > from {
                log.push(Event::PhaseAdvance {
                    round,
                    node: v,
                    from,
                    to,
                    value,
                });
            }
            if let (false, Some(value)) = (decided[v.index()], node.output()) {
                decided[v.index()] = true;
                log.push(Event::Decide {
                    round,
                    node: v,
                    value,
                });
            }
        }
        // The round's trace: the fault-free nodes after it.
        let after = || fault_free.iter().map(|&i| &nodes[i]);
        traces.push(RoundTrace {
            round,
            range: ValueInterval::of(after().map(|v| v.current_value()))
                .map_or(0.0, ValueInterval::range),
            min_phase: after().map(|v| v.phase()).min().unwrap_or(Phase::ZERO),
            max_phase: after().map(|v| v.phase()).max().unwrap_or(Phase::ZERO),
            decided: after().filter(|v| v.output().is_some()).count(),
        });
        t = t.next();
    }
    let reason = [StopReason::AllOutput, StopReason::MaxRounds][usize::from(undecided(&nodes))];
    let honest = |i: usize| !is_byz[i];
    Run {
        outputs: (0..n)
            .map(|i| nodes[i].output().filter(|_| honest(i)))
            .collect(),
        final_values: (0..n)
            .map(|i| match honest(i) {
                true => nodes[i].current_value(),
                false => Value::HALF,
            })
            .collect(),
        rounds: t.as_u64(),
        reason,
        traffic,
        schedule,
        traces,
        phases: records,
        events: cfg.logged.then_some(log),
    }
}

/// `cfg` on `Simulation`, the algorithm state on `plane`, logged when
/// `logged`. Checks that the run holds the plane, the link form and the
/// shards the configuration asks for; returns the run, whether its links
/// were sparse, and the delta of every `adn_core::probe` counter (zero
/// where a build does not count).
fn simulated(cfg: &Config, plane: PlaneMode, logged: bool) -> (Run, bool, [u64; COUNTERS]) {
    let n = cfg.params.n();
    let has_plane = cfg.factory().has_plane();
    let sim = cfg
        .builder(plane)
        .inputs(cfg.inputs.clone())
        .crashes(cfg.crash.clone())
        .record_events(logged)
        .build();
    let columnar = match plane {
        PlaneMode::Never => false,
        PlaneMode::Always => true,
        PlaneMode::Auto => has_plane && !logged,
    };
    assert_eq!(sim.uses_plane(), columnar, "{plane:?}, logged {logged}");
    // `LinkMode` picks the store's form; the gallery writes runs, the
    // adversaries of this file words only.
    let sparse = matches!(cfg.links, Links::Spec(_))
        && match cfg.link_mode {
            LinkMode::Auto => n > PortNumbering::MAX_DENSE_N,
            LinkMode::Dense => false,
            LinkMode::Sparse => true,
        };
    assert_eq!(sim.uses_sparse_links(), sparse, "{:?}", cfg.link_mode);
    assert_eq!(sim.shards(), cfg.shards, "shards");
    let before = probe::counts();
    let out = sim.run();
    let counted = match (before, probe::counts()) {
        (Some(before), Some(after)) => std::array::from_fn(|c| after[c] - before[c]),
        _ => [0; COUNTERS],
    };
    let run = Run {
        outputs: NodeId::all(n).map(|v| out.output_of(v)).collect(),
        final_values: NodeId::all(n).map(|v| out.final_value_of(v)).collect(),
        rounds: out.rounds(),
        reason: out.reason(),
        traffic: out.traffic(),
        schedule: out.schedule().clone(),
        traces: out.traces().to_vec(),
        phases: (out.phase_records().iter())
            .map(|record| record.entries().to_vec())
            .collect(),
        events: out.events().map(|log| log.events().to_vec()),
    };
    (run, sparse, counted)
}

/// Panics at the first element where `got` departs from `expect`.
fn same<T: PartialEq + std::fmt::Debug>(expect: &[T], got: &[T], field: &str, what: &str) {
    let len = expect.len().max(got.len());
    if let Some(i) = (0..len).find(|&i| expect.get(i) != got.get(i)) {
        let (e, g) = (expect.get(i), got.get(i));
        panic!("{what}: {field}[{i}]: naive {e:?}, simulated {g:?}");
    }
}

/// Compares a simulated run with the naive one, field for field; the
/// event logs only when the simulated run kept one.
fn assert_same(expect: &Run, got: &Run, what: &str) {
    assert_eq!(expect.rounds, got.rounds, "{what}: rounds");
    assert_eq!(expect.reason, got.reason, "{what}: stop reason");
    assert_eq!(expect.traffic, got.traffic, "{what}: traffic");
    same(&expect.outputs, &got.outputs, "outputs", what);
    same(&expect.final_values, &got.final_values, "values", what);
    same(&expect.traces, &got.traces, "traces", what);
    same(&expect.phases, &got.phases, "V(p)", what);
    if expect.schedule != got.schedule {
        let mut rounds = expect.schedule.iter().zip(got.schedule.iter());
        let t = rounds.position(|(e, g)| e != g);
        panic!("{what}: the realized schedules differ first in round {t:?}");
    }
    if let Some(events) = &got.events {
        let expected = expect.events.as_deref().unwrap_or_default();
        same(expected, events, "events", what);
    }
}

/// What the runs covered, for the floors.
#[derive(Default)]
struct Coverage {
    /// Simulated runs by order × link form (dense, sparse) × plane mode.
    runs: [[[u64; 3]; 2]; 3],
    /// Runs on more than one shard, by link form: all, and those with a
    /// fabricating Byzantine sender.
    sharded: [u64; 2],
    sharded_fabricating: [u64; 2],
    sparse_byz: u64,
    quantized: u64,
    /// Logged draws: all, those on more than one shard (all, and those
    /// with a fabricating Byzantine sender), and the stale stops their
    /// walks counted.
    logged: u64,
    logged_sharded: u64,
    logged_sharded_fabricating: u64,
    logged_stops: u64,
    /// Undisciplined draws with a crash, by order.
    undisciplined: [u64; 3],
}

const MODES: [PlaneMode; 3] = [PlaneMode::Never, PlaneMode::Always, PlaneMode::Auto];
/// The stock strategies that declare no uniform message and send
/// something: their links are fabricated one by one, into the arena the
/// shards split.
const FABRICATING: [&str; 2] = ["two-faced", "random-noise"];
/// The walk counters a logged run must move as its unlogged twin does.
const WALK: [usize; 4] = [WORD_STEPS, CUT_WORDS, UNINDEXED_ROUNDS, STALE_STOPS];

/// Runs `cfg` on the naive executor and on every plane mode the factory
/// offers, and holds each run to the naive one. A logged configuration
/// runs once more unlogged on the plane that walks by words, which must
/// walk as the logged run did: observation does not switch the walk.
/// Returns what the walk counted over the plane modes.
fn check(cfg: &Config, what: &str, cov: &mut Coverage) -> [u64; COUNTERS] {
    let expect = reference(cfg);
    let order = match cfg.order {
        AscendingSenders => 0,
        DescendingSenders => 1,
        Shuffled(_) => 2,
    };
    let has_plane = cfg.factory().has_plane();
    let sharded = cfg.shards > 1;
    let fabricating = sharded && cfg.byz.iter().any(|(_, name)| FABRICATING.contains(name));
    let mut walked = [0; COUNTERS];
    for (m, plane) in MODES.into_iter().enumerate() {
        if plane == PlaneMode::Always && !has_plane {
            continue;
        }
        let what = format!("{what}, {plane:?}");
        let (got, sparse, counted) = simulated(cfg, plane, cfg.logged);
        assert_same(&expect, &got, &what);
        cov.runs[order][usize::from(sparse)][m] += 1;
        cov.sharded[usize::from(sparse)] += u64::from(sharded);
        cov.sharded_fabricating[usize::from(sparse)] += u64::from(fabricating);
        cov.sparse_byz += u64::from(sparse && !cfg.byz.is_empty());
        walked = std::array::from_fn(|c| walked[c] + counted[c]);
        if cfg.logged && plane == [PlaneMode::Never, PlaneMode::Always][usize::from(has_plane)] {
            let (unlogged, _, twin) = simulated(cfg, plane, false);
            assert_same(&expect, &unlogged, &format!("{what}, unlogged"));
            for c in WALK {
                let (logged, unlogged) = (counted[c], twin[c]);
                assert_eq!(logged, unlogged, "{what}: walk counter {c}, logged vs not");
            }
        }
    }
    cov.quantized += u64::from(cfg.bits.is_some());
    if cfg.logged {
        cov.logged += 1;
        cov.logged_sharded += u64::from(sharded);
        cov.logged_sharded_fabricating += u64::from(fabricating);
        cov.logged_stops += walked[STALE_STOPS];
    }
    if matches!(cfg.links, Links::Undisciplined(_)) && cfg.crash.fault_count() > 0 {
        cov.undisciplined[order] += 1;
    }
    walked
}

/// Draws per fuzz: `ADN_FUZZ_SEEDS`, 300 by default.
fn fuzz_seeds() -> u64 {
    std::env::var("ADN_FUZZ_SEEDS").map_or(300, |s| s.parse().unwrap())
}

#[test]
fn simulation_matches_the_naive_round_executor() {
    let seeds = fuzz_seeds();
    let mut cov = Coverage::default();
    for seed in 0..seeds {
        check(&draw(seed), &format!("seed {seed}"), &mut cov);
    }
    // adn-core counts only in a debug build of it (and its own tests).
    let counting = probe::counts().is_some();
    if !counting {
        eprintln!("reference_round: adn-core built without its probe counters (release); compared outcomes only");
    }
    for (name, cfg, floors) in pinned() {
        let walked = check(&cfg, name, &mut cov);
        for &c in floors.iter().filter(|_| counting) {
            assert!(walked[c] > 0, "{name}: walk counter {c} never moved");
        }
    }
    if seeds < 100 {
        return;
    }
    for (order, forms) in cov.runs.iter().enumerate() {
        for (sparse, modes) in forms.iter().enumerate() {
            for (mode, &runs) in MODES.iter().zip(modes) {
                let cell = format!("order {order}, sparse {sparse}, {mode:?}");
                assert!(runs > 0, "no run under {cell}");
            }
        }
    }
    assert!(
        cov.sharded.iter().all(|&c| c > 0),
        "sharded runs by link form: {:?}",
        cov.sharded
    );
    assert!(
        cov.sharded_fabricating.iter().all(|&c| c > 0),
        "sharded runs with a fabricating Byzantine sender by link form: {:?}",
        cov.sharded_fabricating
    );
    assert!(cov.sparse_byz > 0, "no Byzantine run on sparse links");
    assert!(
        cov.quantized > 0 && cov.logged_sharded > 0,
        "no quantized or no sharded logged draw"
    );
    assert!(
        cov.logged_sharded_fabricating > 0,
        "no sharded logged draw with a fabricating Byzantine sender"
    );
    assert!(
        cov.undisciplined.iter().all(|&c| c > 0),
        "undisciplined draws with crashes by order: {:?}",
        cov.undisciplined
    );
    let Some(counts) = probe::counts() else {
        return;
    };
    assert!(cov.logged_stops > 0, "no logged stale stop");
    for (c, name) in [
        (WORD_STEPS, "word step"),
        (CUT_WORDS, "cut word"),
        (UNINDEXED_ROUNDS, "unindexed round"),
        (STALE_STOPS, "stale stop"),
        (RANK_SETTLES, "row-end rank settle"),
        (QUORUM_BOUNDS, "quorum read by merge"),
        (SENDER_SETTLES, "settle sender by sender"),
    ] {
        assert!(counts[c] > 0, "no {name}");
    }
}

/// A recorded round equal to the one before is not copied, so a changed
/// round must never pass for a repeat. A dense `Complete` run repeats its
/// round 0-2; node 0 crashes in round 3, once with two survivors (a
/// Partial sender: its links thin) and once after its full broadcast (a
/// Present sender that does not receive): either way its row empties
/// though the store's words are the same. From round 4 on it is silent,
/// another run of repeats. Every engine must record round 3 as the naive
/// executor does.
#[test]
fn a_crash_after_repeated_rounds_records_its_own_round() {
    let n = 70;
    let subset = CrashSurvivors::Subset(vec![NodeId::new(1), NodeId::new(66)]);
    for survivors in [subset, CrashSurvivors::All] {
        let name = format!("crash after repeats, {survivors:?}");
        let mut crash = CrashSchedule::new(n);
        crash.crash(NodeId::new(0), Round::new(3), survivors);
        let cfg = Config {
            params: Params::new(n, 1, 1e-3).unwrap(),
            algo: Algo::Dac,
            pend: 8,
            bits: None,
            links: Links::Spec(Complete),
            byz: Vec::new(),
            crash,
            inputs: workload::random(n, 5),
            instance: 0,
            order: AscendingSenders,
            link_mode: LinkMode::Dense,
            shards: 1,
            logged: true,
            max_rounds: 200,
            seed: 5,
        };
        check(&cfg, &name, &mut Coverage::default());
        let schedule = reference(&cfg).schedule;
        let round = |t| schedule.round(Round::new(t)).unwrap();
        assert!(schedule.len() > 5, "{name}: {} rounds", schedule.len());
        assert_eq!(round(1), round(2), "{name}");
        assert_ne!(
            round(2),
            round(3),
            "{name}: the crash round changes the realized round"
        );
        assert_eq!(round(4), round(5), "{name}");
    }
}

// --- The service leg: a `ServiceRun` instance is an executor run. ---

/// Instances per service draw.
const INSTANCES: u64 = 3;

/// A stream of instances over one long-lived engine. Instance `k` is
/// `base` with the churn plan's slice at the instance's start round, the
/// stream's inputs for `k` and instance number `k`.
#[derive(Debug)]
struct Service {
    /// Everything but the crashes, the inputs and the instance number.
    base: Config,
    churn: ChurnPlan,
    inputs: InputStream,
    plane: PlaneMode,
    /// The watchdog's dynaDegree window `T`.
    window: usize,
    /// Whether the churn plan holds any event.
    churny: bool,
}

fn draw_down_kind(rng: &mut SplitMix64) -> DownKind {
    match rng.next_index(3) {
        0 => DownKind::Graceful,
        1 => DownKind::Abrupt,
        _ => DownKind::Flaky {
            keep_probability: rng.next_f64(),
            seed: rng.next_u64(),
        },
    }
}

fn draw_service(seed: u64) -> Service {
    let mut rng = SplitMix64::new(seed ^ 0x5E21);
    // Most rows fit one word; one draw in sixteen spans two.
    let n = match rng.next_bool(0.9375) {
        true => 4 + rng.next_index(13),
        false => 65 + rng.next_index(16),
    };
    let f = rng.next_index(4).min(n - 1);
    let params = Params::new(n, f, [0.25, 1e-2][rng.next_index(2)]).unwrap();
    let algo = [Algo::Dac, Algo::Dbac][rng.next_index(2)];
    let pend = 1 + rng.next_below(5) + u64::from(matches!(algo, Algo::Dbac));
    let bits = rng.next_bool(0.3).then(|| 3 + rng.next_index(10) as u8);
    let shuffled = Shuffled(rng.next_u64());
    let order = [AscendingSenders, DescendingSenders, shuffled][rng.next_index(3)];
    let r_max = 25 + rng.next_below(36);
    // The gallery only: a service keeps one adversary across instances,
    // and `begin_instance` is the whole of its instance stream.
    // `PartitionHalves` lets nobody decide: the round cap aborts.
    let (d, t) = (1 + rng.next_index(n - 1), 1 + rng.next_index(3));
    let specs = gallery(d, t, 0.2 + 0.7 * rng.next_f64());
    let links = Links::Spec(specs[rng.next_index(specs.len())]);
    // Byzantine nodes at the high ids, which stay out of the churn plan;
    // churny nodes at the low ids.
    let names = strategies::ALL_STRATEGY_NAMES;
    let byz: Vec<_> = (0..rng.next_index(f + 1))
        .map(|k| (NodeId::new(n - 1 - k), names[rng.next_index(names.len())]))
        .collect();
    let mut churn = ChurnPlan::new(n);
    let horizon = INSTANCES * r_max + 1;
    let churny = rng.next_index((n - byz.len()).min(4) + 1);
    for node in NodeId::all(churny) {
        match rng.next_index(4) {
            0 => {
                let p_down = 0.02 + 0.1 * rng.next_f64();
                let p_up = 0.2 + 0.4 * rng.next_f64();
                churn.flap_random(node, p_down, p_up, rng.next_u64(), Round::new(horizon));
            }
            1 => {
                let down_len = 1 + rng.next_below(3);
                let period = down_len + 2 + rng.next_below(8);
                let first = Round::new(rng.next_below(r_max));
                let kind = draw_down_kind(&mut rng);
                churn.flap_periodic(node, first, down_len, period, kind, Round::new(horizon));
            }
            2 => {
                let at = rng.next_below(horizon);
                let kind = draw_down_kind(&mut rng);
                churn.crash(node, Round::new(at), kind);
                if rng.next_bool(0.7) {
                    churn.recover(node, Round::new(at + 1 + rng.next_below(20)));
                }
            }
            _ => churn.join(node, Round::new(rng.next_below(horizon / 2 + 1))),
        }
    }
    // A sharded round spawns its shards' threads: one draw in four.
    let shards = match rng.next_bool(0.25) {
        true => 2 + rng.next_index(4),
        false => 1,
    };
    let base = Config {
        params,
        algo,
        pend,
        bits,
        links,
        byz,
        crash: CrashSchedule::new(n),
        inputs: vec![Value::HALF; n],
        instance: 0,
        order,
        link_mode: [LinkMode::Auto, LinkMode::Dense, LinkMode::Sparse][rng.next_index(3)],
        shards,
        logged: false,
        max_rounds: r_max,
        seed,
    };
    Service {
        base,
        churn,
        inputs: InputStream::random(seed),
        plane: MODES[rng.next_index(3)],
        window: [1, 2, 3, 5, 8][rng.next_index(5)],
        churny: churny > 0,
    }
}

/// The least in-degree over `receivers` in the union of the `t` rounds
/// of `history` that end with round `end` (Def. 1).
fn least_degree(history: &Schedule, end: usize, t: usize, receivers: &[usize]) -> Option<usize> {
    let degree = |&v: &usize| {
        let mut heard = NodeSet::new(history.n());
        for r in end + 1 - t..=end {
            let links = history.round(Round::new(r as u64)).unwrap();
            heard.union_with(links.in_neighbors(NodeId::new(v)));
        }
        heard.len()
    };
    receivers.iter().map(degree).min()
}

/// What the service draws covered, for the floors.
#[derive(Default)]
struct ServiceCoverage {
    churny: u64,
    byzantine: u64,
    capped: u64,
    /// Instances that ran, but fewer rounds than their window.
    short: u64,
    /// Windows that closed in an instance after opening in an earlier one.
    straddling: u64,
    /// Services by plane mode, by link form (dense, sparse), and on more
    /// than one shard.
    modes: [u64; 3],
    links: [u64; 2],
    sharded: u64,
}

/// Runs `svc`'s instances and holds each to the executor's run of its
/// instance, its watchdog to a windowed union over the executor's
/// realized rounds, concatenated across instances.
fn check_service(svc: &Service, what: &str, cov: &mut ServiceCoverage) {
    let (base, n, t) = (&svc.base, svc.base.params.n(), svc.window);
    let builder = base.builder(svc.plane);
    let mut service =
        ServiceRun::new(builder, svc.churn.clone(), svc.inputs.clone()).dyna_window(t);
    let sim = service.sim();
    assert_eq!(sim.shards(), base.shards, "{what}: shards");
    cov.modes[MODES.iter().position(|&m| m == svc.plane).unwrap()] += 1;
    cov.links[usize::from(sim.uses_sparse_links())] += 1;
    cov.sharded += u64::from(base.shards > 1);
    let (mut history, mut decided) = (Schedule::new(n), 0);
    for k in 0..INSTANCES {
        let what = format!("{what}, instance {k}");
        let rec = service.run_instance();
        let (start, mut cfg) = (history.len(), base.clone());
        let start_round = Round::new(start as u64);
        cfg.instance = k;
        svc.inputs.fill(k, &mut cfg.inputs);
        svc.churn.slice_into(start_round, &mut cfg.crash);
        let expect = reference(&cfg);
        for (_, links) in expect.schedule.iter() {
            history.push(links.clone());
        }
        let byzantine = |i: usize| cfg.byz.iter().any(|&(b, _)| b.index() == i);
        let fault_free: Vec<usize> = (0..n)
            .filter(|&i| !byzantine(i) && !cfg.crash.is_faulty(NodeId::new(i)))
            .collect();
        let aborted = |reason| InstanceOutcome::Aborted { reason };
        let outcome = match expect.reason {
            _ if fault_free.is_empty() => aborted(AbortReason::NoParticipants),
            StopReason::AllOutput => InstanceOutcome::Decided,
            _ => aborted(AbortReason::RoundCap),
        };
        assert_eq!(rec.instance, k, "{what}");
        assert_eq!(rec.start_round, start_round, "{what}: start round");
        assert_eq!(rec.outcome, outcome, "{what}: outcome");
        decided += u64::from(outcome == InstanceOutcome::Decided);
        assert_eq!(rec.rounds, expect.rounds, "{what}: rounds");
        let outputs: Vec<Value> = fault_free
            .iter()
            .filter_map(|&i| expect.outputs[i])
            .collect();
        assert_eq!(rec.participants, fault_free.len(), "{what}: participants");
        assert_eq!(rec.decided, outputs.len(), "{what}: decided");
        let sim = service.sim();
        let got: Vec<_> = NodeId::all(n).map(|v| sim.output_of(v)).collect();
        same(&expect.outputs, &got, "outputs", &what);
        let got: Vec<_> = NodeId::all(n)
            .map(|v| sim.value_of(v).unwrap_or(Value::HALF))
            .collect();
        same(&expect.final_values, &got, "values", &what);
        // Def. 3 against the non-Byzantine inputs; ε-agreement over every
        // fault-free node.
        let hull = ValueInterval::of((0..n).filter(|&i| !byzantine(i)).map(|i| cfg.inputs[i]));
        let validity = outputs.iter().all(|&v| hull.is_none_or(|h| h.contains(v)));
        let range = ValueInterval::of(outputs.iter().copied()).map_or(0.0, ValueInterval::range);
        let agreement = outputs.len() == fault_free.len() && range <= cfg.params.eps() + 1e-12;
        let verdicts = (rec.validity, rec.agreement, rec.output_range);
        assert_eq!(verdicts, (validity, agreement, range), "{what}: verdicts");
        // Def. 1: every window of `t` rounds that closes during the
        // instance, over its fault-free receivers.
        let closed = (start..history.len()).filter(|&end| end + 1 >= t);
        let least = closed
            .clone()
            .filter_map(|end| least_degree(&history, end, t, &fault_free))
            .min();
        assert_eq!(
            rec.min_dyna_degree, least,
            "{what}: min dynaDegree, T = {t}"
        );
        cov.capped += u64::from(expect.rounds > 0 && expect.reason == StopReason::MaxRounds);
        cov.short += u64::from((1..t as u64).contains(&rec.rounds));
        cov.straddling += closed.filter(|&end| end + 1 - t < start).count() as u64;
    }
    let rounds = history.len() as u64;
    assert_eq!(service.total_rounds(), rounds, "{what}: total rounds");
    assert_eq!(service.instances_run(), INSTANCES, "{what}: instances run");
    let tally = (service.decided_instances(), service.aborted_instances());
    let aborted = INSTANCES - decided;
    assert_eq!(tally, (decided, aborted), "{what}: instance tally");
    cov.churny += u64::from(svc.churny);
    cov.byzantine += u64::from(!base.byz.is_empty());
}

#[test]
fn service_instances_match_the_naive_round_executor() {
    let seeds = fuzz_seeds();
    let mut cov = ServiceCoverage::default();
    for seed in 0..seeds {
        let svc = draw_service(seed);
        check_service(&svc, &format!("service seed {seed}"), &mut cov);
    }
    if seeds < 100 {
        return;
    }
    let (churny, byzantine, capped) = (cov.churny, cov.byzantine, cov.capped);
    assert!(churny >= seeds / 3, "only {churny}/{seeds} churny draws");
    assert!(
        byzantine >= seeds / 8,
        "only {byzantine}/{seeds} Byzantine draws"
    );
    assert!(
        capped >= seeds / 8,
        "only {capped} round-cap aborts over {seeds} draws"
    );
    assert!(cov.short > 0, "no instance shorter than its window");
    assert!(cov.straddling > 0, "no window across an instance boundary");
    let (modes, links) = (cov.modes, cov.links);
    assert!(
        modes.iter().all(|&c| c > 0),
        "services by plane mode: {modes:?}"
    );
    assert!(
        links.iter().all(|&c| c > 0),
        "services by link form: {links:?}"
    );
    assert!(cov.sharded > 0, "no sharded service");
}
