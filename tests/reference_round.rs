//! A deliberately naive round executor, fuzzed against `Simulation`: the
//! round as the model states it — `for v { for u in order { if link &&
//! transmits && survives { receive } } }` over fresh boxed nodes, nothing
//! classified, cached, counted in bulk or skipped, every sender of the
//! order walked (silent ones too) — against the engine's one delivery
//! walk. Seeds: `ADN_FUZZ_SEEDS` (default 300).

use anondyn::adversary::AdversarySpec::{AlternatingComplete, Complete, Random, Rotating, Spread};
use anondyn::adversary::AdversaryView;
use anondyn::consensus::AlgorithmFactory;
use anondyn::faults::{strategies, ByzContext};
use anondyn::net::Traffic;
use anondyn::prelude::*;
use anondyn::sim::DeliveryOrder::{self, AscendingSenders, DescendingSenders, Shuffled};
use anondyn::sim::{LinkMode, RoundTrace};
use anondyn::types::rng::SplitMix64;

type Run = (
    Vec<Option<Value>>,
    u64,
    StopReason,
    Traffic,
    Schedule,
    Vec<RoundTrace>,
);
type Strategies = Vec<Option<Box<dyn ByzantineStrategy>>>;

/// Run `seed`'s ingredients, everything stateful fresh per call: `n ≤ 12`;
/// DAC, DBAC or piggyback; crashes (full, empty and partial final
/// broadcasts) and Byzantine nodes within `f`; the three delivery orders;
/// every third run on sparse links, whatever else was drawn; one shard or,
/// every other run without Byzantine nodes, three.
type Parts = (
    Params,
    AlgorithmFactory,
    Box<dyn Adversary>,
    Strategies,
    CrashSchedule,
    DeliveryOrder,
    (LinkMode, usize),
);

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

fn draw(seed: u64) -> Parts {
    let mut rng = SplitMix64::new(seed ^ 0xD15C);
    let n = 4 + rng.next_index(9);
    let f = rng.next_index(n / 4 + 1);
    let params = Params::new(n, f, 1e-2).unwrap();
    let byz_count = rng.next_index(f + 1);
    let names = strategies::ALL_STRATEGY_NAMES;
    let mut byz: Strategies = (0..n).map(|_| None).collect();
    let mut crash = CrashSchedule::new(n);
    for k in 0..f {
        let some = rng.sample_indices(n, n / 2).into_iter().map(NodeId::new);
        let kinds = [
            CrashSurvivors::All,
            CrashSurvivors::None,
            CrashSurvivors::Subset(some.collect()),
        ];
        let survivors = kinds.into_iter().nth(rng.next_index(3)).unwrap();
        let name = names[rng.next_index(names.len())];
        if k < byz_count {
            byz[n - 1 - k] = Some(strategies::by_name(name, n, seed));
        } else {
            crash.crash(NodeId::new(k), Round::new(rng.next_below(6)), survivors);
        }
    }
    let (d, t) = (1 + rng.next_index(n - 1), 1 + rng.next_index(3));
    let p = 0.3 + 0.6 * rng.next_f64();
    // Complete bursts are verbatim: crashed and silent senders get links.
    let bursts = AlternatingComplete { period: t };
    let specs = [
        Complete,
        Rotating { d },
        Random { p },
        Spread { t, d },
        bursts,
    ];
    let adversary: Box<dyn Adversary> = match specs.get(rng.next_index(specs.len() + 1)) {
        Some(spec) => spec.build(n, f, seed),
        None => Box::new(Undisciplined {
            p,
            rng: SplitMix64::new(seed),
        }),
    };
    let shuffled = Shuffled(rng.next_u64());
    let orders = [AscendingSenders, DescendingSenders, shuffled];
    let order = orders[rng.next_index(3)];
    let pend = 1 + rng.next_below(6);
    let factory = match rng.next_index(3) {
        0 => factories::dac_with_pend(params, pend),
        1 => factories::dbac_with_pend(params, pend),
        _ => factories::dbac_piggyback(params, 2, pend),
    };
    let links = [LinkMode::Dense, LinkMode::Sparse][usize::from(seed.is_multiple_of(3))];
    let shards = if byz_count == 0 && seed.is_multiple_of(2) {
        3
    } else {
        1
    };
    (
        params,
        factory,
        adversary,
        byz,
        crash,
        order,
        (links, shards),
    )
}

fn reference(seed: u64, max_rounds: u64) -> Run {
    let (params, factory, mut adversary, mut byz, crash, order, _) = draw(seed);
    let n = params.n();
    let inputs = workload::random(n, seed);
    let mut nodes: Vec<_> = (0..n).map(|i| factory.make(i, inputs[i])).collect();
    let is_byz: Vec<bool> = byz.iter().map(Option::is_some).collect();
    let ports = PortNumbering::random(n, seed);
    let (mut traffic, mut schedule, mut t) = (Traffic::new(), Schedule::new(n), Round::ZERO);
    let mut traces = Vec::new();
    let fault_free: Vec<usize> = (0..n)
        .filter(|&i| !is_byz[i] && !crash.is_faulty(NodeId::new(i)))
        .collect();
    let undecided =
        |nodes: &[Box<dyn Algorithm>]| fault_free.iter().any(|&i| nodes[i].output().is_none());
    while t.as_u64() < max_rounds && undecided(&nodes) {
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
            nodes[u.index()].broadcast_into(sent[u.index()].insert(Batch::new()));
        }
        let mut senders: Vec<NodeId> = NodeId::all(n).collect();
        match order {
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
                nodes[v.index()].receive(ports.port_of(v, u), batch);
            }
        }
        schedule.push(realized);
        honest.for_each(|v| nodes[v.index()].end_round());
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
    let outputs = (0..n)
        .map(|i| nodes[i].output().filter(|_| !is_byz[i]))
        .collect();
    (outputs, t.as_u64(), reason, traffic, schedule, traces)
}

fn simulated(seed: u64, max_rounds: u64, plane: PlaneMode) -> Run {
    let (params, factory, adversary, byz, crash, order, (links, shards)) = draw(seed);
    let n = params.n();
    let mut b = Simulation::builder(params)
        .inputs_random(seed)
        .adversary(adversary)
        .ports(PortNumbering::random(n, seed))
        .crashes(crash)
        .delivery_order(order)
        .algorithm(factory)
        .algorithm_plane(plane)
        .link_mode(links)
        .shards(shards)
        .max_rounds(max_rounds);
    for (i, strategy) in byz.into_iter().enumerate() {
        b = strategy
            .into_iter()
            .fold(b, |b, s| b.byzantine(NodeId::new(i), s));
    }
    let out = b.run();
    let outputs = NodeId::all(n).map(|v| out.output_of(v)).collect();
    let (rounds, reason, traffic) = (out.rounds(), out.reason(), out.traffic());
    let (schedule, traces) = (out.schedule().clone(), out.traces().to_vec());
    (outputs, rounds, reason, traffic, schedule, traces)
}

#[test]
fn simulation_matches_the_naive_round_executor() {
    let seeds = std::env::var("ADN_FUZZ_SEEDS").map_or(300, |s| s.parse().unwrap());
    // Undisciplined draws with a crash, per delivery order; sparse draws
    // with a Byzantine node, per permuted order, and undisciplined.
    let mut undisciplined = [0u64; 3];
    let (mut sparse_byz, mut sparse_permuted, mut sparse_undisciplined) = (0, [0u64; 2], 0);
    for seed in 0..seeds {
        let expect = reference(seed, 40);
        assert_eq!(
            expect,
            simulated(seed, 40, PlaneMode::Never),
            "seed {seed}, boxed"
        );
        let (_, factory, adversary, byz, crash, order, (links, _)) = draw(seed);
        if factory.has_plane() {
            assert_eq!(
                expect,
                simulated(seed, 40, PlaneMode::Always),
                "seed {seed}, columnar"
            );
        }
        let order = match order {
            AscendingSenders => 0,
            DescendingSenders => 1,
            Shuffled(_) => 2,
        };
        let undisciplined_draw = adversary.name() == "undisciplined";
        if undisciplined_draw && crash.fault_count() > 0 {
            undisciplined[order] += 1;
        }
        if links == LinkMode::Sparse {
            sparse_byz += u64::from(byz.iter().any(Option::is_some));
            if order > 0 {
                sparse_permuted[order - 1] += 1;
            }
            sparse_undisciplined += u64::from(undisciplined_draw);
        }
    }
    if seeds >= 300 {
        assert!(
            undisciplined.iter().all(|&c| c > 0),
            "undisciplined draws with crashes by order: {undisciplined:?}"
        );
        assert!(sparse_byz > 0, "no sparse draw with a Byzantine node");
        assert!(
            sparse_permuted.iter().all(|&c| c > 0),
            "sparse draws by permuted order: {sparse_permuted:?}"
        );
        assert!(sparse_undisciplined > 0, "no sparse undisciplined draw");
    }
}
