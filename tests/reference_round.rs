//! A deliberately naive round executor, fuzzed against `Simulation`: the
//! round as the model states it — `for v { for u in order { if link &&
//! transmits && survives { receive } } }` over fresh boxed nodes, nothing
//! classified, cached, counted in bulk or skipped — against the engine's
//! one delivery walk. Seeds: `ADN_FUZZ_SEEDS` (default 300).

use anondyn::adversary::AdversarySpec::{Complete, Random, Rotating, Spread};
use anondyn::adversary::AdversaryView;
use anondyn::consensus::AlgorithmFactory;
use anondyn::faults::{strategies, ByzContext};
use anondyn::net::Traffic;
use anondyn::prelude::*;
use anondyn::sim::DeliveryOrder::{self, AscendingSenders, DescendingSenders, Shuffled};
use anondyn::sim::LinkMode;
use anondyn::types::rng::SplitMix64;

type Run = (Vec<Option<Value>>, u64, StopReason, Traffic, Schedule);
type Strategies = Vec<Option<Box<dyn ByzantineStrategy>>>;

/// Run `seed`'s ingredients, everything stateful fresh per call: `n ≤ 12`;
/// DAC, DBAC or piggyback; crashes (full, empty and partial final
/// broadcasts) and Byzantine nodes within `f`; the three delivery orders;
/// every third run on sparse links (ascending order, crash faults only),
/// on one shard or three — `None` is a dense run.
type Parts = (
    Params,
    AlgorithmFactory,
    Box<dyn Adversary>,
    Strategies,
    CrashSchedule,
    DeliveryOrder,
    Option<usize>,
);

fn draw(seed: u64) -> Parts {
    let mut rng = SplitMix64::new(seed ^ 0xD15C);
    let (n, sparse) = (4 + rng.next_index(9), seed.is_multiple_of(3));
    let f = rng.next_index(n / 4 + 1);
    let params = Params::new(n, f, 1e-2).unwrap();
    let byz_count = if sparse { 0 } else { rng.next_index(f + 1) };
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
    let specs = [Complete, Rotating { d }, Random { p }, Spread { t, d }];
    let adversary = specs[rng.next_index(4)].build(n, f, seed);
    let shuffled = Shuffled(rng.next_u64());
    let orders = [AscendingSenders, DescendingSenders, shuffled];
    let order = orders[if sparse { 0 } else { rng.next_index(3) }];
    let pend = 1 + rng.next_below(6);
    let factory = match rng.next_index(3) {
        0 => factories::dac_with_pend(params, pend),
        1 => factories::dbac_with_pend(params, pend),
        _ => factories::dbac_piggyback(params, 2, pend),
    };
    let shards = sparse.then_some(if seed.is_multiple_of(2) { 3 } else { 1 });
    (params, factory, adversary, byz, crash, order, shards)
}

fn reference(seed: u64, max_rounds: u64) -> Run {
    let (params, factory, mut adversary, mut byz, crash, order, _) = draw(seed);
    let n = params.n();
    let inputs = workload::random(n, seed);
    let mut nodes: Vec<_> = (0..n).map(|i| factory.make(i, inputs[i])).collect();
    let is_byz: Vec<bool> = byz.iter().map(Option::is_some).collect();
    let ports = PortNumbering::random(n, seed);
    let (mut traffic, mut schedule, mut t) = (Traffic::new(), Schedule::new(n), Round::ZERO);
    let undecided = |nodes: &[Box<dyn Algorithm>]| {
        let fault_free = |v: &NodeId| !is_byz[v.index()] && !crash.is_faulty(*v);
        NodeId::all(n).any(|v| fault_free(&v) && nodes[v.index()].output().is_none())
    };
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
        t = t.next();
    }
    let reason = [StopReason::AllOutput, StopReason::MaxRounds][usize::from(undecided(&nodes))];
    let outputs = (0..n)
        .map(|i| nodes[i].output().filter(|_| !is_byz[i]))
        .collect();
    (outputs, t.as_u64(), reason, traffic, schedule)
}

fn simulated(seed: u64, max_rounds: u64, plane: PlaneMode) -> Run {
    let (params, factory, adversary, byz, crash, order, shards) = draw(seed);
    let n = params.n();
    let mut b = Simulation::builder(params)
        .inputs_random(seed)
        .adversary(adversary)
        .ports(PortNumbering::random(n, seed))
        .crashes(crash)
        .delivery_order(order)
        .algorithm(factory)
        .algorithm_plane(plane)
        .link_mode(shards.map_or(LinkMode::Dense, |_| LinkMode::Sparse))
        .shards(shards.unwrap_or(1))
        .max_rounds(max_rounds);
    for (i, strategy) in byz.into_iter().enumerate() {
        b = strategy
            .into_iter()
            .fold(b, |b, s| b.byzantine(NodeId::new(i), s));
    }
    let out = b.run();
    let outputs = NodeId::all(n).map(|v| out.output_of(v)).collect();
    let (traffic, schedule) = (out.traffic(), out.schedule().clone());
    (outputs, out.rounds(), out.reason(), traffic, schedule)
}

#[test]
fn simulation_matches_the_naive_round_executor() {
    let seeds = std::env::var("ADN_FUZZ_SEEDS").map_or(300, |s| s.parse().unwrap());
    for seed in 0..seeds {
        let expect = reference(seed, 40);
        assert_eq!(
            expect,
            simulated(seed, 40, PlaneMode::Never),
            "seed {seed}, boxed"
        );
        if draw(seed).1.has_plane() {
            assert_eq!(
                expect,
                simulated(seed, 40, PlaneMode::Always),
                "seed {seed}, columnar"
            );
        }
    }
}
