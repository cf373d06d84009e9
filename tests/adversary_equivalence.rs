//! Differential fuzz of the word-parallel adversary gallery.
//!
//! Every gallery strategy fills the engine's reused edge set in place
//! (`Adversary::edges_into`) with word-parallel row operations. This file
//! pins the port: for each strategy, a per-receiver `Vec`-based **oracle**
//! replicating the pre-port `edges()` body is driven through the same
//! sequence of adversary views — across seeds × crash schedules × silent
//! flicker (non-monotone deliverer sets) — and every round's links must be
//! **byte-identical**, through `edges_into` *and* through the sparse
//! `sparse_into` row fill (decoded back to an `EdgeSet` via
//! `LinkPlane::fill_edgeset`).
//!
//! `Spread` is the one strategy whose semantics were *fixed* in the port
//! (fresh-sender installments instead of raw slice re-indexing, see its
//! docs): its oracle encodes the fixed per-receiver semantics, and — on
//! every round whose window has seen a stable deliverer set — additionally
//! checks that the fixed semantics coincide with the pre-fix slice
//! indexing, pinning schedule byte-compatibility with the old `edges()`
//! everywhere the old code met its documented guarantee.
//!
//! Seed count defaults to 300; override with `ADN_FUZZ_SEEDS` (CI runs a
//! reduced count to keep the job fast).

use anondyn::adversary::{
    AdaptiveClosest, Adversary, AdversaryView, Alternating, Complete, Eventually, Isolate, OmitOne,
    OmitRule, Partition, RandomLinks, Rotating, Silence, Spread, Staggered, Theorem10Split,
};
use anondyn::graph::{generators, EdgeSet, LinkPlane, NodeSet};
use anondyn::types::rng::SplitMix64;
use anondyn::types::{NodeId, Params, Phase, Round, Value};

fn fuzz_seeds() -> u64 {
    std::env::var("ADN_FUZZ_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(300)
}

/// The pre-port per-receiver candidate list: delivering senders minus the
/// receiver, ascending.
fn senders_for(view: &AdversaryView<'_>, v: NodeId) -> Vec<NodeId> {
    view.deliverers.iter().filter(|&u| u != v).collect()
}

type Oracle = Box<dyn FnMut(&AdversaryView<'_>) -> EdgeSet>;

fn oracle_complete() -> Oracle {
    Box::new(|view| {
        let n = view.params.n();
        let mut e = EdgeSet::empty(n);
        for v in NodeId::all(n) {
            for u in senders_for(view, v) {
                e.insert(u, v);
            }
        }
        e
    })
}

fn oracle_silence() -> Oracle {
    Box::new(|view| EdgeSet::empty(view.params.n()))
}

fn oracle_rotating(d: usize) -> Oracle {
    Box::new(move |view| {
        let n = view.params.n();
        let t = view.round.as_u64() as usize;
        let mut e = EdgeSet::empty(n);
        for v in NodeId::all(n) {
            let senders = senders_for(view, v);
            if senders.is_empty() {
                continue;
            }
            let dd = d.min(senders.len());
            let start = (t * dd + v.index()) % senders.len();
            for k in 0..dd {
                e.insert(senders[(start + k) % senders.len()], v);
            }
        }
        e
    })
}

fn oracle_staggered(d: usize, groups: usize) -> Oracle {
    Box::new(move |view| {
        let n = view.params.n();
        let t = view.round.as_u64() as usize;
        let turn = t % groups;
        let mut e = EdgeSet::empty(n);
        for v in NodeId::all(n) {
            if v.index() % groups != turn {
                continue;
            }
            let senders = senders_for(view, v);
            if senders.is_empty() {
                continue;
            }
            let dd = d.min(senders.len());
            let start = (t * dd + v.index()) % senders.len();
            for k in 0..dd {
                e.insert(senders[(start + k) % senders.len()], v);
            }
        }
        e
    })
}

/// Fixed `Spread` semantics (fresh senders, never repeating within a
/// window), plus the stable-window byte-compatibility side check against
/// the pre-fix slice indexing.
fn oracle_spread(t_window: usize, d: usize) -> Oracle {
    let mut heard: Vec<Vec<NodeId>> = Vec::new();
    let mut window_deliverers: Option<NodeSet> = None;
    let mut stable = false;
    Box::new(move |view| {
        let n = view.params.n();
        if heard.len() != n {
            heard = vec![Vec::new(); n];
        }
        let k = (view.round.as_u64() as usize) % t_window;
        if k == 0 {
            for h in &mut heard {
                h.clear();
            }
            window_deliverers = Some(view.deliverers.clone());
            stable = true;
        }
        stable = stable && window_deliverers.as_ref() == Some(view.deliverers);
        let lo = k * d / t_window;
        let hi = (k + 1) * d / t_window;
        let mut e = EdgeSet::empty(n);
        for v in NodeId::all(n) {
            let fresh: Vec<NodeId> = senders_for(view, v)
                .into_iter()
                .filter(|u| !heard[v.index()].contains(u))
                .take(hi - lo)
                .collect();
            for &u in &fresh {
                e.insert(u, v);
                heard[v.index()].push(u);
            }
        }
        if stable {
            // Deliverers unchanged since the window start: the fresh
            // installments must be exactly the pre-fix id slices — the
            // old `edges()` output, byte for byte.
            let mut old = EdgeSet::empty(n);
            for v in NodeId::all(n) {
                let senders = senders_for(view, v);
                for offset in lo..hi {
                    if let Some(&u) = senders.get(offset) {
                        old.insert(u, v);
                    }
                }
            }
            assert_eq!(
                e, old,
                "spread: fixed semantics diverge from the old slicing on a stable window"
            );
        }
        e
    })
}

fn oracle_alternating(period: usize, burst: EdgeSet) -> Oracle {
    Box::new(move |view| {
        let t = view.round.as_u64() as usize;
        if t % period == period - 1 {
            burst.clone()
        } else {
            EdgeSet::empty(view.params.n())
        }
    })
}

fn oracle_partition(split: usize) -> Oracle {
    Box::new(move |view| {
        let n = view.params.n();
        let mut e = EdgeSet::empty(n);
        for v in NodeId::all(n) {
            let same_group = |u: NodeId| (u.index() < split) == (v.index() < split);
            for u in view.deliverers.iter() {
                if u != v && same_group(u) {
                    e.insert(u, v);
                }
            }
        }
        e
    })
}

fn oracle_theorem10(group_size: usize) -> Oracle {
    Box::new(move |view| {
        let n = view.params.n();
        let a_end = group_size;
        let b_start = n - group_size;
        let mut e = EdgeSet::empty(n);
        for v in NodeId::all(n) {
            for u in view.deliverers.iter() {
                if u == v {
                    continue;
                }
                let share_a = u.index() < a_end && v.index() < a_end;
                let share_b = u.index() >= b_start && v.index() >= b_start;
                if share_a || share_b {
                    e.insert(u, v);
                }
            }
        }
        e
    })
}

fn oracle_random(p: f64, seed: u64) -> Oracle {
    let mut rng = SplitMix64::new(seed);
    Box::new(move |view| {
        let n = view.params.n();
        let mut e = EdgeSet::empty(n);
        for v in NodeId::all(n) {
            for u in view.deliverers.iter() {
                if u != v && rng.next_bool(p) {
                    e.insert(u, v);
                }
            }
        }
        e
    })
}

fn oracle_adaptive(d: usize) -> Oracle {
    Box::new(move |view| {
        let n = view.params.n();
        let mut e = EdgeSet::empty(n);
        for v in NodeId::all(n) {
            let my_value = view.values[v.index()].get();
            let mut senders = senders_for(view, v);
            senders.sort_by(|&a, &b| {
                let da = (view.values[a.index()].get() - my_value).abs();
                let db = (view.values[b.index()].get() - my_value).abs();
                da.total_cmp(&db).then(a.cmp(&b))
            });
            for &u in senders.iter().take(d) {
                e.insert(u, v);
            }
        }
        e
    })
}

fn oracle_omit(rule: OmitRule) -> Oracle {
    Box::new(move |view| {
        let n = view.params.n();
        let t = view.round.as_u64() as usize;
        let mut e = EdgeSet::empty(n);
        for v in NodeId::all(n) {
            let senders = senders_for(view, v);
            if senders.is_empty() {
                continue;
            }
            let omit_idx = match rule {
                OmitRule::LowestValue => senders
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        view.values[a.index()]
                            .cmp(&view.values[b.index()])
                            .then(a.cmp(b))
                    })
                    .map(|(i, _)| i)
                    .expect("senders non-empty"),
                OmitRule::HighestValue => senders
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| {
                        view.values[a.index()]
                            .cmp(&view.values[b.index()])
                            .then(b.cmp(a))
                    })
                    .map(|(i, _)| i)
                    .expect("senders non-empty"),
                OmitRule::RoundRobin => (t + v.index()) % senders.len(),
            };
            for (i, &u) in senders.iter().enumerate() {
                if i != omit_idx {
                    e.insert(u, v);
                }
            }
        }
        e
    })
}

fn oracle_eventually(stabilize_at: Round) -> Oracle {
    Box::new(move |view| {
        let n = view.params.n();
        let mut e = EdgeSet::empty(n);
        if view.round < stabilize_at {
            return e;
        }
        for v in NodeId::all(n) {
            for u in senders_for(view, v) {
                e.insert(u, v);
            }
        }
        e
    })
}

fn oracle_isolate(victim: NodeId, from: Round, duration: u64) -> Oracle {
    Box::new(move |view| {
        let n = view.params.n();
        let cut = view.round >= from && view.round.as_u64() < from.as_u64() + duration;
        let mut e = EdgeSet::empty(n);
        for v in NodeId::all(n) {
            if cut && v == victim {
                continue;
            }
            for u in view.deliverers.iter() {
                if u == v || (cut && u == victim) {
                    continue;
                }
                e.insert(u, v);
            }
        }
        e
    })
}

struct Case {
    name: &'static str,
    /// Driven through `edges_into` (the word-parallel port).
    ported: Box<dyn Adversary>,
    /// A twin instance driven through the sparse `sparse_into` fill.
    sparse: Box<dyn Adversary>,
    oracle: Oracle,
}

impl Case {
    fn new<A: Adversary + Clone + 'static>(name: &'static str, adv: A, oracle: Oracle) -> Case {
        Case {
            name,
            ported: Box::new(adv.clone()),
            sparse: Box::new(adv),
            oracle,
        }
    }
}

/// One fuzzed execution: a fault pattern (crashes that silence senders
/// from the next round, plus an optional every-other-round flicker node)
/// drives all strategies through identical view sequences.
fn run_seed(seed: u64) {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x6A11);
    // Mostly small systems (cheap, dense coverage of the window
    // arithmetic), but every fourth seed straddles the 64-bit word
    // boundary so the multi-word paths of the row operations — boundary
    // masks, rank/nth word walks, the fresh-sender bit-clearing loop —
    // are fuzzed too, not just unit-tested.
    let n = if seed % 4 == 3 {
        [63, 64, 65, 66, 100, 130][rng.next_index(6)]
    } else {
        4 + rng.next_index(17) // 4..=20
    };
    let rounds = 20u64;

    let d = 1 + rng.next_index(n - 1);
    let t_window = 1 + rng.next_index(4);
    let groups = 1 + rng.next_index(4);
    let period = 1 + rng.next_index(3);
    let split = 1 + rng.next_index(n - 1);
    // Valid Theorem 10 fault bounds: 3f <= n keeps the groups within n,
    // and odd n needs f >= 1 for them to overlap.
    let f10_min = n % 2;
    let f10 = f10_min + rng.next_index(n / 3 - f10_min + 1);
    let t10 = Theorem10Split::for_params(n, f10);
    let p = rng.next_f64();
    let rl_seed = rng.next_u64();
    let stabilize = Round::new(rng.next_below(8));
    let victim = NodeId::new(rng.next_index(n));
    let iso_from = Round::new(rng.next_below(6));
    let iso_len = 1 + rng.next_below(8);

    let mut cases = vec![
        Case::new("complete", Complete, oracle_complete()),
        Case::new("silence", Silence, oracle_silence()),
        Case::new("rotating", Rotating::new(d), oracle_rotating(d)),
        Case::new(
            "spread",
            Spread::new(t_window, d),
            oracle_spread(t_window, d),
        ),
        Case::new(
            "staggered",
            Staggered::new(d, groups),
            oracle_staggered(d, groups),
        ),
        Case::new(
            "alternating",
            Alternating::complete_bursts(n, period),
            oracle_alternating(period, generators::complete(n)),
        ),
        Case::new("partition", Partition::new(split), oracle_partition(split)),
        Case::new("theorem10", t10, oracle_theorem10(t10.group_size())),
        Case::new(
            "random-links",
            RandomLinks::new(p, rl_seed),
            oracle_random(p, rl_seed),
        ),
        Case::new(
            "adaptive-closest",
            AdaptiveClosest::new(d),
            oracle_adaptive(d),
        ),
        Case::new(
            "omit-lowest",
            OmitOne::new(OmitRule::LowestValue),
            oracle_omit(OmitRule::LowestValue),
        ),
        Case::new(
            "omit-highest",
            OmitOne::new(OmitRule::HighestValue),
            oracle_omit(OmitRule::HighestValue),
        ),
        Case::new(
            "omit-round-robin",
            OmitOne::new(OmitRule::RoundRobin),
            oracle_omit(OmitRule::RoundRobin),
        ),
        Case::new(
            "eventually",
            Eventually::new(stabilize),
            oracle_eventually(stabilize),
        ),
        Case::new(
            "isolate",
            Isolate::new(victim, iso_from, iso_len),
            oracle_isolate(victim, iso_from, iso_len),
        ),
    ];

    // Fault pattern: up to 3 crashers (silent strictly after their crash
    // round, mirroring `CrashSurvivors::All`), plus an optional node that
    // flickers silent every other round (a non-monotone deliverer set —
    // the regime where naive window re-indexing would repeat senders).
    let crash_count = rng.next_index(4);
    let crashers: Vec<(usize, u64)> = (0..crash_count)
        .map(|k| (n - 1 - k, rng.next_below(rounds)))
        .collect();
    let flicker = rng.next_bool(0.5).then(|| rng.next_index(n));

    let params = Params::new(n, 0, 0.1).unwrap();
    let phases = vec![Phase::ZERO; n];
    let honest = NodeSet::full(n);
    let mut vrng = SplitMix64::new(seed ^ 0x7A15);
    let mut out = EdgeSet::empty(n);
    let mut plane = LinkPlane::new(n);
    let mut plane_out = EdgeSet::empty(n);
    for t in 0..rounds {
        let values: Vec<Value> = (0..n).map(|_| Value::saturating(vrng.next_f64())).collect();
        let mut deliverers = NodeSet::full(n);
        for &(node, crash_round) in &crashers {
            if t > crash_round {
                deliverers.remove(NodeId::new(node));
            }
        }
        if let Some(fl) = flicker {
            if t % 2 == 1 {
                deliverers.remove(NodeId::new(fl));
            }
        }
        let view = AdversaryView {
            round: Round::new(t),
            params,
            phases: &phases,
            values: &values,
            deliverers: &deliverers,
            honest: &honest,
        };
        for case in &mut cases {
            out.clear();
            case.ported.edges_into(&view, &mut out);
            let expect = (case.oracle)(&view);
            assert_eq!(
                out, expect,
                "seed {seed} round {t}: {} edges_into diverges from the reference",
                case.name
            );
            // Every gallery strategy also declares a sparse row fill; a
            // twin drives it and the recorded rows — decoded back
            // through the run/CSR semantics — must be the same links.
            assert!(
                case.sparse.sparse_capable(),
                "{} lost its sparse fill",
                case.name
            );
            plane.begin_round(&deliverers);
            case.sparse.sparse_into(&view, &mut plane);
            plane.fill_edgeset(&mut plane_out);
            assert_eq!(
                plane_out, expect,
                "seed {seed} round {t}: {} sparse rows diverge from the reference",
                case.name
            );
        }
    }
}

#[test]
fn gallery_matches_per_receiver_reference() {
    for seed in 0..fuzz_seeds() {
        run_seed(seed);
    }
}

#[test]
fn figure1_matches_reference_under_flicker() {
    let n = 3;
    let params = Params::new(n, 0, 0.1).unwrap();
    let phases = vec![Phase::ZERO; n];
    let values: Vec<Value> = (0..n)
        .map(|i| Value::saturating(i as f64 / n as f64))
        .collect();
    let honest = NodeSet::full(n);
    let burst = EdgeSet::from_pairs(3, [(0, 1), (1, 0), (1, 2), (2, 1)]);
    let mut ported = Alternating::figure1();
    let mut oracle = oracle_alternating(2, burst);
    let mut out = EdgeSet::empty(n);
    for t in 0..8u64 {
        let mut deliverers = NodeSet::full(n);
        if t % 3 == 0 {
            deliverers.remove(NodeId::new(1)); // flicker: burst is fixed regardless
        }
        let view = AdversaryView {
            round: Round::new(t),
            params,
            phases: &phases,
            values: &values,
            deliverers: &deliverers,
            honest: &honest,
        };
        out.clear();
        ported.edges_into(&view, &mut out);
        let expect = oracle(&view);
        assert_eq!(out, expect, "round {t}");
    }
}
