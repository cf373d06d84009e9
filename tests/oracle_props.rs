//! Differential property tests: the optimized data structures against
//! naive oracles built from std collections.
//!
//! Randomized cases are driven by the workspace's own deterministic
//! [`SplitMix64`] stream (the container builds offline, so no proptest).

use std::collections::HashSet;

use anondyn::net::codec::{self, Precision};
use anondyn::prelude::*;
use anondyn::types::rng::SplitMix64;

// ---------------------------------------------------------------------
// NodeSet (bitset) vs HashSet.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum SetOp {
    Insert(usize),
    Remove(usize),
}

fn random_ops(rng: &mut SplitMix64, n: usize) -> Vec<SetOp> {
    let len = rng.next_index(60);
    (0..len)
        .map(|_| {
            if rng.next_bool(0.5) {
                SetOp::Insert(rng.next_index(n))
            } else {
                SetOp::Remove(rng.next_index(n))
            }
        })
        .collect()
}

#[test]
fn nodeset_matches_hashset() {
    let n = 70;
    for case in 0u64..128 {
        let mut rng = SplitMix64::new(0x5E7 ^ case);
        let mut fast = NodeSet::new(n);
        let mut oracle: HashSet<usize> = HashSet::new();
        for op in random_ops(&mut rng, n) {
            match op {
                SetOp::Insert(i) => {
                    let fresh = fast.insert(NodeId::new(i));
                    assert_eq!(fresh, oracle.insert(i), "case {case}");
                }
                SetOp::Remove(i) => {
                    let present = fast.remove(NodeId::new(i));
                    assert_eq!(present, oracle.remove(&i), "case {case}");
                }
            }
            assert_eq!(fast.len(), oracle.len(), "case {case}");
        }
        let listed: Vec<usize> = fast.iter().map(|id| id.index()).collect();
        let mut expect: Vec<usize> = oracle.into_iter().collect();
        expect.sort_unstable();
        assert_eq!(listed, expect, "case {case}");
    }
}

#[test]
fn nodeset_union_difference_match_hashset() {
    let n = 80;
    for case in 0u64..128 {
        let mut rng = SplitMix64::new(0xD1F ^ case);
        let random_set = |rng: &mut SplitMix64| -> HashSet<usize> {
            (0..rng.next_index(40)).map(|_| rng.next_index(n)).collect()
        };
        let a = random_set(&mut rng);
        let b = random_set(&mut rng);
        let mk = |s: &HashSet<usize>| NodeSet::from_ids(n, s.iter().map(|&i| NodeId::new(i)));
        let mut u = mk(&a);
        u.union_with(&mk(&b));
        assert_eq!(u.len(), a.union(&b).count(), "case {case}");
        let mut d = mk(&a);
        d.difference_with(&mk(&b));
        assert_eq!(d.len(), a.difference(&b).count(), "case {case}");
        assert_eq!(
            mk(&a).intersection_len(&mk(&b)),
            a.intersection(&b).count(),
            "case {case}"
        );
    }
}

// ---------------------------------------------------------------------
// Schedule window union vs naive per-pair recomputation.
// ---------------------------------------------------------------------

#[test]
fn window_union_matches_naive() {
    for case in 0u64..48 {
        let mut rng = SplitMix64::new(0x9A7 ^ case);
        let n = 6;
        let rounds = 1 + rng.next_index(9); // 1..10
        let t = 1 + rng.next_index(4); // 1..5
        let mut sched = Schedule::new(n);
        for _ in 0..rounds {
            sched.push(anondyn::graph::generators::gnp(n, 0.35, &mut rng));
        }
        for start in 0..rounds {
            let fast = sched.window_union(Round::new(start as u64), t);
            // Naive: test membership of every possible pair.
            for u in NodeId::all(n) {
                for v in NodeId::all(n) {
                    if u == v {
                        continue;
                    }
                    let expect = (start..(start + t).min(rounds))
                        .any(|k| sched.round(Round::new(k as u64)).unwrap().contains(u, v));
                    assert_eq!(fast.contains(u, v), expect, "case {case} ({u}, {v})");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Codec: exhaustive grid roundtrip + random message roundtrips.
// ---------------------------------------------------------------------

#[test]
fn codec_grid_points_roundtrip_exactly() {
    for bits in [1u8, 3, 7, 12] {
        let p = Precision::new(bits);
        let levels = 1u64 << bits;
        for i in 0..=levels {
            let v = codec::dequantize(i, p);
            assert_eq!(codec::quantize(v, p), i, "bits={bits} i={i}");
        }
    }
}

#[test]
fn codec_roundtrip_random_messages() {
    let mut rng = SplitMix64::new(0xC0D);
    for case in 0u64..256 {
        let v = rng.next_f64();
        let phase = rng.next_below(1_000_000);
        let bits = 1 + rng.next_index(29) as u8; // 1..30
        let p = Precision::new(bits);
        let msg = Message::new(Value::saturating(v), Phase::new(phase));
        let mut buf = Vec::new();
        codec::encode(msg, p, &mut buf);
        let (decoded, used) = codec::decode(&buf, p).expect("well-formed");
        assert_eq!(used, buf.len(), "case {case}");
        assert_eq!(decoded.phase().as_u64(), phase, "case {case}");
        // Error at most half a grid step.
        assert!(
            decoded.value().distance(msg.value()) <= p.resolution() / 2.0 + 1e-15,
            "case {case}"
        );
        // Re-encoding the decoded message is a fixed point.
        let mut buf2 = Vec::new();
        codec::encode(decoded, p, &mut buf2);
        assert_eq!(buf, buf2, "case {case}");
    }
}

// ---------------------------------------------------------------------
// Traffic model vs event log (cross-subsystem consistency).
// ---------------------------------------------------------------------

#[test]
fn traffic_equals_event_log_deliveries() {
    for case in 0u64..16 {
        let mut rng = SplitMix64::new(0x7AF ^ case);
        let seed = rng.next_u64();
        let p = 0.2 + 0.7 * rng.next_f64();
        let n = 7;
        let params = Params::fault_free(n, 1e-2).unwrap();
        let outcome = Simulation::builder(params)
            .record_schedule(true)
            .inputs_random(seed)
            .adversary(AdversarySpec::Random { p }.build(n, 0, seed))
            .algorithm(factories::dac(params))
            .record_events(true)
            .max_rounds(10_000)
            .run();
        let log = outcome.events().unwrap();
        let deliveries = log
            .events()
            .iter()
            .filter(|e| matches!(e, anondyn::sim::Event::Delivery { .. }))
            .count() as u64;
        assert_eq!(deliveries, outcome.traffic().deliveries(), "case {case}");
        assert_eq!(
            deliveries,
            outcome.schedule().total_edges() as u64,
            "case {case}"
        );
    }
}
