//! Algorithm factories for the simulation builder.
//!
//! A factory maps `(node_index, input)` to a boxed [`Algorithm`] state
//! machine; the builder instantiates one per fault-free node. The node
//! index is provided for algorithms that take per-node configuration (none
//! of the paper's algorithms do — anonymity! — but strawmen and test
//! doubles may).

use adn_core::baseline::{Bac, LocalAverager, MinFlood, ReliableAc, TrimmedLocalAverager};
use adn_core::{
    Algorithm, AlgorithmFactory, Dac, DacPlane, Dbac, DbacPiggyback, DbacPlane, FullExchange, Lanes,
};
use adn_types::Params;

/// The lane fingerprint of a DAC/DBAC factory: a deterministic mix of
/// the algorithm tag and every constructor parameter the closures
/// capture. Two factory instances produce interchangeable lane planes
/// iff their keys are equal (see `AlgorithmFactory::with_lanes`).
fn lane_key(algo: u64, params: Params, pend: u64) -> u64 {
    let mut key = algo;
    for x in [
        params.n() as u64,
        params.f() as u64,
        params.eps().to_bits(),
        pend,
    ] {
        key = (key ^ x)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
    }
    key
}

/// DAC with the paper's `pend = ⌈log₂(1/ε)⌉`. Plane-capable: the engine
/// may drive all nodes as one columnar [`DacPlane`].
pub fn dac(params: Params) -> AlgorithmFactory {
    dac_with_pend(params, params.dac_pend())
}

/// DAC with an explicit termination phase. Plane- and lane-capable.
pub fn dac_with_pend(params: Params, pend: u64) -> AlgorithmFactory {
    AlgorithmFactory::with_plane(
        move |_, input| Box::new(Dac::with_pend(params, input, pend)) as Box<dyn Algorithm>,
        move |inputs| Box::new(DacPlane::with_pend(params, inputs, pend)),
    )
    .with_lanes(lane_key(1, params, pend), move |inputs| {
        Box::new(Lanes::<DacPlane>::with_pend(params, inputs, pend))
    })
}

/// DBAC with the paper's Eq. (6) termination phase. Plane-capable: the
/// engine may drive all nodes as one columnar [`DbacPlane`].
pub fn dbac(params: Params) -> AlgorithmFactory {
    dbac_with_pend(params, params.dbac_pend())
}

/// DBAC with an explicit termination phase (experiments use this; Eq. (6)
/// is very conservative). Plane-capable.
pub fn dbac_with_pend(params: Params, pend: u64) -> AlgorithmFactory {
    AlgorithmFactory::with_plane(
        move |_, input| Box::new(Dbac::with_pend(params, input, pend)) as Box<dyn Algorithm>,
        move |inputs| Box::new(DbacPlane::with_pend(params, inputs, pend)),
    )
    .with_lanes(lane_key(2, params, pend), move |inputs| {
        Box::new(Lanes::<DbacPlane>::with_pend(params, inputs, pend))
    })
}

/// DBAC piggybacking up to `k` past states, explicit termination phase.
pub fn dbac_piggyback(params: Params, k: usize, pend: u64) -> AlgorithmFactory {
    AlgorithmFactory::new(move |_, input| {
        Box::new(DbacPiggyback::with_pend(params, input, k, pend))
    })
}

/// The §VII full-exchange construction: same-phase quorums restored by a
/// bounded piggybacked history of `k` past states; guaranteed rate 1/2.
pub fn full_exchange(params: Params, k: usize) -> AlgorithmFactory {
    AlgorithmFactory::new(move |_, input| Box::new(FullExchange::new(params, input, k)))
}

/// The reliable-channel averaging baseline.
pub fn reliable_ac(params: Params) -> AlgorithmFactory {
    AlgorithmFactory::new(move |_, input| Box::new(ReliableAc::new(params, input)))
}

/// The classic same-phase-quorum Byzantine baseline (blocks under dynamic
/// adversaries).
pub fn bac(params: Params) -> AlgorithmFactory {
    AlgorithmFactory::new(move |_, input| Box::new(Bac::new(params, input)))
}

/// Strawman that decides after `rounds` rounds (impossibility demos).
pub fn local_averager(rounds: u64) -> AlgorithmFactory {
    AlgorithmFactory::new(move |_, input| Box::new(LocalAverager::new(input, rounds)))
}

/// Min-flooding exact-consensus attempt (Corollary 1 demo).
pub fn min_flood(rounds: u64) -> AlgorithmFactory {
    AlgorithmFactory::new(move |_, input| Box::new(MinFlood::new(input, rounds)))
}

/// Trimming strawman for the Byzantine impossibility demo.
pub fn trimmed_local_averager(n: usize, f: usize, rounds: u64) -> AlgorithmFactory {
    AlgorithmFactory::new(move |_, input| Box::new(TrimmedLocalAverager::new(n, f, input, rounds)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_types::Value;

    #[test]
    fn factories_build_named_algorithms() {
        let p = Params::new(6, 1, 0.1).unwrap();
        let cases: Vec<(AlgorithmFactory, &str)> = vec![
            (dac(p), "dac"),
            (dac_with_pend(p, 3), "dac"),
            (dbac(p), "dbac"),
            (dbac_with_pend(p, 3), "dbac"),
            (dbac_piggyback(p, 2, 3), "dbac-piggyback"),
            (full_exchange(p, 2), "full-exchange"),
            (reliable_ac(p), "reliable-ac"),
            (bac(p), "bac"),
            (local_averager(5), "local-averager"),
            (min_flood(5), "min-flood"),
            (trimmed_local_averager(6, 1, 5), "trimmed-local-averager"),
        ];
        for (factory, expected) in cases {
            let alg = factory.make(0, Value::HALF);
            assert_eq!(alg.name(), expected);
            assert_eq!(alg.current_value(), Value::HALF);
        }
    }

    // Of the core factories only DAC and DBAC are plane-capable; the
    // `quantized` wrapper *inherits* the capability of its inner factory
    // (tested in `crate::quantized`).
    #[test]
    fn plane_capability_is_dac_dbac_only() {
        let p = Params::new(6, 1, 0.1).unwrap();
        for (factory, plane) in [
            (dac(p), true),
            (dac_with_pend(p, 3), true),
            (dbac(p), true),
            (dbac_with_pend(p, 3), true),
            (dbac_piggyback(p, 2, 3), false),
            (full_exchange(p, 2), false),
            (reliable_ac(p), false),
            (bac(p), false),
            (local_averager(5), false),
            (min_flood(5), false),
        ] {
            assert_eq!(factory.has_plane(), plane, "{factory:?}");
        }
        // A built plane mirrors the trait nodes' initial state.
        let plane = dac(p).make_plane(&[Value::HALF; 6]).unwrap();
        assert_eq!(plane.n(), 6);
        assert_eq!(plane.name(), "dac");
        assert!(plane.values().iter().all(|&v| v == Value::HALF));
    }
}
