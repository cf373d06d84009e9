//! Memory-scaling pin for the sparse link plane.
//!
//! The point of the row-kind link plane is that adversaries with
//! structured footprints (rotation windows, id ranges, thin CSR rows)
//! cost O(active links) — not O(n²) — to represent. These tests pin the
//! headline ratio from the scaling work: at n = 16 384, a rotating
//! adversary's link plane must occupy at most a **tenth** of the dense
//! n×n bitmap it replaces (the words form holds n rows of n bits, i.e.
//! n²/8 bytes of heap) — with or without Byzantine senders.

use anondyn::prelude::*;
use anondyn::sim::{LinkMode, PlaneMode};

#[test]
fn sparse_rotating_link_plane_is_at_least_10x_smaller_than_dense_at_16k() {
    let n = 16_384;
    let params = Params::fault_free(n, 0.25).unwrap();
    let mut sim = Simulation::builder(params)
        .inputs_random(1)
        .adversary(AdversarySpec::Rotating { d: n / 2 + 1 }.build(n, 0, 7))
        .algorithm(factories::dac_with_pend(params, u64::MAX))
        .algorithm_plane(PlaneMode::Always)
        .link_mode(LinkMode::Sparse)
        .record_schedule(false)
        .observe_phases(false)
        .max_rounds(u64::MAX)
        .build();
    assert!(sim.uses_sparse_links(), "explicit sparse mode must engage");
    // One round fills every row (rotation rows have constant shape, so
    // the plane's run arena is already at steady capacity) before the
    // heap is measured.
    sim.step();
    assert!(sim.stopped().is_none(), "run must still be live");
    let sparse_bytes = sim
        .link_plane_heap_bytes()
        .expect("sparse runs expose the link-plane heap");
    let dense_bitmap_bytes = n * n / 8;
    assert!(
        sparse_bytes * 10 <= dense_bitmap_bytes,
        "sparse link plane ({sparse_bytes} B) must be ≤ 1/10 of the dense \
         bitmap ({dense_bitmap_bytes} B) at n={n}; ratio {:.1}x",
        dense_bitmap_bytes as f64 / sparse_bytes as f64
    );
}

/// `LinkMode::Auto` keeps a Byzantine run on run rows past the port cap:
/// DBAC at n = 16 384 with sixteen stock strategies under a rotating
/// window holds its links in a tenth of one dense n×n bitmap (words would
/// take n²/8 bytes).
#[test]
fn byzantine_auto_run_stays_on_run_rows_at_16k() {
    use anondyn::faults::strategies::{by_name, ALL_STRATEGY_NAMES};
    let (n, f) = (16_384, 16);
    let params = Params::new(n, f, 0.25).unwrap();
    let mut b = Simulation::builder(params)
        .inputs_random(1)
        .adversary(
            AdversarySpec::Rotating {
                d: (n + 3 * f) / 2 + 1,
            }
            .build(n, f, 7),
        )
        .algorithm(factories::dbac_with_pend(params, u64::MAX))
        .algorithm_plane(PlaneMode::Always)
        .record_schedule(false)
        .observe_phases(false)
        .max_rounds(u64::MAX);
    for k in 0..f {
        let name = ALL_STRATEGY_NAMES[k % ALL_STRATEGY_NAMES.len()];
        b = b.byzantine(NodeId::new(n - 1 - k), by_name(name, n, k as u64));
    }
    let mut sim = b.build();
    assert!(
        sim.uses_sparse_links(),
        "Auto must hold run rows at n = {n}"
    );
    sim.step();
    sim.step();
    assert!(sim.stopped().is_none(), "run must still be live");
    let bytes = sim
        .link_plane_heap_bytes()
        .expect("run rows expose the link-plane heap");
    let dense_bitmap_bytes = n * n / 8;
    assert!(
        bytes * 10 <= dense_bitmap_bytes,
        "link plane ({bytes} B) must be ≤ 1/10 of the dense bitmap ({dense_bitmap_bytes} B)"
    );
}

/// DAC on run rows past the naive executor's sizes: every `LinkMode::Sparse`
/// run (the run-piece walk) matches its `LinkMode::Dense` twin (the word
/// walk) in outcome, rounds, traffic, realized degree, outputs and every
/// node's final phase and value, at n = 1024 and a size that is not a
/// multiple of 64, on one and two shards, with and without crashes whose
/// Partial senders cut the runs.
#[test]
fn dac_run_pieces_match_the_word_walk_at_scale() {
    use anondyn::consensus::probe;
    let before = probe::counts();
    for (k, n) in [1024usize, 1090].into_iter().enumerate() {
        let params = Params::new(n, 3, 0.25).unwrap();
        let adversaries = [
            AdversarySpec::Rotating { d: n / 2 + 1 },
            AdversarySpec::Staggered {
                d: n / 2 + 1,
                groups: 4,
            },
            AdversarySpec::PartitionAt { split: n / 2 + 7 },
            AdversarySpec::IsolateOne {
                victim: 70,
                from: 1,
                duration: 3,
            },
            AdversarySpec::EventuallyStable { round: 2 },
        ];
        for (a, spec) in adversaries.into_iter().enumerate() {
            let crashed = (a + k) % 2 == 1;
            let shards = 1 + (a + k) % 2;
            let run = |mode: LinkMode| {
                let mut crash = CrashSchedule::new(n);
                if crashed {
                    let survivors: Vec<NodeId> = (0..n).step_by(3).map(NodeId::new).collect();
                    for (i, id) in [5usize, 64, n - 2].into_iter().enumerate() {
                        let survivors = CrashSurvivors::Subset(survivors.clone());
                        crash.crash(NodeId::new(id), Round::new(1 + i as u64), survivors);
                    }
                }
                let mut sim = Simulation::builder(params)
                    .inputs_random(3 + a as u64)
                    .adversary(spec.build(n, 3, 9))
                    .algorithm(factories::dac(params))
                    .algorithm_plane(PlaneMode::Always)
                    .crashes(crash)
                    .link_mode(mode)
                    .shards(shards)
                    .max_rounds(40)
                    .build();
                assert_eq!(sim.uses_sparse_links(), mode == LinkMode::Sparse);
                while sim.stopped().is_none() {
                    sim.step();
                }
                let states: Vec<_> = NodeId::all(n)
                    .map(|v| (sim.phase_of(v), sim.value_of(v), sim.output_of(v)))
                    .collect();
                let outcome = sim.finish();
                let summary = (
                    outcome.reason(),
                    outcome.rounds(),
                    outcome.traffic(),
                    outcome.min_dyna_degree(),
                );
                (summary, states)
            };
            let what = format!("{spec}, n = {n}, crashes {crashed}, {shards} shard(s)");
            let (sparse, dense) = (run(LinkMode::Sparse), run(LinkMode::Dense));
            assert_eq!(sparse.0, dense.0, "{what}");
            assert!(sparse.1 == dense.1, "{what}: node states differ");
        }
    }
    // (adn-core counts only in a debug build.)
    if let (Some(before), Some(after)) = (before, probe::counts()) {
        assert!(
            after[probe::RUN_STEPS] > before[probe::RUN_STEPS],
            "no run piece fed"
        );
    }
}
