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
