//! The (T, D)-dynaDegree verifier (Definition 1 of the paper).
//!
//! A dynamic graph satisfies (T, D)-dynaDegree if, for **every** window of
//! `T` consecutive rounds, every fault-free node has incoming links from at
//! least `D` distinct neighbors, aggregated across the window. The checker
//! runs over a recorded [`Schedule`] — typically the *realized delivery*
//! schedule logged by the simulator, so that links from crashed senders
//! (which deliver nothing) are correctly not counted (Definition 1
//! counts links that deliver; README, "The adversary gallery":
//! live-sender discipline).
//!
//! Complete executions are infinite in the paper; a recording is finite, so
//! the checker quantifies over all *full* windows that fit in the recording
//! (`len - T + 1` of them). Recordings shorter than `T` vacuously satisfy
//! the property and [`satisfies_dyna_degree`] returns `true` for them;
//! callers that need a meaningful verdict should record at least `T`
//! rounds.
//!
//! Overlapping windows share `T - 1` rounds, so the checker does not
//! recompute each union from scratch (`O(L · T · |E|)` over an `L`-round
//! recording): it pushes the recording through one [`SlidingUnion`],
//! paying a few word passes over one round's rows per round whatever `T`
//! is, and allocating nothing beyond the slabs
//! (`tests/checker_window.rs` fuzzes it against the naive recompute).

use adn_types::NodeId;

use crate::{NodeSet, Schedule, SlidingUnion};

/// The fault-free node set: all of `0..n` except the listed faulty nodes.
///
/// Built once (O(n + |faulty|)) and shared by every window of a checker
/// run, instead of an O(n · |faulty|) list scan per call site.
///
/// # Panics
///
/// Panics if a faulty id is `>= n`.
pub fn honest_set(n: usize, faulty: &[NodeId]) -> NodeSet {
    let mut honest = NodeSet::full(n);
    for &id in faulty {
        honest.remove(id);
    }
    honest
}

/// The strongest degree `D` such that the recording satisfies
/// (T, D)-dynaDegree for the fault-free nodes (all nodes not listed in
/// `faulty`).
///
/// Returns `None` if no full `T`-round window fits in the recording or if
/// every node is faulty (the property is then vacuous and any `D` holds).
///
/// # Panics
///
/// Panics if `t_window == 0`.
///
/// ```
/// use adn_graph::{EdgeSet, Schedule, checker};
///
/// let mut s = Schedule::new(3);
/// s.push(EdgeSet::complete(3));
/// s.push(EdgeSet::complete(3));
/// assert_eq!(checker::max_dyna_degree(&s, 1, &[]), Some(2));
/// ```
pub fn max_dyna_degree(schedule: &Schedule, t_window: usize, faulty: &[NodeId]) -> Option<usize> {
    let honest = honest_set(schedule.n(), faulty);
    // No slabs for a recording that holds no window (`new` panics on 0).
    if schedule.len() < t_window {
        return None;
    }
    let mut scratch = SlidingUnion::new(schedule.n(), t_window);
    max_dyna_degree_into(&mut scratch, schedule, t_window, &honest)
}

/// [`max_dyna_degree`] with a caller-owned window as scratch: one
/// [`SlidingUnion::scan_degrees`] sweep across the recording instead of
/// recomputing every overlapping window's union from scratch —
/// `O(L · n² / 64)` word operations over an `L`-round recording instead of
/// `O(L · T · |E|)` — performing **zero** heap allocations once the
/// scratch has been as wide as `t_window` (pinned by
/// `tests/alloc_free.rs`). The scratch's width and contents are
/// overwritten.
///
/// # Panics
///
/// Panics if `t_window == 0` or if the scratch or honest set is for a
/// different node count.
pub fn max_dyna_degree_into(
    scratch: &mut SlidingUnion,
    schedule: &Schedule,
    t_window: usize,
    honest: &NodeSet,
) -> Option<usize> {
    let mut min_degree = None;
    scratch.scan_degrees(schedule, t_window, honest, |_, min| {
        min_degree = Some(min_degree.map_or(min, |m: usize| m.min(min)));
    });
    min_degree
}

/// Whether the recording satisfies (T, D)-dynaDegree for its fault-free
/// nodes (Def. 1). Vacuously `true` when no full window fits.
///
/// # Panics
///
/// Panics if `t_window == 0`.
pub fn satisfies_dyna_degree(
    schedule: &Schedule,
    t_window: usize,
    d: usize,
    faulty: &[NodeId],
) -> bool {
    match max_dyna_degree(schedule, t_window, faulty) {
        Some(min_degree) => min_degree >= d,
        None => true,
    }
}

/// Per-window minimum aggregated in-degree across fault-free nodes — the
/// series experiment E01 plots. Entry `i` corresponds to the window
/// starting at round `i`.
///
/// # Panics
///
/// Panics if `t_window == 0`.
pub fn window_degree_series(schedule: &Schedule, t_window: usize, faulty: &[NodeId]) -> Vec<usize> {
    assert!(t_window > 0, "window must be at least 1 round");
    if schedule.len() < t_window {
        return Vec::new();
    }
    let honest = honest_set(schedule.n(), faulty);
    let mut series = vec![0; schedule.len() - t_window + 1];
    SlidingUnion::new(schedule.n(), t_window).scan_degrees(
        schedule,
        t_window,
        &honest,
        |start, min| series[start] = min,
    );
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeSet;

    /// Figure 1 of the paper: 3 nodes; odd rounds empty, even rounds the
    /// bidirectional path 0-1-2.
    fn figure1(rounds: usize) -> Schedule {
        let even = EdgeSet::from_pairs(3, [(0, 1), (1, 0), (1, 2), (2, 1)]);
        let odd = EdgeSet::empty(3);
        let mut s = Schedule::new(3);
        for t in 0..rounds {
            // Round numbering in the paper's figure: odd rounds are empty.
            // With zero-based rounds we make t=0 the "odd" (empty) round to
            // exercise the worst alignment.
            s.push(if t % 2 == 0 {
                odd.clone()
            } else {
                even.clone()
            });
        }
        s
    }

    #[test]
    fn figure1_satisfies_2_1_but_not_1_1() {
        let s = figure1(8);
        assert!(satisfies_dyna_degree(&s, 2, 1, &[]));
        assert!(!satisfies_dyna_degree(&s, 1, 1, &[]));
        assert_eq!(max_dyna_degree(&s, 2, &[]), Some(1));
        assert_eq!(max_dyna_degree(&s, 1, &[]), Some(0));
    }

    #[test]
    fn figure1_never_reaches_degree_2_for_ends() {
        // Nodes 0 and 2 only ever hear from node 1, so no window of any
        // length reaches D = 2; two rounds are the shortest to reach 1.
        let s = figure1(10);
        for t in 1..=10 {
            let expected = Some(usize::from(t >= 2));
            assert_eq!(max_dyna_degree(&s, t, &[]), expected, "T = {t}");
        }
    }

    #[test]
    fn complete_graph_is_1_nminus1() {
        let mut s = Schedule::new(5);
        for _ in 0..3 {
            s.push(EdgeSet::complete(5));
        }
        assert_eq!(max_dyna_degree(&s, 1, &[]), Some(4));
        assert!(satisfies_dyna_degree(&s, 1, 4, &[]));
        assert!(!satisfies_dyna_degree(&s, 1, 5, &[]));
    }

    #[test]
    fn faulty_receivers_are_exempt() {
        // Node 2 never receives anything, but if it is faulty the property
        // only quantifies over nodes 0 and 1.
        let e = EdgeSet::from_pairs(3, [(0, 1), (1, 0)]);
        let mut s = Schedule::new(3);
        s.push(e.clone());
        s.push(e);
        assert_eq!(max_dyna_degree(&s, 1, &[]), Some(0));
        assert_eq!(max_dyna_degree(&s, 1, &[NodeId::new(2)]), Some(1));
    }

    #[test]
    fn short_recording_is_vacuous() {
        let s = figure1(1);
        assert!(satisfies_dyna_degree(&s, 5, 99, &[]));
        assert_eq!(max_dyna_degree(&s, 5, &[]), None);
    }

    #[test]
    fn all_faulty_is_vacuous() {
        let s = figure1(4);
        let all: Vec<NodeId> = NodeId::all(3).collect();
        assert_eq!(max_dyna_degree(&s, 2, &all), None);
        assert!(satisfies_dyna_degree(&s, 2, 100, &all));
    }

    #[test]
    fn distinctness_not_multiplicity() {
        // The same single in-neighbor repeated every round still gives
        // D = 1 for any window: dynaDegree counts *distinct* neighbors.
        let e = EdgeSet::from_pairs(2, [(0, 1), (1, 0)]);
        let mut s = Schedule::new(2);
        for _ in 0..6 {
            s.push(e.clone());
        }
        assert_eq!(max_dyna_degree(&s, 3, &[]), Some(1));
    }

    #[test]
    fn series_tracks_alignment() {
        let s = figure1(5); // rounds: empty, path, empty, path, empty
        let series = window_degree_series(&s, 1, &[]);
        assert_eq!(series, vec![0, 1, 0, 1, 0]);
        let series2 = window_degree_series(&s, 2, &[]);
        assert_eq!(series2, vec![1, 1, 1, 1]);
    }

    #[test]
    fn series_empty_when_window_too_large() {
        let s = figure1(2);
        assert!(window_degree_series(&s, 3, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        max_dyna_degree(&figure1(2), 0, &[]);
    }

    #[test]
    fn rotating_single_neighbor_accumulates_over_window() {
        // Receiver 0 hears from a *different* sender each round; a window
        // of k rounds therefore aggregates k distinct neighbors.
        let n = 5;
        let mut s = Schedule::new(n);
        for t in 0..8usize {
            let sender = 1 + (t % (n - 1));
            s.push(EdgeSet::from_pairs(n, [(sender, 0)]));
        }
        // Only node 0 is fault-free here; the rest are declared faulty so
        // the property quantifies over node 0 alone.
        let faulty: Vec<NodeId> = (1..n).map(NodeId::new).collect();
        assert_eq!(max_dyna_degree(&s, 1, &faulty), Some(1));
        assert_eq!(max_dyna_degree(&s, 2, &faulty), Some(2));
        assert_eq!(max_dyna_degree(&s, 4, &faulty), Some(4));
        // Window of 5: senders wrap around, still only 4 distinct.
        assert_eq!(max_dyna_degree(&s, 5, &faulty), Some(4));
    }
}
