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
//! recording): it pushes the recording through the
//! [`SlidingUnion`](crate::SlidingUnion) in its [`WindowUnion`] scratch,
//! paying a few word passes over one round's rows per round, and
//! allocating nothing beyond the reusable scratch
//! (`tests/checker_window.rs` fuzzes it against the naive recompute).

use adn_types::NodeId;

use crate::{NodeSet, Schedule, WindowUnion};

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
    let mut scratch = WindowUnion::new(schedule.n());
    max_dyna_degree_into(
        &mut scratch,
        schedule,
        t_window,
        &honest_set(schedule.n(), faulty),
    )
}

/// [`max_dyna_degree`] with caller-owned scratch: one incremental
/// [`WindowUnion::scan_degrees`] sweep across the recording instead of
/// recomputing every overlapping window's union from scratch —
/// `O(L · n² / 64)` word operations over an `L`-round recording instead of
/// `O(L · T · |E|)` — performing **zero** steady-state heap allocations
/// (pinned by `tests/alloc_free.rs`).
///
/// # Panics
///
/// Panics if `t_window == 0` or if the scratch or honest set is for a
/// different node count.
pub fn max_dyna_degree_into(
    scratch: &mut WindowUnion,
    schedule: &Schedule,
    t_window: usize,
    honest: &NodeSet,
) -> Option<usize> {
    assert!(t_window > 0, "window must be at least 1 round");
    if schedule.len() < t_window || honest.is_empty() {
        return None;
    }
    let mut min_degree = usize::MAX;
    scratch.scan_degrees(schedule, t_window, honest, |_, min| {
        min_degree = min_degree.min(min);
    });
    Some(min_degree)
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

/// The smallest window `T` for which the recording satisfies
/// (T, D)-dynaDegree, searching `1..=max_t`.
///
/// Only window lengths that **fully fit** in the recording
/// (`T <= schedule.len()`) are candidates. A longer window is vacuously
/// satisfied by Def. 1 — the recording contains no full window to violate
/// it — but reporting one would claim positive evidence the recording
/// cannot provide, so the search clamps `max_t` to `schedule.len()` and
/// returns `None` when no fitting window reaches `d`, even if
/// `max_t > schedule.len()`. (Same resolution as
/// [`max_dyna_degree`] returning `None` for too-short recordings while
/// [`satisfies_dyna_degree`] maps that to a vacuous `true`; callers that
/// want the vacuous reading can test `schedule.len() < t` themselves.)
/// The boundary is pinned by tests at `T == len` (a candidate) and
/// `T == len + 1` (never reported).
///
/// # Panics
///
/// Panics if `max_t == 0`.
pub fn min_window_for_degree(
    schedule: &Schedule,
    d: usize,
    max_t: usize,
    faulty: &[NodeId],
) -> Option<usize> {
    assert!(max_t > 0, "max_t must be at least 1");
    let mut scratch = WindowUnion::new(schedule.n());
    let honest = honest_set(schedule.n(), faulty);
    (1..=max_t.min(schedule.len())).find(|&t| {
        matches!(
            max_dyna_degree_into(&mut scratch, schedule, t, &honest),
            Some(min) if min >= d
        )
    })
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
    let mut scratch = WindowUnion::new(schedule.n());
    scratch.scan_degrees(schedule, t_window, &honest, |start, min| {
        series[start] = min;
    });
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
        // length reaches D = 2.
        let s = figure1(10);
        assert_eq!(min_window_for_degree(&s, 2, 10, &[]), None);
        assert_eq!(min_window_for_degree(&s, 1, 10, &[]), Some(2));
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

    /// Boundary audit of `min_window_for_degree` at the recording edge: a
    /// window exactly as long as the recording is a candidate, one round
    /// longer never is — a vacuously-satisfied window must not be
    /// reported as positive evidence.
    #[test]
    fn min_window_boundary_at_recording_length() {
        // Receiver 0 hears one distinct sender per round over 4 rounds:
        // D = 4 is first (and only) reached by the full-length window.
        let n = 5;
        let len = 4usize;
        let mut s = Schedule::new(n);
        for t in 0..len {
            s.push(EdgeSet::from_pairs(n, [(1 + t, 0)]));
        }
        let faulty: Vec<NodeId> = (1..n).map(NodeId::new).collect();
        // T == len fits and satisfies: reported.
        assert_eq!(min_window_for_degree(&s, 4, len, &faulty), Some(len));
        // T == len + 1 in the bound changes nothing — the answer is still
        // the fitting window.
        assert_eq!(min_window_for_degree(&s, 4, len + 1, &faulty), Some(len));
        // D = 5 is unreachable by any fitting window; the len + 1 window
        // would be vacuously satisfied but is clamped away, so the search
        // reports None rather than a verdict the recording cannot back.
        assert_eq!(min_window_for_degree(&s, 5, len, &faulty), None);
        assert_eq!(min_window_for_degree(&s, 5, len + 1, &faulty), None);
        // The vacuous reading remains available through the satisfier.
        assert!(satisfies_dyna_degree(&s, len + 1, 5, &faulty));
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
