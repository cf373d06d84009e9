//! Fuzz: the incremental sliding-window checkers agree with naive
//! recompute-from-scratch references on random schedules.
//!
//! `checker::max_dyna_degree` pushes the recording through one
//! [`SlidingUnion`]; the reference below recomputes every overlapping
//! window's union via `Schedule::window_in_neighbors` — exactly the seed
//! implementation the sliding checker replaced. Same for
//! `t_interval_connected` against per-window `window_intersection`. The
//! harness is the SplitMix64 idiom of `tests/message_plane.rs`: fixed
//! seeds, deterministic across runs, zero divergences required.

use anondyn::graph::{checker, connectivity, generators, Schedule, SlidingUnion};
use anondyn::prelude::*;
use anondyn::types::rng::SplitMix64;

/// The seed checker: one window union from scratch per (start, receiver).
fn naive_max_dyna_degree(schedule: &Schedule, t_window: usize, faulty: &[NodeId]) -> Option<usize> {
    let n = schedule.n();
    if schedule.len() < t_window {
        return None;
    }
    let honest: Vec<NodeId> = NodeId::all(n).filter(|id| !faulty.contains(id)).collect();
    if honest.is_empty() {
        return None;
    }
    let windows = schedule.len() - t_window + 1;
    let mut min_degree = usize::MAX;
    for start in 0..windows {
        for &v in &honest {
            let inn = schedule.window_in_neighbors(v, Round::new(start as u64), t_window);
            min_degree = min_degree.min(inn.len());
        }
    }
    Some(min_degree)
}

fn naive_series(schedule: &Schedule, t_window: usize, faulty: &[NodeId]) -> Vec<usize> {
    let n = schedule.n();
    if schedule.len() < t_window {
        return Vec::new();
    }
    let honest: Vec<NodeId> = NodeId::all(n).filter(|id| !faulty.contains(id)).collect();
    (0..=schedule.len() - t_window)
        .map(|start| {
            honest
                .iter()
                .map(|&v| {
                    schedule
                        .window_in_neighbors(v, Round::new(start as u64), t_window)
                        .len()
                })
                .min()
                .unwrap_or(0)
        })
        .collect()
}

fn naive_t_interval_connected(schedule: &Schedule, t_window: usize) -> bool {
    if schedule.len() < t_window {
        return true;
    }
    (0..=schedule.len() - t_window).all(|start| {
        let stable =
            connectivity::window_intersection(schedule, Round::new(start as u64), t_window);
        connectivity::is_connected_undirected(&stable)
    })
}

/// A random recording: n, length, per-round edge density, and the faulty
/// set all drawn from the trial's seed.
fn random_case(seed: u64) -> (Schedule, usize, Vec<NodeId>) {
    let mut rng = SplitMix64::new(seed);
    let n = 2 + rng.next_index(34);
    let rounds = rng.next_index(28);
    let t_window = 1 + rng.next_index(9);
    let mut schedule = Schedule::new(n);
    for _ in 0..rounds {
        // Mix dense, sparse, and empty rounds.
        let p = match rng.next_index(4) {
            0 => 0.0,
            1 => 0.05,
            2 => 0.3,
            _ => 0.9,
        };
        schedule.push(generators::gnp(n, p, &mut rng));
    }
    let faulty: Vec<NodeId> = NodeId::all(n).filter(|_| rng.next_bool(0.2)).collect();
    (schedule, t_window, faulty)
}

#[test]
fn sliding_max_dyna_degree_matches_naive_recompute() {
    for seed in 0..300u64 {
        let (schedule, t_window, faulty) = random_case(seed);
        let naive = naive_max_dyna_degree(&schedule, t_window, &faulty);
        let sliding = checker::max_dyna_degree(&schedule, t_window, &faulty);
        assert_eq!(
            sliding,
            naive,
            "divergence at seed {seed}: n={}, rounds={}, T={t_window}, faulty={faulty:?}",
            schedule.n(),
            schedule.len()
        );
    }
}

#[test]
fn sliding_series_and_verdicts_match_naive() {
    for seed in 300..450u64 {
        let (schedule, t_window, faulty) = random_case(seed);
        assert_eq!(
            checker::window_degree_series(&schedule, t_window, &faulty),
            naive_series(&schedule, t_window, &faulty),
            "series divergence at seed {seed}"
        );
        for d in 0..3 {
            let naive = match naive_max_dyna_degree(&schedule, t_window, &faulty) {
                Some(min) => min >= d,
                None => true,
            };
            assert_eq!(
                checker::satisfies_dyna_degree(&schedule, t_window, d, &faulty),
                naive,
                "verdict divergence at seed {seed}, d={d}"
            );
        }
    }
}

#[test]
fn sliding_t_interval_connected_matches_naive() {
    for seed in 450..600u64 {
        let (schedule, t_window, _) = random_case(seed);
        assert_eq!(
            connectivity::t_interval_connected(&schedule, t_window),
            naive_t_interval_connected(&schedule, t_window),
            "connectivity divergence at seed {seed}: n={}, rounds={}, T={t_window}",
            schedule.n(),
            schedule.len()
        );
    }
}

#[test]
fn wide_windows_use_the_counter_slide_and_still_match() {
    // Windows wider than 64 rounds once fell back to a per-link counter
    // slide (hence the name); they run on the same slabs as every width,
    // and the verdicts must match the naive recompute.
    let mut rng = SplitMix64::new(4242);
    for &(n, rounds, t_window) in &[(5usize, 90usize, 70usize), (9, 130, 101), (4, 80, 80)] {
        let mut s = Schedule::new(n);
        for _ in 0..rounds {
            s.push(generators::gnp(n, 0.25, &mut rng));
        }
        let faulty = [NodeId::new(0)];
        assert_eq!(
            checker::max_dyna_degree(&s, t_window, &faulty),
            naive_max_dyna_degree(&s, t_window, &faulty),
            "wide-window divergence at n={n}, L={rounds}, T={t_window}"
        );
        assert_eq!(
            checker::window_degree_series(&s, t_window, &faulty),
            naive_series(&s, t_window, &faulty),
        );
    }
}

#[test]
fn scratch_reuse_across_mismatched_calls_is_safe() {
    // One SlidingUnion driven across schedules of different lengths and
    // windows: each sweep's reset must fully empty it.
    let mut scratch = SlidingUnion::new(12, 1);
    let honest = checker::honest_set(12, &[NodeId::new(3)]);
    let mut rng = SplitMix64::new(99);
    for rounds in [0usize, 1, 5, 17] {
        let mut s = Schedule::new(12);
        for _ in 0..rounds {
            s.push(generators::gnp(12, 0.4, &mut rng));
        }
        for t_window in [1usize, 2, 7] {
            let got = checker::max_dyna_degree_into(&mut scratch, &s, t_window, &honest);
            assert_eq!(
                got,
                naive_max_dyna_degree(&s, t_window, &[NodeId::new(3)]),
                "rounds={rounds}, T={t_window}"
            );
        }
    }
}
