//! Sliding vs naive (T, D)-dynaDegree checking over recorded schedules.
//!
//! The acceptance configuration of the sliding-window rewrite: `T = 8`
//! windows over `L = 200`-round recordings. `naive` recomputes every
//! overlapping window's union from scratch via
//! `Schedule::window_in_neighbors` — the seed implementation — while
//! `sliding` is `checker::max_dyna_degree`, which pushes the recording
//! through one `SlidingUnion`.
//!
//! `online` and `counters` reach the same verdict the way a service's
//! watchdog does — round by round, nothing but the window kept: `online`
//! is one `SlidingUnion::push_rows` and one degree read per round (what
//! `ServiceRun::dyna_window` pays today), `counters` the per-link
//! `WindowUnion::{pop, push}` slide it replaced. Their ratio is the
//! per-round price of the two structures, outside any engine.
//!
//! Set `ADN_BENCH_OUT=path` to append JSON records (the source of
//! `BENCH_checker_window.json`).

use adn_bench::harness::Runner;
use adn_graph::{checker, generators, NodeSet, Schedule, SlidingUnion, WindowUnion};
use adn_types::rng::SplitMix64;
use adn_types::{NodeId, Round};

const T_WINDOW: usize = 8;
const ROUNDS: usize = 200;

fn random_schedule(n: usize, rounds: usize, p: f64, seed: u64) -> Schedule {
    let mut rng = SplitMix64::new(seed);
    let mut s = Schedule::new(n);
    for _ in 0..rounds {
        s.push(generators::gnp(n, p, &mut rng));
    }
    s
}

/// The seed checker: one window union from scratch per (start, receiver).
fn naive_max_dyna_degree(schedule: &Schedule, t_window: usize) -> Option<usize> {
    let n = schedule.n();
    if schedule.len() < t_window {
        return None;
    }
    let honest: Vec<NodeId> = NodeId::all(n).collect();
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

/// The verdict from one `SlidingUnion` push per round.
fn online_max_dyna_degree(
    window: &mut SlidingUnion,
    schedule: &Schedule,
    honest: &NodeSet,
) -> Option<usize> {
    window.reset(T_WINDOW);
    schedule
        .iter()
        .filter_map(|(_, edges)| {
            window.push_rows(edges);
            window.min_degree_over(honest)
        })
        .min()
}

/// The verdict from the per-link counter slide: push the round that
/// enters, read, pop the one that leaves.
fn counters_max_dyna_degree(
    window: &mut WindowUnion,
    schedule: &Schedule,
    honest: &NodeSet,
) -> Option<usize> {
    window.clear();
    schedule
        .iter()
        .filter_map(|(t, edges)| {
            window.push(edges);
            let start = (t.as_u64() + 1).checked_sub(T_WINDOW as u64)?;
            let min = window.min_degree_over(honest);
            window.pop(schedule.round(Round::new(start)).expect("within recording"));
            min
        })
        .min()
}

fn main() {
    let mut r = Runner::new("checker_window");
    for &n in &[32usize, 64, 128] {
        for &(density, p) in &[("sparse", 0.05), ("dense", 0.3)] {
            let schedule = random_schedule(n, ROUNDS, p, 9 + n as u64);
            let expect = naive_max_dyna_degree(&schedule, T_WINDOW);
            r.bench(&format!("naive_{density}/{n}"), || {
                naive_max_dyna_degree(&schedule, T_WINDOW)
            });
            r.bench(&format!("sliding_{density}/{n}"), || {
                let got = checker::max_dyna_degree(&schedule, T_WINDOW, &[]);
                assert_eq!(got, expect, "checkers must agree");
                got
            });
            let honest = NodeSet::full(n);
            let mut online = SlidingUnion::new(n, T_WINDOW);
            r.bench(&format!("online_{density}/{n}"), || {
                let got = online_max_dyna_degree(&mut online, &schedule, &honest);
                assert_eq!(got, expect, "checkers must agree");
                got
            });
            let mut counters = WindowUnion::new(n);
            r.bench(&format!("counters_{density}/{n}"), || {
                let got = counters_max_dyna_degree(&mut counters, &schedule, &honest);
                assert_eq!(got, expect, "checkers must agree");
                got
            });
        }
    }
    r.finish();
}
