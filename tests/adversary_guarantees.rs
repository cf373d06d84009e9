//! Property tests: every guarantee-preserving adversary actually delivers
//! the (T, D)-dynaDegree it promises on the *realized* schedule, including
//! in the presence of crashed and silent-Byzantine senders (the live-sender
//! discipline of README, "The adversary gallery": Definition 1 counts
//! links that deliver, so links are drawn from the round's deliverers).
//!
//! Randomized cases are driven by the workspace's own deterministic
//! [`SplitMix64`] stream (the container builds offline, so no proptest).

use anondyn::faults::strategies::Silent;
use anondyn::prelude::*;
use anondyn::types::rng::SplitMix64;

/// Runs DAC under the spec (long enough to record a useful schedule) and
/// returns the outcome.
fn record(n: usize, f: usize, spec: AdversarySpec, seed: u64, crashes: CrashSchedule) -> Outcome {
    let params = Params::new(n, f, 1e-6).unwrap();
    Simulation::builder(params)
        .record_schedule(true)
        .inputs_random(seed)
        .adversary(spec.build(n, f, seed))
        .crashes(crashes)
        .algorithm(factories::dac(params))
        .max_rounds(60)
        .run()
}

#[test]
fn rotating_promise_holds() {
    for case in 0u64..32 {
        let mut rng = SplitMix64::new(0x407 ^ case);
        let n = 3 + rng.next_index(9); // 3..12
        let seed = rng.next_u64();
        let d = (1 + rng.next_index(5)).min(n - 1); // 1..6, capped
        let outcome = record(
            n,
            0,
            AdversarySpec::Rotating { d },
            seed,
            CrashSchedule::new(n),
        );
        let got = checker::max_dyna_degree(outcome.schedule(), 1, &[]).unwrap();
        assert!(
            got >= d,
            "case {case}: promised (1,{d}), realized (1,{got})"
        );
    }
}

#[test]
fn spread_promise_holds() {
    for case in 0u64..32 {
        let mut rng = SplitMix64::new(0x5B8 ^ case);
        let n = 4 + rng.next_index(8); // 4..12
        let seed = rng.next_u64();
        let t = 1 + rng.next_index(4); // 1..5
        let d = (1 + rng.next_index(5)).min(n - 1); // 1..6, capped
        let outcome = record(
            n,
            0,
            AdversarySpec::Spread { t, d },
            seed,
            CrashSchedule::new(n),
        );
        let got = checker::max_dyna_degree(outcome.schedule(), t, &[]).unwrap();
        assert!(
            got >= d,
            "case {case}: promised ({t},{d}), realized ({t},{got})"
        );
    }
}

#[test]
fn staggered_promise_holds() {
    for case in 0u64..32 {
        let mut rng = SplitMix64::new(0x57A ^ case);
        let n = 4 + rng.next_index(8); // 4..12
        let seed = rng.next_u64();
        let groups = 1 + rng.next_index(3); // 1..4
        let d = (n / 2).max(1);
        let outcome = record(
            n,
            0,
            AdversarySpec::Staggered { d, groups },
            seed,
            CrashSchedule::new(n),
        );
        let got = checker::max_dyna_degree(outcome.schedule(), groups, &[]).unwrap();
        assert!(
            got >= d,
            "case {case}: promised ({groups},{d}), realized ({groups},{got})"
        );
    }
}

#[test]
fn spread_window_guarantee_survives_mid_window_crashes() {
    // The documented live-sender guarantee under crashes: every *aligned*
    // T-window of the realized schedule gives each fault-free receiver at
    // least min(d, live senders at the window's end − 1) distinct
    // in-neighbors, however the crash rounds fall against the window
    // grid. (The fresh-sender installments make this hold; the pre-fix
    // slice re-indexing silently shrank the count when the deliverer set
    // shifted mid-window.)
    for case in 0u64..24 {
        let mut rng = SplitMix64::new(0x59EAD ^ case);
        let n = 6 + rng.next_index(7); // 6..13
        let t_window = 2 + rng.next_index(3); // 2..5
        let d = 2 + rng.next_index(n - 3); // 2..n-2
        let f = 1 + rng.next_index(2); // 1..3 crashers
        let seed = rng.next_u64();
        let rounds = 6 * t_window as u64;
        let crash_rounds: Vec<u64> = (0..f).map(|_| rng.next_below(rounds)).collect();
        let crashes = CrashSchedule::at_rounds(
            n,
            crash_rounds
                .iter()
                .enumerate()
                .map(|(k, &r)| (NodeId::new(n - 1 - k), Round::new(r))),
        );
        let params = Params::new(n, f, 1e-6).unwrap();
        let outcome = Simulation::builder(params)
            .record_schedule(true)
            .inputs_random(seed)
            .adversary(AdversarySpec::Spread { t: t_window, d }.build(n, f, seed))
            .crashes(crashes)
            .algorithm(factories::dac_with_pend(params, u64::MAX))
            .max_rounds(rounds)
            .run();
        let faulty: Vec<NodeId> = (0..f).map(|k| NodeId::new(n - 1 - k)).collect();
        let series = checker::window_degree_series(outcome.schedule(), t_window, &faulty);
        for w in 0..rounds as usize / t_window {
            let start = w * t_window;
            let end = (start + t_window - 1) as u64;
            // Crashed-with-All senders still deliver in their crash
            // round, so "live at round e" means crash round >= e.
            let live_end = n - crash_rounds.iter().filter(|&&r| r < end).count();
            let bound = d.min(live_end - 1);
            assert!(
                series[start] >= bound,
                "case {case}: window [{start}, {end}] gave {} < {bound} \
                 (n={n}, T={t_window}, d={d}, crashes={crash_rounds:?})",
                series[start]
            );
        }
    }
}

#[test]
fn staggered_window_guarantee_survives_mid_window_crashes() {
    // Same sweep for Staggered: every aligned `groups`-window serves each
    // fault-free receiver exactly once with min(d, live − 1) distinct
    // live senders, so the aligned series is bounded by the end-of-window
    // live count exactly as for Spread.
    for case in 0u64..24 {
        let mut rng = SplitMix64::new(0x57A66 ^ case);
        let n = 6 + rng.next_index(7); // 6..13
        let groups = 2 + rng.next_index(3); // 2..5
        let d = 2 + rng.next_index(n - 3); // 2..n-2
        let f = 1 + rng.next_index(2); // 1..3 crashers
        let seed = rng.next_u64();
        let rounds = 6 * groups as u64;
        let crash_rounds: Vec<u64> = (0..f).map(|_| rng.next_below(rounds)).collect();
        let crashes = CrashSchedule::at_rounds(
            n,
            crash_rounds
                .iter()
                .enumerate()
                .map(|(k, &r)| (NodeId::new(n - 1 - k), Round::new(r))),
        );
        let params = Params::new(n, f, 1e-6).unwrap();
        let outcome = Simulation::builder(params)
            .record_schedule(true)
            .inputs_random(seed)
            .adversary(AdversarySpec::Staggered { d, groups }.build(n, f, seed))
            .crashes(crashes)
            .algorithm(factories::dac_with_pend(params, u64::MAX))
            .max_rounds(rounds)
            .run();
        let faulty: Vec<NodeId> = (0..f).map(|k| NodeId::new(n - 1 - k)).collect();
        let series = checker::window_degree_series(outcome.schedule(), groups, &faulty);
        for w in 0..rounds as usize / groups {
            let start = w * groups;
            let end = (start + groups - 1) as u64;
            let live_end = n - crash_rounds.iter().filter(|&&r| r < end).count();
            let bound = d.min(live_end - 1);
            assert!(
                series[start] >= bound,
                "case {case}: window [{start}, {end}] gave {} < {bound} \
                 (n={n}, groups={groups}, d={d}, crashes={crash_rounds:?})",
                series[start]
            );
        }
    }
}

#[test]
fn rotating_routes_around_crashed_senders() {
    for case in 0u64..32 {
        let mut rng = SplitMix64::new(0xC4A ^ case);
        let f = 1 + rng.next_index(3); // 1..4
        let seed = rng.next_u64();
        let crash_round = rng.next_below(5);
        // n = 2f + 1; f nodes crash mid-run. The realized schedule for the
        // fault-free receivers must still reach D = floor(n/2) every round
        // after the crashes (and a fortiori over any window).
        let n = 2 * f + 1;
        let crashes = CrashSchedule::at_rounds(
            n,
            (0..f).map(|k| (NodeId::new(n - 1 - k), Round::new(crash_round))),
        );
        let faulty: Vec<NodeId> = (0..f).map(|k| NodeId::new(n - 1 - k)).collect();
        let outcome = record(n, f, AdversarySpec::DacThreshold, seed, crashes);
        assert_eq!(outcome.reason(), StopReason::AllOutput, "case {case}");
        let got = checker::max_dyna_degree(outcome.schedule(), 1, &faulty).unwrap();
        assert!(got >= n / 2, "case {case}: realized only {got}");
    }
}

#[test]
fn dbac_threshold_routes_around_silent_byzantine() {
    // A silent Byzantine node never counts; the threshold adversary must
    // still give every honest receiver floor((n+3f)/2) delivering senders.
    let n = 11;
    let f = 2;
    let params = Params::new(n, f, 1e-2).unwrap();
    let outcome = Simulation::builder(params)
        .record_schedule(true)
        .adversary(AdversarySpec::DbacThreshold.build(n, f, 3))
        .byzantine(NodeId::new(1), Box::new(Silent))
        .byzantine(NodeId::new(6), Box::new(Silent))
        .algorithm(factories::dbac_with_pend(params, 30))
        .max_rounds(5_000)
        .run();
    assert_eq!(outcome.reason(), StopReason::AllOutput);
    let faulty = outcome.faulty_ids();
    let got = checker::max_dyna_degree(outcome.schedule(), 1, &faulty).unwrap();
    assert!(got >= params.dbac_dyna_degree(), "realized only {got}");
}

#[test]
fn omit_one_is_exactly_n_minus_2_for_every_n() {
    for n in 3usize..12 {
        let outcome = record(n, 0, AdversarySpec::OmitLowest, 5, CrashSchedule::new(n));
        let got = checker::max_dyna_degree(outcome.schedule(), 1, &[]).unwrap();
        assert_eq!(got, n - 2, "n={n}");
    }
}
