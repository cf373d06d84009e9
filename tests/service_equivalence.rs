//! Service-mode checks that compare one engine run with another.
//!
//! A [`ServiceRun`] executes a stream of consensus instances over one
//! long-lived engine. Every instance — outcome, rounds, node states,
//! verdicts and the windowed watchdog — is held to the naive round
//! executor in `tests/reference_round.rs`
//! (`service_instances_match_the_naive_round_executor`). What stays here
//! is what that leg does not state: the watchdog's dense and sparse link
//! rows agree with each other and with the offline checker over a
//! standalone twin's recording, `RealizedRows` hands out the same set by
//! words and by ids, and a 16k-node service stays on sparse links.

use anondyn::prelude::*;
use anondyn::sim::LinkMode;

/// The watchdog reads realized dynaDegree through the engine's
/// link-path-agnostic `RealizedRows` view, so a service on the sparse
/// link plane must produce records — including `min_dyna_degree`, whose
/// sparse reconstruction re-applies the delivery filter instead of
/// reading materialized rows — identical to the dense reference, for
/// both the stateless `T = 1` watchdog and sliding `T ≥ 2` windows. The
/// churn mix includes a flaky (partial-delivery) down node, so the
/// sparse filter's crash-survivor branch is exercised, not just the
/// all-present fast case. At ε = 1e-2 every instance runs well past the
/// window; at ε = 0.25 an instance is a handful of rounds — shorter than
/// a `T = 5` or `T = 8` block — so windows straddle instance boundaries
/// and the first to close does so in a later instance.
#[test]
fn sparse_service_watchdog_matches_dense_link_rows() {
    let n = 64;
    let mut churn = ChurnPlan::new(n);
    churn.crash(
        NodeId::new(0),
        Round::new(2),
        DownKind::Flaky {
            keep_probability: 0.5,
            seed: 9,
        },
    );
    churn.recover(NodeId::new(0), Round::new(11));
    churn.crash(NodeId::new(1), Round::new(5), DownKind::Graceful);
    churn.recover(NodeId::new(1), Round::new(40));
    let mut short_instances = 0;
    for (eps, t_window) in [1e-2, 0.25]
        .into_iter()
        .flat_map(|eps| [1usize, 2, 3, 5, 8].map(|t| (eps, t)))
    {
        let params = Params::new(n, 2, eps).unwrap();
        let build = |mode: LinkMode| {
            ServiceRun::new(
                Simulation::builder(params)
                    .adversary(AdversarySpec::Rotating { d: n / 2 }.build(n, 2, 7))
                    .algorithm(factories::dac(params))
                    .algorithm_plane(PlaneMode::Always)
                    .link_mode(mode)
                    .max_rounds(30),
                churn.clone(),
                InputStream::random(3),
            )
            .dyna_window(t_window)
        };
        let mut dense = build(LinkMode::Dense);
        let mut sparse = build(LinkMode::Sparse);
        assert!(!dense.sim().uses_sparse_links());
        assert!(sparse.sim().uses_sparse_links());
        for k in 0..4 {
            let rd = dense.run_instance();
            let rs = sparse.run_instance();
            assert_eq!(rd, rs, "eps {eps} window {t_window} instance {k}");
            // The window outlives the instance: one closed during this
            // instance exactly if the service has run `t_window` rounds.
            assert!(rd.rounds > 0);
            assert_eq!(
                rd.min_dyna_degree.is_some(),
                dense.total_rounds() >= t_window as u64,
                "eps {eps} window {t_window} instance {k}: {} rounds so far",
                dense.total_rounds()
            );
            short_instances += usize::from(rd.rounds < t_window as u64);
        }
        assert_eq!(dense.total_rounds(), sparse.total_rounds());
    }
    assert!(short_instances >= 4, "no instance shorter than its window");
}

/// Instance 0 of a service is byte-identical to a standalone run, so its
/// watchdog verdict has an independent oracle: the offline checker over
/// the standalone twin's recorded schedule. Dense links, sparse links and
/// sparse links on two shards, under adversaries whose degree only shows
/// over a window, with one node crashing abruptly and one flaking inside
/// the instance; the round cap makes some instances shorter than the
/// window, which must then read `None`.
#[test]
fn windowed_watchdog_matches_the_offline_checker() {
    let n = 32;
    let params = Params::new(n, 2, 1e-2).unwrap();
    let mut churn = ChurnPlan::new(n);
    churn.crash(NodeId::new(3), Round::new(1), DownKind::Abrupt);
    churn.crash(
        NodeId::new(7),
        Round::new(2),
        DownKind::Flaky {
            keep_probability: 0.5,
            seed: 21,
        },
    );
    let adversaries = [
        AdversarySpec::Rotating { d: n / 2 },
        AdversarySpec::Spread { t: 3, d: n / 2 },
        AdversarySpec::Staggered {
            d: n / 2,
            groups: 4,
        },
    ];
    let (mut measured, mut too_short) = (0, 0);
    for (spec, r_max) in adversaries
        .iter()
        .flat_map(|spec| [4u64, 40].map(|r_max| (spec, r_max)))
    {
        let builder = || {
            Simulation::builder(params)
                .record_schedule(true)
                .adversary(spec.build(n, 2, 5))
                .algorithm(factories::dac(params))
                .algorithm_plane(PlaneMode::Always)
                .max_rounds(r_max)
        };
        // The standalone twin of instance 0, recording its schedule.
        let mut inputs = vec![Value::HALF; n];
        InputStream::random(3).fill(0, &mut inputs);
        let mut slice = CrashSchedule::new(n);
        churn.slice_into(Round::ZERO, &mut slice);
        let twin = builder()
            .inputs(inputs)
            .crashes(slice)
            .allow_fault_overflow(true)
            .run();
        assert_eq!(twin.faulty_ids(), [NodeId::new(3), NodeId::new(7)]);
        for t_window in [2usize, 3, 5, 8] {
            let expected =
                checker::window_degree_series(twin.schedule(), t_window, &twin.faulty_ids())
                    .into_iter()
                    .min();
            assert_eq!(expected.is_none(), twin.rounds() < t_window as u64);
            for (links, mode, shards) in [
                ("dense", LinkMode::Dense, 1),
                ("sparse", LinkMode::Sparse, 1),
                ("sparse/2 shards", LinkMode::Sparse, 2),
            ] {
                let mut service = ServiceRun::new(
                    builder().link_mode(mode).shards(shards),
                    churn.clone(),
                    InputStream::random(3),
                )
                .dyna_window(t_window);
                assert_eq!(service.sim().shards(), shards);
                let rec = service.run_instance();
                let what = format!("{spec}, R_max {r_max}, T = {t_window}, {links}");
                assert_eq!(rec.rounds, twin.rounds(), "{what}");
                assert_eq!(rec.min_dyna_degree, expected, "{what}");
            }
            measured += usize::from(expected.is_some());
            too_short += usize::from(expected.is_none());
        }
    }
    assert!(measured >= 12 && too_short >= 6, "{measured} / {too_short}");
}

/// `RealizedRows` hands a row out by words (what the windowed watchdog
/// and the `T = 1` degree read consume) and by ids; the two must be the
/// same set on both link paths, also in the round a sender crashes with
/// only some of its links surviving.
#[test]
fn realized_rows_words_match_ids_under_a_partial_sender() {
    use anondyn::graph::LinkRows;
    let n = 70;
    let params = Params::new(n, 1, 1e-2).unwrap();
    let crash_round = Round::new(2);
    let build = |mode: LinkMode| {
        // The whole last word of senders (ids 64..70) crashes at once,
        // each keeping about half of its links: some receiver hears none
        // of them, and its chunk of that word must not arrive empty.
        let mut crashes = CrashSchedule::new(n);
        for u in 64..n {
            crashes.crash(
                NodeId::new(u),
                crash_round,
                CrashSurvivors::Random {
                    keep_probability: 0.5,
                    seed: u as u64,
                },
            );
        }
        Simulation::builder(params)
            .adversary(AdversarySpec::Rotating { d: n - 2 }.build(n, 1, 7))
            .algorithm(factories::dac_with_pend(params, u64::MAX))
            .algorithm_plane(PlaneMode::Always)
            .link_mode(mode)
            .crashes(crashes)
            .allow_fault_overflow(true)
            .max_rounds(u64::MAX)
            .build()
    };
    let (mut dense, mut sparse) = (build(LinkMode::Dense), build(LinkMode::Sparse));
    assert!(!dense.uses_sparse_links() && sparse.uses_sparse_links());
    for round in 0..4 {
        dense.step();
        sparse.step();
        let (rd, rs) = (dense.realized_rows(), sparse.realized_rows());
        let (mut from_partial, mut last_word_silent) = (0, 0);
        for v in NodeId::all(n) {
            let by_ids = |rows: &anondyn::sim::RealizedRows<'_>| {
                let mut ids = Vec::new();
                rows.for_each_in(v, |u| ids.push(u.index()));
                ids
            };
            let by_words = |rows: &anondyn::sim::RealizedRows<'_>| {
                let (mut ids, mut last) = (Vec::new(), None);
                rows.scan_words_in(v, |w, bits| {
                    assert!(bits != 0, "round {round}, {v}: empty chunk");
                    assert!(last <= Some(w), "round {round}, {v}: chunks descend");
                    last = Some(w);
                    ids.extend((0..64).filter(|b| bits >> b & 1 == 1).map(|b| w * 64 + b));
                    true
                });
                ids
            };
            let ids = by_ids(&rd);
            assert_eq!(by_words(&rd), ids, "round {round}, {v}: dense words");
            assert_eq!(by_ids(&rs), ids, "round {round}, {v}: sparse ids");
            assert_eq!(by_words(&rs), ids, "round {round}, {v}: sparse words");
            assert_eq!(
                rs.in_degree(v),
                ids.len(),
                "round {round}, {v}: sparse degree"
            );
            from_partial += usize::from(ids.contains(&66));
            // Receivers that stay up and hear nobody of the last word.
            last_word_silent += usize::from(v.index() < 64 && ids.iter().all(|&u| u < 64));
        }
        // Round 2 is the Partial senders': some of their links, not all.
        match round {
            0 | 1 => assert_eq!((from_partial, last_word_silent), (n - 2, 0)),
            2 => {
                assert!((1..n - 2).contains(&from_partial), "{from_partial}");
                assert!((1..64).contains(&last_word_silent), "{last_word_silent}");
            }
            _ => assert_eq!((from_partial, last_word_silent), (0, 64)),
        }
    }
}

/// Scale regression for the routed watchdog: at n = 16 384 the service
/// resolves to the sparse link plane (the old watchdog asserted dense
/// links away), runs instances, and reports the exact rotating-adversary
/// dynaDegree without ever materializing a dense realized row.
#[test]
fn sparse_service_scales_to_16k() {
    let n = 16_384;
    let params = Params::fault_free(n, 0.25).unwrap();
    // d far below the sufficiency bound: nobody decides, so the instance
    // hits the round cap after a handful of cheap O(n·d) rounds.
    let d = 8;
    let mut svc = ServiceRun::new(
        Simulation::builder(params)
            .adversary(AdversarySpec::Rotating { d }.build(n, 0, 7))
            .algorithm(factories::dac(params))
            .max_rounds(6),
        ChurnPlan::new(n),
        InputStream::random(5),
    );
    assert!(
        svc.sim().uses_sparse_links(),
        "16k rotating service must resolve to the sparse link plane"
    );
    for k in 0..2 {
        let rec = svc.run_instance();
        assert_eq!(rec.instance, k);
        assert_eq!(
            rec.outcome,
            InstanceOutcome::Aborted {
                reason: AbortReason::RoundCap
            }
        );
        assert_eq!(rec.rounds, 6);
        assert_eq!(rec.participants, n);
        assert_eq!(rec.decided, 0);
        assert!(rec.validity, "nobody decided: validity holds vacuously");
        assert!(!rec.agreement);
        // Crash-free rotating adversary: every receiver hears exactly d
        // senders every round, reconstructed through the sparse filter.
        assert_eq!(rec.min_dyna_degree, Some(d));
    }
    assert_eq!(svc.total_rounds(), 12);
}
