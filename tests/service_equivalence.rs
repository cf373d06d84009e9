//! Differential fuzz of service-mode instances against standalone runs.
//!
//! A [`ServiceRun`] executes a stream of consensus instances over one
//! long-lived engine, re-seeding state in place between instances. The
//! contract that makes the service trustworthy is **per-instance byte
//! equality**: instance `k` of a service run must be indistinguishable
//! from a standalone `Simulation` built with the same membership slice
//! (the churn plan sliced at the instance's start round), the same
//! inputs (the workload stream's vector for index `k`), and the same
//! adversary and Byzantine instance streams (fresh strategies
//! fast-forwarded via their `begin_instance` hooks). This file drives
//! randomized service configurations — churn mix × adversary ×
//! crash/Byzantine split × ε × algorithm × delivery order ×
//! quantization — on both the trait and plane paths, and for every
//! instance checks the outcome mapping, round count, per-node outputs
//! and final values, and the membership accounting against a
//! freshly-built oracle.
//!
//! The stronger reference is the naive round executor in
//! `tests/reference_round.rs` (`service_instances_match_the_naive_round_executor`),
//! which also checks every instance's windowed watchdog against Def. 1's
//! union; the engine-against-engine checks here are a second opinion.
//!
//! Seed count defaults to 300; override with `ADN_FUZZ_SEEDS` (CI runs a
//! reduced count to keep the job fast).

use anondyn::faults::strategies;
use anondyn::net::codec::Precision;
use anondyn::prelude::*;
use anondyn::sim::quantized::quantized_factory;
use anondyn::sim::{DeliveryOrder, LinkMode};
use anondyn::types::rng::SplitMix64;

fn fuzz_seeds() -> u64 {
    std::env::var("ADN_FUZZ_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(300)
}

/// One randomized service configuration, drawn deterministically from a
/// seed.
struct Config {
    params: Params,
    dbac: bool,
    pend: u64,
    adversary: AdversarySpec,
    byz: Vec<(NodeId, &'static str)>,
    churn: ChurnPlan,
    /// Whether any churn events were drawn (for the coverage floor).
    churny: bool,
    order: DeliveryOrder,
    /// Wire precision of a quantized run (`None` = exact wire).
    quantize_bits: Option<u8>,
    /// The per-instance round cap `R_max`.
    r_max: u64,
    instances: u64,
    seed: u64,
}

fn draw_down_kind(rng: &mut SplitMix64) -> DownKind {
    match rng.next_index(3) {
        0 => DownKind::Graceful,
        1 => DownKind::Abrupt,
        _ => DownKind::Flaky {
            keep_probability: rng.next_f64(),
            seed: rng.next_u64(),
        },
    }
}

fn draw(seed: u64) -> Config {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5E21);
    let n = 4 + rng.next_index(13); // 4..=16
    let f = rng.next_index(4).min(n - 1); // 0..=3, < n
    let eps = [0.25, 1e-2][rng.next_index(2)];
    let params = Params::new(n, f, eps).expect("valid params");
    let dbac = rng.next_bool(0.5);
    let pend = 1 + rng.next_below(if dbac { 6 } else { 5 });
    let order = match rng.next_index(3) {
        0 => DeliveryOrder::AscendingSenders,
        1 => DeliveryOrder::DescendingSenders,
        _ => DeliveryOrder::Shuffled(rng.next_u64()),
    };
    let quantize_bits = rng.next_bool(0.3).then(|| 3 + rng.next_index(10) as u8);
    let r_max = 25 + rng.next_below(36); // 25..=60
    let instances = 3;

    let adversary = match rng.next_index(7) {
        0 => AdversarySpec::Complete,
        1 => AdversarySpec::Rotating {
            d: 1 + rng.next_index(n - 1),
        },
        2 => AdversarySpec::Spread {
            t: 1 + rng.next_index(3),
            d: 1 + rng.next_index(n - 1),
        },
        3 => AdversarySpec::Random {
            p: 0.2 + 0.6 * rng.next_f64(),
        },
        4 => AdversarySpec::AlternatingComplete {
            period: 1 + rng.next_index(3),
        },
        // PartitionHalves never lets anyone decide, so it reliably
        // exercises the round-cap degradation path.
        5 => AdversarySpec::PartitionHalves,
        _ => AdversarySpec::DacThreshold,
    };

    // Byzantine nodes sit at the high indices and stay out of the churn
    // plan (the service keeps them Byzantine for every instance); churny
    // nodes are drawn from the low indices so the sets never collide.
    let byz_count = rng.next_index(f + 1);
    let mut byz = Vec::new();
    for k in 0..byz_count {
        let name =
            strategies::ALL_STRATEGY_NAMES[rng.next_index(strategies::ALL_STRATEGY_NAMES.len())];
        byz.push((NodeId::new(n - 1 - k), name));
    }

    let mut churn = ChurnPlan::new(n);
    let horizon = instances * r_max + 1;
    let churny_count = rng.next_index((n - byz_count).min(4) + 1);
    for v in 0..churny_count {
        let node = NodeId::new(v);
        match rng.next_index(4) {
            0 => {
                let p_down = 0.02 + 0.1 * rng.next_f64();
                let p_up = 0.2 + 0.4 * rng.next_f64();
                churn.flap_random(node, p_down, p_up, rng.next_u64(), Round::new(horizon));
            }
            1 => {
                let down_len = 1 + rng.next_below(3);
                let period = down_len + 2 + rng.next_below(8);
                let kind = draw_down_kind(&mut rng);
                churn.flap_periodic(
                    node,
                    Round::new(rng.next_below(r_max)),
                    down_len,
                    period,
                    kind,
                    Round::new(horizon),
                );
            }
            2 => {
                let at = rng.next_below(horizon);
                let kind = draw_down_kind(&mut rng);
                churn.crash(node, Round::new(at), kind);
                if rng.next_bool(0.7) {
                    churn.recover(node, Round::new(at + 1 + rng.next_below(20)));
                }
            }
            _ => churn.join(node, Round::new(rng.next_below(horizon / 2 + 1))),
        }
    }

    Config {
        params,
        dbac,
        pend,
        adversary,
        byz,
        churn,
        churny: churny_count > 0,
        order,
        quantize_bits,
        r_max,
        instances,
        seed,
    }
}

fn factory(cfg: &Config) -> anondyn::consensus::AlgorithmFactory {
    let mut factory = if cfg.dbac {
        factories::dbac_with_pend(cfg.params, cfg.pend)
    } else {
        factories::dac_with_pend(cfg.params, cfg.pend)
    };
    if let Some(bits) = cfg.quantize_bits {
        factory = quantized_factory(factory, Precision::new(bits));
    }
    factory
}

fn service(cfg: &Config, mode: PlaneMode) -> ServiceRun {
    let n = cfg.params.n();
    let mut builder = Simulation::builder(cfg.params)
        .adversary(cfg.adversary.build(n, cfg.params.f(), cfg.seed ^ 0xC0DE))
        .ports(PortNumbering::random(n, cfg.seed ^ 0x9097))
        .delivery_order(cfg.order)
        .algorithm(factory(cfg))
        .algorithm_plane(mode)
        .max_rounds(cfg.r_max);
    for &(node, name) in &cfg.byz {
        builder = builder.byzantine(node, strategies::by_name(name, n, cfg.seed ^ 0xB42));
    }
    ServiceRun::new(
        builder,
        cfg.churn.clone(),
        InputStream::random(cfg.seed ^ 0xBEEF),
    )
}

/// The standalone oracle for instance `k` of a service run starting at
/// global round `start`: the same membership slice, inputs, ports, and
/// adversary/Byzantine instance streams, rebuilt from scratch.
fn oracle(cfg: &Config, mode: PlaneMode, instance: u64, start: Round) -> Outcome {
    let n = cfg.params.n();
    let mut inputs = vec![Value::HALF; n];
    InputStream::random(cfg.seed ^ 0xBEEF).fill(instance, &mut inputs);
    let mut cs = CrashSchedule::new(n);
    cfg.churn.slice_into(start, &mut cs);
    let mut adv = cfg.adversary.build(n, cfg.params.f(), cfg.seed ^ 0xC0DE);
    adv.begin_instance(instance);
    let mut builder = Simulation::builder(cfg.params)
        .inputs(inputs)
        .adversary(adv)
        .ports(PortNumbering::random(n, cfg.seed ^ 0x9097))
        .crashes(cs)
        .delivery_order(cfg.order)
        .algorithm(factory(cfg))
        .algorithm_plane(mode)
        .allow_fault_overflow(true)
        .max_rounds(cfg.r_max);
    for &(node, name) in &cfg.byz {
        let mut strategy = strategies::by_name(name, n, cfg.seed ^ 0xB42);
        strategy.begin_instance(instance);
        builder = builder.byzantine(node, strategy);
    }
    builder.run()
}

fn assert_instance_identical(
    cfg: &Config,
    mode: PlaneMode,
    rec: &InstanceRecord,
    sim: &Simulation,
    oracle: &Outcome,
) {
    let n = cfg.params.n();
    let ctx = format!(
        "seed {} instance {} start {}: n={n} f={} {} pend={} adversary={} byz={:?} \
         order={:?} bits={:?} mode={mode:?}",
        cfg.seed,
        rec.instance,
        rec.start_round,
        cfg.params.f(),
        if cfg.dbac { "dbac" } else { "dac" },
        cfg.pend,
        cfg.adversary,
        cfg.byz,
        cfg.order,
        cfg.quantize_bits,
    );

    // The outcome maps onto the standalone stop reason: a decision is
    // `AllOutput`, a round-cap abort is `MaxRounds`, and an empty
    // membership slice stops the standalone run at round zero with
    // nobody to wait for.
    match rec.outcome {
        InstanceOutcome::Decided => {
            assert_eq!(oracle.reason(), StopReason::AllOutput, "stop reason: {ctx}");
        }
        InstanceOutcome::Aborted {
            reason: AbortReason::RoundCap,
        } => {
            assert_eq!(oracle.reason(), StopReason::MaxRounds, "stop reason: {ctx}");
        }
        InstanceOutcome::Aborted {
            reason: AbortReason::NoParticipants,
        } => {
            assert_eq!(rec.participants, 0, "participants: {ctx}");
            assert_eq!(oracle.reason(), StopReason::AllOutput, "stop reason: {ctx}");
        }
    }
    assert_eq!(rec.rounds, oracle.rounds(), "round count: {ctx}");

    // Membership accounting: the record's participant count must equal
    // the slice's fault-free set, recomputed here from the plan.
    let mut cs = CrashSchedule::new(n);
    cfg.churn.slice_into(rec.start_round, &mut cs);
    let fault_free = |id: NodeId| cfg.byz.iter().all(|&(b, _)| b != id) && !cs.is_faulty(id);
    let participants = (0..n).filter(|&i| fault_free(NodeId::new(i))).count();
    assert_eq!(rec.participants, participants, "participants: {ctx}");
    let decided = (0..n)
        .filter(|&i| fault_free(NodeId::new(i)) && oracle.output_of(NodeId::new(i)).is_some())
        .count();
    assert_eq!(rec.decided, decided, "decided count: {ctx}");

    // Byte equality of per-node state: outputs for everyone, final
    // values for every non-Byzantine slot.
    for i in 0..n {
        let id = NodeId::new(i);
        assert_eq!(
            sim.output_of(id),
            oracle.output_of(id),
            "output of {id}: {ctx}"
        );
        if cfg.byz.iter().all(|&(b, _)| b != id) {
            assert_eq!(
                sim.value_of(id),
                Some(oracle.final_value_of(id)),
                "final value of {id}: {ctx}"
            );
        }
    }

    // The watchdog's safety verdicts agree with the oracle's.
    assert_eq!(
        rec.agreement,
        oracle.eps_agreement(cfg.params.eps()),
        "agreement verdict: {ctx}"
    );
    assert_eq!(rec.validity, oracle.validity(), "validity verdict: {ctx}");
}

#[test]
fn service_instances_match_standalone_runs() {
    let seeds = fuzz_seeds();
    let mut churny = 0u64;
    let mut byzantine = 0u64;
    let mut aborted = 0u64;
    for seed in 0..seeds {
        let cfg = draw(seed);
        for mode in [PlaneMode::Never, PlaneMode::Always] {
            let mut svc = service(&cfg, mode);
            for k in 0..cfg.instances {
                let rec = svc.run_instance();
                assert_eq!(rec.instance, k);
                let standalone = oracle(&cfg, mode, k, rec.start_round);
                assert_instance_identical(&cfg, mode, &rec, svc.sim(), &standalone);
                aborted += u64::from(!rec.outcome.is_decided());
            }
            assert_eq!(svc.instances_run(), cfg.instances);
            assert_eq!(
                svc.decided_instances() + svc.aborted_instances(),
                cfg.instances
            );
        }
        churny += u64::from(cfg.churny);
        byzantine += u64::from(!cfg.byz.is_empty());
    }
    // The matrix must genuinely exercise churn, Byzantine composition,
    // and the degradation path — not quietly redraw fault-free runs.
    if seeds >= 40 {
        assert!(churny >= seeds / 3, "only {churny}/{seeds} churny draws");
        assert!(
            byzantine >= seeds / 8,
            "only {byzantine}/{seeds} byzantine draws"
        );
        assert!(
            aborted >= seeds / 8,
            "only {aborted} aborted instances over {seeds} seeds"
        );
    }
}

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
