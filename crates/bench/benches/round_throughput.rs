//! Cost of one simulated round as the system grows — the raw throughput
//! of the substrate (broadcast + adversary + delivery + state
//! transitions) for each algorithm.
//!
//! Configurations per algorithm/size:
//!
//! * the **default** cases keep schedule recording and phase observation
//!   on — the cost a user of `Outcome`-based analysis actually pays (and
//!   the configuration of the pre-refactor baseline in
//!   `BENCH_round_throughput.json`, which predates the lean knobs). DAC
//!   and DBAC run on the columnar algorithm plane here (the default);
//! * the **`_lean`** cases disable both recordings, isolating the
//!   allocation-free message plane that `tests/alloc_free.rs` pins;
//! * the **`_trait`** cases force `PlaneMode::Never`, measuring the
//!   per-node boxed-state-machine path the plane replaced — the live
//!   plane-vs-trait comparison.
//!
//! Termination is disabled (`pend = u64::MAX`) so every measured round is
//! steady state. Each timed call steps one simulation `BATCH` rounds; the
//! harness creates a fresh simulation per sample, so the recorded
//! schedule of a default-case simulation grows for the length of one
//! sample at most. Set `ADN_BENCH_OUT=path` to append JSON records (the
//! source of `BENCH_round_throughput.json`).
//!
//! The **gallery** cases (`dac_spread`, `dac_staggered`, `dac_omit`, at
//! n ≥ 256 in the default configuration) track the adversary strategies
//! beyond complete/rotating, whose `edges_into` fills went word-parallel
//! with the adversary-gallery port — so regressions in the windowed and
//! omission link builders show up here, not just in the two
//! engine-dominated cases.
//!
//! The **`dac_rotating_quarter`** cases (n = 256 and 1024, plane, lean)
//! are the paper's `T > 1` regime: a rotating window of `n/4` senders is
//! below DAC's quorum, so a receiver gathers it over several rounds and
//! its seen row stays dirty from one round to the next — the duplicate
//! test does its work here, which no complete-graph case (one phase per
//! round, every row reset) ever asks of it.
//!
//! The **`dbac_threshold_f16`** (n = 256 and 1024) and
//! **`dbac_spread_f16/256`** cases (plane, lean) are Alg. 2 with lists:
//! `f = n/64`, so `R_low` / `R_high` hold `f + 1` values — where the
//! `dbac_rotating` cases run `Params::fault_free`, whose length-1 lists
//! are Alg. 1's `(min, max)` arithmetic. No Byzantine node: what is timed
//! is the honest links' word step and its settle — by rank at the
//! threshold degree, where every row reaches its quorum; sender by sender
//! under a degree spread over three rounds, whose thin rows end with links
//! pending.
//!
//! The **`dbac_byz_f16`** cases (n = 256 and 1024, plane, lean) are the
//! threshold cell under `f` Byzantine senders at the highest ids, the eight
//! stock strategies cycled (the ledger's `dbac_byz` shape, lean): the
//! receiver-independent ones staged once a round and ranked with the
//! honest senders, the others fabricating per link and cutting words.
//!
//! The **order/wire** cases (`dac_shuffled`, `dac_quantized`, each with a
//! `_trait` reference, at n ≥ 256) track the permutation-aware plane:
//! shuffled-order delivery walking each receiver's senders through the
//! shared per-round permutation, and quantized runs on the
//! `QuantizedPlane` wire-encoding adaptor — both previously locked to the
//! per-node trait path.

use adn_adversary::AdversarySpec;
use adn_bench::harness::Runner;
use adn_faults::strategies::{self, ALL_STRATEGY_NAMES};
use adn_net::codec::Precision;
use adn_sim::quantized::quantized_factory;
use adn_sim::{factories, scalar_lane_outcome, DeliveryOrder, PlaneMode, Simulation, TrialPool};
use adn_types::{NodeId, Params};

/// Rounds stepped per timed call.
const BATCH: u64 = 64;

/// The three measured engine configurations (see the module docs).
#[derive(Clone, Copy, PartialEq)]
enum Case {
    Default,
    Lean,
    TraitPath,
}

impl Case {
    fn suffix(self) -> &'static str {
        match self {
            Case::Default => "",
            Case::Lean => "_lean",
            Case::TraitPath => "_trait",
        }
    }

    fn plane(self) -> PlaneMode {
        match self {
            Case::TraitPath => PlaneMode::Never,
            _ => PlaneMode::Always,
        }
    }

    fn record(self) -> bool {
        self != Case::Lean
    }
}

fn main() {
    let mut r = Runner::new("round_step");
    for &n in &[8usize, 16, 32, 64, 128, 256, 512, 1024, 2048] {
        let params = Params::fault_free(n, 1e-6).unwrap();
        for case in [Case::Default, Case::Lean, Case::TraitPath] {
            // Lean and trait variants only at the sizes tracked in
            // BENCH_round_throughput.json.
            if case != Case::Default && !matches!(n, 16 | 64 | 256 | 512 | 1024 | 2048) {
                continue;
            }
            let suffix = case.suffix();
            r.bench_batched(
                &format!("dac_complete{suffix}/{n}"),
                BATCH,
                || {
                    Simulation::builder(params)
                        .inputs_random(1)
                        .algorithm(factories::dac_with_pend(params, u64::MAX))
                        .algorithm_plane(case.plane())
                        .record_schedule(case.record())
                        .observe_phases(case.record())
                        .max_rounds(u64::MAX)
                        .build()
                },
                |sim| {
                    for _ in 0..BATCH {
                        sim.step();
                    }
                },
            );
            r.bench_batched(
                &format!("dbac_rotating{suffix}/{n}"),
                BATCH,
                || {
                    Simulation::builder(params)
                        .inputs_random(1)
                        .adversary(AdversarySpec::Rotating { d: n / 2 }.build(n, 0, 1))
                        .algorithm(factories::dbac_with_pend(params, u64::MAX))
                        .algorithm_plane(case.plane())
                        .record_schedule(case.record())
                        .observe_phases(case.record())
                        .max_rounds(u64::MAX)
                        .build()
                },
                |sim| {
                    for _ in 0..BATCH {
                        sim.step();
                    }
                },
            );
        }

        if matches!(n, 256 | 1024) {
            r.bench_batched(
                &format!("dac_rotating_quarter/{n}"),
                BATCH,
                || {
                    Simulation::builder(params)
                        .inputs_random(1)
                        .adversary(AdversarySpec::Rotating { d: n / 4 }.build(n, 0, 1))
                        .algorithm(factories::dac_with_pend(params, u64::MAX))
                        .algorithm_plane(PlaneMode::Always)
                        .record_schedule(false)
                        .observe_phases(false)
                        .max_rounds(u64::MAX)
                        .build()
                },
                |sim| {
                    for _ in 0..BATCH {
                        sim.step();
                    }
                },
            );
        }

        for (name, spread) in [("dbac_threshold_f16", false), ("dbac_spread_f16", true)] {
            if !matches!((n, spread), (256, _) | (1024, false)) {
                continue;
            }
            let f = n / 64;
            let params = Params::new(n, f, 1e-6).unwrap();
            let adversary = match spread {
                false => AdversarySpec::DbacThreshold,
                true => AdversarySpec::Spread {
                    t: 3,
                    d: (n + 3 * f) / 2,
                },
            };
            r.bench_batched(
                &format!("{name}/{n}"),
                BATCH,
                || {
                    Simulation::builder(params)
                        .inputs_random(1)
                        .adversary(adversary.build(n, f, 1))
                        .algorithm(factories::dbac_with_pend(params, u64::MAX))
                        .algorithm_plane(PlaneMode::Always)
                        .record_schedule(false)
                        .observe_phases(false)
                        .max_rounds(u64::MAX)
                        .build()
                },
                |sim| {
                    for _ in 0..BATCH {
                        sim.step();
                    }
                },
            );
        }

        if matches!(n, 256 | 1024) {
            let f = n / 64;
            let params = Params::new(n, f, 1e-6).unwrap();
            r.bench_batched(
                &format!("dbac_byz_f16/{n}"),
                BATCH,
                || {
                    let mut b = Simulation::builder(params)
                        .inputs_random(1)
                        .adversary(AdversarySpec::DbacThreshold.build(n, f, 1))
                        .algorithm(factories::dbac_with_pend(params, u64::MAX))
                        .algorithm_plane(PlaneMode::Always)
                        .record_schedule(false)
                        .observe_phases(false)
                        .max_rounds(u64::MAX);
                    for i in 0..f {
                        let name = ALL_STRATEGY_NAMES[i % ALL_STRATEGY_NAMES.len()];
                        let strategy = strategies::by_name(name, n, i as u64);
                        b = b.byzantine(NodeId::new(n - 1 - i), strategy);
                    }
                    b.build()
                },
                |sim| {
                    for _ in 0..BATCH {
                        sim.step();
                    }
                },
            );
        }

        // Order/wire cases: the shuffled delivery order and the quantized
        // wire format, each on the plane and on its trait-path reference —
        // the head-to-head for the permutation-aware columnar path.
        if n >= 256 {
            for case in [Case::Default, Case::TraitPath] {
                let suffix = case.suffix();
                r.bench_batched(
                    &format!("dac_shuffled{suffix}/{n}"),
                    BATCH,
                    || {
                        Simulation::builder(params)
                            .inputs_random(1)
                            .delivery_order(DeliveryOrder::Shuffled(7))
                            .algorithm(factories::dac_with_pend(params, u64::MAX))
                            .algorithm_plane(case.plane())
                            .max_rounds(u64::MAX)
                            .build()
                    },
                    |sim| {
                        for _ in 0..BATCH {
                            sim.step();
                        }
                    },
                );
                r.bench_batched(
                    &format!("dac_quantized{suffix}/{n}"),
                    BATCH,
                    || {
                        Simulation::builder(params)
                            .inputs_random(1)
                            .algorithm(quantized_factory(
                                factories::dac_with_pend(params, u64::MAX),
                                Precision::new(11),
                            ))
                            .algorithm_plane(case.plane())
                            .max_rounds(u64::MAX)
                            .build()
                    },
                    |sim| {
                        for _ in 0..BATCH {
                            sim.step();
                        }
                    },
                );
            }
        }

        // Gallery cases: the windowed and omission adversaries at the
        // sizes where the link-build cost is visible (default
        // configuration only — the engine side is already isolated by the
        // lean/trait variants above).
        if n >= 256 {
            for (label, spec) in [
                ("dac_spread", AdversarySpec::Spread { t: 3, d: n / 2 }),
                (
                    "dac_staggered",
                    AdversarySpec::Staggered {
                        d: n / 2,
                        groups: 3,
                    },
                ),
                ("dac_omit", AdversarySpec::OmitLowest),
            ] {
                r.bench_batched(
                    &format!("{label}/{n}"),
                    BATCH,
                    || {
                        Simulation::builder(params)
                            .inputs_random(1)
                            .adversary(spec.build(n, 0, 1))
                            .algorithm(factories::dac_with_pend(params, u64::MAX))
                            .max_rounds(u64::MAX)
                            .build()
                    },
                    |sim| {
                        for _ in 0..BATCH {
                            sim.step();
                        }
                    },
                );
            }
        }
    }

    // Trial-lane cases: 64 Monte-Carlo trials of one DAC configuration
    // run to completion — as one lockstep lane word (`run_lanes`) vs. as
    // 64 scalar simulations — on a single worker, so the lane/scalar
    // ratio is the vectorization win, not a threading win. Both
    // link-driving modes are tracked: `trial_lanes_*` uses a rotating
    // adversary whose declared `lane_key` lets one realization serve all
    // 64 lanes (the shared-broadcast path), while `trial_lanes_random_*`
    // gives each trial its own seeded `Random{p}` adversary (per-lane
    // driving — every lane pays its own Bernoulli draws, so the win is
    // bounded by the per-trial delivery work both paths share). The
    // batch of 64 means the reported per-iteration cost is per *trial*,
    // so `per_sec` is trials per second — the unit of
    // `BENCH_trial_lanes.json`.
    for &n in &[9usize, 64, 128, 256, 512] {
        let params = Params::fault_free(n, 1e-3).unwrap();
        let trials: Vec<u64> = (0..64).collect();
        let pool = TrialPool::with_threads(1);
        let shared = |t: u64| {
            Simulation::builder(params)
                .inputs_random(t ^ 0xBEEF)
                .adversary(AdversarySpec::Rotating { d: n / 2 }.build(n, 0, t))
                .algorithm(factories::dac(params))
                .max_rounds(10_000)
        };
        let random = |t: u64| {
            Simulation::builder(params)
                .inputs_random(t ^ 0xBEEF)
                .adversary(AdversarySpec::Random { p: 0.5 }.build(n, 0, t))
                .algorithm(factories::dac(params))
                .max_rounds(10_000)
        };
        r.bench_batched(
            &format!("trial_lanes_lane/{n}"),
            64,
            || (),
            |()| pool.run_lanes(&trials, |&t| shared(t)),
        );
        r.bench_batched(
            &format!("trial_lanes_scalar/{n}"),
            64,
            || (),
            |()| pool.run(&trials, |&t| scalar_lane_outcome(shared(t))),
        );
        r.bench_batched(
            &format!("trial_lanes_random_lane/{n}"),
            64,
            || (),
            |()| pool.run_lanes(&trials, |&t| random(t)),
        );
        r.bench_batched(
            &format!("trial_lanes_random_scalar/{n}"),
            64,
            || (),
            |()| pool.run(&trials, |&t| scalar_lane_outcome(random(t))),
        );
    }
    r.finish();
}
