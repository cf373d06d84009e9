//! A deterministic work gate: what six fixed runs *do*, pinned as
//! equalities, so that a change to the round pipeline that alters the work
//! of a round shows here whatever the host's speed.
//!
//! Each cell is one single-shard configuration built through `SimBuilder`
//! or `ServiceRun`. For a standalone cell the table pins, over rounds 4–23
//! (or up to the run's end, if it stops sooner), the delta of every
//! `adn_core::probe` counter and the delivered links and messages of
//! `Traffic`, and the longest batch one link carried in the whole run. The
//! service exposes no `Traffic`, so its cell pins the
//! counters over its three instances and each instance's record (rounds,
//! participants, decided nodes, minimum dynaDegree) instead.
//!
//! The counters count in a debug build only (the debug `cargo test`); a
//! release build pins traffic and records alone and says so on stderr.
//!
//! On a mismatch the test prints the whole table as this build measured
//! it, in the format of [`TABLE`]: a change that means to alter the work
//! pastes it in, and says in its description which rows moved and why.

use anondyn::consensus::probe;
use anondyn::faults::strategies::{self, ALL_STRATEGY_NAMES};
use anondyn::prelude::*;
use anondyn::sim::LinkMode;

/// Every counter of `adn_core::probe`, by name.
const COUNTERS: [(&str, usize); probe::COUNTERS] = [
    ("RANK_SETTLES", probe::RANK_SETTLES),
    ("SENDER_SETTLES", probe::SENDER_SETTLES),
    ("RANK_VISITS", probe::RANK_VISITS),
    (
        "SETTLES_ONTO_PARTIAL_LISTS",
        probe::SETTLES_ONTO_PARTIAL_LISTS,
    ),
    ("WORD_STEPS", probe::WORD_STEPS),
    ("CUT_WORDS", probe::CUT_WORDS),
    ("UNINDEXED_ROUNDS", probe::UNINDEXED_ROUNDS),
    ("STALE_STOPS", probe::STALE_STOPS),
    ("QUORUM_BOUNDS", probe::QUORUM_BOUNDS),
    ("FABRICATIONS", probe::FABRICATIONS),
];

/// The first round measured, and the first one past the window.
const FROM: u64 = 4;
const TO: u64 = 24;

/// The pinned work: `cell quantity value`, one per line. Counter rows hold
/// in a debug build only.
const TABLE: &str = "\
dac_dense        RANK_SETTLES                0
dac_dense        SENDER_SETTLES              0
dac_dense        RANK_VISITS                 0
dac_dense        SETTLES_ONTO_PARTIAL_LISTS  0
dac_dense        WORD_STEPS                  174080
dac_dense        CUT_WORDS                   0
dac_dense        UNINDEXED_ROUNDS            0
dac_dense        STALE_STOPS                 20480
dac_dense        QUORUM_BOUNDS               0
dac_dense        FABRICATIONS                0
dac_dense        rounds                      20
dac_dense        deliveries                  20951040
dac_dense        messages                    20951040
dac_dense        max_batch                   1
dbac_byz         RANK_SETTLES                0
dbac_byz         SENDER_SETTLES              0
dbac_byz         RANK_VISITS                 2648678
dbac_byz         SETTLES_ONTO_PARTIAL_LISTS  20160
dbac_byz         WORD_STEPS                  178522
dbac_byz         CUT_WORDS                   31650
dbac_byz         UNINDEXED_ROUNDS            0
dbac_byz         STALE_STOPS                 0
dbac_byz         QUORUM_BOUNDS               20160
dbac_byz         FABRICATIONS                42360
dbac_byz         rounds                      20
dbac_byz         deliveries                  10805760
dbac_byz         messages                    10805760
dbac_byz         max_batch                   1
sparse_rotating  RANK_SETTLES                0
sparse_rotating  SENDER_SETTLES              0
sparse_rotating  RANK_VISITS                 0
sparse_rotating  SETTLES_ONTO_PARTIAL_LISTS  0
sparse_rotating  WORD_STEPS                  194220
sparse_rotating  CUT_WORDS                   0
sparse_rotating  UNINDEXED_ROUNDS            0
sparse_rotating  STALE_STOPS                 180
sparse_rotating  QUORUM_BOUNDS               0
sparse_rotating  FABRICATIONS                0
sparse_rotating  rounds                      20
sparse_rotating  deliveries                  10506240
sparse_rotating  messages                    10506240
sparse_rotating  max_batch                   1
dbac_byz_events  RANK_SETTLES                0
dbac_byz_events  SENDER_SETTLES              0
dbac_byz_events  RANK_VISITS                 0
dbac_byz_events  SETTLES_ONTO_PARTIAL_LISTS  0
dbac_byz_events  WORD_STEPS                  0
dbac_byz_events  CUT_WORDS                   0
dbac_byz_events  UNINDEXED_ROUNDS            0
dbac_byz_events  STALE_STOPS                 0
dbac_byz_events  QUORUM_BOUNDS               0
dbac_byz_events  FABRICATIONS                1360
dbac_byz_events  rounds                      8
dbac_byz_events  deliveries                  21200
dbac_byz_events  messages                    21200
dbac_byz_events  max_batch                   1
piggyback_faults RANK_SETTLES                0
piggyback_faults SENDER_SETTLES              0
piggyback_faults RANK_VISITS                 0
piggyback_faults SETTLES_ONTO_PARTIAL_LISTS  0
piggyback_faults WORD_STEPS                  0
piggyback_faults CUT_WORDS                   0
piggyback_faults UNINDEXED_ROUNDS            0
piggyback_faults STALE_STOPS                 0
piggyback_faults QUORUM_BOUNDS               0
piggyback_faults FABRICATIONS                700
piggyback_faults rounds                      20
piggyback_faults deliveries                  43622
piggyback_faults messages                    172388
piggyback_faults max_batch                   4
service_churn    RANK_SETTLES                0
service_churn    SENDER_SETTLES              0
service_churn    RANK_VISITS                 0
service_churn    SETTLES_ONTO_PARTIAL_LISTS  0
service_churn    WORD_STEPS                  1282
service_churn    CUT_WORDS                   0
service_churn    UNINDEXED_ROUNDS            0
service_churn    STALE_STOPS                 0
service_churn    QUORUM_BOUNDS               0
service_churn    FABRICATIONS                0
service_churn    instance0.rounds            7
service_churn    instance0.participants      56
service_churn    instance0.decided           56
service_churn    instance0.min_dyna_degree   59
service_churn    instance1.rounds            7
service_churn    instance1.participants      56
service_churn    instance1.decided           56
service_churn    instance1.min_dyna_degree   59
service_churn    instance2.rounds            7
service_churn    instance2.participants      56
service_churn    instance2.decided           56
service_churn    instance2.min_dyna_degree   58
";

/// One measured quantity of one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Row {
    cell: &'static str,
    quantity: String,
    value: u64,
}

fn row(cell: &'static str, quantity: impl Into<String>, value: u64) -> Row {
    Row {
        cell,
        quantity: quantity.into(),
        value,
    }
}

/// The counter rows of `cell` for the work between two snapshots.
fn counter_rows(cell: &'static str, before: Option<[u64; probe::COUNTERS]>) -> Vec<Row> {
    let (Some(before), Some(after)) = (before, probe::counts()) else {
        return Vec::new();
    };
    let delta = |counter: usize| after[counter] - before[counter];
    (COUNTERS.iter())
        .map(|&(name, counter)| row(cell, name, delta(counter)))
        .collect()
}

/// A standalone cell's rows: its rounds, traffic and counters over rounds
/// `FROM..TO`. The traffic before `FROM` comes from a twin capped at
/// `FROM` rounds, since a `Simulation` reports its traffic only once
/// finished; the twin is the same deterministic run.
fn standalone(cell: &'static str, builder: impl Fn() -> SimBuilder) -> Vec<Row> {
    let head = builder().max_rounds(FROM).run().traffic();
    let mut sim = builder().max_rounds(TO).build();
    while sim.round() < Round::new(FROM) && sim.stopped().is_none() {
        sim.step();
    }
    let before = probe::counts();
    while sim.stopped().is_none() {
        sim.step();
    }
    let mut rows = counter_rows(cell, before);
    let outcome = sim.finish();
    let traffic = outcome.traffic();
    rows.push(row(cell, "rounds", outcome.rounds().saturating_sub(FROM)));
    rows.push(row(
        cell,
        "deliveries",
        traffic.deliveries() - head.deliveries(),
    ));
    rows.push(row(cell, "messages", traffic.messages() - head.messages()));
    rows.push(row(cell, "max_batch", traffic.max_batch()));
    rows
}

/// DAC, n = 1024, on the complete graph, columnar: the word walk.
fn dac_dense() -> Vec<Row> {
    let p = Params::new(1024, 0, 1e-9).unwrap();
    standalone("dac_dense", || {
        Simulation::builder(p)
            .inputs_random(1)
            .algorithm(factories::dac(p))
            .algorithm_plane(PlaneMode::Always)
    })
}

/// DBAC, n = 1024, f = 16, at the threshold degree, the stock strategies
/// cycled on the top ids: Alg. 2's deferred stores, the class pass and the
/// fabrication arena.
fn dbac_byz() -> Vec<Row> {
    let (n, f) = (1024, 16);
    let p = Params::new(n, f, 1e-3).unwrap();
    standalone("dbac_byz", || {
        let mut b = Simulation::builder(p)
            .inputs_random(2)
            .adversary(AdversarySpec::DbacThreshold.build(n, f, 3))
            .algorithm(factories::dbac_with_pend(p, 30))
            .algorithm_plane(PlaneMode::Always);
        for i in 0..f {
            let name = ALL_STRATEGY_NAMES[i % ALL_STRATEGY_NAMES.len()];
            let strategy = strategies::by_name(name, n, 4 + i as u64);
            b = b.byzantine(NodeId::new(n - 1 - i), strategy);
        }
        b
    })
}

/// DAC, n = 1024, on run rows under a rotating window just above the
/// quorum.
fn sparse_rotating() -> Vec<Row> {
    let n = 1024;
    let p = Params::new(n, 0, 1e-9).unwrap();
    standalone("sparse_rotating", || {
        Simulation::builder(p)
            .inputs_random(5)
            .adversary(AdversarySpec::Rotating { d: n / 2 + 1 }.build(n, 0, 6))
            .algorithm(factories::dac(p))
            .algorithm_plane(PlaneMode::Always)
            .link_mode(LinkMode::Sparse)
    })
}

/// The ledger gallery's logged DBAC cell at n = 65: boxed nodes (a logged
/// run stays boxed), an event log, f = 12 Byzantine senders.
fn dbac_byz_events() -> Vec<Row> {
    let n = 65;
    let f = (n - 1) / 5;
    let p = Params::new(n, f, 1e-2).unwrap();
    standalone("dbac_byz_events", || {
        let mut b = Simulation::builder(p)
            .inputs_random(7)
            .adversary(AdversarySpec::DbacThreshold.build(n, f, 8))
            .algorithm(factories::dbac_with_pend(p, 12))
            .record_events(true);
        for i in 0..f {
            let name = ALL_STRATEGY_NAMES[i % ALL_STRATEGY_NAMES.len()];
            let strategy = strategies::by_name(name, n, 9 + i as u64);
            b = b.byzantine(NodeId::new(n - 1 - i), strategy);
        }
        b
    })
}

/// Boxed DBAC piggybacking k = 3 past states at n = 64, f = 2: batches of
/// more than one message, a crash with a survivor subset inside the window
/// and a two-faced Byzantine sender — every per-link arm of the traffic
/// meter.
fn piggyback_faults() -> Vec<Row> {
    let (n, f) = (64, 2);
    let p = Params::new(n, f, 1e-3).unwrap();
    standalone("piggyback_faults", || {
        let mut crash = CrashSchedule::new(n);
        let survivors = (0..n).step_by(3).map(NodeId::new).collect();
        crash.crash(
            NodeId::new(9),
            Round::new(11),
            CrashSurvivors::Subset(survivors),
        );
        Simulation::builder(p)
            .inputs_random(12)
            .adversary(AdversarySpec::DbacThreshold.build(n, f, 13))
            .algorithm(factories::dbac_piggyback(p, 3, 60))
            .algorithm_plane(PlaneMode::Never)
            .crashes(crash)
            .byzantine(
                NodeId::new(n - 1),
                Box::new(strategies::TwoFaced::zero_one(n / 2)),
            )
    })
}

/// Three service instances at n = 64 under churn, with a two-round
/// watchdog window.
fn service_churn() -> Vec<Row> {
    const CELL: &str = "service_churn";
    let n = 64;
    let p = Params::fault_free(n, 1e-2).unwrap();
    let horizon = Round::new(200);
    let mut churn = ChurnPlan::new(n);
    for v in 0..n / 8 {
        let node = NodeId::new(2 + v);
        if v % 2 == 0 {
            let first = Round::new(2 + v as u64 % 13);
            churn.flap_periodic(node, first, 2, 9 + v as u64 % 5, DownKind::Abrupt, horizon);
        } else {
            churn.flap_random(node, 0.05, 0.35, 10 + v as u64, horizon);
        }
    }
    let builder = Simulation::builder(p)
        .algorithm(factories::dac(p))
        .algorithm_plane(PlaneMode::Always)
        .max_rounds(48);
    let mut service = ServiceRun::new(builder, churn, InputStream::random(11)).dyna_window(2);
    let before = probe::counts();
    let mut rows = Vec::new();
    for k in 0..3 {
        let rec = service.run_instance();
        rows.push(row(CELL, format!("instance{k}.rounds"), rec.rounds));
        rows.push(row(
            CELL,
            format!("instance{k}.participants"),
            rec.participants as u64,
        ));
        rows.push(row(
            CELL,
            format!("instance{k}.decided"),
            rec.decided as u64,
        ));
        let dyna = rec.min_dyna_degree.map_or(u64::MAX, |d| d as u64);
        rows.push(row(CELL, format!("instance{k}.min_dyna_degree"), dyna));
    }
    let mut counted = counter_rows(CELL, before);
    counted.append(&mut rows);
    counted
}

fn parse(table: &str) -> Vec<(String, String, u64)> {
    table
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| {
            let mut parts = line.split_whitespace();
            let (Some(cell), Some(quantity), Some(value), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                panic!("malformed table line {line:?}");
            };
            let value = value.parse().expect("a table value is a u64");
            (cell.to_owned(), quantity.to_owned(), value)
        })
        .collect()
}

/// The cell's rows against the table's: every measured row must be pinned
/// with its value, and every pinned row of the cell measured — except the
/// counter rows, in a build that does not count.
fn check(cell: &str, measured: Vec<Row>) {
    let counting = probe::counts().is_some();
    let is_counter = |quantity: &str| COUNTERS.iter().any(|&(name, _)| name == quantity);
    let pinned: Vec<(String, u64)> = parse(TABLE)
        .into_iter()
        .filter(|(c, q, _)| c == cell && (counting || !is_counter(q)))
        .map(|(_, q, v)| (q, v))
        .collect();
    let got: Vec<(String, u64)> = (measured.iter())
        .map(|r| (r.quantity.clone(), r.value))
        .collect();
    if !counting {
        eprintln!("work_ledger {cell}: adn-core built without its probe counters (release); pinned traffic and records only");
    }
    let table: String = (measured.iter())
        .map(|r| format!("{:<16} {:<27} {}\n", r.cell, r.quantity, r.value))
        .collect();
    assert_eq!(
        got, pinned,
        "{cell}: the work moved; this build measured\n{table}"
    );
}

#[test]
fn dac_dense_work_is_pinned() {
    check("dac_dense", dac_dense());
}

#[test]
fn dbac_byz_work_is_pinned() {
    check("dbac_byz", dbac_byz());
}

#[test]
fn sparse_rotating_work_is_pinned() {
    check("sparse_rotating", sparse_rotating());
}

#[test]
fn dbac_byz_events_work_is_pinned() {
    check("dbac_byz_events", dbac_byz_events());
}

#[test]
fn piggyback_faults_work_is_pinned() {
    check("piggyback_faults", piggyback_faults());
}

#[test]
fn service_churn_work_is_pinned() {
    check("service_churn", service_churn());
}
