//! E20 — Service mode: repeated consensus instances under churn.
//!
//! The previous experiments each run consensus **once**. A deployed
//! coordination service runs it continuously — altitude agreement every
//! few seconds while drones drop out, recover, and join — so this
//! experiment measures the service layer itself: decisions per second
//! and abort rate at a fixed `n` across churn intensities, on both the
//! per-node trait path and the columnar plane. Every configuration runs
//! a long stream of instances over **one** long-lived engine
//! ([`ServiceRun`]): plane columns, round buffers, the crash slice, and
//! the watchdog window are re-seeded in place between instances, so the
//! steady-state turnover allocates nothing (pinned by
//! `tests/alloc_free.rs`).
//!
//! Four churn intensities:
//!
//! * `none` — static membership, the regime of every earlier experiment;
//! * `flap(2)` — two nodes flap periodically (down 2 of every 7 and 11
//!   rounds), so most instances see a mid-instance crash or a shrunken
//!   membership slice;
//! * `flap(n/8)` — an eighth of the fleet flaps on mixed periodic and
//!   random (Markov) plans, the heavy-churn regime;
//! * `partition` — no crash churn, but the adversary pins every realized
//!   degree at `n/2 - 1`, *below* DAC's `floor(n/2)` threshold
//!   (Thm. 9(a)): no instance can decide, every instance must burn
//!   exactly the round cap `R_max`, and the service must record the
//!   degradation — abort rate 100% — and keep going. The watchdog's
//!   windowed dynaDegree column shows exactly the violated degree.
//!
//! The trait and plane paths must agree on every aggregate (instances
//! decided/aborted, total rounds, min dynaDegree) — only the wall clock
//! may differ; behind that claim, `tests/reference_round.rs` holds every
//! instance on either path to its naive round executor.
//!
//! The registry entry runs a reduced n (and fewer instances) so
//! `run_all` stays quick; `exp 20 --n 256` is the
//! full n = 256 / 1000-instances-per-stream demonstration.

use std::fmt::Write;
use std::time::Instant;

use adn_adversary::AdversarySpec;
use adn_analysis::Table;
use adn_faults::{ChurnPlan, DownKind};
use adn_sim::workload::InputStream;
use adn_sim::{factories, PlaneMode, ServiceRun, Simulation};
use adn_types::{NodeId, Params, Round};

use crate::harness::peak_rss_bytes;

/// Registry entry: the same matrix at a reduced n so `run_all` stays
/// quick.
pub fn run() -> String {
    run_at(64)
}

/// Aggregates of one service stream; the trait and plane paths must
/// produce identical ones.
#[derive(PartialEq, Debug, Clone, Copy)]
struct Aggregate {
    decided: u64,
    aborted: u64,
    total_rounds: u64,
    min_dyna: Option<usize>,
}

/// Runs the full churn matrix at `n` (even, for the partition row) and
/// returns the report.
pub fn run_at(n: usize) -> String {
    assert!(n.is_multiple_of(2) && n >= 16, "E20 needs an even n >= 16");
    let mut out = String::new();
    let eps = 1e-2;
    let r_max = 48u64;
    let instances: u64 = if n >= 256 { 1_000 } else { 250 };
    let horizon = Round::new(instances * r_max + 1);

    let churn_none = ChurnPlan::new(n);

    let mut churn_light = ChurnPlan::new(n);
    churn_light.flap_periodic(
        NodeId::new(0),
        Round::new(3),
        2,
        7,
        DownKind::Abrupt,
        horizon,
    );
    churn_light.flap_periodic(
        NodeId::new(1),
        Round::new(5),
        2,
        11,
        DownKind::Graceful,
        horizon,
    );

    let mut churn_heavy = ChurnPlan::new(n);
    for v in 0..n / 8 {
        let node = NodeId::new(2 + v);
        if v % 2 == 0 {
            churn_heavy.flap_periodic(
                node,
                Round::new(2 + (v as u64 % 13)),
                2,
                9 + (v as u64 % 5),
                DownKind::Abrupt,
                horizon,
            );
        } else {
            churn_heavy.flap_random(node, 0.05, 0.35, 0xE20 + v as u64, horizon);
        }
    }

    let mut t = Table::new([
        "path",
        "churn",
        "inst",
        "decided",
        "aborted",
        "abort %",
        "rounds",
        "wall ms",
        "decisions/s",
        "min dyna",
    ]);

    // (label, plan, instance count, degree-violating adversary?). The
    // partition stream runs fewer instances: every one of them burns the
    // full R_max by design.
    let rows = [
        ("none", &churn_none, instances, false),
        ("flap(2)", &churn_light, instances, false),
        ("flap(n/8)", &churn_heavy, instances, false),
        ("partition", &churn_none, instances / 5, true),
    ];
    for (churn_name, churn, inst_count, violated) in rows {
        let mut aggregates: Vec<Aggregate> = Vec::new();
        for (path, mode) in [("trait", PlaneMode::Never), ("plane", PlaneMode::Always)] {
            let params = Params::fault_free(n, eps).expect("valid params");
            let mut builder = Simulation::builder(params)
                .algorithm(factories::dac(params))
                .algorithm_plane(mode)
                .max_rounds(r_max);
            if violated {
                builder = builder.adversary(AdversarySpec::PartitionHalves.build(n, 0, 7));
            }
            let mut service = ServiceRun::new(builder, churn.clone(), InputStream::random(42));
            let mut min_dyna: Option<usize> = None;
            let started = Instant::now();
            for _ in 0..inst_count {
                let rec = service.run_instance();
                assert!(rec.validity, "{churn_name}/{path}: validity violated");
                if let Some(d) = rec.min_dyna_degree {
                    min_dyna = Some(min_dyna.map_or(d, |m| m.min(d)));
                }
                if violated {
                    assert!(
                        !rec.outcome.is_decided(),
                        "{churn_name}/{path}: sub-threshold degree must abort"
                    );
                    assert_eq!(rec.rounds, r_max, "{churn_name}/{path}: full cap burned");
                } else {
                    assert!(rec.agreement, "{churn_name}/{path}: eps-agreement violated");
                }
            }
            let wall = started.elapsed();
            let decided = service.decided_instances();
            let aborted = service.aborted_instances();
            // Abort accounting: the degraded stream aborts everything at
            // the cap; the complete-graph streams decide everything well
            // inside it, whatever the churn slices look like.
            if violated {
                assert_eq!(aborted, inst_count, "{churn_name}/{path}");
                assert_eq!(
                    min_dyna,
                    Some(n / 2 - 1),
                    "{churn_name}/{path}: the watchdog must expose the violated degree"
                );
            } else {
                assert_eq!(decided, inst_count, "{churn_name}/{path}");
            }
            aggregates.push(Aggregate {
                decided,
                aborted,
                total_rounds: service.total_rounds(),
                min_dyna,
            });
            t.row([
                path.to_string(),
                churn_name.to_string(),
                inst_count.to_string(),
                decided.to_string(),
                aborted.to_string(),
                format!("{:.0}", 100.0 * aborted as f64 / inst_count as f64),
                service.total_rounds().to_string(),
                wall.as_millis().to_string(),
                format!("{:.0}", decided as f64 / wall.as_secs_f64()),
                min_dyna.map_or_else(|| "-".into(), |d| d.to_string()),
            ]);
        }
        assert_eq!(
            aggregates[0], aggregates[1],
            "{churn_name}: trait and plane streams must agree on every aggregate"
        );
    }

    writeln!(
        out,
        "n = {n}, eps = {eps} (pend = 7), DAC, R_max = {r_max}, one long-lived engine per stream\n"
    )
    .unwrap();
    writeln!(out, "{t}").unwrap();
    if let Some(peak) = peak_rss_bytes() {
        writeln!(out, "process peak RSS: {} MB", peak / (1024 * 1024)).unwrap();
    }
    writeln!(
        out,
        "check: abort rate is 0% on every complete-graph stream — churn\n\
         shrinks the membership slice but never below DAC's threshold, so\n\
         flapping costs rounds, not instances — and exactly 100% on the\n\
         partition stream, whose windowed dynaDegree (n/2 - 1) sits below\n\
         floor(n/2) (Thm. 9(a)): R_max turns that impossibility into a\n\
         recorded degradation instead of a wedged service. Trait and\n\
         plane streams report identical aggregates; decisions/s is the\n\
         only column allowed to differ."
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn reduced_n_matrix_completes_and_accounts_aborts() {
        let r = super::run_at(16);
        assert!(r.contains("flap(n/8)"));
        assert!(r.contains("partition"));
        assert!(r.contains("100"));
    }
}
