//! `ledger check <a.json> <b.json>`: compares two `ledger all` files,
//! metric by metric and workload by workload, each under its own bound.

use std::collections::{BTreeMap, BTreeSet};

use crate::json::Json;
use crate::metrics::{Better, Metric, END_TO_END, PER_LAYER};
use crate::stats::Summary;

/// How `b` reads against `a` (the base) on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the base's own run-to-run spread.
    Better,
    /// No worse than the bound allows.
    Within,
    /// Worse by more than the bound.
    Worse,
    /// A spread wider than the bound hides the answer (and not every run
    /// of `b` beats every run of `a`).
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Applies `metric`'s bound to the runs of `a` (base) and `b`.
pub fn compare(metric: &Metric, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let ratio = if sa.median != 0.0 {
        sb.median / sa.median
    } else {
        1.0
    };
    // The share of the base median by which `b` is worse (negative: better).
    let worse_by = match metric.better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    };
    let beats = |x: f64, y: f64| match metric.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let dominates = !a.is_empty() && b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
    let verdict = if sa.spread().max(sb.spread()) > metric.bound && !dominates {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Worse
    } else if dominates || -worse_by > sa.spread().max(f64::EPSILON) {
        Verdict::Better
    } else {
        Verdict::Within
    };
    (verdict, ratio)
}

/// Values per `(workload, metric)` plus failures per workload, of the
/// runs in one `ledger all` file with the given trace flag.
struct Runs {
    values: BTreeMap<(String, String), Vec<f64>>,
    failed: BTreeMap<String, f64>,
    incorrect: Vec<String>,
}

fn collect(doc: &Json, traced: bool) -> Result<Runs, String> {
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("not a `ledger all` file: no `runs` array")?;
    let mut out = Runs {
        values: BTreeMap::new(),
        failed: BTreeMap::new(),
        incorrect: Vec::new(),
    };
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without a workload")?;
        if (run.get("trace").and_then(Json::as_f64) == Some(1.0)) != traced {
            continue;
        }
        let result = run.get("result").ok_or("run without a result")?;
        *out.failed.entry(workload.to_string()).or_insert(0.0) +=
            result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if result.get("correct").and_then(Json::as_bool) != Some(true) {
            out.incorrect.push(workload.to_string());
        }
        for (name, m) in result
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("result without metrics")?
        {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

fn row(table: &mut String, line: String) {
    table.push_str(&line);
    table.push('\n');
}

/// The comparison table and whether it holds a reason to fail: a `worse`
/// row, a rise in failed operations, an incorrect run in `b`, or a workload
/// or metric that only one of the files has.
pub fn check(a: &Json, b: &Json, with_layers: bool) -> Result<(String, bool), String> {
    let mut table = String::new();
    let mut bad = false;
    row(
        &mut table,
        format!(
            "{:<15} {:<30} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
            "workload", "metric", "a (base)", "b", "b/a", "bound", "spread"
        ),
    );
    let (ea, eb) = (collect(a, false)?, collect(b, false)?);
    // A pair one file lacks (a child crashed, a workload was dropped) is a
    // reason to fail, not a row to skip.
    let only_in = |workload: &str, what: &str, in_a: bool| {
        format!(
            "{workload:<15} {what:<30} only in {}  missing",
            if in_a { "a" } else { "b" }
        )
    };
    let pairs: BTreeSet<_> = ea.values.keys().chain(eb.values.keys()).collect();
    for key @ (workload, name) in pairs {
        let Some(metric) = END_TO_END.iter().find(|m| m.name == name) else {
            continue;
        };
        let (Some(va), Some(vb)) = (ea.values.get(key), eb.values.get(key)) else {
            bad = true;
            row(
                &mut table,
                only_in(workload, name, ea.values.contains_key(key)),
            );
            continue;
        };
        let (verdict, ratio) = compare(metric, va, vb);
        bad |= verdict == Verdict::Worse;
        let (sa, sb) = (Summary::of(va), Summary::of(vb));
        row(
            &mut table,
            format!(
                "{workload:<15} {name:<30} {:>14.6} {:>14.6} {ratio:>8.4} {:>7.3} {:>7.3}  {}",
                sa.median,
                sb.median,
                metric.bound,
                sa.spread().max(sb.spread()),
                verdict.as_str()
            ),
        );
    }
    let workloads: BTreeSet<_> = ea.failed.keys().chain(eb.failed.keys()).collect();
    for workload in workloads {
        let (Some(fa), Some(fb)) = (ea.failed.get(workload), eb.failed.get(workload)) else {
            bad = true;
            row(
                &mut table,
                only_in(workload, "runs", ea.failed.contains_key(workload)),
            );
            continue;
        };
        let rose = fb > fa;
        bad |= rose;
        row(
            &mut table,
            format!(
                "{workload:<15} {:<30} {fa:>14} {fb:>14} {:>8} {:>7} {:>7}  {}",
                "failed operations",
                "-",
                "exact",
                "-",
                if rose { "worse" } else { "within" }
            ),
        );
    }
    for workload in &eb.incorrect {
        bad = true;
        row(
            &mut table,
            format!("{workload:<15} a run of b reported correct=false"),
        );
    }
    if with_layers {
        let (la, lb) = (collect(a, true)?, collect(b, true)?);
        for ((workload, name), va) in &la.values {
            let (Some(metric), Some(vb)) = (
                PER_LAYER.iter().find(|m| m.name == name),
                lb.values.get(&(workload.clone(), name.clone())),
            ) else {
                continue;
            };
            let (sa, sb) = (Summary::of(va), Summary::of(vb));
            if sa.median == 0.0 && sb.median == 0.0 {
                continue; // the layer is not on this workload's path
            }
            row(&mut table, format!(
                "{workload:<15} {name:<30} {:>14.6} {:>14.6} {:>8.4} {:>7} {:>7.3}  layer ({} is better)",
                sa.median,
                sb.median,
                if sa.median != 0.0 { sb.median / sa.median } else { 0.0 },
                "-",
                sa.spread().max(sb.spread()),
                metric.better.as_str()
            ));
        }
    }
    Ok((table, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparator_applies_direction_bound_and_spread() {
        let metric = |better| Metric {
            name: "m",
            unit: "u",
            better,
            bound: 0.10,
        };
        let (lower, higher) = (&metric(Better::Lower), &metric(Better::Higher));
        let tight = |c: f64| vec![c * 0.99, c, c * 1.01, c * 1.005, c * 0.995];

        assert_eq!(
            compare(lower, &tight(100.0), &tight(100.5)).0,
            Verdict::Within
        );
        assert_eq!(
            compare(lower, &tight(100.0), &tight(109.0)).0,
            Verdict::Within
        );
        assert_eq!(
            compare(lower, &tight(100.0), &tight(112.0)).0,
            Verdict::Worse
        );
        assert_eq!(
            compare(lower, &tight(100.0), &tight(80.0)).0,
            Verdict::Better
        );
        assert_eq!(
            compare(higher, &tight(100.0), &tight(80.0)).0,
            Verdict::Worse
        );
        assert_eq!(
            compare(higher, &tight(100.0), &tight(120.0)).0,
            Verdict::Better
        );
        assert_eq!(
            compare(higher, &tight(100.0), &tight(95.0)).0,
            Verdict::Within
        );

        // A spread wider than the bound hides the answer ...
        let noisy = vec![70.0, 85.0, 100.0, 115.0, 130.0];
        assert_eq!(compare(lower, &noisy, &tight(101.0)).0, Verdict::Unresolved);
        // ... unless every run of b beats every run of a.
        assert_eq!(compare(lower, &noisy, &tight(50.0)).0, Verdict::Better);

        let (_, ratio) = compare(lower, &[200.0], &[150.0]);
        assert_eq!(ratio, 0.75);
        // Single runs carry no spread: the bound alone decides.
        assert_eq!(compare(lower, &[100.0], &[100.0]).0, Verdict::Within);
        assert_eq!(compare(lower, &[100.0], &[111.0]).0, Verdict::Worse);
    }

    fn file(ns: f64, failed: f64, correct: bool) -> Json {
        file_of(&["dac_dense"], ns, failed, correct)
    }

    fn file_of(workloads: &[&str], ns: f64, failed: f64, correct: bool) -> Json {
        let run = |workload: &str, trace: f64, metrics: Json| {
            Json::obj([
                ("workload", Json::str(workload)),
                ("trace", Json::Num(trace)),
                (
                    "result",
                    Json::obj([
                        ("correct", Json::Bool(correct)),
                        ("failed", Json::Num(failed)),
                        ("metrics", metrics),
                    ]),
                ),
            ])
        };
        let m = |name: &str, v: f64| (name.to_string(), Json::obj([("value", Json::Num(v))]));
        let runs = workloads.iter().flat_map(|w| {
            [
                run(w, 0.0, Json::Obj(vec![m("ns_per_delivery", ns)])),
                run(w, 1.0, Json::Obj(vec![m("core.deliver_share", 0.9)])),
            ]
        });
        Json::obj([("runs", Json::Arr(runs.collect()))])
    }

    #[test]
    fn check_fails_on_worse_rows_failure_rises_and_incorrect_runs() {
        let base = file(4.0, 0.0, true);
        let (table, bad) = check(&base, &file(4.1, 0.0, true), true).unwrap();
        assert!(!bad, "{table}");
        assert!(table.contains("within") && table.contains("core.deliver_share"));
        assert!(check(&base, &file(6.0, 0.0, true), false).unwrap().1);
        assert!(check(&base, &file(4.0, 1.0, true), false).unwrap().1);
        assert!(check(&base, &file(4.0, 0.0, false), false).unwrap().1);
        assert!(check(&Json::Null, &base, false).is_err());
    }

    #[test]
    fn check_fails_when_one_file_lacks_a_workload() {
        let both = file_of(&["dac_dense", "dbac_byz"], 4.0, 0.0, true);
        let one = file(4.0, 0.0, true);
        assert!(!check(&both, &both, false).unwrap().1);
        for (a, b, side) in [(&both, &one, "only in a"), (&one, &both, "only in b")] {
            let (table, bad) = check(a, b, false).unwrap();
            assert!(bad, "{table}");
            assert!(
                table.contains("dbac_byz") && table.contains(side),
                "{table}"
            );
        }
    }
}
