//! Ad-hoc scenario runner: compose a system, an adversary, and faults on
//! the command line and get the full verdict.
//!
//! ```console
//! $ cargo run --release -p adn-bench --bin scenario -- \
//!       --algo dbac --n 11 --f 2 --eps 1e-3 \
//!       --adversary dbac-threshold --byz two-faced --byz extreme-high \
//!       --seed 42
//! ```
//!
//! Flags (all optional unless noted):
//!
//! | flag | default | meaning |
//! |------|---------|---------|
//! | `--algo` | `dac` | dac, dbac, dbac-piggyback, full-exchange, reliable-ac, bac, local-averager, trimmed-local-averager, min-flood |
//! | `--n` | 9 | system size |
//! | `--f` | 0 | fault bound |
//! | `--eps` | 1e-3 | agreement parameter |
//! | `--adversary` | `complete` | spec string, see `adn_bench::cli::parse_spec` |
//! | `--byz` | — | repeatable; Byzantine strategy name, assigned to the highest free indices |
//! | `--crash` | — | repeatable; `node@round`, full final broadcast |
//! | `--seed` | 1 | master seed (inputs, ports, adversary, strategies) |
//! | `--inputs` | `random` | random, spread, split01 |
//! | `--pend` | paper | override the termination phase |
//! | `--k` | 2 | history depth for piggyback/full-exchange |
//! | `--rounds` | 8 | decision round for the fixed-round baselines |
//! | `--max-rounds` | 20000 | blocking cap |
//! | `--trace` | off | `on` prints the per-round range/phase trace |

use adn_adversary::AdversarySpec;
use adn_bench::cli::{parse_spec, Flags};
use adn_faults::strategies::{self, ALL_STRATEGY_NAMES};
use adn_faults::{CrashSchedule, CrashSurvivors};
use adn_graph::checker;
use adn_sim::{factories, workload, Simulation};
use adn_types::{NodeId, Params, Round};

fn main() {
    if let Err(msg) = run(std::env::args().skip(1).collect()) {
        eprintln!("error: {msg}");
        std::process::exit(2);
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let n: usize = flags.get_or("n", 9)?;
    let f: usize = flags.get_or("f", 0)?;
    let eps: f64 = flags.get_or("eps", 1e-3)?;
    let seed: u64 = flags.get_or("seed", 1)?;
    let k: usize = flags.get_or("k", 2)?;
    let rounds: u64 = flags.get_or("rounds", 8)?;
    let max_rounds: u64 = flags.get_or("max-rounds", 20_000)?;
    let params = Params::new(n, f, eps).map_err(|e| e.to_string())?;

    let algo = flags.get("algo").unwrap_or("dac");
    let pend_override: Option<u64> = match flags.get("pend") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| format!("--pend: bad value {v:?}"))?),
    };
    let factory = match algo {
        "dac" => match pend_override {
            None => factories::dac(params),
            Some(p) => factories::dac_with_pend(params, p),
        },
        "dbac" => match pend_override {
            None => factories::dbac(params),
            Some(p) => factories::dbac_with_pend(params, p),
        },
        "dbac-piggyback" => factories::dbac_piggyback(params, k, pend_override.unwrap_or(60)),
        "full-exchange" => factories::full_exchange(params, k),
        "reliable-ac" => factories::reliable_ac(params),
        "bac" => factories::bac(params),
        "local-averager" => factories::local_averager(rounds),
        "trimmed-local-averager" => factories::trimmed_local_averager(n, f, rounds),
        "min-flood" => factories::min_flood(rounds),
        other => return Err(format!("unknown algorithm {other:?}")),
    };

    // The two trimming baselines assert that trimming `f` from each end
    // leaves a value.
    if matches!(algo, "full-exchange" | "bac") && n < 3 * f + 1 {
        return Err(format!("{algo} requires n >= 3f + 1, got n = {n}, f = {f}"));
    }

    let spec = parse_spec(flags.get("adversary").unwrap_or("complete"))?;
    // The two specs whose bounds depend on the system size.
    let group = (n + 3 * f) / 2;
    match spec {
        AdversarySpec::Figure1 if n != 3 => {
            return Err(format!("figure1 is a 3-node example, got --n {n}"));
        }
        AdversarySpec::Theorem10 if group > n || 2 * group < n => {
            return Err(format!(
                "theorem10 needs two overlapping groups of ⌊(n+3f)/2⌋ = {group} in n = {n}"
            ));
        }
        _ => {}
    }
    let inputs = match flags.get("inputs").unwrap_or("random") {
        "random" => workload::random(n, seed),
        "spread" => workload::spread(n),
        "split01" => workload::split01(n, n / 2),
        other => return Err(format!("unknown inputs {other:?}")),
    };

    let mut crashes = CrashSchedule::new(n);
    for c in flags.get_all("crash") {
        let (node, round) = c
            .split_once('@')
            .ok_or_else(|| format!("--crash expects node@round, got {c:?}"))?;
        let node: usize = node.parse().map_err(|_| format!("bad node in {c:?}"))?;
        let round: u64 = round.parse().map_err(|_| format!("bad round in {c:?}"))?;
        if node >= n {
            return Err(format!(
                "--crash {c:?}: node {node} is out of range for n = {n}"
            ));
        }
        crashes.crash(NodeId::new(node), Round::new(round), CrashSurvivors::All);
    }
    let byz = flags.get_all("byz");
    if let Some(name) = byz.iter().find(|name| !ALL_STRATEGY_NAMES.contains(name)) {
        return Err(format!(
            "unknown byzantine strategy {name:?} (known: {})",
            ALL_STRATEGY_NAMES.join(", ")
        ));
    }
    // `f < n` (Params::new), so this also keeps `--byz` within n and the
    // assigned ids `n - 1 - i` in range.
    if byz.len() + crashes.fault_count() > f {
        return Err(format!(
            "{} --byz and {} --crash node(s) exceed the fault bound f = {f}",
            byz.len(),
            crashes.fault_count()
        ));
    }

    let mut builder = Simulation::builder(params)
        .inputs(inputs)
        .adversary(spec.build(n, f, seed))
        .crashes(crashes)
        .algorithm(factory)
        .max_rounds(max_rounds);
    for (i, name) in byz.iter().enumerate() {
        builder = builder.byzantine(
            NodeId::new(n - 1 - i),
            strategies::by_name(name, n, seed + i as u64),
        );
    }

    let outcome = builder.run();
    println!("scenario: algo={algo} {params} adversary={spec} seed={seed}");
    println!("result:   {outcome}");
    println!(
        "verdicts: eps-agreement={} validity={} containment={}",
        outcome.eps_agreement(eps),
        outcome.validity(),
        outcome.phase_containment_ok()
    );
    println!("traffic:  {}", outcome.traffic());
    let faulty = outcome.faulty_ids();
    if let Some(d) = checker::max_dyna_degree(outcome.schedule(), 1, &faulty) {
        println!("realized: (1,{d})-dynaDegree on the delivery schedule (fault-free receivers)");
    }
    if flags.get("trace") == Some("on") {
        println!("\nround  range      min-ph  max-ph  decided");
        for t in outcome.traces() {
            println!(
                "{:>5}  {:<9.3e}  {:>6}  {:>6}  {:>7}",
                t.round.as_u64(),
                t.range,
                t.min_phase.as_u64(),
                t.max_phase.as_u64(),
                t.decided
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::run;

    fn line(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        for bad in [
            "--crash 99@1",
            "--byz nosuch --f 1",
            "--f 0 --byz two-faced",
            "--f 1 --crash 0@1 --crash 1@1",
            "--n 3 --f 1 --byz silent --byz silent --byz silent --byz silent",
            "--adversary rotating:0",
            "--adversary random:nan",
            "--adversary figure1",
            "--adversary theorem10",
            "--algo full-exchange --n 3 --f 1",
            "--algo bac --n 5 --f 2",
        ] {
            assert!(run(line(bad)).is_err(), "{bad}");
        }
        for ok in [
            "--algo dbac --n 11 --f 2 --adversary dbac-threshold --byz two-faced --crash 0@3",
            // The history is reserved up to `pend` entries, not `k`.
            "--algo full-exchange --k 100000000000",
            "--algo dbac-piggyback --k 100000000000",
        ] {
            assert_eq!(run(line(ok)), Ok(()), "{ok}");
        }
    }
}
