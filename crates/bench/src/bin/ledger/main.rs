//! `ledger` — the repository's benchmark: one command, seven workloads,
//! end-to-end and per-layer numbers for every execution path.
//!
//! ```console
//! $ ledger --workload dac_dense --seed 1 --seconds 10 --trace 0   # one run (what BENCHMARK.json's command drives)
//! $ ledger all [--runs 10] [--seed 1] [--out FILE]                 # every workload, each run in its own child process
//! $ ledger check A.json B.json [--layers]                          # compare two `all` files under each metric's bound
//! $ ledger suite                                                   # the 20-experiment registry: wall time and report digest
//! $ ledger list                                                    # workloads and metrics
//! ```
//!
//! See `README.md` next to this file for the metric glossary, the loop
//! type, and the known confounds.

#![forbid(unsafe_code)]

mod check;
mod json;
mod layers;
mod measure;
mod metrics;
mod replay;
mod run;
mod spans;
mod spec;
mod stats;
mod util;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use json::Json;
use run::{RunArgs, RunOutput};
use util::{env_stamp, Digest};
use workloads::{Size, WORKLOADS};

/// The seed whose digests `baseline.json` pins.
const DEFAULT_SEED: u64 = 1;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
const SMOKE_SECONDS: f64 = 0.2;

/// Command-line flags: `--name value` pairs and bare words, in order.
struct Flags {
    words: Vec<String>,
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Flags that take no value.
    const SWITCHES: [&'static str; 2] = ["--smoke", "--layers"];

    fn parse(args: Vec<String>) -> Result<Flags, String> {
        let mut flags = Flags {
            words: Vec::new(),
            pairs: Vec::new(),
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if Self::SWITCHES.contains(&arg.as_str()) {
                flags.pairs.push((arg, String::new()));
            } else if arg.starts_with("--") {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                flags.pairs.push((arg, value));
            } else {
                flags.words.push(arg);
            }
        }
        Ok(flags)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name}: `{v}` is not a valid value")),
        }
    }

    /// Rejects flags the subcommand does not know.
    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .pairs
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown flag {k}")),
            None => Ok(()),
        }
    }
}

fn run_args(flags: &Flags, workload: &str, trace: bool) -> Result<RunArgs, String> {
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload `{workload}` (try `ledger list`)"));
    }
    let size = if flags.has("--smoke") {
        Size::Smoke
    } else {
        Size::Full
    };
    let default_seconds = if size == Size::Smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    };
    let seconds: f64 = flags.number("--seconds", default_seconds)?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds: {seconds} is outside (0, 600]"));
    }
    Ok(RunArgs {
        workload: workload.to_string(),
        seed: flags.number("--seed", DEFAULT_SEED)?,
        seconds,
        trace,
        size,
    })
}

/// Prints a run: the record first, the driver's one-line result last.
fn print_run(out: &RunOutput) {
    println!("{}", run::slim_detail(&out.detail).render());
    println!("{}", out.result.render());
}

/// `--workload W --seed N --seconds S --trace 0|1`: one run in this
/// process.
fn cmd_run(flags: &Flags, workload: &str, trace: bool) -> Result<ExitCode, String> {
    flags.only(&["--workload", "--seed", "--seconds", "--trace", "--smoke"])?;
    let out = run::run(&run_args(flags, workload, trace)?)?;
    if trace {
        run::write_trace(workload, &out);
    }
    for failure in failures_of(&out.detail) {
        eprintln!("ledger: FAILED {failure}");
    }
    if !out.correct {
        eprintln!("ledger: {workload}: the run's outputs are NOT correct");
    }
    print_run(&out);
    Ok(ExitCode::SUCCESS)
}

fn failures_of(detail: &Json) -> Vec<String> {
    detail
        .get("cells")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|c| c.get("failures").and_then(Json::as_arr))
        .flatten()
        .filter_map(|f| f.as_str().map(str::to_string))
        .collect()
}

/// Runs one workload in a child process (so its `VmHWM` is its own) and
/// returns its record.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child: no process outlives this call.
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8(out.stdout).map_err(|e| format!("{workload}: {e}"))?;
    let mut lines = stdout.lines().rev();
    let _result = lines.next();
    let detail = lines
        .next()
        .ok_or_else(|| format!("{workload}: no record printed"))?;
    Json::parse(detail)
}

/// `all`: every workload `--runs` times on consecutive seeds plus one
/// traced run, each in its own child process; one JSON file out.
fn cmd_all(flags: &Flags) -> Result<ExitCode, String> {
    flags.only(&["--seed", "--seconds", "--runs", "--out", "--smoke"])?;
    let smoke = flags.has("--smoke");
    let seed: u64 = flags.number("--seed", DEFAULT_SEED)?;
    let runs: u64 = flags.number("--runs", 1)?;
    let probe = run_args(flags, WORKLOADS[0].name, false)?;
    let mut records = Vec::new();
    let mut all_correct = true;
    println!(
        "{:<15} {:>6} {:>5}  {:>12} {:>14} {:>14} {:>11} {:>9}  ok",
        "workload",
        "seed",
        "trace",
        "setup_s",
        "rounds_per_s",
        "decisions_per_s",
        "ns_per_deliv",
        "rss_mb"
    );
    for workload in WORKLOADS.map(|w| w.name) {
        let jobs = (0..runs).map(|r| (seed + r, false)).chain([(seed, true)]);
        for (s, trace) in jobs {
            let record = child_run(workload, s, probe.seconds, trace, smoke)?;
            let result = record.get("result").ok_or("record without a result")?;
            let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
            all_correct &= correct;
            let value = |name: &str| {
                result
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .map_or_else(|| "-".to_string(), |v| format!("{v:.4}"))
            };
            println!(
                "{workload:<15} {s:>6} {:>5}  {:>12} {:>14} {:>14} {:>11} {:>9}  {correct}",
                u8::from(trace),
                value("setup_s"),
                value("rounds_per_s"),
                value("decisions_per_s"),
                value("ns_per_delivery"),
                value("peak_rss_mb"),
            );
            for failure in failures_of(&record) {
                println!("    FAILED {failure}");
            }
            records.push(record);
        }
    }
    let doc = Json::obj([
        ("ledger", Json::str("all")),
        ("env", env_stamp()),
        ("seed", Json::Num(seed as f64)),
        ("runs_per_workload", Json::Num(runs as f64)),
        ("seconds", Json::Num(probe.seconds)),
        ("smoke", Json::Bool(smoke)),
        ("claim", Json::Null),
        ("runs", Json::Arr(records)),
    ]);
    let path = flags.get("--out").map_or_else(
        || run::output_dir().join(format!("all-{seed}.json")),
        PathBuf::from,
    );
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("written to {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `check A B`: the comparison table; non-zero on a `worse` row, a rise
/// in failed operations, or an incorrect run.
fn cmd_check(flags: &Flags) -> Result<ExitCode, String> {
    flags.only(&["--layers"])?;
    let [_, a, b] = flags.words.as_slice() else {
        return Err("usage: ledger check <a.json> <b.json> [--layers]".to_string());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, bad) = check::check(&load(a)?, &load(b)?, flags.has("--layers"))?;
    print!("{table}");
    Ok(if bad {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// `suite`: the 20-entry experiment registry run serially in-process —
/// the wall time a `run_all` user waits for on one core — and the FNV
/// digest of the E01–E17 reports (E18–E20 print wall-clock columns)
/// against the pinned value: the repository's byte-identical `run_all`
/// invariant.
fn cmd_suite(flags: &Flags) -> Result<ExitCode, String> {
    flags.only(&[])?;
    let started = Instant::now();
    let mut digest = Digest::default();
    for (id, _, runner) in adn_bench::all() {
        let report = runner();
        if id <= "E17" {
            for b in report.bytes() {
                digest.u64(u64::from(b));
            }
        }
    }
    let wall = started.elapsed().as_secs_f64();
    let pinned =
        run::baseline().and_then(|d| d.get("run_all_digest")?.as_str().map(str::to_string));
    let ok = pinned.as_deref() == Some(digest.hex().as_str());
    let doc = Json::obj([
        ("ledger", Json::str("suite")),
        ("env", env_stamp()),
        (
            "bench.run_all_s",
            Json::obj([("value", Json::Num(wall)), ("unit", Json::str("s"))]),
        ),
        ("bench.run_all_digest", Json::str(digest.hex())),
        ("bench.run_all_digest_ok", Json::Bool(ok)),
    ]);
    println!("{}", doc.render());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn cmd_list() -> ExitCode {
    println!("workloads:");
    for w in WORKLOADS {
        let gated = if w.gated { "" } else { " [not gated]" };
        println!("  {:<15} {}{gated}", w.name, w.why);
    }
    println!("end-to-end metrics (unit, better, bound):");
    for m in metrics::END_TO_END {
        println!(
            "  {:<30} {:<6} {:<7} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    println!("per-layer metrics (unit, better):");
    for m in metrics::PER_LAYER {
        println!("  {:<30} {:<6} {}", m.name, m.unit, m.better.as_str());
    }
    ExitCode::SUCCESS
}

fn dispatch(args: Vec<String>) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    match flags.words.first().map(String::as_str) {
        None => {
            let workload = flags
                .get("--workload")
                .ok_or("usage: ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>")?;
            let trace = match flags.get("--trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace: `{other}` is not 0 or 1")),
            };
            cmd_run(&flags, workload, trace)
        }
        Some("all") => cmd_all(&flags),
        Some("check") => cmd_check(&flags),
        Some("suite") => cmd_suite(&flags),
        Some("list") => Ok(cmd_list()),
        Some(other) => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("ledger: {msg}");
            ExitCode::from(2)
        }
    }
}
