//! E19 — Scaling past the dense plane: sparse link rows and sharded
//! delivery.
//!
//! E18 stops at n = 1024/2048 because everything below it is O(n²) per
//! round: the dense n×n link bitmap, its realized-schedule twin, and the
//! per-receiver port permutation tables. This experiment exercises the
//! row-kind link plane (run/CSR rows, O(active links) memory), the
//! arithmetic rotation port numbering (O(n) state), and the receiver-range
//! sharded delivery loop — the configuration that carries DAC rounds at
//! n = 100 000 and beyond.
//!
//! The registry entry runs a reduced n (kept small so `run_all` stays
//! quick); `exp 19 --n 100000` is the full demonstration. Both drive DAC
//! at ε = 10⁻³ (pend = 10, so every cell runs ≥ 10 rounds — phases, not
//! wall-clock, bound the run) under two sparse-shaped adversaries —
//! strategies whose natural row kind is the O(1)-space id-range run:
//! `Rotating(n/2+1)` (one rotation-window run per receiver, every round)
//! and `Staggered(n/2+1, 4)` (the same runs, but only one receiver group
//! in four served per round — the windowed (T = 4, d) regime). CSR-kind
//! strategies (spread, random, adaptive) stay honest O(links) and at
//! d ≈ n/2 would out-weigh the bitmap they replace; the run-kind rows
//! are where the scaling headroom comes from.
//!
//! Every configuration is run single-shard and 2-shard; the sharded
//! merge is deterministic, so rounds/outputs must agree exactly and only
//! the clock may differ. The clock is read per round and reported as two
//! numbers, because they move in opposite directions: the **first** round
//! first-touches the plane's n² seen-row bits, and on two shards those
//! page faults contend — it runs ≈ 1.8–2× *slower* than on one (n = 65536
//! rotating: 985 → 2050 ms on the 2-vCPU reference box) — while every
//! later round is the receiver-major walk that two shards split:
//! ≈ 1.8–1.9× faster from n = 16384 up while it stepped words, ≈ 1.2–1.4×
//! at n = 16384 since DAC takes run rows a run piece at a time and a round
//! is a few ms, level at n = 4096 where the two thread spawns are a
//! visible share of a round. A
//! whole-run wall clock over a handful of rounds mostly reports the first
//! effect; `steady ms/round` (the median over rounds ≥ 1) and its
//! one-shard/two-shard ratio are the numbers to read. The ratio is ≈ 1.0
//! whenever the host grants the process one core — and the reference box
//! hands over its second vCPU only after sustained demand, so a cold
//! n = 16384 run (0.2–0.4 s of two-shard work) tends to read 1.0× where
//! the same run right after another two-thread run reads 1.8×;
//! `BENCH_e19_scale.json` holds the recorded rows.

use std::fmt::Write;
use std::time::{Duration, Instant};

use adn_adversary::AdversarySpec;
use adn_analysis::Table;
use adn_sim::{factories, LinkMode, Simulation, StopReason};
use adn_types::Params;

use crate::harness::peak_rss_bytes;

/// Registry entry: a reduced-n smoke of the same configuration matrix
/// (n = 8192 is already past the dense port-table cap, so `Auto` link
/// selection would pick the sparse plane too — we pin it explicitly).
pub fn run() -> String {
    run_at(8_192)
}

/// The median of `samples` (the upper one of an even count).
fn median(samples: &mut [Duration]) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Runs the full scaling matrix at `n` and returns the report.
pub fn run_at(n: usize) -> String {
    let mut out = String::new();
    let eps = 1e-3;
    let mut t = Table::new([
        "adversary",
        "shards",
        "rounds",
        "first round ms",
        "steady ms/round",
        "steady speedup",
        "links KB",
        "dense bitmap KB",
        "ratio",
    ]);
    type SpecFor = fn(usize) -> AdversarySpec;
    let specs: [(&str, SpecFor); 2] = [
        (
            "rotating(n/2+1)",
            (|n| AdversarySpec::Rotating { d: n / 2 + 1 }) as SpecFor,
        ),
        ("staggered(n/2+1,4)", |n| AdversarySpec::Staggered {
            d: n / 2 + 1,
            groups: 4,
        }),
    ];
    let dense_bitmap_bytes = n * n / 8;
    // The single-shard twin's round count and steady round, which the
    // sharded run is held against.
    let mut reference = None;
    for (name, spec) in specs {
        for shards in [1usize, 2] {
            let params = Params::fault_free(n, eps).expect("valid params");
            let mut sim = Simulation::builder(params)
                .inputs_random(7)
                .adversary(spec(n).build(n, 0, 7))
                .algorithm(factories::dac(params))
                .link_mode(LinkMode::Sparse)
                .shards(shards)
                .record_schedule(false)
                .observe_phases(false)
                .max_rounds(64)
                .build();
            assert!(sim.uses_sparse_links(), "{name}: sparse plane engaged");
            assert_eq!(sim.shards(), shards, "{name}: shard count respected");
            let mut round_times = Vec::new();
            while sim.stopped().is_none() {
                let started = Instant::now();
                sim.step();
                round_times.push(started.elapsed());
            }
            let links_bytes = sim
                .link_plane_heap_bytes()
                .expect("sparse runs expose link-plane heap");
            let outcome = sim.finish();
            assert_eq!(outcome.reason(), StopReason::AllOutput, "{name}");
            assert!(outcome.eps_agreement(eps), "{name}");
            assert_eq!(round_times.len() as u64, outcome.rounds(), "{name}");
            let first = round_times[0];
            let steady = median(&mut round_times[1..]);
            // The sharded run must land on exactly the round count of its
            // single-shard twin (the merge is input-ordered and
            // deterministic); across adversaries rounds legitimately vary.
            let speedup = match (shards, reference) {
                (1, _) => {
                    reference = Some((outcome.rounds(), steady));
                    "-".to_string()
                }
                (_, Some((rounds, one_shard))) => {
                    assert_eq!(outcome.rounds(), rounds, "{name}: shard determinism");
                    format!("{:.2}x", one_shard.as_secs_f64() / steady.as_secs_f64())
                }
                _ => unreachable!("single-shard runs first"),
            };
            t.row([
                name.to_string(),
                shards.to_string(),
                outcome.rounds().to_string(),
                format!("{:.1}", first.as_secs_f64() * 1e3),
                format!("{:.2}", steady.as_secs_f64() * 1e3),
                speedup,
                (links_bytes / 1024).to_string(),
                (dense_bitmap_bytes / 1024).to_string(),
                format!("{:.0}x", dense_bitmap_bytes as f64 / links_bytes as f64),
            ]);
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    writeln!(
        out,
        "n = {n}, eps = {eps} (pend = 10), DAC, fault-free, {cores} core(s) available\n"
    )
    .unwrap();
    writeln!(out, "{t}").unwrap();
    if let Some(peak) = peak_rss_bytes() {
        writeln!(out, "process peak RSS: {} MB", peak / (1024 * 1024)).unwrap();
    }
    writeln!(
        out,
        "check: the sparse link plane holds O(1) id-range runs per\n\
         receiver row for both adversaries, where the dense bitmap needs\n\
         n^2/8 bytes (and the realized-schedule twin doubles it);\n\
         rotation ports replace the O(n^2) per-receiver tables, which cap\n\
         out at n = 4096. Staggered needs ~4x the rounds of rotating (one\n\
         receiver group in four served per round — the windowed regime).\n\
         Sharded runs finish in exactly the rounds of their single-shard\n\
         twins: delivery is receiver-range partitioned and merged in\n\
         input order, so the clock columns are the only ones allowed to\n\
         move. `steady ms/round` is the median over rounds >= 1 and\n\
         `steady speedup` the one-shard/two-shard ratio of it (~1.2-1.4x\n\
         at n = 16384 on two cores, where a round is a few ms, ~1.0x on\n\
         one); the first round pays the first-touch page faults of the\n\
         seen-row bits it writes (none under rotating, whose receivers\n\
         complete a quorum every round), which two shards make slower."
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn reduced_n_matrix_completes_sparse_and_sharded() {
        let r = super::run_at(4_099); // odd prime-ish, > dense port cap
        assert!(r.contains("rotating(n/2+1)"));
        assert!(r.contains("staggered(n/2+1,4)"));
    }
}
