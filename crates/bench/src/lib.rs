//! Experiment harness: one module per experiment, each checking one
//! statement of the paper (PAPER.md; [`all`] names the theorem, equation
//! or section per entry).
//!
//! Every experiment is a pure function returning its report as a `String`;
//! `exp <id>` prints one, `run_all` all of them in registry order.
//! Experiments are fully deterministic: fixed seeds, fixed sweeps — and
//! since PR 1 they execute their sweeps on [`adn_sim::TrialPool`], which
//! merges per-trial results in input order, so the parallel reports stay
//! byte-identical to the historical serial ones.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cli;
pub mod e01_fig1;
pub mod e02_dac_pend;
pub mod e03_dac_rate;
pub mod e04_partition;
pub mod e05_n2f;
pub mod e06_dbac_rate;
pub mod e07_twofaced;
pub mod e08_resilience;
pub mod e09_rounds_vs_t;
pub mod e10_bandwidth;
pub mod e11_baselines;
pub mod e12_probabilistic;
pub mod e13_piggyback;
pub mod e14_lemma6;
pub mod e15_exact;
pub mod e16_property_zoo;
pub mod e17_quantization;
pub mod e18_scale;
pub mod e19_scale;
pub mod e20_service;
pub mod harness;

/// Seeds used by every multi-seed experiment (deterministic sweep).
pub const SEEDS: [u64; 5] = [11, 23, 37, 53, 71];

/// One registry entry: `(id, title, runner)`.
pub type ExperimentEntry = (&'static str, &'static str, fn() -> String);

/// All experiments in order — the registry the `run_all` binary iterates.
pub fn all() -> Vec<ExperimentEntry> {
    vec![
        (
            "E01",
            "Figure 1: the (2,1)-but-not-(1,1) example adversary",
            e01_fig1::run as fn() -> String,
        ),
        (
            "E02",
            "Eq. (2): DAC output phase pend = ceil(log2(1/eps))",
            e02_dac_pend::run,
        ),
        (
            "E03",
            "Remark 1: DAC per-phase convergence rate <= 1/2",
            e03_dac_rate::run,
        ),
        (
            "E04",
            "Thm. 9(a): D = floor(n/2)-1 is insufficient (partition)",
            e04_partition::run,
        ),
        (
            "E05",
            "Thm. 9(b): n <= 2f is insufficient (crash)",
            e05_n2f::run,
        ),
        (
            "E06",
            "Thm. 7 / Eq. (6): DBAC convergence and termination",
            e06_dbac_rate::run,
        ),
        (
            "E07",
            "Thm. 10: two-faced equivocation below the threshold",
            e07_twofaced::run,
        ),
        (
            "E08",
            "Resilience sweep: n vs f boundaries for DAC and DBAC",
            e08_resilience::run,
        ),
        (
            "E09",
            "Round complexity: rounds <= T * pend under spread(T, D)",
            e09_rounds_vs_t::run,
        ),
        (
            "E10",
            "Bandwidth accounting: bits per link per round",
            e10_bandwidth::run,
        ),
        (
            "E11",
            "Prior algorithms fail in this model (S II-D)",
            e11_baselines::run,
        ),
        (
            "E12",
            "S VII: probabilistic adversary, expected rounds",
            e12_probabilistic::run,
        ),
        (
            "E13",
            "S VII: piggybacking bandwidth <-> convergence trade-off",
            e13_piggyback::run,
        ),
        (
            "E14",
            "Lemmas 1/5/6: runtime interval-containment invariants",
            e14_lemma6::run,
        ),
        (
            "E15",
            "Corollary 1: exact consensus impossible at (1, n-2)",
            e15_exact::run,
        ),
        (
            "E16",
            "S II-B: dynaDegree vs prior stability properties",
            e16_property_zoo::run,
        ),
        (
            "E17",
            "Quantized wire format: eps needs B = ceil(log2(1/eps))+1 bits",
            e17_quantization::run,
        ),
        (
            "E18",
            "Scale: simulator throughput and n-independence of phases",
            e18_scale::run,
        ),
        (
            "E19",
            "Scale past the dense plane: sparse links + sharded delivery",
            e19_scale::run,
        ),
        (
            "E20",
            "Service mode: repeated instances under churn + round caps",
            e20_service::run,
        ),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn registry_is_complete_and_ordered() {
        let all = super::all();
        assert_eq!(all.len(), 20);
        for (i, (id, title, _)) in all.iter().enumerate() {
            assert_eq!(*id, format!("E{:02}", i + 1));
            assert!(!title.is_empty());
        }
    }
}
