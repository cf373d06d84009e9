//! Order statistics for the ledger: medians, quartiles, percentiles, and
//! the batch-means estimator every timing is reported through.

/// Median, quartiles and sample count of one set of values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarizes `values` (any order). All-zero for an empty set.
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles_sorted(&sorted);
        Summary {
            n: sorted.len(),
            q1,
            median,
            q3,
        }
    }

    /// Interquartile range as a share of the median (0 when the median is).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles of an ascending slice by the *exclusive* method — the one
/// Python's `statistics.quantiles(values, n=4)` uses, so a spread computed
/// here equals the one the benchmark driver computes from the same values.
pub fn quartiles_sorted(sorted: &[f64]) -> (f64, f64, f64) {
    match sorted.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (sorted[0], sorted[0], sorted[0]),
        _ => (
            exclusive_quantile(sorted, 1, 4),
            exclusive_quantile(sorted, 2, 4),
            exclusive_quantile(sorted, 3, 4),
        ),
    }
}

/// The `k`-th of `parts` exclusive quantiles: position `k (n + 1) / parts`
/// (1-based) with linear interpolation, clamped to the sample.
fn exclusive_quantile(sorted: &[f64], k: usize, parts: usize) -> f64 {
    let n = sorted.len();
    let j = (k * (n + 1) / parts).clamp(1, n - 1);
    let delta = (k * (n + 1)) as f64 - (j * parts) as f64;
    (sorted[j - 1] * (parts as f64 - delta) + sorted[j] * delta) / parts as f64
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The 99th percentile, reported only when at least ten samples lie beyond
/// it (1000 samples).
pub fn p99_if_supported(values: &[f64]) -> Option<f64> {
    if values.len() < 1000 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile_sorted(&sorted, 99.0))
}

/// One timed section: `ns` host nanoseconds that covered `units` units of
/// work (simulated rounds). A section with zero units (post-run work such
/// as the dynaDegree checker) is amortized over its neighbours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    pub ns: u64,
    pub units: u64,
}

/// Most batches a stream is cut into.
pub const MAX_BATCHES: usize = 15;

/// Cuts a sample stream into up to [`MAX_BATCHES`] consecutive batches of
/// (nearly) equal unit counts and returns each batch's nanoseconds per
/// unit. The median over batches is the reported cost: a batch mean
/// averages the heterogeneous sections inside it (cheap and expensive
/// rounds, amortized post-run work), the median over batches discards the
/// ones a host hiccup landed in.
pub fn batch_means(samples: &[Sample]) -> Vec<f64> {
    let total: u64 = samples.iter().map(|s| s.units).sum();
    let with_units = samples.iter().filter(|s| s.units > 0).count();
    let batches = with_units.min(MAX_BATCHES);
    if batches == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(batches);
    let (mut ns, mut units, mut seen) = (0u64, 0u64, 0u64);
    for s in samples {
        ns += s.ns;
        units += s.units;
        seen += s.units;
        // Close the batch once the stream has covered its share of the
        // units; the last batch takes whatever remains.
        let due = total * (out.len() as u64 + 1) / batches as u64;
        if units > 0 && seen >= due && out.len() + 1 < batches {
            out.push(ns as f64 / units as f64);
            ns = 0;
            units = 0;
        }
    }
    if units > 0 {
        out.push(ns as f64 / units as f64);
    } else if let Some(last) = out.last_mut() {
        // Trailing zero-unit sections belong to the last closed batch; fold
        // their time in at that batch's unit count.
        let per_batch = (total / batches as u64).max(1);
        *last += ns as f64 / per_batch as f64;
    }
    out
}

/// Median nanoseconds per unit of a stream, through [`batch_means`].
pub fn stream_summary(samples: &[Sample]) -> Summary {
    Summary::of(&batch_means(samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_sorted(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quartiles_sorted(&v), (1.5, 3.0, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles_sorted(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert_eq!(quartiles_sorted(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(quartiles_sorted(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn summary_sorts_and_measures_spread() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 1.5, 3.0, 4.5));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[0.0, 0.0]).spread(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank_and_p99_needs_a_thousand() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(p99_if_supported(&v), None);
        let big: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(p99_if_supported(&big), Some(990.0));
    }

    #[test]
    fn batch_means_split_by_units_and_amortize_zero_unit_sections() {
        // 30 unit-1 sections of 10 ns: 15 batches of 2, each 10 ns/unit.
        let flat: Vec<Sample> = (0..30).map(|_| Sample { ns: 10, units: 1 }).collect();
        let b = batch_means(&flat);
        assert_eq!(b.len(), 15);
        assert!(b.iter().all(|&x| x == 10.0));
        // Fewer sections than batches: one batch per section.
        assert_eq!(batch_means(&flat[..4]).len(), 4);
        // A zero-unit section is charged to the batch it falls in.
        let with_post = [
            Sample { ns: 10, units: 1 },
            Sample { ns: 6, units: 0 },
            Sample { ns: 10, units: 1 },
            Sample { ns: 4, units: 0 },
        ];
        let b = batch_means(&with_post);
        assert_eq!(b.len(), 2);
        assert_eq!(b.iter().sum::<f64>(), 30.0);
        assert!(batch_means(&[]).is_empty());
        assert!(batch_means(&[Sample { ns: 5, units: 0 }]).is_empty());
    }

    #[test]
    fn median_of_batches_ignores_one_disturbed_batch() {
        let mut s: Vec<Sample> = (0..150).map(|_| Sample { ns: 100, units: 1 }).collect();
        s[70].ns = 1_000_000;
        assert_eq!(stream_summary(&s).median, 100.0);
    }
}
