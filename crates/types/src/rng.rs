//! A small, deterministic, seedable RNG used everywhere randomness is
//! needed in the simulator.
//!
//! Determinism is a hard requirement of the execution substrate (README,
//! "Verify": `run_all` is byte-identical run to run): the same seed must
//! always replay the identical execution, on any platform. We therefore
//! avoid thread-local or hardware entropy and route *all* randomness
//! through [`SplitMix64`] (Steele, Lea & Flood 2014), a tiny full-period
//! generator that is more than adequate for workload and topology sampling
//! (it is not, and need not be, cryptographic).

/// Deterministic 64-bit generator with split-off substreams.
///
/// ```
/// use adn_types::rng::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next pseudorandom `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniform value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, so the distribution is
    /// exactly uniform.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Returns a uniform `f64` in `[0, 1)`, using the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Splits off an independent substream.
    ///
    /// The child stream is seeded from this stream's output, so parents with
    /// equal seeds produce equal families of children. Used to give every
    /// component (adversary, faults, workload, ports) its own stream so that
    /// adding draws in one component never perturbs another.
    pub fn split(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64() ^ 0xA5A5_A5A5_5A5A_5A5A)
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` (in random order).
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        // Partial Fisher-Yates over an index vector: O(n) setup, fine for
        // simulator scales (n is in the tens or hundreds).
        let mut idx: Vec<usize> = (0..n).collect();
        self.partial_shuffle(&mut idx, k);
        idx.truncate(k);
        idx
    }

    /// Forward Fisher–Yates over the first `k` positions of `xs`, in
    /// place: afterwards `xs[..k]` is a uniform `k`-sample of the slice in
    /// random order. The draw sequence of [`SplitMix64::sample_indices`]
    /// and [`SplitMix64::permutation`], for callers that fill their own
    /// storage.
    ///
    /// # Panics
    ///
    /// Panics if `k > xs.len()`.
    pub fn partial_shuffle<T>(&mut self, xs: &mut [T], k: usize) {
        let n = xs.len();
        assert!(k <= n, "cannot sample {k} distinct items from {n}");
        for i in 0..k {
            let j = i + self.next_index(n - i);
            xs.swap(i, j);
        }
    }

    /// Returns a random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        self.sample_indices(n, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_equal_streams() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            assert!(r.next_below(7) < 7);
        }
    }

    #[test]
    fn next_below_hits_every_residue() {
        let mut r = SplitMix64::new(4);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[r.next_below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn next_below_zero_panics() {
        SplitMix64::new(0).next_below(0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SplitMix64::new(5);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_bool_extremes() {
        let mut r = SplitMix64::new(6);
        assert!(!(0..100).any(|_| r.next_bool(0.0)));
        assert!((0..100).all(|_| r.next_bool(1.0)));
    }

    #[test]
    fn split_streams_are_independent_of_parent_draws() {
        let mut p1 = SplitMix64::new(9);
        let c1 = p1.split();
        let mut p2 = SplitMix64::new(9);
        let c2 = p2.split();
        assert_eq!(c1, c2);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SplitMix64::new(10);
        let mut xs: Vec<u32> = (0..20).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = SplitMix64::new(11);
        for _ in 0..50 {
            let s = r.sample_indices(10, 4);
            assert_eq!(s.len(), 4);
            let mut d = s.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 4);
            assert!(s.iter().all(|&i| i < 10));
        }
    }

    #[test]
    fn sample_all_is_permutation() {
        let mut r = SplitMix64::new(12);
        let mut p = r.permutation(8);
        p.sort_unstable();
        assert_eq!(p, (0..8).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn oversample_panics() {
        SplitMix64::new(13).sample_indices(3, 4);
    }

    #[test]
    fn uniformity_smoke_chi_square() {
        // Very loose sanity check that next_index is roughly uniform.
        let mut r = SplitMix64::new(14);
        let mut counts = [0u32; 8];
        let draws = 8000;
        for _ in 0..draws {
            counts[r.next_index(8)] += 1;
        }
        let expected = draws as f64 / 8.0;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // 7 degrees of freedom; 99.9th percentile is ~24.3.
        assert!(chi2 < 24.3, "chi2 = {chi2}");
    }
}
