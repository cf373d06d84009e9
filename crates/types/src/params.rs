use std::fmt;

use crate::Error;

/// Which fault model an execution assumes for its up-to-`f` faulty nodes.
///
/// The paper's hybrid model (§I) allows either crash faults (handled by
/// algorithm DAC) or Byzantine faults (handled by DBAC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultKind {
    /// No node faults; only the message adversary acts.
    #[default]
    None,
    /// Faulty nodes may stop at any point, possibly mid-broadcast.
    Crash,
    /// Faulty nodes behave arbitrarily, including per-destination
    /// equivocation (undetectable under anonymity, §VI-C).
    Byzantine,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::None => "none",
            FaultKind::Crash => "crash",
            FaultKind::Byzantine => "byzantine",
        };
        f.write_str(s)
    }
}

/// System parameters known to every node: the system size `n`, the fault
/// bound `f`, and the agreement parameter `ε`.
///
/// `Params` also centralizes every threshold and closed-form bound from the
/// paper so that algorithms, adversaries, and experiments all compute them
/// one way:
///
/// | quantity | formula | paper |
/// |----------|---------|-------|
/// | DAC quorum | `⌊n/2⌋ + 1` | Alg. 1 line 12 |
/// | DBAC quorum | `⌊(n+3f)/2⌋ + 1` | Alg. 2 line 8 |
/// | DAC dynaDegree | `⌊n/2⌋` | Thm. 9 |
/// | DBAC dynaDegree | `⌊(n+3f)/2⌋` | Thm. 10 |
/// | DAC resilience | `n ≥ 2f + 1` | §IV |
/// | DBAC resilience | `n ≥ 5f + 1` | §V |
/// | DAC `pend` | `⌈log₂(1/ε)⌉` | Eq. (2) |
/// | DBAC `pend` | `⌈ln ε / ln(1 − 2⁻ⁿ)⌉` | Eq. (6) |
///
/// ```
/// use adn_types::Params;
/// let p = Params::new(11, 2, 1e-3)?;
/// assert_eq!(p.dac_quorum(), 6);
/// assert_eq!(p.dbac_quorum(), 9);
/// assert_eq!(p.dac_pend(), 10); // 2^-10 <= 1e-3
/// assert!(p.dac_resilient() && p.dbac_resilient());
/// # Ok::<(), adn_types::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    n: usize,
    f: usize,
    eps: f64,
}

impl Params {
    /// Creates validated parameters.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidParams`] if `n == 0` or `f >= n`.
    /// * [`Error::InvalidEpsilon`] if `eps` is not in `(0, 1]`.
    pub fn new(n: usize, f: usize, eps: f64) -> Result<Self, Error> {
        if n == 0 {
            return Err(Error::InvalidParams {
                reason: "system size n must be at least 1".into(),
            });
        }
        if f >= n {
            return Err(Error::InvalidParams {
                reason: format!("fault bound f = {f} must be smaller than n = {n}"),
            });
        }
        if !(eps.is_finite() && eps > 0.0 && eps <= 1.0) {
            return Err(Error::InvalidEpsilon { got: eps });
        }
        Ok(Params { n, f, eps })
    }

    /// Fault-free parameters (`f = 0`).
    ///
    /// # Errors
    ///
    /// Same constraints as [`Params::new`].
    pub fn fault_free(n: usize, eps: f64) -> Result<Self, Error> {
        Params::new(n, 0, eps)
    }

    /// The system size `n`.
    pub const fn n(self) -> usize {
        self.n
    }

    /// The fault bound `f`.
    pub const fn f(self) -> usize {
        self.f
    }

    /// The agreement parameter `ε`.
    pub const fn eps(self) -> f64 {
        self.eps
    }

    // --- DAC (crash model) -------------------------------------------------

    /// Number of distinct same-phase values (including the node's own) that
    /// lets DAC advance a phase: `⌊n/2⌋ + 1`.
    pub const fn dac_quorum(self) -> usize {
        self.n / 2 + 1
    }

    /// The dynamic degree `D = ⌊n/2⌋` that, with any finite `T`, is
    /// necessary and sufficient for crash-tolerant approximate consensus.
    pub const fn dac_dyna_degree(self) -> usize {
        self.n / 2
    }

    /// Whether `n ≥ 2f + 1` holds.
    pub const fn dac_resilient(self) -> bool {
        self.n > 2 * self.f
    }

    /// DAC's per-phase convergence rate (Remark 1): exactly `1/2`, which is
    /// optimal even in static graphs.
    pub const fn dac_rate(self) -> f64 {
        0.5
    }

    /// The output phase `pend = ⌈log₂(1/ε)⌉` of Eq. (2).
    ///
    /// After `p` phases the fault-free range is at most `2⁻ᵖ` (inputs are
    /// normalized to `[0,1]`), so this phase guarantees ε-agreement.
    pub fn dac_pend(self) -> u64 {
        pend_for_rate(self.eps, 0.5)
    }

    // --- DBAC (Byzantine model) ---------------------------------------------

    /// Number of distinct senders of phase ≥ own (including the node
    /// itself) that lets DBAC advance: `⌊(n+3f)/2⌋ + 1`.
    pub const fn dbac_quorum(self) -> usize {
        (self.n + 3 * self.f) / 2 + 1
    }

    /// The dynamic degree `D = ⌊(n+3f)/2⌋` for Byzantine approximate
    /// consensus.
    pub const fn dbac_dyna_degree(self) -> usize {
        (self.n + 3 * self.f) / 2
    }

    /// Whether `n ≥ 5f + 1` holds.
    pub const fn dbac_resilient(self) -> bool {
        self.n > 5 * self.f
    }

    /// DBAC's proven per-phase convergence rate bound `1 − 2⁻ⁿ` (Thm. 7).
    ///
    /// This is a worst-case bound; measured contraction is typically far
    /// better (see experiment E06).
    pub fn dbac_rate_bound(self) -> f64 {
        1.0 - pow2_neg(self.n)
    }

    /// The output phase `pend = ⌈ln ε / ln(1 − 2⁻ⁿ)⌉` of Eq. (6),
    /// saturating at `u64::MAX` when `2⁻ⁿ` underflows.
    pub fn dbac_pend(self) -> u64 {
        pend_for_rate(self.eps, 1.0 - pow2_neg(self.n))
    }

    /// Number of lowest (resp. highest) values DBAC retains: `f + 1`.
    pub const fn dbac_list_len(self) -> usize {
        self.f + 1
    }
}

impl fmt::Display for Params {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n={} f={} eps={:e}", self.n, self.f, self.eps)
    }
}

/// `2⁻ⁿ` as an `f64`, underflowing to `0` for very large `n`.
fn pow2_neg(n: usize) -> f64 {
    if n >= 1075 {
        0.0
    } else {
        (2.0_f64).powi(-(n as i32))
    }
}

/// Smallest integer `p` with `rateᵖ ≤ eps` (up to float tolerance), i.e.
/// `⌈log_rate ε⌉`, saturating at `u64::MAX` when `rate` rounds to 1 in
/// `f64` (then the float log collapses to zero).
///
/// Both Eq. (2) (`rate = 1/2`) and Eq. (6) (`rate = 1 − 2⁻ⁿ`) are
/// instances. Exactly-representable ratios such as `log₀.₅ 0.125 = 3` are
/// snapped to the integer rather than rounded up by float noise.
pub fn pend_for_rate(eps: f64, rate: f64) -> u64 {
    assert!(eps > 0.0 && eps <= 1.0, "eps must be in (0, 1]");
    assert!(rate > 0.0 && rate <= 1.0, "rate must be in (0, 1]");
    // ln(rate) via ln_1p for accuracy when rate = 1 - tiny.
    let ln_rate = f64::ln_1p(rate - 1.0);
    if ln_rate == 0.0 {
        // rate rounded to 1.0: no geometric progress is representable.
        return u64::MAX;
    }
    let ratio = eps.ln() / ln_rate;
    let p = (ratio - 1e-9).ceil().max(0.0);
    if p >= u64::MAX as f64 {
        u64::MAX
    } else {
        p as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(Params::new(0, 0, 0.1).is_err());
        assert!(Params::new(3, 3, 0.1).is_err());
        assert!(Params::new(3, 0, 0.0).is_err());
        assert!(Params::new(3, 0, 1.5).is_err());
        assert!(Params::new(3, 0, f64::NAN).is_err());
        assert!(Params::new(3, 1, 0.5).is_ok());
        assert!(Params::fault_free(3, 1.0).is_ok());
    }

    #[test]
    fn dac_thresholds_match_paper() {
        // n = 11: quorum floor(11/2)+1 = 6, D = 5.
        let p = Params::new(11, 2, 1e-3).unwrap();
        assert_eq!(p.dac_quorum(), 6);
        assert_eq!(p.dac_dyna_degree(), 5);
        // even n: n = 10 -> quorum 6, D = 5.
        let p = Params::new(10, 2, 1e-3).unwrap();
        assert_eq!(p.dac_quorum(), 6);
        assert_eq!(p.dac_dyna_degree(), 5);
    }

    #[test]
    fn dbac_thresholds_match_paper() {
        // n = 11, f = 2: floor((11+6)/2) = 8, quorum 9.
        let p = Params::new(11, 2, 1e-3).unwrap();
        assert_eq!(p.dbac_dyna_degree(), 8);
        assert_eq!(p.dbac_quorum(), 9);
        assert_eq!(p.dbac_list_len(), 3);
        // n = 6, f = 1: floor(9/2) = 4, quorum 5.
        let p = Params::new(6, 1, 1e-3).unwrap();
        assert_eq!(p.dbac_dyna_degree(), 4);
        assert_eq!(p.dbac_quorum(), 5);
    }

    #[test]
    fn resilience_boundaries() {
        assert!(Params::new(5, 2, 0.1).unwrap().dac_resilient()); // 5 >= 5
        assert!(!Params::new(4, 2, 0.1).unwrap().dac_resilient()); // 4 < 5
        assert!(Params::new(6, 1, 0.1).unwrap().dbac_resilient()); // 6 >= 6
        assert!(!Params::new(5, 1, 0.1).unwrap().dbac_resilient()); // 5 < 6
    }

    #[test]
    fn dac_pend_matches_eq2() {
        let p = Params::fault_free(5, 1e-3).unwrap();
        // 2^-10 = 0.0009765625 <= 1e-3 < 2^-9.
        assert_eq!(p.dac_pend(), 10);
        let p = Params::fault_free(5, 0.5).unwrap();
        assert_eq!(p.dac_pend(), 1);
        let p = Params::fault_free(5, 1.0).unwrap();
        assert_eq!(p.dac_pend(), 0);
    }

    #[test]
    fn dbac_pend_matches_eq6_small_n() {
        let p = Params::new(6, 1, 1e-3).unwrap();
        // rate = 1 - 2^-6 = 0.984375; ln(1e-3)/ln(0.984375) ~ 438.3.
        let pend = p.dbac_pend();
        assert!((438..=440).contains(&pend), "pend = {pend}");
        // Check the defining property: rate^pend <= eps < rate^(pend-1).
        let rate: f64 = 0.984375;
        assert!(rate.powi(pend as i32) <= 1e-3);
        assert!(rate.powi(pend as i32 - 1) > 1e-3);
    }

    #[test]
    fn dbac_pend_saturates_for_huge_n() {
        let p = Params::new(2000, 0, 1e-3).unwrap();
        assert_eq!(p.dbac_pend(), u64::MAX);
    }

    #[test]
    fn pend_for_rate_guards_rounding() {
        // Exactly representable: 0.5^3 = 0.125.
        assert_eq!(pend_for_rate(0.125, 0.5), 3);
        assert_eq!(pend_for_rate(0.1251, 0.5), 3);
        assert_eq!(pend_for_rate(0.1249, 0.5), 4);
    }

    #[test]
    #[should_panic(expected = "rate")]
    fn pend_for_rate_rejects_bad_rate() {
        let _ = pend_for_rate(0.5, 1.5);
    }

    #[test]
    fn pend_for_rate_saturates_at_rate_one() {
        assert_eq!(pend_for_rate(0.5, 1.0), u64::MAX);
    }

    #[test]
    fn display_mentions_all_fields() {
        let p = Params::new(7, 1, 0.1).unwrap();
        let s = p.to_string();
        assert!(s.contains("n=7") && s.contains("f=1"));
    }

    #[test]
    fn fault_kind_display() {
        assert_eq!(FaultKind::Crash.to_string(), "crash");
        assert_eq!(FaultKind::Byzantine.to_string(), "byzantine");
        assert_eq!(FaultKind::default(), FaultKind::None);
    }
}
