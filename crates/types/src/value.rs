use std::fmt;
use std::ops::{Add, Sub};

use crate::Error;

/// A consensus state value, normalized to the closed interval `[0, 1]`.
///
/// The paper assumes bounded inputs scaled to `[0, 1]` (§II-C). `Value`
/// enforces that invariant at construction and provides a **total order**
/// (NaN is rejected, so `f64::total_cmp` degenerates to the usual order),
/// which lets values be sorted, used as map keys, and compared in quorum
/// logic without floating-point footguns.
///
/// ```
/// use adn_types::Value;
/// let a = Value::new(0.2)?;
/// let b = Value::new(0.8)?;
/// assert_eq!(a.midpoint(b), Value::new(0.5)?);
/// assert!((b - a - 0.6).abs() < 1e-12);
/// # Ok::<(), adn_types::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Value(f64);

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // NaN is rejected at construction and 0.0 == -0.0 cannot both occur
        // (we normalize nothing, but -0.0 is rejected by the range check's
        // `contains` only for values below 0.0; -0.0 == 0.0 passes). Hash
        // the canonical bit pattern so `a == b` implies equal hashes.
        let canonical = if self.0 == 0.0 { 0.0_f64 } else { self.0 };
        canonical.to_bits().hash(state);
    }
}

impl Value {
    /// The smallest admissible value.
    pub const ZERO: Value = Value(0.0);
    /// The largest admissible value.
    pub const ONE: Value = Value(1.0);
    /// The midpoint of the admissible range.
    pub const HALF: Value = Value(0.5);

    /// Creates a value, validating that it is finite and within `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidValue`] if `v` is NaN, infinite, or outside
    /// the normalized range.
    pub fn new(v: f64) -> Result<Self, Error> {
        if v.is_finite() && (0.0..=1.0).contains(&v) {
            Ok(Value(v))
        } else {
            Err(Error::InvalidValue {
                got: format!("{v}"),
            })
        }
    }

    /// Creates a value by clamping an arbitrary finite float into `[0, 1]`.
    ///
    /// Useful for workload generators that produce raw sensor readings.
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN.
    pub fn saturating(v: f64) -> Self {
        assert!(!v.is_nan(), "cannot build a Value from NaN");
        Value(v.clamp(0.0, 1.0))
    }

    /// Returns the inner float.
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Returns the midpoint `(self + other) / 2`.
    ///
    /// This is the DAC update rule (`v <- (vmin + vmax) / 2`, Alg. 1 line
    /// 13) and the DBAC update rule (`v <- (max(R_low) + min(R_high)) / 2`,
    /// Alg. 2 line 9). The midpoint of two in-range values is always in
    /// range, so no validation is needed.
    #[must_use]
    pub fn midpoint(self, other: Value) -> Value {
        Value(self.0 / 2.0 + other.0 / 2.0)
    }

    /// Returns the smaller of two values.
    #[must_use]
    pub fn min(self, other: Value) -> Value {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two values.
    #[must_use]
    pub fn max(self, other: Value) -> Value {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Absolute difference `|self - other|` as a plain float.
    pub fn distance(self, other: Value) -> f64 {
        (self.0 - other.0).abs()
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // `f64::total_cmp`'s order, which on the admissible values is the
        // order of their bit patterns as signed integers: every
        // constructor keeps a value finite and inside `[0, 1]`, so the
        // only pattern with the sign bit set is `-0.0`, and that is the
        // smallest signed integer just as it is the smallest value. One
        // integer compare where `total_cmp` spends four instructions per
        // operand — this sits in every quorum fold of the delivery
        // kernels.
        (self.0.to_bits() as i64).cmp(&(other.0.to_bits() as i64))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.0)
    }
}

impl TryFrom<f64> for Value {
    type Error = Error;

    fn try_from(v: f64) -> Result<Self, Error> {
        Value::new(v)
    }
}

impl From<Value> for f64 {
    fn from(v: Value) -> f64 {
        v.0
    }
}

/// `a - b` yields the signed float difference (values themselves stay in
/// `[0, 1]`, differences live in `[-1, 1]`).
impl Sub for Value {
    type Output = f64;

    fn sub(self, rhs: Value) -> f64 {
        self.0 - rhs.0
    }
}

/// `a + delta` clamps back into the admissible range; convenient for
/// workload perturbation.
impl Add<f64> for Value {
    type Output = Value;

    fn add(self, rhs: f64) -> Value {
        Value::saturating(self.0 + rhs)
    }
}

/// A closed interval of [`Value`]s, used to state containment invariants
/// such as validity (outputs within the convex hull of inputs, Def. 3) and
/// Lemma 5 (`interval(V(q)) ⊆ interval(V(p))` for `q >= p`).
///
/// ```
/// use adn_types::Value;
/// use adn_types::ValueInterval;
/// let hull = ValueInterval::of([Value::new(0.2)?, Value::new(0.7)?]).unwrap();
/// assert!(hull.contains(Value::new(0.5)?));
/// assert!(!hull.contains(Value::new(0.9)?));
/// assert!((hull.range() - 0.5).abs() < 1e-12);
/// # Ok::<(), adn_types::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueInterval {
    lo: Value,
    hi: Value,
}

impl ValueInterval {
    /// Creates the interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: Value, hi: Value) -> Self {
        assert!(lo <= hi, "interval bounds out of order: {lo} > {hi}");
        ValueInterval { lo, hi }
    }

    /// Returns the convex hull of a non-empty collection of values, or
    /// `None` for an empty collection.
    pub fn of<I: IntoIterator<Item = Value>>(values: I) -> Option<Self> {
        let mut it = values.into_iter();
        let first = it.next()?;
        let (lo, hi) = it.fold((first, first), |(lo, hi), v| (lo.min(v), hi.max(v)));
        Some(ValueInterval { lo, hi })
    }

    /// Lower end of the interval.
    pub fn lo(self) -> Value {
        self.lo
    }

    /// Upper end of the interval.
    pub fn hi(self) -> Value {
        self.hi
    }

    /// Width `hi - lo` (the paper's `range(S)`, Def. 4).
    pub fn range(self) -> f64 {
        self.hi - self.lo
    }

    /// Whether `v` lies in the closed interval.
    pub fn contains(self, v: Value) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether `self` is a (non-strict) sub-interval of `outer`.
    pub fn is_subinterval_of(self, outer: ValueInterval) -> bool {
        outer.lo <= self.lo && self.hi <= outer.hi
    }
}

impl fmt::Display for ValueInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_the_closed_range() {
        assert!(Value::new(0.0).is_ok());
        assert!(Value::new(1.0).is_ok());
        assert!(Value::new(0.5).is_ok());
    }

    #[test]
    fn new_rejects_out_of_range_and_nonfinite() {
        assert!(Value::new(-0.001).is_err());
        assert!(Value::new(1.001).is_err());
        assert!(Value::new(f64::NAN).is_err());
        assert!(Value::new(f64::INFINITY).is_err());
    }

    #[test]
    fn saturating_clamps() {
        assert_eq!(Value::saturating(3.0), Value::ONE);
        assert_eq!(Value::saturating(-1.0), Value::ZERO);
        assert_eq!(Value::saturating(0.25).get(), 0.25);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn saturating_rejects_nan() {
        let _ = Value::saturating(f64::NAN);
    }

    #[test]
    fn midpoint_is_exact_and_in_range() {
        let a = Value::new(0.0).unwrap();
        let b = Value::new(1.0).unwrap();
        assert_eq!(a.midpoint(b), Value::HALF);
        assert_eq!(a.midpoint(a), a);
    }

    #[test]
    fn ordering_is_total_cmp_on_every_admissible_edge() {
        // -0.0 passes the range check and clamps to itself, so it is
        // admissible and must sort where `total_cmp` puts it.
        let edges = [
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0, // subnormal
            f64::MIN_POSITIVE,
            0.1,
            0.5,
            1.0 - f64::EPSILON,
            1.0,
        ];
        for a in edges {
            for b in edges {
                let (va, vb) = (Value::new(a).unwrap(), Value::saturating(b));
                assert_eq!(va.cmp(&vb), a.total_cmp(&b), "{a:e} vs {b:e}");
            }
        }
    }

    #[test]
    fn ordering_is_total_and_sane() {
        let mut vals = [
            Value::new(0.9).unwrap(),
            Value::new(0.1).unwrap(),
            Value::new(0.5).unwrap(),
        ];
        vals.sort();
        assert_eq!(vals[0].get(), 0.1);
        assert_eq!(vals[2].get(), 0.9);
    }

    #[test]
    fn min_max_distance() {
        let a = Value::new(0.3).unwrap();
        let b = Value::new(0.7).unwrap();
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert!((a.distance(b) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn sub_gives_signed_difference() {
        let a = Value::new(0.3).unwrap();
        let b = Value::new(0.7).unwrap();
        assert!((a - b + 0.4).abs() < 1e-12);
    }

    #[test]
    fn add_clamps() {
        let a = Value::new(0.9).unwrap();
        assert_eq!(a + 0.5, Value::ONE);
        assert_eq!(a + (-2.0), Value::ZERO);
    }

    #[test]
    fn conversions_roundtrip() {
        let v = Value::try_from(0.25).unwrap();
        let f: f64 = v.into();
        assert_eq!(f, 0.25);
    }

    #[test]
    fn interval_hull_and_containment() {
        let vs = [
            Value::new(0.4).unwrap(),
            Value::new(0.2).unwrap(),
            Value::new(0.9).unwrap(),
        ];
        let hull = ValueInterval::of(vs).unwrap();
        assert_eq!(hull.lo().get(), 0.2);
        assert_eq!(hull.hi().get(), 0.9);
        assert!(hull.contains(Value::new(0.4).unwrap()));
        assert!(!hull.contains(Value::new(0.1).unwrap()));
    }

    #[test]
    fn interval_of_empty_is_none() {
        assert!(ValueInterval::of(std::iter::empty()).is_none());
    }

    #[test]
    fn subinterval_relation() {
        let outer = ValueInterval::new(Value::ZERO, Value::ONE);
        let inner = ValueInterval::new(Value::new(0.2).unwrap(), Value::new(0.8).unwrap());
        assert!(inner.is_subinterval_of(outer));
        assert!(!outer.is_subinterval_of(inner));
        assert!(inner.is_subinterval_of(inner));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn interval_rejects_inverted_bounds() {
        let _ = ValueInterval::new(Value::ONE, Value::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::HALF.to_string(), "0.500000");
        let i = ValueInterval::new(Value::ZERO, Value::HALF);
        assert_eq!(i.to_string(), "[0.000000, 0.500000]");
    }
}
