//! DBAC's trim lists `R_low` / `R_high` (Alg. 2 `STORE`), kept sorted —
//! the one implementation behind [`Dbac`](crate::Dbac) and the columnar
//! plane of either algorithm: at length 1 the two lists are Alg. 1's
//! running `(min, max)`.
//!
//! One node's lists are two `f + 1`-slot slices. `low` ascends, so its
//! last slot **is** `max(R_low)`; `high` descends, so its last slot **is**
//! `min(R_high)`. `STORE` therefore rejects a value with one compare
//! against the last slot of each list, and only the ≈ `(f+1)·ln(D/(f+1))`
//! values of a phase that do enter pay an insertion shift.
//!
//! There is no length: a slot not yet filled holds the value that loses
//! every comparison ([`Value::ONE`] in `low`, [`Value::ZERO`] in `high`),
//! which any stored value displaces — or equals, and then the list holds
//! that value either way. The padding is never read as a result: the
//! update is taken at quorum, `⌊(n+3f)/2⌋ + 1 ≥ f + 1` stored values for
//! every `n` and `f`, when both lists are full.
//!
//! Sorting is unobservable: the update `(max(R_low) + min(R_high)) / 2`
//! depends only on the *multiset* each list holds, and the paper's
//! replace-the-extreme `STORE` removes one copy of the extreme and adds
//! the new value whichever of several tied slots it overwrites — the same
//! multiset the shift below leaves behind.

use adn_types::Value;

/// Empties both lists (Alg. 2 `RESET()`).
#[inline]
pub(crate) fn clear(low: &mut [Value], high: &mut [Value]) {
    low.fill(Value::ONE);
    high.fill(Value::ZERO);
}

/// Alg. 2 `STORE(val)`: keeps the `f + 1` smallest values in `low` and
/// the `f + 1` largest in `high` (`f + 1` being both slices' length).
// audit: no-alloc-fn
#[inline]
pub(crate) fn store(low: &mut [Value], high: &mut [Value], val: Value) {
    store_low(low, low.len(), val);
    store_high(high, high.len(), val);
}

/// The `R_low` half of [`store`]. `filled` is any upper bound on how many
/// slots hold something other than padding (`low.len()` always is one):
/// the shift starts there instead of crossing the padding, which is what
/// a run of ascending values into an emptied list would otherwise spend
/// its time on. Returns whether `val` entered the list: if not, no value
/// `≥ val` can either — where a walk in ascending value order stops.
// audit: no-alloc-fn
#[inline]
pub(crate) fn store_low(low: &mut [Value], filled: usize, val: Value) -> bool {
    let last = low.len() - 1;
    let enters = val < low[last];
    if enters {
        sift(low, filled.min(last), val, |prev| prev > val);
    }
    enters
}

/// The `R_high` half of [`store`], likewise: where a walk in descending
/// value order stops.
// audit: no-alloc-fn
#[inline]
pub(crate) fn store_high(high: &mut [Value], filled: usize, val: Value) -> bool {
    let last = high.len() - 1;
    let enters = val > high[last];
    if enters {
        sift(high, filled.min(last), val, |prev| prev < val);
    }
    enters
}

/// How many leading slots of each list hold something other than padding
/// (a stored value equal to the padding counts as padding: it is the same
/// slot either way) — the `filled` of [`store_low`] / [`store_high`].
#[inline]
pub(crate) fn filled(low: &[Value], high: &[Value]) -> (usize, usize) {
    (
        low.partition_point(|&v| v < Value::ONE),
        high.partition_point(|&v| v > Value::ZERO),
    )
}

/// `(max(R_low), min(R_high))`, the two operands of the DBAC update, once
/// at least `f + 1` values are stored.
#[inline]
pub(crate) fn bounds(low: &[Value], high: &[Value]) -> (Value, Value) {
    (low[low.len() - 1], high[high.len() - 1])
}

/// Overwrites `list[slot]` with `val`, first shifting up every element of
/// the sorted prefix `list[..slot]` that `sorts_after` it.
#[inline]
fn sift(list: &mut [Value], mut slot: usize, val: Value, sorts_after: impl Fn(Value) -> bool) {
    while slot > 0 && sorts_after(list[slot - 1]) {
        list[slot] = list[slot - 1];
        slot -= 1;
    }
    list[slot] = val;
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_types::rng::SplitMix64;

    /// What lets one columnar plane serve both algorithms: at list length
    /// 1, `clear` + `store(own)`, `store` and `bounds` are Alg. 1's running
    /// `(min, max)` — restarted from the node's own value, widened by
    /// every accepted one — for streams with repeats, `0.0` and `1.0`.
    #[test]
    fn length_one_lists_are_a_running_min_and_max() {
        for seed in 0..200 {
            let mut rng = SplitMix64::new(seed);
            let grid = 2 + rng.next_below(9);
            let mut draw = || Value::saturating(rng.next_below(grid) as f64 / (grid - 1) as f64);
            let (mut low, mut high) = ([Value::HALF], [Value::HALF]);
            for _phase in 0..6 {
                let own = draw();
                clear(&mut low, &mut high);
                store(&mut low, &mut high, own);
                let (mut min, mut max) = (own, own);
                assert_eq!(bounds(&low, &high), (min, max), "seed {seed}, restart");
                for _ in 0..20 {
                    let val = draw();
                    store(&mut low, &mut high, val);
                    (min, max) = (min.min(val), max.max(val));
                    assert_eq!(bounds(&low, &high), (min, max), "seed {seed}");
                }
            }
        }
    }

    /// What the columnar plane's deferred settle rests on, on the same
    /// tie-heavy streams: a list is a function of the **multiset** stored,
    /// so a phase's values may be fed as they arrived, ascending or
    /// descending, with or without a true `filled`; and the halves may be
    /// fed apart, each in its own order and only until the first value
    /// that does not enter — none behind it can.
    #[test]
    fn lists_depend_on_the_multiset_stored_not_on_its_order() {
        for seed in 0..300 {
            let mut rng = SplitMix64::new(seed);
            for cap in [1usize, 2, 3, 17] {
                let grid = 2 + rng.next_below(12);
                let mut draw = |most: usize| -> Vec<Value> {
                    (0..rng.next_index(most))
                        .map(|_| Value::saturating(rng.next_below(grid) as f64 / (grid - 1) as f64))
                        .collect()
                };
                // Some values are in the lists already (the node's own,
                // links stored one at a time), then a batch arrives.
                let (stored, batch) = (draw(cap + 2), draw(3 * cap + 2));
                let fresh = || {
                    let (mut low, mut high) = (vec![Value::HALF; cap], vec![Value::HALF; cap]);
                    clear(&mut low, &mut high);
                    stored.iter().for_each(|&v| store(&mut low, &mut high, v));
                    (low, high)
                };
                let (mut low, mut high) = fresh();
                batch.iter().for_each(|&v| store(&mut low, &mut high, v));
                let mut sorted = batch.clone();
                sorted.sort();
                for descending in [false, true] {
                    let (mut l, mut h) = fresh();
                    let feed = |v: &Value| store(&mut l, &mut h, *v);
                    match descending {
                        false => sorted.iter().for_each(feed),
                        true => sorted.iter().rev().for_each(feed),
                    }
                    assert_eq!((&l, &h), (&low, &high), "seed {seed} cap {cap}");
                }
                let (mut l, mut h) = fresh();
                let (mut lows, mut highs) = filled(&l, &h);
                let stops = |list: &[Value], pad| list.iter().filter(|&&v| v != pad).count();
                assert_eq!(
                    (lows, highs),
                    (stops(&l, Value::ONE), stops(&h, Value::ZERO))
                );
                for &v in &sorted {
                    if !store_low(&mut l, lows, v) {
                        break;
                    }
                    lows += 1;
                }
                for &v in sorted.iter().rev() {
                    if !store_high(&mut h, highs, v) {
                        break;
                    }
                    highs += 1;
                }
                assert_eq!((&l, &h), (&low, &high), "halves, seed {seed} cap {cap}");
            }
        }
    }

    /// Random streams with heavy ties and mid-stream resets: after every
    /// store the lists must equal the paper's definition — everything seen
    /// since the reset, sorted, the `cap` smallest / largest — as
    /// multisets, and `bounds` the naive extremes of those.
    #[test]
    fn sorted_lists_match_the_papers_definition() {
        let seeds = std::env::var("ADN_FUZZ_SEEDS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(300);
        for seed in 0..seeds {
            let mut rng = SplitMix64::new(seed);
            for cap in [1usize, 2, 3, 17] {
                // A coarse grid makes most draws collide with a stored one.
                let grid = 2 + rng.next_below(12);
                let (mut low, mut high) = (vec![Value::HALF; cap], vec![Value::HALF; cap]);
                clear(&mut low, &mut high);
                let mut seen = Vec::new();
                for _ in 0..200 {
                    if rng.next_below(40) == 0 {
                        clear(&mut low, &mut high);
                        seen.clear();
                    }
                    let val = Value::saturating(rng.next_below(grid) as f64 / (grid - 1) as f64);
                    store(&mut low, &mut high, val);
                    seen.push(val);
                    seen.sort();
                    let keep = seen.len().min(cap);
                    assert_eq!(low[..keep], seen[..keep], "R_low, seed {seed} cap {cap}");
                    let largest: Vec<Value> = seen.iter().rev().take(keep).copied().collect();
                    assert_eq!(high[..keep], largest[..], "R_high, seed {seed} cap {cap}");
                    if keep == cap {
                        let naive = (seen[cap - 1], seen[seen.len() - cap]);
                        assert_eq!(bounds(&low, &high), naive, "seed {seed} cap {cap}");
                    }
                }
            }
        }
    }
}
