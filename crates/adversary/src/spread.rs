use adn_graph::{LinkSink, NodeSet};
use adn_types::NodeId;

use crate::{AdversaryView, LinkChoice};

/// Realizes (T, d)-dynaDegree *as slowly as the definition permits*: the
/// `d` distinct in-neighbors a receiver is owed per window are doled out in
/// near-equal installments across the `T` rounds of the window, and the
/// same `d` senders are reused window after window.
///
/// This is the stress adversary for the round-complexity claim (both
/// algorithms finish within `T · pend` rounds, §VII — experiment E09): a
/// node can complete at most one quorum per window, so phases take ~`T`
/// rounds each.
///
/// Window boundaries are aligned to multiples of `T` from round 0. At
/// window position `k` each receiver hears the next
/// `slice(k) = [k·d/T, (k+1)·d/T)` (a partition of `0..d`) **fresh**
/// delivering senders in ascending id order — "fresh" meaning not yet
/// heard by that receiver this window. With a stable deliverer set this
/// is exactly the id slice `[k·d/T, (k+1)·d/T)` of the ascending
/// "deliverers minus me" list, so every window delivers the *same* `d`
/// senders: aligned windows aggregate exactly `d` distinct in-neighbors,
/// and straddling windows (a suffix of one window plus a prefix of the
/// next) cover every slice position exactly once, hence also exactly `d`.
///
/// When the deliverer set shifts **mid-window** (a sender crashes, or a
/// silent node resumes), freshness is what preserves the live-sender
/// guarantee: a naive re-slicing of the shrunk/grown list would re-deliver
/// already-heard senders and silently drop the per-window distinct count
/// below `d`, whereas the fresh-sender discipline keeps handing out
/// unheard live senders until the window's `d` slots (or the live senders)
/// run out — every aligned window still aggregates at least
/// `min(d, live senders at the window's end − 1)` distinct in-neighbors
/// (minus one because a receiver never hears itself). The
/// tests below and the crash-schedule fuzz in `tests/adversary_guarantees.rs`
/// pin both regimes.
#[derive(Debug, Clone)]
pub struct Spread {
    t_window: usize,
    d: usize,
    /// Per-receiver senders already heard in the current window
    /// (lazily sized to the system's `n`, then reused round over round).
    heard: Vec<NodeSet>,
}

impl Spread {
    /// Creates a spread adversary for window `t_window` and degree `d`.
    ///
    /// # Panics
    ///
    /// Panics if `t_window == 0` or `d == 0`.
    pub fn new(t_window: usize, d: usize) -> Self {
        assert!(t_window > 0, "window must be at least 1");
        assert!(d > 0, "degree must be positive");
        Spread {
            t_window,
            d,
            heard: Vec::new(),
        }
    }

    /// The window length `T`.
    pub fn window(&self) -> usize {
        self.t_window
    }

    /// The degree `d` granted per window.
    pub fn degree(&self) -> usize {
        self.d
    }

    /// The slice of sender offsets delivered at window position `k`:
    /// `[k*d/T, (k+1)*d/T)`. The slices partition `0..d`.
    fn slice(&self, k: usize) -> std::ops::Range<usize> {
        let lo = k * self.d / self.t_window;
        let hi = (k + 1) * self.d / self.t_window;
        lo..hi
    }

    /// Lazily (re)sizes the per-receiver heard-sets to the system's `n` —
    /// the one allocation of the adversary's lifetime, kept out of the
    /// allocation-free fill.
    fn ensure_heard(&mut self, n: usize) {
        if self.heard.len() != n {
            self.heard = (0..n).map(|_| NodeSet::new(n)).collect();
        }
    }
}

/// Emits links `(u, v)` for the `k` **lowest-id** members `u` of
/// `senders \ heard \ {v}` (or all of them, if fewer than `k` remain) and
/// records the same members in `heard` — "deliver the next `k` fresh
/// senders". One sweep over the words of `senders`, each taken whole as an
/// exact word of links; only the boundary word pays a short bit-clearing
/// loop to keep its lowest set bits.
fn push_lowest_fresh<S: LinkSink>(
    out: &mut S,
    v: NodeId,
    senders: &NodeSet,
    heard: &mut NodeSet,
    k: usize,
) {
    let (vw, vb) = (v.index() / 64, v.index() % 64);
    let mut remaining = k;
    for (wi, mut cand) in senders.iter_words() {
        if remaining == 0 {
            break;
        }
        cand &= !heard.word(wi);
        if wi == vw {
            cand &= !(1u64 << vb);
        }
        if cand == 0 {
            continue;
        }
        let have = cand.count_ones() as usize;
        let take = if have <= remaining {
            cand
        } else {
            // Keep the lowest `remaining` set bits: clearing the lowest
            // bit `remaining` times leaves exactly the bits above the
            // boundary; XOR recovers the ones below it.
            let mut rest = cand;
            for _ in 0..remaining {
                rest &= rest - 1;
            }
            cand ^ rest
        };
        out.push_word(v, wi, take);
        heard.set_word(wi, heard.word(wi) | take);
        remaining -= take.count_ones() as usize;
    }
}

impl LinkChoice for Spread {
    fn fill<S: LinkSink>(&mut self, view: &AdversaryView<'_>, out: &mut S) {
        let n = view.params.n();
        // The lazy (re)size is the one allocation of the adversary's
        // lifetime.
        self.ensure_heard(n);
        let k = (view.round.as_u64() as usize) % self.t_window;
        if k == 0 {
            // A new window: every receiver is owed d fresh senders again.
            for heard in &mut self.heard {
                heard.clear();
            }
        }
        let installment = self.slice(k).len();
        if installment == 0 {
            return;
        }
        for (v, heard) in NodeId::all(n).zip(&mut self.heard) {
            // The next `installment` lowest-id delivering senders this
            // receiver has not heard this window — explicit links,
            // which no id range can express once the heard-sets
            // diverge.
            push_lowest_fresh(out, v, view.deliverers, heard, installment);
        }
    }

    fn name(&self) -> &'static str {
        "spread"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::record;
    use crate::Adversary;
    use adn_graph::{checker, DenseLinks, EdgeSet, Schedule};
    use adn_types::{Params, Phase, Round, Value};

    /// `push_lowest_fresh` into a dense row; returns the row afterwards.
    fn fresh(
        e: &mut EdgeSet,
        v: NodeId,
        senders: &NodeSet,
        heard: &mut NodeSet,
        k: usize,
    ) -> Vec<usize> {
        push_lowest_fresh(&mut DenseLinks::new(e, senders), v, senders, heard, k);
        e.in_neighbors(v).iter().map(|u| u.index()).collect()
    }

    #[test]
    fn lowest_fresh_takes_fresh_senders_in_order() {
        let n = 140;
        let senders = NodeSet::from_ids(n, [0, 1, 5, 63, 64, 70, 129].map(NodeId::new));
        let mut heard = NodeSet::new(n);
        let mut e = EdgeSet::empty(n);
        let v = NodeId::new(5); // also a sender: must be skipped, not marked
        let got = fresh(&mut e, v, &senders, &mut heard, 3);
        assert_eq!(got, vec![0, 1, 63], "lowest three, self skipped");
        assert_eq!(heard, e.in_neighbors(v).clone(), "marks mirror the row");
        // Next installment continues where the marks left off.
        let got = fresh(&mut e, v, &senders, &mut heard, 2);
        assert_eq!(got, vec![0, 1, 63, 64, 70]);
        // Candidates run short: only 129 is left, then nothing.
        assert_eq!(fresh(&mut e, v, &senders, &mut heard, 4).len(), 6);
        assert_eq!(fresh(&mut e, v, &senders, &mut heard, 1).len(), 6);
    }

    #[test]
    fn lowest_fresh_matches_naive_on_random_sets() {
        let mut rng = adn_types::rng::SplitMix64::new(0xF00);
        for n in [5usize, 64, 65, 130] {
            for case in 0..20 {
                let mut senders = NodeSet::new(n);
                let mut already = NodeSet::new(n);
                for i in 0..n {
                    if rng.next_bool(0.5) {
                        senders.insert(NodeId::new(i));
                    }
                    if rng.next_bool(0.3) {
                        already.insert(NodeId::new(i));
                    }
                }
                let v = NodeId::new(rng.next_index(n));
                let k = rng.next_index(n + 2);
                let expect: Vec<usize> = senders
                    .iter()
                    .filter(|&u| u != v && !already.contains(u))
                    .take(k)
                    .map(|u| u.index())
                    .collect();
                let mut e = EdgeSet::empty(n);
                let mut marks = already.clone();
                let got = fresh(&mut e, v, &senders, &mut marks, k);
                assert_eq!(got, expect, "n={n} case={case}");
                for u in expect {
                    assert!(
                        marks.contains(NodeId::new(u)),
                        "n={n} case={case}: {u} unmarked"
                    );
                }
            }
        }
    }

    #[test]
    fn slices_partition_degree() {
        let s = Spread::new(4, 6);
        let mut covered = Vec::new();
        for k in 0..4 {
            covered.extend(s.slice(k));
        }
        assert_eq!(covered, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn spread_is_exactly_t_d() {
        // n = 9, T = 3, d = 4: every T-window must give exactly 4, and no
        // 1-round window may reach 4.
        let sched = record(&mut Spread::new(3, 4), 9, 12);
        assert_eq!(checker::max_dyna_degree(&sched, 3, &[]), Some(4));
        let per_round = checker::max_dyna_degree(&sched, 1, &[]).unwrap();
        assert!(per_round < 4, "degree must be spread out, got {per_round}");
    }

    #[test]
    fn straddling_windows_still_get_d() {
        // Check every window start, not just aligned ones.
        let sched = record(&mut Spread::new(4, 5), 8, 16);
        let series = checker::window_degree_series(&sched, 4, &[]);
        assert!(series.iter().all(|&deg| deg >= 5), "series = {series:?}");
    }

    #[test]
    fn t_equals_one_degenerates_to_rotating_degree() {
        let sched = record(&mut Spread::new(1, 3), 6, 5);
        assert_eq!(checker::max_dyna_degree(&sched, 1, &[]), Some(3));
    }

    #[test]
    fn wide_window_small_degree_has_empty_rounds() {
        // T = 4, d = 2: two of the four window rounds deliver nothing.
        let sched = record(&mut Spread::new(4, 2), 5, 8);
        let empties = sched.iter().filter(|(_, e)| e.edge_count() == 0).count();
        assert_eq!(empties, 4);
    }

    #[test]
    fn mid_window_deliverer_shift_never_repeats_a_sender() {
        // n = 7, T = 2, d = 4, receiver 6. Round 0: node 0 silent, so the
        // first installment is {1, 2}. Round 1: node 0 resumes. A naive
        // re-slicing of the grown list would deliver index slice [2, 4) =
        // {2, 3} — repeating sender 2 and leaving the window one distinct
        // sender short. The fresh-sender discipline delivers {0, 3}
        // instead, so the aligned window still aggregates d = 4.
        let n = 7;
        let params = Params::new(n, 0, 0.1).unwrap();
        let phases = vec![Phase::ZERO; n];
        let values: Vec<Value> = (0..n)
            .map(|i| Value::saturating(i as f64 / n as f64))
            .collect();
        let honest = NodeSet::full(n);
        let mut adv = Spread::new(2, 4);
        let mut schedule = Schedule::new(n);
        for t in 0..2u64 {
            let mut deliverers = NodeSet::full(n);
            if t == 0 {
                deliverers.remove(NodeId::new(0));
            }
            let view = AdversaryView {
                round: Round::new(t),
                params,
                phases: &phases,
                values: &values,
                deliverers: &deliverers,
                honest: &honest,
            };
            let mut e = EdgeSet::empty(n);
            adv.edges_into(&view, &mut e);
            schedule.push(e);
        }
        let v = NodeId::new(6);
        let round = |t: u64| -> Vec<usize> {
            schedule
                .round(Round::new(t))
                .unwrap()
                .in_neighbors(v)
                .iter()
                .map(|u| u.index())
                .collect()
        };
        assert_eq!(round(0), vec![1, 2]);
        assert_eq!(round(1), vec![0, 3], "must skip the already-heard 1, 2");
        assert_eq!(checker::max_dyna_degree(&schedule, 2, &[]), Some(4));
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        Spread::new(0, 1);
    }
}
