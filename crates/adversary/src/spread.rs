use adn_graph::{EdgeSet, LinkPlane, NodeSet};
use adn_types::NodeId;

use crate::{Adversary, AdversaryView};

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
    /// no-alloc fill paths.
    fn ensure_heard(&mut self, n: usize) {
        if self.heard.len() != n {
            // audit: allow(alloc-reach) — the one allocation of the adversary's lifetime; every later round takes the len-equal fast path
            self.heard = (0..n).map(|_| NodeSet::new(n)).collect();
        }
    }
}

impl Adversary for Spread {
    fn edges_into(&mut self, view: &AdversaryView<'_>, out: &mut EdgeSet) {
        let n = view.params.n();
        // The lazy (re)size stays outside the audited block: it is the
        // one allocation of the adversary's lifetime.
        self.ensure_heard(n);
        // audit: no-alloc
        {
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
            for v in NodeId::all(n) {
                // The next `installment` lowest-id delivering senders this
                // receiver has not heard this window, in one word-parallel
                // sweep that also advances the window's heard-set.
                out.insert_lowest_from(v, view.deliverers, &mut self.heard[v.index()], installment);
            }
        }
    }

    fn sparse_capable(&self) -> bool {
        true
    }

    fn sparse_into(&mut self, view: &AdversaryView<'_>, out: &mut LinkPlane) {
        // Natural row kind: CSR — each round delivers a small installment
        // of explicit fresh senders per receiver, which no id range can
        // express once the heard-sets diverge. The word walk mirrors
        // `EdgeSet::insert_lowest_from` exactly (ascending words, lowest
        // `remaining` bits kept), including the heard-set advance, so both
        // fills leave the adversary in the same state.
        let n = view.params.n();
        // Lazy (re)size outside the audited block, as in `edges_into`.
        self.ensure_heard(n);
        // audit: no-alloc
        {
            let k = (view.round.as_u64() as usize) % self.t_window;
            if k == 0 {
                for heard in &mut self.heard {
                    heard.clear();
                }
            }
            let installment = self.slice(k).len();
            if installment == 0 {
                return;
            }
            for v in NodeId::all(n) {
                let heard = &mut self.heard[v.index()];
                let (vw, vb) = (v.index() / 64, v.index() % 64);
                let mut remaining = installment;
                for (wi, mut cand) in view.deliverers.iter_words() {
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
                        let mut rest = cand;
                        for _ in 0..remaining {
                            rest &= rest - 1;
                        }
                        cand ^ rest
                    };
                    let mut bits = take;
                    while bits != 0 {
                        let u = NodeId::new(wi * 64 + bits.trailing_zeros() as usize);
                        out.push_link(v, u);
                        heard.insert(u);
                        bits &= bits - 1;
                    }
                    remaining -= take.count_ones() as usize;
                }
            }
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
    use adn_graph::{checker, Schedule};
    use adn_types::{Params, Phase, Round, Value};

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
