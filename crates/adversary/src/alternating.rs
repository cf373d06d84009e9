use adn_graph::{generators, EdgeSet, LinkSink};
use adn_types::NodeId;

use crate::{AdversaryView, LinkChoice};

/// Bursty adversary generalizing Figure 1 of the paper: for `period − 1`
/// rounds it delivers **nothing**, then for one round it delivers a fixed
/// base graph — bursts land on the 0-based rounds `t` with
/// `t ≡ period − 1 (mod period)` (so round 0 is always silent).
///
/// With base graph in-degree `d` this satisfies `(period, d)`-dynaDegree
/// (any `period`-round window contains exactly one burst round) but not
/// `(period − 1, 1)`: windows falling between bursts are silent.
///
/// [`Alternating::figure1`] reproduces the paper's 3-node example exactly:
/// the paper's empty odd rounds are our even 0-based rounds (0, 2, ...),
/// and its even rounds — the bidirectional path `0 – 1 – 2` — burst on
/// our odd 0-based rounds (1, 3, ...): the same alternation, shifted by
/// the indexing origin.
#[derive(Debug, Clone)]
pub struct Alternating {
    period: usize,
    burst: EdgeSet,
}

impl Alternating {
    /// Creates an alternating adversary that delivers `burst` every
    /// `period`-th round (at rounds `period-1, 2·period-1, ...`).
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(period: usize, burst: EdgeSet) -> Self {
        assert!(period > 0, "period must be at least 1");
        Alternating { period, burst }
    }

    /// The exact example of Figure 1: `n = 3`, empty odd rounds, and the
    /// links `{(0,1), (1,0), (1,2), (2,1)}` in even rounds.
    ///
    /// (The paper indexes rounds from 1 with odd rounds empty; we index
    /// from 0, so our burst falls on odd 0-based rounds — the same
    /// alternation.)
    pub fn figure1() -> Self {
        Alternating::new(2, EdgeSet::from_pairs(3, [(0, 1), (1, 0), (1, 2), (2, 1)]))
    }

    /// Alternating bursts of the complete graph: `(period, n−1)`.
    pub fn complete_bursts(n: usize, period: usize) -> Self {
        Alternating::new(period, generators::complete(n))
    }

    /// The burst period.
    pub fn period(&self) -> usize {
        self.period
    }
}

impl LinkChoice for Alternating {
    // audit: no-alloc
    fn fill<S: LinkSink>(&mut self, view: &AdversaryView<'_>, out: &mut S) {
        let t = view.round.as_u64() as usize;
        if t % self.period != self.period - 1 {
            return; // a silent round
        }
        // The stored burst, copied row-exact a word at a time. Crucially
        // NOT emitted as runs: those carry the implicit `∩ deliverers`,
        // but the burst is an arbitrary graph handed over verbatim — the
        // engine prunes non-deliverers at realization time.
        assert_eq!(self.burst.n(), view.params.n(), "node count mismatch");
        for (v, row) in NodeId::all(self.burst.n()).zip(self.burst.in_neighbor_sets()) {
            for (w, bits) in row.iter_words() {
                out.push_word(v, w, bits);
            }
        }
    }

    fn lane_key(&self) -> Option<u64> {
        // The burst is a fixed constructor parameter, so fold every edge
        // into the fingerprint alongside the period.
        let mut key = crate::mix_lane_key(9, &[self.period as u64]);
        self.burst.for_each_edge(|u, v| {
            key = crate::mix_lane_key(key, &[u.index() as u64, v.index() as u64]);
        });
        Some(key)
    }

    fn name(&self) -> &'static str {
        "alternating"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::record;
    use adn_graph::checker;

    #[test]
    fn figure1_satisfies_2_1_not_1_1() {
        let sched = record(&mut Alternating::figure1(), 3, 10);
        assert!(checker::satisfies_dyna_degree(&sched, 2, 1, &[]));
        assert!(!checker::satisfies_dyna_degree(&sched, 1, 1, &[]));
    }

    #[test]
    fn figure1_matches_paper_links() {
        use adn_types::{NodeId, Round};
        let sched = record(&mut Alternating::figure1(), 3, 4);
        // 0-based round 0 is empty ("odd" in the paper's 1-based count).
        assert_eq!(sched.round(Round::new(0)).unwrap().edge_count(), 0);
        let burst = sched.round(Round::new(1)).unwrap();
        assert_eq!(burst.edge_count(), 4);
        assert!(burst.contains(NodeId::new(0), NodeId::new(1)));
        assert!(burst.contains(NodeId::new(2), NodeId::new(1)));
        assert!(!burst.contains(NodeId::new(0), NodeId::new(2)));
    }

    #[test]
    fn complete_bursts_give_period_nminus1() {
        let sched = record(&mut Alternating::complete_bursts(5, 3), 5, 12);
        assert_eq!(checker::max_dyna_degree(&sched, 3, &[]), Some(4));
        assert_eq!(checker::max_dyna_degree(&sched, 2, &[]), Some(0));
    }

    #[test]
    fn period_one_is_every_round() {
        let sched = record(&mut Alternating::complete_bursts(4, 1), 4, 5);
        assert_eq!(checker::max_dyna_degree(&sched, 1, &[]), Some(3));
    }
}
