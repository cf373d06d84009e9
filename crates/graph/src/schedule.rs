use std::fmt;

use adn_types::{NodeId, Round};

use crate::{EdgeSet, NodeSet};

/// The recorded sequence of per-round link sets `E(0), E(1), ...` of an
/// execution.
///
/// A `Schedule` is what the simulator logs as the adversary makes its
/// choices, and what the (T, D)-dynaDegree [checker](crate::checker)
/// analyzes after the fact. It also computes the windowed unions
/// `G_t = (V, E(t) ∪ ... ∪ E(t+T-1))` from Definition 1.
///
/// A round equal to the one before it is stored once: the schedule keeps
/// each run of equal consecutive rounds as one [`EdgeSet`] plus a small
/// index per round, so its memory grows with the rounds that change, not
/// with the rounds recorded. A static adversary's whole run is one edge
/// set. Every read is still round by round.
///
/// ```
/// use adn_graph::{EdgeSet, Schedule};
/// use adn_types::{NodeId, Round};
///
/// let mut s = Schedule::new(3);
/// s.push(EdgeSet::from_pairs(3, [(0, 1)]));
/// s.push(EdgeSet::from_pairs(3, [(2, 1)]));
/// s.repeat_last();
/// let g = s.window_union(Round::ZERO, 2);
/// assert_eq!(g.in_degree(NodeId::new(1)), 2);
/// assert_eq!(s.len(), 3);
/// assert_eq!(s.round(Round::new(2)), s.last());
/// ```
// The derived equality is round by round: `push` and `repeat_last` keep
// the storage canonical (a round equal to the last distinct one is never
// stored again), so equal round sequences are equal fields.
#[derive(Clone, PartialEq, Eq)]
pub struct Schedule {
    n: usize,
    /// Each run of equal consecutive rounds, once, in order.
    distinct: Vec<EdgeSet>,
    /// Round `t`'s entry of `distinct`: non-decreasing, one step per run.
    rounds: Vec<u32>,
}

impl Schedule {
    /// Creates an empty schedule for a system of `n` nodes.
    pub fn new(n: usize) -> Self {
        Schedule {
            n,
            distinct: Vec::new(),
            rounds: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether no rounds have been recorded.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Appends the link set of the next round. A round equal to the last
    /// one recorded is compared, not stored again.
    ///
    /// # Panics
    ///
    /// Panics if the edge set is for a different node count.
    pub fn push(&mut self, edges: EdgeSet) {
        assert_eq!(edges.n(), self.n, "node count mismatch");
        if self.distinct.last() != Some(&edges) {
            self.distinct.push(edges);
        }
        self.repeat_last();
    }

    /// Appends a round equal to the last one recorded, without a copy:
    /// the same as pushing a clone of [`Schedule::last`].
    ///
    /// # Panics
    ///
    /// Panics if no round has been recorded.
    pub fn repeat_last(&mut self) {
        let last = self.distinct.len().checked_sub(1);
        let last = last.expect("repeat_last needs a recorded round");
        let last = u32::try_from(last).expect("fewer than 2^32 distinct rounds");
        self.rounds.push(last);
    }

    /// The link set of the last recorded round, if any.
    pub fn last(&self) -> Option<&EdgeSet> {
        self.distinct.last()
    }

    /// The link set of round `t`, if recorded.
    pub fn round(&self, t: Round) -> Option<&EdgeSet> {
        let i = *self.rounds.get(t.as_u64() as usize)?;
        Some(&self.distinct[i as usize])
    }

    /// Iterates over `(round, edge set)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (Round, &EdgeSet)> {
        self.rounds
            .iter()
            .enumerate()
            .map(|(t, &i)| (Round::new(t as u64), &self.distinct[i as usize]))
    }

    /// The static union graph `G_t` over the window `[t, t+window)`,
    /// truncated at the end of the recording.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn window_union(&self, t: Round, window: usize) -> EdgeSet {
        assert!(window > 0, "window must be at least 1 round");
        let start = t.as_u64() as usize;
        let mut acc = EdgeSet::empty(self.n);
        for (_, e) in self.iter().skip(start).take(window) {
            acc.union_with(e);
        }
        acc
    }

    /// Distinct in-neighbors of `v` aggregated over the window
    /// `[t, t+window)` — the quantity Definition 1 bounds from below.
    pub fn window_in_neighbors(&self, v: NodeId, t: Round, window: usize) -> NodeSet {
        assert!(window > 0, "window must be at least 1 round");
        let start = t.as_u64() as usize;
        let mut acc = NodeSet::new(self.n);
        for (_, e) in self.iter().skip(start).take(window) {
            acc.union_with(e.in_neighbors(v));
        }
        acc
    }

    /// Total number of directed links delivered over the whole recording.
    pub fn total_edges(&self) -> usize {
        self.iter().map(|(_, e)| e.edge_count()).sum()
    }
}

impl fmt::Debug for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Schedule(n={}, rounds={}, total_edges={})",
            self.n,
            self.rounds.len(),
            self.total_edges()
        )
    }
}

impl Extend<EdgeSet> for Schedule {
    fn extend<I: IntoIterator<Item = EdgeSet>>(&mut self, iter: I) {
        for e in iter {
            self.push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use adn_types::rng::SplitMix64;

    use super::*;

    fn alternating(n_rounds: usize) -> Schedule {
        // Figure 1: empty odd rounds, path 0-1-2 on even rounds.
        let even = EdgeSet::from_pairs(3, [(0, 1), (1, 0), (1, 2), (2, 1)]);
        let odd = EdgeSet::empty(3);
        let mut s = Schedule::new(3);
        for t in 0..n_rounds {
            s.push(if t % 2 == 0 {
                even.clone()
            } else {
                odd.clone()
            });
        }
        s
    }

    #[test]
    fn push_and_round_access() {
        let s = alternating(4);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.round(Round::new(1)).unwrap().edge_count(), 0);
        assert_eq!(s.round(Round::new(0)).unwrap().edge_count(), 4);
        assert!(s.round(Round::new(9)).is_none());
    }

    #[test]
    fn window_union_accumulates_rounds() {
        let s = alternating(4);
        let g = s.window_union(Round::ZERO, 2);
        assert_eq!(g.edge_count(), 4);
        let g1 = s.window_union(Round::new(1), 2);
        assert_eq!(g1.edge_count(), 4, "window [1,3) catches the even round 2");
    }

    #[test]
    fn window_union_truncates_at_end() {
        let s = alternating(3);
        let g = s.window_union(Round::new(2), 10);
        assert_eq!(g.edge_count(), 4);
        let empty = s.window_union(Round::new(7), 2);
        assert_eq!(empty.edge_count(), 0);
    }

    #[test]
    fn window_in_neighbors_matches_union() {
        let s = alternating(4);
        let inn = s.window_in_neighbors(NodeId::new(0), Round::ZERO, 2);
        assert_eq!(inn.len(), 1);
        assert!(inn.contains(NodeId::new(1)));
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        alternating(2).window_union(Round::ZERO, 0);
    }

    #[test]
    #[should_panic(expected = "node count mismatch")]
    fn wrong_size_push_panics() {
        let mut s = Schedule::new(3);
        s.push(EdgeSet::empty(4));
    }

    #[test]
    fn iter_enumerates_rounds() {
        let s = alternating(3);
        let ts: Vec<u64> = s.iter().map(|(t, _)| t.as_u64()).collect();
        assert_eq!(ts, vec![0, 1, 2]);
    }

    #[test]
    fn total_edges_sums() {
        let s = alternating(4);
        assert_eq!(s.total_edges(), 8);
    }

    /// A seeded list of rounds in runs of repeats (1–4 equal rounds each),
    /// some runs a return to an earlier round, some empty.
    fn rounds_with_repeats(seed: u64) -> Vec<EdgeSet> {
        let n = 70;
        let mut rng = SplitMix64::new(seed);
        let mut rounds: Vec<EdgeSet> = Vec::new();
        while rounds.len() < 40 {
            let e = match rng.next_below(6) {
                0 => EdgeSet::empty(n),
                1 if !rounds.is_empty() => {
                    rounds[rng.next_below(rounds.len() as u64) as usize].clone()
                }
                _ => crate::generators::gnp(n, 0.2, &mut rng),
            };
            for _ in 0..=rng.next_below(4) {
                rounds.push(e.clone());
            }
        }
        rounds
    }

    #[test]
    fn repeats_read_like_a_plain_list_of_rounds() {
        for seed in 0..8 {
            let naive = rounds_with_repeats(seed);
            let n = naive[0].n();
            let mut pushed = Schedule::new(n);
            let mut repeated = Schedule::new(n);
            for e in &naive {
                pushed.push(e.clone());
                match repeated.last() == Some(e) {
                    true => repeated.repeat_last(),
                    false => repeated.push(e.clone()),
                }
            }
            assert!(
                pushed.distinct.len() < naive.len(),
                "seed {seed}: no repeat"
            );
            assert_eq!(pushed, repeated, "seed {seed}");
            assert_eq!(pushed.clone(), repeated, "seed {seed}: clone");
            for s in [&pushed, &repeated] {
                assert_eq!(s.len(), naive.len());
                for (t, e) in naive.iter().enumerate() {
                    assert_eq!(s.round(Round::new(t as u64)), Some(e), "seed {seed}, t {t}");
                }
                assert_eq!(s.round(Round::new(naive.len() as u64)), None);
                assert!(s.iter().map(|(_, e)| e).eq(&naive), "seed {seed}: iter");
                let ts: Vec<u64> = s.iter().map(|(t, _)| t.as_u64()).collect();
                assert_eq!(ts, (0..naive.len() as u64).collect::<Vec<_>>());
                for start in 0..naive.len() + 2 {
                    for window in [1, 2, 3, 5, 8, 100] {
                        let slice = naive.iter().skip(start).take(window);
                        let mut union = EdgeSet::empty(n);
                        slice.clone().for_each(|e| union.union_with(e));
                        let t = Round::new(start as u64);
                        assert_eq!(s.window_union(t, window), union, "seed {seed}, t {start}");
                        let v = NodeId::new(start % n);
                        let mut inn = NodeSet::new(n);
                        slice.for_each(|e| inn.union_with(e.in_neighbors(v)));
                        assert_eq!(s.window_in_neighbors(v, t, window), inn);
                    }
                }
                let total: usize = naive.iter().map(EdgeSet::edge_count).sum();
                assert_eq!(s.total_edges(), total, "seed {seed}");
                let debug = format!(
                    "Schedule(n={n}, rounds={}, total_edges={total})",
                    naive.len()
                );
                assert_eq!(format!("{s:?}"), debug);
            }
            let mut changed = pushed.clone();
            changed.push(EdgeSet::complete(n));
            repeated.push(EdgeSet::empty(n));
            assert_ne!(changed, repeated, "seed {seed}: equality is round by round");
        }
    }

    #[test]
    #[should_panic(expected = "repeat_last needs a recorded round")]
    fn repeat_last_on_an_empty_schedule_panics() {
        Schedule::new(3).repeat_last();
    }

    #[test]
    fn extend_pushes_all() {
        let mut s = Schedule::new(2);
        s.extend(vec![EdgeSet::empty(2), EdgeSet::complete(2)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.total_edges(), 2);
    }
}
