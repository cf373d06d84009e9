use adn_graph::LinkSink;
use adn_types::NodeId;

use crate::{AdversaryView, LinkChoice};

/// The Theorem 9 impossibility adversary: splits the nodes into two
/// disjoint groups (`0..split` and `split..n`) that never exchange a
/// message; within each group, every delivering member reaches every
/// member every round.
///
/// With both groups of size `⌈n/2⌉`/`⌊n/2⌋` this realizes
/// `(1, ⌊n/2⌋ − 1)`-dynaDegree (one short of DAC's requirement) while
/// keeping the groups forever ignorant of each other — so any algorithm
/// that terminates under it with different inputs per group must violate
/// ε-agreement.
#[derive(Debug, Clone, Copy)]
pub struct Partition {
    split: usize,
}

impl Partition {
    /// Partition into `0..split` and `split..n`.
    ///
    /// # Panics
    ///
    /// Panics if `split == 0` (the second group would be everything and
    /// the first empty — not a partition).
    pub fn new(split: usize) -> Self {
        assert!(split > 0, "split must leave the first group non-empty");
        Partition { split }
    }

    /// The even split used by the Theorem 9 proof.
    pub fn halves(n: usize) -> Self {
        Partition::new(n / 2)
    }

    /// First group is `0..split()`.
    pub fn split(&self) -> usize {
        self.split
    }
}

impl LinkChoice for Partition {
    fn fill<S: LinkSink>(&mut self, view: &AdversaryView<'_>, out: &mut S) {
        let n = view.params.n();
        // Each group is a contiguous id range, so a receiver's row is one
        // "deliverers ∩ my group" run (self stripped).
        let split = self.split.min(n);
        for v in NodeId::all(n) {
            let (lo, hi) = if v.index() < split {
                (0, split - 1)
            } else {
                (split, n - 1)
            };
            out.push_run(v, NodeId::new(lo), NodeId::new(hi));
        }
    }

    fn lane_key(&self) -> Option<u64> {
        Some(crate::mix_lane_key(4, &[self.split as u64]))
    }

    fn name(&self) -> &'static str {
        "partition"
    }
}

/// The Theorem 10 impossibility adversary: two **overlapping** groups
/// `A = 0..group_size` and `B = n-group_size..n`, each of size
/// `⌊(n+3f)/2⌋`; A-members hear only A, B-members hear only B, and the
/// `3f` overlap nodes hear both.
///
/// Combined with `f` two-faced Byzantine nodes sitting in the middle
/// (indices `⌊(n−f)/2⌋..⌊(n+f)/2⌋`), group A observes an execution where at
/// most `f` nodes claim input 1 (all possibly Byzantine) and group B
/// symmetrically — validity then forces A → 0 and B → 1, violating
/// ε-agreement (Theorem 10).
#[derive(Debug, Clone, Copy)]
pub struct Theorem10Split {
    group_size: usize,
}

impl Theorem10Split {
    /// Builds the construction for the given parameters, with group size
    /// `⌊(n+3f)/2⌋` as in the proof.
    ///
    /// # Panics
    ///
    /// Panics if the groups would not fit (`group_size > n`) or not
    /// overlap (`group_size * 2 <= n`).
    pub fn for_params(n: usize, f: usize) -> Self {
        let group_size = (n + 3 * f) / 2;
        assert!(group_size <= n, "group size {group_size} exceeds n = {n}");
        assert!(
            2 * group_size >= n,
            "groups of {group_size} do not overlap in n = {n}"
        );
        Theorem10Split { group_size }
    }

    /// Size of each group.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// The Byzantine block of the proof: indices `⌊(n−f)/2⌋..⌊(n+f)/2⌋`.
    pub fn byzantine_block(n: usize, f: usize) -> std::ops::Range<usize> {
        (n - f) / 2..(n + f) / 2
    }

    /// Input assignment of the proof: nodes `0..⌊(n−f)/2⌋` hold 0, nodes
    /// `⌊(n+f)/2⌋..n` hold 1 (the Byzantine block in between equivocates).
    pub fn input_of(n: usize, f: usize, node: NodeId) -> f64 {
        if node.index() < (n - f) / 2 {
            0.0
        } else if node.index() >= (n + f) / 2 {
            1.0
        } else {
            0.5 // Byzantine; value irrelevant
        }
    }
}

impl LinkChoice for Theorem10Split {
    fn fill<S: LinkSink>(&mut self, view: &AdversaryView<'_>, out: &mut S) {
        let n = view.params.n();
        let a_end = self.group_size;
        let b_start = n - self.group_size;
        // Both groups are contiguous id ranges; v hears u iff they share
        // a group, so a receiver's row is one run per group it belongs to
        // (overlap members get both — the runs just overlap).
        for v in NodeId::all(n) {
            if v.index() < a_end {
                out.push_run(v, NodeId::new(0), NodeId::new(a_end - 1));
            }
            if v.index() >= b_start {
                out.push_run(v, NodeId::new(b_start), NodeId::new(n - 1));
            }
        }
    }

    fn lane_key(&self) -> Option<u64> {
        Some(crate::mix_lane_key(5, &[self.group_size as u64]))
    }

    fn name(&self) -> &'static str {
        "theorem10-split"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::record;
    use adn_graph::checker;

    #[test]
    fn partition_never_crosses() {
        let sched = record(&mut Partition::halves(8), 8, 6);
        for (_, e) in sched.iter() {
            for (u, v) in e.edges() {
                assert_eq!(u.index() < 4, v.index() < 4, "cross link {u}->{v}");
            }
        }
    }

    #[test]
    fn partition_degree_is_group_minus_one() {
        // n = 8 split 4: every receiver has 3 in-neighbors, which equals
        // floor(n/2) - 1 — exactly one below DAC's requirement.
        let sched = record(&mut Partition::halves(8), 8, 6);
        assert_eq!(checker::max_dyna_degree(&sched, 1, &[]), Some(3));
        assert_eq!(checker::max_dyna_degree(&sched, 5, &[]), Some(3));
    }

    #[test]
    fn uneven_partition_min_side_dominates() {
        let sched = record(&mut Partition::new(2), 7, 4);
        // Small group of 2: each member has 1 in-neighbor.
        assert_eq!(checker::max_dyna_degree(&sched, 1, &[]), Some(1));
    }

    #[test]
    fn thm10_groups_overlap_and_block_cross_talk() {
        // n = 8, f = 1: group size floor(11/2) = 5; A = 0..5, B = 3..8.
        let t = Theorem10Split::for_params(8, 1);
        assert_eq!(t.group_size(), 5);
        let sched = record(&mut Theorem10Split::for_params(8, 1), 8, 4);
        let e = sched.round(adn_types::Round::ZERO).unwrap();
        // A-only receiver 0 must not hear B-only sender 7.
        assert!(!e.contains(NodeId::new(7), NodeId::new(0)));
        // Overlap receiver 4 hears both extremes.
        assert!(e.contains(NodeId::new(0), NodeId::new(4)));
        assert!(e.contains(NodeId::new(7), NodeId::new(4)));
        // A-only receiver 0 hears the 4 other A members.
        assert_eq!(e.in_degree(NodeId::new(0)), 4);
    }

    #[test]
    fn thm10_degree_is_one_below_dbac_requirement() {
        // Every receiver's in-degree is group_size - 1 = floor((n+3f)/2)-1.
        let n = 12;
        let f = 2;
        let sched = record(&mut Theorem10Split::for_params(n, f), n, 4);
        let d = checker::max_dyna_degree(&sched, 1, &[]).unwrap();
        assert_eq!(d, (n + 3 * f) / 2 - 1);
    }

    #[test]
    fn thm10_proof_inputs() {
        // n = 8, f = 2: inputs 0 for 0..3, byzantine 3..5, 1 for 5..8.
        assert_eq!(Theorem10Split::byzantine_block(8, 2), 3..5);
        assert_eq!(Theorem10Split::input_of(8, 2, NodeId::new(0)), 0.0);
        assert_eq!(Theorem10Split::input_of(8, 2, NodeId::new(7)), 1.0);
        assert_eq!(Theorem10Split::input_of(8, 2, NodeId::new(3)), 0.5);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn thm10_rejects_disjoint_groups() {
        // n = 21, f = 0: group size 10, the two groups cannot cover n.
        Theorem10Split::for_params(21, 0);
    }

    #[test]
    fn thm10_with_f_zero_degenerates_to_partition() {
        // n = 20, f = 0: groups of 10 touching at the middle — exactly the
        // Theorem 9 halves construction.
        let t = Theorem10Split::for_params(20, 0);
        assert_eq!(t.group_size(), 10);
    }
}
