use adn_graph::LinkSink;
use adn_types::NodeId;

use crate::runs::SenderList;
use crate::{AdversaryView, LinkChoice};

/// Staggers progress: each round only the receivers of one of `groups`
/// rotating groups are served (with `d` rotating in-neighbors each);
/// everyone else hears nothing.
///
/// Satisfies `(groups, d)`-dynaDegree — every window of `groups` rounds
/// serves every receiver once — while keeping the nodes permanently out of
/// phase-lockstep: at any time, about `1/groups` of the nodes are one
/// phase ahead of the rest. This is the adversary that exposes the
/// same-phase-quorum fragility of classic algorithms (a receiver whose
/// in-neighbors have already advanced never hears its own phase again
/// unless senders retransmit history — the §VII piggybacking trade-off,
/// experiment E13).
#[derive(Debug, Clone)]
pub struct Staggered {
    d: usize,
    groups: usize,
    /// Reusable ascending deliverer list (see [`SenderList`]).
    senders: SenderList,
}

impl Staggered {
    /// Creates a staggered adversary with `groups` rotating receiver
    /// groups, each granted `d` in-neighbors on its turn.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0` or `groups == 0`.
    pub fn new(d: usize, groups: usize) -> Self {
        assert!(d > 0, "degree must be positive");
        assert!(groups > 0, "need at least one group");
        Staggered {
            d,
            groups,
            senders: SenderList::default(),
        }
    }

    /// The per-turn degree.
    pub fn degree(&self) -> usize {
        self.d
    }

    /// The number of rotating receiver groups.
    pub fn groups(&self) -> usize {
        self.groups
    }
}

impl LinkChoice for Staggered {
    fn fill<S: LinkSink>(&mut self, view: &AdversaryView<'_>, out: &mut S) {
        let t = view.round.as_u64() as usize;
        let turn = t % self.groups;
        // `Rotating`'s window, on the rows of the round's receiver group
        // only; the starved groups keep empty rows.
        self.senders.begin_round(view);
        for v in NodeId::all(view.params.n()) {
            if v.index() % self.groups == turn {
                self.senders.push_window(out, v, t, self.d);
            }
        }
    }

    fn lane_key(&self) -> Option<u64> {
        Some(crate::mix_lane_key(6, &[self.d as u64, self.groups as u64]))
    }

    fn name(&self) -> &'static str {
        "staggered"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::record;
    use adn_graph::checker;

    #[test]
    fn satisfies_groups_d() {
        let sched = record(&mut Staggered::new(4, 3), 9, 18);
        assert!(checker::satisfies_dyna_degree(&sched, 3, 4, &[]));
        // One-round windows starve two thirds of the receivers.
        assert_eq!(checker::max_dyna_degree(&sched, 1, &[]), Some(0));
    }

    #[test]
    fn serves_one_group_per_round() {
        let sched = record(&mut Staggered::new(2, 3), 6, 3);
        for (t, e) in sched.iter() {
            let turn = t.as_u64() as usize % 3;
            for (_, v) in e.edges() {
                assert_eq!(v.index() % 3, turn, "round {t} served wrong group");
            }
        }
    }

    #[test]
    fn single_group_degenerates_to_rotating() {
        let sched = record(&mut Staggered::new(3, 1), 6, 4);
        assert_eq!(checker::max_dyna_degree(&sched, 1, &[]), Some(3));
    }
}
