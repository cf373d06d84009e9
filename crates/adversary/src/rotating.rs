use adn_graph::LinkSink;
use adn_types::NodeId;

use crate::runs::SenderList;
use crate::{AdversaryView, LinkChoice};

/// Gives every fault-free receiver exactly `d` delivering in-neighbors per
/// round — `(1, d)`-dynaDegree — while rotating *which* neighbors those
/// are, so no receiver can rely on a stable neighborhood.
///
/// This is the canonical "sufficient but annoying" adversary for the
/// sufficiency experiments: it meets the paper's bound with equality every
/// round yet maximizes churn between rounds.
#[derive(Debug, Clone)]
pub struct Rotating {
    d: usize,
    /// Reusable ascending deliverer list (see [`SenderList`]).
    senders: SenderList,
}

impl Rotating {
    /// Creates a rotating adversary that grants `d` in-neighbors per round.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0` (use [`crate::Silence`] for zero degree).
    pub fn new(d: usize) -> Self {
        assert!(d > 0, "degree must be positive");
        Rotating {
            d,
            senders: SenderList::default(),
        }
    }

    /// The per-round degree granted.
    pub fn degree(&self) -> usize {
        self.d
    }
}

impl LinkChoice for Rotating {
    fn fill<S: LinkSink>(&mut self, view: &AdversaryView<'_>, out: &mut S) {
        let t = view.round.as_u64() as usize;
        // Receiver v's candidate list is "deliverers minus v" in ascending
        // order; the rotation window maps to at most two contiguous index
        // runs of it, each emitted as an id range instead of one link
        // (plus two modulos) at a time.
        self.senders.begin_round(view);
        for v in NodeId::all(view.params.n()) {
            self.senders.push_window(out, v, t, self.d);
        }
    }

    fn lane_key(&self) -> Option<u64> {
        // The sender list is per-round scratch, not state: the links are
        // a pure function of (round, deliverers, d).
        Some(crate::mix_lane_key(3, &[self.d as u64]))
    }

    fn name(&self) -> &'static str {
        "rotating"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{record, record_with_deliverers};
    use adn_graph::{checker, NodeSet};

    #[test]
    fn rotating_realizes_1_d() {
        for d in 1..=5 {
            let s = record(&mut Rotating::new(d), 7, 10);
            assert_eq!(
                checker::max_dyna_degree(&s, 1, &[]),
                Some(d),
                "d = {d} should be met with equality"
            );
        }
    }

    #[test]
    fn neighbors_change_between_rounds() {
        let s = record(&mut Rotating::new(2), 7, 6);
        // With d = 2 and 6 candidate senders, consecutive rounds shift the
        // window by 2, so round 0 and round 1 in-neighbor sets differ.
        let r0 = s.round(adn_types::Round::new(0)).unwrap();
        let r1 = s.round(adn_types::Round::new(1)).unwrap();
        assert_ne!(
            r0.in_neighbors(NodeId::new(0)),
            r1.in_neighbors(NodeId::new(0))
        );
    }

    #[test]
    fn window_aggregates_more_distinct_neighbors() {
        let s = record(&mut Rotating::new(2), 9, 12);
        // Over a 2-round window the rotation contributes fresh senders.
        let over2 = checker::max_dyna_degree(&s, 2, &[]).unwrap();
        assert!(over2 > 2, "rotation should aggregate, got {over2}");
    }

    #[test]
    fn degrades_gracefully_with_few_deliverers() {
        // Only 3 deliverers; d = 5 cannot be met, deliver what exists.
        let deliverers = NodeSet::from_ids(6, crate::testutil::ids(3));
        let s = record_with_deliverers(&mut Rotating::new(5), 6, 4, &deliverers);
        // Receivers outside the deliverer set get 3; receivers inside get 2.
        let g = s.round(adn_types::Round::ZERO).unwrap();
        assert_eq!(g.in_degree(NodeId::new(5)), 3);
        assert_eq!(g.in_degree(NodeId::new(0)), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_degree_rejected() {
        Rotating::new(0);
    }
}
