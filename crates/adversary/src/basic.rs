use adn_graph::LinkSink;
use adn_types::NodeId;

use crate::{AdversaryView, LinkChoice};

/// The benign extreme: every pair of delivering nodes is connected every
/// round — `(1, n−1)`-dynaDegree when nobody is faulty.
///
/// ```
/// use adn_adversary::{Adversary, Complete};
/// let adv = Complete;
/// assert_eq!(adv.name(), "complete");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Complete;

impl LinkChoice for Complete {
    fn fill<S: LinkSink>(&mut self, view: &AdversaryView<'_>, out: &mut S) {
        // One full-id-range run per receiver — `deliverers \ {v}` as one
        // word-parallel row OR (dense) or in O(1) space (sparse). This is
        // the default adversary, so it sits on the round engine's
        // critical path.
        let n = view.params.n();
        for v in NodeId::all(n) {
            out.push_run(v, NodeId::new(0), NodeId::new(n - 1));
        }
    }

    fn lane_key(&self) -> Option<u64> {
        // Pure in (deliverers): one realization serves every trial lane.
        Some(crate::mix_lane_key(1, &[]))
    }

    fn name(&self) -> &'static str {
        "complete"
    }
}

/// The malicious extreme: drops every message every round. No consensus
/// algorithm can terminate under it (0-dynaDegree); used to test blocking
/// detection and round caps.
#[derive(Debug, Clone, Copy, Default)]
pub struct Silence;

impl LinkChoice for Silence {
    fn fill<S: LinkSink>(&mut self, _view: &AdversaryView<'_>, _out: &mut S) {}

    fn lane_key(&self) -> Option<u64> {
        Some(crate::mix_lane_key(2, &[]))
    }

    fn name(&self) -> &'static str {
        "silence"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::record;
    use adn_graph::checker;

    #[test]
    fn complete_gives_full_dyna_degree() {
        let s = record(&mut Complete, 6, 4);
        assert_eq!(checker::max_dyna_degree(&s, 1, &[]), Some(5));
    }

    #[test]
    fn complete_routes_around_dead_senders() {
        use adn_graph::NodeSet;
        let mut deliverers = NodeSet::full(5);
        deliverers.remove(NodeId::new(4));
        let s = crate::testutil::record_with_deliverers(&mut Complete, 5, 3, &deliverers);
        // Realized degree is 3 for the survivors' peers (4 deliverers, minus
        // self for receivers among them).
        assert_eq!(checker::max_dyna_degree(&s, 1, &[]), Some(3));
    }

    #[test]
    fn silence_delivers_nothing() {
        let s = record(&mut Silence, 4, 5);
        assert_eq!(s.total_edges(), 0);
        assert_eq!(checker::max_dyna_degree(&s, 1, &[]), Some(0));
    }
}
