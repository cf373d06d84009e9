use adn_graph::LinkSink;
use adn_types::NodeId;

use crate::{AdversaryView, LinkChoice};

/// State-inspecting worst-case adversary: each receiver hears from the `d`
/// delivering senders whose **state values are closest to its own**.
///
/// The adversary is explicitly allowed to read internal states before
/// choosing links (§I). Feeding every node values it already (nearly)
/// holds minimizes the information content of each quorum and thus the
/// per-phase contraction — this is the adversary that pushes DAC's
/// measured convergence rate toward its theoretical 1/2 bound
/// (experiment E03). It still honors `(1, d)`-dynaDegree: `d` distinct
/// senders per receiver per round.
#[derive(Debug, Clone)]
pub struct AdaptiveClosest {
    d: usize,
    /// Reusable per-receiver candidate scratch: filled from the deliverer
    /// set, cut down to the `d` value-nearest — no per-round `Vec` churn
    /// once warmed up.
    scratch: Vec<NodeId>,
}

impl AdaptiveClosest {
    /// Creates the adversary with per-round degree `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn new(d: usize) -> Self {
        assert!(d > 0, "degree must be positive");
        AdaptiveClosest {
            d,
            scratch: Vec::new(),
        }
    }

    /// The per-round degree granted.
    pub fn degree(&self) -> usize {
        self.d
    }
}

impl LinkChoice for AdaptiveClosest {
    fn fill<S: LinkSink>(&mut self, view: &AdversaryView<'_>, out: &mut S) {
        for v in NodeId::all(view.params.n()) {
            let my_value = view.values[v.index()].get();
            view.senders_for_into(v, &mut self.scratch);
            // Keep the `d` nearest by (distance to the receiver's value,
            // id). The id tie-break makes the order total, so the kept
            // *set* is unique and a selection finds it without sorting
            // all candidates; the kept ids are then emitted ascending.
            if self.d < self.scratch.len() {
                self.scratch.select_nth_unstable_by(self.d - 1, |&a, &b| {
                    let da = (view.values[a.index()].get() - my_value).abs();
                    let db = (view.values[b.index()].get() - my_value).abs();
                    da.total_cmp(&db).then(a.cmp(&b))
                });
                self.scratch.truncate(self.d);
                self.scratch.sort_unstable();
            }
            for &u in &self.scratch {
                out.push_link(v, u);
            }
        }
    }

    fn name(&self) -> &'static str {
        "adaptive-closest"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::record;
    use crate::Adversary;
    use adn_graph::{checker, EdgeSet, NodeSet};
    use adn_types::{Params, Phase, Round, Value};

    #[test]
    fn honors_1_d() {
        for d in [1, 3, 5] {
            let s = record(&mut AdaptiveClosest::new(d), 8, 6);
            assert_eq!(checker::max_dyna_degree(&s, 1, &[]), Some(d));
        }
    }

    #[test]
    fn picks_value_nearest_senders() {
        // Receiver 0 has value 0.0; senders at 0.1, 0.5, 0.9. With d = 1 it
        // must hear only the 0.1 node.
        let n = 4;
        let params = Params::new(n, 0, 0.1).unwrap();
        let phases = vec![Phase::ZERO; n];
        let values = vec![
            Value::new(0.0).unwrap(),
            Value::new(0.1).unwrap(),
            Value::new(0.5).unwrap(),
            Value::new(0.9).unwrap(),
        ];
        let deliverers = NodeSet::full(n);
        let honest = NodeSet::full(n);
        let view = AdversaryView {
            round: Round::ZERO,
            params,
            phases: &phases,
            values: &values,
            deliverers: &deliverers,
            honest: &honest,
        };
        let mut e = EdgeSet::empty(n);
        AdaptiveClosest::new(1).edges_into(&view, &mut e);
        assert!(e.contains(NodeId::new(1), NodeId::new(0)));
        assert_eq!(e.in_degree(NodeId::new(0)), 1);
        // Receiver 3 (0.9) hears the 0.5 node.
        assert!(e.contains(NodeId::new(2), NodeId::new(3)));
    }

    #[test]
    fn deterministic_tie_break() {
        // All values equal: distances tie, lowest indices win.
        let n = 5;
        let params = Params::new(n, 0, 0.1).unwrap();
        let phases = vec![Phase::ZERO; n];
        let values = vec![Value::HALF; n];
        let deliverers = NodeSet::full(n);
        let honest = NodeSet::full(n);
        let view = AdversaryView {
            round: Round::ZERO,
            params,
            phases: &phases,
            values: &values,
            deliverers: &deliverers,
            honest: &honest,
        };
        let mut e = EdgeSet::empty(n);
        AdaptiveClosest::new(2).edges_into(&view, &mut e);
        // Receiver 4 hears nodes 0 and 1.
        assert!(e.contains(NodeId::new(0), NodeId::new(4)));
        assert!(e.contains(NodeId::new(1), NodeId::new(4)));
    }
}
