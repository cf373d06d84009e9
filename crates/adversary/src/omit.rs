use adn_graph::LinkSink;
use adn_types::NodeId;

use crate::{AdversaryView, LinkChoice};

/// Which single in-neighbor [`OmitOne`] removes at each receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OmitRule {
    /// Drop the sender currently holding the **lowest** state value — the
    /// exact-consensus killer: a unique minimum never propagates.
    LowestValue,
    /// Drop the sender currently holding the highest state value.
    HighestValue,
    /// Drop sender `(round + receiver) mod candidates` — maximally fair,
    /// still (1, n−2).
    RoundRobin,
}

/// The Gafni–Losa / Corollary 1 adversary: the complete graph minus
/// **one** incoming link per receiver per round, i.e. exactly
/// `(1, n−2)`-dynaDegree.
///
/// Theorem 8 (quoted by the paper) says deterministic binary **exact**
/// consensus is impossible in a model where each node may miss one message
/// per round, even fault-free; Corollary 1 transfers this to
/// (1, n−2)-dynaDegree. `OmitOne` with [`OmitRule::LowestValue`] is the
/// constructive witness used by experiment E15: against a min-flooding
/// algorithm it suppresses the unique minimum forever, so the minimum's
/// holder and everyone else decide differently.
#[derive(Debug, Clone, Copy)]
pub struct OmitOne {
    rule: OmitRule,
}

impl OmitOne {
    /// Creates the adversary with the given omission rule.
    pub fn new(rule: OmitRule) -> Self {
        OmitOne { rule }
    }

    /// The omission rule in effect.
    pub fn rule(&self) -> OmitRule {
        self.rule
    }
}

impl OmitOne {
    /// The best and second-best deliverer under the rule's preference
    /// order — `(value, id)` ascending for [`OmitRule::LowestValue`],
    /// `(value desc, id asc)` for [`OmitRule::HighestValue`]. Per receiver
    /// the omitted sender is the best over "deliverers minus me", which is
    /// the global best for everyone except the best itself (it omits the
    /// runner-up) — so one O(deliverers) scan serves all n receivers.
    fn best_two(&self, view: &AdversaryView<'_>) -> (Option<NodeId>, Option<NodeId>) {
        let mut best: Option<NodeId> = None;
        let mut second: Option<NodeId> = None;
        let prefer = |a: NodeId, b: NodeId| -> bool {
            // Whether `a` is omitted in preference to `b`.
            let (va, vb) = (view.values[a.index()], view.values[b.index()]);
            match self.rule {
                OmitRule::LowestValue => va.cmp(&vb).then(a.cmp(&b)).is_lt(),
                OmitRule::HighestValue => vb.cmp(&va).then(a.cmp(&b)).is_lt(),
                OmitRule::RoundRobin => unreachable!("round-robin has no value order"),
            }
        };
        view.deliverers.for_each(|u| {
            if best.is_none_or(|b| prefer(u, b)) {
                second = best;
                best = Some(u);
            } else if second.is_none_or(|s| prefer(u, s)) {
                second = Some(u);
            }
        });
        (best, second)
    }
}

impl LinkChoice for OmitOne {
    // audit: no-alloc
    fn fill<S: LinkSink>(&mut self, view: &AdversaryView<'_>, out: &mut S) {
        let n = view.params.n();
        let t = view.round.as_u64() as usize;
        let total = view.deliverers.len();
        let value_best = match self.rule {
            OmitRule::RoundRobin => (None, None),
            _ => self.best_two(view),
        };
        for v in NodeId::all(n) {
            let v_delivers = view.deliverers.contains(v);
            let m = total - usize::from(v_delivers);
            if m == 0 {
                continue;
            }
            let omitted = match self.rule {
                OmitRule::RoundRobin => {
                    // The k-th member of "deliverers minus v": skip v's own
                    // rank when mapping the reduced index onto the set.
                    let k = (t + v.index()) % m;
                    let k = if v_delivers && k >= view.deliverers.rank(v) {
                        k + 1
                    } else {
                        k
                    };
                    // audit: allow(no-panic) — k < m ≤ deliverers.len() by the modulo above, so nth(k) always exists
                    view.deliverers.nth(k).expect("index within deliverers")
                }
                _ => match value_best {
                    (Some(best), _) if best != v => best,
                    (_, Some(second)) => second,
                    _ => unreachable!("m > 0 guarantees a candidate"),
                },
            };
            // Row = deliverers minus self, minus the omitted sender: the
            // full id range split around it — at most two runs per
            // receiver, whatever n is.
            out.push_run_except(v, NodeId::new(0), NodeId::new(n - 1), omitted);
        }
    }

    fn name(&self) -> &'static str {
        "omit-one"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::record;
    use adn_graph::checker;

    #[test]
    fn realizes_exactly_1_nminus2() {
        for rule in [
            OmitRule::LowestValue,
            OmitRule::HighestValue,
            OmitRule::RoundRobin,
        ] {
            let sched = record(&mut OmitOne::new(rule), 6, 5);
            assert_eq!(
                checker::max_dyna_degree(&sched, 1, &[]),
                Some(4),
                "{rule:?} must give n-2"
            );
        }
    }

    #[test]
    fn lowest_value_suppresses_the_minimum_holder() {
        // testutil::record assigns values i/n, so node 0 is the minimum;
        // every receiver must be missing exactly its link from node 0.
        let sched = record(&mut OmitOne::new(OmitRule::LowestValue), 5, 3);
        for (_, e) in sched.iter() {
            for v in 1..5 {
                assert!(!e.contains(NodeId::new(0), NodeId::new(v)));
            }
            // Node 0 itself omits its lowest *other* sender, node 1.
            assert!(!e.contains(NodeId::new(1), NodeId::new(0)));
        }
    }

    #[test]
    fn round_robin_rotates_the_omission() {
        let sched = record(&mut OmitOne::new(OmitRule::RoundRobin), 4, 4);
        // Receiver 0's omitted sender changes between rounds 0 and 1.
        let miss = |t: u64| {
            let e = sched.round(adn_types::Round::new(t)).unwrap();
            (1..4)
                .map(NodeId::new)
                .find(|&u| !e.contains(u, NodeId::new(0)))
                .unwrap()
        };
        assert_ne!(miss(0), miss(1));
    }
}
