//! Adversaries whose behavior changes over time: eventually-stabilizing
//! networks (the "early works" model the paper contrasts with in §III) and
//! temporary isolation of individual nodes (stragglers).

use adn_graph::LinkSink;
use adn_types::{NodeId, Round};

use crate::{AdversaryView, Complete, LinkChoice};

/// Chaotic until round `stabilize_at`, then a fixed complete graph forever
/// — the eventually-stable network model of the early dynamic-network
/// literature (Afek et al., Awerbuch et al.; §III).
///
/// Algorithms designed for that model only promise progress *after*
/// stabilization. DAC and DBAC promise progress throughout as long as the
/// dynaDegree condition holds; under `Eventually` with a silent prefix
/// they simply start converging at `stabilize_at` — useful for comparing
/// the models and for testing cold-start behavior.
#[derive(Debug, Clone, Copy)]
pub struct Eventually {
    stabilize_at: Round,
}

impl Eventually {
    /// Creates an adversary that delivers nothing before `stabilize_at`
    /// and the complete graph from then on.
    pub fn new(stabilize_at: Round) -> Self {
        Eventually { stabilize_at }
    }

    /// The stabilization round.
    pub fn stabilize_at(&self) -> Round {
        self.stabilize_at
    }
}

impl LinkChoice for Eventually {
    // audit: no-alloc
    fn fill<S: LinkSink>(&mut self, view: &AdversaryView<'_>, out: &mut S) {
        // Nothing during the chaotic prefix, then the complete graph.
        if view.round >= self.stabilize_at {
            Complete.fill(view, out);
        }
    }

    fn lane_key(&self) -> Option<u64> {
        Some(crate::mix_lane_key(7, &[self.stabilize_at.as_u64()]))
    }

    fn name(&self) -> &'static str {
        "eventually"
    }
}

/// Isolates one victim for a stretch of rounds: during
/// `[from, from + duration)` the victim neither sends nor receives; every
/// other pair of deliverers stays fully connected. Afterwards the victim
/// rejoins.
///
/// This is the straggler scenario that motivates DAC's jump rule: on
/// rejoining, the victim receives a higher-phase state and catches up in
/// **one** message instead of replaying every missed phase. Note that
/// while the victim is honest-but-isolated the execution does *not*
/// satisfy the dynaDegree condition for it — the interesting measurement
/// is how fast it recovers once the condition returns.
#[derive(Debug, Clone, Copy)]
pub struct Isolate {
    victim: NodeId,
    from: Round,
    duration: u64,
}

impl Isolate {
    /// Isolates `victim` for `duration` rounds starting at `from`.
    pub fn new(victim: NodeId, from: Round, duration: u64) -> Self {
        Isolate {
            victim,
            from,
            duration,
        }
    }

    /// Whether the victim is cut off in `round`.
    pub fn is_isolated(&self, round: Round) -> bool {
        round >= self.from && round.as_u64() < self.from.as_u64() + self.duration
    }
}

impl LinkChoice for Isolate {
    // audit: no-alloc
    fn fill<S: LinkSink>(&mut self, view: &AdversaryView<'_>, out: &mut S) {
        if !self.is_isolated(view.round) {
            return Complete.fill(view, out);
        }
        // The full id range split around the victim — at most two runs
        // per receiver — and the victim's own row stays empty.
        let n = view.params.n();
        for v in NodeId::all(n) {
            if v != self.victim {
                out.push_run_except(v, NodeId::new(0), NodeId::new(n - 1), self.victim);
            }
        }
    }

    fn lane_key(&self) -> Option<u64> {
        Some(crate::mix_lane_key(
            8,
            &[
                self.victim.index() as u64,
                self.from.as_u64(),
                self.duration,
            ],
        ))
    }

    fn name(&self) -> &'static str {
        "isolate"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::record;
    use adn_graph::checker;

    #[test]
    fn eventually_is_silent_then_complete() {
        let mut adv = Eventually::new(Round::new(3));
        let sched = record(&mut adv, 4, 6);
        for (t, e) in sched.iter() {
            if t.as_u64() < 3 {
                assert_eq!(e.edge_count(), 0, "round {t} should be silent");
            } else {
                assert_eq!(e.edge_count(), 12, "round {t} should be complete");
            }
        }
    }

    #[test]
    fn eventually_dyna_degree_depends_on_window() {
        let sched = record(&mut Eventually::new(Round::new(2)), 5, 10);
        // Any 3-round window contains at least one stable round.
        assert_eq!(checker::max_dyna_degree(&sched, 3, &[]), Some(4));
        // 1-round windows at the start are empty.
        assert_eq!(checker::max_dyna_degree(&sched, 1, &[]), Some(0));
    }

    #[test]
    fn isolate_cuts_both_directions() {
        let victim = NodeId::new(2);
        let mut adv = Isolate::new(victim, Round::new(1), 2);
        let sched = record(&mut adv, 4, 4);
        // Round 0: complete.
        assert_eq!(sched.round(Round::new(0)).unwrap().in_degree(victim), 3);
        // Rounds 1-2: victim exiled.
        for t in [1u64, 2] {
            let e = sched.round(Round::new(t)).unwrap();
            assert_eq!(e.in_degree(victim), 0, "round {t}");
            assert_eq!(e.out_degree(victim), 0, "round {t}");
            // Everyone else still fully meshed.
            assert_eq!(e.in_degree(NodeId::new(0)), 2);
        }
        // Round 3: back.
        assert_eq!(sched.round(Round::new(3)).unwrap().in_degree(victim), 3);
    }

    #[test]
    fn isolation_window_arithmetic() {
        let adv = Isolate::new(NodeId::new(0), Round::new(5), 3);
        assert!(!adv.is_isolated(Round::new(4)));
        assert!(adv.is_isolated(Round::new(5)));
        assert!(adv.is_isolated(Round::new(7)));
        assert!(!adv.is_isolated(Round::new(8)));
    }
}
