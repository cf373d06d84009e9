//! Coordinated multi-node Byzantine attacks.
//!
//! Single-node strategies (see [`strategies`](crate::strategies)) act
//! independently; a real adversary coordinates its `f` nodes. This module
//! provides [`Coalition`], a shared plan that hands each member a
//! [`CoalitionMember`] strategy, plus the coordinated plans used in the
//! test matrix:
//!
//! * [`Plan::Straddle`] — the coalition spreads its values just inside the
//!   trim boundary: member `i` sends the `(i+1)`-th lowest honest value
//!   minus a nudge, trying to occupy DBAC's `R_low` list with
//!   *nearly*-legal values that bias the update downward without ever
//!   being trimmed as extremes.
//! * [`Plan::Sandwich`] — half the coalition pushes 0, half pushes 1,
//!   maximizing the spread of the trimmed lists.

use std::cell::RefCell;
use std::rc::Rc;

use adn_types::{Batch, Message, NodeId, Round, Value};

use crate::{ByzContext, ByzantineStrategy, Uniform};

/// The coordinated behavior of a coalition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// Occupy the just-inside-the-trim band below the honest minimum.
    Straddle,
    /// Split the coalition between the two extremes.
    Sandwich,
}

/// Shared coalition state: the plan, the member roster and what the plan
/// derives from the current round's snapshot.
#[derive(Debug)]
pub struct Coalition {
    plan: Plan,
    /// `is_member[i]` iff node `i` is on the roster (ids past the end are
    /// not).
    is_member: Vec<bool>,
    /// The smallest non-member value, as of round `primed`
    /// ([`Plan::Straddle`] only).
    honest_min: Value,
    primed: Option<Round>,
}

impl Coalition {
    /// Creates a coalition executing `plan` with the given members, and
    /// returns one boxed strategy per member (in roster order).
    pub fn build(plan: Plan, members: Vec<NodeId>) -> Vec<(NodeId, Box<dyn ByzantineStrategy>)> {
        let mut is_member = vec![false; members.iter().map(|m| m.index() + 1).max().unwrap_or(0)];
        for m in &members {
            is_member[m.index()] = true;
        }
        let shared = Rc::new(RefCell::new(Coalition {
            plan,
            is_member,
            honest_min: Value::HALF,
            primed: None,
        }));
        members
            .into_iter()
            .enumerate()
            .map(|(rank, id)| {
                let strategy: Box<dyn ByzantineStrategy> = Box::new(CoalitionMember {
                    coalition: Rc::clone(&shared),
                    rank,
                });
                (id, strategy)
            })
            .collect()
    }

    fn begin_round(&mut self, ctx: &ByzContext<'_>) {
        if self.plan == Plan::Straddle {
            let is_member = self.is_member.iter().chain(std::iter::repeat(&false));
            self.honest_min = std::iter::zip(ctx.values, is_member)
                .filter(|(_, &member)| !member)
                .map(|(v, _)| *v)
                .min()
                .unwrap_or(Value::HALF);
        }
        self.primed = Some(ctx.round);
    }

    fn value_for(&mut self, rank: usize, ctx: &ByzContext<'_>) -> Value {
        if self.plan == Plan::Straddle && self.primed != Some(ctx.round) {
            self.begin_round(ctx);
        }
        self.primed_value(rank)
    }

    /// Member `rank`'s value, from what the plan derived last.
    fn primed_value(&self, rank: usize) -> Value {
        match self.plan {
            // The honest minimum, nudged down by rank-scaled amounts —
            // each member sits a little below the legitimate range.
            Plan::Straddle => self.honest_min + (-(0.02 * (rank as f64 + 1.0))),
            Plan::Sandwich => {
                if rank.is_multiple_of(2) {
                    Value::ZERO
                } else {
                    Value::ONE
                }
            }
        }
    }
}

/// One member's view of the coalition (a [`ByzantineStrategy`]).
#[derive(Debug)]
pub struct CoalitionMember {
    coalition: Rc<RefCell<Coalition>>,
    rank: usize,
}

impl ByzantineStrategy for CoalitionMember {
    fn begin_round(&mut self, ctx: &ByzContext<'_>) {
        self.coalition.borrow_mut().begin_round(ctx);
    }

    fn messages_into(&mut self, ctx: &ByzContext<'_>, dest: NodeId, out: &mut Batch) {
        let value = self.coalition.borrow_mut().value_for(self.rank, ctx);
        out.push(Message::new(value, ctx.phase_of(dest)));
    }

    fn uniform(&self, ctx: &ByzContext<'_>) -> Option<Uniform> {
        let coalition = self.coalition.borrow();
        let primed = coalition.plan == Plan::Sandwich || coalition.primed == Some(ctx.round);
        primed.then(|| Uniform::AtReceiverPhase(coalition.primed_value(self.rank)))
    }

    fn name(&self) -> &'static str {
        "coalition"
    }

    fn begin_instance(&mut self, _instance: u64) {
        // The next instance's round 0 must not reuse this one's minimum.
        self.coalition.borrow_mut().primed = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_types::{Params, Phase, Round};

    fn ctx<'a>(phases: &'a [Phase], values: &'a [Value]) -> ByzContext<'a> {
        ByzContext {
            round: Round::ZERO,
            self_id: NodeId::new(0),
            params: Params::new(phases.len().max(6), 1, 0.1).unwrap(),
            phases,
            values,
        }
    }

    #[test]
    fn sandwich_alternates_extremes() {
        let members = vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)];
        let mut strategies = Coalition::build(Plan::Sandwich, members);
        let phases = [Phase::ZERO; 6];
        let values = [Value::HALF; 6];
        let c = ctx(&phases, &values);
        let got: Vec<Value> = strategies
            .iter_mut()
            .map(|(_, s)| s.messages_for(&c, NodeId::new(5))[0].value())
            .collect();
        assert_eq!(got, vec![Value::ZERO, Value::ONE, Value::ZERO]);
    }

    #[test]
    fn straddle_sits_below_honest_minimum() {
        let members = vec![NodeId::new(4), NodeId::new(5)];
        let mut strategies = Coalition::build(Plan::Straddle, members);
        let phases = [Phase::ZERO; 6];
        let values = [
            Value::new(0.4).unwrap(),
            Value::new(0.5).unwrap(),
            Value::new(0.6).unwrap(),
            Value::new(0.7).unwrap(),
            Value::ONE, // member values are excluded from the honest min
            Value::ONE,
        ];
        let c = ctx(&phases, &values);
        let v0 = strategies[0].1.messages_for(&c, NodeId::new(0))[0].value();
        let v1 = strategies[1].1.messages_for(&c, NodeId::new(0))[0].value();
        assert!((v0.get() - 0.38).abs() < 1e-12);
        assert!((v1.get() - 0.36).abs() < 1e-12);
        assert!(v1 < v0, "deeper rank sits lower");
    }

    #[test]
    fn members_share_one_plan() {
        let members = vec![NodeId::new(0), NodeId::new(1)];
        let strategies = Coalition::build(Plan::Straddle, members);
        assert_eq!(strategies.len(), 2);
        for (_, s) in &strategies {
            assert_eq!(s.name(), "coalition");
        }
    }
}
