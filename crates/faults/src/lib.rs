//! Hybrid node-fault models for anonymous dynamic networks.
//!
//! The paper's model (§II-A) lets up to `f` nodes fail in one of two ways:
//!
//! * **Crash** — a node stops at any point, possibly mid-broadcast so that
//!   only some of its round-`t` messages are delivered. Modeled by
//!   [`CrashSchedule`].
//! * **Byzantine** — a node behaves arbitrarily. Crucially, under anonymity
//!   a Byzantine node can *equivocate*: send different messages to
//!   different receivers without detection, because port numberings are
//!   private (this powers the Theorem 10 lower bound). Modeled by
//!   [`ByzantineStrategy`] implementations that produce per-destination
//!   messages.
//!
//! The strategies in [`strategies`] cover the attacks used by the paper's
//! proofs and the experiments: the two-faced split of Theorem 10, extreme
//! value pulling, random noise, phase-forging (which demonstrates that DAC
//! is *not* Byzantine tolerant), silence, and stealthy mimicry.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod churn;
pub mod colluding;
mod crash;
pub mod strategies;

pub use churn::{ChurnPlan, DownKind};
pub use crash::{CrashSchedule, CrashSurvivors};

use std::fmt;

use adn_types::{Batch, Message, NodeId, Params, Phase, Round, Value};

/// Everything a Byzantine node gets to see when fabricating a message.
///
/// Byzantine nodes (and the message adversary) are allowed to inspect all
/// internal states at the start of the round (§I: the adversary "may use
/// nodes' internal states ... to make the choice"); we extend the same
/// omniscience to Byzantine senders, which only makes the adversary
/// stronger — the algorithms must tolerate it.
#[derive(Debug)]
pub struct ByzContext<'a> {
    /// The current round.
    pub round: Round,
    /// The Byzantine node's own identity (analysis-only; it cannot leak it
    /// to receivers, who see only a port).
    pub self_id: NodeId,
    /// System parameters.
    pub params: Params,
    /// Phase of every node at the start of the round (faulty entries are
    /// whatever the faulty node last held).
    pub phases: &'a [Phase],
    /// State value of every node at the start of the round.
    pub values: &'a [Value],
}

impl ByzContext<'_> {
    /// The highest phase any node currently holds — claiming it makes a
    /// fabricated message acceptable to every DBAC receiver. An O(n) scan
    /// of the snapshot: call it from
    /// [`ByzantineStrategy::begin_round`], not once per link.
    pub fn max_phase(&self) -> Phase {
        self.phases.iter().copied().max().unwrap_or(Phase::ZERO)
    }

    /// The phase of a specific receiver, so a fabricated message can be
    /// tailored to pass its `pj >= pi` check.
    pub fn phase_of(&self, node: NodeId) -> Phase {
        self.phases[node.index()]
    }
}

/// What a Byzantine sender sends this round when it is the same message to
/// every destination, up to the destination's own phase
/// ([`ByzantineStrategy::uniform`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Uniform {
    /// This value, tagged with each destination's start-of-round phase.
    AtReceiverPhase(Value),
    /// This one message, to every destination.
    Message(Message),
}

/// A Byzantine node's behavior: one (possibly different) message batch per
/// destination per round.
///
/// Leaving the batch empty means sending nothing to that destination in
/// that round. A batch with several messages models a (maliciously crafted)
/// piggybacked transmission.
pub trait ByzantineStrategy: fmt::Debug {
    /// Derives whatever this strategy needs from the start-of-round
    /// snapshot as a whole (a median, the global maximum phase, the honest
    /// minimum), so that [`ByzantineStrategy::messages_into`] does O(1)
    /// work per link. The round engine calls it once per Byzantine node
    /// per round, after the snapshot and before any delivery, with the
    /// context every `messages_into` of that round will see. Like
    /// `messages_into` it must not allocate in the steady state.
    /// Strategies that read only the destination's own entry keep the
    /// default no-op.
    ///
    /// The engine's call is the refresh, whatever the round number. A
    /// caller that drives `messages_into` alone is still served: the stock
    /// strategies stamp what they derive with `ctx.round`, derive it
    /// themselves on meeting a round they were not primed for, and drop
    /// the stamp in [`ByzantineStrategy::begin_instance`] — so such a
    /// caller must call `begin_round` (or `begin_instance`) itself
    /// whenever it shows one strategy two snapshots under one round number.
    fn begin_round(&mut self, ctx: &ByzContext<'_>) {
        let _ = ctx;
    }

    /// Fabricates the messages this node sends to `dest` in the current
    /// round, appending them to `out`.
    ///
    /// `out` may already hold earlier links' messages: the round engine
    /// fabricates every link of the round into one reused arena, before
    /// delivery. Implementations must only append — never read or remove
    /// what `out` holds, nor allocate their own vector — which also keeps
    /// the steady-state message plane allocation free.
    fn messages_into(&mut self, ctx: &ByzContext<'_>, dest: NodeId, out: &mut Batch);

    /// Convenience form of [`ByzantineStrategy::messages_into`] that
    /// allocates a fresh vector per call and runs
    /// [`ByzantineStrategy::begin_round`] on `ctx` first, so every call
    /// stands alone. Prefer `messages_into` on hot paths; this shim
    /// exists for tests and exploratory code.
    fn messages_for(&mut self, ctx: &ByzContext<'_>, dest: NodeId) -> Vec<Message> {
        let mut out = Batch::new();
        self.begin_round(ctx);
        self.messages_into(ctx, dest, &mut out);
        out.into_vec()
    }

    /// This round's batch when it is one message that does not depend on
    /// the destination — or on it only through its phase — and whose
    /// sending changes no state: then the round engine stages it once per
    /// round instead of calling [`ByzantineStrategy::messages_into`] once
    /// per link. Asked after [`ByzantineStrategy::begin_round`] with the
    /// same context, so what it reads is primed. For every destination
    /// `dest`, `Some(Uniform::Message(m))` must be exactly what
    /// `messages_into(ctx, dest, ..)` appends, and
    /// `Some(Uniform::AtReceiverPhase(x))` exactly one message
    /// `(x, ctx.phase_of(dest))`. The default, `None`, keeps the per-link
    /// calls.
    fn uniform(&self, ctx: &ByzContext<'_>) -> Option<Uniform> {
        let _ = ctx;
        None
    }

    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Resets per-instance state at the start of service instance
    /// `instance` (counting from 0; the service calls it for instance 0
    /// too). Stateful strategies (like [`strategies::RandomNoise`]) reseed
    /// their generators from the instance number here, so instance `k` of
    /// a service run fabricates byte-identically to a standalone run whose
    /// strategy also received `begin_instance(k)`. Required, so that a
    /// stateful strategy cannot forget it; a stateless one writes the
    /// no-op. Single-instance runs never call this.
    fn begin_instance(&mut self, instance: u64);

    /// Whether this node transmits at all. A non-transmitting Byzantine
    /// node (like [`strategies::Silent`]) cannot count toward anyone's
    /// dynaDegree — the guarantee-preserving adversaries must route around
    /// it, exactly as they route around crashed senders (the paper's
    /// fault model, §II-A of PAPER.md's source; README, "Service mode and
    /// fault injection").
    fn transmits(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_max_phase() {
        let phases = [Phase::new(1), Phase::new(4), Phase::ZERO];
        let values = [Value::ZERO, Value::HALF, Value::ONE];
        let ctx = ByzContext {
            round: Round::ZERO,
            self_id: NodeId::new(2),
            params: Params::new(3, 1, 0.1).unwrap(),
            phases: &phases,
            values: &values,
        };
        assert_eq!(ctx.max_phase(), Phase::new(4));
        assert_eq!(ctx.phase_of(NodeId::new(0)), Phase::new(1));
    }

    /// The uniform property against the per-link path: over random
    /// snapshots — one phase for every node, or several — a strategy that
    /// declares its round's message `uniform` once primed sends exactly
    /// that on every link (at each destination's phase, for
    /// `AtReceiverPhase`), and still declares it after sending; the three
    /// whose message depends on the destination or on a draw, or who send
    /// nothing, declare nothing. The five stock kinds that declare it must.
    /// And every strategy only appends: into a batch that already holds a
    /// message, it appends what a twin built alike sends into a fresh one.
    #[test]
    fn uniform_messages_match_messages_into_on_every_destination() {
        let seeds = std::env::var("ADN_FUZZ_SEEDS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(300);
        let (mut one_phase, mut several) = (0, 0);
        for seed in 0..seeds {
            let mut rng = adn_types::rng::SplitMix64::new(seed);
            let n = 2 + rng.next_index(40);
            let params = Params::new(n, (n - 1) / 5, 0.1).unwrap();
            let spread = [1, 1, 2, 5][rng.next_index(4)];
            let base = rng.next_below(6);
            let phases: Vec<Phase> = (0..n)
                .map(|_| Phase::new(base + rng.next_below(spread)))
                .collect();
            let values: Vec<Value> = (0..n)
                .map(|_| Value::saturating(rng.next_below(9) as f64 / 8.0))
                .collect();
            let shared = phases.iter().all(|&p| p == phases[0]);
            one_phase += u64::from(shared);
            several += u64::from(!shared);
            let members: Vec<NodeId> = (n - n.min(3)..n).map(NodeId::new).collect();
            let plan = [colluding::Plan::Straddle, colluding::Plan::Sandwich][rng.next_index(2)];
            let build = || {
                let mut all: Vec<Box<dyn ByzantineStrategy>> = strategies::ALL_STRATEGY_NAMES
                    .iter()
                    .map(|name| strategies::by_name(name, n, seed))
                    .collect();
                let coalition = colluding::Coalition::build(plan, members.clone());
                all.extend(coalition.into_iter().map(|m| m.1));
                all
            };
            let (mut under_test, mut twins) = (build(), build());
            let ctx = ByzContext {
                round: Round::new(rng.next_below(5)),
                self_id: NodeId::new(n - 1),
                params,
                phases: &phases,
                values: &values,
            };
            let sentinel = Message::new(Value::saturating(0.375), Phase::new(1 << 40));
            for (strategy, twin) in under_test.iter_mut().zip(&mut twins) {
                let name = strategy.name();
                strategy.begin_round(&ctx);
                twin.begin_round(&ctx);
                let declared = strategy.uniform(&ctx);
                let dependent = ["two-faced", "random-noise", "silent"].contains(&name);
                assert_eq!(declared.is_none(), dependent, "{name}, seed {seed}");
                for dest in NodeId::all(n) {
                    let mut fresh = Batch::new();
                    twin.messages_into(&ctx, dest, &mut fresh);
                    let mut out = Batch::from(vec![sentinel]);
                    strategy.messages_into(&ctx, dest, &mut out);
                    assert_eq!(out[0], sentinel, "{name}, seed {seed}, {dest}: read over");
                    assert_eq!(out[1..], fresh[..], "{name}, seed {seed}, {dest}: appended");
                    let Some(uniform) = declared else {
                        continue;
                    };
                    let want = match uniform {
                        Uniform::Message(m) => m,
                        Uniform::AtReceiverPhase(x) => Message::new(x, ctx.phase_of(dest)),
                    };
                    assert_eq!(fresh.into_vec(), vec![want], "{name}, seed {seed}, {dest}");
                }
                assert_eq!(strategy.uniform(&ctx), declared, "{name}, seed {seed}");
            }
        }
        if seeds >= 100 {
            assert!(one_phase > 0 && several > 0, "{one_phase} / {several}");
        }
    }

    /// What `Mimic`, `PhaseForger` and a Straddle member send on one
    /// link, recomputed from `ctx` alone.
    fn recomputed(ctx: &ByzContext<'_>, members: &[NodeId], dest: NodeId) -> [Message; 3] {
        let mut sorted = ctx.values.to_vec();
        sorted.sort();
        let honest_min = (0..ctx.values.len())
            .filter(|&i| !members.contains(&NodeId::new(i)))
            .map(|i| ctx.values[i])
            .min()
            .unwrap();
        [
            Message::new(sorted[sorted.len() / 2], ctx.phase_of(dest)),
            Message::new(Value::ONE, Phase::new(ctx.max_phase().as_u64() + 7)),
            Message::new(honest_min + (-0.04), ctx.phase_of(dest)),
        ]
    }

    /// The per-round facts never leak: link for link the strategies send
    /// what a per-link recomputation sends, over rounds whose values and
    /// phases change and across instance boundaries that restart the
    /// round counter at 0 — driven as the engine does (`begin_round` every
    /// round, with or without `begin_instance`) and as a caller that only
    /// knows `messages_into` and `begin_instance` does.
    #[test]
    fn round_facts_match_per_link_recomputation() {
        let n = 7;
        let members = [NodeId::new(5), NodeId::new(6)];
        let params = Params::new(n, 1, 0.1).unwrap();
        for (prime, reseed) in [(true, true), (true, false), (false, true)] {
            let mut coalition =
                colluding::Coalition::build(colluding::Plan::Straddle, members.to_vec());
            let mut under_test: [Box<dyn ByzantineStrategy>; 3] = [
                Box::new(strategies::Mimic::default()),
                Box::new(strategies::PhaseForger::new(7, Value::ONE)),
                coalition.pop().unwrap().1, // rank 1: nudged by 0.04
            ];
            let mut rng = adn_types::rng::SplitMix64::new(11);
            // One-round instances put two round 0s back to back.
            for (instance, rounds) in [4, 1, 1, 3].into_iter().enumerate() {
                let instance = instance as u64;
                if reseed {
                    under_test
                        .iter_mut()
                        .for_each(|s| s.begin_instance(instance));
                }
                for round in 0..rounds {
                    let values: Vec<Value> =
                        (0..n).map(|_| Value::saturating(rng.next_f64())).collect();
                    let phases: Vec<Phase> =
                        (0..n).map(|_| Phase::new(rng.next_below(9))).collect();
                    let ctx = ByzContext {
                        round: Round::new(round),
                        self_id: members[1],
                        params,
                        phases: &phases,
                        values: &values,
                    };
                    if prime {
                        under_test.iter_mut().for_each(|s| s.begin_round(&ctx));
                    }
                    for dest in NodeId::all(n) {
                        let want = recomputed(&ctx, &members, dest);
                        for (strategy, want) in under_test.iter_mut().zip(want) {
                            let mut out = Batch::new();
                            strategy.messages_into(&ctx, dest, &mut out);
                            assert_eq!(
                                out.into_vec(),
                                vec![want],
                                "{} instance {instance} round {round} prime {prime}",
                                strategy.name()
                            );
                        }
                    }
                }
            }
        }
    }
}
