//! Byzantine attack strategies.
//!
//! Each strategy implements [`ByzantineStrategy`]
//! and fabricates per-destination messages. The two-faced strategy is the
//! exact attack of the Theorem 10 necessity proof; the others exercise
//! DBAC's defenses from different angles and appear in experiments E07,
//! E08, and the test matrix.

use adn_types::rng::SplitMix64;
use adn_types::{Batch, Message, NodeId, Phase, Round, Value};

use crate::{ByzContext, ByzantineStrategy, Uniform};

/// The Theorem 10 equivocation attack: behave as if the input were
/// `low_value` toward destinations in the "low" group and `high_value`
/// toward everyone else.
///
/// Anonymity makes this undetectable: receivers cannot compare notes about
/// "who" sent what, because port numberings are private. The fabricated
/// phase always matches the receiver's own phase, so the message passes
/// both DAC's `pj = pi` check and DBAC's `pj >= pi` check.
#[derive(Debug, Clone)]
pub struct TwoFaced {
    /// Destinations with index below this bound receive `low_value`.
    pub split: usize,
    /// Value shown to the low group.
    pub low_value: Value,
    /// Value shown to the high group.
    pub high_value: Value,
}

impl TwoFaced {
    /// The canonical 0-vs-1 split used in the paper's proof.
    pub fn zero_one(split: usize) -> Self {
        TwoFaced {
            split,
            low_value: Value::ZERO,
            high_value: Value::ONE,
        }
    }
}

impl ByzantineStrategy for TwoFaced {
    fn messages_into(&mut self, ctx: &ByzContext<'_>, dest: NodeId, out: &mut Batch) {
        let value = if dest.index() < self.split {
            self.low_value
        } else {
            self.high_value
        };
        out.push(Message::new(value, ctx.phase_of(dest)));
    }

    fn name(&self) -> &'static str {
        "two-faced"
    }

    fn begin_instance(&mut self, _instance: u64) {
        // Stateless across instances: every round's output is a pure
        // function of the context, so there is nothing to re-seed.
    }
}

/// Always sends one fixed extreme value (to every destination), tagged with
/// the receiver's phase so it is always accepted.
///
/// Tests DBAC's trimming: `f` such attackers must not drag outputs outside
/// the fault-free input hull (validity, Lemma 5).
#[derive(Debug, Clone)]
pub struct Extreme {
    /// The value pushed at every receiver.
    pub value: Value,
}

impl ByzantineStrategy for Extreme {
    fn messages_into(&mut self, ctx: &ByzContext<'_>, dest: NodeId, out: &mut Batch) {
        out.push(Message::new(self.value, ctx.phase_of(dest)));
    }

    fn uniform(&self, _ctx: &ByzContext<'_>) -> Option<Uniform> {
        Some(Uniform::AtReceiverPhase(self.value))
    }

    fn name(&self) -> &'static str {
        "extreme"
    }

    fn begin_instance(&mut self, _instance: u64) {
        // Stateless across instances: every round's output is a pure
        // function of the context, so there is nothing to re-seed.
    }
}

/// Sends independent uniform noise to every destination every round.
#[derive(Debug)]
pub struct RandomNoise {
    seed: u64,
    rng: SplitMix64,
}

impl RandomNoise {
    /// Creates a noise attacker with its own deterministic stream.
    pub fn new(seed: u64) -> Self {
        RandomNoise {
            seed,
            rng: SplitMix64::new(seed),
        }
    }
}

impl ByzantineStrategy for RandomNoise {
    fn messages_into(&mut self, ctx: &ByzContext<'_>, dest: NodeId, out: &mut Batch) {
        let v = Value::saturating(self.rng.next_f64());
        out.push(Message::new(v, ctx.phase_of(dest)));
    }

    fn name(&self) -> &'static str {
        "random-noise"
    }

    fn begin_instance(&mut self, instance: u64) {
        // Instance 0 reseeds to the construction stream, so a service's
        // first instance matches a plain single-instance run byte for
        // byte; later instances draw from disjoint deterministic streams.
        self.rng = SplitMix64::new(self.seed ^ instance.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
}

/// Claims a phase far in the future with an attacker-chosen value.
///
/// Against DAC this is devastating — the jump rule (Alg. 1 lines 5-8)
/// copies the fabricated state wholesale, destroying validity. DAC is a
/// *crash*-model algorithm; this strategy exists to demonstrate that
/// boundary (experiment E08 and the `dac_not_byzantine_tolerant` tests).
/// Against DBAC the forged value merely lands in the trimmed lists.
#[derive(Debug, Clone)]
pub struct PhaseForger {
    /// How many phases ahead of the current global maximum to claim.
    pub lead: u64,
    /// The value to inject.
    pub value: Value,
    /// The global maximum phase, as of round `primed`.
    max_phase: Phase,
    primed: Option<Round>,
}

impl PhaseForger {
    /// A forger claiming `lead` phases past the global maximum with
    /// `value`.
    pub fn new(lead: u64, value: Value) -> Self {
        PhaseForger {
            lead,
            value,
            max_phase: Phase::ZERO,
            primed: None,
        }
    }

    /// The round's one message, once primed.
    fn forged(&self) -> Message {
        Message::new(self.value, Phase::new(self.max_phase.as_u64() + self.lead))
    }
}

impl ByzantineStrategy for PhaseForger {
    fn begin_round(&mut self, ctx: &ByzContext<'_>) {
        self.max_phase = ctx.max_phase();
        self.primed = Some(ctx.round);
    }

    fn messages_into(&mut self, ctx: &ByzContext<'_>, _dest: NodeId, out: &mut Batch) {
        if self.primed != Some(ctx.round) {
            self.begin_round(ctx);
        }
        out.push(self.forged());
    }

    fn uniform(&self, ctx: &ByzContext<'_>) -> Option<Uniform> {
        (self.primed == Some(ctx.round)).then(|| Uniform::Message(self.forged()))
    }

    fn name(&self) -> &'static str {
        "phase-forger"
    }

    fn begin_instance(&mut self, _instance: u64) {
        // The next instance's round 0 must not reuse this one's scan.
        self.primed = None;
    }
}

/// Sends nothing, ever. Equivalent to an initially-crashed node, but
/// counted against the Byzantine budget.
#[derive(Debug, Clone, Default)]
pub struct Silent;

impl ByzantineStrategy for Silent {
    fn messages_into(&mut self, _ctx: &ByzContext<'_>, _dest: NodeId, _out: &mut Batch) {}

    fn name(&self) -> &'static str {
        "silent"
    }

    fn begin_instance(&mut self, _instance: u64) {
        // Stateless across instances: never transmits, nothing to re-seed.
    }

    fn transmits(&self) -> bool {
        false
    }
}

/// Stealthy strategy: sends the median of the start-of-round value
/// snapshot with the receiver's phase — indistinguishable from an
/// honest-looking sender while still counting toward quorums. The median
/// is over every slot of the snapshot: the engine's snapshot reads ½ at
/// Byzantine slots, so with `b` Byzantine nodes it is the median of the
/// honest values and `b` halves.
///
/// Useful as a control: a correct algorithm's outputs should be unaffected
/// (mimics stay within the honest hull), so any test failure under `Mimic`
/// points at quorum accounting rather than value trimming.
#[derive(Debug, Clone, Default)]
pub struct Mimic {
    /// Reusable scratch for the median computation.
    scratch: Vec<Value>,
    /// The median of the snapshot, as of round `primed`.
    median: Value,
    primed: Option<Round>,
}

impl ByzantineStrategy for Mimic {
    fn begin_round(&mut self, ctx: &ByzContext<'_>) {
        self.scratch.clear();
        self.scratch.extend_from_slice(ctx.values);
        self.median = match self.scratch.len() {
            0 => Value::HALF,
            len => *self.scratch.select_nth_unstable(len / 2).1,
        };
        self.primed = Some(ctx.round);
    }

    fn messages_into(&mut self, ctx: &ByzContext<'_>, dest: NodeId, out: &mut Batch) {
        if self.primed != Some(ctx.round) {
            self.begin_round(ctx);
        }
        out.push(Message::new(self.median, ctx.phase_of(dest)));
    }

    fn uniform(&self, ctx: &ByzContext<'_>) -> Option<Uniform> {
        (self.primed == Some(ctx.round)).then_some(Uniform::AtReceiverPhase(self.median))
    }

    fn name(&self) -> &'static str {
        "mimic"
    }

    fn begin_instance(&mut self, _instance: u64) {
        // The next instance's round 0 must not reuse this one's median.
        self.primed = None;
    }
}

/// Alternates between the two extremes per round (flip-flopping), tagged
/// with the receiver's phase. Exercises the per-phase deduplication: a
/// single port may only contribute once per phase no matter how wildly its
/// values swing.
#[derive(Debug, Clone, Default)]
pub struct FlipFlop;

impl FlipFlop {
    /// Round `t`'s extreme: 0 on even rounds, 1 on odd ones.
    fn value(t: Round) -> Value {
        if t.as_u64().is_multiple_of(2) {
            Value::ZERO
        } else {
            Value::ONE
        }
    }
}

impl ByzantineStrategy for FlipFlop {
    fn messages_into(&mut self, ctx: &ByzContext<'_>, dest: NodeId, out: &mut Batch) {
        out.push(Message::new(FlipFlop::value(ctx.round), ctx.phase_of(dest)));
    }

    fn uniform(&self, ctx: &ByzContext<'_>) -> Option<Uniform> {
        Some(Uniform::AtReceiverPhase(FlipFlop::value(ctx.round)))
    }

    fn name(&self) -> &'static str {
        "flip-flop"
    }

    fn begin_instance(&mut self, _instance: u64) {
        // Stateless across instances: every round's output is a pure
        // function of the context, so there is nothing to re-seed.
    }
}

/// Convenience constructor used by experiment configs: builds a boxed
/// strategy from a short name.
///
/// Recognized names: `two-faced` (split at n/2), `extreme-low`,
/// `extreme-high`, `random-noise`, `phase-forger`, `silent`, `mimic`,
/// `flip-flop`.
///
/// # Panics
///
/// Panics on an unrecognized name (experiment configs are static and a typo
/// should fail loudly).
pub fn by_name(name: &str, n: usize, seed: u64) -> Box<dyn ByzantineStrategy> {
    match name {
        "two-faced" => Box::new(TwoFaced::zero_one(n / 2)),
        "extreme-low" => Box::new(Extreme { value: Value::ZERO }),
        "extreme-high" => Box::new(Extreme { value: Value::ONE }),
        "random-noise" => Box::new(RandomNoise::new(seed)),
        "phase-forger" => Box::new(PhaseForger::new(1_000, Value::ONE)),
        "silent" => Box::new(Silent),
        "mimic" => Box::new(Mimic::default()),
        "flip-flop" => Box::new(FlipFlop),
        other => panic!("unknown byzantine strategy: {other}"),
    }
}

/// The full list of strategy names accepted by [`by_name`], for test
/// matrices and CLI help.
pub const ALL_STRATEGY_NAMES: [&str; 8] = [
    "two-faced",
    "extreme-low",
    "extreme-high",
    "random-noise",
    "phase-forger",
    "silent",
    "mimic",
    "flip-flop",
];

#[cfg(test)]
mod tests {
    use super::*;
    use adn_types::{Params, Round};

    fn ctx<'a>(phases: &'a [Phase], values: &'a [Value]) -> ByzContext<'a> {
        ByzContext {
            round: Round::new(2),
            self_id: NodeId::new(0),
            params: Params::new(phases.len().max(2), 1, 0.1).unwrap(),
            phases,
            values,
        }
    }

    #[test]
    fn two_faced_splits_by_destination() {
        let phases = [Phase::ZERO; 4];
        let values = [Value::HALF; 4];
        let c = ctx(&phases, &values);
        let mut s = TwoFaced::zero_one(2);
        assert_eq!(s.messages_for(&c, NodeId::new(0))[0].value(), Value::ZERO);
        assert_eq!(s.messages_for(&c, NodeId::new(1))[0].value(), Value::ZERO);
        assert_eq!(s.messages_for(&c, NodeId::new(2))[0].value(), Value::ONE);
        assert_eq!(s.messages_for(&c, NodeId::new(3))[0].value(), Value::ONE);
    }

    #[test]
    fn two_faced_matches_receiver_phase() {
        let phases = [Phase::new(3), Phase::new(7)];
        let values = [Value::HALF; 2];
        let c = ctx(&phases, &values);
        let mut s = TwoFaced::zero_one(1);
        assert_eq!(s.messages_for(&c, NodeId::new(0))[0].phase(), Phase::new(3));
        assert_eq!(s.messages_for(&c, NodeId::new(1))[0].phase(), Phase::new(7));
    }

    #[test]
    fn extreme_is_constant() {
        let phases = [Phase::ZERO; 3];
        let values = [Value::HALF; 3];
        let c = ctx(&phases, &values);
        let mut s = Extreme { value: Value::ONE };
        for d in NodeId::all(3) {
            assert_eq!(s.messages_for(&c, d)[0].value(), Value::ONE);
        }
    }

    #[test]
    fn random_noise_is_seeded() {
        let phases = [Phase::ZERO; 2];
        let values = [Value::HALF; 2];
        let c = ctx(&phases, &values);
        let a = RandomNoise::new(5).messages_for(&c, NodeId::new(1));
        let b = RandomNoise::new(5).messages_for(&c, NodeId::new(1));
        assert_eq!(a, b);
    }

    #[test]
    fn phase_forger_leads_global_max() {
        let phases = [Phase::new(4), Phase::new(9)];
        let values = [Value::HALF; 2];
        let c = ctx(&phases, &values);
        let mut s = PhaseForger::new(100, Value::ZERO);
        assert_eq!(
            s.messages_for(&c, NodeId::new(0))[0].phase(),
            Phase::new(109)
        );
    }

    #[test]
    fn silent_sends_nothing() {
        let phases = [Phase::ZERO];
        let values = [Value::HALF];
        let c = ctx(&phases, &values);
        assert!(Silent.messages_for(&c, NodeId::new(0)).is_empty());
    }

    #[test]
    fn mimic_sends_median() {
        let phases = [Phase::ZERO; 3];
        let values = [
            Value::new(0.1).unwrap(),
            Value::new(0.9).unwrap(),
            Value::new(0.4).unwrap(),
        ];
        let c = ctx(&phases, &values);
        let got = Mimic::default().messages_for(&c, NodeId::new(0));
        assert_eq!(got[0].value().get(), 0.4);
    }

    #[test]
    fn mimic_of_an_empty_snapshot_falls_back_to_the_midpoint() {
        let mut s = Mimic::default();
        s.begin_round(&ctx(&[], &[]));
        assert_eq!(s.median, Value::HALF);
    }

    #[test]
    fn flip_flop_alternates() {
        let phases = [Phase::ZERO];
        let values = [Value::HALF];
        let even = ByzContext {
            round: Round::new(0),
            ..ctx(&phases, &values)
        };
        let odd = ByzContext {
            round: Round::new(1),
            ..ctx(&phases, &values)
        };
        let mut s = FlipFlop;
        assert_eq!(
            s.messages_for(&even, NodeId::new(0))[0].value(),
            Value::ZERO
        );
        assert_eq!(s.messages_for(&odd, NodeId::new(0))[0].value(), Value::ONE);
    }

    #[test]
    fn by_name_builds_all() {
        let phases = [Phase::ZERO; 6];
        let values = [Value::HALF; 6];
        let c = ctx(&phases, &values);
        for name in ALL_STRATEGY_NAMES {
            let mut s = by_name(name, 6, 1);
            assert!(!s.name().is_empty());
            // Every strategy must produce a well-formed (possibly empty)
            // batch for any destination.
            let batch = s.messages_for(&c, NodeId::new(3));
            assert!(batch.len() <= 1);
        }
    }

    #[test]
    #[should_panic(expected = "unknown byzantine strategy")]
    fn by_name_rejects_typos() {
        by_name("two-facedd", 6, 1);
    }
}
