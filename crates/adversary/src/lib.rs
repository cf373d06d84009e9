//! Dynamic message adversaries.
//!
//! In every round the adversary picks the set of reliable directed links
//! `E(t)` (§II-A); everything else is dropped. It is **adaptive**: it may
//! inspect all node states at the start of the round and knows the
//! algorithm. This crate provides the [`Adversary`] trait plus a gallery of
//! strategies spanning the whole spectrum the paper discusses:
//!
//! | strategy | guarantees | used for |
//! |----------|------------|----------|
//! | [`Complete`] | (1, n−1)-dynaDegree | best case, baselines |
//! | [`Rotating`] | (1, d)-dynaDegree | sufficiency experiments |
//! | [`Spread`] | exactly (T, d)-dynaDegree | tightness, round-complexity (E09) |
//! | [`Alternating`] | (period, d); bursts on 0-based rounds t ≡ period−1 (mod period), silence between | Figure 1 (E01) |
//! | [`Partition`] | (1, group−1) within groups | Theorem 9 impossibility (E04) |
//! | [`Theorem10Split`] | overlapping groups | Theorem 10 impossibility (E07) |
//! | [`RandomLinks`] | probabilistic | §VII expected-rounds (E12) |
//! | [`AdaptiveClosest`] | (1, d) but value-aware | worst-case convergence (E03) |
//! | [`Staggered`] | (groups, d) with standing phase skew | piggybacking (E13) |
//! | [`OmitOne`] | exactly (1, n−2) | Corollary 1 exact-consensus impossibility (E15) |
//! | [`Eventually`] | none before stabilization, (1, n−1) after | eventually-stable model comparison (§III) |
//! | [`Isolate`] | (1, n−1) except the victim's outage | straggler recovery, jump rule |
//!
//! **Live-sender discipline.** The guarantee-preserving strategies pick
//! links only from [`AdversaryView::deliverers`] — senders that will
//! actually transmit this round. This realizes (T, D)-dynaDegree on the
//! *delivery* graph even in the presence of crashed or silent nodes; a
//! link from a dead sender would satisfy nothing.
//!
//! **One body, two sinks.** A gallery strategy states its choice once, as
//! [`LinkChoice::fill`] over a generic [`LinkSink`]: runs
//! (`deliverers ∩ {lo..=hi} \ {v}`), runs split around one sender, and
//! exact links. A blanket impl makes every [`LinkChoice`] an
//! [`Adversary`]: [`Adversary::edges_into`] is that body on the dense
//! [`DenseLinks`] view of the engine's reused [`EdgeSet`],
//! [`Adversary::sparse_into`] the same body on its reused [`LinkPlane`]
//! — so the two fills agree because the sink operations do
//! (`adn-graph` fuzzes those), not because two bodies were kept in
//! step. Both are monomorphized, word-parallel where the shape allows
//! and allocation free in steady state (`tests/alloc_free.rs` pins the
//! count; `tests/adversary_equivalence.rs` fuzzes both against
//! per-receiver reference semantics). Implement [`Adversary`] directly
//! only for a dense-only custom adversary.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod adaptive;
mod alternating;
mod basic;
mod omit;
mod partition;
mod random;
mod rotating;
mod runs;
mod spec;
mod spread;
mod staggered;
mod transitional;

pub use adaptive::AdaptiveClosest;
pub use alternating::Alternating;
pub use basic::{Complete, Silence};
pub use omit::{OmitOne, OmitRule};
pub use partition::{Partition, Theorem10Split};
pub use random::RandomLinks;
pub use rotating::Rotating;
pub use spec::AdversarySpec;
pub use spread::Spread;
pub use staggered::Staggered;
pub use transitional::{Eventually, Isolate};

use std::fmt;

use adn_graph::{DenseLinks, EdgeSet, LinkPlane, LinkSink, NodeSet};
use adn_types::{Params, Phase, Round, Value};

/// Mixes a strategy tag and its constructor parameters into an
/// [`Adversary::lane_key`] fingerprint. Tags are unique per gallery
/// strategy, so two adversaries of different types (or same type,
/// different parameters) never collide in practice.
pub(crate) fn mix_lane_key(tag: u64, fields: &[u64]) -> u64 {
    let mut key = tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1EA5_EAB1_E0DD_5EED;
    for &x in fields {
        key = (key ^ x)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(31);
    }
    key
}

/// Snapshot of the system the adversary may inspect before choosing `E(t)`.
#[derive(Debug)]
pub struct AdversaryView<'a> {
    /// The round whose links are being chosen.
    pub round: Round,
    /// System parameters.
    pub params: Params,
    /// Phase of every node at the start of the round.
    pub phases: &'a [Phase],
    /// State value of every node at the start of the round.
    pub values: &'a [Value],
    /// Nodes that will actually transmit this round if given a link:
    /// fault-free nodes that have not crashed, plus non-silent Byzantine
    /// nodes. Links from other senders deliver nothing.
    pub deliverers: &'a NodeSet,
    /// Fault-free receivers — the nodes whose dynaDegree matters.
    pub honest: &'a NodeSet,
}

impl AdversaryView<'_> {
    /// Writes the delivering senders available to `receiver` (deliverers
    /// minus the receiver itself, ascending) into a caller-owned scratch
    /// vector — a convenience for custom adversaries; the gallery works
    /// on [`AdversaryView::deliverers`] word-parallel wherever it can.
    pub fn senders_for_into(&self, receiver: adn_types::NodeId, out: &mut Vec<adn_types::NodeId>) {
        out.clear();
        out.extend(self.deliverers.iter().filter(|&u| u != receiver));
    }
}

/// A dynamic message adversary: one link-set choice per round.
pub trait Adversary: fmt::Debug {
    /// Chooses the reliable links `E(t)` for the round described by
    /// `view`, writing them into a caller-owned edge set that the round
    /// engine reuses across rounds (passed cleared) — in place and
    /// without allocating, so `Simulation::step` stays allocation free
    /// (`tests/alloc_free.rs` pins the whole gallery).
    fn edges_into(&mut self, view: &AdversaryView<'_>, out: &mut EdgeSet);

    /// Whether [`Adversary::sparse_into`] works. `true` for every
    /// [`LinkChoice`] — writing through a [`LinkSink`] *is* being
    /// sparse-capable — and `false` by default for a hand-written
    /// dense-only `impl Adversary`. On `false` the engine holds the run's
    /// links as words whatever its `LinkMode` says and fills them through
    /// [`Adversary::edges_into`]; the run executes the same either way.
    /// (It is a method rather than a consequence of the type because the
    /// frozen benchmark's wrapper adversary forwards it.)
    fn sparse_capable(&self) -> bool {
        false
    }

    /// Writes the round's links into the engine's reused sparse
    /// [`LinkPlane`] (passed freshly [`LinkPlane::begin_round`]-ed with
    /// the view's deliverer set): exactly the links
    /// [`Adversary::edges_into`] chooses. A [`LinkChoice`] gets that by
    /// construction; a direct impl that overrides this must keep it true
    /// by hand.
    ///
    /// The default panics: the engine never calls it unless
    /// [`Adversary::sparse_capable`] says so.
    #[allow(
        clippy::panic,
        reason = "a caller contract: the engine calls it only when `sparse_capable` says so"
    )]
    fn sparse_into(&mut self, view: &AdversaryView<'_>, out: &mut LinkPlane) {
        let _ = (view, out);
        panic!(
            "sparse_into called on {}, which is not sparse-capable",
            self.name()
        );
    }

    /// A fingerprint declaring this adversary **lane-shareable**: its
    /// link choice is a pure function of `(round, deliverers, params)` —
    /// no randomness, no dependence on node values or phases, no hidden
    /// cross-round state — and the key hashes every constructor
    /// parameter. When every trial of a lane batch returns the same
    /// `Some` key, the trial-lane driver realizes the links **once** per
    /// round and broadcasts them to all lanes; any `None` (the default)
    /// makes the driver realize each lane's links separately, which is
    /// always correct. [`RandomLinks`] (per-lane RNG streams), value-aware
    /// strategies ([`AdaptiveClosest`], [`OmitOne`]) and history-keeping
    /// ones ([`Spread`]) must stay `None`.
    fn lane_key(&self) -> Option<u64> {
        None
    }

    /// Resets per-instance state at the start of service instance
    /// `instance` (counting from 0; the service layer calls it for
    /// instance 0 too). Stateful adversaries ([`RandomLinks`] is the one
    /// gallery case) reseed their generators from the instance number
    /// here, so instance `k` of a service run chooses byte-identical links
    /// to a standalone run whose adversary also received
    /// `begin_instance(k)`. Stateless strategies keep the default no-op;
    /// single-instance runs never call this.
    fn begin_instance(&mut self, instance: u64) {
        let _ = instance;
    }

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// One round's link choice, stated once against a generic [`LinkSink`] —
/// how every gallery strategy is written. The blanket impl below turns it
/// into an [`Adversary`] whose dense and sparse fills are this one body.
pub trait LinkChoice: fmt::Debug {
    /// Emits the round's links `E(t)` into `out`, in place and without
    /// allocating in steady state; receiver-major, under the row
    /// discipline [`LinkSink`] documents.
    fn fill<S: LinkSink>(&mut self, view: &AdversaryView<'_>, out: &mut S);

    /// See [`Adversary::lane_key`].
    fn lane_key(&self) -> Option<u64> {
        None
    }

    /// See [`Adversary::begin_instance`].
    fn begin_instance(&mut self, instance: u64) {
        let _ = instance;
    }

    /// See [`Adversary::name`].
    fn name(&self) -> &'static str;
}

impl<C: LinkChoice> Adversary for C {
    fn edges_into(&mut self, view: &AdversaryView<'_>, out: &mut EdgeSet) {
        self.fill(view, &mut DenseLinks::new(out, view.deliverers));
    }

    fn sparse_capable(&self) -> bool {
        true
    }

    fn sparse_into(&mut self, view: &AdversaryView<'_>, out: &mut LinkPlane) {
        self.fill(view, out);
    }

    fn lane_key(&self) -> Option<u64> {
        LinkChoice::lane_key(self)
    }

    fn begin_instance(&mut self, instance: u64) {
        LinkChoice::begin_instance(self, instance);
    }

    fn name(&self) -> &'static str {
        LinkChoice::name(self)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use adn_graph::Schedule;
    use adn_types::NodeId;

    /// Drives an adversary for `rounds` rounds with all nodes honest and
    /// delivering, recording the schedule for the checker.
    pub fn record(adv: &mut dyn Adversary, n: usize, rounds: usize) -> Schedule {
        record_with_deliverers(adv, n, rounds, &NodeSet::full(n))
    }

    /// Same as [`record`] but with an explicit deliverer set.
    pub fn record_with_deliverers(
        adv: &mut dyn Adversary,
        n: usize,
        rounds: usize,
        deliverers: &NodeSet,
    ) -> Schedule {
        let params = Params::new(n, 0, 0.1).unwrap();
        let phases = vec![Phase::ZERO; n];
        let values: Vec<Value> = (0..n)
            .map(|i| Value::saturating(i as f64 / n as f64))
            .collect();
        let honest = NodeSet::full(n);
        let mut schedule = Schedule::new(n);
        for t in 0..rounds {
            let view = AdversaryView {
                round: Round::new(t as u64),
                params,
                phases: &phases,
                values: &values,
                deliverers,
                honest: &honest,
            };
            let mut e = EdgeSet::empty(n);
            adv.edges_into(&view, &mut e);
            // Mirror the simulator: links from non-deliverers realize
            // nothing, so the recorded delivery graph prunes them.
            let mut dead = NodeSet::full(n);
            dead.difference_with(deliverers);
            e.remove_senders(&dead);
            schedule.push(e);
        }
        schedule
    }

    /// Convenience: ids 0..k as a vec.
    pub fn ids(k: usize) -> Vec<NodeId> {
        NodeId::all(k).collect()
    }
}
