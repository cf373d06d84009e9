//! The round engine's reusable memory arena.
//!
//! A synchronous round touches `O(n²)` messages; doing that with per-round
//! allocations (one `Vec<Message>` per broadcaster, fresh snapshot arrays,
//! a fresh realized edge set, per-receiver in-neighbor lists, and a clone
//! of every delivered batch) dominates the simulator's runtime long before
//! the algorithms do. [`RoundBuffers`] owns every per-round buffer once,
//! for the lifetime of a simulation; each round begins with
//! [`RoundBuffers::begin_round`], which *clears* (capacity-preserving)
//! instead of reallocating. Combined with `Algorithm::broadcast_into`,
//! `ByzantineStrategy::messages_into`, and `Adversary::edges_into`, the
//! steady-state message plane performs no heap allocation at all.
//!
//! Fields are public by design: the engine needs simultaneous disjoint
//! borrows (e.g. an algorithm writing into its batch while the snapshot
//! arrays are read), which accessor methods would forbid.

use adn_graph::{EdgeSet, NodeSet};
use adn_types::{Batch, NodeId, Phase, Value};

/// What a sender contributes to deliveries this round — computed **once**
/// per sender per round, so the delivery plane's inner (sender, receiver)
/// loop reads one byte instead of re-deriving "Byzantine? crashed?
/// staged a batch?" per link.
///
/// The classes partition the senders by delivery behavior:
///
/// * [`Silent`](SenderClass::Silent) links deliver nothing and are skipped
///   wholesale (masked out of the word walk);
/// * [`Present`](SenderClass::Present) links always deliver the sender's
///   staged batch — the fast path, no per-receiver checks at all;
/// * [`Partial`](SenderClass::Partial) senders crash *this* round with a
///   per-receiver survivor set, so each link still consults
///   `CrashSchedule::delivers`;
/// * [`Byzantine`](SenderClass::Byzantine) senders fabricate per
///   destination (possibly nothing — the strategy decides link by link).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SenderClass {
    /// Delivers nothing this round: Byzantine-free slot with no staged
    /// batch (crash-silent), the default before classification.
    #[default]
    Silent,
    /// Non-Byzantine with a staged batch that reaches every chosen
    /// receiver.
    Present,
    /// Non-Byzantine, staged a batch, but crashing this round with a
    /// partial survivor set: per-receiver delivery checks required.
    Partial,
    /// Byzantine: per-destination fabrication via
    /// `ByzantineStrategy::messages_into`.
    Byzantine,
}

/// Per-round scratch memory, persisted across rounds by the engine.
///
/// ```
/// use adn_net::RoundBuffers;
/// use adn_types::{Message, Phase, Value};
///
/// let mut buffers = RoundBuffers::new(3);
/// buffers.begin_round();
/// buffers.batches[0].push(Message::new(Value::HALF, Phase::ZERO));
/// buffers.present[0] = true;
/// let caps = buffers.batch_capacities();
/// buffers.begin_round(); // everything cleared, nothing freed
/// assert!(buffers.batches[0].is_empty());
/// assert!(!buffers.present[0]);
/// assert_eq!(buffers.batch_capacities(), caps);
/// ```
#[derive(Debug, Clone)]
pub struct RoundBuffers {
    n: usize,
    /// One broadcast batch per node, refilled each round through the
    /// state backend's staging hook (`AlgorithmPlane::stage_broadcast`:
    /// a columnar plane's one-message snapshot, or whatever a boxed
    /// node's `Algorithm::broadcast_into` writes).
    pub batches: Vec<Batch>,
    /// `present[i]` — whether node `i` staged a broadcast this round
    /// (crashed-silent and Byzantine slots stay `false`).
    pub present: Vec<bool>,
    /// Scratch batch for per-destination Byzantine fabrications
    /// (`ByzantineStrategy::messages_into`); one suffices because
    /// fabrications are consumed delivery by delivery.
    pub byz_scratch: Batch,
    /// Start-of-round phase snapshot (Byzantine slots hold the default).
    pub phases: Vec<Phase>,
    /// Start-of-round value snapshot (Byzantine slots hold the default).
    pub values: Vec<Value>,
    /// Nodes that transmit this round.
    pub deliverers: NodeSet,
    /// Non-crashed, non-Byzantine nodes this round.
    pub honest: NodeSet,
    /// **Replay-only**, like `chosen_out`: the adversary's chosen links
    /// `E(t)`, filled via `Adversary::edges_into`. The engine keeps them
    /// in its `LinkPlane`.
    pub chosen: EdgeSet,
    /// Replay-only: the realized delivery graph (chosen links whose sender
    /// actually delivered something). The engine reads realized links off
    /// its `LinkPlane` instead.
    pub realized: EdgeSet,
    /// The round's shared sender permutation for the non-ascending
    /// delivery orders: every active sender id exactly once, in the order
    /// *every* receiver processes its deliveries this round (descending
    /// ids, or the round's seeded shuffle of all `n` ids with inactive
    /// senders masked out, order-preserving). Ascending-order rounds
    /// leave it empty — they walk each receiver's chosen row directly.
    pub perm: Vec<NodeId>,
    /// Scratch for the fault-free value trace.
    pub ff_values: Vec<Value>,
    /// Per-sender delivery class, computed once per round after broadcast
    /// staging (see [`SenderClass`]).
    pub classes: Vec<SenderClass>,
    /// Senders whose links can deliver anything this round (every class
    /// but [`SenderClass::Silent`]) — the word-level mask the delivery
    /// walk intersects with each receiver's chosen in-neighbors.
    pub active: NodeSet,
    /// The [`SenderClass::Present`] subset of `active`: senders whose
    /// chosen links *all* deliver, so their realized links are read a word
    /// at a time instead of link by link.
    pub unconditional: NodeSet,
    /// Sender-major transpose of `chosen` (row `u` = out-neighbors of
    /// `u`), rebuilt by [`RoundBuffers::transpose_chosen`]. **Replay-only**:
    /// the engine delivers receiver-major and never transposes; the
    /// benchmark's frozen sender-major stage replay still does, and this
    /// field, [`RoundBuffers::plane_receivers`] and `transpose_chosen` go
    /// when it is ported. Every word is overwritten by the transpose, so
    /// `begin_round` does not clear it.
    pub chosen_out: EdgeSet,
    /// Replay-only, like `chosen_out`: the `chosen ∩ honest` out-neighbors
    /// of the sender a sender-major walk is delivering.
    pub plane_receivers: NodeSet,
}

impl RoundBuffers {
    /// Allocates the arena for a system of `n` nodes, its dense edge
    /// structures included: what the benchmark's frozen stage replay
    /// builds for a run on words. The engine never reads them and builds
    /// [`RoundBuffers::sparse`].
    pub fn new(n: usize) -> Self {
        RoundBuffers::sized(n, n, n)
    }

    /// The arena for `n` nodes with the dense edge structures built for
    /// `dense_n` nodes and `realized` for `realized_n`.
    fn sized(n: usize, dense_n: usize, realized_n: usize) -> Self {
        RoundBuffers {
            n,
            batches: (0..n).map(|_| Batch::with_capacity(1)).collect(),
            present: vec![false; n],
            byz_scratch: Batch::with_capacity(1),
            phases: vec![Phase::ZERO; n],
            values: vec![Value::HALF; n],
            deliverers: NodeSet::new(n),
            honest: NodeSet::new(n),
            chosen: EdgeSet::empty(dense_n),
            realized: EdgeSet::empty(realized_n),
            perm: Vec::with_capacity(n),
            ff_values: Vec::with_capacity(n),
            classes: vec![SenderClass::Silent; n],
            active: NodeSet::new(n),
            unconditional: NodeSet::new(n),
            chosen_out: EdgeSet::empty(dense_n),
            plane_receivers: NodeSet::new(dense_n),
        }
    }

    /// Allocates the `O(n)` arena for `n` nodes: every dense `O(n²)` edge
    /// structure (`chosen`, `chosen_out`, `plane_receivers`, and — unless
    /// `record_schedule` — `realized`) is built at size zero, never at
    /// size `n` first, so a 100 000-node run does not pay 1.25 GB bitmaps
    /// it never reads. `begin_round` still clears them, which is a no-op.
    ///
    /// The engine builds every run's arena as `sparse(n, false)`: it keeps
    /// the round's links in its one `LinkPlane` and reads realized links
    /// off it. The benchmark's frozen stage replay builds it for a run on
    /// run/CSR rows, the same way.
    pub fn sparse(n: usize, record_schedule: bool) -> Self {
        RoundBuffers::sized(n, 0, if record_schedule { n } else { 0 })
    }

    /// Replay-only (see [`RoundBuffers::chosen_out`]). Rebuilds the
    /// sender-major view of this round's chosen links: `chosen_out`
    /// becomes the transpose of `chosen` (one blocked bit-matrix
    /// transpose, no allocation).
    pub fn transpose_chosen(&mut self) {
        self.chosen.transpose_into(&mut self.chosen_out);
    }

    /// The system size this arena serves.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Resets every buffer for the next round, preserving capacity.
    ///
    /// Snapshot arrays are reset to their defaults (`Phase::ZERO`,
    /// `Value::HALF`) so slots without a state machine — Byzantine nodes —
    /// read the same values every round rather than stale data.
    pub fn begin_round(&mut self) {
        for b in &mut self.batches {
            b.clear();
        }
        self.present.fill(false);
        self.byz_scratch.clear();
        self.phases.fill(Phase::ZERO);
        self.values.fill(Value::HALF);
        self.deliverers.clear();
        self.honest.clear();
        self.chosen.clear();
        self.realized.clear();
        self.perm.clear();
        self.ff_values.clear();
        self.classes.fill(SenderClass::Silent);
        self.active.clear();
        self.unconditional.clear();
    }

    /// Current capacity of every per-node batch, for reuse assertions in
    /// tests: once warmed up, steady-state rounds must not change these.
    pub fn batch_capacities(&self) -> Vec<usize> {
        self.batches.iter().map(Batch::capacity).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_types::Message;

    #[test]
    fn begin_round_clears_everything_and_keeps_capacity() {
        let mut b = RoundBuffers::new(4);
        b.begin_round();
        b.batches[2].push(Message::new(Value::ONE, Phase::new(3)));
        b.present[2] = true;
        b.phases[2] = Phase::new(3);
        b.values[2] = Value::ONE;
        b.deliverers.insert(NodeId::new(2));
        b.honest.insert(NodeId::new(1));
        b.chosen.insert(NodeId::new(0), NodeId::new(1));
        b.realized.insert(NodeId::new(0), NodeId::new(1));
        b.perm.push(NodeId::new(0));
        b.ff_values.push(Value::ONE);
        b.classes[1] = SenderClass::Byzantine;
        b.active.insert(NodeId::new(1));

        let caps = b.batch_capacities();
        b.begin_round();

        assert!(b.batches[2].is_empty());
        assert!(!b.present[2]);
        assert_eq!(b.phases[2], Phase::ZERO);
        assert_eq!(b.values[2], Value::HALF);
        assert!(b.deliverers.is_empty());
        assert!(b.honest.is_empty());
        assert_eq!(b.chosen.edge_count(), 0);
        assert_eq!(b.realized.edge_count(), 0);
        assert!(b.perm.is_empty());
        assert!(b.ff_values.is_empty());
        assert_eq!(b.classes[1], SenderClass::Silent);
        assert!(b.active.is_empty());
        assert_eq!(b.batch_capacities(), caps, "clear must not free");
    }

    #[test]
    fn sparse_arena_skips_dense_edge_structures() {
        let mut b = RoundBuffers::sparse(100, false);
        assert_eq!(b.n(), 100);
        assert_eq!(b.batches.len(), 100);
        assert_eq!(b.chosen.n(), 0);
        assert_eq!(b.chosen_out.n(), 0);
        assert_eq!(b.realized.n(), 0);
        b.begin_round(); // clearing the zero-sized structures is a no-op
        let with_schedule = RoundBuffers::sparse(100, true);
        assert_eq!(with_schedule.realized.n(), 100, "recording needs realized");
        assert_eq!(with_schedule.chosen.n(), 0);
    }

    #[test]
    fn arena_dimensions_match_n() {
        let b = RoundBuffers::new(7);
        assert_eq!(b.n(), 7);
        assert_eq!(b.batches.len(), 7);
        assert_eq!(b.phases.len(), 7);
        assert_eq!(b.chosen.n(), 7);
    }
}
