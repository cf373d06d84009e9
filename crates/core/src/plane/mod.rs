//! The algorithm planes: every node slot's state behind one interface,
//! driven receiver-major through a per-receiver kernel.
//!
//! [`AlgorithmPlane`] is the engine's one state backend. Three planes
//! implement it:
//!
//! * [`BoxedPlane`] — one boxed [`Algorithm`] state
//!   machine per slot. The semantic reference, and the backend of every
//!   algorithm that only implements the trait (piggybacking, baselines,
//!   strawmen): any batch length, one virtual `receive` per link.
//! * [`DacPlane`], [`DbacPlane`] — the **columnar** planes: all slots'
//!   state in struct-of-arrays layout, no virtual call per link. They are
//!   one type, [`Columnar<R>`], under two [`Rule`]s: §V states Alg. 2 as
//!   three edits to Alg. 1 — accept a later phase instead of jumping to
//!   it, keep the `f + 1` lowest/highest values instead of `(min, max)`,
//!   a larger quorum — and `(min, max)` *is* `(R_low, R_high)` at list
//!   length 1, so a rule carries those edits (plus the batch order and
//!   which word step it takes) and everything else is written once.
//!
//! The columnar planes exist because the boxed one costs a dynamic
//! dispatch *per delivered message* — at `n = 1024` that is ~1M per round
//! — and DAC and DBAC don't need that generality:
//!
//! * their broadcast is always exactly one `(value, phase)` message — a
//!   snapshot of two state columns, identical at every receiver
//!   (anonymity), so it is staged once per sender per round;
//! * each receiver splits into exactly three cases per message — **jump**
//!   (Alg. 1, sender ahead: adopt wholesale), **accept** (one port bit +
//!   a store into the lists), **stale** (skip);
//! * a receiver's whole round touches only *its own* slot of every
//!   column.
//!
//! **One round, whatever the plane.** The engine stages each transmitting
//! sender's broadcast through [`AlgorithmPlane::stage_broadcast`], splits
//! the plane into [`PlaneShard`]s (one shard is the whole plane), and for
//! each receiver runs that receiver's senders, in the round's order,
//! through a [`RowKernel`] ([`PlaneShard::deliver_row`]). A columnar kernel
//! loads the receiver's phase, value, contribution count and seen row —
//! and its lists, when they are one value long — into locals once, applies
//! every link to the locals, and stores everything back once; the boxed
//! kernel forwards each link's
//! staged batch to `Algorithm::receive`. The kernel type is chosen by one
//! `match` per receiver and the engine's walk ([`RowWalk`]) is
//! monomorphized over it, so a columnar link pays no virtual call.
//!
//! One concern per file, each with its own design notes: `rule.rs` (what
//! §V changes), `columnar.rs` (the struct of columns and its column
//! views), `seen.rs` (`R_i` as bit rows keyed by sender id, and their
//! layout), `row.rs` (the row kernel, its word steps, "count now, store
//! later" and the stale-link stop), `per_link.rs` (the per-link step) and
//! `boxed.rs` (the oracle plane).
//!
//! The boxed plane is the behavioral oracle: the columnar planes must be
//! observationally **identical** to it under the same delivery order —
//! `tests/reference_round.rs` holds both to a naive round executor across
//! adversaries, crash/Byzantine mixes, orders and link forms.

mod boxed;
mod columnar;
mod per_link;
mod row;
mod rule;
mod seen;

pub use boxed::BoxedPlane;
pub use columnar::{Columnar, DacPlane, DbacPlane};
pub use rule::{DacRule, DbacRule, Rule};

use std::fmt;

use adn_graph::NodeSet;
use adn_types::{Batch, Message, Phase, Port, Value};

use crate::{Algorithm, WireIndex};
use boxed::BoxedRow;
use columnar::Cols;
use row::Ranked;

/// The state of one algorithm across **all** `n` node slots — the
/// engine's state backend (see [the module docs](self) for the three
/// implementations). Slots of Byzantine nodes exist but are never driven
/// (never staged, never delivered to, never advanced) — the engine masks
/// them out.
///
/// # Contract
///
/// Every plane must be observationally identical to running one boxed
/// state machine per slot with deliveries applied in the same order —
/// which [`BoxedPlane`] does literally. In particular:
///
/// * the engine stages a slot's broadcast through
///   [`stage_broadcast`](AlgorithmPlane::stage_broadcast), once per
///   transmitting sender per round, and delivers through
///   [`AlgorithmPlane::fill_shards`] and [`PlaneShard::deliver_row`], whose
///   kernels mirror `Algorithm::receive` message for message;
/// * a **columnar** plane's broadcast is always exactly the slot's
///   `(value, phase)` pair and mutates nothing — columnar planes are only
///   for such algorithms — so what it stages is the engine's own
///   start-of-round snapshot of the [`phases`](AlgorithmPlane::phases) /
///   [`values`](AlgorithmPlane::values) columns, which stays correct while
///   the live plane mutates as the round delivers;
/// * a plane tells a receiver's links apart by the `port` each arrives
///   under and asks of it only that distinct senders bring distinct ones
///   (see [`RowKernel`]). A seen row is consistent under **one** such
///   labelling: whoever drives a plane instance picks one and uses it on
///   every path into that instance. The engine keys its columnar planes by
///   sender id (kernels only); the callers of
///   [`AlgorithmPlane::receive`] — the trial lanes, the benchmark's stage
///   replay — key their own instances by real ports;
/// * [`AlgorithmPlane::receive`] is the per-link step, which the
///   trial-lane adaptor ([`Lanes`](crate::Lanes)) runs on every lane.
///   [`AlgorithmPlane::receive_many`] and
///   [`AlgorithmPlane::deliver_from_sender`] are provided on top of it —
///   one receiver's batch, or one sender's fan-out, one `receive` per
///   link — and no plane overrides them. They are **replay-only**: no
///   engine path calls them, and they stay only until the benchmark's
///   stage replay is ported to the shard kernels.
pub trait AlgorithmPlane: fmt::Debug {
    /// Number of node slots (the system size `n`).
    fn n(&self) -> usize;

    /// Per-slot phase column (Byzantine slots hold their initial state).
    fn phases(&self) -> &[Phase];

    /// Per-slot current-value column.
    fn values(&self) -> &[Value];

    /// Per-slot decided-output column (`None` until the slot's
    /// termination rule fires).
    fn outputs(&self) -> &[Option<Value>];

    /// Maps one outgoing honest broadcast to what actually crosses the
    /// wire. The identity by default; wire-format adaptors (the quantized
    /// plane in `adn-sim`) override it to snap the value to their codec
    /// grid. Applied **once per transmitting non-Byzantine sender per
    /// round** — anonymity means every receiver sees the same encoded
    /// message, so per-link encoding would be redundant work — and never
    /// to Byzantine fabrications (a strategy's batch already is the wire
    /// content; on the boxed plane fabrications bypass the `Quantized`
    /// broadcast wrapper too).
    fn encode_wire(&self, msg: Message) -> Message {
        msg
    }

    /// Stages slot `sender`'s broadcast of this round into `out` — the
    /// sender's persistent batch in the engine's round arena, passed
    /// empty. `snapshot` is the slot's start-of-round `(value, phase)`.
    /// Called once per transmitting non-Byzantine sender per round, before
    /// any delivery.
    ///
    /// The default is the columnar planes' whole broadcast: exactly the
    /// snapshot, through [`AlgorithmPlane::encode_wire`]. [`BoxedPlane`]
    /// asks the slot's state machine instead, which may stage any number
    /// of messages, including none.
    fn stage_broadcast(&mut self, sender: usize, snapshot: Message, out: &mut Batch) {
        let _ = sender;
        out.push(self.encode_wire(snapshot));
    }

    /// Replay-only (see the trait docs). Delivers one sender's staged
    /// broadcast `msg` (already passed through
    /// [`AlgorithmPlane::encode_wire`]) to every receiver in `receivers`,
    /// in ascending receiver order, one [`AlgorithmPlane::receive`] per
    /// link. `ports[v]` is the local port receiver `v` hears this sender
    /// on (the sender's transposed port column). The sender itself is
    /// never in `receivers` (self-delivery is internal to every
    /// algorithm).
    fn deliver_from_sender(&mut self, msg: Message, receivers: &NodeSet, ports: &[Port]) {
        receivers.for_each(|v| self.receive(v.index(), ports[v.index()], &[msg]));
    }

    /// Delivers an arbitrary batch to one receiver, mirroring
    /// `Algorithm::receive` exactly: the per-link step, which the shard
    /// kernels are fuzzed against and the trial lanes run as it is.
    fn receive(&mut self, receiver: usize, port: Port, batch: &[Message]);

    /// Replay-only (see the trait docs). Delivers one round's worth of
    /// single-message links to one receiver, in slice order (each entry
    /// is one sender's broadcast on the port the receiver hears it on):
    /// one [`AlgorithmPlane::receive`] per entry.
    fn receive_many(&mut self, receiver: usize, batch: &[(Port, Message)]) {
        for &(port, msg) in batch {
            self.receive(receiver, port, std::slice::from_ref(&msg));
        }
    }

    /// Splits the plane into per-receiver-range [`PlaneShard`]s — the
    /// engine's one way to deliver: shard `i` owns receivers
    /// `bounds[i]..bounds[i + 1]` and only ever mutates their columns, so
    /// the shards can be driven from different threads; a single shard is
    /// the whole plane. Wire-format adaptors forward this to their inner
    /// plane (they have no receive side: the engine applies
    /// [`AlgorithmPlane::encode_wire`] when it stages a sender's
    /// broadcast, before any shard sees it).
    ///
    /// `bounds` is ascending with `bounds[0] == 0`, ends at
    /// [`AlgorithmPlane::n`], and has one more entry than `out`.
    fn fill_shards<'a>(&'a mut self, bounds: &[usize], out: &mut [Option<PlaneShard<'a>>]);

    /// End-of-round hook for every slot in `executing`, ascending —
    /// mirrors `Algorithm::end_round`.
    fn end_round(&mut self, executing: &NodeSet);

    /// Resets every slot to its initial state against a fresh input
    /// vector, in place, as if the plane were freshly constructed — the
    /// service layer's allocation-free instance turnover. Returns `false`
    /// when in-place resets are unsupported, making the service layer
    /// refuse rather than silently rebuild. Required, so that a plane
    /// cannot forget it ([`BoxedPlane`] asks each slot's
    /// `Algorithm::reset_instance`); wire-format adaptors forward it to
    /// their inner plane (resetting state does not touch the wire
    /// encoding).
    ///
    /// # Panics
    ///
    /// Implementations panic if `inputs.len() != self.n()`.
    fn reset_instance(&mut self, inputs: &[Value]) -> bool;

    /// Short algorithm name for reports (matches the trait
    /// implementation's `name`).
    fn name(&self) -> &'static str;
}

/// Upper bound on delivery shards a plane can be split into
/// ([`AlgorithmPlane::fill_shards`]); the engine sizes its fixed shard
/// scratch against it.
pub const MAX_PLANE_SHARDS: usize = 8;

/// What the round's transmitting non-Byzantine senders staged, by sender
/// id: every batch as [`AlgorithmPlane::stage_broadcast`] filled it, and
/// the head of each batch again as two flat columns — all a
/// single-message kernel ever reads.
#[derive(Debug, Clone, Copy)]
pub struct StagedWire<'a> {
    /// Phase of each sender's first staged message.
    pub phase: &'a [Phase],
    /// Value of each sender's first staged message.
    pub value: &'a [Value],
    /// Each sender's whole staged batch.
    pub batches: &'a [Batch],
}

/// One receiver's delivery state for the length of its row — what
/// [`PlaneShard::deliver_row`] hands the engine's [`RowWalk`]. The
/// columnar kernels hold the receiver's columns in locals, apply every
/// link of the round to them, and store them back when the walk returns;
/// the boxed kernel is the receiver's state machine itself.
///
/// # The key
///
/// A kernel tells a receiver's links apart by the `key` each arrives
/// with, and needs of it only what Alg. 1/2 need of a port: distinct
/// senders have distinct keys at one receiver, for the whole execution.
/// §II-A's port numbering is such a labelling — a static per-receiver
/// bijection — and so is the sender id itself; `R_i` only ever tests its
/// members for distinctness, so which of the two a seen row is kept under
/// cannot be observed. The engine keys the columnar kernels **by sender
/// id** (no port lookup, and a row's links line up with its seen row bit
/// for bit, which is what [`RowKernel::word`] runs on) and the boxed
/// kernel by the receiver's real ports. One plane instance, one key: every
/// path into a kernel of the same plane must use the same labelling.
pub trait RowKernel {
    /// Whether the kernel takes its receiver's honest links 64 senders at
    /// a time ([`RowKernel::word`]) — and so which key the engine feeds
    /// it: such a kernel is keyed by sender id (bit `b` of word `w` is
    /// sender `w * 64 + b`), any other by the receiver's real ports.
    const WORDS: bool = false;

    /// Whether an **honest** link of this round can still change this
    /// receiver: it has not decided and its phase has not passed the
    /// round's maximum wire phase. Once `false` it stays `false` for the
    /// round (phases only grow), and skipping [`RowKernel::staged`] for
    /// honest links is unobservable. Fabricated links must still be fed.
    /// The boxed kernel never reports `false`.
    fn live(&self) -> bool;

    /// One single-message link: `(phase, value)` arriving under `key`.
    /// Exact for any message, whatever [`RowKernel::live`] says.
    fn link(&mut self, key: Port, phase: Phase, value: Value);

    /// An honest link: `sender`'s staged broadcast arriving under `key`.
    /// The default is the single-message kernels': the two wire columns,
    /// one message.
    #[inline(always)]
    fn staged(&mut self, key: Port, sender: usize, wire: &StagedWire<'_>) {
        self.link(key, wire.phase[sender], wire.value[sender]);
    }

    /// An arbitrary (fabricated) batch arriving under `key`, resolved as
    /// `Algorithm::receive` resolves it. May reorder `batch`.
    #[inline(always)]
    fn batch(&mut self, key: Port, batch: &mut [Message]) {
        for m in batch.iter() {
            self.link(key, m.phase(), m.value());
        }
    }

    /// Up to 64 honest links at once: the senders `w * 64 + b` for every
    /// set bit `b` of `bits`, all of them in `index`, in ascending order —
    /// observably the same as [`RowKernel::staged`] under key `w * 64 + b`
    /// for each in turn. Only called on kernels that declare
    /// [`RowKernel::WORDS`]; the default is that per-link loop.
    #[inline]
    fn word(&mut self, w: usize, bits: u64, wire: &StagedWire<'_>, index: &WireIndex) {
        let _ = index;
        word_per_link(self, w, bits, wire);
    }
}

/// The honest links of senders `w * 64 + b`, for every set bit `b` of
/// `bits` in ascending order, one [`RowKernel::staged`] each.
#[inline]
fn word_per_link<K: RowKernel + ?Sized>(
    kernel: &mut K,
    w: usize,
    mut bits: u64,
    wire: &StagedWire<'_>,
) {
    while bits != 0 {
        let u = w * 64 + bits.trailing_zeros() as usize;
        bits &= bits - 1;
        kernel.staged(Port::new(u), u, wire);
    }
}

/// One receiver's walk over its senders, generic over the kernel it
/// feeds — a closure `for<K: RowKernel> FnOnce(&mut K)`, spelled as a
/// trait because closures cannot be generic.
pub trait RowWalk {
    /// Feeds the receiver's links of this round to `kernel`, in arrival
    /// order.
    fn walk<K: RowKernel>(self, kernel: &mut K);
}

/// `pend ∧ (max_wire_phase + 1)`: the phase from which a receiver is no
/// longer [`RowKernel::live`].
#[inline]
fn live_below(pend: u64, max_wire_phase: Phase) -> u64 {
    pend.min(max_wire_phase.as_u64().saturating_add(1))
}

/// One receiver-range slice of a plane
/// (see [`AlgorithmPlane::fill_shards`]): exclusive `&mut` views of the
/// columns (or boxed nodes) of receivers `base..base + len`, safe to drive
/// from its own thread while sibling shards run on theirs.
pub struct PlaneShard<'a> {
    base: usize,
    repr: ShardRepr<'a>,
}

enum ShardRepr<'a> {
    Dac(Cols<'a, DacRule>),
    Dbac(Cols<'a, DbacRule>),
    Boxed(&'a mut [Box<dyn Algorithm>]),
}

impl<'a> PlaneShard<'a> {
    /// First receiver this shard owns.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Whether this shard's kernels take honest links a word at a time
    /// ([`RowKernel::WORDS`]) — whether a wire index is worth building
    /// for the round.
    pub fn takes_words(&self) -> bool {
        matches!(self.repr, ShardRepr::Dac(_) | ShardRepr::Dbac(_))
    }

    /// Whether this shard's word step settles by rank
    /// ([`Rule::DEFERS_STORES`]) — whether the wire index is worth building
    /// [`WireIndex::ranked`].
    pub fn ranks_words(&self) -> bool {
        matches!(self.repr, ShardRepr::Dbac(_))
    }

    /// Hands the shard the round's wire values and the index built over
    /// them: what a word step that defers its stores counts by and settles
    /// against, resolved once per shard per round instead of once per
    /// receiver — and the one source of both for its rows, whatever index
    /// their walk passes to [`RowKernel::word`]. A shard of such kernels
    /// that was handed none, or one not built [`WireIndex::ranked`], defers
    /// nothing: its words are taken link by link.
    pub fn index_round(&mut self, value: &'a [Value], index: &'a WireIndex) {
        if let (ShardRepr::Dbac(cols), Some(ranks)) = (&mut self.repr, index.ranks()) {
            cols.ranked = Some(Ranked {
                value,
                index,
                ranks,
            });
        }
    }

    /// Runs `walk` over the kernel of `receiver` (a **global** slot index
    /// inside this shard's range): the engine's delivery entry point.
    /// `max_wire_phase` is the highest phase any honest link of this
    /// round carries — what [`RowKernel::live`] is judged against.
    #[inline]
    pub fn deliver_row(&mut self, receiver: usize, max_wire_phase: Phase, walk: impl RowWalk) {
        let v = receiver - self.base;
        match &mut self.repr {
            ShardRepr::Dac(cols) => cols.deliver_row(v, max_wire_phase, walk),
            ShardRepr::Dbac(cols) => cols.deliver_row(v, max_wire_phase, walk),
            ShardRepr::Boxed(nodes) => walk.walk(&mut BoxedRow(&mut *nodes[v])),
        }
    }
}

impl fmt::Debug for PlaneShard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.repr {
            ShardRepr::Dac(_) => "dac",
            ShardRepr::Dbac(_) => "dbac",
            ShardRepr::Boxed(_) => "boxed",
        };
        write!(f, "PlaneShard({kind}, base {})", self.base)
    }
}

/// Carves the first `at` elements off `*s` (for per-shard column
/// splitting — each call hands the caller an exclusive prefix and leaves
/// the tail for the remaining shards).
fn take_split<'a, T>(s: &mut &'a mut [T], at: usize) -> &'a mut [T] {
    let (head, rest) = std::mem::take(s).split_at_mut(at);
    *s = rest;
    head
}

/// Checks the [`AlgorithmPlane::fill_shards`] `bounds` contract against a
/// plane of `n` slots.
fn assert_shard_bounds(n: usize, bounds: &[usize], shards: usize) {
    assert_eq!(bounds.len(), shards + 1, "one bound per shard edge");
    assert_eq!(bounds[0], 0, "first shard starts at slot 0");
    assert_eq!(bounds[shards], n, "last shard ends at n");
    assert!(
        bounds.windows(2).all(|w| w[0] <= w[1]),
        "bounds must ascend"
    );
}

#[cfg(test)]
mod tests {
    use super::row::{below, through};
    use super::*;
    use crate::wire::GATHER;
    use crate::{probe, Algorithm, Dac, Dbac};
    use adn_types::rng::SplitMix64;
    use adn_types::{NodeId, Params};

    fn val(v: f64) -> Value {
        Value::new(v).unwrap()
    }

    fn msg(v: f64, p: u64) -> Message {
        Message::new(val(v), Phase::new(p))
    }

    /// Drives slot 0 of rule `R`'s plane and the standalone state machine
    /// `node` through the same delivery script — one batch per entry — and
    /// asserts identical observable state after each.
    fn assert_lockstep<R: Rule>(
        params: Params,
        pend: u64,
        input: f64,
        mut node: impl Algorithm,
        script: &[(usize, &[Message])],
    ) {
        let mut inputs = vec![Value::HALF; params.n()];
        inputs[0] = val(input);
        let mut plane = Columnar::<R>::with_pend(params, &inputs, pend);
        assert_eq!(plane.name(), node.name());
        for &(port, batch) in script {
            plane.receive(0, Port::new(port), batch);
            node.receive(Port::new(port), batch);
            let what = format!("after {batch:?} on port {port}");
            assert_eq!(plane.phases()[0], node.phase(), "phase {what}");
            assert_eq!(plane.values()[0], node.current_value(), "value {what}");
            assert_eq!(plane.outputs()[0], node.output(), "output {what}");
        }
    }

    fn assert_dac_lockstep(params: Params, pend: u64, input: f64, script: &[(usize, &[Message])]) {
        let node = Dac::with_pend(params, val(input), pend);
        assert_lockstep::<DacRule>(params, pend, input, node, script);
    }

    fn assert_dbac_lockstep(params: Params, pend: u64, input: f64, script: &[(usize, &[Message])]) {
        let node = Dbac::with_pend(params, val(input), pend);
        assert_lockstep::<DbacRule>(params, pend, input, node, script);
    }

    #[test]
    fn dac_plane_mirrors_dac_on_quorum_script() {
        let params = Params::new(5, 1, 0.25).unwrap();
        assert_dac_lockstep(
            params,
            2,
            0.0,
            &[
                (1, &[msg(1.0, 0)]),
                (2, &[msg(0.5, 0)]), // quorum: advance with midpoint
                (1, &[msg(0.2, 1)]),
                (3, &[msg(0.8, 1)]), // advance again -> pend -> output
                (2, &[msg(0.1, 5)]), // decided: frozen
            ],
        );
    }

    #[test]
    fn dac_plane_same_round_jump_then_same_phase() {
        // The sender-major walk may jump a receiver mid-round and then
        // feed it same-phase values from *later* senders of the same
        // round: the jump must reset the port row so those count anew.
        let params = Params::new(5, 1, 0.25).unwrap();
        assert_dac_lockstep(
            params,
            4,
            0.0,
            &[
                (1, &[msg(0.9, 0)]), // same-phase contribution, port 1
                (2, &[msg(0.7, 2)]), // jump to phase 2 (resets port row)
                (1, &[msg(0.3, 2)]), // port 1 contributes AGAIN post-jump
                (3, &[msg(0.5, 2)]), // completes the phase-2 quorum
                (4, &[msg(0.4, 2)]), // stale (receiver is at phase 3 now)
            ],
        );
        // And the concrete post-state: quorum of {0.7 (own), 0.3, 0.5}
        // -> midpoint(0.3, 0.7) = 0.5 at phase 3.
        let inputs = [val(0.0), Value::HALF, Value::HALF, Value::HALF, Value::HALF];
        let mut plane = DacPlane::with_pend(params, &inputs, 4);
        for (port, m) in [
            (1, msg(0.9, 0)),
            (2, msg(0.7, 2)),
            (1, msg(0.3, 2)),
            (3, msg(0.5, 2)),
        ] {
            plane.receive(0, Port::new(port), &[m]);
        }
        assert_eq!(plane.phases()[0], Phase::new(3));
        assert_eq!(plane.values()[0], Value::HALF);
    }

    #[test]
    fn dbac_plane_mirrors_dbac_including_trim_ties() {
        // Ties (repeated 0.2): both sides must hold the same multisets.
        assert_dbac_lockstep(
            Params::new(6, 1, 0.1).unwrap(),
            3,
            0.5,
            &[
                (1, &[msg(0.2, 0)]),
                (2, &[msg(0.2, 0)]),
                (3, &[msg(0.2, 3)]), // future phase accepted, no jump
                (4, &[msg(0.9, 0)]), // quorum of 5 -> advance
                (1, &[msg(0.4, 1)]),
            ],
        );
    }

    #[test]
    fn dbac_plane_sorts_multi_message_batches() {
        // Ascending phase order: of a sender's states the oldest still
        // acceptable one is stored — 0.1 and 0.2 here, not 0.9 and 0.8,
        // which the quorum's update shows (0.4, not 0.7). Duplicates and
        // an out-of-order third message ride along.
        let params = Params::new(6, 1, 0.1).unwrap();
        assert_dbac_lockstep(
            params,
            10,
            0.5,
            &[
                (1, &[msg(0.9, 2), msg(0.1, 0), msg(0.4, 1), msg(0.1, 0)]),
                (2, &[msg(0.8, 1), msg(0.2, 0)]),
                (3, &[msg(0.7, 0)]),
                (4, &[msg(0.6, 0)]), // quorum of 5 -> advance
            ],
        );
    }

    #[test]
    fn dac_plane_takes_multi_message_batches_as_they_come() {
        // Of two same-phase messages on one port the first counts, and the
        // quorum's midpoint shows which.
        let params = Params::new(5, 1, 0.25).unwrap();
        let script: [(usize, &[Message]); 2] =
            [(1, &[msg(0.7, 0), msg(0.3, 0)]), (2, &[msg(0.5, 0)])];
        assert_dac_lockstep(params, 4, 0.5, &script);
    }

    #[test]
    fn plane_bulk_delivery_visits_receivers_ascending() {
        let params = Params::fault_free(5, 0.25).unwrap();
        let inputs: Vec<Value> = (0..5).map(|i| val(i as f64 / 10.0)).collect();
        let mut plane = DacPlane::new(params, &inputs);
        let receivers = NodeSet::from_ids(5, [NodeId::new(1), NodeId::new(3)]);
        let ports: Vec<Port> = (0..5).map(Port::new).collect();
        plane.deliver_from_sender(msg(0.9, 0), &receivers, &ports);
        // Only the addressed slots saw the message.
        assert_eq!(plane.values()[0], val(0.0));
        assert_eq!(plane.phases()[2], Phase::ZERO);
        // n = 5 quorum is 3: one foreign value is not enough to advance.
        for v in [1usize, 3] {
            assert_eq!(plane.seen.count(v), 1, "slot {v}");
            assert_eq!(plane.high[v], val(0.9), "slot {v}");
        }
    }

    #[test]
    fn encode_wire_defaults_to_identity() {
        let params = Params::fault_free(3, 0.25).unwrap();
        let dac = DacPlane::new(params, &[Value::HALF; 3]);
        let dbac = DbacPlane::with_pend(Params::new(6, 1, 0.1).unwrap(), &[Value::HALF; 6], 3);
        let m = msg(0.3, 2);
        assert_eq!(dac.encode_wire(m), m);
        assert_eq!(dbac.encode_wire(m), m);
    }

    #[test]
    fn columns_snapshot_initial_state() {
        let params = Params::fault_free(3, 0.25).unwrap();
        let inputs = [val(0.1), val(0.2), val(0.3)];
        let plane = DacPlane::new(params, &inputs);
        assert_eq!(plane.values(), &inputs);
        assert!(plane.phases().iter().all(|&p| p == Phase::ZERO));
        assert_eq!(plane.n(), 3);
        assert_eq!(plane.name(), "dac");
    }

    /// Runs `check` for both rules.
    fn for_both_rules(check: impl Fn(&dyn Fn(Params, &[Value], u64) -> Box<dyn AlgorithmPlane>)) {
        check(&|params, inputs, pend| Box::new(DacPlane::with_pend(params, inputs, pend)));
        check(&|params, inputs, pend| Box::new(DbacPlane::with_pend(params, inputs, pend)));
    }

    /// One scripted link of the kernel fuzz: an honest single-message
    /// link (phase at most the round's maximum wire phase, skippable once
    /// the receiver is not live), a fabricated batch (any phases, always
    /// fed), or a chunk of the round's indexed senders (honest links, 64
    /// at a time, keyed by sender id).
    enum ScriptLink {
        Honest(Port, Message),
        Fabricated(Port, Vec<Message>),
        Word(usize, u64),
    }

    /// Feeds a script to the kernel the way the engine's walk does.
    struct ScriptWalk<'a> {
        script: &'a mut [ScriptLink],
        wire: StagedWire<'a>,
        index: &'a WireIndex,
    }

    impl RowWalk for ScriptWalk<'_> {
        fn walk<K: RowKernel>(self, kernel: &mut K) {
            for link in self.script {
                match link {
                    ScriptLink::Honest(key, m) => {
                        if kernel.live() {
                            kernel.link(*key, m.phase(), m.value());
                        }
                    }
                    ScriptLink::Fabricated(key, batch) => kernel.batch(*key, batch),
                    ScriptLink::Word(w, bits) => {
                        if kernel.live() {
                            kernel.word(*w, *bits, &self.wire, self.index);
                        }
                    }
                }
            }
        }
    }

    /// What the scripts of one fuzz run exercised, counted on the
    /// reference side.
    #[derive(Default)]
    struct Coverage {
        jumps_mid_row: u64,
        stale_skips: u64,
        /// Chunks fed to a receiver whose seen row already held links of
        /// its current phase, from an earlier round or an earlier chunk.
        dirty_chunks: u64,
        /// Chunks whose first / last link completed a quorum.
        quorum_on_first_bit: u64,
        quorum_on_last_bit: u64,
        /// Chunks in which a sender ahead came before, right behind, and
        /// anywhere behind a quorum-completing link.
        ahead_then_quorum: u64,
        ahead_at_quorum: u64,
        quorum_then_ahead: u64,
        /// Chunks fed to a decided receiver, and chunks that decided one.
        decided_chunks: u64,
        deciding_chunks: u64,
        /// What only a kernel that defers its stores can get wrong (the
        /// reference side says which links a word step would have left
        /// pending: those a chunk brought that moved no phase). A quorum
        /// inside a chunk while links of earlier chunks were pending; a
        /// fabricated batch between two chunks of one word, with links
        /// pending; a row that ended with links pending.
        quorum_over_pending_chunks: u64,
        batch_between_chunks_of_a_word: u64,
        rows_ending_pending: u64,
        /// The kernel side's own counts ([`crate::probe`]): row-end
        /// settles by rank, quorums read by merge, settles sender by
        /// sender, settles onto lists short of `f + 1` values.
        rank_settles: u64,
        quorum_bounds: u64,
        sender_settles: u64,
        settles_onto_partial_lists: u64,
    }

    /// Receiver `v`'s row of one round on the kernel side: the shard that
    /// holds `v` is handed the round's index and walks `script`.
    fn deliver_script<R: Rule>(
        kernel: &mut Columnar<R>,
        bounds: &[usize],
        v: usize,
        max_wire: u64,
        script: &mut [ScriptLink],
        (wire_phase, wire_value): (&[Phase], &[Value]),
        index: &WireIndex,
    ) {
        let mut shards: [Option<PlaneShard<'_>>; 3] = [None, None, None];
        let shards = &mut shards[..bounds.len() - 1];
        kernel.fill_shards(bounds, shards);
        let shard = shards[shards.len() / 2].as_mut().unwrap();
        shard.index_round(wire_value, index);
        shard.deliver_row(
            v,
            Phase::new(max_wire),
            ScriptWalk {
                script,
                wire: StagedWire {
                    phase: wire_phase,
                    value: wire_value,
                    batches: &[],
                },
                index,
            },
        );
    }

    /// Random multi-round scripts at one receiver: the per-receiver kernel
    /// (stale links skipped) against per-link `receive` (nothing skipped),
    /// on the whole plane and on a mid-range shard. Small `n` gives
    /// `foreign_quorum` 0 and 1 and keys that repeat within a phase;
    /// small `pend` is reached mid-row; the round's maximum wire phase
    /// sits one below, at, or up to two above the receiver's phase, so
    /// honest links arrive both at the `live` boundary and past it, and a
    /// sender can still be ahead of a receiver that just advanced;
    /// fabricated
    /// batches jump the receiver mid-row and land behind its quorum.
    ///
    /// Every round also has a wire — a snapshot per sender, a random
    /// subset of them indexed — and the script feeds it in chunks through
    /// [`RowKernel::word`]: full words, sparse and single-bit masks, one
    /// word in several chunks and in any order, between the per-link
    /// entries. Sparse rounds leave the seen row dirty for the next round
    /// of the same phase.
    fn fuzz_kernel_against_receive<R: Rule>() -> Coverage {
        let seeds = std::env::var("ADN_FUZZ_SEEDS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(300);
        let mut cov = Coverage::default();
        for seed in 0..seeds {
            let mut rng = SplitMix64::new(seed);
            let n = [1usize, 2, 3, 5, 7, 64, 65, 70, 130][rng.next_index(9)];
            let f = rng.next_index((n - 1) / 5 + 1);
            let params = Params::new(n, f, 0.1).unwrap();
            // Reached within a round or two, or late enough for a run of
            // undecided rounds.
            let pend_span = [3, 60, 60][rng.next_index(3)];
            let pend = 1 + rng.next_below(pend_span);
            let grid = 2 + rng.next_below(6);
            // Repeats, `1.0`, and — where lists are compared bit for bit —
            // both zeros.
            let value = |rng: &mut SplitMix64| match rng.next_below(grid) {
                0 if R::DEFERS_STORES && rng.next_bool(0.3) => val(-0.0),
                k => Value::saturating(k as f64 / (grid - 1) as f64),
            };
            let inputs: Vec<Value> = (0..n).map(|_| value(&mut rng)).collect();
            let v = rng.next_index(n);
            // Whole plane, or three shards with `v` in the middle one.
            let bounds = if rng.next_bool(0.5) {
                vec![0, n]
            } else {
                vec![0, rng.next_index(v + 1), v + 1 + rng.next_index(n - v), n]
            };
            let mut reference = Columnar::<R>::with_pend(params, &inputs, pend);
            let mut kernel = reference.clone();
            let executing = NodeSet::from_ids(n, [NodeId::new(v)]);
            let mut index = match R::DEFERS_STORES {
                true => WireIndex::ranked(n),
                false => WireIndex::new(n),
            };
            // How much of the wire a round's chunks cover: everything, or
            // a thin slice that cannot reach a quorum in one round.
            let density = [1.0, 1.0, 0.5, 0.1][rng.next_index(4)];
            let settled = probe::counts().expect("a test build counts");
            for round in 0..12 {
                let p = reference.phases()[v].as_u64();
                // Half the rounds scatter the senders over the four phases
                // at and below a maximum around the receiver's; the other
                // half put them in the receiver's phase but for a few (or
                // every other) two ahead, so that quorums form with jumps
                // before and behind them.
                let scattered = rng.next_bool(0.5);
                let max_wire = match scattered {
                    true => (p + rng.next_below(4)).saturating_sub(1),
                    false => p + 2,
                };
                let mut wire_phase: Vec<Phase> = (0..n)
                    .map(|_| match scattered {
                        true => max_wire.saturating_sub(rng.next_below(4)),
                        false => p,
                    })
                    .map(Phase::new)
                    .collect();
                for _ in 0..[0, 1, 3, n][rng.next_index(4)] {
                    wire_phase[rng.next_index(n)] = Phase::new(max_wire);
                }
                let wire_value: Vec<Value> = (0..n).map(|_| value(&mut rng)).collect();
                let present =
                    NodeSet::from_ids(n, (0..n).filter(|_| rng.next_bool(0.8)).map(NodeId::new));
                assert!(index.build(&present, &wire_phase, &wire_value));
                let mut script: Vec<ScriptLink> = (0..rng.next_index(2 * n.min(8) + 3))
                    .map(|_| {
                        let key = Port::new(rng.next_index(n));
                        if rng.next_bool(0.5) {
                            let w = rng.next_index(n.div_ceil(64));
                            let mask = match rng.next_index(6) {
                                0 => rng.next_u64(),
                                1 => u64::MAX << rng.next_index(64),
                                2 => 1 << rng.next_index(64),
                                _ => u64::MAX,
                            };
                            let thin = (0..64)
                                .filter(|_| rng.next_bool(density))
                                .fold(0, |m, b| m | 1 << b);
                            ScriptLink::Word(w, present.word(w) & mask & thin)
                        } else if rng.next_bool(0.6) {
                            let phase = max_wire.saturating_sub(rng.next_below(3));
                            ScriptLink::Honest(
                                key,
                                Message::new(value(&mut rng), Phase::new(phase)),
                            )
                        } else {
                            let batch = (0..1 + rng.next_index(3))
                                .map(|_| {
                                    let phase = (p + rng.next_below(4)).saturating_sub(1);
                                    Message::new(value(&mut rng), Phase::new(phase))
                                })
                                .collect();
                            ScriptLink::Fabricated(key, batch)
                        }
                    })
                    .collect();
                // Links of this row's chunks that a deferring kernel
                // holds pending.
                let mut pending = 0u64;
                let chunk_of = |link: Option<&ScriptLink>| match link {
                    Some(ScriptLink::Word(w, bits)) if *bits != 0 => Some(*w),
                    _ => None,
                };
                for (i, link) in script.iter().enumerate() {
                    let before = reference.phases()[v];
                    match link {
                        ScriptLink::Honest(key, m) => {
                            cov.stale_skips += u64::from(before.as_u64() > max_wire);
                            reference.receive(v, *key, std::slice::from_ref(m));
                        }
                        ScriptLink::Fabricated(key, batch) => {
                            let around =
                                (chunk_of(script[..i].last()), chunk_of(script.get(i + 1)));
                            let between = around.0.is_some() && around.0 == around.1;
                            cov.batch_between_chunks_of_a_word += u64::from(between && pending > 0);
                            reference.receive(v, *key, batch);
                        }
                        ScriptLink::Word(w, bits) => {
                            let decided = before.as_u64() >= pend;
                            let pending_before = pending;
                            cov.decided_chunks += u64::from(decided && *bits != 0);
                            cov.dirty_chunks += u64::from(!decided && reference.seen.count(v) > 0);
                            // Per link: did it complete a quorum, was its
                            // sender ahead?
                            let (mut quorums, mut aheads) = (0u64, 0u64);
                            for b in (0..64).filter(|b| bits >> b & 1 == 1) {
                                let u = w * 64 + b;
                                let at = reference.phases()[v];
                                let seen = reference.seen.count(v);
                                let m = Message::new(wire_value[u], wire_phase[u]);
                                reference.receive(v, Port::new(u), &[m]);
                                let moved = reference.phases()[v] > at && at.as_u64() < pend;
                                pending += u64::from(!moved && reference.seen.count(v) > seen);
                                quorums |= u64::from(moved && m.phase() == at) << b;
                                aheads |= u64::from(moved && m.phase() > at) << b;
                            }
                            if quorums != 0 {
                                let (first, last) =
                                    (bits.trailing_zeros(), 63 - bits.leading_zeros());
                                cov.quorum_on_first_bit += quorums >> first & 1;
                                cov.quorum_on_last_bit += quorums >> last & 1;
                                let q = quorums.trailing_zeros();
                                cov.ahead_then_quorum += u64::from(aheads & below(q) != 0);
                                cov.quorum_then_ahead += u64::from(aheads & !through(q) != 0);
                                let next = bits & !through(q);
                                let at_quorum =
                                    next != 0 && aheads >> next.trailing_zeros() & 1 == 1;
                                cov.ahead_at_quorum += u64::from(at_quorum);
                                cov.quorum_over_pending_chunks += u64::from(pending_before > 0);
                            }
                            let deciding = !decided && reference.phases()[v].as_u64() >= pend;
                            cov.deciding_chunks += u64::from(deciding);
                        }
                    }
                    if reference.phases()[v] > before {
                        pending = 0;
                    }
                    let moved = reference.phases()[v] > before.next();
                    cov.jumps_mid_row += u64::from(moved && i + 1 < script.len());
                }
                cov.rows_ending_pending += u64::from(pending > 0);
                let wire = (&wire_phase[..], &wire_value[..]);
                deliver_script(&mut kernel, &bounds, v, max_wire, &mut script, wire, &index);
                let what = format!("seed {seed} round {round} (n {n} f {f} pend {pend} slot {v})");
                assert_same_columns(&reference, &kernel, &what);
                reference.end_round(&executing);
                kernel.end_round(&executing);
                assert_same_columns(&reference, &kernel, &what);
            }
            let counts = probe::counts().expect("a test build counts");
            let since = |counter: usize| counts[counter] - settled[counter];
            cov.rank_settles += since(probe::RANK_SETTLES);
            cov.quorum_bounds += since(probe::QUORUM_BOUNDS);
            cov.sender_settles += since(probe::SENDER_SETTLES);
            cov.settles_onto_partial_lists += since(probe::SETTLES_ONTO_PARTIAL_LISTS);
        }
        if seeds >= 100 {
            assert!(cov.jumps_mid_row > 0, "no script jumped a receiver mid-row");
            assert!(cov.stale_skips > 0, "no script fed a stale honest link");
            assert!(cov.dirty_chunks > 0, "no chunk met a dirty seen row");
            assert!(cov.decided_chunks > 0, "no chunk met a decided receiver");
            assert!(cov.deciding_chunks > 0, "no chunk reached pend");
            assert!(
                cov.quorum_on_first_bit > 0,
                "no quorum on a chunk's first link"
            );
            assert!(
                cov.quorum_on_last_bit > 0,
                "no quorum on a chunk's last link"
            );
        }
        // Alg. 2's deferred stores (Alg. 1 has nothing pending, ever).
        if seeds >= 100 && R::DEFERS_STORES {
            assert!(cov.rank_settles > 0, "no row-end rank settle");
            assert!(cov.quorum_bounds > 0, "no quorum read by merge");
            assert!(cov.sender_settles > 0, "no settle sender by sender");
            assert!(
                cov.settles_onto_partial_lists > 0,
                "no settle onto lists short of f + 1 values"
            );
            assert!(
                cov.quorum_over_pending_chunks > 0,
                "no quorum inside a chunk over earlier chunks' pending links"
            );
            assert!(
                cov.batch_between_chunks_of_a_word > 0,
                "no fabricated batch between two chunks of one word"
            );
            assert!(
                cov.rows_ending_pending > 0,
                "no row ended with links pending"
            );
        }
        cov
    }

    /// Every column of two planes, lists and seen rows (with the pending
    /// rows behind them) included. Alg. 2's values are compared bit for
    /// bit: `-0.0 == 0.0`, and they sort apart. (Alg. 1's two forms differ
    /// there, and have since before they were one type: restarted from an
    /// own value of `-0.0`, the slab keeps its `0.0` padding as the maximum
    /// where the kernel's local takes `-0.0`.)
    fn assert_same_columns<R: Rule>(a: &Columnar<R>, b: &Columnar<R>, what: &str) {
        let bits = |values: &[Value]| -> Vec<u64> {
            let exact = |v: &Value| match R::DEFERS_STORES {
                true => *v,
                false => Value::max(*v, Value::ZERO),
            };
            values.iter().map(|v| exact(v).get().to_bits()).collect()
        };
        assert_eq!(a.phase, b.phase, "phase, {what}");
        assert_eq!(bits(&a.value), bits(&b.value), "value, {what}");
        assert_eq!(a.output, b.output, "output, {what}");
        assert_eq!(bits(&a.low), bits(&b.low), "R_low, {what}");
        assert_eq!(bits(&a.high), bits(&b.high), "R_high, {what}");
        assert_eq!(a.seen, b.seen, "seen rows and counts, {what}");
    }

    #[test]
    fn dac_kernel_matches_per_link_receive_on_random_scripts() {
        let cov = fuzz_kernel_against_receive::<DacRule>();
        // Alg. 1's jump, relative to a quorum inside one chunk (DBAC has
        // no jump: a sender ahead is one more stored value).
        if cov.jumps_mid_row > 0 {
            assert!(cov.ahead_then_quorum > 0, "no jump before a quorum");
            assert!(cov.ahead_at_quorum > 0, "no jump right behind a quorum");
            assert!(cov.quorum_then_ahead > 0, "no jump behind a quorum");
        }
    }

    #[test]
    fn dbac_kernel_matches_per_link_receive_on_random_scripts() {
        fuzz_kernel_against_receive::<DbacRule>();
    }

    /// The two rank walks against stores taken link by link (the
    /// reference's `receive`), on the layouts that broke their first
    /// prototype — the row-end settle, which stores, where the heard
    /// senders fall short of a quorum, and the quorum's merge read, which
    /// stores nothing, where fabricated links fill the lists first — and
    /// within a **visit bound**: ranks gathered plus blocks tested stay
    /// under `2 · (2 · blocks + 3 · GATHER)` per row — per list a head and
    /// a mask per block, and at most three chunks of [`GATHER`] ranks,
    /// which hold the `f + 2` pending senders a walk takes and stops at
    /// wherever at least every other rank of a block is pending, as here —
    /// where a walk without the block skip gathers every unheard sender
    /// below the first heard one (256 of them in the first layout); and at
    /// two, one head a list, where the lists are full of values nothing on
    /// the wire beats.
    #[test]
    fn settle_by_rank_matches_per_link_stores_within_a_visit_bound() {
        let (n, f, v) = (512usize, 8usize, 0usize);
        let params = Params::new(n, f, 0.1).unwrap();
        let blocks = n / 64;
        let bound = 2 * (2 * blocks + 3 * GATHER) as u64;
        let monotone: Vec<Value> = (0..n).map(|u| val(u as f64 / n as f64)).collect();
        let quarter = vec![val(0.25); n];
        let zeros = |u: usize| val([-0.0, 0.0][u % 2] + if u % 8 == 7 { 0.5 } else { 0.0 });
        let zeros: Vec<Value> = (0..n).map(zeros).collect();
        // Values by sender id; the ids heard — whole blocks of ranks: id 1
        // has rank 0 under `monotone`, so blocks start at ids 1, 65, … —;
        // the two values fabricated links fill the lists with beforehand,
        // whose 18 links and 255 heard ones pass the 268 a quorum takes —
        // the 255 or 256 heard alone fall short, so their one walk is the
        // row's end —; the most visits.
        type Layout = (
            &'static str,
            Vec<Value>,
            std::ops::Range<usize>,
            Option<[f64; 2]>,
            u64,
        );
        let layouts: [Layout; 6] = [
            (
                "lowest values unheard",
                monotone.clone(),
                257..512,
                None,
                bound,
            ),
            (
                "highest values unheard",
                monotone.clone(),
                1..257,
                None,
                bound,
            ),
            ("all equal", quarter.clone(), 1..257, None, bound),
            ("-0.0 beside 0.0", zeros, 1..257, None, bound),
            (
                "lists full of 0.0 and 1.0",
                monotone,
                257..512,
                Some([0.0, 1.0]),
                2,
            ),
            (
                "lists full of the one value",
                quarter,
                257..512,
                Some([0.25; 2]),
                2,
            ),
        ];
        for (name, wire_value, heard, preload, most) in layouts {
            let wire_phase = vec![Phase::ZERO; n];
            let present = NodeSet::from_ids(n, (1..n).map(NodeId::new));
            let mut index = WireIndex::ranked(n);
            assert!(index.build(&present, &wire_phase, &wire_value));
            assert_eq!(index.ranks().unwrap().len().div_ceil(64), blocks);
            // On ids the receiver hears nothing else from.
            let merged = u64::from(preload.is_some());
            let preload = preload.iter().flat_map(|values| {
                (1..=2 * (f + 1)).map(|key| {
                    ScriptLink::Fabricated(Port::new(key), vec![msg(values[key % 2], 0)])
                })
            });
            let heard = NodeSet::from_ids(n, heard.map(NodeId::new));
            let words = (0..n / 64).map(|w| ScriptLink::Word(w, heard.word(w)));
            let mut script: Vec<ScriptLink> = preload.chain(words).collect();

            let mut reference = DbacPlane::with_pend(params, &vec![Value::HALF; n], 10);
            let mut kernel = reference.clone();
            for link in &script {
                match link {
                    ScriptLink::Fabricated(key, batch) => reference.receive(v, *key, batch),
                    ScriptLink::Word(w, bits) => {
                        for u in (w * 64..w * 64 + 64).filter(|u| bits >> (u % 64) & 1 == 1) {
                            let m = Message::new(wire_value[u], wire_phase[u]);
                            reference.receive(v, Port::new(u), &[m]);
                        }
                    }
                    ScriptLink::Honest(..) => unreachable!(),
                }
            }
            let before = probe::counts().expect("a test build counts");
            let wire = (&wire_phase[..], &wire_value[..]);
            deliver_script(&mut kernel, &[0, n], v, 0, &mut script, wire, &index);
            let after = probe::counts().expect("a test build counts");
            let counted = |counter: usize| after[counter] - before[counter];
            assert_same_columns(&reference, &kernel, name);
            assert_eq!(counted(probe::SENDER_SETTLES), 0, "{name}");
            assert_eq!(counted(probe::QUORUM_BOUNDS), merged, "{name}");
            assert_eq!(counted(probe::RANK_SETTLES), 1 - merged, "{name}");
            let visits = counted(probe::RANK_VISITS);
            assert!(visits <= most, "{name}: {visits} visits");
        }
    }

    /// The other arm of Alg. 2's word step: a shard that was handed no
    /// index for the round, or one built without ranks, defers nothing —
    /// its words are taken link by link, whatever index the walk passes,
    /// and nothing is ever pending. Three words of senders, a quorum
    /// inside the second.
    #[test]
    fn a_dbac_shard_without_ranks_takes_its_words_link_by_link() {
        let (n, f, v) = (130usize, 2usize, 7usize);
        let params = Params::new(n, f, 0.1).unwrap();
        let mut rng = SplitMix64::new(23);
        let wire_value: Vec<Value> = (0..n)
            .map(|_| val(rng.next_below(9) as f64 / 8.0))
            .collect();
        let wire_phase = vec![Phase::ZERO; n];
        let present = NodeSet::from_ids(n, (0..n).filter(|&u| u != v).map(NodeId::new));
        let (mut ranked, mut unranked) = (WireIndex::ranked(n), WireIndex::new(n));
        for index in [&mut ranked, &mut unranked] {
            assert!(index.build(&present, &wire_phase, &wire_value));
        }
        let mut reference = DbacPlane::with_pend(params, &wire_value, 10);
        let fresh = reference.clone();
        for u in present.iter().map(NodeId::index) {
            let m = Message::new(wire_value[u], wire_phase[u]);
            reference.receive(v, Port::new(u), &[m]);
        }
        assert_eq!(reference.phase[v], Phase::new(1));
        for handed in [None, Some(&unranked)] {
            let mut kernel = fresh.clone();
            let mut script: Vec<ScriptLink> = (0..n.div_ceil(64))
                .map(|w| ScriptLink::Word(w, present.word(w)))
                .collect();
            let settled = probe::counts();
            let mut shards = [None];
            kernel.fill_shards(&[0, n], &mut shards);
            let shard = shards[0].as_mut().unwrap();
            if let Some(index) = handed {
                shard.index_round(&wire_value, index);
            }
            // The walk's index has ranks either way: what decides is what
            // the shard was handed.
            shard.deliver_row(
                v,
                Phase::ZERO,
                ScriptWalk {
                    script: &mut script,
                    wire: StagedWire {
                        phase: &wire_phase,
                        value: &wire_value,
                        batches: &[],
                    },
                    index: &ranked,
                },
            );
            let what = format!("handed an index: {}", handed.is_some());
            assert_same_columns(&reference, &kernel, &what);
            assert_eq!(probe::counts(), settled, "{what}: something settled");
        }
    }

    #[test]
    fn shards_mirror_whole_plane_delivery() {
        let params = Params::new(7, 1, 0.1).unwrap();
        let inputs: Vec<Value> = (0..7).map(|i| val(i as f64 / 10.0)).collect();
        let batch = [
            (Port::new(1), msg(0.8, 0)),
            (Port::new(2), msg(0.1, 0)),
            (Port::new(3), msg(0.5, 0)),
        ];
        let bounds = [0usize, 3, 7];
        let index = WireIndex::new(7);
        // Both rules: Alg. 2's slabs split at `len * (f + 1)`.
        for_both_rules(|make| {
            let mut whole = make(params, &inputs, 4);
            let mut sharded = make(params, &inputs, 4);
            {
                let mut shards: [Option<PlaneShard<'_>>; 2] = [None, None];
                sharded.fill_shards(&bounds, &mut shards);
                for (i, shard) in shards.iter_mut().enumerate() {
                    let shard = shard.as_mut().unwrap();
                    assert_eq!(shard.base(), bounds[i]);
                    for v in bounds[i]..bounds[i + 1] {
                        let mut script = batch.map(|(key, m)| ScriptLink::Honest(key, m));
                        let wire = StagedWire {
                            phase: &[],
                            value: &[],
                            batches: &[],
                        };
                        let walk = ScriptWalk {
                            script: &mut script,
                            wire,
                            index: &index,
                        };
                        shard.deliver_row(v, Phase::ZERO, walk);
                    }
                }
            }
            for v in 0..7 {
                whole.receive_many(v, &batch);
            }
            assert_eq!(whole.phases(), sharded.phases(), "{}", whole.name());
            assert_eq!(whole.values(), sharded.values(), "{}", whole.name());
            assert_eq!(whole.outputs(), sharded.outputs(), "{}", whole.name());
        });
    }

    #[test]
    fn reset_instance_is_observationally_fresh() {
        let params = Params::new(6, 1, 0.1).unwrap();
        let dirty_script = [
            (Port::new(1), msg(0.2, 0)),
            (Port::new(2), msg(0.9, 1)),
            (Port::new(3), msg(0.4, 0)),
        ];
        let follow_script = [
            (Port::new(2), msg(0.7, 0)),
            (Port::new(4), msg(0.3, 0)),
            (Port::new(1), msg(0.6, 1)),
        ];
        let old_inputs = vec![Value::HALF; 6];
        let new_inputs: Vec<Value> = (0..6).map(|i| val(i as f64 / 10.0)).collect();
        // A used-then-reset plane must behave exactly like a fresh one
        // under any follow-up script — under either rule.
        for_both_rules(|make| {
            let mut used = make(params, &old_inputs, 3);
            for v in 0..6 {
                used.receive_many(v, &dirty_script);
            }
            assert!(used.reset_instance(&new_inputs));
            let mut fresh = make(params, &new_inputs, 3);
            for v in 0..6 {
                used.receive_many(v, &follow_script);
                fresh.receive_many(v, &follow_script);
            }
            assert_eq!(used.phases(), fresh.phases(), "{}", used.name());
            assert_eq!(used.values(), fresh.values(), "{}", used.name());
            assert_eq!(used.outputs(), fresh.outputs(), "{}", used.name());
        });
    }

    #[test]
    fn pend_zero_outputs_immediately() {
        let params = Params::fault_free(3, 1.0).unwrap(); // pend = 0
        let inputs = [val(0.1), val(0.2), val(0.3)];
        let plane = DacPlane::new(params, &inputs);
        assert!(plane.outputs().iter().all(Option::is_some));
        let dbac_params = Params::new(6, 1, 0.1).unwrap();
        let plane = DbacPlane::with_pend(dbac_params, &[Value::HALF; 6], 0);
        assert!(plane.outputs().iter().all(Option::is_some));
        assert_eq!(plane.pend(), 0);
    }
}
