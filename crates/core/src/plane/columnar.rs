//! The columnar plane: every slot's Alg. 1 or Alg. 2 state as flat
//! columns ([`Columnar`]), the disjoint `&mut` views a walk or a shard
//! runs on ([`Cols`]), and the [`AlgorithmPlane`] impl written once over
//! the [`Rule`].

use std::marker::PhantomData;

use adn_graph::NodeSet;
use adn_types::{Message, Params, Phase, Port, Value};

use super::row::{Ranked, Row, HELD};
use super::seen::{Seen, SeenRows};
use super::{
    assert_shard_bounds, live_below, take_split, AlgorithmPlane, DacRule, DbacRule, PlaneShard,
    RowWalk, Rule, MAX_PLANE_SHARDS,
};
use crate::trim;

/// [`Dac`](crate::Dac) or [`Dbac`](crate::Dbac) — whichever `R` says — in
/// struct-of-arrays layout: one plane holds every slot's phase, value,
/// seen row (`R_i` as a bit row, under whichever key the plane is driven
/// with), contribution count and the `R_low` / `R_high` lists as flat
/// columns. See [`AlgorithmPlane`] for the equivalence contract and
/// [the plane docs](super) for why. A plane can be built with any number
/// of slots: `Params` sizes what a slot *is* (port row, quorum, lists), the
/// inputs how many there are.
///
/// The struct is 192 bytes, what `DacPlane` was before the two planes
/// were one. Boxed at 224 it moved glibc's heap far enough that a process
/// building one `Simulation` per run (the ledger's `dac_dense`) took twice
/// the page faults per run (294 → 633) and read 8 % slower on identical
/// kernel code — hence `cap` as a `u32`, no sort scratch, and the pending
/// rows of a rule that defers its stores behind the seen rows, in their
/// `Vec`.
#[derive(Debug, Clone)]
pub struct Columnar<R> {
    pend: u64,
    /// `R::quorum() - 1`: foreign same-phase contributions needed to
    /// advance, hoisted so the hot loop compares a slot's count directly.
    foreign_quorum: u32,
    /// List length per slot where `R::LIST_LEN` leaves it to `Params`.
    cap: u32,
    pub(super) phase: Vec<Phase>,
    pub(super) value: Vec<Value>,
    /// `R_low` slab: slot `v` owns `low[v*cap..(v+1)*cap]`, ascending
    /// (see [`crate::trim`]). At length 1: the slot's running minimum.
    pub(super) low: Vec<Value>,
    /// `R_high` slab, same layout, descending. At length 1: the maximum.
    pub(super) high: Vec<Value>,
    /// `R_i` of every slot and its count, and — under a rule with
    /// [`Rule::DEFERS_STORES`] — one pending row per shard the plane can
    /// be split into.
    pub(super) seen: SeenRows,
    /// Decided outputs. **Not** consulted on the hot path: `output[v]` is
    /// `Some` iff `phase[v] >= pend` (every phase change runs the
    /// `try_advance` tail, which maintains the invariant), so deliveries
    /// test the phase they already loaded.
    pub(super) output: Vec<Option<Value>>,
    rule: PhantomData<R>,
}

/// The columnar plane of Alg. 1.
pub type DacPlane = Columnar<DacRule>;

/// The columnar plane of Alg. 2.
pub type DbacPlane = Columnar<DbacRule>;

#[cfg(target_pointer_width = "64")]
const _: () = assert!(
    std::mem::size_of::<DacPlane>() == 192 && std::mem::size_of::<DbacPlane>() == 192,
    "see `Columnar`'s docs before growing it"
);

impl<R: Rule> Columnar<R> {
    /// Creates the plane with one slot per input, terminating at the
    /// paper's `pend` for the rule (Eq. (2) / Eq. (6)).
    pub fn new(params: Params, inputs: &[Value]) -> Self {
        Self::with_pend(params, inputs, R::pend(params))
    }

    /// Creates the plane with an explicit termination phase.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != params.n()`.
    pub fn with_pend(params: Params, inputs: &[Value], pend: u64) -> Self {
        assert_eq!(inputs.len(), params.n(), "one input per slot");
        Self::with_slots(params, inputs, pend)
    }

    /// The plane with one slot per input, however many (the trial lanes
    /// build `n × 64`).
    pub(crate) fn with_slots(params: Params, inputs: &[Value], pend: u64) -> Self {
        let slots = inputs.len();
        let cap = R::LIST_LEN.unwrap_or(params.dbac_list_len());
        let pending_rows = if R::DEFERS_STORES {
            MAX_PLANE_SHARDS
        } else {
            0
        };
        let mut plane = Columnar {
            pend,
            foreign_quorum: (R::quorum(params) - 1) as u32,
            cap: cap as u32,
            phase: vec![Phase::ZERO; slots],
            value: inputs.to_vec(),
            low: vec![Value::HALF; slots * cap],
            high: vec![Value::HALF; slots * cap],
            seen: SeenRows::new(params.n(), slots, pending_rows),
            output: vec![None; slots],
            rule: PhantomData,
        };
        let mut cols = plane.cols();
        for v in 0..slots {
            cols.restart(v);
            cols.maybe_output(v);
        }
        plane
    }

    /// The termination phase in effect.
    pub fn pend(&self) -> u64 {
        self.pend
    }

    /// Borrows every column as a disjoint `&mut` slice. The bulk calls
    /// split once and run the whole walk on the views: `&mut` slices are
    /// provably non-aliasing, so the optimizer keeps loop-invariant
    /// pointers and the receiver's hot fields in registers instead of
    /// re-loading them after every store (one `Vec` store could otherwise
    /// alias every other column).
    #[inline]
    pub(super) fn cols(&mut self) -> Cols<'_, R> {
        Cols {
            pend: self.pend,
            foreign_quorum: self.foreign_quorum,
            cap: self.cap as usize,
            phase: &mut self.phase,
            value: &mut self.value,
            seen: self.seen.view(),
            ranked: None,
            low: &mut self.low,
            high: &mut self.high,
            output: &mut self.output,
            rule: PhantomData,
        }
    }
}

/// The disjoint column views of one [`Columnar`] plane (see
/// [`Columnar::cols`]), or of one receiver range of it.
pub(super) struct Cols<'a, R> {
    pub(super) pend: u64,
    pub(super) foreign_quorum: u32,
    cap: usize,
    pub(super) phase: &'a mut [Phase],
    pub(super) value: &'a mut [Value],
    /// The range's seen rows, with the pending rows behind them.
    pub(super) seen: Seen<'a>,
    /// What [`PlaneShard::index_round`] left for the round.
    pub(super) ranked: Option<Ranked<'a>>,
    low: &'a mut [Value],
    high: &'a mut [Value],
    output: &'a mut [Option<Value>],
    rule: PhantomData<R>,
}

impl<R: Rule> Cols<'_, R> {
    /// Slot `v`'s `(R_low, R_high)`.
    #[inline]
    pub(super) fn lists(&mut self, v: usize) -> (&mut [Value], &mut [Value]) {
        let cap = R::LIST_LEN.unwrap_or(self.cap);
        let (from, to) = (v * cap, (v + 1) * cap);
        (&mut self.low[from..to], &mut self.high[from..to])
    }

    /// Restarts slot `v`'s lists from its own value: what the
    /// always-reliable self-message would store. At length 1, `(min, max)`
    /// collapse onto it.
    #[inline]
    fn restart(&mut self, v: usize) {
        let own = self.value[v];
        let (low, high) = self.lists(v);
        trim::clear(low, high);
        trim::store(low, high, own);
    }

    /// `RESET()` for slot `v`: clear its seen row, restart its lists.
    #[inline]
    pub(super) fn reset(&mut self, v: usize) {
        self.seen.reset(v);
        self.restart(v);
    }

    #[inline]
    pub(super) fn maybe_output(&mut self, v: usize) {
        if self.phase[v].as_u64() >= self.pend && self.output[v].is_none() {
            self.output[v] = Some(self.value[v]);
        }
    }

    /// Slot `v`'s round: columns into a [`Row`], the walk, columns back.
    /// `maybe_output` runs once at the end, which is when `process` would
    /// have run it last — a decided slot's value no longer changes.
    #[inline]
    pub(super) fn deliver_row(&mut self, v: usize, max_wire_phase: Phase, walk: impl RowWalk) {
        let cap = R::LIST_LEN.unwrap_or(self.cap);
        let (pend, foreign_quorum) = (self.pend, self.foreign_quorum);
        let live_below = live_below(pend, max_wire_phase);
        let (phase, value) = (self.phase[v], self.value[v]);
        let (seen, seen_row, pending) = self.seen.row(v);
        let mut k = Row::<R> {
            pend,
            foreign_quorum,
            live_below,
            phase,
            value,
            seen: *seen,
            seen_row,
            lo: self.low[v * cap],
            hi: self.high[v * cap],
            low: &mut self.low[v * cap..(v + 1) * cap],
            high: &mut self.high[v * cap..(v + 1) * cap],
            deferred: R::deferred(pending, self.ranked),
            unwritten: 0,
            held: [(0, 0); HELD],
            holding: 0,
            carried: *seen > 0,
        };
        walk.walk(&mut k);
        R::settle(&mut k);
        self.phase[v] = k.phase;
        self.value[v] = k.value;
        *seen = k.seen;
        if Row::<R>::EXTREMA {
            (k.low[0], k.high[0]) = (k.lo, k.hi);
        }
        // (`R::Deferred` may own a destructor, for all this body knows.)
        drop(k);
        self.maybe_output(v);
    }
}

impl<R: Rule> AlgorithmPlane for Columnar<R> {
    fn n(&self) -> usize {
        self.phase.len()
    }

    fn phases(&self) -> &[Phase] {
        &self.phase
    }

    fn values(&self) -> &[Value] {
        &self.value
    }

    fn outputs(&self) -> &[Option<Value>] {
        &self.output
    }

    fn receive(&mut self, receiver: usize, port: Port, batch: &[Message]) {
        let mut cols = self.cols();
        if !R::ASCENDING_BATCHES || batch.len() == 1 {
            for &msg in batch {
                cols.process(receiver, port, msg);
            }
        } else {
            // The same resolution as `Dbac::receive`, without a scratch:
            // the next entry in `(message, position)` order until none is
            // left — quadratic, in the handful of messages a link carries.
            let after = |done| {
                let rest = batch.iter().copied().zip(0usize..);
                rest.filter(|&entry| Some(entry) > done).min()
            };
            let mut next = after(None);
            while let Some((msg, _)) = next {
                cols.process(receiver, port, msg);
                next = after(next);
            }
        }
    }

    fn fill_shards<'a>(&'a mut self, bounds: &[usize], out: &mut [Option<PlaneShard<'a>>]) {
        assert_shard_bounds(self.phase.len(), bounds, out.len());
        assert!(out.len() <= MAX_PLANE_SHARDS, "one pending row per shard");
        let mut rest = self.cols();
        let cap = R::LIST_LEN.unwrap_or(rest.cap);
        for (i, slot) in out.iter_mut().enumerate() {
            let len = bounds[i + 1] - bounds[i];
            let cols = Cols {
                phase: take_split(&mut rest.phase, len),
                value: take_split(&mut rest.value, len),
                seen: rest.seen.split_front(len),
                low: take_split(&mut rest.low, len * cap),
                high: take_split(&mut rest.high, len * cap),
                output: take_split(&mut rest.output, len),
                ..rest
            };
            *slot = Some(PlaneShard {
                base: bounds[i],
                repr: R::shard(cols),
            });
        }
    }

    fn end_round(&mut self, executing: &NodeSet) {
        let mut cols = self.cols();
        executing.for_each(|id| cols.try_advance(id.index()));
    }

    fn reset_instance(&mut self, inputs: &[Value]) -> bool {
        assert_eq!(inputs.len(), self.phase.len(), "one input per slot");
        let mut cols = self.cols();
        for (v, input) in inputs.iter().enumerate() {
            cols.phase[v] = Phase::ZERO;
            cols.value[v] = *input;
            cols.output[v] = None;
            cols.reset(v);
            cols.maybe_output(v);
        }
        true
    }

    fn name(&self) -> &'static str {
        R::NAME
    }
}
