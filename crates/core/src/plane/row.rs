//! The columnar row kernel: one receiver's Alg. 1/2 state in locals for
//! the length of its row ([`Row`]), and the word steps that take its
//! honest links 64 senders at a time.
//!
//! **The word step.** Of the three questions Alg. 1 asks of a link — is
//! the sender ahead, is it in my phase, have I counted it — the first two
//! are properties of the sender within a round, so the engine answers them
//! once per round in a [`WireIndex`], and the columnar kernels take a
//! receiver's honest links 64 senders per step ([`RowKernel::word`]).
//! Alg. 1: `row ∧ same-phase ∧ ¬seen` are the new contributions, a
//! popcount counts them, a fully covered word folds into the extrema with
//! two compares, and the first sender ahead or the quorum-completing link
//! — whichever bit comes first — ends the stretch exactly where the
//! per-link loop would have. Boxed nodes' links are taken one at a time,
//! as are the permuted delivery orders'.
//!
//! **Run pieces.** On a run row the DAC kernel takes a piece of a run —
//! ids `lo..=hi`, neither the receiver nor a conditional sender among
//! them — through [`RowKernel::run`], answered from the wire index's run
//! sums: the first sender ahead, the number of same-phase senders before
//! it and the one that completes the quorum, and their value extrema, in
//! `O(log n)` whatever the piece's length. Two facts keep it exact.
//! First, within a round this row's other links are keyed outside its
//! pieces, so only bits carried from an earlier round can fall inside
//! one: every same-phase sender of a piece is new to a row that carries
//! none, and until the phase first moves a row that does takes its
//! pieces by word steps (`Row::carried`). Second, a stretch that an event
//! ends moves the phase, whose `RESET()` empties the seen row, so seen
//! bits are needed only for what the phase still holds when the row's
//! pieces end: a piece's last stretch is held back as an id range
//! (`Row::held`) and written then ([`RowKernel::end_runs`]) unless the
//! phase has moved, and a `RESET()` of a row with no bit written skips
//! its `fill(0)` (`Row::unwritten`). On `Rotating`, where every receiver
//! completes its quorum in the round, no seen bit is written at all.
//!
//! **Count now, store later.** Alg. 2 reads `R_low` / `R_high` once per
//! phase, at the quorum, and until then they are the `f + 1` least /
//! greatest of the multiset stored since `RESET()` — a function of that
//! multiset, not of arrival order (`trim.rs`). Its word step
//! therefore only *counts*: `row ∧ (same-phase ∪ ahead) ∧ ¬seen`, cut at
//! the quorum-completing link, goes into the seen row and into the
//! shard's **pending** row, and no value is touched. A **quorum** reads
//! `(max(R_low), min(R_high))` over the lists and the pending senders
//! together: when few are pending it stores them one by one and reads the
//! lists; otherwise it stores nothing — `RESET()` empties the lists right
//! after — and merges each list with the pending senders' wire values on a
//! walk of the round's senders in ascending (descending) wire value, the
//! index's rank order, until one no longer precedes the list's last slot
//! still kept. The **settle** when the receiver's row is over does store,
//! since those lists outlive the row: by rank on the same walks, or sender
//! by sender. Links taken one at a time — fabricated, partially delivered
//! — are stored at once; stores commute, so the two need no order between
//! them.
//!
//! **The stale-link stop.** Within a round every honest link carries a
//! start-of-round snapshot, so its phase is at most the round's maximum
//! wire phase. A columnar receiver that has decided, or whose phase has
//! passed that maximum (on the complete graph: every receiver, the moment
//! it reaches quorum), ignores every further honest link of the round by
//! Alg. 1/2's own stale rule — [`RowKernel::live`] reports exactly that,
//! and the engine stops feeding such a receiver's honest links. Byzantine
//! fabrications may carry any phase and are always fed. The boxed kernel
//! knows nothing about its node's rules and is always live.

use adn_types::{Message, Phase, Port, Value};

use super::rule::sealed;
use super::{run_by_words, DbacRule, RowKernel, Rule, StagedWire};
use crate::wire::{self, Ranks};
use crate::{probe, trim, WireIndex};

/// How many stretches a run step holds back at most: a run row's pieces
/// when no conditional sender cuts it — its runs, one of them cut at the
/// receiver. More pieces write the held ones out early.
pub(super) const HELD: usize = adn_graph::MAX_RUNS_PER_ROW + 1;

/// One round's wire values with the index built over them and its rank
/// order.
#[derive(Debug, Clone, Copy)]
pub(super) struct Ranked<'a> {
    pub(super) value: &'a [Value],
    pub(super) index: &'a WireIndex,
    pub(super) ranks: &'a Ranks,
}

/// [`Cols::process`](super::columnar::Cols::process) on locals: one slot's
/// Alg. 1/2 state for the length of its row.
pub(super) struct Row<'a, R: sealed::Sealed> {
    pub(super) pend: u64,
    pub(super) foreign_quorum: u32,
    pub(super) live_below: u64,
    pub(super) phase: Phase,
    pub(super) value: Value,
    pub(super) seen: u32,
    /// The slot's seen row, keyed by sender id.
    pub(super) seen_row: &'a mut [u64],
    /// The lists when they are one value long ([`Row::EXTREMA`]): the
    /// running `(min, max)`, held here for the row and stored back after
    /// it. Left in the slab they cost `dac_dense` 2.5 % (4030 against 3930
    /// rounds/s, parent 4114; twelve three-way alternations): the word
    /// step reads and writes them beside its seen-row stores.
    pub(super) lo: Value,
    pub(super) hi: Value,
    /// The slot's `(R_low, R_high)` in their slab, otherwise.
    pub(super) low: &'a mut [Value],
    pub(super) high: &'a mut [Value],
    /// `()`, but for a rule with [`Rule::DEFERS_STORES`].
    pub(super) deferred: R::Deferred<'a>,
    /// Of `seen`, the contributions a run step counted whose bits it has
    /// not written (see "Run pieces" in [the module docs](self)): the
    /// seen row holds a bit only while `seen` exceeds them.
    pub(super) unwritten: u32,
    /// The stretches `lo..=hi` of this phase whose seen bits a run step
    /// holds back, in `held[..holding]`: written when the row's pieces
    /// end in this phase ([`RowKernel::end_runs`]), dropped by `RESET()`.
    pub(super) held: [(u32, u32); HELD],
    pub(super) holding: usize,
    /// Whether the seen row may hold bits from an earlier round, ahead of
    /// where the row's walk is: true from the row's start while it has
    /// counted anything, false from its first `RESET()` on.
    pub(super) carried: bool,
}

impl<R: Rule> Row<'_, R> {
    /// Whether the lists live in `lo` / `hi` rather than in the slab.
    pub(super) const EXTREMA: bool = matches!(R::LIST_LEN, Some(1));

    /// `STORE(value)`: [`trim::store`], which at length 1 is two compares.
    #[inline(always)]
    fn store(&mut self, value: Value) {
        if Self::EXTREMA {
            (self.lo, self.hi) = (self.lo.min(value), self.hi.max(value));
        } else {
            trim::store(self.low, self.high, value);
        }
    }

    /// `RESET()` (mirrors [`Cols::reset`](super::columnar::Cols::reset)).
    /// A seen row with no bit written is already empty.
    #[inline]
    fn reset(&mut self) {
        if self.seen > self.unwritten {
            self.seen_row.fill(0);
        }
        (self.unwritten, self.holding, self.carried) = (0, 0, false);
        self.seen = 0;
        if Self::EXTREMA {
            (self.lo, self.hi) = (self.value, self.value);
        } else {
            trim::clear(self.low, self.high);
            trim::store(self.low, self.high, self.value);
        }
    }

    /// Out of line: once per slot per phase, and its loop (which only
    /// ever repeats when `foreign_quorum` is 0) would otherwise be laid
    /// out inside every link loop `link` is inlined into.
    #[cold]
    #[inline(never)]
    fn try_advance(&mut self) {
        while self.seen >= self.foreign_quorum && self.phase.as_u64() < self.pend {
            // Read, then `RESET()`: what is pending is not stored first.
            let (lo, hi) = R::quorum_bounds(self);
            self.value = lo.midpoint(hi);
            self.phase = self.phase.next();
            self.reset();
        }
    }

    /// The jump case of Alg. 1: a sender ahead, adopted wholesale.
    #[inline(always)]
    fn jump(&mut self, phase: Phase, value: Value) {
        self.value = value;
        self.phase = phase;
        self.reset();
        self.try_advance();
    }
}

/// Alg. 1's word step, for a rule that jumps and keeps `(min, max)`.
impl<R: Rule> Row<'_, R> {
    /// The accept case of Alg. 1 for `count` links at once: the keys `new`
    /// of seen-row word `w`, none of them seen before, whose values span
    /// `lo..=hi` — counted, folded into the extrema, and the phase
    /// advanced if they complete the quorum.
    #[inline(always)]
    fn absorb(&mut self, w: usize, new: u64, count: u32, lo: Value, hi: Value) {
        self.seen_row[w] |= new;
        self.seen += count;
        if lo < self.lo {
            self.lo = lo;
        }
        if hi > self.hi {
            self.hi = hi;
        }
        if self.seen >= self.foreign_quorum {
            self.try_advance();
        }
    }

    /// Alg. 1 over a word of honest links, in bit order: everything below
    /// the first sender ahead is a same-phase stretch (`row ∧ same ∧
    /// ¬seen` are its new links), which the quorum-completing link ends
    /// early; either event moves the phase, and what is left of the word
    /// is looked at again from there.
    #[inline(always)]
    fn word_step(&mut self, w: usize, mut bits: u64, wire: &StagedWire<'_>, index: &WireIndex) {
        debug_assert!(R::JUMPS && Self::EXTREMA);
        while bits != 0 && self.phase.as_u64() < self.pend {
            let at = index.locate(self.phase);
            let ahead = bits & index.ahead(at, w);
            let stretch = match ahead {
                0 => bits,
                _ => bits & below(ahead.trailing_zeros()),
            };
            let same = index.same(at, w);
            // The quorum-completing link ends the stretch: only the new
            // links up to it count. (`foreign_quorum` 0 advances on any.)
            let need = self.foreign_quorum.saturating_sub(self.seen).max(1);
            let new = stretch & same & !self.seen_row[w];
            let (new, count) = match new.count_ones() {
                found if found > need => (lowest(new, need), need),
                found => (new, found),
            };
            if new != 0 {
                let (lo, hi) = index.extrema_of(at, w, new, wire.value);
                self.absorb(w, new, count, lo, hi);
            }
            // What the event consumed: the word through the quorum link,
            // or through the sender jumped to; without an event, all.
            if count == need {
                bits &= !through(63 - new.leading_zeros());
            } else if ahead != 0 {
                let b = ahead.trailing_zeros();
                let u = w * 64 + b as usize;
                self.jump(wire.phase[u], wire.value[u]);
                bits &= !through(b);
            } else {
                return;
            }
        }
    }
}

/// Alg. 1's run step.
impl<R: Rule> Row<'_, R> {
    /// Alg. 1 over a run piece: the indexed senders of ids `lo..=hi`,
    /// ascending, none of them the receiver. From where the row stands,
    /// the run sums give the first sender ahead, the same-phase senders
    /// before it and the one among them that completes the quorum; the
    /// first event moves the phase, and the rest of the piece is looked at
    /// again from behind the link that moved it. A same-phase stretch that
    /// a jump ends is neither folded nor written: the jump's `RESET()`
    /// would undo both. One that ends the piece is folded and counted and
    /// its seen bits held back (`held`, written at [`RowKernel::end_runs`]
    /// if the phase has not moved by then); one that a quorum ends is
    /// folded and counted but never written, and the `RESET()` behind it
    /// skips its `fill(0)` if nothing else was. While the seen row may
    /// still hold bits of an earlier round ahead (`carried`), the piece
    /// goes by word steps.
    #[inline]
    fn run_step(&mut self, mut lo: usize, hi: usize, wire: &StagedWire<'_>, index: &WireIndex) {
        debug_assert!(R::JUMPS && Self::EXTREMA);
        while lo <= hi && self.live() {
            if self.carried {
                let w = lo / 64;
                let bits = index.present_word(w) & wire::span(w, lo, hi);
                #[cfg(debug_assertions)]
                if bits != 0 {
                    probe::bump(probe::WORD_STEPS);
                }
                self.word_step(w, bits, wire, index);
                lo = (lo | 63) + 1;
                continue;
            }
            let at = index.locate(self.phase);
            let ahead = index.first_ahead(at, lo, hi);
            let need = self.foreign_quorum.saturating_sub(self.seen).max(1);
            let (count, quorum) = index.count_same(at, lo, ahead.unwrap_or(hi + 1), need);
            if let Some(q) = quorum {
                index.fold_same(at, (lo, q), wire.value, (&mut self.lo, &mut self.hi));
                self.seen += need;
                self.unwritten += need;
                // Live, so below `pend`: the phase moves, and `RESET()`
                // forgets the unwritten bits.
                self.try_advance();
                lo = q + 1;
            } else if let Some(u) = ahead {
                self.jump(wire.phase[u], wire.value[u]);
                lo = u + 1;
            } else {
                if count > 0 {
                    index.fold_same(at, (lo, hi), wire.value, (&mut self.lo, &mut self.hi));
                    if self.holding == HELD {
                        self.write_held(index);
                    }
                    self.held[self.holding] = (lo as u32, hi as u32);
                    self.holding += 1;
                    self.seen += count;
                    self.unwritten += count;
                }
                return;
            }
        }
    }

    /// Writes the held stretches' seen bits: the phase has not moved
    /// since they were counted, so the index locates the same phase.
    #[inline]
    fn write_held(&mut self, index: &WireIndex) {
        let at = index.locate(self.phase);
        for &(lo, hi) in &self.held[..self.holding] {
            index.mark_same(at, (lo as usize, hi as usize), self.seen_row);
        }
        (self.unwritten, self.holding) = (0, 0);
    }
}

/// Alg. 2's word step and its settle ("Count now, store later" in
/// [the module docs](self)).
impl<'a> Row<'a, DbacRule> {
    /// Alg. 2 over a word of honest links, in bit order: a link from this
    /// phase or a later one, on a key not yet seen, is one more
    /// contribution — counted and noted as pending, its value left on the
    /// wire. The quorum-completing link ends the stretch; what is left of
    /// the word is looked at again under the new phase. `index` is the one
    /// the shard was handed
    /// ([`PlaneShard::index_round`](super::PlaneShard::index_round)), which is also
    /// what the settle walks.
    #[inline(always)]
    pub(super) fn count_word(&mut self, w: usize, mut bits: u64, index: &WireIndex) {
        while bits != 0 && self.phase.as_u64() < self.pend {
            let at = index.locate(self.phase);
            let accepted = index.same(at, w) | index.ahead(at, w);
            // As in Alg. 1's step: only the new links up to the one that
            // completes the quorum count.
            let need = self.foreign_quorum.saturating_sub(self.seen).max(1);
            let new = bits & accepted & !self.seen_row[w];
            let (new, count) = match new.count_ones() {
                found if found > need => (lowest(new, need), need),
                found => (new, found),
            };
            self.seen_row[w] |= new;
            self.seen += count;
            self.deferred.pending[w] |= new;
            self.deferred.count += count;
            if count < need {
                return;
            }
            bits &= !through(63 - new.leading_zeros());
            self.try_advance();
        }
    }

    /// How the senders the row's word steps left pending are put in — by
    /// rank (`true`) or sender by sender, against the round's ranks — or
    /// `None` when none are (or the shard was handed no ranks, so none ever
    /// are).
    ///
    /// By rank: the round's senders in ascending wire value, each pending
    /// one into `R_low`, until one — pending or not — would not enter,
    /// which keeps out every value behind it; and the mirror image from the
    /// top for `R_high`. A full list holds the `f + 1` extremes of the
    /// `seen` values stored, so a walk is over after about
    /// `(f + 1) · ranks / seen` senders, less the blocks of ranks it passes
    /// over ([`Ranks::walk`]). Sender by sender when so few are pending that
    /// one store each is the shorter way. Both leave the lists as
    /// link-by-link stores do: what a list holds is a function of the
    /// multiset stored.
    #[inline]
    fn settle_way(&self) -> Option<(bool, Ranked<'a>)> {
        let sealed::Deferred { count, ranked, .. } = &self.deferred;
        let (Some(ranked), true) = (*ranked, *count > 0) else {
            return None;
        };
        if self.seen - *count < self.low.len() as u32 - 1 {
            probe::bump(probe::SETTLES_ONTO_PARTIAL_LISTS);
        }
        // The two procedures' expected visits, from numbers in hand: one
        // store per pending sender against a walk of about
        // `(f + 1) · ranks / seen` senders per list. Measured with the
        // gathered walk and the quorum's merge at f = n/64 (µs per round on
        // a 2-vCPU x86-64 box, median of six alternating runs each), this
        // rule / always by rank / always per sender: `Rotating { d }` at
        // n = 1024, d = 8 / 24 / 64 / 256: 310 / 510 / 307, 437 / 693 /
        // 436, 707 / 792 / 704, 633 / 687 / 1112; `Spread { t: 3 }` at
        // n = 1024 and 256: 367 / 361 / 637, 66 / 68 / 72; the threshold
        // degree: 698 / 876 / 3339. Either alone costs some schedule 1.6–4.8×
        // of its round, and the rule stays within 2 % of the better one on
        // every shape tried.
        let work = u64::from(*count) * u64::from(self.seen);
        Some((work >= (self.low.len() * ranked.ranks.len()) as u64, ranked))
    }

    /// Stores the pending senders' wire values — `way` being
    /// [`Row::settle_way`]'s answer — and leaves nothing pending: what the
    /// row's end does, its lists outliving the row.
    #[inline]
    fn store_pending(&mut self, way: Option<(bool, Ranked<'_>)>) {
        let Some((by_rank, Ranked { value, ranks, .. })) = way else {
            return;
        };
        let sealed::Deferred { pending, count, .. } = &mut self.deferred;
        let (low, high) = (&mut *self.low, &mut *self.high);
        let last = low.len() - 1;
        if by_rank {
            probe::bump(probe::RANK_SETTLES);
            // The values arrive in each list's own order, so the slots a
            // list has filled are known all along.
            let (mut lows, mut highs) = trim::filled(low, high);
            ranks.walk(false, pending, |u, is_pending| match is_pending {
                true => {
                    let entered = trim::store_low(low, lows, value[u]);
                    lows += usize::from(entered);
                    entered
                }
                false => value[u] < low[last],
            });
            ranks.walk(true, pending, |u, is_pending| match is_pending {
                true => {
                    let entered = trim::store_high(high, highs, value[u]);
                    highs += usize::from(entered);
                    entered
                }
                false => value[u] > high[last],
            });
            pending.fill(0);
        } else {
            probe::bump(probe::SENDER_SETTLES);
            for (w, word) in pending.iter_mut().enumerate() {
                for u in wire::ids(w, std::mem::take(word)) {
                    trim::store(low, high, value[u]);
                }
            }
        }
        *count = 0;
    }

    /// The row's end: whatever is pending goes into the lists.
    #[inline]
    pub(super) fn settle(&mut self) {
        let way = self.settle_way();
        self.store_pending(way);
    }

    /// `(max(R_low), min(R_high))` at a quorum. When the pending senders
    /// are settled by rank they are not stored — `RESET()` is about to
    /// empty the lists — but merged with them on the rank walks
    /// ([`merged_bound`]), and the pending row is cleared; sender by
    /// sender, they are stored and the lists read.
    #[inline]
    pub(super) fn quorum_bounds(&mut self) -> (Value, Value) {
        let way = self.settle_way();
        let Some((true, Ranked { value, ranks, .. })) = way else {
            self.store_pending(way);
            return trim::bounds(self.low, self.high);
        };
        probe::bump(probe::QUORUM_BOUNDS);
        let pending = &mut *self.deferred.pending;
        let lo = merged_bound(self.low, value, ranks, pending, false);
        let hi = merged_bound(self.high, value, ranks, pending, true);
        pending.fill(0);
        self.deferred.count = 0;
        (lo, hi)
    }
}

/// What [`trim::bounds`] would read off `list` — `R_low`, or `R_high` when
/// `descending` — once every `pending` sender's wire value were stored in
/// it, with nothing stored: the `(f + 1)`-th least (greatest) value of the
/// list, padding included, and the pending values together.
///
/// The rank walk hands the pending values over in the list's own order.
/// Stored in that order, each one that enters displaces the list's last
/// slot, which is then always one the list held before the walk — a value
/// taken earlier precedes it — so all that moves is how many of the
/// list's own slots are still kept. A value enters while it precedes the
/// last of them; the first that does not ends the walk, as one that is not
/// pending does on the store walk. The bound is the later of the last slot
/// kept and the last value taken.
#[inline]
fn merged_bound(
    list: &[Value],
    value: &[Value],
    ranks: &Ranks,
    pending: &[u64],
    descending: bool,
) -> Value {
    let precedes = |a: Value, b: Value| if descending { a > b } else { a < b };
    let (mut kept, mut taken) = (list.len(), None);
    ranks.walk(descending, pending, |u, is_pending| {
        let enters = kept > 0 && precedes(value[u], list[kept - 1]);
        if enters && is_pending {
            kept -= 1;
            taken = Some(value[u]);
        }
        enters
    });
    match (kept.checked_sub(1).map(|slot| list[slot]), taken) {
        (Some(own), Some(taken)) if precedes(own, taken) => taken,
        (Some(own), _) => own,
        // Every slot displaced: the last value taken is the bound.
        (None, taken) => taken.unwrap_or(list[0]),
    }
}

/// The bits of a word below bit `b < 64`.
#[inline(always)]
pub(super) fn below(b: u32) -> u64 {
    (1 << b) - 1
}

/// The bits of a word up to and including bit `b < 64`.
#[inline(always)]
pub(super) fn through(b: u32) -> u64 {
    u64::MAX >> (63 - b)
}

/// The `k` lowest set bits of `bits` (all of them if it has no more).
#[inline]
fn lowest(bits: u64, k: u32) -> u64 {
    if bits.count_ones() <= k {
        return bits;
    }
    // The shortest prefix of the word holding `k` set bits: at most 63
    // long, since the highest set bit is not among them.
    let (mut short, mut long) = (0, 63);
    while short < long {
        let mid = (short + long) / 2;
        if (bits & below(mid)).count_ones() >= k {
            long = mid;
        } else {
            short = mid + 1;
        }
    }
    bits & below(short)
}

impl<R: Rule> RowKernel for Row<'_, R> {
    const WORDS: bool = true;

    #[inline(always)]
    fn live(&self) -> bool {
        self.phase.as_u64() < self.live_below
    }

    #[inline(always)]
    fn link(&mut self, key: Port, phase: Phase, value: Value) {
        let p = self.phase;
        if p.as_u64() >= self.pend {
            return;
        }
        if R::JUMPS && phase > p {
            self.jump(phase, value);
        } else if phase >= p {
            let (w, bit) = (key.index() / 64, 1 << (key.index() % 64));
            if self.seen_row[w] & bit == 0 {
                self.seen_row[w] |= bit;
                self.seen += 1;
                self.store(value);
                if self.seen >= self.foreign_quorum {
                    self.try_advance();
                }
            }
        }
    }

    #[inline(always)]
    fn batch(&mut self, key: Port, batch: &mut [Message]) {
        if R::ASCENDING_BATCHES {
            // As in `Dbac::receive`. Equal messages are indistinguishable,
            // so the in-place unstable sort is that same order without a
            // scratch.
            batch.sort_unstable();
        }
        for m in batch.iter() {
            self.link(key, m.phase(), m.value());
        }
    }

    #[inline(always)]
    fn word(&mut self, w: usize, bits: u64, wire: &StagedWire<'_>, index: &WireIndex) {
        match R::DEFERS_STORES {
            false => self.word_step(w, bits, wire, index),
            // (By the index its shard was handed, not by the walk's.)
            true => R::word_deferred(self, w, bits, wire),
        }
    }

    const RUNS: bool = !R::DEFERS_STORES;

    #[inline]
    fn run(&mut self, lo: usize, hi: usize, wire: &StagedWire<'_>, index: &WireIndex) {
        match R::DEFERS_STORES {
            false => self.run_step(lo, hi, wire, index),
            true => run_by_words(self, lo, hi, wire, index),
        }
    }

    #[inline]
    fn end_runs(&mut self, index: &WireIndex) {
        if self.holding > 0 {
            self.write_held(index);
        }
    }
}
