//! The per-round **wire index**: what a round's honest links carry, laid
//! out so a receiver can ask about 64 senders at once.
//!
//! Within one round every link from a sender that delivers to all its
//! chosen receivers carries that sender's start-of-round `(value, phase)`
//! snapshot, identical at every receiver (anonymity). So "is this sender
//! in my phase?" and "is it ahead of me?" are properties of the *sender*,
//! and per 64-sender word they are two masks. [`WireIndex`] holds them:
//! the sorted distinct wire phases, per phase a member mask per word with
//! that word's value extrema, and per rank the union of the member masks
//! from that rank up ("this phase or later"). A word kernel
//! ([`RowKernel::word`](crate::RowKernel::word)) then finds a word's new
//! same-phase links with `row ∧ same ∧ ¬seen` and the first sender ahead
//! with one more mask, and folds a fully covered word into its extrema
//! with two compares.
//!
//! The masks are **per phase**, not per-word phase summaries: an adversary
//! that staggers receiver groups by `id mod groups` leaves *every* word
//! holding every live phase. The number of distinct phases is capped at
//! [`MAX_WIRE_PHASES`] — a constant, so the arena is sized once at build
//! and a run whose phase count grows mid-run still allocates nothing; a
//! round with more falls back to the per-link walk.
//!
//! **Ranks.** Alg. 2's lists are order statistics — the `f + 1` least and
//! greatest of everything stored since `RESET()` — so its word kernel only
//! counts a word's links and reads their values later, once per quorum (or
//! stores them at the row's end), walking the round's senders *in
//! wire-value order* until nothing further can enter. An index built
//! [`WireIndex::ranked`] carries that order (`Ranks`): the indexed sender
//! ids sorted by wire value, and per block of consecutive ranks the id mask
//! of its senders, so that a stretch of ranks the receiver heard nothing
//! from is passed over with one AND per row word. Inside a block the walk
//! gathers the pending bits of [`GATHER`] ranks at a time into a mask,
//! without a branch, and visits only its set bits: "is this sender
//! pending?" is never a branch. `O(n)` words, built once per round, and
//! only for Alg. 2's planes.

use adn_graph::NodeSet;
use adn_types::{Phase, Value};

/// The most distinct wire phases a round may carry and still be indexed.
pub const MAX_WIRE_PHASES: usize = 8;

/// The index row that never has members: what a phase nobody is in maps
/// to.
const EMPTY_ROW: usize = MAX_WIRE_PHASES;

/// The most rank blocks a round is cut into ([`Ranks`]): what bounds the
/// block masks at `64 · n / 64` words, whatever `n`.
const MAX_RANK_BLOCKS: usize = 64;

/// Ranks a rank walk gathers per step ([`Ranks::walk`]). At n = 1024,
/// f = 16 under the threshold degree 16 measured ahead of both 8 and 64: a
/// narrower mask gathers as often for fewer pending bits, a wider one
/// gathers past where the walk stops.
pub(crate) const GATHER: usize = 16;

/// One round's wire index (see [the module docs](self)). Built by the
/// engine once per round over the senders whose links all deliver their
/// staged snapshot; senders that crash mid-broadcast or fabricate per
/// receiver are never in it.
#[derive(Debug, Clone)]
pub struct WireIndex {
    /// Words per row (`n.div_ceil(64)`).
    words: usize,
    /// The distinct wire phases, ascending, each with the row its members
    /// are kept in (rows are handed out in discovery order).
    phases: [(Phase, usize); MAX_WIRE_PHASES],
    len: usize,
    /// `member[row * words + w]`: the senders of word `w` in that row's
    /// phase. [`EMPTY_ROW`] stays zero.
    member: Vec<u64>,
    /// Least and greatest wire value among `member`'s senders, per word;
    /// meaningful where the member word is non-zero.
    lo: Vec<Value>,
    hi: Vec<Value>,
    /// `from[rank * words + w]`: the senders of word `w` whose phase has
    /// sorted rank `≥ rank`; rank `len` is empty.
    from: Vec<u64>,
    /// The indexed senders by wire value, on a [`WireIndex::ranked`] index.
    ranks: Option<Ranks>,
}

/// One round's indexed senders in wire-value order (see
/// [the module docs](self)): what a word kernel that defers its stores
/// settles them by.
#[derive(Debug, Clone)]
pub(crate) struct Ranks {
    words: usize,
    /// The indexed sender ids, by ascending wire value (ties in any order:
    /// equal values are indistinguishable to a list). Capacity `n`.
    order: Vec<u32>,
    /// Consecutive ranks per block: at least 64, and enough that
    /// [`MAX_RANK_BLOCKS`] blocks cover `order`.
    block_len: usize,
    /// `blocks[b * words + w]`: the senders of word `w` whose rank lies in
    /// block `b`.
    blocks: Vec<u64>,
}

/// Where one receiver phase sits in a [`WireIndex`]
/// ([`WireIndex::locate`]): which row holds the senders in that phase and
/// which holds the senders ahead of it.
#[derive(Debug, Clone, Copy)]
pub struct WireAt {
    same: usize,
    ahead: usize,
}

impl WireIndex {
    /// An index for rounds over `n` senders, with room for
    /// [`MAX_WIRE_PHASES`] phases.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        let rows = (MAX_WIRE_PHASES + 1) * words;
        WireIndex {
            words,
            phases: [(Phase::ZERO, EMPTY_ROW); MAX_WIRE_PHASES],
            len: 0,
            member: vec![0; rows],
            lo: vec![Value::HALF; rows],
            hi: vec![Value::HALF; rows],
            from: vec![0; rows],
            ranks: None,
        }
    }

    /// [`WireIndex::new`], plus room for the round's rank order, which every
    /// [`WireIndex::build`] then rebuilds: the index of a plane whose word
    /// kernel settles by rank
    /// ([`PlaneShard::ranks_words`](crate::PlaneShard::ranks_words)).
    ///
    /// # Panics
    ///
    /// Panics if `n` sender ids do not fit `u32`.
    pub fn ranked(n: usize) -> Self {
        assert!(u32::try_from(n).is_ok(), "sender ids must fit u32");
        let words = n.div_ceil(64);
        WireIndex {
            ranks: Some(Ranks {
                words,
                order: Vec::with_capacity(n),
                block_len: 64,
                blocks: vec![0; MAX_RANK_BLOCKS.min(words) * words],
            }),
            ..WireIndex::new(n)
        }
    }

    /// Rebuilds the index over the senders in `present`, whose wire
    /// snapshots are `phase[u]` / `value[u]`. Returns `false` — leaving
    /// the index unusable until the next build — when they span more than
    /// [`MAX_WIRE_PHASES`] distinct phases.
    ///
    /// # Panics
    ///
    /// Panics if `present` is not over the `n` the index was sized for.
    pub fn build(&mut self, present: &NodeSet, phase: &[Phase], value: &[Value]) -> bool {
        let words = self.words;
        assert_eq!(present.words().len(), words, "universe mismatch");
        self.len = 0;
        // Consecutive senders mostly share a phase: look the row up only
        // when it changes.
        let mut current = (None, EMPTY_ROW);
        for (w, bits) in present.iter_words() {
            for u in ids(w, bits) {
                if current.0 != Some(phase[u]) {
                    let known = self.phases[..self.len].iter().find(|(q, _)| *q == phase[u]);
                    let row = match known {
                        Some(&(_, row)) => row,
                        None if self.len == MAX_WIRE_PHASES => return false,
                        None => {
                            let row = self.len;
                            self.phases[row] = (phase[u], row);
                            self.len += 1;
                            self.member[row * words..(row + 1) * words].fill(0);
                            row
                        }
                    };
                    current = (Some(phase[u]), row);
                }
                let i = current.1 * words + w;
                if self.member[i] == 0 {
                    (self.lo[i], self.hi[i]) = (value[u], value[u]);
                } else if value[u] < self.lo[i] {
                    self.lo[i] = value[u];
                } else if value[u] > self.hi[i] {
                    self.hi[i] = value[u];
                }
                self.member[i] |= 1 << (u % 64);
            }
        }
        self.phases[..self.len].sort_unstable();
        self.from[self.len * words..(self.len + 1) * words].fill(0);
        for rank in (0..self.len).rev() {
            let row = self.phases[rank].1;
            for w in 0..words {
                self.from[rank * words + w] =
                    self.from[(rank + 1) * words + w] | self.member[row * words + w];
            }
        }
        if let Some(ranks) = &mut self.ranks {
            ranks.build(present, value);
        }
        true
    }

    /// The round's senders in wire-value order, on an index built
    /// [`WireIndex::ranked`].
    #[inline]
    pub(crate) fn ranks(&self) -> Option<&Ranks> {
        self.ranks.as_ref()
    }

    /// Where a receiver in phase `p` stands among this round's senders.
    #[inline]
    pub fn locate(&self, p: Phase) -> WireAt {
        let phases = &self.phases[..self.len];
        let rank = phases.iter().take_while(|(q, _)| *q < p).count();
        match phases.get(rank) {
            Some(&(q, row)) if q == p => WireAt {
                same: row * self.words,
                ahead: (rank + 1) * self.words,
            },
            _ => WireAt {
                same: EMPTY_ROW * self.words,
                ahead: rank * self.words,
            },
        }
    }

    /// The senders of word `w` whose wire phase is the located one.
    #[inline]
    pub fn same(&self, at: WireAt, w: usize) -> u64 {
        self.member[at.same + w]
    }

    /// The senders of word `w` whose wire phase is past the located one.
    #[inline]
    pub fn ahead(&self, at: WireAt, w: usize) -> u64 {
        self.from[at.ahead + w]
    }

    /// Least and greatest wire value over the senders `subset` of word
    /// `w` — a non-empty subset of [`WireIndex::same`]`(at, w)`, whose
    /// values are `value[w * 64 + b]`. The word's stored extrema are over
    /// the **whole** member set, so they answer only when the senders left
    /// out hold neither of them — none is left out (two loads for a fully
    /// covered word), the members all hold one value, or every sender left
    /// out lies strictly between the two; otherwise the subset is folded
    /// sender by sender.
    #[inline]
    pub fn extrema_of(&self, at: WireAt, w: usize, subset: u64, value: &[Value]) -> (Value, Value) {
        let (lo, hi) = (self.lo[at.same + w], self.hi[at.same + w]);
        let left_out = self.member[at.same + w] ^ subset;
        let inside = |u: usize| lo < value[u] && value[u] < hi;
        let cheap = || left_out.count_ones() <= subset.count_ones();
        // (`lo >= hi`, not `==`: `Value`'s order tells `-0.0` from `0.0`.)
        if left_out == 0 || lo >= hi || cheap() && ids(w, left_out).all(inside) {
            return (lo, hi);
        }
        let mut ids = ids(w, subset);
        let first = value[ids.next().unwrap_or(w * 64)];
        ids.fold((first, first), |(lo, hi), u| {
            (lo.min(value[u]), hi.max(value[u]))
        })
    }
}

impl Ranks {
    fn build(&mut self, present: &NodeSet, value: &[Value]) {
        let words = self.words;
        self.order.clear();
        for (w, bits) in present.iter_words() {
            // (Ids fit: `ranked` checked `n`, and the capacity is `n`.)
            self.order.extend(ids(w, bits).map(|u| u as u32));
        }
        self.order.sort_unstable_by_key(|&u| value[u as usize]);
        self.block_len = self.order.len().div_ceil(MAX_RANK_BLOCKS).max(64);
        let blocks = self.order.len().div_ceil(self.block_len);
        self.blocks[..blocks * words].fill(0);
        for (rank, &u) in self.order.iter().enumerate() {
            let block = rank / self.block_len;
            self.blocks[block * words + u as usize / 64] |= 1 << (u % 64);
        }
    }

    /// How many senders the round ranks: the indexed ones.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// Visits the ranked senders in wire-value order — least value first,
    /// or greatest first when `descending` — as `visit(u, is_pending)`
    /// until that returns `false`, `pending` being a sender-id bit row.
    /// Each block of ranks is visited by its head, whatever it is (it may
    /// be where the walk stops); a block none of whose senders is pending
    /// is then passed over at one AND per row word; and the rest of a block
    /// is gathered [`GATHER`] ranks at a time into a mask of their pending
    /// bits, of which only the set ones are visited. So past a block's head
    /// only pending senders are visited, and the caller's stop at one of
    /// them is what bounds the walk: a sender that is not pending cannot
    /// enter a list where the next pending one, further along, does.
    #[inline]
    pub(crate) fn walk(
        &self,
        descending: bool,
        pending: &[u64],
        mut visit: impl FnMut(usize, bool) -> bool,
    ) {
        let (len, words) = (self.order.len(), self.words);
        let blocks = len.div_ceil(self.block_len);
        for i in 0..blocks {
            let b = if descending { blocks - 1 - i } else { i };
            let block = &self.order[b * self.block_len..len.min((b + 1) * self.block_len)];
            let split = match descending {
                false => block.split_first(),
                true => block.split_last(),
            };
            let Some((&head, rest)) = split else {
                return;
            };
            crate::probe::bump(crate::probe::RANK_VISITS);
            if !visit(head as usize, gather(&[head], pending) == 1) {
                return;
            }
            crate::probe::bump(crate::probe::RANK_VISITS);
            let members = &self.blocks[b * words..(b + 1) * words];
            if members.iter().zip(pending).all(|(m, p)| m & p == 0) {
                continue;
            }
            // Visits the set bits of `mask`, bit `k` standing for `chunk[k]`,
            // in walk order.
            let mut visit_chunk = |chunk: &[u32], mut mask: u32| {
                crate::probe::add(crate::probe::RANK_VISITS, chunk.len() as u64);
                while mask != 0 {
                    let k = match descending {
                        false => mask.trailing_zeros(),
                        true => 31 - mask.leading_zeros(),
                    };
                    mask ^= 1 << k;
                    if !visit(chunk[k as usize] as usize, true) {
                        return false;
                    }
                }
                true
            };
            let finished = match descending {
                false => {
                    let (full, tail) = rest.as_chunks::<GATHER>();
                    full.iter().all(|c| visit_chunk(c, gather(c, pending)))
                        && visit_chunk(tail, gather(tail, pending))
                }
                true => {
                    let (head, full) = rest.as_rchunks::<GATHER>();
                    full.iter()
                        .rev()
                        .all(|c| visit_chunk(c, gather(c, pending)))
                        && visit_chunk(head, gather(head, pending))
                }
            };
            if !finished {
                return;
            }
        }
    }
}

/// The pending bits of `chunk`'s senders in a mask, bit `k` for `chunk[k]`:
/// one shift, AND and OR per sender and no branch — unrolled where the
/// chunk is a full one of [`GATHER`].
#[inline(always)]
fn gather(chunk: &[u32], pending: &[u64]) -> u32 {
    let mut mask = 0;
    for (k, &u) in chunk.iter().enumerate() {
        mask |= ((pending[u as usize >> 6] >> (u & 63) & 1) as u32) << k;
    }
    mask
}

/// The sender ids of the set bits of word `w`, ascending.
#[inline]
pub(crate) fn ids(w: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let u = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            u
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_types::rng::SplitMix64;
    use adn_types::NodeId;

    /// The index against its definition, sender by sender: random present
    /// sets and phase assignments (0 to the cap's distinct phases, mixed
    /// inside every word), queried at every phase around the ones in use.
    #[test]
    fn index_matches_per_sender_definition() {
        for seed in 0..200 {
            let mut rng = SplitMix64::new(seed);
            let n = [1usize, 5, 64, 65, 130, 200][rng.next_index(6)];
            let distinct = 1 + rng.next_index(MAX_WIRE_PHASES);
            let base = rng.next_below(3);
            let phase: Vec<Phase> = (0..n)
                .map(|_| Phase::new(base + 2 * rng.next_below(distinct as u64)))
                .collect();
            let value: Vec<Value> = (0..n)
                .map(|_| Value::saturating(rng.next_below(9) as f64 / 8.0))
                .collect();
            let present =
                NodeSet::from_ids(n, (0..n).filter(|_| rng.next_bool(0.7)).map(NodeId::new));
            // A used index must rebuild as a fresh one does.
            let mut index = WireIndex::new(n);
            let full = NodeSet::full(n);
            assert!(index.build(&full, &vec![Phase::new(9); n], &value));
            assert!(index.build(&present, &phase, &value), "seed {seed}");
            for p in (0..base + 2 * distinct as u64 + 2).map(Phase::new) {
                let at = index.locate(p);
                for w in 0..n.div_ceil(64) {
                    let ids = |keep: &dyn Fn(usize) -> bool| -> Vec<usize> {
                        (w * 64..n.min(w * 64 + 64))
                            .filter(|&u| present.contains(NodeId::new(u)) && keep(u))
                            .collect()
                    };
                    let word = |ids: &[usize]| ids.iter().fold(0u64, |m, u| m | 1 << (u % 64));
                    let same = ids(&|u| phase[u] == p);
                    assert_eq!(index.same(at, w), word(&same), "seed {seed} {p} word {w}");
                    let ahead = ids(&|u| phase[u] > p);
                    assert_eq!(index.ahead(at, w), word(&ahead), "seed {seed} {p} word {w}");
                    // Extrema of the whole member set and of random
                    // subsets of it (values repeat, so a left-out sender
                    // often ties with an extreme).
                    for keep in [1.0, 0.9, 0.5, 0.1] {
                        let subset: Vec<usize> = same
                            .iter()
                            .copied()
                            .filter(|_| rng.next_bool(keep))
                            .collect();
                        if !subset.is_empty() {
                            let lo = subset.iter().map(|&u| value[u]).min().unwrap();
                            let hi = subset.iter().map(|&u| value[u]).max().unwrap();
                            let got = index.extrema_of(at, w, word(&subset), &value);
                            assert_eq!(got, (lo, hi), "seed {seed} {p} word {w} keep {keep}");
                        }
                    }
                }
            }
        }
    }

    /// The rank order against its definition: the indexed senders by
    /// ascending wire value (with ties), and a walk that shows every
    /// pending sender, in that order or its reverse, and of the others at
    /// most the blocks' heads — up to where the visitor stops it.
    /// `n = 5000` takes blocks longer than 64 ranks, and chunks that end
    /// short of [`GATHER`].
    #[test]
    fn ranks_match_their_definition() {
        for seed in 0..60 {
            let mut rng = SplitMix64::new(seed);
            let n = [1usize, 5, 64, 65, 130, 200, 5000][rng.next_index(7)];
            let grid = 2 + rng.next_below(40);
            let value: Vec<Value> = (0..n)
                .map(|_| Value::saturating(rng.next_below(grid) as f64 / (grid - 1) as f64))
                .collect();
            let phase = vec![Phase::ZERO; n];
            let mut index = WireIndex::ranked(n);
            assert!(WireIndex::new(n).ranks().is_none());
            for keep in [1.0, 0.6, 0.0] {
                let present =
                    NodeSet::from_ids(n, (0..n).filter(|_| rng.next_bool(keep)).map(NodeId::new));
                assert!(index.build(&present, &phase, &value));
                let ranks = index.ranks().unwrap();
                assert_eq!(ranks.len(), present.len());
                let pending = NodeSet::from_ids(n, present.iter().filter(|_| rng.next_bool(0.4)));
                let mut wanted: Vec<(Value, usize)> = pending
                    .iter()
                    .map(|u| (value[u.index()], u.index()))
                    .collect();
                wanted.sort();
                for descending in [false, true] {
                    let (mut shown, mut last, mut heads) = (Vec::new(), None, 0);
                    ranks.walk(descending, pending.words(), |u, is_pending| {
                        assert!(present.contains(NodeId::new(u)), "seed {seed}");
                        assert_eq!(is_pending, pending.contains(NodeId::new(u)), "seed {seed}");
                        let in_order = last.is_none_or(|before| match descending {
                            false => before <= value[u],
                            true => before >= value[u],
                        });
                        assert!(in_order, "seed {seed}: {u} out of order");
                        last = Some(value[u]);
                        shown.extend(is_pending.then_some(value[u]));
                        heads += usize::from(!is_pending);
                        true
                    });
                    let blocks = ranks.len().div_ceil(ranks.block_len);
                    assert!(
                        heads <= blocks,
                        "seed {seed}: {heads} senders not pending shown"
                    );
                    let mut values: Vec<Value> = wanted.iter().map(|&(v, _)| v).collect();
                    if descending {
                        values.reverse();
                    }
                    assert_eq!(shown, values, "seed {seed} descending {descending}");
                    // And a visitor that stops is not called again.
                    let stop_at = rng.next_index(n);
                    let mut visits = 0;
                    ranks.walk(descending, pending.words(), |_, _| {
                        visits += 1;
                        visits <= stop_at
                    });
                    assert!(visits <= stop_at + 1, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn more_phases_than_the_cap_refuse_to_index() {
        let n = 70;
        let value = vec![Value::HALF; n];
        let phase: Vec<Phase> = (0..n as u64).map(|u| Phase::new(u % 9)).collect();
        let mut index = WireIndex::new(n);
        assert!(!index.build(&NodeSet::full(n), &phase, &value));
        // Only the senders present count, and a refused build leaves
        // nothing behind that the next one trips over.
        let eight = NodeSet::from_ids(n, (0..n).filter(|u| u % 9 != 4).map(NodeId::new));
        assert!(index.build(&eight, &phase, &value));
        let at = index.locate(Phase::new(4));
        assert_eq!((index.same(at, 0), index.same(at, 1)), (0, 0));
        // Ids 64..70 carry phases 1..=6: 68 and 69 are past phase 4.
        assert_eq!(index.ahead(at, 1), 0b11_0000);
    }
}
