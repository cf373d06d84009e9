//! `R_i` as bit rows: the one home of the columnar planes' seen-row layout.
//!
//! **The sender key.** `R_i` — the set of ports a node has counted in its
//! phase — is only ever tested for distinctness, and §II-A's numbering is
//! a static bijection between a receiver's ports and its senders: "ports
//! seen" and "senders seen" are one set under a relabelling no algorithm
//! can observe. The engine therefore keys the columnar kernels' seen rows
//! by **sender id** — no port lookup, and bit `u` of a receiver's seen row
//! lines up with bit `u` of its link row — while the boxed plane, the
//! oracle, keeps real ports (see [`RowKernel`](super::RowKernel) for the
//! contract, and [`AlgorithmPlane::receive`](super::AlgorithmPlane::receive)
//! for the callers that bring their own key).
//!
//! **The layout.** One row of `⌈n/64⌉` words per slot, bit `k` for key
//! `k`, and the number of keys counted beside it. Behind the slot rows,
//! under a rule that defers its stores, sit one **pending** row per shard
//! the plane can be split into: the senders a word step counted whose
//! values are not in the lists yet, all zero whenever no receiver's row is
//! being delivered. At `n = 100 000` the slot rows are `n²` bits, 1.25 GB:
//! the plane's one `O(n²)` structure.

use adn_types::Port;

use super::take_split;

/// Every slot's seen row and count, and the pending rows behind them (see
/// [the module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct SeenRows {
    /// Words per row (`n.div_ceil(64)`).
    row_words: usize,
    /// The slot rows, then the pending rows.
    words: Vec<u64>,
    /// Keys counted per slot: its foreign same-phase contributions,
    /// `|R_i| - 1`.
    count: Vec<u32>,
}

impl SeenRows {
    /// `slots` empty rows over keys `0..n`, and `pending_rows` pending rows
    /// behind them.
    pub(super) fn new(n: usize, slots: usize, pending_rows: usize) -> Self {
        let row_words = n.div_ceil(64);
        SeenRows {
            row_words,
            words: vec![0; (slots + pending_rows) * row_words],
            count: vec![0; slots],
        }
    }

    /// Every row as one [`Seen`] view, the slot rows split from the
    /// pending ones.
    #[inline]
    pub(super) fn view(&mut self) -> Seen<'_> {
        let (rows, pending) = self.words.split_at_mut(self.count.len() * self.row_words);
        Seen {
            row_words: self.row_words,
            rows,
            pending,
            count: &mut self.count,
        }
    }

    /// Slot `v`'s count.
    #[cfg(test)]
    pub(super) fn count(&self, v: usize) -> u32 {
        self.count[v]
    }
}

/// The seen rows and counts of a range of slots, and the pending rows
/// behind them, as disjoint `&mut` slices: all of a [`SeenRows`], or one
/// shard's part of it ([`Seen::split_front`]). Slots are indexed from the
/// range's start.
#[derive(Debug)]
pub(super) struct Seen<'a> {
    row_words: usize,
    rows: &'a mut [u64],
    /// Every pending row of the plane, or the one of this shard; none
    /// under a rule that does not defer its stores.
    pending: &'a mut [u64],
    count: &'a mut [u32],
}

impl<'a> Seen<'a> {
    /// `RESET()`'s part: slot `v` has counted no key.
    #[inline]
    pub(super) fn reset(&mut self, v: usize) {
        let row = v * self.row_words;
        self.rows[row..row + self.row_words].fill(0);
        self.count[v] = 0;
    }

    /// Counts `key` at slot `v`: whether it is new to the slot's row (a
    /// key already there changes nothing).
    #[inline(always)]
    pub(super) fn insert(&mut self, v: usize, key: Port) -> bool {
        let (w, b) = (key.index() / 64, key.index() % 64);
        let slot = &mut self.rows[v * self.row_words + w];
        if *slot & (1 << b) != 0 {
            return false;
        }
        *slot |= 1 << b;
        self.count[v] += 1;
        true
    }

    /// How many keys slot `v` has counted.
    #[inline(always)]
    pub(super) fn count(&self, v: usize) -> u32 {
        self.count[v]
    }

    /// Slot `v`'s count and row, and this range's pending row (empty
    /// under a rule that does not defer its stores): what a row kernel
    /// holds for the length of the slot's row.
    #[inline]
    pub(super) fn row(&mut self, v: usize) -> (&mut u32, &mut [u64], &mut [u64]) {
        let count = &mut self.count[v];
        let row = v * self.row_words;
        let words = &mut self.rows[row..row + self.row_words];
        (count, words, &mut *self.pending)
    }

    /// The shard split: takes the first `slots` slots' rows and counts off
    /// the front — with one pending row, if there are any — leaving the
    /// rest for the next shards.
    pub(super) fn split_front(&mut self, slots: usize) -> Seen<'a> {
        let pending_words = if self.pending.is_empty() {
            0
        } else {
            self.row_words
        };
        Seen {
            row_words: self.row_words,
            rows: take_split(&mut self.rows, slots * self.row_words),
            pending: take_split(&mut self.pending, pending_words),
            count: take_split(&mut self.count, slots),
        }
    }
}
