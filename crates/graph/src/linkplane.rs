//! Sparse/hybrid per-receiver link rows for large systems.
//!
//! [`EdgeSet`] stores one round's links as `n` dense bit rows — `n²/8`
//! bytes no matter how few links the adversary actually chooses. That is
//! the right trade below a few thousand nodes (word-parallel everything),
//! but at `n = 100 000` a single bitmap is 1.25 GB and the engine keeps
//! three. Most gallery adversaries, however, produce *structured* rows:
//!
//! * Rotating / Staggered / Partition / Theorem10 / Isolate / Eventually /
//!   Complete rows are unions of at most a few **id ranges** of the round's
//!   deliverer set — O(1) words per receiver regardless of degree;
//! * Spread / Random / AdaptiveClosest / Alternating / Omit rows are either
//!   bounded-degree or exact small lists — a **CSR** row of sender ids.
//!
//! [`LinkPlane`] stores exactly that: per receiver, either up to
//! [`MAX_RUNS_PER_ROW`] inclusive id ranges (interpreted against the
//! round's deliverer set, self-loop stripped — the same semantics as
//! [`EdgeSet::insert_range_from`]) or a contiguous CSR slice of exact
//! sender ids. Reads go through [`LinkRows`], the row-access trait that
//! [`EdgeSet`] also implements, so the delivery engine and the window
//! checker compile against one interface. Writes go through its other
//! half, [`LinkSink`]: an adversary states a round's links once, as runs
//! and exact links, and the same calls fill a [`LinkPlane`] or — through
//! the [`DenseLinks`] view — an [`EdgeSet`], bit for bit.

use std::fmt;

use adn_types::NodeId;

use crate::{EdgeSet, NodeSet};

/// Maximum id ranges a run-shaped row may hold. Four covers every gallery
/// adversary: a rotating window wraps into two ranges, and excluding one
/// id (the receiver's rank reduction or an omitted sender) splits each
/// range at most once more.
pub const MAX_RUNS_PER_ROW: usize = 4;

/// Read access to one round's per-receiver link rows.
///
/// The one required walk is [`LinkRows::scan_in`] — visit a receiver's
/// in-neighbors in ascending id order, from a resume point, until told to
/// stop — from which [`LinkRows::for_each_in`], the word-at-a-time
/// [`LinkRows::scan_words_in`] and the aggregate defaults derive.
/// [`EdgeSet`] (dense bit rows) and
/// [`LinkPlane`] (runs / CSR rows) both implement it, so consumers like
/// the delivery loop and [`WindowUnion`](crate::WindowUnion) are written
/// once against the trait.
pub trait LinkRows {
    /// Number of nodes.
    fn n(&self) -> usize;

    /// Calls `f` for the in-neighbors of `v` with id `≥ from`, ascending,
    /// until it returns `false`; returns the in-neighbor that ended the
    /// scan (`None` once the row is exhausted). Scanning again from that
    /// id `+ 1` continues the row — how the delivery loop leaves a row at
    /// a sender that needs per-link work and comes back behind it.
    fn scan_in(&self, v: NodeId, from: usize, f: impl FnMut(NodeId) -> bool) -> Option<NodeId>;

    /// Calls `f(w, bits)` for `v`'s in-neighbors one 64-id word at a time
    /// — bit `b` of `bits` is sender `w * 64 + b` — until it returns
    /// `false`. Chunks are non-empty and ascend: every sender of a chunk
    /// has a higher id than every sender of the chunk before it, so one
    /// word may arrive as several chunks (two runs of a run row meeting
    /// inside it). How the delivery loop feeds a kernel 64 senders per
    /// step. The default groups [`LinkRows::scan_in`]'s ids; dense rows
    /// hand out their words, run rows `deliverers ∧ range`.
    #[inline]
    fn scan_words_in(&self, v: NodeId, f: impl FnMut(usize, u64) -> bool) {
        scan_words_by_id(self, v, f);
    }

    /// Calls `f` for every in-neighbor of `v`, ascending by id.
    #[inline]
    fn for_each_in(&self, v: NodeId, mut f: impl FnMut(NodeId)) {
        self.scan_in(v, 0, |u| {
            f(u);
            true
        });
    }

    /// Number of distinct in-neighbors of `v`.
    fn in_degree(&self, v: NodeId) -> usize {
        let mut c = 0;
        self.for_each_in(v, |_| c += 1);
        c
    }

    /// Whether `u` is an in-neighbor of `v` — the membership test the
    /// delivery loop's permutation orders ask per `(sender, receiver)`.
    /// The default scans the row; dense rows answer with one bit test.
    fn contains(&self, u: NodeId, v: NodeId) -> bool {
        let mut hit = false;
        self.for_each_in(v, |w| hit |= w == u);
        hit
    }

    /// Number of in-neighbors of `v` that are also in `mask` — how the
    /// delivery loop counts the links of a row it stopped walking. The
    /// default scans the row; dense and run rows count whole words.
    ///
    /// # Panics
    ///
    /// Panics if `mask` is not over [`LinkRows::n`] nodes.
    fn in_degree_within(&self, v: NodeId, mask: &NodeSet) -> usize {
        let mut c = 0;
        self.for_each_in(v, |u| c += usize::from(mask.contains(u)));
        c
    }

    /// ORs `v`'s in-neighbors that are also in `mask` into `out` — how
    /// the delivery loop records a receiver's realized links from
    /// unconditionally delivering senders. The default inserts link by
    /// link; dense and run rows do it one word at a time.
    ///
    /// # Panics
    ///
    /// Panics if `mask` or `out` is not over [`LinkRows::n`] nodes.
    fn union_in_masked(&self, v: NodeId, mask: &NodeSet, out: &mut NodeSet) {
        self.for_each_in(v, |u| {
            if mask.contains(u) {
                out.insert(u);
            }
        });
    }

    /// Calls `f` for every `(sender, receiver)` pair, receiver-major and
    /// ascending-sender within a receiver.
    fn for_each_edge(&self, mut f: impl FnMut(NodeId, NodeId)) {
        for v_idx in 0..self.n() {
            let v = NodeId::new(v_idx);
            self.for_each_in(v, |u| f(u, v));
        }
    }

    /// Total number of directed links.
    fn edge_count(&self) -> usize {
        let mut c = 0;
        for v_idx in 0..self.n() {
            c += self.in_degree(NodeId::new(v_idx));
        }
        c
    }

    /// Minimum in-degree over a set of receivers (`None` if empty).
    fn min_in_degree_over_set(&self, receivers: &NodeSet) -> Option<usize> {
        let mut min = None;
        receivers.for_each(|v| {
            let d = self.in_degree(v);
            min = Some(min.map_or(d, |m: usize| m.min(d)));
        });
        min
    }
}

/// [`LinkRows::scan_words_in`] for rows that only know their ids:
/// [`LinkRows::scan_in`]'s ascending ids, grouped by word.
#[inline]
fn scan_words_by_id<L: LinkRows + ?Sized>(
    rows: &L,
    v: NodeId,
    mut f: impl FnMut(usize, u64) -> bool,
) {
    let (mut w, mut bits, mut go) = (0, 0u64, true);
    rows.scan_in(v, 0, |u| {
        let (uw, ub) = (u.index() / 64, u.index() % 64);
        if uw != w && bits != 0 {
            go = f(w, bits);
            bits = 0;
        }
        (w, bits) = (uw, bits | 1 << ub);
        go
    });
    if go && bits != 0 {
        f(w, bits);
    }
}

impl LinkRows for EdgeSet {
    fn n(&self) -> usize {
        EdgeSet::n(self)
    }

    #[inline]
    fn scan_in(&self, v: NodeId, from: usize, f: impl FnMut(NodeId) -> bool) -> Option<NodeId> {
        self.in_neighbors(v).scan_from(from, f)
    }

    #[inline]
    fn scan_words_in(&self, v: NodeId, mut f: impl FnMut(usize, u64) -> bool) {
        for (w, &bits) in self.in_neighbors(v).words().iter().enumerate() {
            if bits != 0 && !f(w, bits) {
                return;
            }
        }
    }

    fn in_degree(&self, v: NodeId) -> usize {
        EdgeSet::in_degree(self, v)
    }

    #[inline]
    fn contains(&self, u: NodeId, v: NodeId) -> bool {
        EdgeSet::contains(self, u, v)
    }

    fn in_degree_within(&self, v: NodeId, mask: &NodeSet) -> usize {
        self.in_neighbors(v).intersection_len(mask)
    }

    #[inline]
    fn union_in_masked(&self, v: NodeId, mask: &NodeSet, out: &mut NodeSet) {
        out.union_masked(self.in_neighbors(v), mask);
    }

    fn edge_count(&self) -> usize {
        EdgeSet::edge_count(self)
    }
}

/// Write access to one round's per-receiver link rows — the other half of
/// [`LinkRows`], and the only way the adversary gallery emits `E(t)`.
///
/// The operations are the shapes a link choice comes in: a **run**
/// (`deliverers ∩ {lo..=hi} \ {v}` — "everyone alive in this id range"),
/// a run split around one excluded sender, and **exact** senders, one at
/// a time or a 64-id word at a time. [`LinkPlane`] records them (runs in
/// O(1), exact senders as a CSR row); [`DenseLinks`] ORs them into an
/// [`EdgeSet`] row. Every operation only *adds* links, so a choice written
/// against this trait yields the same link set on both.
///
/// Per row and round a writer uses runs or exact senders, never both, at
/// most [`MAX_RUNS_PER_ROW`] runs, and pushes a row's exact senders
/// consecutively, ascending, without the receiver itself — what the
/// sparse rows need; the dense view does not care.
pub trait LinkSink {
    /// Adds `deliverers ∩ {lo..=hi} \ {v}` to `v`'s row.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi` is out of range.
    fn push_run(&mut self, v: NodeId, lo: NodeId, hi: NodeId);

    /// Adds `deliverers ∩ {lo..=hi} \ {v, except}` to `v`'s row: the
    /// range split around one excluded sender (an omitted node, an
    /// isolation victim) — zero, one, or two runs.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`LinkSink::push_run`].
    #[inline]
    fn push_run_except(&mut self, v: NodeId, lo: NodeId, hi: NodeId, except: NodeId) {
        let e = except.index();
        if e < lo.index() || e > hi.index() {
            self.push_run(v, lo, hi);
            return;
        }
        if e > lo.index() {
            self.push_run(v, lo, NodeId::new(e - 1));
        }
        if e < hi.index() {
            self.push_run(v, NodeId::new(e + 1), hi);
        }
    }

    /// Adds the exact link `(u, v)` — *not* intersected with the
    /// deliverer set.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    fn push_link(&mut self, v: NodeId, u: NodeId);

    /// Adds the exact senders `w * 64 + b`, one per set bit `b` of `bits`
    /// — [`LinkSink::push_link`] for a whole word of a bit row, which
    /// dense rows take as one OR.
    ///
    /// # Panics
    ///
    /// Panics if a sender is out of range.
    #[inline]
    fn push_word(&mut self, v: NodeId, w: usize, mut bits: u64) {
        while bits != 0 {
            self.push_link(v, NodeId::new(w * 64 + bits.trailing_zeros() as usize));
            bits &= bits - 1;
        }
    }
}

/// The dense [`LinkSink`]: an [`EdgeSet`] together with the round's
/// deliverer set its runs are cut from (a [`LinkPlane`] carries its own).
#[derive(Debug)]
pub struct DenseLinks<'a> {
    rows: &'a mut EdgeSet,
    deliverers: &'a NodeSet,
}

impl<'a> DenseLinks<'a> {
    /// A sink that ORs links into `rows`, reading runs against
    /// `deliverers`.
    pub fn new(rows: &'a mut EdgeSet, deliverers: &'a NodeSet) -> Self {
        DenseLinks { rows, deliverers }
    }
}

impl LinkSink for DenseLinks<'_> {
    #[inline]
    fn push_run(&mut self, v: NodeId, lo: NodeId, hi: NodeId) {
        self.rows.insert_range_from(v, self.deliverers, lo, hi);
    }

    #[inline]
    fn push_link(&mut self, v: NodeId, u: NodeId) {
        self.rows.insert(u, v);
    }

    #[inline]
    fn push_word(&mut self, v: NodeId, w: usize, bits: u64) {
        debug_assert!(
            w != v.index() / 64 || bits >> (v.index() % 64) & 1 == 0,
            "self-loops are not part of the model"
        );
        let row = &mut self.rows.in_neighbor_sets_mut()[v.index()];
        row.set_word(w, row.word(w) | bits);
    }
}

/// One round's links in sparse/hybrid form: per receiver, either up to
/// [`MAX_RUNS_PER_ROW`] id ranges of the round's deliverer set or an
/// exact CSR list of sender ids.
///
/// Row semantics:
///
/// * a **run** `(lo, hi)` (inclusive) contributes
///   `deliverers ∩ {lo..=hi} \ {v}` — exactly what
///   [`EdgeSet::insert_range_from`] inserts. Runs may overlap and arrive
///   unsorted (a rotating window wraps; Theorem 10's overlap nodes belong
///   to two groups); reads sort and coalesce them on the stack first, so
///   each link is visited once, ascending.
/// * a **CSR** row holds the exact ascending sender ids pushed via
///   [`LinkSink::push_link`] — *not* intersected with the deliverer set:
///   a precomputed burst (Alternating) is copied verbatim.
///
/// A row uses one kind per round; mixing runs and CSR in the same row is
/// a caller bug (debug-asserted). All storage is allocated once and
/// reused: [`LinkPlane::begin_round`] is a capacity-preserving clear.
///
/// ```
/// use adn_graph::{LinkPlane, LinkRows, LinkSink, NodeSet};
/// use adn_types::NodeId;
///
/// let mut lp = LinkPlane::new(6);
/// lp.begin_round(&NodeSet::full(6));
/// lp.push_run(NodeId::new(0), NodeId::new(2), NodeId::new(4));
/// let row: Vec<usize> = {
///     let mut v = Vec::new();
///     lp.for_each_in(NodeId::new(0), |u| v.push(u.index()));
///     v
/// };
/// assert_eq!(row, vec![2, 3, 4]);
/// assert_eq!(lp.in_degree(NodeId::new(0)), 3);
/// ```
#[derive(Clone)]
pub struct LinkPlane {
    n: usize,
    /// The round's transmitting senders — the base set run rows intersect.
    deliverers: NodeSet,
    /// Flat `n × MAX_RUNS_PER_ROW` inclusive id ranges.
    runs: Vec<(u32, u32)>,
    /// Number of valid runs per receiver row.
    runs_len: Vec<u8>,
    /// CSR row starts into `csr_items` (valid iff `csr_len[v] > 0` or the
    /// row is being filled).
    csr_start: Vec<u32>,
    /// CSR row lengths.
    csr_len: Vec<u32>,
    /// Shared pool of CSR sender ids; each row is one contiguous slice.
    csr_items: Vec<u32>,
}

impl LinkPlane {
    /// An empty plane over `n` nodes. The CSR pool starts empty and grows
    /// to the busiest round's total degree, then is reused.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not fit the plane's 32-bit id encoding.
    pub fn new(n: usize) -> Self {
        assert!(n < u32::MAX as usize, "n = {n} exceeds the 32-bit id space");
        LinkPlane {
            n,
            deliverers: NodeSet::new(n),
            runs: vec![(0, 0); n * MAX_RUNS_PER_ROW],
            runs_len: vec![0; n],
            csr_start: vec![0; n],
            csr_len: vec![0; n],
            csr_items: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Starts a new round: adopts the round's deliverer set (the base of
    /// every run row) and clears all rows, preserving capacity.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn begin_round(&mut self, deliverers: &NodeSet) {
        self.deliverers.copy_from(deliverers);
        self.runs_len.fill(0);
        self.csr_len.fill(0);
        self.csr_items.clear();
    }

    /// The round's deliverer set run rows are interpreted against.
    pub fn deliverers(&self) -> &NodeSet {
        &self.deliverers
    }

    /// `v`'s CSR row: its exact ascending sender ids (empty for run rows
    /// and empty rows). `csr_start` is only meaningful while the row has
    /// links — `begin_round` truncates the pool without rewriting starts.
    #[inline]
    fn csr_row(&self, v_idx: usize) -> &[u32] {
        match self.csr_len[v_idx] as usize {
            0 => &[],
            l => {
                let s = self.csr_start[v_idx] as usize;
                &self.csr_items[s..s + l]
            }
        }
    }

    /// Sorts and coalesces `v`'s runs into ascending disjoint ranges on
    /// the stack. Returns the ranges and their count.
    #[inline]
    fn merged_runs(&self, v: NodeId) -> ([(u32, u32); MAX_RUNS_PER_ROW], usize) {
        let len = self.runs_len[v.index()] as usize;
        let base = v.index() * MAX_RUNS_PER_ROW;
        let mut rs = [(0u32, 0u32); MAX_RUNS_PER_ROW];
        rs[..len].copy_from_slice(&self.runs[base..base + len]);
        // Insertion sort by lo — at most 4 elements.
        for i in 1..len {
            let mut j = i;
            while j > 0 && rs[j - 1].0 > rs[j].0 {
                rs.swap(j - 1, j);
                j -= 1;
            }
        }
        // Coalesce overlapping or adjacent ranges in place.
        let mut m = 0;
        for i in 1..len {
            if rs[i].0 <= rs[m].1.saturating_add(1) {
                rs[m].1 = rs[m].1.max(rs[i].1);
            } else {
                m += 1;
                rs[m] = rs[i];
            }
        }
        (rs, if len == 0 { 0 } else { m + 1 })
    }

    /// Calls `f(w, word)` with `word = deliverers ∩ {lo..=hi} \ {skip}`
    /// restricted to 64-id word `w`, for each word the range touches,
    /// ascending, until it returns `false`; returns whether it never did.
    /// The one place a run is turned into bits — every run-row read is
    /// this loop with a different `f`.
    #[inline]
    fn range_words(
        &self,
        lo: usize,
        hi: usize,
        skip: usize,
        mut f: impl FnMut(usize, u64) -> bool,
    ) -> bool {
        let words = self.deliverers.words();
        let (lw, lb) = (lo / 64, lo % 64);
        let (hw, hb) = (hi / 64, hi % 64);
        let (sw, sb) = (skip / 64, skip % 64);
        for (w, &dw) in words.iter().enumerate().take(hw + 1).skip(lw) {
            let mut mask = u64::MAX;
            if w == lw {
                mask &= u64::MAX << lb;
            }
            if w == hw {
                mask &= u64::MAX >> (63 - hb);
            }
            if w == sw {
                mask &= !(1u64 << sb);
            }
            if !f(w, dw & mask) {
                return false;
            }
        }
        true
    }

    /// Calls `f(w, word)` as [`LinkPlane::range_words`] does, over all of
    /// run row `v`'s merged runs, ascending.
    #[inline]
    fn row_words(&self, v: NodeId, mut f: impl FnMut(usize, u64) -> bool) {
        let (rs, m) = self.merged_runs(v);
        for &(lo, hi) in &rs[..m] {
            if !self.range_words(lo as usize, hi as usize, v.index(), &mut f) {
                return;
            }
        }
    }

    /// Writes this round's links into a dense [`EdgeSet`] (cleared
    /// first) — the bridge to dense-only consumers (equivalence tests,
    /// schedule recording).
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ.
    pub fn fill_edgeset(&self, out: &mut EdgeSet) {
        assert_eq!(self.n, LinkRows::n(out), "node count mismatch");
        out.clear();
        for v_idx in 0..self.n {
            let v = NodeId::new(v_idx);
            let (rs, m) = self.merged_runs(v);
            for &(lo, hi) in &rs[..m] {
                out.insert_range_from(
                    v,
                    &self.deliverers,
                    NodeId::new(lo as usize),
                    NodeId::new(hi as usize),
                );
            }
            for &u in self.csr_row(v_idx) {
                out.insert(NodeId::new(u as usize), v);
            }
        }
    }

    /// Bytes of heap memory currently held — the quantity the scaling
    /// benchmarks compare against the `3 · n²/8`-byte dense arena.
    pub fn heap_bytes(&self) -> usize {
        self.deliverers.words().len() * 8
            + self.runs.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.runs_len.capacity()
            + self.csr_start.capacity() * 4
            + self.csr_len.capacity() * 4
            + self.csr_items.capacity() * 4
    }
}

impl LinkSink for LinkPlane {
    /// Records the run in O(1).
    ///
    /// # Panics
    ///
    /// Also panics if the row already holds [`MAX_RUNS_PER_ROW`] runs;
    /// debug-panics if it already holds CSR links.
    fn push_run(&mut self, v: NodeId, lo: NodeId, hi: NodeId) {
        assert!(lo <= hi, "empty range: {lo} > {hi}");
        assert!(hi.index() < self.n, "sender {hi} out of range");
        debug_assert_eq!(self.csr_len[v.index()], 0, "row {v} mixes CSR and runs");
        let len = &mut self.runs_len[v.index()];
        assert!(
            (*len as usize) < MAX_RUNS_PER_ROW,
            "row {v} exceeds {MAX_RUNS_PER_ROW} runs"
        );
        self.runs[v.index() * MAX_RUNS_PER_ROW + *len as usize] =
            (lo.index() as u32, hi.index() as u32);
        *len += 1;
    }

    /// Appends `u` to `v`'s CSR row. All links of one row must be pushed
    /// consecutively (each row is one contiguous slice of the shared
    /// pool) and in ascending sender order; both are debug-asserted, as
    /// is the absence of self-loops and run entries in the same row.
    ///
    /// # Panics
    ///
    /// Also panics if the pool exceeds the 32-bit index space.
    fn push_link(&mut self, v: NodeId, u: NodeId) {
        assert!(u.index() < self.n, "sender {u} out of range");
        debug_assert_ne!(u, v, "self-loops are not part of the model");
        debug_assert_eq!(self.runs_len[v.index()], 0, "row {v} mixes runs and CSR");
        assert!(
            self.csr_items.len() < u32::MAX as usize,
            "CSR pool exceeds the 32-bit index space"
        );
        let len = &mut self.csr_len[v.index()];
        if *len == 0 {
            self.csr_start[v.index()] = self.csr_items.len() as u32;
        } else {
            debug_assert_eq!(
                self.csr_start[v.index()] as usize + *len as usize,
                self.csr_items.len(),
                "row {v} is not the pool tail: CSR rows must be filled contiguously"
            );
            debug_assert!(
                self.csr_items
                    .last()
                    .is_some_and(|&last| last < u.index() as u32),
                "row {v}: links must be pushed in ascending sender order"
            );
        }
        self.csr_items.push(u.index() as u32);
        *len += 1;
    }
}

impl LinkRows for LinkPlane {
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn scan_in(&self, v: NodeId, from: usize, mut f: impl FnMut(NodeId) -> bool) -> Option<NodeId> {
        let v_idx = v.index();
        if self.runs_len[v_idx] > 0 {
            let (rs, m) = self.merged_runs(v);
            let mut stop = None;
            for &(lo, hi) in &rs[..m] {
                let (lo, hi) = ((lo as usize).max(from), hi as usize);
                let walked = lo > hi
                    || self.range_words(lo, hi, v_idx, |w, mut word| {
                        while word != 0 {
                            let u = NodeId::new(w * 64 + word.trailing_zeros() as usize);
                            word &= word - 1;
                            if !f(u) {
                                stop = Some(u);
                                return false;
                            }
                        }
                        true
                    });
                if !walked {
                    break;
                }
            }
            return stop;
        }
        let row = self.csr_row(v_idx);
        let skip = row.partition_point(|&u| (u as usize) < from);
        for &u in &row[skip..] {
            let u = NodeId::new(u as usize);
            if !f(u) {
                return Some(u);
            }
        }
        None
    }

    fn in_degree(&self, v: NodeId) -> usize {
        if self.runs_len[v.index()] > 0 {
            return self.in_degree_within(v, &self.deliverers);
        }
        self.csr_len[v.index()] as usize
    }

    fn contains(&self, u: NodeId, v: NodeId) -> bool {
        let (u_idx, v_idx) = (u.index() as u32, v.index());
        if self.runs_len[v_idx] > 0 {
            let base = v_idx * MAX_RUNS_PER_ROW;
            let runs = &self.runs[base..base + self.runs_len[v_idx] as usize];
            return u != v
                && self.deliverers.contains(u)
                && runs.iter().any(|&(lo, hi)| (lo..=hi).contains(&u_idx));
        }
        self.csr_row(v_idx).binary_search(&u_idx).is_ok()
    }

    fn in_degree_within(&self, v: NodeId, mask: &NodeSet) -> usize {
        assert_eq!(mask.universe(), self.n, "universe mismatch");
        let v_idx = v.index();
        if self.runs_len[v_idx] > 0 {
            let mut c = 0;
            self.row_words(v, |w, word| {
                c += (word & mask.word(w)).count_ones() as usize;
                true
            });
            return c;
        }
        let in_mask = |&&u: &&u32| mask.contains(NodeId::new(u as usize));
        self.csr_row(v_idx).iter().filter(in_mask).count()
    }

    /// Run rows OR `deliverers ∧ range ∧ mask` a word at a time — what a
    /// recorded sparse run pays per receiver per round; CSR rows insert id
    /// by id. What a recorded run still pays beyond this is the engine's
    /// per-round clone of the realized set into the schedule.
    fn union_in_masked(&self, v: NodeId, mask: &NodeSet, out: &mut NodeSet) {
        assert_eq!(mask.universe(), self.n, "universe mismatch");
        assert_eq!(out.universe(), self.n, "universe mismatch");
        if self.runs_len[v.index()] > 0 {
            let out = out.words_mut();
            self.row_words(v, |w, word| {
                out[w] |= word & mask.word(w);
                true
            });
            return;
        }
        self.for_each_in(v, |u| {
            if mask.contains(u) {
                out.insert(u);
            }
        });
    }

    #[inline]
    fn scan_words_in(&self, v: NodeId, mut f: impl FnMut(usize, u64) -> bool) {
        if self.runs_len[v.index()] > 0 {
            self.row_words(v, |w, word| word == 0 || f(w, word));
        } else {
            scan_words_by_id(self, v, f);
        }
    }
}

impl fmt::Debug for LinkPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LinkPlane(n={}, edges={})",
            self.n,
            LinkRows::edge_count(self)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(lp: &LinkPlane, v: usize) -> Vec<usize> {
        let mut got = Vec::new();
        lp.for_each_in(NodeId::new(v), |u| got.push(u.index()));
        got
    }

    #[test]
    fn run_row_intersects_deliverers_and_strips_self() {
        let n = 140;
        let mut lp = LinkPlane::new(n);
        let mut deliverers = NodeSet::full(n);
        deliverers.remove(NodeId::new(70));
        lp.begin_round(&deliverers);
        lp.push_run(NodeId::new(65), NodeId::new(60), NodeId::new(75));
        assert_eq!(
            row(&lp, 65),
            vec![60, 61, 62, 63, 64, 66, 67, 68, 69, 71, 72, 73, 74, 75]
        );
        assert_eq!(lp.in_degree(NodeId::new(65)), 14);
        assert_eq!(row(&lp, 0), Vec::<usize>::new());
    }

    #[test]
    fn wrapped_and_overlapping_runs_merge_ascending() {
        let n = 100;
        let mut lp = LinkPlane::new(n);
        lp.begin_round(&NodeSet::full(n));
        let v = NodeId::new(50);
        // A wrapped rotating window: [90, 99] then [0, 5], pushed out of
        // order, plus an overlap with the first.
        lp.push_run(v, NodeId::new(90), NodeId::new(99));
        lp.push_run(v, NodeId::new(0), NodeId::new(5));
        lp.push_run(v, NodeId::new(95), NodeId::new(99));
        let expect: Vec<usize> = (0..=5).chain(90..=99).collect();
        assert_eq!(row(&lp, 50), expect);
        assert_eq!(lp.in_degree(v), expect.len());
    }

    #[test]
    fn adjacent_runs_coalesce_without_double_visits() {
        let n = 64;
        let mut lp = LinkPlane::new(n);
        lp.begin_round(&NodeSet::full(n));
        let v = NodeId::new(0);
        lp.push_run(v, NodeId::new(1), NodeId::new(10));
        lp.push_run(v, NodeId::new(11), NodeId::new(20));
        assert_eq!(row(&lp, 0), (1..=20).collect::<Vec<_>>());
    }

    #[test]
    fn push_run_except_splits_around_excluded_sender() {
        let n = 32;
        let mut lp = LinkPlane::new(n);
        lp.begin_round(&NodeSet::full(n));
        let v = NodeId::new(0);
        lp.push_run_except(v, NodeId::new(1), NodeId::new(10), NodeId::new(5));
        let expect: Vec<usize> = (1..=10).filter(|&u| u != 5).collect();
        assert_eq!(row(&lp, 0), expect);
        // Exclusions at the boundary or outside the range degrade to the
        // plain run.
        let w = NodeId::new(31);
        lp.push_run_except(w, NodeId::new(1), NodeId::new(3), NodeId::new(1));
        assert_eq!(row(&lp, 31), vec![2, 3]);
        let x = NodeId::new(30);
        lp.push_run_except(x, NodeId::new(1), NodeId::new(3), NodeId::new(20));
        assert_eq!(row(&lp, 30), vec![1, 2, 3]);
    }

    #[test]
    fn csr_rows_are_exact_and_ignore_deliverers() {
        let n = 70;
        let mut lp = LinkPlane::new(n);
        // Sender 69 is not a deliverer, yet a CSR row may list it (the
        // Alternating burst contract: rows are copied verbatim).
        let deliverers = NodeSet::from_ids(n, [NodeId::new(1)]);
        lp.begin_round(&deliverers);
        lp.push_link(NodeId::new(0), NodeId::new(2));
        lp.push_link(NodeId::new(0), NodeId::new(69));
        lp.push_link(NodeId::new(3), NodeId::new(1));
        assert_eq!(row(&lp, 0), vec![2, 69]);
        assert_eq!(row(&lp, 3), vec![1]);
        assert_eq!(lp.in_degree(NodeId::new(0)), 2);
        assert_eq!(LinkRows::edge_count(&lp), 3);
    }

    #[test]
    fn begin_round_clears_rows_and_keeps_capacity() {
        let n = 16;
        let mut lp = LinkPlane::new(n);
        lp.begin_round(&NodeSet::full(n));
        lp.push_run(NodeId::new(0), NodeId::new(1), NodeId::new(5));
        lp.push_link(NodeId::new(2), NodeId::new(0));
        let cap = lp.csr_items.capacity();
        lp.begin_round(&NodeSet::full(n));
        assert_eq!(LinkRows::edge_count(&lp), 0);
        assert_eq!(lp.csr_items.capacity(), cap, "clear must not free");
        // Rows are reusable with either kind after the clear.
        lp.push_link(NodeId::new(0), NodeId::new(3));
        assert_eq!(row(&lp, 0), vec![3]);
    }

    #[test]
    fn fill_edgeset_matches_trait_reads() {
        let n = 130;
        let mut lp = LinkPlane::new(n);
        let mut deliverers = NodeSet::full(n);
        deliverers.remove(NodeId::new(64));
        lp.begin_round(&deliverers);
        lp.push_run(NodeId::new(5), NodeId::new(0), NodeId::new(70));
        lp.push_run(NodeId::new(5), NodeId::new(120), NodeId::new(129));
        lp.push_link(NodeId::new(6), NodeId::new(64));
        lp.push_link(NodeId::new(6), NodeId::new(65));
        let mut dense = EdgeSet::complete(n); // pre-soiled: must be overwritten
        lp.fill_edgeset(&mut dense);
        assert_eq!(EdgeSet::edge_count(&dense), LinkRows::edge_count(&lp));
        let mut got = Vec::new();
        LinkRows::for_each_edge(&lp, |u, v| got.push((u, v)));
        let mut expect = Vec::new();
        dense.for_each_edge(|u, v| expect.push((u, v)));
        assert_eq!(got, expect);
    }

    /// Every row read the delivery loop makes — resumable scans, word
    /// chunks, membership, masked counts and unions — agrees between run
    /// rows, CSR rows, their dense image, and the trait's row-scanning
    /// defaults.
    #[test]
    fn row_reads_agree_across_row_kinds_and_defaults() {
        /// A row kind with nothing but `scan_in`: the defaults' reference.
        struct Scanned<'a>(&'a EdgeSet);
        impl LinkRows for Scanned<'_> {
            fn n(&self) -> usize {
                LinkRows::n(self.0)
            }
            fn scan_in(
                &self,
                v: NodeId,
                from: usize,
                f: impl FnMut(NodeId) -> bool,
            ) -> Option<NodeId> {
                self.0.scan_in(v, from, f)
            }
        }

        /// The senders a scan from `from` visits, the last one being the
        /// first with id `≥ stop_at` (which ends it), and what it returns.
        fn scan(
            rows: &impl LinkRows,
            v: NodeId,
            from: usize,
            stop_at: usize,
        ) -> (Vec<usize>, Option<NodeId>) {
            let mut seen = Vec::new();
            let stop = rows.scan_in(v, from, |u| {
                seen.push(u.index());
                u.index() < stop_at
            });
            (seen, stop)
        }

        /// The chunks `scan_words_in` hands out before the `stop_after`-th
        /// one ends the scan, checked to be non-empty and ascending.
        fn chunks(rows: &impl LinkRows, v: NodeId, stop_after: usize) -> Vec<(usize, u64)> {
            let mut got: Vec<(usize, u64)> = Vec::new();
            rows.scan_words_in(v, |w, bits| {
                assert_ne!(bits, 0, "row {v}: empty chunk");
                if let Some(&(pw, pbits)) = got.last() {
                    let last = pw * 64 + 63 - pbits.leading_zeros() as usize;
                    let first = w * 64 + bits.trailing_zeros() as usize;
                    assert!(last < first, "row {v}: chunks must ascend");
                }
                got.push((w, bits));
                got.len() < stop_after
            });
            got
        }

        /// Checks that a chunk scan told to stop after any number of
        /// chunks made exactly that many calls; returns the row's senders
        /// as the unstopped scan's chunks spell them.
        fn stops_early(rows: &impl LinkRows, v: NodeId) -> Vec<usize> {
            let all = chunks(rows, v, usize::MAX);
            for stop_after in 1..=all.len() {
                assert_eq!(chunks(rows, v, stop_after), all[..stop_after], "row {v}");
            }
            let bit = |&(w, bits): &(usize, u64)| {
                (0..64)
                    .filter(move |b| bits >> b & 1 == 1)
                    .map(move |b| w * 64 + b)
            };
            all.iter().flat_map(bit).collect()
        }

        let n = 140;
        let mut lp = LinkPlane::new(n);
        let mut deliverers = NodeSet::full(n);
        deliverers.remove(NodeId::new(64));
        deliverers.remove(NodeId::new(3));
        lp.begin_round(&deliverers);
        // A wrapped, overlapping run row; a run row split around its own
        // id; a CSR row (not intersected with the deliverers); four runs,
        // two of them apart inside word 0 and the third adjacent to the
        // second across the word boundary; the rest empty.
        lp.push_run(NodeId::new(5), NodeId::new(120), NodeId::new(139));
        lp.push_run(NodeId::new(5), NodeId::new(0), NodeId::new(70));
        lp.push_run(NodeId::new(5), NodeId::new(60), NodeId::new(66));
        lp.push_run(NodeId::new(65), NodeId::new(1), NodeId::new(130));
        for u in [2, 3, 64, 100, 139] {
            lp.push_link(NodeId::new(6), NodeId::new(u));
        }
        lp.push_run(NodeId::new(8), NodeId::new(41), NodeId::new(70));
        lp.push_run(NodeId::new(8), NodeId::new(10), NodeId::new(20));
        lp.push_run(NodeId::new(8), NodeId::new(100), NodeId::new(139));
        lp.push_run(NodeId::new(8), NodeId::new(30), NodeId::new(40));
        let in_word_0 = |c: &&(usize, u64)| c.0 == 0;
        let row_8 = chunks(&lp, NodeId::new(8), usize::MAX);
        assert_eq!(row_8.iter().filter(in_word_0).count(), 2, "{row_8:?}");
        let mut dense = EdgeSet::empty(n);
        lp.fill_edgeset(&mut dense);
        let mask = NodeSet::from_ids(n, (0..n).filter(|u| u % 3 != 0).map(NodeId::new));

        for v in [5usize, 6, 65, 7, 8].map(NodeId::new) {
            // Word chunks: the same senders from every row kind, and a
            // scan that is told to stop makes no further call.
            let all = scan(&dense, v, 0, usize::MAX).0;
            assert_eq!(stops_early(&lp, v), all, "row {v}");
            assert_eq!(stops_early(&dense, v), all, "row {v}");
            assert_eq!(stops_early(&Scanned(&dense), v), all, "row {v}");
            for u in NodeId::all(n) {
                let expect = dense.in_neighbors(v).contains(u);
                assert_eq!(LinkRows::contains(&lp, u, v), expect, "{u} -> {v}");
                assert_eq!(LinkRows::contains(&dense, u, v), expect, "{u} -> {v}");
                assert_eq!(Scanned(&dense).contains(u, v), expect, "{u} -> {v}");
            }
            let within = Scanned(&dense).in_degree_within(v, &mask);
            assert_eq!(lp.in_degree_within(v, &mask), within, "row {v}");
            assert_eq!(dense.in_degree_within(v, &mask), within, "row {v}");
            let mut unions = [NodeSet::new(n), NodeSet::new(n), NodeSet::new(n)];
            lp.union_in_masked(v, &mask, &mut unions[0]);
            dense.union_in_masked(v, &mask, &mut unions[1]);
            Scanned(&dense).union_in_masked(v, &mask, &mut unions[2]);
            assert_eq!(unions[0], unions[1], "row {v}");
            assert_eq!(unions[0], unions[2], "row {v}");
            assert_eq!(unions[0].len(), within, "row {v}");
            // Scans from every resume point, stopped at every sender.
            for from in [0usize, 1, 4, 63, 64, 65, 101, 139, 140] {
                for stop_at in [0usize, 2, 64, 66, 100, 138, 139, usize::MAX] {
                    let sparse = scan(&lp, v, from, stop_at);
                    let bits = scan(&dense, v, from, stop_at);
                    assert_eq!(sparse, bits, "row {v} from {from} stop {stop_at}");
                    assert!(sparse.0.iter().all(|&u| u >= from));
                }
            }
        }
    }

    /// One random script of [`LinkSink`] calls — per receiver an empty
    /// row, a run row (plain and split runs, `except` inside, on the edge
    /// of, outside the range, or the receiver itself) or an exact row
    /// (ascending links, some grouped into words) — and, alongside, the
    /// links those calls mean by definition.
    fn sink_script<S: LinkSink>(
        out: &mut S,
        rng: &mut adn_types::rng::SplitMix64,
        deliverers: &NodeSet,
    ) -> EdgeSet {
        let n = deliverers.universe();
        let mut model = EdgeSet::empty(n);
        let run = |model: &mut EdgeSet, v: NodeId, lo: usize, hi: usize, except: Option<usize>| {
            for u in (lo..=hi).map(NodeId::new) {
                if u != v && deliverers.contains(u) && Some(u.index()) != except {
                    model.insert(u, v);
                }
            }
        };
        for v in NodeId::all(n) {
            match rng.next_index(3) {
                0 => {}
                1 => {
                    let mut budget = MAX_RUNS_PER_ROW;
                    while budget > 0 && rng.next_bool(0.7) {
                        let lo = rng.next_index(n);
                        let hi = lo + rng.next_index(n - lo);
                        if budget >= 2 && rng.next_bool(0.5) {
                            let e = [lo, hi, v.index(), rng.next_index(n)][rng.next_index(4)];
                            out.push_run_except(
                                v,
                                NodeId::new(lo),
                                NodeId::new(hi),
                                NodeId::new(e),
                            );
                            run(&mut model, v, lo, hi, Some(e));
                            budget -= 2;
                        } else {
                            out.push_run(v, NodeId::new(lo), NodeId::new(hi));
                            run(&mut model, v, lo, hi, None);
                            budget -= 1;
                        }
                    }
                }
                _ => {
                    let p = rng.next_f64();
                    for w in 0..n.div_ceil(64) {
                        let ids = (w * 64..n.min(w * 64 + 64)).filter(|&u| u != v.index());
                        let ids: Vec<usize> = ids.filter(|_| rng.next_bool(p)).collect();
                        let as_word = rng.next_bool(0.5);
                        if as_word {
                            out.push_word(v, w, ids.iter().fold(0, |b, u| b | 1 << (u % 64)));
                        }
                        for u in ids.into_iter().map(NodeId::new) {
                            if !as_word {
                                out.push_link(v, u);
                            }
                            model.insert(u, v);
                        }
                    }
                }
            }
        }
        model
    }

    /// The write half's contract: the same [`LinkSink`] calls leave a
    /// [`LinkPlane`] (decoded with `fill_edgeset`) and a [`DenseLinks`]
    /// view bit-equal — and equal to what the calls mean. Seeds:
    /// `ADN_FUZZ_SEEDS` (default 300).
    #[test]
    fn sink_writes_agree_across_row_kinds() {
        use adn_types::rng::SplitMix64;
        let seeds = std::env::var("ADN_FUZZ_SEEDS").map_or(300, |s| s.parse().unwrap());
        for seed in 0..seeds {
            let mut rng = SplitMix64::new(seed ^ 0x51AC);
            let n = [1usize, 2, 63, 64, 65, 130][rng.next_index(6)];
            let deliverers = match rng.next_index(4) {
                0 => NodeSet::new(n),
                1 => NodeSet::full(n),
                _ => NodeSet::from_ids(n, NodeId::all(n).filter(|_| rng.next_bool(0.6))),
            };
            let mut lp = LinkPlane::new(n);
            lp.begin_round(&deliverers);
            let model = sink_script(&mut lp, &mut rng.clone(), &deliverers);
            let mut dense = EdgeSet::empty(n);
            sink_script(
                &mut DenseLinks::new(&mut dense, &deliverers),
                &mut rng,
                &deliverers,
            );
            let mut decoded = EdgeSet::complete(n); // pre-soiled
            lp.fill_edgeset(&mut decoded);
            assert!(decoded == dense, "seed {seed}: n = {n}, sparse vs dense");
            assert!(dense == model, "seed {seed}: n = {n}, dense vs meaning");
        }
    }

    #[test]
    fn edgeset_implements_link_rows() {
        let e = EdgeSet::from_pairs(70, [(0, 1), (65, 2), (1, 65)]);
        let mut got = Vec::new();
        LinkRows::for_each_in(&e, NodeId::new(65), |u| got.push(u.index()));
        assert_eq!(got, vec![1]);
        assert_eq!(LinkRows::in_degree(&e, NodeId::new(2)), 1);
        assert_eq!(LinkRows::edge_count(&e), 3);
        let honest = NodeSet::full(70);
        assert_eq!(e.min_in_degree_over_set(&honest), Some(0));
    }

    #[test]
    fn heap_bytes_tracks_csr_growth() {
        let n = 256;
        let mut lp = LinkPlane::new(n);
        let before = lp.heap_bytes();
        lp.begin_round(&NodeSet::full(n));
        for u in 1..100 {
            lp.push_link(NodeId::new(0), NodeId::new(u));
        }
        assert!(lp.heap_bytes() >= before + 4 * 99);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn too_many_runs_panic() {
        let mut lp = LinkPlane::new(8);
        lp.begin_round(&NodeSet::full(8));
        for _ in 0..=MAX_RUNS_PER_ROW {
            lp.push_run(NodeId::new(0), NodeId::new(1), NodeId::new(2));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn backwards_run_panics() {
        let mut lp = LinkPlane::new(8);
        lp.begin_round(&NodeSet::full(8));
        lp.push_run(NodeId::new(0), NodeId::new(5), NodeId::new(4));
    }
}
