//! Incremental sliding-window link aggregation.
//!
//! The (T, D)-dynaDegree checker and the T-interval-connectivity checker
//! both quantify over **every** window of `T` consecutive rounds of a
//! recording, and a service's watchdog evaluates Definition 1 on every
//! window of a run that never ends. Recomputing each window's union (or
//! intersection) from scratch costs `O(L · T · |E|)` over `L` rounds; a
//! window that slides by one round only changes by the round that leaves
//! and the round that enters. Two structures exploit that:
//!
//! * [`SlidingUnion`] answers Definition 1's question — the **union**
//!   degree of a receiver, its distinct in-neighbors across the window —
//!   from `T + 1` bit slabs: the rounds are cut into `T`-round blocks, a
//!   finished block is turned into suffix unions in place, and every
//!   window is one block suffix ∪ the running prefix of the next block.
//!   Pure word operations, no `T` factor, no per-link work. It is the one
//!   implementation of the windowed union: the offline checker
//!   ([`WindowUnion::scan_degrees`]) pushes a recording through it, a
//!   service's watchdog the rounds it executes.
//! * [`WindowUnion`] keeps per-(receiver, sender) multiplicity
//!   **counters** over the current window, for what bit slabs cannot
//!   say: the **intersection** ("stable") links of the window (count
//!   equal to the window length, what T-interval connectivity quantifies
//!   over — the same slide with AND for OR), and union degrees of windows
//!   wider than the slabs are worth (> 64 rounds). The counter table is
//!   allocated by the first push, so a checker that only ever scans
//!   degrees never pays for it.
//!
//! Pushing and popping rounds never allocates once the state exists,
//! which is what lets `tests/alloc_free.rs` pin the steady-state checker
//! and the windowed service watchdog at zero heap traffic.

use std::fmt;

use adn_types::{NodeId, Round};

use crate::{EdgeSet, LinkRows, NodeSet, Schedule};

/// Widest window the offline degree scan serves from bit slabs; larger
/// windows fall back to the counter slide (whose cost has no `T` factor
/// either, but whose per-link bit work loses to pure word operations on
/// dense recordings). Bounds the slab scratch at
/// `(BLOCK_SCAN_MAX_WINDOW + 1) · n² / 8` bytes.
const BLOCK_SCAN_MAX_WINDOW: usize = 64;

/// Definition 1's windowed union, online: the distinct in-neighbors of
/// every receiver over the last `t` rounds pushed, from `t + 1` bit slabs.
///
/// Round `r` is written raw into slot `o = r mod t` and, unless it is its
/// block's last, ORed into the block's running **prefix** (cleared when
/// `o = 0`). When a block is complete (`o = t − 1`) its raw slots become
/// **suffix** unions in place,
/// top down: `slot[j] |= slot[j + 1]`. The window ending at `r` is then
/// `slot[o + 1] ∪ prefix` — the previous block's rounds from offset
/// `o + 1` on, plus this block's first `o + 1` — and all of `slot[0]`
/// when `o = t − 1`. Slot `o` is overwritten exactly when the window has
/// moved past the suffix it held, so `t + 1` slabs is all the state; a
/// push costs a few passes over one slab whatever `t` is, touches words
/// and never links, and allocates nothing.
///
/// ```
/// use adn_graph::{EdgeSet, NodeSet, SlidingUnion};
///
/// let all = NodeSet::full(3);
/// let mut w = SlidingUnion::new(3, 2);
/// w.push_rows(&EdgeSet::from_pairs(3, [(0, 1), (1, 0), (1, 2)]));
/// assert_eq!(w.min_degree_over(&all), None); // no full window yet
/// w.push_rows(&EdgeSet::from_pairs(3, [(2, 1), (2, 0), (0, 2)]));
/// assert_eq!(w.min_degree_over(&all), Some(2)); // union of both rounds
/// w.push_rows(&EdgeSet::empty(3)); // the first round leaves the window
/// assert_eq!(w.min_degree_over(&all), Some(1));
/// ```
#[derive(Clone)]
pub struct SlidingUnion {
    n: usize,
    /// Window width in rounds.
    t: usize,
    /// Rounds pushed since `new` / `reset`.
    pushed: u64,
    /// `t` slot slabs, then the prefix slab — `n · n.div_ceil(64)` words
    /// each, receiver rows flat and contiguous so the flip is one zipped
    /// OR per slot and degree evaluation a branchless popcount sweep.
    /// Only ever grows (`reset` to a narrower window keeps the words).
    slabs: Vec<u64>,
}

impl SlidingUnion {
    /// Creates an empty `t`-round window over a system of `n` nodes —
    /// the structure's only allocation.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0`.
    pub fn new(n: usize, t: usize) -> Self {
        let mut window = SlidingUnion::unallocated(n);
        window.reset(t);
        window
    }

    /// A window that holds no slabs until its first [`SlidingUnion::reset`].
    fn unallocated(n: usize) -> Self {
        SlidingUnion {
            n,
            t: 1,
            pushed: 0,
            slabs: Vec::new(),
        }
    }

    /// Empties the window and sets its width to `t` rounds. Allocates only
    /// if `t` is wider than every width this window has had.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0`.
    pub fn reset(&mut self, t: usize) {
        assert!(t > 0, "window must be at least 1 round");
        // No slab needs clearing: a slot is zeroed before its round is
        // written, the prefix when a block starts, and nothing is read
        // before `t` rounds are in.
        let words = (t + 1) * self.slab_words();
        if self.slabs.len() < words {
            self.slabs.resize(words, 0);
        }
        self.t = t;
        self.pushed = 0;
    }

    /// Words of one receiver row.
    fn row_words(&self) -> usize {
        self.n.div_ceil(64)
    }

    /// Words of one flat round slab.
    fn slab_words(&self) -> usize {
        self.n * self.row_words()
    }

    /// Slides the window forward by one round: `rows` enters, the round
    /// pushed `t` pushes ago leaves.
    ///
    /// # Panics
    ///
    /// Panics if the rows are for a different node count.
    // audit: no-alloc
    pub fn push_rows<L: LinkRows>(&mut self, rows: &L) {
        assert_eq!(rows.n(), self.n, "node count mismatch");
        let (t, wpr, slab) = (self.t, self.row_words(), self.slab_words());
        let o = (self.pushed % t as u64) as usize;
        // The round that completes a block stays out of the prefix: its
        // window is all of `slot[0]`, and the next push starts a new one.
        let completes = o == t - 1;
        let (slots, prefix) = self.slabs[..(t + 1) * slab].split_at_mut(t * slab);
        let raw = &mut slots[o * slab..(o + 1) * slab];
        // A row may hand one word out as several chunks, so both targets
        // are ORed into, the slot from zero.
        raw.fill(0);
        if o == 0 && !completes {
            prefix.fill(0);
        }
        for v_idx in 0..self.n {
            let (lo, hi) = (v_idx * wpr, (v_idx + 1) * wpr);
            let (raw_row, prefix_row) = (&mut raw[lo..hi], &mut prefix[lo..hi]);
            rows.scan_words_in(NodeId::new(v_idx), |w, bits| {
                raw_row[w] |= bits;
                if !completes {
                    prefix_row[w] |= bits;
                }
                true
            });
        }
        if completes {
            // Its raw rounds become suffix unions.
            for j in (0..t - 1).rev() {
                let (below, above) = slots[j * slab..(j + 2) * slab].split_at_mut(slab);
                for (d, s) in below.iter_mut().zip(&*above) {
                    *d |= s;
                }
            }
        }
        self.pushed += 1;
    }

    /// Minimum union in-degree over the given receivers across the last
    /// `t` rounds pushed — `None` until `t` rounds are in, or if
    /// `receivers` is empty.
    ///
    /// # Panics
    ///
    /// Panics if `receivers` is over a different node count.
    pub fn min_degree_over(&self, receivers: &NodeSet) -> Option<usize> {
        assert_eq!(receivers.universe(), self.n, "universe mismatch");
        if self.pushed < self.t as u64 || receivers.is_empty() {
            return None;
        }
        let (t, wpr, slab) = (self.t, self.row_words(), self.slab_words());
        // Offset of the newest round in its block.
        let o = ((self.pushed - 1) % t as u64) as usize;
        let (suffix, prefix) = if o == t - 1 {
            (&self.slabs[..slab], None)
        } else {
            (
                &self.slabs[(o + 1) * slab..(o + 2) * slab],
                Some(&self.slabs[t * slab..(t + 1) * slab]),
            )
        };
        Some(min_degree(suffix, prefix, receivers, wpr))
    }
}

impl fmt::Debug for SlidingUnion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SlidingUnion(n={}, t={}, pushed={})",
            self.n, self.t, self.pushed
        )
    }
}

/// Minimum over `honest` of the per-receiver popcount of
/// `suffix_row | prefix_row`, without materializing the union. Rows live
/// in flat slabs at `v * wpr`. When every node is honest — the common
/// case — the sweep is a branchless pass over the contiguous slabs
/// instead of a per-member bit walk.
fn min_degree(suffix: &[u64], prefix: Option<&[u64]>, honest: &NodeSet, wpr: usize) -> usize {
    if honest.len() * wpr == suffix.len() {
        return match prefix {
            None => suffix
                .chunks_exact(wpr)
                .map(|row| row.iter().map(|w| w.count_ones() as usize).sum())
                .min(),
            Some(p) => suffix
                .chunks_exact(wpr)
                .zip(p.chunks_exact(wpr))
                .map(|(s, q)| {
                    s.iter()
                        .zip(q)
                        .map(|(a, b)| (a | b).count_ones() as usize)
                        .sum()
                })
                .min(),
        }
        .expect("honest is non-empty");
    }
    let mut min = usize::MAX;
    honest.for_each(|v| {
        let base = v.index() * wpr;
        let s = &suffix[base..base + wpr];
        let degree: usize = match prefix {
            None => s.iter().map(|w| w.count_ones() as usize).sum(),
            Some(p) => s
                .iter()
                .zip(&p[base..base + wpr])
                .map(|(a, b)| (a | b).count_ones() as usize)
                .sum(),
        };
        min = min.min(degree);
    });
    min
}

/// Per-(receiver, sender) link multiplicities over a sliding round window.
///
/// ```
/// use adn_graph::{EdgeSet, WindowUnion};
/// use adn_types::NodeId;
///
/// let mut w = WindowUnion::new(3);
/// w.push(&EdgeSet::from_pairs(3, [(0, 1)]));
/// w.push(&EdgeSet::from_pairs(3, [(2, 1)]));
/// assert_eq!(w.degree(NodeId::new(1)), 2); // union over the window
/// w.pop(&EdgeSet::from_pairs(3, [(0, 1)])); // oldest round leaves
/// assert_eq!(w.degree(NodeId::new(1)), 1);
/// ```
#[derive(Clone)]
pub struct WindowUnion {
    n: usize,
    /// Rounds currently aggregated in the window.
    rounds: usize,
    /// `counts[v * n + u]` — in how many window rounds the link `(u, v)`
    /// is present. Empty until the first push: [`WindowUnion::scan_degrees`]
    /// reads degrees off bit slabs and never needs the `4 · n²` bytes.
    counts: Vec<u32>,
    /// `degrees[v]` — number of senders with a nonzero count at `v`
    /// (the windowed union in-degree of Definition 1).
    degrees: Vec<u32>,
    /// [`WindowUnion::scan_degrees`]' scratch: the slabs a recording is
    /// pushed through. Grown lazily to the widest window scanned so far,
    /// then reused allocation-free.
    slide: SlidingUnion,
}

impl WindowUnion {
    /// Creates an empty window over a system of `n` nodes.
    pub fn new(n: usize) -> Self {
        WindowUnion {
            n,
            rounds: 0,
            counts: Vec::new(),
            degrees: vec![0; n],
            slide: SlidingUnion::unallocated(n),
        }
    }

    /// Makes sure the counter table exists — the first push's one-time
    /// cost, kept out of [`WindowUnion::new`].
    fn ensure_counts(&mut self) {
        if self.counts.is_empty() {
            self.counts.resize(self.n * self.n, 0);
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of rounds currently aggregated.
    pub fn len(&self) -> usize {
        self.rounds
    }

    /// Whether no rounds are aggregated.
    pub fn is_empty(&self) -> bool {
        self.rounds == 0
    }

    /// Empties the window, keeping all allocations.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.degrees.fill(0);
        self.rounds = 0;
    }

    /// Adds the newest round's links to the window.
    ///
    /// # Panics
    ///
    /// Panics if the edge set is for a different node count.
    pub fn push(&mut self, edges: &EdgeSet) {
        self.push_rows(edges);
    }

    /// The row-generic form of [`WindowUnion::push`]: aggregates any
    /// [`LinkRows`] implementation — dense [`EdgeSet`] rows or the sparse
    /// [`LinkPlane`](crate::LinkPlane) — into the window, so the checkers
    /// compile against one trait.
    ///
    /// # Panics
    ///
    /// Panics if the rows are for a different node count, or if a link's
    /// window multiplicity would overflow its `u32` counter (a window of
    /// more than `u32::MAX` rounds — checked, not wrapped, because at
    /// 10⁵-node scale silent counter wraparound would corrupt every
    /// degree the checker reports).
    // audit: no-alloc
    pub fn push_rows<E: LinkRows>(&mut self, rows: &E) {
        assert_eq!(rows.n(), self.n, "node count mismatch");
        self.ensure_counts();
        for v_idx in 0..self.n {
            let row = &mut self.counts[v_idx * self.n..(v_idx + 1) * self.n];
            let mut fresh = 0u32;
            rows.for_each_in(NodeId::new(v_idx), |u| {
                let c = &mut row[u.index()];
                fresh += u32::from(*c == 0);
                assert!(*c != u32::MAX, "window link multiplicity overflows u32");
                *c += 1;
            });
            self.degrees[v_idx] += fresh;
        }
        self.rounds += 1;
    }

    /// Removes the **oldest** round's links from the window. The caller
    /// owns the recording and passes that round's edge set back in; the
    /// window only checks that the counters stay consistent.
    ///
    /// # Panics
    ///
    /// Panics if the edge set is for a different node count, if the window
    /// is empty, or if a popped link was never pushed.
    pub fn pop(&mut self, edges: &EdgeSet) {
        self.pop_rows(edges);
    }

    /// The row-generic form of [`WindowUnion::pop`] (see
    /// [`WindowUnion::push_rows`]).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`WindowUnion::pop`].
    // audit: no-alloc
    pub fn pop_rows<E: LinkRows>(&mut self, rows: &E) {
        assert_eq!(rows.n(), self.n, "node count mismatch");
        assert!(self.rounds > 0, "pop from an empty window");
        for v_idx in 0..self.n {
            let row = &mut self.counts[v_idx * self.n..(v_idx + 1) * self.n];
            let mut gone = 0u32;
            rows.for_each_in(NodeId::new(v_idx), |u| {
                let c = &mut row[u.index()];
                assert!(*c > 0, "popped link ({u}, {v_idx}) was never pushed");
                *c -= 1;
                gone += u32::from(*c == 0);
            });
            self.degrees[v_idx] -= gone;
        }
        self.rounds -= 1;
    }

    /// In how many window rounds the link `(u, v)` is present.
    #[inline]
    pub fn count(&self, u: NodeId, v: NodeId) -> usize {
        // Before the first push there is no table, and every count is 0.
        if self.counts.is_empty() {
            return 0;
        }
        self.counts[v.index() * self.n + u.index()] as usize
    }

    /// Distinct in-neighbors of `v` aggregated across the window — the
    /// union in-degree that (T, D)-dynaDegree bounds from below.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.degrees[v.index()] as usize
    }

    /// Whether `(u, v)` is present in **every** round of the window — a
    /// link of the stable subgraph that T-interval connectivity quantifies
    /// over. Vacuously `false` on an empty window.
    #[inline]
    pub fn stable(&self, u: NodeId, v: NodeId) -> bool {
        self.rounds > 0 && self.count(u, v) == self.rounds
    }

    /// Minimum windowed union in-degree over the given receivers
    /// (`None` if `receivers` is empty).
    pub fn min_degree_over(&self, receivers: &NodeSet) -> Option<usize> {
        assert_eq!(receivers.universe(), self.n, "universe mismatch");
        let mut min = None;
        receivers.for_each(|v| {
            let d = self.degree(v);
            min = Some(min.map_or(d, |m: usize| m.min(d)));
        });
        min
    }

    /// Visits every full `t_window`-round window of the recording in
    /// ascending start order, calling `visit(start, d)` with the window's
    /// minimum aggregated in-degree `d` over the `honest` receivers — the
    /// engine under [`checker::max_dyna_degree`](crate::checker) and
    /// [`checker::window_degree_series`](crate::checker).
    ///
    /// Windows up to 64 rounds push the recording through a
    /// [`SlidingUnion`] — `O(L · n² / 64)` word operations over an
    /// `L`-round recording, with **no** `t_window` factor and no per-link
    /// bit work. Wider windows fall back to the push/pop counter slide.
    /// Either path allocates nothing beyond lazily-grown scratch (the
    /// slabs only grow when scanning a wider window than ever before on
    /// this scratch, the counter table on the first fallback sweep).
    ///
    /// Visits nothing if no full window fits or `honest` is empty.
    ///
    /// # Panics
    ///
    /// Panics if `t_window == 0` or the node counts differ.
    pub fn scan_degrees(
        &mut self,
        schedule: &Schedule,
        t_window: usize,
        honest: &NodeSet,
        mut visit: impl FnMut(usize, usize),
    ) {
        assert!(t_window > 0, "window must be at least 1 round");
        assert_eq!(self.n, schedule.n(), "node count mismatch");
        assert_eq!(honest.universe(), self.n, "universe mismatch");
        if schedule.len() < t_window || honest.is_empty() {
            return;
        }
        if t_window > BLOCK_SCAN_MAX_WINDOW {
            self.scan_degrees_counters(schedule, t_window, honest, visit);
            return;
        }
        self.slide.reset(t_window);
        for (t, edges) in schedule.iter() {
            self.slide.push_rows(edges);
            if let Some(min) = self.slide.min_degree_over(honest) {
                visit(t.as_u64() as usize + 1 - t_window, min);
            }
        }
    }

    /// Counter-slide fallback of [`WindowUnion::scan_degrees`] for very
    /// wide windows: pays per link occurrence instead of per block row,
    /// still with no `t_window` factor.
    fn scan_degrees_counters(
        &mut self,
        schedule: &Schedule,
        t_window: usize,
        honest: &NodeSet,
        mut visit: impl FnMut(usize, usize),
    ) {
        self.clear();
        for (t, edges) in schedule.iter() {
            self.push(edges);
            if let Some(start) = (t.as_u64() + 1).checked_sub(t_window as u64) {
                let min = self
                    .min_degree_over(honest)
                    .expect("honest checked non-empty");
                visit(start as usize, min);
                self.pop(schedule.round(Round::new(start)).expect("within recording"));
            }
        }
    }

    /// Sets one link's multiplicity directly — test-only access for the
    /// counter-overflow boundary, which honest pushes cannot reach in a
    /// test's lifetime.
    #[cfg(test)]
    fn force_count_for_test(&mut self, u: NodeId, v: NodeId, c: u32) {
        self.ensure_counts();
        let slot = &mut self.counts[v.index() * self.n + u.index()];
        if *slot == 0 && c > 0 {
            self.degrees[v.index()] += 1;
        }
        *slot = c;
    }

    /// The distinct in-neighbors of `v` across the window, written into
    /// `out` (cleared first).
    pub fn union_in_neighbors_into(&self, v: NodeId, out: &mut NodeSet) {
        assert_eq!(out.universe(), self.n, "universe mismatch");
        out.clear();
        if self.counts.is_empty() {
            return; // nothing pushed yet
        }
        let row = &self.counts[v.index() * self.n..(v.index() + 1) * self.n];
        for (u_idx, &c) in row.iter().enumerate() {
            if c > 0 {
                out.insert(NodeId::new(u_idx));
            }
        }
    }
}

impl fmt::Debug for WindowUnion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WindowUnion(n={}, rounds={})", self.n, self.rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(n: usize, p: &[(usize, usize)]) -> EdgeSet {
        EdgeSet::from_pairs(n, p.iter().copied())
    }

    #[test]
    fn push_accumulates_distinct_neighbors() {
        let mut w = WindowUnion::new(4);
        w.push(&pairs(4, &[(0, 1), (2, 1)]));
        w.push(&pairs(4, &[(0, 1), (3, 1)]));
        assert_eq!(w.degree(NodeId::new(1)), 3);
        assert_eq!(w.count(NodeId::new(0), NodeId::new(1)), 2);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn pop_reverses_push() {
        let a = pairs(3, &[(0, 1), (2, 1)]);
        let b = pairs(3, &[(0, 1)]);
        let mut w = WindowUnion::new(3);
        w.push(&a);
        w.push(&b);
        w.pop(&a);
        assert_eq!(w.degree(NodeId::new(1)), 1, "only (0,1) remains");
        assert_eq!(w.len(), 1);
        w.pop(&b);
        assert!(w.is_empty());
        assert_eq!(w.degree(NodeId::new(1)), 0);
    }

    #[test]
    fn stable_requires_presence_in_every_round() {
        let mut w = WindowUnion::new(3);
        assert!(!w.stable(NodeId::new(0), NodeId::new(1)), "empty window");
        w.push(&pairs(3, &[(0, 1), (2, 1)]));
        w.push(&pairs(3, &[(0, 1)]));
        assert!(w.stable(NodeId::new(0), NodeId::new(1)));
        assert!(!w.stable(NodeId::new(2), NodeId::new(1)));
    }

    #[test]
    fn min_degree_over_subset() {
        let mut w = WindowUnion::new(3);
        w.push(&pairs(3, &[(0, 1), (1, 2), (2, 1)]));
        let all = NodeSet::full(3);
        assert_eq!(w.min_degree_over(&all), Some(0), "node 0 hears nobody");
        let just_1 = NodeSet::from_ids(3, [NodeId::new(1)]);
        assert_eq!(w.min_degree_over(&just_1), Some(2));
        assert_eq!(w.min_degree_over(&NodeSet::new(3)), None);
    }

    #[test]
    fn union_in_neighbors_into_matches_degrees() {
        let mut w = WindowUnion::new(5);
        w.push(&pairs(5, &[(0, 1), (4, 1)]));
        w.push(&pairs(5, &[(2, 1)]));
        let mut out = NodeSet::new(5);
        w.union_in_neighbors_into(NodeId::new(1), &mut out);
        assert_eq!(out.len(), w.degree(NodeId::new(1)));
        assert!(out.contains(NodeId::new(4)));
    }

    #[test]
    fn clear_keeps_capacity_resets_state() {
        let mut w = WindowUnion::new(3);
        w.push(&pairs(3, &[(0, 1)]));
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.degree(NodeId::new(1)), 0);
        w.push(&pairs(3, &[(2, 0)]));
        assert_eq!(w.degree(NodeId::new(0)), 1);
    }

    #[test]
    fn push_rows_accepts_sparse_link_planes() {
        use crate::{LinkPlane, LinkSink, NodeSet};
        let n = 70;
        let mut lp = LinkPlane::new(n);
        lp.begin_round(&NodeSet::full(n));
        lp.push_run(NodeId::new(1), NodeId::new(0), NodeId::new(65));
        lp.push_link(NodeId::new(2), NodeId::new(69));
        let mut dense = EdgeSet::empty(n);
        lp.fill_edgeset(&mut dense);
        let mut ws = WindowUnion::new(n);
        ws.push_rows(&lp);
        let mut wd = WindowUnion::new(n);
        wd.push(&dense);
        for v in NodeId::all(n) {
            assert_eq!(ws.degree(v), wd.degree(v), "receiver {v}");
        }
        ws.pop_rows(&lp);
        assert!(ws.is_empty());
        assert_eq!(ws.degree(NodeId::new(1)), 0);
    }

    /// The round `e` as sparse rows: a row missing at most one sender as
    /// runs — two that meet inside a word without touching when one is
    /// missing, so that word arrives as two chunks — any other row as an
    /// exact sender list.
    fn as_link_plane(e: &EdgeSet) -> crate::LinkPlane {
        use crate::LinkSink;
        let n = e.n();
        let (first, last) = (NodeId::new(0), NodeId::new(n - 1));
        let mut lp = crate::LinkPlane::new(n);
        lp.begin_round(&NodeSet::full(n));
        for v in NodeId::all(n) {
            let row = e.in_neighbors(v);
            let mut missing = NodeId::all(n).filter(|&u| u != v && !row.contains(u));
            match (missing.next(), missing.next()) {
                (None, _) => lp.push_run(v, first, last),
                (Some(u), None) => lp.push_run_except(v, first, last, u),
                _ => row.for_each(|u| lp.push_link(v, u)),
            }
        }
        lp
    }

    /// Pushes `3 · t + 2` rounds — every offset, two flips — through
    /// `dense` (as `EdgeSet` rows) and `sparse` (as `LinkPlane` rows),
    /// both freshly `new` or `reset` to `t`, and after every push holds
    /// each against the definition (`Schedule::window_in_neighbors`,
    /// recomputed) and against a `WindowUnion` slid by `push` / `pop`.
    fn drive_against_definition(
        dense: &mut SlidingUnion,
        sparse: &mut SlidingUnion,
        t: usize,
        rng: &mut adn_types::rng::SplitMix64,
        what: &str,
    ) {
        let n = dense.n;
        assert_eq!((dense.t, sparse.t), (t, t), "{what}");
        let mut recording = Schedule::new(n);
        let mut counters = WindowUnion::new(n);
        let random = NodeSet::from_ids(n, NodeId::all(n).filter(|_| rng.next_bool(0.5)));
        let receivers = [NodeSet::full(n), random, NodeSet::new(n)];
        for r in 0..3 * t + 2 {
            let p = [0.0, 0.05, 0.5, 1.0][rng.next_index(4)];
            let mut e = crate::generators::gnp(n, p, rng);
            if p == 1.0 {
                // Complete rows, each short of one sender (or of itself).
                for v in NodeId::all(n) {
                    e.remove(NodeId::new(rng.next_index(n)), v);
                }
            }
            dense.push_rows(&e);
            sparse.push_rows(&as_link_plane(&e));
            counters.push(&e);
            recording.push(e);
            let start = (r + 1).checked_sub(t);
            if let Some(start) = start.filter(|&s| s > 0) {
                counters.pop(recording.round(Round::new(start as u64 - 1)).unwrap());
            }
            for honest in &receivers {
                let mut naive = None;
                if let Some(start) = start {
                    honest.for_each(|v| {
                        let d = recording
                            .window_in_neighbors(v, Round::new(start as u64), t)
                            .len();
                        naive = Some(naive.map_or(d, |m: usize| m.min(d)));
                    });
                    assert_eq!(counters.len(), t, "{what}");
                    assert_eq!(counters.min_degree_over(honest), naive, "{what}: counters");
                }
                let at = format!("{what}, push {r}, {} receivers", honest.len());
                assert_eq!(dense.min_degree_over(honest), naive, "{at}: EdgeSet rows");
                assert_eq!(
                    sparse.min_degree_over(honest),
                    naive,
                    "{at}: LinkPlane rows"
                );
            }
        }
    }

    /// Seeds: `ADN_FUZZ_SEEDS` (default 30 — every (n, T) pair once).
    #[test]
    fn sliding_union_matches_its_definition() {
        use adn_types::rng::SplitMix64;
        const NS: [usize; 5] = [1, 5, 64, 65, 130];
        const TS: [usize; 6] = [1, 2, 3, 8, 64, 65];
        let seeds: u64 = std::env::var("ADN_FUZZ_SEEDS").map_or(30, |s| s.parse().unwrap());
        for seed in 0..seeds {
            let mut rng = SplitMix64::new(seed ^ 0x51D3);
            let case = seed as usize % (NS.len() * TS.len());
            let (n, t) = (NS[case % NS.len()], TS[case / NS.len()]);
            let mut dense = SlidingUnion::new(n, t);
            let mut sparse = SlidingUnion::new(n, t);
            let what = format!("seed {seed}: n = {n}, T = {t}");
            drive_against_definition(&mut dense, &mut sparse, t, &mut rng, &what);
            // The same slabs again at another width, wider or narrower.
            let t = TS[rng.next_index(TS.len())];
            dense.reset(t);
            sparse.reset(t);
            let what = format!("{what}, reset to T = {t}");
            drive_against_definition(&mut dense, &mut sparse, t, &mut rng, &what);
        }
    }

    #[test]
    fn counter_table_waits_for_the_first_push() {
        let mut w = WindowUnion::new(4);
        assert_eq!(w.count(NodeId::new(0), NodeId::new(1)), 0);
        assert!(!w.stable(NodeId::new(0), NodeId::new(1)));
        let mut out = NodeSet::full(4);
        w.union_in_neighbors_into(NodeId::new(1), &mut out);
        assert!(out.is_empty());
        w.clear();
        assert!(w.counts.is_empty(), "nothing pushed, nothing allocated");
        let mut s = Schedule::new(4);
        s.push(pairs(4, &[(0, 1)]));
        w.scan_degrees(&s, 1, &NodeSet::full(4), |_, _| {});
        assert!(w.counts.is_empty(), "the slab scan reads no counters");
        w.push(&pairs(4, &[(0, 1)]));
        assert_eq!(w.count(NodeId::new(0), NodeId::new(1)), 1);
    }

    #[test]
    #[should_panic(expected = "at least 1 round")]
    fn zero_width_sliding_union_panics() {
        let _ = SlidingUnion::new(3, 0);
    }

    #[test]
    #[should_panic(expected = "overflows u32")]
    fn push_at_counter_boundary_is_checked_not_wrapped() {
        let mut w = WindowUnion::new(3);
        w.force_count_for_test(NodeId::new(0), NodeId::new(1), u32::MAX);
        w.push(&pairs(3, &[(0, 1)]));
    }

    #[test]
    #[should_panic(expected = "never pushed")]
    fn pop_of_unpushed_link_panics() {
        let mut w = WindowUnion::new(3);
        w.push(&pairs(3, &[(0, 1)]));
        w.pop(&pairs(3, &[(2, 1)]));
    }

    #[test]
    #[should_panic(expected = "empty window")]
    fn pop_empty_panics() {
        WindowUnion::new(3).pop(&EdgeSet::empty(3));
    }

    #[test]
    #[should_panic(expected = "node count mismatch")]
    fn push_wrong_size_panics() {
        WindowUnion::new(3).push(&EdgeSet::empty(4));
    }
}
