//! Incremental sliding-window link aggregation.
//!
//! The (T, D)-dynaDegree checker and the T-interval-connectivity checker
//! both quantify over **every** window of `T` consecutive rounds of a
//! recording. Recomputing each window's union (or intersection) from
//! scratch costs `O(L · T · |E|)` over an `L`-round recording; a window
//! that slides by one round only changes by the round that leaves and the
//! round that enters. [`WindowUnion`] maintains per-(receiver, sender)
//! multiplicity counters over the current window, so that
//!
//! * the **union** degree of a receiver (distinct in-neighbors across the
//!   window, Definition 1's quantity) is read in O(1), and
//! * the **intersection** ("stable") links of the window (count equal to
//!   the window length, what T-interval connectivity quantifies over) are
//!   recovered by filtering any one round of the window.
//!
//! All state is preallocated at construction: pushing and popping rounds
//! walks edge bitsets a word at a time and never allocates, which is what
//! lets `tests/alloc_free.rs` pin the steady-state checker at zero heap
//! traffic.

use std::fmt;

use adn_types::{NodeId, Round};

use crate::{EdgeSet, LinkRows, NodeSet, Schedule};

/// Widest window served by the block-decomposed degree scan; larger
/// windows fall back to the counter slide (whose cost has no `T` factor
/// either, but whose per-link bit work loses to pure word operations on
/// dense recordings). Bounds the suffix scratch at
/// `BLOCK_SCAN_MAX_WINDOW · n² / 8` bytes.
const BLOCK_SCAN_MAX_WINDOW: usize = 64;

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
    /// is present.
    counts: Vec<u32>,
    /// `degrees[v]` — number of senders with a nonzero count at `v`
    /// (the windowed union in-degree of Definition 1).
    degrees: Vec<u32>,
    /// Block-scan scratch: `t_window` slabs of `n · n.div_ceil(64)` words
    /// each; slab `j` holds the union of the current block's rounds from
    /// offset `j` to the block end, rows flat and contiguous so slab
    /// copies are single `copy_within` calls and degree evaluation is a
    /// branchless popcount sweep. Grown lazily to the widest window
    /// scanned so far, then reused allocation-free.
    suffix: Vec<u64>,
    /// Block-scan scratch: one flat slab holding the running union of the
    /// next block's prefix.
    prefix: Vec<u64>,
}

impl WindowUnion {
    /// Creates an empty window over a system of `n` nodes.
    pub fn new(n: usize) -> Self {
        WindowUnion {
            n,
            rounds: 0,
            counts: vec![0; n * n],
            degrees: vec![0; n],
            suffix: Vec::new(),
            prefix: Vec::new(),
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
    /// Windows up to 64 rounds use a block
    /// decomposition: the recording is cut into `t_window`-round blocks,
    /// each block's suffix unions are built once (one row union per round
    /// per receiver), and every window is then the union of one block
    /// suffix and one running next-block prefix — `O(L · n² / 64)` word
    /// operations over an `L`-round recording, with **no** `t_window`
    /// factor and no per-link bit work. Wider windows fall back to the
    /// push/pop counter slide. Either path allocates nothing beyond the
    /// lazily-grown suffix scratch (which only grows when scanning a wider
    /// window than ever before on this scratch).
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
        let l = schedule.len();
        if l < t_window || honest.is_empty() {
            return;
        }
        if t_window > BLOCK_SCAN_MAX_WINDOW {
            self.scan_degrees_counters(schedule, t_window, honest, visit);
            return;
        }
        let t = t_window;
        let wpr = self.n.div_ceil(64); // words per receiver row
        let slab = self.n * wpr; // words per flat round slab
        if self.suffix.len() < t * slab {
            self.suffix.resize(t * slab, 0);
        }
        if self.prefix.len() < slab {
            self.prefix.resize(slab, 0);
        }
        for b in (0..=l - t).step_by(t) {
            // Suffix slabs of block [b, b + t): slab j = E(b+j) ∪ ... ∪
            // E(b+t-1), built top-down as one flat copy plus one row OR
            // per round. b ≤ l - t, so the block always fits.
            for j in (0..t).rev() {
                let e = schedule
                    .round(Round::new((b + j) as u64))
                    .expect("in block");
                if j == t - 1 {
                    self.suffix[j * slab..(j + 1) * slab].fill(0);
                } else {
                    self.suffix
                        .copy_within((j + 1) * slab..(j + 2) * slab, j * slab);
                }
                let dst = &mut self.suffix[j * slab..(j + 1) * slab];
                for (dst_row, inn) in dst.chunks_exact_mut(wpr).zip(e.in_neighbor_sets()) {
                    for (d, w) in dst_row.iter_mut().zip(inn.words()) {
                        *d |= w;
                    }
                }
            }
            // The block-aligned window is the full suffix.
            visit(b, Self::min_degree(&self.suffix[..slab], None, honest, wpr));
            // Off-alignment windows [b+o, b+o+t) splice slab o with the
            // next block's running prefix E(b+t) ∪ ... ∪ E(b+o+t-1).
            self.prefix[..slab].fill(0);
            for o in 1..t {
                let s = b + o;
                if s + t > l {
                    break;
                }
                let entering = schedule
                    .round(Round::new((s + t - 1) as u64))
                    .expect("bounded by the recording");
                for (dst_row, inn) in self.prefix[..slab]
                    .chunks_exact_mut(wpr)
                    .zip(entering.in_neighbor_sets())
                {
                    for (d, w) in dst_row.iter_mut().zip(inn.words()) {
                        *d |= w;
                    }
                }
                visit(
                    s,
                    Self::min_degree(
                        &self.suffix[o * slab..(o + 1) * slab],
                        Some(&self.prefix[..slab]),
                        honest,
                        wpr,
                    ),
                );
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

    /// Minimum over `honest` of the per-receiver popcount of
    /// `suffix_row | prefix_row`, without materializing the union. Rows
    /// live in flat slabs at `v * wpr`. When every node is honest — the
    /// common case — the sweep is a branchless pass over the contiguous
    /// slabs instead of a per-member bit walk.
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

    /// Sets one link's multiplicity directly — test-only access for the
    /// counter-overflow boundary, which honest pushes cannot reach in a
    /// test's lifetime.
    #[cfg(test)]
    fn force_count_for_test(&mut self, u: NodeId, v: NodeId, c: u32) {
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
