use std::fmt;

use adn_types::NodeId;

use crate::{LinkRows, NodeSet};

/// The directed links of one round, `E(t)`.
///
/// Stored as per-receiver in-neighbor sets: `in_neighbors(v)` answers "who
/// can `v` hear from this round", which is the access pattern of delivery,
/// of the dynaDegree checker, and of adversaries building graphs
/// receiver-by-receiver. Self-loops are excluded by construction, matching
/// the paper's model (§II-A; self-delivery is a separate, reliable
/// mechanism the adversary cannot disrupt).
///
/// ```
/// use adn_graph::EdgeSet;
/// use adn_types::NodeId;
///
/// let e = EdgeSet::from_pairs(3, [(0, 1), (2, 1)]);
/// assert!(e.contains(NodeId::new(0), NodeId::new(1)));
/// assert_eq!(e.in_degree(NodeId::new(1)), 2);
/// assert_eq!(e.edge_count(), 2);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct EdgeSet {
    n: usize,
    in_neighbors: Vec<NodeSet>,
}

impl EdgeSet {
    /// The empty link set over `n` nodes (every message is dropped).
    pub fn empty(n: usize) -> Self {
        EdgeSet {
            n,
            in_neighbors: (0..n).map(|_| NodeSet::new(n)).collect(),
        }
    }

    /// Largest `n` for which the dense constructors ([`EdgeSet::complete`])
    /// will allocate an `n × n` bitmap — 128 MB of links. Past this, a
    /// dense round graph is almost certainly a mistake: use the sparse
    /// [`LinkPlane`](crate::LinkPlane) row store, whose run rows represent
    /// the same broadcast-shaped graphs in O(1) space per receiver.
    pub const MAX_DENSE_N: usize = 1 << 15;

    /// The complete graph without self-loops: every node hears every other.
    ///
    /// This is the `(1, n-1)`-dynaDegree extreme of the paper.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`EdgeSet::MAX_DENSE_N`], with a pointer at
    /// the sparse plane — failing fast beats an OOM abort deep inside an
    /// experiment.
    pub fn complete(n: usize) -> Self {
        assert!(
            n <= Self::MAX_DENSE_N,
            "EdgeSet::complete(n = {n}) would allocate a {n}×{n} dense bitmap \
             (cap: {}); large systems should use the sparse LinkPlane rows instead",
            Self::MAX_DENSE_N
        );
        let mut e = EdgeSet::empty(n);
        for v in 0..n {
            for u in 0..n {
                if u != v {
                    e.in_neighbors[v].insert(NodeId::new(u));
                }
            }
        }
        e
    }

    /// Builds a link set from `(sender, receiver)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if a pair references a node `>= n` or is a self-loop.
    pub fn from_pairs<I>(n: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut e = EdgeSet::empty(n);
        for (u, v) in pairs {
            e.insert(NodeId::new(u), NodeId::new(v));
        }
        e
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds the directed link `(u, v)`; returns `true` if it was new.
    ///
    /// # Panics
    ///
    /// Panics on self-loops (`u == v`) or out-of-range endpoints.
    pub fn insert(&mut self, u: NodeId, v: NodeId) -> bool {
        assert_ne!(u, v, "self-loops are not part of the model");
        assert!(v.index() < self.n, "receiver {v} out of range");
        self.in_neighbors[v.index()].insert(u)
    }

    /// Removes the directed link `(u, v)`; returns `true` if it existed.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints.
    pub fn remove(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(v.index() < self.n, "receiver {v} out of range");
        self.in_neighbors[v.index()].remove(u)
    }

    /// Removes every link, keeping the allocated per-receiver sets — the
    /// reuse primitive of the round engine's `RoundBuffers`.
    pub fn clear(&mut self) {
        for inn in &mut self.in_neighbors {
            inn.clear();
        }
    }

    /// Whether the directed link `(u, v)` is present.
    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        v.index() < self.n && self.in_neighbors[v.index()].contains(u)
    }

    /// The set of senders `v` hears from this round.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn in_neighbors(&self, v: NodeId) -> &NodeSet {
        &self.in_neighbors[v.index()]
    }

    /// All per-receiver in-neighbor sets, indexed by receiver — the
    /// zero-overhead bulk access path for word-parallel sweeps (no
    /// per-row bounds check, iterator-fusable).
    pub fn in_neighbor_sets(&self) -> &[NodeSet] {
        &self.in_neighbors
    }

    /// Mutable per-receiver in-neighbor sets, for bulk writers that work
    /// row by row (a recorded schedule's round is masked in place).
    /// Callers must uphold the set invariants: no self-loops, every id
    /// below `n`.
    pub fn in_neighbor_sets_mut(&mut self) -> &mut [NodeSet] {
        &mut self.in_neighbors
    }

    /// Number of distinct in-neighbors of `v`.
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_neighbors[v.index()].len()
    }

    /// Number of distinct out-neighbors of `u` (computed; the structure is
    /// optimized for receiver-side queries).
    pub fn out_degree(&self, u: NodeId) -> usize {
        (0..self.n)
            .filter(|&v| self.in_neighbors[v].contains(u))
            .count()
    }

    /// Total number of directed links.
    pub fn edge_count(&self) -> usize {
        self.in_neighbors.iter().map(NodeSet::len).sum()
    }

    /// Iterates over all `(sender, receiver)` pairs, receiver-major.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n).flat_map(move |v| {
            self.in_neighbors[v]
                .iter()
                .map(move |u| (u, NodeId::new(v)))
        })
    }

    /// Calls `f` for every `(sender, receiver)` pair, receiver-major and
    /// ascending-sender within a receiver. Walks the in-neighbor bitsets a
    /// word at a time, so only *realized* links cost work — the traversal
    /// primitive of the delivery plane and the window checkers.
    #[inline]
    pub fn for_each_edge(&self, mut f: impl FnMut(NodeId, NodeId)) {
        for (v_idx, inn) in self.in_neighbors.iter().enumerate() {
            let v = NodeId::new(v_idx);
            inn.for_each(|u| f(u, v));
        }
    }

    /// Adds every link `(u, v)` with `u ∈ senders ∩ mask` in one
    /// word-parallel sweep — the bulk form of [`EdgeSet::insert`]. Self-loops
    /// are stripped.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or the universes differ.
    pub fn insert_from_masked(&mut self, v: NodeId, senders: &NodeSet, mask: &NodeSet) {
        let row = &mut self.in_neighbors[v.index()];
        assert_eq!(senders.universe(), self.n, "universe mismatch");
        assert_eq!(mask.universe(), self.n, "universe mismatch");
        row.union_masked(senders, mask);
        row.remove(v);
    }

    /// Adds every link `(u, v)` with `u ∈ senders ∩ {lo, ..., hi}` (ids,
    /// inclusive) in one word-parallel sweep. Self-loops are stripped.
    ///
    /// # Panics
    ///
    /// Panics if `v`, `hi` is out of range, the universes differ, or
    /// `lo > hi`.
    pub fn insert_range_from(&mut self, v: NodeId, senders: &NodeSet, lo: NodeId, hi: NodeId) {
        assert_eq!(senders.universe(), self.n, "universe mismatch");
        let row = &mut self.in_neighbors[v.index()];
        row.union_range(senders, lo, hi);
        row.remove(v);
    }

    /// Adds every link of `rows`, one 64-sender word at a time — how any
    /// row kind becomes dense rows (a recorded schedule, a decoded
    /// [`LinkPlane`](crate::LinkPlane)).
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ.
    pub fn union_rows(&mut self, rows: &impl LinkRows) {
        assert_eq!(self.n, rows.n(), "node count mismatch");
        for (v_idx, row) in self.in_neighbors.iter_mut().enumerate() {
            rows.scan_words_in(NodeId::new(v_idx), |w, bits| {
                row.set_word(w, row.word(w) | bits);
                true
            });
        }
    }

    /// Whether `rows` holds exactly this set's links, read one 64-sender
    /// chunk at a time and stopped at the first chunk that is not — how a
    /// recording asks whether a round repeats without building it. A row
    /// matches when each of its chunks lies inside this set's row and
    /// they count as many links (chunks never overlap).
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ.
    pub fn equals_rows(&self, rows: &impl LinkRows) -> bool {
        assert_eq!(self.n, rows.n(), "node count mismatch");
        self.in_neighbors.iter().enumerate().all(|(v_idx, row)| {
            let (mut inside, mut links) = (true, 0);
            rows.scan_words_in(NodeId::new(v_idx), |w, bits| {
                links += bits.count_ones() as usize;
                inside = bits & !row.word(w) == 0;
                inside
            });
            inside && links == row.len()
        })
    }

    /// Overwrites `out` with the transpose of this link set: row `u` of
    /// `out` holds the **out**-neighbors of `u` (`out[u] ∋ v ⇔ self[v] ∋
    /// u`) — the sender-major view of the receiver-major original
    /// adversaries fill. (The engine itself delivers receiver-major and
    /// never transposes; the benchmark's stage replay and out-degree
    /// analyses do.)
    ///
    /// Runs as a blocked 64×64 bit-matrix transpose: `(n/64)²` blocks,
    /// each gathered into a 64-word tile, transposed with the
    /// shift-and-mask network, and scattered to the destination rows —
    /// O(n²/64 · log 64) word operations and no allocation, instead of
    /// one `insert` per edge.
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ.
    pub fn transpose_into(&self, out: &mut EdgeSet) {
        assert_eq!(self.n, out.n, "node count mismatch");
        let blocks = self.n.div_ceil(64);
        let mut tile = [0u64; 64];
        for bi in 0..blocks {
            // Tile rows = source rows bi*64.., tile bits = source word bj.
            for bj in 0..blocks {
                for (k, t) in tile.iter_mut().enumerate() {
                    let r = bi * 64 + k;
                    *t = if r < self.n {
                        self.in_neighbors[r].word(bj)
                    } else {
                        0
                    };
                }
                transpose64(&mut tile);
                for (k, &t) in tile.iter().enumerate() {
                    let r = bj * 64 + k;
                    if r < self.n {
                        out.in_neighbors[r].words_mut()[bi] = t;
                    }
                }
            }
        }
    }

    /// Overwrites this link set with the contents of `other`
    /// (word-parallel row copies, no reallocation).
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ.
    pub fn copy_from(&mut self, other: &EdgeSet) {
        assert_eq!(self.n, other.n, "node count mismatch");
        for (a, b) in self.in_neighbors.iter_mut().zip(&other.in_neighbors) {
            a.copy_from(b);
        }
    }

    /// In-place union: afterwards `self` contains every link of `other`.
    ///
    /// This is the building block of the windowed union `G_t` (Def. 1).
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ.
    pub fn union_with(&mut self, other: &EdgeSet) {
        assert_eq!(self.n, other.n, "node count mismatch");
        for (a, b) in self.in_neighbors.iter_mut().zip(&other.in_neighbors) {
            a.union_with(b);
        }
    }

    /// Removes every link whose **sender** is in `senders` (used to model
    /// crashed senders whose links deliver nothing).
    pub fn remove_senders(&mut self, senders: &NodeSet) {
        for inn in &mut self.in_neighbors {
            inn.difference_with(senders);
        }
    }
}

/// In-place 64×64 bit-matrix transpose (Hacker's Delight §7-3 widened to
/// 64 bits and mirrored to our LSB-first column numbering — bit `b` of a
/// row word is column `b`): afterwards bit `j` of `a[i]` equals the old
/// bit `i` of `a[j]`. Six shift-and-mask rounds of log-structured block
/// swaps, ~6·64 word operations per tile.
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        // For every row pair (k, k+j) with bit j of k clear, swap the
        // off-diagonal sub-blocks: columns with bit j set of row k with
        // columns with bit j clear of row k+j (m masks the latter).
        let mut k = 0usize;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

impl fmt::Debug for EdgeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EdgeSet(n={}, edges=", self.n)?;
        f.debug_list()
            .entries(self.edges().map(|(u, v)| (u.index(), v.index())))
            .finish()?;
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_edges() {
        let e = EdgeSet::empty(4);
        assert_eq!(e.edge_count(), 0);
        assert_eq!(e.in_degree(NodeId::new(0)), 0);
    }

    #[test]
    fn complete_has_all_but_self_loops() {
        let e = EdgeSet::complete(5);
        assert_eq!(e.edge_count(), 5 * 4);
        for v in NodeId::all(5) {
            assert_eq!(e.in_degree(v), 4);
            assert_eq!(e.out_degree(v), 4);
            assert!(!e.contains(v, v));
        }
    }

    #[test]
    fn insert_remove_contains() {
        let mut e = EdgeSet::empty(3);
        assert!(e.insert(NodeId::new(0), NodeId::new(1)));
        assert!(!e.insert(NodeId::new(0), NodeId::new(1)));
        assert!(e.contains(NodeId::new(0), NodeId::new(1)));
        assert!(
            !e.contains(NodeId::new(1), NodeId::new(0)),
            "links are directed"
        );
        assert!(e.remove(NodeId::new(0), NodeId::new(1)));
        assert_eq!(e.edge_count(), 0);
    }

    #[test]
    fn clear_empties_without_resizing() {
        let mut e = EdgeSet::complete(4);
        assert_eq!(e.edge_count(), 12);
        e.clear();
        assert_eq!(e.edge_count(), 0);
        assert_eq!(e.n(), 4);
        assert!(e.insert(NodeId::new(0), NodeId::new(1)));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        EdgeSet::empty(3).insert(NodeId::new(1), NodeId::new(1));
    }

    #[test]
    #[should_panic(expected = "sparse LinkPlane")]
    fn complete_past_dense_cap_fails_fast() {
        EdgeSet::complete(EdgeSet::MAX_DENSE_N + 1);
    }

    #[test]
    fn edges_iterator_matches_count() {
        let e = EdgeSet::from_pairs(4, [(0, 1), (1, 2), (3, 2)]);
        let listed: Vec<_> = e.edges().map(|(u, v)| (u.index(), v.index())).collect();
        assert_eq!(listed.len(), e.edge_count());
        assert!(listed.contains(&(3, 2)));
    }

    #[test]
    fn insert_from_masked_unions_intersection() {
        let mut e = EdgeSet::from_pairs(4, [(3, 1)]);
        let senders = NodeSet::from_ids(4, [NodeId::new(0), NodeId::new(2)]);
        let mask = NodeSet::from_ids(4, [NodeId::new(2), NodeId::new(3)]);
        e.insert_from_masked(NodeId::new(1), &senders, &mask);
        assert!(e.contains(NodeId::new(3), NodeId::new(1)), "kept");
        assert!(e.contains(NodeId::new(2), NodeId::new(1)), "added");
        assert!(!e.contains(NodeId::new(0), NodeId::new(1)), "masked out");
    }

    #[test]
    fn for_each_edge_matches_edges_iterator() {
        let e = EdgeSet::from_pairs(70, [(0, 1), (65, 2), (1, 65)]);
        let mut got = Vec::new();
        e.for_each_edge(|u, v| got.push((u, v)));
        assert_eq!(got, e.edges().collect::<Vec<_>>());
    }

    #[test]
    fn transpose_swaps_direction() {
        let e = EdgeSet::from_pairs(5, [(0, 1), (2, 1), (4, 3), (1, 0)]);
        let mut t = EdgeSet::empty(5);
        e.transpose_into(&mut t);
        assert_eq!(t.edge_count(), e.edge_count());
        for (u, v) in e.edges() {
            assert!(t.contains(v, u), "({u}, {v}) must flip");
        }
    }

    #[test]
    fn transpose_matches_naive_across_word_boundaries() {
        use adn_types::rng::SplitMix64;
        // Sizes straddling the 64-bit tile edges, including multi-block.
        for n in [1usize, 7, 63, 64, 65, 127, 128, 130, 200] {
            let mut rng = SplitMix64::new(n as u64);
            let mut e = EdgeSet::empty(n);
            for v in 0..n {
                for u in 0..n {
                    if u != v && rng.next_bool(0.23) {
                        e.insert(NodeId::new(u), NodeId::new(v));
                    }
                }
            }
            let mut naive = EdgeSet::empty(n);
            for (u, v) in e.edges() {
                naive.insert(v, u);
            }
            // Pre-soil the destination: transpose must fully overwrite.
            let mut fast = EdgeSet::complete(n);
            e.transpose_into(&mut fast);
            assert_eq!(fast, naive, "n = {n}");
        }
    }

    #[test]
    fn transpose_twice_is_identity() {
        let e = EdgeSet::from_pairs(70, [(0, 1), (65, 2), (1, 65), (69, 0)]);
        let mut t = EdgeSet::empty(70);
        let mut back = EdgeSet::empty(70);
        e.transpose_into(&mut t);
        t.transpose_into(&mut back);
        assert_eq!(back, e);
    }

    #[test]
    fn equals_rows_matches_run_rows_split_inside_a_word() {
        use crate::{LinkPlane, LinkSink};
        let n = 140;
        let mut deliverers = NodeSet::full(n);
        deliverers.remove(NodeId::new(25));
        let mut plane = LinkPlane::new(n);
        plane.begin_round(&deliverers);
        let id = NodeId::new;
        // Two runs meeting inside word 0 (two chunks of one word), one in
        // word 1, one across words 1 and 2; an exact (CSR) row.
        for (lo, hi) in [(2, 10), (20, 30), (64, 70), (100, 139)] {
            plane.push_run(id(7), id(lo), id(hi));
        }
        for u in [1, 63, 64, 139] {
            plane.push_link(id(8), id(u));
        }
        let mut dense = EdgeSet::empty(n);
        dense.union_rows(&plane);
        assert!(dense.equals_rows(&plane));
        assert!(dense.equals_rows(&dense.clone()));
        for (u, v) in [(5, 7), (30, 7), (139, 7), (63, 8)] {
            let mut less = dense.clone();
            assert!(less.remove(id(u), id(v)));
            assert!(!less.equals_rows(&plane), "{u} → {v} removed");
        }
        for (u, v) in [(15, 7), (25, 7), (80, 7), (2, 8), (0, 9)] {
            let mut more = dense.clone();
            assert!(more.insert(id(u), id(v)));
            assert!(!more.equals_rows(&plane), "{u} → {v} added");
        }
    }

    #[test]
    fn union_accumulates() {
        let mut a = EdgeSet::from_pairs(3, [(0, 1)]);
        let b = EdgeSet::from_pairs(3, [(2, 1), (0, 1)]);
        a.union_with(&b);
        assert_eq!(a.in_degree(NodeId::new(1)), 2);
    }

    #[test]
    fn remove_senders_deletes_their_links() {
        let mut e = EdgeSet::from_pairs(4, [(0, 1), (0, 2), (3, 1)]);
        let dead = NodeSet::from_ids(4, [NodeId::new(0)]);
        e.remove_senders(&dead);
        assert_eq!(e.edge_count(), 1);
        assert!(e.contains(NodeId::new(3), NodeId::new(1)));
    }

    #[test]
    fn debug_lists_edges() {
        let e = EdgeSet::from_pairs(3, [(0, 2)]);
        let s = format!("{e:?}");
        assert!(s.contains("(0, 2)"));
    }
}
