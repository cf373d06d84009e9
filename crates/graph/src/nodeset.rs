use std::fmt;

use adn_types::NodeId;

/// A set of node identifiers drawn from `0..n`, stored as a bitset.
///
/// `NodeSet` is the workhorse of the graph layer: in-neighbor sets, window
/// unions, and the dynaDegree checker all operate on it. Sets remember
/// their universe size `n`, and operations across different universes
/// panic — mixing systems of different sizes is always a bug.
///
/// ```
/// use adn_graph::NodeSet;
/// use adn_types::NodeId;
///
/// let mut s = NodeSet::new(5);
/// s.insert(NodeId::new(1));
/// s.insert(NodeId::new(3));
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(NodeId::new(3)));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![NodeId::new(1), NodeId::new(3)]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct NodeSet {
    n: usize,
    words: Vec<u64>,
}

impl NodeSet {
    /// Creates an empty set over the universe `0..n`.
    pub fn new(n: usize) -> Self {
        NodeSet {
            n,
            // audit: allow(alloc-reach) — init-time constructor; the one no-alloc region that reaches it does so through `Spread::ensure_heard`, the one-time lazy sizing of that adversary's heard-sets
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Creates the full set `{0, ..., n-1}`.
    pub fn full(n: usize) -> Self {
        let mut s = NodeSet::new(n);
        s.words.fill(u64::MAX);
        if let Some(last) = s.words.last_mut() {
            let used = n % 64;
            if used != 0 {
                *last = (1u64 << used) - 1;
            }
        }
        s
    }

    /// Builds a set from an iterator of node ids.
    ///
    /// # Panics
    ///
    /// Panics if any id is `>= n`.
    pub fn from_ids<I: IntoIterator<Item = NodeId>>(n: usize, ids: I) -> Self {
        let mut s = NodeSet::new(n);
        for id in ids {
            s.insert(id);
        }
        s
    }

    /// The universe size this set ranges over.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Inserts a node; returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `id.index() >= n`.
    pub fn insert(&mut self, id: NodeId) -> bool {
        self.check(id);
        let (w, b) = (id.index() / 64, id.index() % 64);
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Removes a node; returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `id.index() >= n`.
    pub fn remove(&mut self, id: NodeId) -> bool {
        self.check(id);
        let (w, b) = (id.index() / 64, id.index() % 64);
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        present
    }

    /// Whether the node is in the set.
    ///
    /// # Panics
    ///
    /// Panics if `id.index() >= n`.
    pub fn contains(&self, id: NodeId) -> bool {
        self.check(id);
        let (w, b) = (id.index() / 64, id.index() % 64);
        self.words[w] & (1 << b) != 0
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all nodes.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Overwrites this set with the contents of `other` (word-parallel
    /// copy, no reallocation).
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn copy_from(&mut self, other: &NodeSet) {
        assert_eq!(
            self.n, other.n,
            "universe mismatch: {} vs {}",
            self.n, other.n
        );
        self.words.copy_from_slice(&other.words);
    }

    /// In-place union with another set over the same universe.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union_with(&mut self, other: &NodeSet) {
        assert_eq!(
            self.n, other.n,
            "universe mismatch: {} vs {}",
            self.n, other.n
        );
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Overwrites this set with `a ∩ b` in one word-parallel pass —
    /// the per-sender "chosen ∩ honest out-neighbors" primitive of the
    /// columnar delivery plane (a `clear` + [`NodeSet::union_masked`]
    /// would walk the words twice).
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn intersection_of(&mut self, a: &NodeSet, b: &NodeSet) {
        assert_eq!(self.n, a.n, "universe mismatch: {} vs {}", self.n, a.n);
        assert_eq!(self.n, b.n, "universe mismatch: {} vs {}", self.n, b.n);
        for ((w, wa), wb) in self.words.iter_mut().zip(&a.words).zip(&b.words) {
            *w = wa & wb;
        }
    }

    /// In-place union with `a ∩ b`, without materializing the
    /// intersection: `self |= a & b`, one word at a time.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union_masked(&mut self, a: &NodeSet, b: &NodeSet) {
        assert_eq!(self.n, a.n, "universe mismatch: {} vs {}", self.n, a.n);
        assert_eq!(self.n, b.n, "universe mismatch: {} vs {}", self.n, b.n);
        for ((w, wa), wb) in self.words.iter_mut().zip(&a.words).zip(&b.words) {
            *w |= wa & wb;
        }
    }

    /// In-place union with `src ∩ {lo, ..., hi}` (ids, inclusive), one
    /// word at a time: `self |= src & [lo..=hi]` without materializing the
    /// range set. The bulk primitive behind windowed adversaries, whose
    /// per-receiver neighbor windows are contiguous id ranges of a
    /// deliverer set.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ, `lo > hi`, or `hi` is out of range.
    pub fn union_range(&mut self, src: &NodeSet, lo: NodeId, hi: NodeId) {
        assert_eq!(self.n, src.n, "universe mismatch: {} vs {}", self.n, src.n);
        assert!(lo <= hi, "empty range: {lo} > {hi}");
        self.check(hi);
        let (lw, hw) = (lo.index() / 64, hi.index() / 64);
        let head = u64::MAX << (lo.index() % 64);
        let tail = u64::MAX >> (63 - hi.index() % 64);
        let (dst, src) = (&mut self.words[lw..=hw], &src.words[lw..=hw]);
        // Only the two end words are masked; the whole words between them
        // are a plain OR loop the compiler vectorizes — a full-range run
        // (the default adversary's row) costs about what a row copy does.
        let last = hw - lw;
        if last == 0 {
            dst[0] |= src[0] & head & tail;
            return;
        }
        dst[0] |= src[0] & head;
        for (a, b) in dst[1..last].iter_mut().zip(&src[1..last]) {
            *a |= b;
        }
        dst[last] |= src[last] & tail;
    }

    /// In-place set difference `self \ other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn difference_with(&mut self, other: &NodeSet) {
        assert_eq!(
            self.n, other.n,
            "universe mismatch: {} vs {}",
            self.n, other.n
        );
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Number of elements in `self ∩ other` without materializing it.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn intersection_len(&self, other: &NodeSet) -> usize {
        assert_eq!(
            self.n, other.n,
            "universe mismatch: {} vs {}",
            self.n, other.n
        );
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Number of members with index strictly below `id` — the position
    /// `id` holds (or would hold) in the ascending member order. Used by
    /// adversaries that index into "deliverers minus the receiver": the
    /// receiver's rank tells them how a reduced-list index maps back onto
    /// the full set. One popcount per word instead of an O(n) scan.
    ///
    /// # Panics
    ///
    /// Panics if `id.index() >= n`.
    pub fn rank(&self, id: NodeId) -> usize {
        self.check(id);
        let (w, b) = (id.index() / 64, id.index() % 64);
        let below: usize = self.words[..w]
            .iter()
            .map(|x| x.count_ones() as usize)
            .sum();
        below + (self.words[w] & ((1u64 << b) - 1)).count_ones() as usize
    }

    /// The `k`-th member in ascending index order (0-based), or `None` if
    /// the set has at most `k` members — the select counterpart of
    /// [`NodeSet::rank`]. Walks whole words by popcount, then isolates the
    /// target bit, instead of stepping an iterator `k` times.
    pub fn nth(&self, mut k: usize) -> Option<NodeId> {
        for (wi, word) in self.iter_words() {
            let c = word.count_ones() as usize;
            if k >= c {
                k -= c;
                continue;
            }
            let mut w = word;
            for _ in 0..k {
                w &= w - 1;
            }
            return Some(NodeId::new(wi * 64 + w.trailing_zeros() as usize));
        }
        None
    }

    /// Iterates over members in ascending index order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { set: self, next: 0 }
    }

    /// The backing bit words, 64 ids per word (bit `b` of word `w` is node
    /// `w * 64 + b`; bits at or beyond `n` are always zero).
    ///
    /// This is the word-parallel access path of the delivery plane and the
    /// sliding-window checker: probing 64 candidate senders costs one load
    /// and one AND instead of 64 `contains` calls.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The `wi`-th bit word (see [`NodeSet::words`]).
    ///
    /// # Panics
    ///
    /// Panics if `wi >= n.div_ceil(64)`.
    #[inline]
    pub fn word(&self, wi: usize) -> u64 {
        self.words[wi]
    }

    /// Overwrites the `wi`-th bit word (see [`NodeSet::words`]) — the
    /// bulk writer for callers that already hold 64 membership bits as a
    /// word (the trial-lane adaptor: word `v` of a set over `n × 64` slots
    /// is node `v`'s lane word).
    ///
    /// # Panics
    ///
    /// Panics if `wi >= n.div_ceil(64)` or `word` has a bit at or beyond
    /// `n` set — those bits stay zero, every other method relies on it.
    #[inline]
    pub fn set_word(&mut self, wi: usize, word: u64) {
        let used = self.n.saturating_sub(wi * 64);
        assert!(
            used >= 64 || word >> used == 0,
            "word {wi} has bits at or beyond n = {}",
            self.n
        );
        self.words[wi] = word;
    }

    /// Mutable access to the backing words for bulk writers inside the
    /// crate (the bit-matrix transpose). Callers must keep bits at or
    /// beyond `n` zero — every public invariant relies on it.
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Iterates over `(word_index, word)` pairs, skipping empty words.
    pub fn iter_words(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.words
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, w)| w != 0)
    }

    /// Calls `f` for every member in ascending order, walking whole words
    /// (64 ids per probe) instead of testing each bit individually.
    #[inline]
    pub fn for_each(&self, mut f: impl FnMut(NodeId)) {
        for (wi, mut word) in self.iter_words() {
            let base = wi * 64;
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                f(NodeId::new(base + bit));
            }
        }
    }

    /// Calls `f` for the members with id `≥ from`, ascending, until it
    /// returns `false`; returns the member that ended the scan (`None`
    /// once the set is exhausted). Resuming at that member's id `+ 1`
    /// continues where the scan stopped.
    #[inline]
    pub fn scan_from(&self, from: usize, mut f: impl FnMut(NodeId) -> bool) -> Option<NodeId> {
        let mut mask = u64::MAX << (from % 64);
        for (wi, &w) in self.words.iter().enumerate().skip(from / 64) {
            let mut word = w & mask;
            mask = u64::MAX;
            while word != 0 {
                let id = NodeId::new(wi * 64 + word.trailing_zeros() as usize);
                word &= word - 1;
                if !f(id) {
                    return Some(id);
                }
            }
        }
        None
    }

    /// Calls `f` for every member of `self ∩ other` in ascending order,
    /// without materializing the intersection.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[inline]
    pub fn intersection_for_each(&self, other: &NodeSet, mut f: impl FnMut(NodeId)) {
        assert_eq!(
            self.n, other.n,
            "universe mismatch: {} vs {}",
            self.n, other.n
        );
        for (wi, (a, b)) in self.words.iter().zip(&other.words).enumerate() {
            let mut word = a & b;
            let base = wi * 64;
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                f(NodeId::new(base + bit));
            }
        }
    }

    fn check(&self, id: NodeId) {
        assert!(
            id.index() < self.n,
            "node {} out of range for universe {}",
            id.index(),
            self.n
        );
    }
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set()
            .entries(self.iter().map(|id| id.index()))
            .finish()
    }
}

impl FromIterator<NodeId> for NodeSet {
    /// Collects ids into a set whose universe is the smallest that fits
    /// (max id + 1). Prefer [`NodeSet::from_ids`] when `n` is known.
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let ids: Vec<NodeId> = iter.into_iter().collect();
        let n = ids.iter().map(|id| id.index() + 1).max().unwrap_or(0);
        NodeSet::from_ids(n, ids)
    }
}

impl Extend<NodeId> for NodeSet {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = NodeId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over the members of a [`NodeSet`] in ascending order.
#[derive(Debug)]
pub struct Iter<'a> {
    set: &'a NodeSet,
    next: usize,
}

impl Iterator for Iter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.next < self.set.n {
            let w = self.next / 64;
            let word = self.set.words[w] >> (self.next % 64);
            if word == 0 {
                // Skip to the next word boundary.
                self.next = (w + 1) * 64;
                continue;
            }
            let offset = word.trailing_zeros() as usize;
            let idx = self.next + offset;
            if idx >= self.set.n {
                return None;
            }
            self.next = idx + 1;
            return Some(NodeId::new(idx));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[usize]) -> Vec<NodeId> {
        xs.iter().copied().map(NodeId::new).collect()
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = NodeSet::new(70);
        assert!(s.insert(NodeId::new(0)));
        assert!(s.insert(NodeId::new(65)));
        assert!(!s.insert(NodeId::new(65)), "double insert reports false");
        assert!(s.contains(NodeId::new(65)));
        assert!(!s.contains(NodeId::new(64)));
        assert!(s.remove(NodeId::new(65)));
        assert!(!s.remove(NodeId::new(65)));
        assert!(!s.contains(NodeId::new(65)));
    }

    #[test]
    fn len_and_empty() {
        let mut s = NodeSet::new(10);
        assert!(s.is_empty());
        s.extend(ids(&[1, 2, 3]));
        assert_eq!(s.len(), 3);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn full_has_everything() {
        let s = NodeSet::full(130);
        assert_eq!(s.len(), 130);
        assert!(s.contains(NodeId::new(129)));
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let s = NodeSet::from_ids(200, ids(&[5, 0, 199, 64, 63, 128]));
        let got: Vec<usize> = s.iter().map(|i| i.index()).collect();
        assert_eq!(got, vec![0, 5, 63, 64, 128, 199]);
    }

    #[test]
    fn union_and_difference() {
        let mut a = NodeSet::from_ids(10, ids(&[1, 2]));
        let b = NodeSet::from_ids(10, ids(&[2, 3]));
        a.union_with(&b);
        assert_eq!(a.len(), 3);
        a.difference_with(&b);
        let got: Vec<usize> = a.iter().map(|i| i.index()).collect();
        assert_eq!(got, vec![1]);
    }

    #[test]
    fn copy_from_overwrites() {
        let mut a = NodeSet::from_ids(10, ids(&[1, 2]));
        let b = NodeSet::from_ids(10, ids(&[7]));
        a.copy_from(&b);
        assert_eq!(a, b);
    }

    #[test]
    fn union_range_respects_bounds() {
        let src = NodeSet::from_ids(200, ids(&[3, 64, 65, 130, 199]));
        for (lo, hi, expect) in [
            (0, 199, vec![3, 64, 65, 130, 199]),
            (4, 129, vec![64, 65]),
            (64, 64, vec![64]),
            (65, 130, vec![65, 130]),
            (131, 198, vec![]),
        ] {
            let mut s = NodeSet::new(200);
            s.union_range(&src, NodeId::new(lo), NodeId::new(hi));
            let got: Vec<usize> = s.iter().map(|i| i.index()).collect();
            assert_eq!(got, expect, "range [{lo}, {hi}]");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn union_range_backwards_panics() {
        let src = NodeSet::new(10);
        NodeSet::new(10).union_range(&src, NodeId::new(5), NodeId::new(4));
    }

    #[test]
    fn intersection_of_overwrites() {
        let mut s = NodeSet::from_ids(100, ids(&[0, 50])); // stale contents
        let a = NodeSet::from_ids(100, ids(&[1, 2, 70]));
        let b = NodeSet::from_ids(100, ids(&[2, 70, 99]));
        s.intersection_of(&a, &b);
        let got: Vec<usize> = s.iter().map(|i| i.index()).collect();
        assert_eq!(got, vec![2, 70], "stale members must be gone");
    }

    #[test]
    fn union_masked_adds_only_intersection() {
        let mut s = NodeSet::from_ids(100, ids(&[0]));
        let a = NodeSet::from_ids(100, ids(&[1, 2, 70]));
        let b = NodeSet::from_ids(100, ids(&[2, 70, 99]));
        s.union_masked(&a, &b);
        let got: Vec<usize> = s.iter().map(|i| i.index()).collect();
        assert_eq!(got, vec![0, 2, 70]);
    }

    #[test]
    fn intersection_len_counts() {
        let a = NodeSet::from_ids(100, ids(&[1, 2, 70, 80]));
        let b = NodeSet::from_ids(100, ids(&[2, 70, 99]));
        assert_eq!(a.intersection_len(&b), 2);
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn cross_universe_union_panics() {
        let mut a = NodeSet::new(5);
        let b = NodeSet::new(6);
        a.union_with(&b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_insert_panics() {
        NodeSet::new(5).insert(NodeId::new(5));
    }

    #[test]
    fn from_iterator_sizes_universe() {
        let s: NodeSet = ids(&[3, 7]).into_iter().collect();
        assert_eq!(s.universe(), 8);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn debug_render_lists_members() {
        let s = NodeSet::from_ids(5, ids(&[1, 4]));
        assert_eq!(format!("{s:?}"), "{1, 4}");
    }

    #[test]
    fn empty_universe_works() {
        let s = NodeSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn words_expose_bit_layout() {
        let s = NodeSet::from_ids(130, ids(&[0, 63, 64, 129]));
        let w = s.words();
        assert_eq!(w.len(), 3);
        assert_eq!(w[0], 1 | (1 << 63));
        assert_eq!(w[1], 1);
        assert_eq!(s.word(2), 2);
    }

    #[test]
    fn iter_words_skips_empty_words() {
        let s = NodeSet::from_ids(200, ids(&[5, 130]));
        let got: Vec<usize> = s.iter_words().map(|(wi, _)| wi).collect();
        assert_eq!(got, vec![0, 2]);
    }

    #[test]
    fn for_each_matches_iter() {
        let s = NodeSet::from_ids(200, ids(&[5, 0, 199, 64, 63, 128]));
        let mut got = Vec::new();
        s.for_each(|id| got.push(id));
        assert_eq!(got, s.iter().collect::<Vec<_>>());
    }

    #[test]
    fn scan_from_stops_and_resumes() {
        let s = NodeSet::from_ids(200, ids(&[0, 5, 63, 64, 65, 130, 199]));
        // A full scan from 0 is `for_each`.
        let mut seen = Vec::new();
        assert_eq!(s.scan_from(0, |id| (seen.push(id.index()), true).1), None);
        assert_eq!(seen, vec![0, 5, 63, 64, 65, 130, 199]);
        // Stopping returns the refused member; `+ 1` resumes behind it,
        // mid-word, at a word boundary, and past the last member.
        assert_eq!(s.scan_from(0, |id| id.index() < 63), Some(NodeId::new(63)));
        assert_eq!(s.scan_from(64, |id| id.index() < 65), Some(NodeId::new(65)));
        assert_eq!(s.scan_from(6, |_| false), Some(NodeId::new(63)));
        assert_eq!(s.scan_from(131, |_| false), Some(NodeId::new(199)));
        assert_eq!(s.scan_from(200, |_| false), None);
        assert_eq!(s.scan_from(1_000, |_| false), None);
    }

    #[test]
    fn set_word_overwrites_and_rejects_bits_beyond_n() {
        let mut s = NodeSet::from_ids(70, ids(&[1, 64]));
        s.set_word(0, u64::MAX);
        s.set_word(1, 0b10_0000);
        assert_eq!(s.len(), 65);
        assert!(s.contains(NodeId::new(69)) && !s.contains(NodeId::new(64)));
        // Bits 70.. of word 1, and any word past the last, are refused.
        for (wi, word) in [(1, 1 << 6), (1, u64::MAX), (2, 1), (2, 0)] {
            let mut t = s.clone();
            let refused = std::panic::catch_unwind(move || t.set_word(wi, word));
            assert!(refused.is_err(), "word {wi} = {word:#x} accepted");
        }
        assert_eq!(s.len(), 65, "a refused write leaves the set alone");
    }

    #[test]
    fn rank_counts_members_below() {
        let s = NodeSet::from_ids(200, ids(&[3, 64, 65, 130, 199]));
        assert_eq!(s.rank(NodeId::new(0)), 0);
        assert_eq!(s.rank(NodeId::new(3)), 0, "rank excludes the id itself");
        assert_eq!(s.rank(NodeId::new(4)), 1);
        assert_eq!(s.rank(NodeId::new(65)), 2);
        assert_eq!(s.rank(NodeId::new(199)), 4, "non-member rank also works");
    }

    #[test]
    fn nth_selects_in_ascending_order() {
        let s = NodeSet::from_ids(200, ids(&[3, 64, 65, 130, 199]));
        let members: Vec<NodeId> = s.iter().collect();
        for (k, &id) in members.iter().enumerate() {
            assert_eq!(s.nth(k), Some(id), "k = {k}");
            assert_eq!(s.rank(id), k, "rank must invert nth");
        }
        assert_eq!(s.nth(5), None);
        assert_eq!(NodeSet::new(10).nth(0), None);
    }

    #[test]
    fn intersection_for_each_visits_common_members() {
        let a = NodeSet::from_ids(100, ids(&[1, 2, 70, 80]));
        let b = NodeSet::from_ids(100, ids(&[2, 70, 99]));
        let mut got = Vec::new();
        a.intersection_for_each(&b, |id| got.push(id.index()));
        assert_eq!(got, vec![2, 70]);
    }

    #[test]
    fn full_keeps_tail_bits_clear() {
        for n in [1usize, 63, 64, 65, 127, 128, 130] {
            let s = NodeSet::full(n);
            assert_eq!(s.len(), n, "n = {n}");
            let mut c = s.clone();
            c.clear();
            assert!(c.is_empty());
        }
    }

    #[test]
    fn into_iterator_for_ref() {
        let s = NodeSet::from_ids(4, ids(&[0, 2]));
        let mut count = 0;
        for _ in &s {
            count += 1;
        }
        assert_eq!(count, 2);
    }
}
