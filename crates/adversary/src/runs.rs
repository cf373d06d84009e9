//! Shared scratch for the windowed adversaries.
//!
//! [`Rotating`](crate::Rotating) and [`Staggered`](crate::Staggered) both
//! pick, per receiver `v`, a contiguous index window of the list
//! "delivering senders minus `v`" in ascending id order. Building that
//! reduced list per receiver costs one `Vec` per (receiver, round) pair —
//! the allocation the word-parallel link plane exists to avoid. Instead,
//! [`SenderList`] holds the ascending *full* deliverer list (refilled in
//! place once per round) and maps each reduced-list index run onto at most
//! two contiguous id ranges of the deliverer set, each emitted as one
//! [`LinkSink`] run.

use adn_graph::LinkSink;
use adn_types::NodeId;

use crate::AdversaryView;

/// Reusable ascending list of the round's delivering senders plus the
/// reduced-list run mapping (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct SenderList {
    senders: Vec<NodeId>,
}

impl SenderList {
    /// Refills the list from the round's deliverers (capacity-preserving).
    pub fn begin_round(&mut self, view: &AdversaryView<'_>) {
        self.senders.clear();
        self.senders.extend(view.deliverers.iter());
    }

    /// Emits receiver `v`'s rotation window in round `t`: `d` cyclically
    /// consecutive members (all of them, if fewer exist) of "deliverers
    /// minus `v`", starting at index `(t·d + v) mod len` so neighbor sets
    /// differ across rounds *and* across receivers.
    pub fn push_window<S: LinkSink>(&self, out: &mut S, v: NodeId, t: usize, d: usize) {
        let rank = self.senders.binary_search(&v).ok();
        let len = self.senders.len() - usize::from(rank.is_some());
        if len == 0 {
            return;
        }
        let d = d.min(len);
        let start = (t * d + v.index()) % len;
        // The window [start, start + d) mod len, split at the wrap.
        let first = d.min(len - start);
        self.push_reduced_run(out, v, rank, start, start + first);
        self.push_reduced_run(out, v, rank, 0, d - first);
    }

    /// Emits the **reduced-list** ("deliverers minus `v`") index run
    /// `[a, b)` as id-range runs on `v`'s row, stepping over `v`'s own
    /// rank in the full list (`rank`). Empty runs emit nothing.
    fn push_reduced_run<S: LinkSink>(
        &self,
        out: &mut S,
        v: NodeId,
        rank: Option<usize>,
        a: usize,
        b: usize,
    ) {
        if a == b {
            return;
        }
        // A full-list index run [a, b) is contiguous in the ascending
        // deliverer list, so it covers exactly the deliverers in the id
        // range [senders[a], senders[b-1]].
        let mut run = |a: usize, b: usize| out.push_run(v, self.senders[a], self.senders[b - 1]);
        match rank {
            Some(p) if a < p && b > p => {
                run(a, p);
                run(p + 1, b + 1);
            }
            Some(p) if a >= p => run(a + 1, b + 1),
            _ => run(a, b),
        }
    }
}
