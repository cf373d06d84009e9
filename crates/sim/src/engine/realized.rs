//! The realized round graph: the links that actually delivered, read off
//! the run's one link store after the round.
//!
//! The delivery walk writes no realized link. [`RealizedRows`] re-applies
//! its per-link rule to the store instead — sender class, crash
//! survivors, and for a Byzantine sender the round's fabrication arena,
//! which holds an empty batch for a link it fabricated nothing for — and
//! everything that needs a round's realized links reads them there: a
//! logged round's deliveries, a recorded schedule, and the service
//! watchdog's degrees. So neither logging nor recording changes the walk.

use adn_faults::CrashSchedule;
use adn_graph::{EdgeSet, LinkPlane, LinkRows, NodeSet};
use adn_net::{RoundBuffers, SenderClass};
use adn_types::{NodeId, Round};

use super::walk::{fabricated_len, scan_senders};
use super::Simulation;
use crate::trace::Event;

/// A read-only [`LinkRows`] view of the links that actually **delivered**
/// in the round the last `step` executed — the realized round graph that
/// the dynaDegree safety condition quantifies over.
///
/// Nothing is materialized: the view re-applies the delivery walk's
/// per-link rule to the run's one link store on the fly. A link `u → v`
/// delivered iff `v` executed the round and `u`'s class says so — every
/// link of a Present sender, a Partial sender's links that survived its
/// crash, a Byzantine sender's links whose batch in the round's
/// fabrication arena is not empty, and no Silent sender's. `O(row)` per receiver, a
/// word at a time on words and run rows, whichever form the store holds.
/// Obtain via [`Simulation::realized_rows`](crate::Simulation::realized_rows).
#[derive(Debug)]
pub struct RealizedRows<'a> {
    pub(super) links: &'a LinkPlane,
    pub(super) honest: &'a NodeSet,
    /// The round's sender classes: its non-Silent senders, those of them
    /// whose links all deliver (Present), and the rest of them, Partial
    /// and Byzantine (see
    /// [`PlaneRound::conditional`](super::walk::PlaneRound::conditional)).
    pub(super) active: &'a NodeSet,
    pub(super) unconditional: &'a NodeSet,
    pub(super) conditional: &'a [(usize, NodeId)],
    pub(super) classes: &'a [SenderClass],
    pub(super) crash: &'a CrashSchedule,
    pub(super) fabricated: &'a [(NodeId, NodeId, usize)],
    /// The executed round (the crash-survivor axis).
    pub(super) t: Round,
}

impl RealizedRows<'_> {
    /// Whether chosen link `u → v` delivered, `v` honest.
    fn delivers(&self, u: NodeId, v: NodeId) -> bool {
        match self.classes[u.index()] {
            SenderClass::Present => true,
            SenderClass::Partial => self.crash.delivers(u, self.t, v),
            SenderClass::Byzantine => fabricated_len(self.fabricated, u, v) > 0,
            SenderClass::Silent => false,
        }
    }

    /// The view as dense rows, for a recorded schedule: the store's rows
    /// (a copy of its words, or its run/CSR rows read out) less what did
    /// not deliver — the rows of receivers that did not execute, the
    /// Silent senders' links (if the round has any), and the dead links of
    /// the round's few conditional senders: a Partial one's sender by
    /// sender, a Byzantine one's off the arena.
    pub(super) fn to_edge_set(&self) -> EdgeSet {
        let mut rows = match self.links.words() {
            Some(words) => words.clone(),
            None => {
                let mut rows = EdgeSet::empty(self.n());
                rows.union_rows(self.links);
                rows
            }
        };
        let silent = self.active.len() < self.n();
        for (v_idx, row) in rows.in_neighbor_sets_mut().iter_mut().enumerate() {
            if !self.honest.contains(NodeId::new(v_idx)) {
                row.clear();
            } else if silent {
                row.intersect_with(self.active);
            }
        }
        for &(_, u) in self.conditional {
            if self.classes[u.index()] == SenderClass::Partial {
                self.honest.for_each(|v| {
                    if rows.contains(u, v) && !self.crash.delivers(u, self.t, v) {
                        rows.remove(u, v);
                    }
                });
            }
        }
        for &(v, u, _) in self.fabricated.iter().filter(|l| l.2 == 0) {
            rows.remove(u, v);
        }
        rows
    }
}

impl LinkRows for RealizedRows<'_> {
    fn n(&self) -> usize {
        self.links.n()
    }

    fn scan_in(&self, v: NodeId, from: usize, mut f: impl FnMut(NodeId) -> bool) -> Option<NodeId> {
        // Crashed/Byzantine receivers process nothing: their realized
        // rows are empty.
        if !self.honest.contains(v) {
            return None;
        }
        self.links
            .scan_in(v, from, |u| !self.delivers(u, v) || f(u))
    }

    /// The realized row by words, never by links: the store's chunks `∧`
    /// the Present senders, plus the round's conditional senders in the
    /// chunk — a handful at most — asked one by one.
    #[inline]
    fn scan_words_in(&self, v: NodeId, mut f: impl FnMut(usize, u64) -> bool) {
        if !self.honest.contains(v) {
            return;
        }
        let (active, present) = (self.active.words(), self.unconditional.words());
        self.links.scan_words_in(v, |w, bits| {
            let mut delivered = bits & present[w];
            let mut conditional = bits & active[w] & !present[w];
            while conditional != 0 {
                let b = conditional.trailing_zeros() as usize;
                conditional &= conditional - 1;
                let u = NodeId::new(w * 64 + b);
                delivered |= u64::from(self.delivers(u, v)) << b;
            }
            delivered == 0 || f(w, delivered)
        });
    }

    /// The store's membership test (what a permuted order's walk asks per
    /// sender), then the sender's class.
    fn contains(&self, u: NodeId, v: NodeId) -> bool {
        self.honest.contains(v) && self.links.contains(u, v) && self.delivers(u, v)
    }

    fn in_degree(&self, v: NodeId) -> usize {
        let mut c = 0;
        self.scan_words_in(v, |_, bits| {
            c += bits.count_ones() as usize;
            true
        });
        c
    }
}

impl Simulation {
    /// The realized links of the most recently executed round as
    /// [`LinkRows`] — the link-path-agnostic view consumers like the
    /// service watchdog read dynaDegree from. Valid until the next
    /// [`step`](Simulation::step) (or instance re-seed); empty before any
    /// round has executed. See [`RealizedRows`].
    pub fn realized_rows(&self) -> RealizedRows<'_> {
        self.realized_in(Round::new(self.round.as_u64().saturating_sub(1)))
    }

    /// [`Simulation::realized_rows`] of round `t`, the last one delivered.
    pub(super) fn realized_in(&self, t: Round) -> RealizedRows<'_> {
        RealizedRows {
            links: &self.links,
            honest: &self.buffers.honest,
            active: &self.buffers.active,
            unconditional: &self.buffers.unconditional,
            conditional: &self.conditional,
            classes: &self.buffers.classes,
            crash: &self.crash,
            fabricated: self.fabricated.as_ref().map_or(&[], |f| &f.links),
            t,
        }
    }

    /// A logged run's `Event::Delivery`s of round `t`, read off the
    /// realized rows once the round has delivered: each honest receiver,
    /// ascending, its realized senders in the round's order — the order
    /// the walk delivered them in. Realized rows hold exactly the links
    /// that delivered something, so the log does not ask the walk to visit
    /// links on their own; a fabricated batch's length is read off the
    /// round's arena.
    pub(super) fn log_deliveries(&mut self, t: Round) {
        let Some(mut log) = self.events.take() else {
            return;
        };
        let realized = self.realized_in(t);
        let RoundBuffers {
            batches,
            classes,
            honest,
            perm,
            ..
        } = &self.buffers;
        let perm = self.delivery_order.shared_perm(perm);
        honest.for_each(|v| {
            scan_senders(perm, &realized, v, 0, |u| {
                let batch_len = match classes[u.index()] {
                    SenderClass::Byzantine => fabricated_len(realized.fabricated, u, v),
                    _ => batches[u.index()].len(),
                };
                log.push(Event::Delivery {
                    round: t,
                    sender: u,
                    receiver: v,
                    port: self.ports.port_of(v, u),
                    batch_len,
                });
                true
            });
        });
        self.events = Some(log);
    }
}
