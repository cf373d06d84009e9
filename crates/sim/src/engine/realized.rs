//! The realized round graph: the links that actually delivered, read off
//! the run's one link store after the round.
//!
//! The delivery walk records nothing. [`RealizedRows`] re-applies its
//! per-link rule to the store instead — sender class, crash survivors,
//! and for a Byzantine sender the round's fabrication arena, which holds
//! an empty batch for a link it fabricated nothing for — and everything a
//! round records is read there: its traffic, its logged events and a
//! recorded schedule (the recording stage, [`Simulation::record`]), and
//! the service watchdog's degrees. A recorded round is first compared
//! with the last one recorded and copied only when it differs, so a
//! static adversary's run holds one copy of its round.

use adn_faults::CrashSchedule;
use adn_graph::{EdgeSet, LinkPlane, LinkRows, NodeSet};
use adn_net::{RoundBuffers, SenderClass, Traffic};
use adn_types::{Batch, NodeId, Round};

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
    /// What each non-Byzantine sender (and each uniform Byzantine one)
    /// staged for the round.
    pub(super) batches: &'a [Batch],
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

    /// Whether the view holds exactly `rows`' links — how the recording
    /// asks whether a round repeats, without building it. On words, with
    /// every receiver executing the round and every sender Present, the
    /// view is the store's words as they lie (nothing is held back), and
    /// they are compared as one slab — at n = 1024 about twenty times
    /// faster than chunk by chunk ([`EdgeSet::equals_rows`]), the compare
    /// everywhere else.
    pub(super) fn equals(&self, rows: &EdgeSet) -> bool {
        let n = self.n();
        match self.links.words() {
            Some(words) if self.honest.len() == n && self.unconditional.len() == n => rows == words,
            _ => rows.equals_rows(self),
        }
    }

    /// The round's traffic: one delivery per realized link, of its
    /// sender's staged batch or its fabricated one. The Present links are
    /// one masked popcount per receiver, one message each, recounted
    /// sender by sender only where the staged batch is not one message;
    /// Partial links are asked one by one, Byzantine ones read off the
    /// arena.
    pub(super) fn traffic(&self) -> Traffic {
        let (honest, batches) = (self.honest, self.batches);
        let fired = |u: NodeId| honest.iter().filter(move |&v| self.links.contains(u, v));
        let mut traffic = Traffic::new();
        let mut single = 0;
        honest.for_each(|v| single += self.links.in_degree_within(v, self.unconditional));
        for u in self.unconditional.iter() {
            let len = batches[u.index()].len();
            if len != 1 {
                let links = fired(u).count();
                single -= links;
                traffic.record_uniform_deliveries(links as u64, len);
            }
        }
        traffic.record_uniform_deliveries(single as u64, 1);
        for &(_, u) in self.conditional {
            if self.classes[u.index()] == SenderClass::Partial {
                let links = fired(u)
                    .filter(|&v| self.crash.delivers(u, self.t, v))
                    .count();
                traffic.record_uniform_deliveries(links as u64, batches[u.index()].len());
            }
        }
        for &(_, _, len) in self.fabricated.iter().filter(|l| l.2 > 0) {
            traffic.record_delivery(len);
        }
        traffic
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
            batches: &self.buffers.batches,
            crash: &self.crash,
            fabricated: self.fabricated.as_ref().map_or(&[], |f| &f.links),
            t,
        }
    }

    /// The recording stage of round `t`, once it has delivered: its
    /// traffic, a logged run's events ([`Simulation::log_round`]) and a
    /// recorded schedule ([`Simulation::record_round`]), all read off the
    /// realized round.
    pub(super) fn record(&mut self, t: Round) {
        let traffic = self.realized_in(t).traffic();
        self.traffic.merge(&traffic);
        self.log_round(t);
        if self.record_schedule {
            self.record_round(t);
        }
    }

    /// Appends realized round `t` to the recorded schedule. A round equal
    /// to the last one recorded costs one compare and no copy
    /// ([`RealizedRows::equals`]); a changed round is built once
    /// ([`RealizedRows::to_edge_set`]), straight into the schedule.
    /// [`Schedule::push`](adn_graph::Schedule::push) compares it with the
    /// last round again, so a wrong "differs" here could still not store
    /// a duplicate; that second compare stops at the first row that
    /// differs.
    fn record_round(&mut self, t: Round) {
        let realized = self.realized_in(t);
        let repeats = self
            .schedule
            .last()
            .is_some_and(|last| realized.equals(last));
        if repeats {
            self.schedule.repeat_last();
        } else {
            let round = realized.to_edge_set();
            self.schedule.push(round);
        }
    }

    /// A logged run's events of round `t` up to `end_round`'s: each
    /// transmitting non-Byzantine sender's `Broadcast`, ascending; a
    /// `Crash` for each node whose crash round is `t`; then the
    /// `Delivery`s off the realized rows — each honest receiver,
    /// ascending, its senders in the round's order, the order the walk
    /// delivered them in, a fabricated batch's length read off the arena.
    fn log_round(&mut self, t: Round) {
        let Some(mut log) = self.events.take() else {
            return;
        };
        let realized = self.realized_in(t);
        let RoundBuffers {
            batches,
            classes,
            honest,
            active,
            perm,
            ..
        } = &self.buffers;
        for node in active.iter().filter(|u| self.byz[u.index()].is_none()) {
            let batch_len = batches[node.index()].len();
            log.push(Event::Broadcast {
                round: t,
                node,
                batch_len,
            });
        }
        for node in NodeId::all(self.params.n()) {
            let crashed_now = self.crash.has_crashed_by(node, t)
                && (t == Round::ZERO
                    || !self.crash.has_crashed_by(node, Round::new(t.as_u64() - 1)));
            if crashed_now {
                log.push(Event::Crash { round: t, node });
            }
        }
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
