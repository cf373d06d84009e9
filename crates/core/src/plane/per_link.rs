//! The per-link step: the receive rule on the columns, one message at a
//! time ([`Cols::process`]).
//!
//! Next to the row kernel ([`row`](super::row)) the columnar plane keeps
//! the receive rule as a per-link step, behind
//! [`AlgorithmPlane::receive`](super::AlgorithmPlane::receive). So each
//! algorithm's receive rule exists as its boxed oracle
//! ([`Dac`](crate::Dac), [`Dbac`](crate::Dbac)) and, shared between the
//! two, one generic per-link step and one generic row kernel, to which
//! each rule adds its word step. A plane can be built with any number of
//! slots — `Params` sizes what a slot is, not how many there are — and
//! [`Lanes`](crate::Lanes) runs up to 64 Monte-Carlo trials on one plane of
//! `n × 64` slots through this step ([`Columnar::stepper`]). Folding the
//! step into the kernel (load/store per link) was measured at −25 % on the
//! lane workload, so the two forms stay: what they share is shared at
//! compile time, through the rule. The end-of-round hook advances a slot
//! with [`Cols::try_advance`] too.

use adn_types::{Message, Port};

use super::columnar::{Cols, Columnar};
use super::Rule;
use crate::trim;

impl<R: Rule> Cols<'_, R> {
    /// One received message at slot `v` — the columnar mirror of
    /// `Dac::process` (Alg. 1 lines 5–15) / `Dbac::process` (Alg. 2 lines
    /// 5–11), with two flow changes that are behaviorally invisible:
    /// "decided" is read off the phase column (`phase >= pend ⇔ output
    /// set` — the `output` invariant), and `try_advance` is skipped when
    /// the message changed nothing (a drained quorum condition cannot
    /// become true without new state).
    #[inline(always)]
    pub(super) fn process(&mut self, v: usize, port: Port, msg: Message) {
        let p = self.phase[v];
        if p.as_u64() >= self.pend {
            // Decided: keeps broadcasting, no longer updates.
            return;
        }
        let q = msg.phase();
        if R::JUMPS && q > p {
            // Jump: adopt the future state wholesale.
            self.value[v] = msg.value();
            self.phase[v] = q;
            self.reset(v);
        } else if q >= p {
            if !self.seen.insert(v, port) {
                return; // duplicate port: nothing changed
            }
            let seen = self.seen.count(v);
            let (low, high) = self.lists(v);
            trim::store(low, high, msg.value());
            // Below quorum nothing can advance and the phase is still
            // short of pend — skip the call, keeping the per-message path
            // free of the out-of-line advance machinery.
            if seen < self.foreign_quorum {
                return;
            }
        } else {
            return; // stale: nothing changed
        }
        self.try_advance(v);
    }

    #[inline]
    pub(super) fn try_advance(&mut self, v: usize) {
        while self.seen.count(v) >= self.foreign_quorum && self.phase[v].as_u64() < self.pend {
            let (low, high) = self.lists(v);
            let (lo, hi) = trim::bounds(low, high);
            self.value[v] = lo.midpoint(hi);
            self.phase[v] = self.phase[v].next();
            self.reset(v);
        }
        self.maybe_output(v);
    }
}

impl<R: Rule> Columnar<R> {
    /// The per-link step ([`Cols::process`], the one
    /// [`AlgorithmPlane::receive`](super::AlgorithmPlane::receive) runs) as
    /// `(slot, port, message)`, with the column views split once for as
    /// many links as the caller feeds it — the trial lanes' entry.
    pub(crate) fn stepper(&mut self) -> impl FnMut(usize, Port, Message) + '_ {
        let mut cols = self.cols();
        move |v, port, msg| cols.process(v, port, msg)
    }
}
