//! Structured execution event logs.
//!
//! When enabled via `SimBuilder::record_events(true)`, the engine logs
//! every observable event of the execution: broadcasts, link deliveries
//! (with the receiver-side port), phase transitions (including multi-phase
//! jumps), crashes, and decisions. The log supports per-node and per-round
//! queries and renders to text — the debugging story for "why did node 3
//! not advance in round 17?".

use std::fmt;

use adn_types::{NodeId, Phase, Port, Round, Value};

/// One observable event of an execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A node handed its batch to the broadcast primitive.
    Broadcast {
        /// Round of the broadcast.
        round: Round,
        /// The sender.
        node: NodeId,
        /// Number of messages in the batch (piggybacking sends > 1).
        batch_len: usize,
    },
    /// A link chosen by the adversary delivered a batch.
    Delivery {
        /// Round of the delivery.
        round: Round,
        /// The sender (analysis-side identity).
        sender: NodeId,
        /// The receiver.
        receiver: NodeId,
        /// The local port the batch arrived on at the receiver.
        port: Port,
        /// Number of messages delivered.
        batch_len: usize,
    },
    /// A node's phase advanced (possibly by several phases at once — DAC's
    /// jump).
    PhaseAdvance {
        /// Round in which the transition happened.
        round: Round,
        /// The node.
        node: NodeId,
        /// Phase before the round.
        from: Phase,
        /// Phase after the round.
        to: Phase,
        /// State value after the transition.
        value: Value,
    },
    /// A node crashed (its crash round began).
    Crash {
        /// The crash round.
        round: Round,
        /// The node.
        node: NodeId,
    },
    /// A node decided (its termination rule fired).
    Decide {
        /// Round of the decision.
        round: Round,
        /// The node.
        node: NodeId,
        /// The output value.
        value: Value,
    },
}

impl Event {
    /// The round the event belongs to.
    pub fn round(&self) -> Round {
        match *self {
            Event::Broadcast { round, .. }
            | Event::Delivery { round, .. }
            | Event::PhaseAdvance { round, .. }
            | Event::Crash { round, .. }
            | Event::Decide { round, .. } => round,
        }
    }

    /// The primary node of the event (the sender for deliveries).
    pub fn node(&self) -> NodeId {
        match *self {
            Event::Broadcast { node, .. }
            | Event::PhaseAdvance { node, .. }
            | Event::Crash { node, .. }
            | Event::Decide { node, .. } => node,
            Event::Delivery { sender, .. } => sender,
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Event::Broadcast {
                round,
                node,
                batch_len,
            } => write!(f, "{round} {node} broadcast x{batch_len}"),
            Event::Delivery {
                round,
                sender,
                receiver,
                port,
                batch_len,
            } => write!(f, "{round} {sender} -> {receiver} (on {port}) x{batch_len}"),
            Event::PhaseAdvance {
                round,
                node,
                from,
                to,
                value,
            } => write!(f, "{round} {node} phase {from} -> {to} value {value}"),
            Event::Crash { round, node } => write!(f, "{round} {node} crashed"),
            Event::Decide { round, node, value } => {
                write!(f, "{round} {node} decided {value}")
            }
        }
    }
}

/// An ordered log of [`Event`]s with query helpers.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    pub(crate) fn push(&mut self, e: Event) {
        self.events.push(e);
    }

    /// Appends every event of `later` behind this log's.
    pub(crate) fn append(&mut self, mut later: EventLog) {
        self.events.append(&mut later.events);
    }

    /// All events in chronological order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of logged events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of one round.
    pub fn in_round(&self, round: Round) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.round() == round)
    }

    /// Events whose primary node is `node`.
    pub fn for_node(&self, node: NodeId) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.node() == node)
    }

    /// Deliveries *received* by `node`.
    pub fn received_by(&self, node: NodeId) -> impl Iterator<Item = &Event> {
        self.events
            .iter()
            .filter(move |e| matches!(e, Event::Delivery { receiver, .. } if *receiver == node))
    }

    /// The phase timeline of a node: `(round, new_phase)` per transition.
    pub fn phase_timeline(&self, node: NodeId) -> Vec<(Round, Phase)> {
        self.events
            .iter()
            .filter_map(|e| match *e {
                Event::PhaseAdvance {
                    round, node: n, to, ..
                } if n == node => Some((round, to)),
                _ => None,
            })
            .collect()
    }

    /// The round in which `node` decided, if it did.
    pub fn decide_round(&self, node: NodeId) -> Option<Round> {
        self.events.iter().find_map(|e| match *e {
            Event::Decide { round, node: n, .. } if n == node => Some(round),
            _ => None,
        })
    }

    /// Renders the log (or the slice for one round) as text, one event per
    /// line.
    pub fn render(&self, only_round: Option<Round>) -> String {
        let mut out = String::new();
        for e in &self.events {
            if only_round.is_none_or(|r| e.round() == r) {
                out.push_str(&e.to_string());
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EventLog {
        let mut log = EventLog::new();
        log.push(Event::Broadcast {
            round: Round::new(0),
            node: NodeId::new(0),
            batch_len: 1,
        });
        log.push(Event::Delivery {
            round: Round::new(0),
            sender: NodeId::new(0),
            receiver: NodeId::new(1),
            port: Port::new(3),
            batch_len: 1,
        });
        log.push(Event::PhaseAdvance {
            round: Round::new(0),
            node: NodeId::new(1),
            from: Phase::ZERO,
            to: Phase::new(2),
            value: Value::HALF,
        });
        log.push(Event::Crash {
            round: Round::new(1),
            node: NodeId::new(2),
        });
        log.push(Event::Decide {
            round: Round::new(1),
            node: NodeId::new(1),
            value: Value::HALF,
        });
        log
    }

    #[test]
    fn queries_filter_correctly() {
        let log = sample();
        assert_eq!(log.len(), 5);
        assert_eq!(log.in_round(Round::new(0)).count(), 3);
        assert_eq!(log.for_node(NodeId::new(1)).count(), 2);
        assert_eq!(log.received_by(NodeId::new(1)).count(), 1);
        assert_eq!(log.decide_round(NodeId::new(1)), Some(Round::new(1)));
        assert_eq!(log.decide_round(NodeId::new(0)), None);
    }

    #[test]
    fn phase_timeline_extracts_jumps() {
        let log = sample();
        let tl = log.phase_timeline(NodeId::new(1));
        assert_eq!(tl, vec![(Round::new(0), Phase::new(2))]);
    }

    #[test]
    fn render_is_line_per_event() {
        let log = sample();
        let all = log.render(None);
        assert_eq!(all.lines().count(), 5);
        assert!(all.contains("n0 -> n1 (on p3)"));
        let r1 = log.render(Some(Round::new(1)));
        assert_eq!(r1.lines().count(), 2);
        assert!(r1.contains("crashed"));
    }

    #[test]
    fn event_accessors() {
        let e = Event::Decide {
            round: Round::new(4),
            node: NodeId::new(2),
            value: Value::ONE,
        };
        assert_eq!(e.round(), Round::new(4));
        assert_eq!(e.node(), NodeId::new(2));
    }
}
