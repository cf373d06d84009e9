//! Directed round graphs for anonymous dynamic networks.
//!
//! The paper models communication as a dynamic graph `G = (V, E)` where the
//! message adversary picks a set of reliable directed links `E(t)` for every
//! round `t` (§II-A). This crate provides:
//!
//! * [`NodeSet`] — a compact bitset of node identifiers;
//! * [`EdgeSet`] — one round's directed links, stored as per-receiver
//!   in-neighbor sets (the representation every consumer needs: "who can I
//!   hear from this round?");
//! * [`LinkPlane`] — the same rows as id-range runs or exact sender
//!   lists, for systems too large for `n²` bits; [`LinkRows`] reads either
//!   kind and [`LinkSink`] writes either kind;
//! * [`Schedule`] — the recorded sequence `E(0), E(1), ...` of an
//!   execution, supporting windowed unions `G_t = (V, ∪ E(t..t+T))`;
//! * [`SlidingUnion`] — Def. 1's windowed union on `T + 1` bit slabs,
//!   one push per round: what the dynaDegree checker pushes a recording
//!   through, at every window width, and what a service's watchdog slides
//!   online;
//! * [`WindowUnion`] — per-link window counters in an `n²` `u32` table,
//!   read by no library path (kept for the benchmark ledger);
//! * [`checker`] — the (T, D)-dynaDegree verifier (Def. 1);
//! * [`connectivity`] — the prior stability properties the paper compares
//!   against (§II-B): T-interval connectivity, rooted spanning trees;
//! * [`generators`] — static topology constructors used by adversaries and
//!   workloads.
//!
//! # Example
//!
//! ```
//! use adn_graph::{EdgeSet, Schedule, checker};
//!
//! // Figure 1 of the paper: 3 nodes, empty graph in odd rounds, a path
//! // 1 - 2 - 3 (bidirectional) in even rounds.
//! let even = EdgeSet::from_pairs(3, [(0, 1), (1, 0), (1, 2), (2, 1)]);
//! let odd = EdgeSet::empty(3);
//! let mut schedule = Schedule::new(3);
//! for _ in 0..4 {
//!     schedule.push(odd.clone());
//!     schedule.push(even.clone());
//! }
//! // Satisfies (2,1)-dynaDegree but not (1,1)-dynaDegree.
//! assert!(checker::satisfies_dyna_degree(&schedule, 2, 1, &[]));
//! assert!(!checker::satisfies_dyna_degree(&schedule, 1, 1, &[]));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod checker;
pub mod connectivity;
pub mod dot;
mod edgeset;
pub mod generators;
mod lanelinks;
mod linkplane;
mod nodeset;
mod schedule;
mod window;

pub use edgeset::EdgeSet;
pub use lanelinks::LaneLinks;
pub use linkplane::{DenseLinks, LinkPlane, LinkRows, LinkSink, RunRow, MAX_RUNS_PER_ROW};
pub use nodeset::NodeSet;
pub use schedule::Schedule;
pub use window::{SlidingUnion, WindowUnion};
