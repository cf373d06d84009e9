//! Anonymous network substrate: port numbering and traffic accounting.
//!
//! The paper's nodes have no identities; what they *do* have is a static,
//! private **port numbering** (§II-A): at each receiver `i` there is a
//! bijection `P_i : V → {0, ..., n-1}` assigning a local port to every
//! potential sender. Two receivers may map the same sender to different
//! ports, so ports cannot be pooled into global IDs, but one receiver can
//! distinguish and deduplicate its senders — exactly what DAC's bit vector
//! `R_i` and DBAC's `R_i` rely on. The substrate also guarantees reliable
//! self-delivery (a node can always send a message to itself).
//!
//! [`RoundBuffers`] is the round engine's reusable memory arena: per-node
//! broadcast batches, state snapshots, and the chosen/realized edge sets,
//! persisted across rounds so the steady-state message plane never
//! allocates.
//! [`codec`] provides the concrete byte encoding (quantized fixed-point
//! value + varint phase) that makes the `O(log n)` bound measurable.
//! [`PortNumbering`] materializes all `n` bijections (identity for tests,
//! seeded-random for experiments — algorithms must work under any
//! numbering, and the tests check invariance). [`Traffic`] meters messages
//! and bits so experiments E10/E13 can report bandwidth, implementing the
//! paper's `O(log n)`-bits-per-link-per-round accounting.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod buffers;
pub mod codec;
mod ports;
mod traffic;

pub use buffers::{RoundBuffers, SenderClass};
pub use ports::{PortNumbering, PortRow};
pub use traffic::Traffic;
