//! Synchronous round engine for anonymous dynamic networks.
//!
//! `adn-sim` wires every substrate together into the execution model of
//! §II-A and runs it deterministically:
//!
//! 1. **Broadcast** — every live fault-free node stages its message batch
//!    into an engine-owned, round-persistent buffer
//!    ([`adn_net::RoundBuffers`]); nodes in their crash round broadcast
//!    one last (possibly partial) time.
//! 2. **Adversary** — the message adversary inspects all states and picks
//!    the links `E(t)`.
//! 3. **Delivery** — links from silent senders realize nothing; Byzantine
//!    senders fabricate per-destination batches into a reused scratch;
//!    each delivery borrows the sender's staged batch (never cloned) and
//!    arrives on the receiver's private port. Self-delivery is internal
//!    to the algorithms (they count themselves), so the engine never
//!    loops a message back.
//! 4. **Transition** — receivers process deliveries in the configured
//!    [`DeliveryOrder`] (ascending sender index by default; the other
//!    orders share one per-round sender permutation), then `end_round`
//!    fires.
//!
//! Node state lives behind one [`adn_core::AlgorithmPlane`] — boxed
//! state machines or a columnar plane ([`PlaneMode`]) — and every run
//! goes through the same `step` and the same delivery routine, over one
//! link store holding words or sparse rows ([`LinkMode`], a memory hint),
//! on one shard or several.
//!
//! The engine records the **realized delivery schedule** (for the
//! dynaDegree checker), per-phase value multisets `V(p)` (Def. 5/6, for
//! convergence-rate measurements), traffic, and round traces. The
//! [`Outcome`] bundles everything with validity / ε-agreement verdicts.
//!
//! # Example
//!
//! ```
//! use adn_adversary::AdversarySpec;
//! use adn_sim::{factories, Simulation};
//! use adn_types::Params;
//!
//! let params = Params::fault_free(5, 1e-3)?;
//! let outcome = Simulation::builder(params)
//!     .inputs_spread()
//!     .adversary(AdversarySpec::Rotating { d: 3 }.build(5, 0, 7))
//!     .algorithm(factories::dac(params))
//!     .run();
//! assert!(outcome.all_honest_output());
//! assert!(outcome.eps_agreement(1e-3));
//! assert!(outcome.validity());
//! # Ok::<(), adn_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod builder;
mod engine;
pub mod factories;
mod lanes;
mod observer;
mod outcome;
mod pool;
pub mod quantized;
mod service;
pub mod trace;
pub mod workload;

pub use builder::{LinkMode, PlaneMode, SimBuilder};
pub use engine::{DeliveryOrder, RealizedRows, Simulation};
pub use lanes::{scalar_lane_outcome, LaneOutcome, LaneRun, MAX_LANE_N};
pub use observer::{PhaseRecord, RoundTrace};
pub use outcome::{Outcome, StopReason};
pub use pool::TrialPool;
pub use service::{AbortReason, InstanceOutcome, InstanceRecord, ServiceRun};
pub use trace::{Event, EventLog};
