//! # anondyn — fault-tolerant consensus in anonymous dynamic networks
//!
//! A from-scratch Rust reproduction of *"Fault-tolerant Consensus in
//! Anonymous Dynamic Network"* (Zhang & Tseng, ICDCS 2024,
//! arXiv:2405.03017): the DAC and DBAC approximate-consensus algorithms,
//! the (T, D)-dynaDegree stability property, the dynamic message
//! adversary, the hybrid crash/Byzantine fault model, and a deterministic
//! synchronous simulator that regenerates every quantitative claim of the
//! paper.
//!
//! This facade crate re-exports the workspace's public API; see the
//! individual crates for details:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`types`] | `adn-types` | ids, values, messages, parameters, formulas |
//! | [`graph`] | `adn-graph` | edge sets, schedules, dynaDegree checker |
//! | [`adversary`] | `adn-adversary` | message adversary strategies |
//! | [`faults`] | `adn-faults` | crash schedules, Byzantine strategies |
//! | [`net`] | `adn-net` | port numberings, traffic accounting |
//! | [`consensus`] | `adn-core` | DAC, DBAC, piggybacking, baselines |
//! | [`sim`] | `adn-sim` | the round engine, observers, outcomes |
//! | [`analysis`] | `adn-analysis` | statistics and table rendering |
//!
//! # Quickstart
//!
//! ```
//! use anondyn::prelude::*;
//!
//! // 7 anonymous drones agree on a speed despite a churning network.
//! let params = Params::fault_free(7, 1e-3)?;
//! let outcome = Simulation::builder(params)
//!     .inputs_random(42)
//!     .adversary(AdversarySpec::Rotating { d: 4 }.build(7, 0, 42))
//!     .algorithm(factories::dac(params))
//!     .run();
//! assert!(outcome.all_honest_output());
//! assert!(outcome.eps_agreement(1e-3));
//! assert!(outcome.validity());
//! # Ok::<(), anondyn::types::Error>(())
//! ```

#![forbid(unsafe_code)]

pub use adn_adversary as adversary;
pub use adn_analysis as analysis;
pub use adn_core as consensus;
pub use adn_faults as faults;
pub use adn_graph as graph;
pub use adn_net as net;
pub use adn_sim as sim;
pub use adn_types as types;

/// The most common imports in one place.
pub mod prelude {
    pub use adn_adversary::{Adversary, AdversarySpec};
    pub use adn_core::{Algorithm, Dac, Dbac, DbacPiggyback};
    pub use adn_faults::{ByzantineStrategy, ChurnPlan, CrashSchedule, CrashSurvivors, DownKind};
    pub use adn_graph::{checker, EdgeSet, NodeSet, Schedule, SlidingUnion, WindowUnion};
    pub use adn_net::PortNumbering;
    pub use adn_sim::workload::InputStream;
    pub use adn_sim::{
        factories, workload, AbortReason, InstanceOutcome, InstanceRecord, LaneOutcome, LaneRun,
        Outcome, PlaneMode, ServiceRun, SimBuilder, Simulation, StopReason, TrialPool,
    };
    pub use adn_types::{Batch, Message, NodeId, Params, Phase, Port, Round, Value, ValueInterval};
}
