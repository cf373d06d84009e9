//! Service mode: a stream of consensus instances over one long-lived
//! engine.
//!
//! A deployed coordination service does not run approximate consensus
//! once — it runs it again and again (altitude agreement every few
//! seconds, clock sync every window) while nodes crash, recover, and
//! join. [`ServiceRun`] models exactly that: one [`Simulation`] whose
//! per-round arena, algorithm plane, and observer buffers live for the
//! whole service, re-seeded for each instance in place — steady-state
//! instance turnover allocates nothing, just like `step()` itself
//! (pinned by `tests/alloc_free.rs`).
//!
//! Three pieces compose:
//!
//! * a [`ChurnPlan`](adn_faults::ChurnPlan) on the **global** round axis,
//!   sliced into each instance's [`CrashSchedule`](adn_faults::CrashSchedule)
//!   at the instance boundary (downs take effect mid-instance; ups take
//!   effect at the next re-seed, when the rejoining node gets fresh state
//!   and a fresh input);
//! * an [`InputStream`](crate::workload::InputStream) providing each
//!   instance's input vector by random access on the instance index;
//! * a per-instance round cap `R_max` (the builder's
//!   [`max_rounds`](crate::SimBuilder::max_rounds)) with explicit
//!   degradation semantics: an instance that cannot decide is recorded
//!   as [`InstanceOutcome::Aborted`] and the service moves on.
//!
//! A safety watchdog runs continuously: validity and ε-agreement are
//! checked per instance from live engine state, and so is the realized
//! dynaDegree, with no schedule recorded. The default `T = 1` window is
//! the engine's own meter: every run counts its least fault-free realized
//! in-degree on the round's traffic pass
//! ([`Outcome::min_dyna_degree`](crate::Outcome::min_dyna_degree)), and
//! each instance starts it afresh. `T ≥ 2` windows
//! ([`ServiceRun::dyna_window`]) track the union incrementally across
//! instance boundaries with a [`SlidingUnion`] — Definition 1's windowed
//! union on `T + 1` bit slabs, one push per executed round of the
//! engine's [`RealizedRows`](crate::engine::RealizedRows) view (the
//! link-path-agnostic [`LinkRows`](adn_graph::LinkRows) facade, so a
//! sparse service never materializes dense rows), words and never links:
//! no rescans, no per-link counters, and the same structure the offline
//! checker pushes a recording through.
//!
//! Each instance is **byte-identical** to a standalone run given the same
//! membership slice, inputs, and adversary instance stream: stateful
//! adversaries and Byzantine strategies reseed per instance through their
//! `begin_instance` hooks. `tests/reference_round.rs` holds every
//! instance — record, node states and windowed watchdog — to its naive
//! round executor.

use adn_faults::ChurnPlan;
use adn_graph::{NodeSet, SlidingUnion};
use adn_types::{NodeId, Round, Value, ValueInterval};

use crate::builder::SimBuilder;
use crate::engine::Simulation;
use crate::outcome::{self, StopReason};
use crate::workload::InputStream;

/// Why a service instance was given up on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// The per-instance round cap `R_max` elapsed before every fault-free
    /// node decided — the expected verdict when churn pushes the realized
    /// dynaDegree below the algorithm's threshold for too long.
    RoundCap,
    /// The membership slice left no fault-free node at the instance
    /// boundary: there is nobody to decide, so the instance consumes no
    /// rounds at all.
    NoParticipants,
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AbortReason::RoundCap => "round-cap",
            AbortReason::NoParticipants => "no-participants",
        })
    }
}

/// How one service instance ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceOutcome {
    /// Every fault-free node of the instance decided.
    Decided,
    /// The instance was abandoned; the service re-seeded and moved on.
    Aborted {
        /// Why the instance could not decide.
        reason: AbortReason,
    },
}

impl InstanceOutcome {
    /// Whether the instance decided.
    pub fn is_decided(&self) -> bool {
        matches!(self, InstanceOutcome::Decided)
    }
}

impl std::fmt::Display for InstanceOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceOutcome::Decided => f.write_str("decided"),
            InstanceOutcome::Aborted { reason } => write!(f, "aborted({reason})"),
        }
    }
}

/// Everything the watchdog measured about one instance. Plain `Copy`
/// data — returning one per instance keeps the service loop
/// allocation-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceRecord {
    /// The instance index (0-based).
    pub instance: u64,
    /// The global service round at which the instance was seeded.
    pub start_round: Round,
    /// Rounds this instance executed.
    pub rounds: u64,
    /// How the instance ended.
    pub outcome: InstanceOutcome,
    /// Fault-free nodes of this instance's membership slice.
    pub participants: usize,
    /// How many of them decided.
    pub decided: usize,
    /// Width of the decided fault-free output hull (0 below two outputs).
    pub output_range: f64,
    /// Validity (Def. 3): every decided fault-free output inside the
    /// convex hull of this instance's non-Byzantine inputs.
    pub validity: bool,
    /// ε-agreement over the instance's fault-free outputs (`false` if any
    /// fault-free node is undecided, exactly like
    /// [`Outcome::eps_agreement`](crate::Outcome::eps_agreement)).
    pub agreement: bool,
    /// Minimum realized `T`-window dynaDegree over the instance's
    /// fault-free nodes, across every full window that closed during the
    /// instance (`None` if none did — short instance or service warm-up).
    pub min_dyna_degree: Option<usize>,
}

/// A long-lived service executing repeated consensus instances under
/// churn. The `service` module docs describe the model.
///
/// ```
/// use adn_faults::{ChurnPlan, DownKind};
/// use adn_sim::workload::InputStream;
/// use adn_sim::{factories, ServiceRun, Simulation};
/// use adn_types::{NodeId, Params, Round};
///
/// let params = Params::new(7, 1, 1e-2)?;
/// let mut churn = ChurnPlan::new(7);
/// // Node 6 crashes during instance 0 and rejoins at the next re-seed.
/// churn.crash(NodeId::new(6), Round::new(3), DownKind::Abrupt);
/// churn.recover(NodeId::new(6), Round::new(5));
/// let builder = Simulation::builder(params)
///     .algorithm(factories::dac(params))
///     .max_rounds(200); // R_max
/// let mut service = ServiceRun::new(builder, churn, InputStream::random(7));
/// for _ in 0..3 {
///     let record = service.run_instance();
///     assert!(record.outcome.is_decided());
///     assert!(record.validity);
/// }
/// assert_eq!(service.decided_instances(), 3);
/// # Ok::<(), adn_types::Error>(())
/// ```
#[derive(Debug)]
pub struct ServiceRun {
    sim: Simulation,
    churn: ChurnPlan,
    workload: InputStream,
    eps: f64,
    /// Per-instance input scratch, filled from the workload stream.
    inputs: Vec<Value>,
    /// Node ids that are not Byzantine — the validity hull's input set.
    non_byzantine: Vec<NodeId>,
    /// The current instance's fault-free nodes as a set, for the
    /// windowed watchdog's min-degree.
    honest_set: NodeSet,
    /// Global service round: total rounds executed across all instances —
    /// the axis the churn plan is sliced on.
    clock: u64,
    next_instance: u64,
    /// The watchdog's `T ≥ 2` window: Definition 1's union over the last
    /// `T` realized rounds, persisting across instance boundaries — `T + 1`
    /// bit slabs of `n · ⌈n/64⌉` words, all of it allocated by
    /// [`ServiceRun::dyna_window`]. `None` at `T = 1`, where the window is
    /// the round and the engine's meter reads it.
    window: Option<SlidingUnion>,
    decided_instances: u64,
    aborted_instances: u64,
}

impl ServiceRun {
    /// Builds the service over `builder`'s configuration. The builder's
    /// [`max_rounds`](SimBuilder::max_rounds) becomes the per-instance
    /// round cap `R_max`; its crash schedule must be empty (instance
    /// faults come from the churn plan); schedule recording is forced off
    /// (the engine's meter and the watchdog's sliding window replace it —
    /// full recording would grow without bound and allocate every round).
    ///
    /// # Panics
    ///
    /// Panics if the churn plan covers a different node count, the
    /// builder carries crash faults or a range oracle or event recording,
    /// or the algorithm does not support in-place instance resets.
    /// Sparse-link runs are fully supported: the watchdog reads realized
    /// degrees off the engine's meter or, windowed, through
    /// [`Simulation::realized_rows`], never a dense row.
    pub fn new(builder: SimBuilder, churn: ChurnPlan, workload: InputStream) -> Self {
        let n = builder.params.n();
        assert_eq!(churn.n(), n, "churn plan size mismatch");
        assert_eq!(
            builder.crash.fault_count(),
            0,
            "service runs derive crash faults from the churn plan — pass an empty crash schedule"
        );
        assert!(
            builder.range_oracle.is_none(),
            "service runs decide per instance; the range oracle is not supported"
        );
        assert!(
            !builder.record_events,
            "service runs do not record event logs"
        );
        let eps = builder.params.eps();
        let non_byzantine: Vec<NodeId> = NodeId::all(n)
            .filter(|id| builder.byzantine.iter().all(|(b, _)| b != id))
            .collect();
        let sim = builder
            .record_schedule(false)
            .allow_fault_overflow(true)
            .build();
        ServiceRun {
            sim,
            churn,
            workload,
            eps,
            inputs: vec![Value::HALF; n],
            non_byzantine,
            honest_set: NodeSet::new(n),
            clock: 0,
            next_instance: 0,
            window: None,
            decided_instances: 0,
            aborted_instances: 0,
        }
    }

    /// Sets the watchdog's dynaDegree window to `t_window` rounds
    /// (default 1). Call before the first instance: resizing resets the
    /// window's contents. At `t_window = 1` the watchdog holds nothing:
    /// each instance's record reads the engine's own (1, D) meter,
    /// counted on the round's traffic pass.
    /// Larger windows allocate `t_window + 1` bit slabs of `n · ⌈n/64⌉`
    /// words here — all the watchdog ever holds — and slide them a word
    /// at a time ([`SlidingUnion`]) over each executed round's
    /// [`Simulation::realized_rows`], across instance boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `t_window` is 0.
    pub fn dyna_window(mut self, t_window: usize) -> Self {
        assert!(t_window > 0, "window must be at least 1 round");
        let n = self.churn.n();
        self.window = (t_window > 1).then(|| SlidingUnion::new(n, t_window));
        self
    }

    /// Seeds and runs the next consensus instance to its verdict:
    /// decision, round-cap abort, or (without consuming any rounds) a
    /// no-participants abort. After it returns — and until the next call
    /// re-seeds — the engine still holds the instance's final state, so
    /// [`ServiceRun::sim`] exposes per-node outputs for inspection.
    pub fn run_instance(&mut self) -> InstanceRecord {
        let instance = self.next_instance;
        self.next_instance += 1;
        let start_round = Round::new(self.clock);

        // Re-seed: this instance's inputs, membership slice, and state.
        self.workload.fill(instance, &mut self.inputs);
        self.churn.slice_into(start_round, self.sim.crash_mut());
        self.sim.begin_instance(instance, &self.inputs);
        self.honest_set.clear();
        for &id in self.sim.fault_free_ids() {
            self.honest_set.insert(id);
        }
        let participants = self.sim.fault_free_ids().len();

        let mut rounds = 0u64;
        let mut min_window: Option<usize> = None;
        let outcome = if participants == 0 {
            InstanceOutcome::Aborted {
                reason: AbortReason::NoParticipants,
            }
        } else {
            loop {
                let before = self.sim.round();
                self.sim.step();
                if self.sim.round() > before {
                    // A round actually executed (the stop conditions can
                    // fire before any work — e.g. pend = 0 decides at
                    // seeding); feed its realized links to a window.
                    rounds += 1;
                    self.clock += 1;
                    if let Some(window) = &mut self.window {
                        window.push_rows(&self.sim.realized_rows());
                        let degree = window.min_degree_over(&self.honest_set);
                        min_window = min_window.into_iter().chain(degree).min();
                    }
                }
                if let Some(reason) = self.sim.stopped() {
                    break match reason {
                        StopReason::AllOutput => InstanceOutcome::Decided,
                        StopReason::MaxRounds => InstanceOutcome::Aborted {
                            reason: AbortReason::RoundCap,
                        },
                        StopReason::RangeConverged => {
                            unreachable!("service builders reject range oracles")
                        }
                    };
                }
            }
        };
        match outcome {
            InstanceOutcome::Decided => self.decided_instances += 1,
            InstanceOutcome::Aborted { .. } => self.aborted_instances += 1,
        }

        // Safety verdicts from live engine state, by `Outcome`'s own
        // statements of Def. 3.
        let decided = self.sim.decided();
        let outputs = || {
            self.sim
                .fault_free_ids()
                .iter()
                .filter_map(|&id| self.sim.output_of(id))
        };
        let output_range = ValueInterval::of(outputs()).map_or(0.0, ValueInterval::range);
        let agreement = outcome::eps_agreement(decided == participants, output_range, self.eps);
        let inputs = self
            .non_byzantine
            .iter()
            .map(|&id| self.sim.inputs()[id.index()]);
        let validity = outcome::validity(inputs, outputs());

        InstanceRecord {
            instance,
            start_round,
            rounds,
            outcome,
            participants,
            decided,
            output_range,
            validity,
            agreement,
            min_dyna_degree: match self.window {
                Some(_) => min_window,
                None => self.sim.min_dyna_degree(),
            },
        }
    }

    /// The engine, holding the most recently run instance's final state
    /// (per-node outputs via [`Simulation::output_of`], values via
    /// [`Simulation::value_of`]).
    pub fn sim(&self) -> &Simulation {
        &self.sim
    }

    /// Instances run so far.
    pub fn instances_run(&self) -> u64 {
        self.next_instance
    }

    /// Instances in which every fault-free node decided.
    pub fn decided_instances(&self) -> u64 {
        self.decided_instances
    }

    /// Instances abandoned (round cap or no participants).
    pub fn aborted_instances(&self) -> u64 {
        self.aborted_instances
    }

    /// Total rounds executed across all instances — the global round axis
    /// the churn plan is sliced on.
    pub fn total_rounds(&self) -> u64 {
        self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factories;
    use adn_adversary::AdversarySpec;
    use adn_faults::strategies::Extreme;
    use adn_faults::DownKind;
    use adn_types::Params;

    fn params(n: usize, f: usize, eps: f64) -> Params {
        Params::new(n, f, eps).unwrap()
    }

    #[test]
    fn repeated_instances_decide_and_count() {
        let p = params(6, 0, 1e-2);
        let mut service = ServiceRun::new(
            Simulation::builder(p)
                .algorithm(factories::dac(p))
                .max_rounds(100),
            ChurnPlan::new(6),
            InputStream::random(42),
        );
        for k in 0..5 {
            let rec = service.run_instance();
            assert_eq!(rec.instance, k);
            assert_eq!(rec.outcome, InstanceOutcome::Decided);
            assert_eq!(rec.decided, 6);
            assert!(rec.validity, "instance {k}");
            assert!(rec.agreement, "instance {k}");
            // Complete graph: every node hears everyone else each round.
            assert_eq!(rec.min_dyna_degree, Some(5));
        }
        assert_eq!(service.decided_instances(), 5);
        assert_eq!(service.aborted_instances(), 0);
        assert_eq!(service.instances_run(), 5);
        // Complete graph, pend = ceil(log2(100)) = 7: one phase per round.
        assert_eq!(service.total_rounds(), 35);
    }

    #[test]
    fn round_cap_aborts_and_service_moves_on() {
        let p = params(8, 0, 1e-2);
        let mut service = ServiceRun::new(
            Simulation::builder(p)
                .algorithm(factories::dac(p))
                .adversary(AdversarySpec::PartitionHalves.build(8, 0, 1))
                .max_rounds(30),
            ChurnPlan::new(8),
            InputStream::random(7),
        );
        let rec = service.run_instance();
        assert_eq!(
            rec.outcome,
            InstanceOutcome::Aborted {
                reason: AbortReason::RoundCap
            }
        );
        assert_eq!(rec.rounds, 30);
        assert!(!rec.agreement, "undecided nodes break agreement");
        assert!(rec.validity, "nobody decided, so validity holds vacuously");
        // Halves of 4: each node hears its 3 partition peers only.
        assert_eq!(rec.min_dyna_degree, Some(3));
        // The cap is a verdict, not a wedge: the next instance runs.
        let rec2 = service.run_instance();
        assert_eq!(rec2.start_round, Round::new(30));
        assert_eq!(service.aborted_instances(), 2);
    }

    #[test]
    fn crash_recovery_across_instances_changes_membership() {
        let p = params(5, 2, 1e-2);
        let mut churn = ChurnPlan::new(5);
        // Node 4 is down for all of instance 0's lifetime, back for 1.
        churn.crash(NodeId::new(4), Round::ZERO, DownKind::Abrupt);
        churn.recover(NodeId::new(4), Round::new(1));
        let mut service = ServiceRun::new(
            Simulation::builder(p)
                .algorithm(factories::dac(p))
                .max_rounds(100),
            churn,
            InputStream::spread(),
        );
        let rec0 = service.run_instance();
        assert_eq!(rec0.participants, 4, "node 4 down at boundary 0");
        assert!(rec0.outcome.is_decided());
        assert_eq!(service.sim().output_of(NodeId::new(4)), None);
        let rec1 = service.run_instance();
        assert_eq!(rec1.participants, 5, "node 4 rejoined at the boundary");
        assert!(rec1.outcome.is_decided());
        assert!(service.sim().output_of(NodeId::new(4)).is_some());
    }

    #[test]
    fn all_down_aborts_without_consuming_rounds() {
        let p = params(3, 0, 1e-2);
        let mut churn = ChurnPlan::new(3);
        for i in 0..3 {
            churn.crash(NodeId::new(i), Round::ZERO, DownKind::Graceful);
        }
        let mut service = ServiceRun::new(
            Simulation::builder(p)
                .algorithm(factories::dac(p))
                .max_rounds(50),
            churn,
            InputStream::spread(),
        );
        let rec = service.run_instance();
        assert_eq!(
            rec.outcome,
            InstanceOutcome::Aborted {
                reason: AbortReason::NoParticipants
            }
        );
        assert_eq!(rec.rounds, 0);
        assert_eq!(rec.participants, 0);
        assert_eq!(service.total_rounds(), 0);
    }

    #[test]
    fn byzantine_coalitions_compose_with_churn() {
        let p = params(11, 2, 1e-2);
        let mut churn = ChurnPlan::new(11);
        churn.flap_periodic(
            NodeId::new(0),
            Round::new(4),
            2,
            9,
            DownKind::Abrupt,
            Round::new(200),
        );
        let mut service = ServiceRun::new(
            Simulation::builder(p)
                .byzantine(NodeId::new(5), Box::new(Extreme { value: Value::ONE }))
                .algorithm(factories::dbac_with_pend(p, 60))
                .max_rounds(500),
            churn,
            InputStream::random(9),
        )
        .dyna_window(2);
        for _ in 0..4 {
            let rec = service.run_instance();
            assert!(rec.outcome.is_decided());
            assert!(rec.validity, "byzantine pull must not escape the hull");
            assert!(rec.agreement);
            assert!(rec.participants >= 9);
        }
    }

    #[test]
    #[should_panic(expected = "empty crash schedule")]
    fn builder_crashes_are_rejected() {
        let p = params(4, 1, 1e-2);
        let mut crash = adn_faults::CrashSchedule::new(4);
        crash.crash(
            NodeId::new(0),
            Round::ZERO,
            adn_faults::CrashSurvivors::None,
        );
        let _ = ServiceRun::new(
            Simulation::builder(p)
                .algorithm(factories::dac(p))
                .crashes(crash),
            ChurnPlan::new(4),
            InputStream::spread(),
        );
    }

    #[test]
    #[should_panic(expected = "in-place instance resets")]
    fn reset_incapable_algorithms_are_refused() {
        let p = params(4, 0, 1e-2);
        let mut service = ServiceRun::new(
            Simulation::builder(p).algorithm(factories::bac(p)),
            ChurnPlan::new(4),
            InputStream::spread(),
        );
        let _ = service.run_instance();
    }
}
