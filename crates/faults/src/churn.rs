use adn_types::rng::SplitMix64;
use adn_types::{NodeId, Round};

use crate::{CrashSchedule, CrashSurvivors};

/// How a node goes down in a [`ChurnPlan`].
///
/// Mirrors [`CrashSurvivors`] but deliberately omits the `Subset` mode:
/// every kind here converts to a `CrashSurvivors` without allocating, so
/// [`ChurnPlan::slice_into`] can refresh a long-lived [`CrashSchedule`]
/// between instances on the service's allocation-free turnover path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DownKind {
    /// Graceful leave: the final round's broadcast completes in full
    /// ([`CrashSurvivors::All`]).
    Graceful,
    /// Abrupt crash: nothing is sent in the down round
    /// ([`CrashSurvivors::None`]).
    Abrupt,
    /// Mid-broadcast crash: each receiver keeps the final message with the
    /// given probability, deterministically in the seed
    /// ([`CrashSurvivors::Random`]).
    Flaky {
        /// Probability that each individual receiver still gets the final
        /// message.
        keep_probability: f64,
        /// Seed for the deterministic subset choice.
        seed: u64,
    },
}

impl DownKind {
    fn survivors(self) -> CrashSurvivors {
        match self {
            DownKind::Graceful => CrashSurvivors::All,
            DownKind::Abrupt => CrashSurvivors::None,
            DownKind::Flaky {
                keep_probability,
                seed,
            } => CrashSurvivors::Random {
                keep_probability,
                seed,
            },
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Transition {
    /// Down, per the [`DownKind`] at this index of the plan's `kinds`.
    Down(u32),
    Up,
}

/// A per-node timeline of up/down transitions on one **global round axis**
/// spanning every instance of a service run.
///
/// [`CrashSchedule`] answers "when does each node crash, once" for a single
/// consensus instance. A `ChurnPlan` generalizes it to a long-lived
/// service: nodes **crash** (abruptly or mid-broadcast), **leave**
/// (gracefully), **recover** (rejoin with reset algorithm state and a fresh
/// input), **join** late, and may flap between up and down repeatedly via
/// the [`ChurnPlan::flap_periodic`] / [`ChurnPlan::flap_random`]
/// generators. Byzantine coalitions compose alongside: a Byzantine node
/// simply stays out of the plan (the service keeps it in the Byzantine set
/// for every instance), so crash-churn and equivocation mix freely.
///
/// **Recovery granularity.** Down events take effect at their exact global
/// round — the node performs its (possibly partial) final broadcast then
/// and is silent after, exactly like a [`CrashSchedule`] crash. Up events
/// take effect at the first *instance boundary* at or after their round: a
/// node cannot rejoin mid-instance, because rejoining means resetting its
/// algorithm state against a fresh input, which only happens when the
/// service re-seeds. [`ChurnPlan::slice_into`] encodes exactly these
/// semantics when it projects the plan onto one instance's crash schedule.
///
/// Per node, transitions must strictly alternate (down, up, down, ...)
/// with strictly increasing rounds — the builder methods enforce this, and
/// the slicer exploits it to answer boundary queries with one binary
/// search.
///
/// ```
/// use adn_faults::{ChurnPlan, CrashSchedule, DownKind};
/// use adn_types::{NodeId, Round};
///
/// let mut plan = ChurnPlan::new(4);
/// // Node 2 crashes at global round 5 and recovers at global round 9.
/// plan.crash(NodeId::new(2), Round::new(5), DownKind::Abrupt);
/// plan.recover(NodeId::new(2), Round::new(9));
///
/// // Instance starting at global round 0: node 2 crashes at relative 5.
/// let mut cs = CrashSchedule::new(4);
/// plan.slice_into(Round::ZERO, &mut cs);
/// assert!(cs.is_silent(NodeId::new(2), Round::new(5)));
///
/// // Instance starting at global round 7: node 2 is still down (its
/// // recovery round has not been reached) — crashed from relative 0.
/// plan.slice_into(Round::new(7), &mut cs);
/// assert!(cs.is_silent(NodeId::new(2), Round::ZERO));
///
/// // Instance starting at global round 10: node 2 has rejoined.
/// plan.slice_into(Round::new(10), &mut cs);
/// assert!(!cs.is_faulty(NodeId::new(2)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChurnPlan {
    initially_up: Vec<bool>,
    /// 16 bytes an event: a flapping fleet registers tens of thousands of
    /// them per service epoch, and a [`DownKind`] held inline would double
    /// that.
    events: Vec<Vec<(Round, Transition)>>,
    /// The down kinds the events refer to, in order of registration; a run
    /// of downs of one kind (a whole generator call) shares one entry.
    kinds: Vec<DownKind>,
}

impl ChurnPlan {
    /// A plan in which every node is up forever, for a system of `n` nodes.
    pub fn new(n: usize) -> Self {
        ChurnPlan {
            initially_up: vec![true; n],
            events: vec![Vec::new(); n],
            kinds: Vec::new(),
        }
    }

    /// Number of nodes this plan covers.
    pub fn n(&self) -> usize {
        self.initially_up.len()
    }

    /// The node's state after its last registered transition.
    fn last_state(&self, v: usize) -> bool {
        match self.events[v].last() {
            Some((_, Transition::Up)) => true,
            Some((_, Transition::Down(_))) => false,
            None => self.initially_up[v],
        }
    }

    /// The global round of the node's last registered transition, if any.
    fn last_round(&self, v: usize) -> Option<Round> {
        self.events[v].last().map(|(r, _)| *r)
    }

    fn push(&mut self, node: NodeId, at: Round, t: Transition) {
        let v = node.index();
        if let Some(last) = self.last_round(v) {
            assert!(
                last < at,
                "churn events for {node} must have strictly increasing rounds \
                 (last {last}, new {at})"
            );
        }
        self.events[v].push((at, t));
    }

    /// The node goes down at global round `at`: it performs the final
    /// (possibly partial, per `kind`) broadcast that round and is silent
    /// after, until a later [`ChurnPlan::recover`].
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range, already down at `at`, or `at`
    /// does not follow the node's previous transition.
    pub fn crash(&mut self, node: NodeId, at: Round, kind: DownKind) {
        assert!(
            self.last_state(node.index()),
            "cannot take {node} down at {at}: it is already down"
        );
        if self.kinds.last() != Some(&kind) {
            self.kinds.push(kind);
        }
        let k = u32::try_from(self.kinds.len() - 1).expect("fewer than 2^32 down kinds");
        self.push(node, at, Transition::Down(k));
    }

    /// The node leaves gracefully at global round `at` — its final
    /// broadcast completes in full ([`DownKind::Graceful`]).
    ///
    /// # Panics
    ///
    /// Same conditions as [`ChurnPlan::crash`].
    pub fn leave(&mut self, node: NodeId, at: Round) {
        self.crash(node, at, DownKind::Graceful);
    }

    /// The node comes back up: from the first instance boundary at or
    /// after global round `at`, it participates again with reset algorithm
    /// state and a fresh input.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range, already up, or `at` does not
    /// follow the node's previous transition.
    pub fn recover(&mut self, node: NodeId, at: Round) {
        assert!(
            !self.last_state(node.index()),
            "cannot bring {node} up at {at}: it is already up"
        );
        self.push(node, at, Transition::Up);
    }

    /// The node is absent from the start and joins at the first instance
    /// boundary at or after global round `at`.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range or already has churn events.
    pub fn join(&mut self, node: NodeId, at: Round) {
        let v = node.index();
        assert!(
            self.events[v].is_empty() && self.initially_up[v],
            "join must be {node}'s first churn event"
        );
        self.initially_up[v] = false;
        self.push(node, at, Transition::Up);
    }

    /// Periodic flapping: starting at `first_down`, the node goes down
    /// (per `kind`) for `down_len` rounds out of every `period`, repeating
    /// while the down round is below `horizon`. The final recovery is
    /// always registered, so the node ends the plan up.
    ///
    /// # Panics
    ///
    /// Panics if `down_len == 0`, `down_len >= period`, or the first down
    /// round does not follow the node's previous transition.
    pub fn flap_periodic(
        &mut self,
        node: NodeId,
        first_down: Round,
        down_len: u64,
        period: u64,
        kind: DownKind,
        horizon: Round,
    ) {
        assert!(down_len > 0, "down_len must be at least one round");
        assert!(
            down_len < period,
            "a flapping node must spend at least one round per period up \
             (down_len {down_len} >= period {period})"
        );
        let mut down = first_down.as_u64();
        while down < horizon.as_u64() {
            self.crash(node, Round::new(down), kind);
            self.recover(node, Round::new(down + down_len));
            down += period;
        }
    }

    /// Random flapping: a two-state Markov walk from the node's current
    /// state, one step per global round until `horizon`. While up, the
    /// node crashes ([`DownKind::Abrupt`]) with probability `p_down` each
    /// round; while down, it recovers with probability `p_up` each round.
    /// Deterministic in `seed` (mixed with the node id, so one seed drives
    /// a whole gallery of nodes independently).
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    pub fn flap_random(&mut self, node: NodeId, p_down: f64, p_up: f64, seed: u64, horizon: Round) {
        assert!((0.0..=1.0).contains(&p_down), "p_down must be in [0, 1]");
        assert!((0.0..=1.0).contains(&p_up), "p_up must be in [0, 1]");
        let v = node.index();
        let mut rng = SplitMix64::new(seed ^ ((v as u64) << 32));
        let mut up = self.last_state(v);
        let start = self.last_round(v).map_or(0, |r| r.as_u64() + 1);
        for r in start..horizon.as_u64() {
            if up {
                if rng.next_bool(p_down) {
                    self.crash(node, Round::new(r), DownKind::Abrupt);
                    up = false;
                }
            } else if rng.next_bool(p_up) {
                self.recover(node, Round::new(r));
                up = true;
            }
        }
    }

    /// Index of the first event that has **not** yet taken effect at an
    /// instance boundary `start`: down events take effect from their own
    /// round (the node is still up entering the instance and crashes
    /// *within* it), up events take effect at the first boundary at or
    /// after their round.
    fn boundary_index(&self, v: usize, start: Round) -> usize {
        self.events[v].partition_point(|(r, t)| match t {
            Transition::Up => *r <= start,
            Transition::Down(_) => *r < start,
        })
    }

    /// Whether the node participates in an instance starting at global
    /// round `start` (it may still crash during the instance).
    pub fn is_up_at(&self, node: NodeId, start: Round) -> bool {
        let v = node.index();
        match self.boundary_index(v, start) {
            0 => self.initially_up[v],
            i => matches!(self.events[v][i - 1].1, Transition::Up),
        }
    }

    /// Projects the plan onto one instance's [`CrashSchedule`], for an
    /// instance starting at global round `start`.
    ///
    /// A node down at the boundary is crashed from relative round 0 with
    /// no survivors; a node up at the boundary crashes at its next down
    /// event, translated to instance-relative rounds (or never, if it has
    /// none). Allocation-free: `out` is cleared in place and only
    /// `Subset`-free survivor modes are written (see [`DownKind`]).
    ///
    /// # Panics
    ///
    /// Panics if `out` does not cover exactly [`ChurnPlan::n`] nodes.
    pub fn slice_into(&self, start: Round, out: &mut CrashSchedule) {
        assert_eq!(out.n(), self.n(), "crash schedule size mismatch");
        out.clear();
        for v in 0..self.n() {
            let node = NodeId::new(v);
            let i = self.boundary_index(v, start);
            let up = match i {
                0 => self.initially_up[v],
                i => matches!(self.events[v][i - 1].1, Transition::Up),
            };
            if !up {
                out.crash(node, Round::ZERO, CrashSurvivors::None);
            } else if let Some(&(r, Transition::Down(k))) = self.events[v].get(i) {
                // Alternation guarantees the next unapplied event of an
                // up node is a down.
                out.crash(
                    node,
                    Round::new(r.as_u64() - start.as_u64()),
                    self.kinds[k as usize].survivors(),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn empty_plan_slices_to_no_crashes() {
        let plan = ChurnPlan::new(3);
        let mut cs = CrashSchedule::new(3);
        plan.slice_into(Round::new(17), &mut cs);
        assert_eq!(cs.fault_count(), 0);
        assert!(plan.is_up_at(nid(0), Round::ZERO));
    }

    #[test]
    fn crash_recover_crosses_boundaries() {
        let mut plan = ChurnPlan::new(2);
        plan.crash(nid(1), Round::new(5), DownKind::Abrupt);
        plan.recover(nid(1), Round::new(9));
        let mut cs = CrashSchedule::new(2);

        // Boundary 0: crash lands at relative round 5.
        plan.slice_into(Round::ZERO, &mut cs);
        assert!(!cs.is_silent(nid(1), Round::new(4)));
        assert!(cs.is_silent(nid(1), Round::new(5)));

        // Boundary 3: crash lands at relative round 2.
        plan.slice_into(Round::new(3), &mut cs);
        assert!(cs.is_silent(nid(1), Round::new(2)));

        // Boundary 6 (mid-outage): down for the whole instance.
        plan.slice_into(Round::new(6), &mut cs);
        assert!(cs.is_silent(nid(1), Round::ZERO));
        assert!(!plan.is_up_at(nid(1), Round::new(6)));

        // Boundary 9 (recovery round is a boundary): back up, clean.
        plan.slice_into(Round::new(9), &mut cs);
        assert!(!cs.is_faulty(nid(1)));
        assert!(plan.is_up_at(nid(1), Round::new(9)));
    }

    #[test]
    fn down_at_the_boundary_round_crashes_at_relative_zero_with_its_kind() {
        let mut plan = ChurnPlan::new(2);
        plan.leave(nid(0), Round::new(4));
        let mut cs = CrashSchedule::new(2);
        plan.slice_into(Round::new(4), &mut cs);
        // Graceful: the relative-round-0 broadcast completes in full.
        assert!(cs.delivers_to_all(nid(0), Round::ZERO));
        assert!(cs.is_silent(nid(0), Round::new(1)));
    }

    #[test]
    fn events_share_their_down_kinds_and_keep_them_apart() {
        let mut plan = ChurnPlan::new(3);
        let horizon = Round::new(1_000);
        // Kinds interleaved across nodes, one long run of a single kind.
        plan.leave(nid(0), Round::new(3));
        plan.crash(nid(1), Round::new(3), DownKind::Abrupt);
        plan.recover(nid(0), Round::new(5));
        plan.flap_periodic(nid(2), Round::new(3), 1, 4, DownKind::Graceful, horizon);
        plan.crash(nid(0), Round::new(7), DownKind::Abrupt);
        assert_eq!(plan.events[2].len(), 500);
        assert_eq!(plan.kinds.len(), 4, "one entry per run of equal kinds");
        assert_eq!(std::mem::size_of::<(Round, Transition)>(), 16);
        let mut cs = CrashSchedule::new(3);
        plan.slice_into(Round::ZERO, &mut cs);
        assert!(cs.delivers_to_all(nid(0), Round::new(3)), "graceful");
        assert!(cs.is_silent(nid(1), Round::new(3)), "abrupt");
        assert!(cs.delivers_to_all(nid(2), Round::new(3)), "graceful");
        plan.slice_into(Round::new(5), &mut cs);
        assert!(
            cs.is_silent(nid(0), Round::new(2)),
            "abrupt the second time"
        );
        assert!(cs.delivers_to_all(nid(2), Round::new(2)));
    }

    #[test]
    fn join_is_down_until_its_round() {
        let mut plan = ChurnPlan::new(2);
        plan.join(nid(1), Round::new(6));
        assert!(!plan.is_up_at(nid(1), Round::ZERO));
        assert!(!plan.is_up_at(nid(1), Round::new(5)));
        assert!(plan.is_up_at(nid(1), Round::new(6)));
        let mut cs = CrashSchedule::new(2);
        plan.slice_into(Round::ZERO, &mut cs);
        assert!(cs.is_silent(nid(1), Round::ZERO));
    }

    #[test]
    fn flaky_down_maps_to_random_survivors() {
        let mut plan = ChurnPlan::new(2);
        plan.crash(
            nid(0),
            Round::new(2),
            DownKind::Flaky {
                keep_probability: 0.5,
                seed: 7,
            },
        );
        let mut cs = CrashSchedule::new(2);
        plan.slice_into(Round::ZERO, &mut cs);
        let first = cs.delivers(nid(0), Round::new(2), nid(1));
        plan.slice_into(Round::ZERO, &mut cs);
        assert_eq!(
            first,
            cs.delivers(nid(0), Round::new(2), nid(1)),
            "flaky survivors must be deterministic across slices"
        );
    }

    #[test]
    fn periodic_flapping_alternates() {
        let mut plan = ChurnPlan::new(1);
        plan.flap_periodic(
            nid(0),
            Round::new(2),
            2,
            5,
            DownKind::Abrupt,
            Round::new(12),
        );
        // Down rounds: 2..4, 7..9. At a boundary equal to the down round
        // the node still participates — it crashes at relative round 0
        // with its final broadcast — so 2 and 7 read as up; only
        // boundaries strictly inside an outage (3, 8) read as down.
        for (b, up) in [
            (0, true),
            (2, true),
            (3, false),
            (4, true),
            (7, true),
            (8, false),
            (9, true),
        ] {
            assert_eq!(plan.is_up_at(nid(0), Round::new(b)), up, "boundary {b}");
        }
    }

    #[test]
    fn random_flapping_is_deterministic_and_alternates() {
        let mut a = ChurnPlan::new(3);
        let mut b = ChurnPlan::new(3);
        for v in 0..3 {
            a.flap_random(nid(v), 0.3, 0.5, 42, Round::new(200));
            b.flap_random(nid(v), 0.3, 0.5, 42, Round::new(200));
        }
        for boundary in [0u64, 13, 57, 199] {
            for v in 0..3 {
                assert_eq!(
                    a.is_up_at(nid(v), Round::new(boundary)),
                    b.is_up_at(nid(v), Round::new(boundary)),
                );
            }
        }
        // With these rates over 200 rounds, node 0 must flap at least once.
        assert!(
            (0..200).any(|r| !a.is_up_at(nid(0), Round::new(r))),
            "random flapping produced no outage in 200 rounds"
        );
    }

    #[test]
    #[should_panic(expected = "already down")]
    fn double_down_panics() {
        let mut plan = ChurnPlan::new(1);
        plan.crash(nid(0), Round::new(1), DownKind::Abrupt);
        plan.crash(nid(0), Round::new(3), DownKind::Abrupt);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_rounds_panic() {
        let mut plan = ChurnPlan::new(1);
        plan.crash(nid(0), Round::new(5), DownKind::Abrupt);
        plan.recover(nid(0), Round::new(5));
    }
}
