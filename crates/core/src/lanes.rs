//! The trial-lane plane: up to 64 independent Monte-Carlo trials of one
//! configuration stepped in lockstep, one bit lane per trial.
//!
//! **Lanes are slots.** [`Lanes<P>`] is the scalar columnar plane `P`
//! ([`DacPlane`] / [`DbacPlane`]: [`Columnar<R>`] under either rule) built
//! with `n × LANE_WIDTH` slots: slot `v · 64 + t` is trial `t` of node
//! `v`, with the port row, quorum and lists of an `n`-node system. A slot
//! neither knows nor cares that its neighbours in the columns are other
//! trials of the same node, so every lane runs the plane's own Alg. 1 /
//! Alg. 2 step — the same `process` that [`AlgorithmPlane::receive`] runs
//! — and there is no lane-specific state machine. What the layout buys: word `v` of a
//! [`NodeSet`] over the slots *is* node `v`'s **lane word** (bit `t` is
//! trial `t`), so the driver's `live` / link / decided masks address 64
//! trials of a node at once, one driver round serves all of them, and
//! under a shared adversary `lane_key` one link realization does. Each
//! lane's fold itself is scalar.
//!
//! The contract mirrors the scalar plane's: every lane must be
//! byte-identical to its own single-trial scalar run — same outcomes,
//! same rounds, same final phases — which `tests/lane_equivalence.rs`
//! fuzzes across seeds × adversaries × crash mixes.
//!
//! [`Columnar<R>`]: crate::Columnar
//! [`DacPlane`]: crate::DacPlane
//! [`DbacPlane`]: crate::DbacPlane
//! [`AlgorithmPlane::receive`]: crate::AlgorithmPlane::receive

use std::fmt;

use adn_graph::NodeSet;
use adn_types::{Message, Params, Phase, Port, Value};

use crate::plane::{AlgorithmPlane, Columnar, Rule};

/// Number of trials one lane word holds (bit `t` of a word is trial `t`).
pub const LANE_WIDTH: usize = 64;

/// The state of one algorithm across all `n` node slots **and** up to
/// [`LANE_WIDTH`] trial lanes, as the lane driver sees it. [`Lanes`] is
/// the one implementation in this crate.
///
/// # Contract
///
/// Each lane must be observationally identical to a scalar
/// [`AlgorithmPlane`] run of that trial alone, with deliveries applied in
/// the same per-receiver order. The driver guarantees:
///
/// * [`LanePlane::begin_round`] is called once per round before any
///   delivery — the plane snapshots its `(value, phase)` columns, and every
///   delivery of the round reads the sender's snapshot (the scalar
///   engine's start-of-round broadcast capture);
/// * [`LanePlane::deliver_link`] is called at most once per `(sender,
///   receiver)` pair per round, receivers walked with ascending senders —
///   the scalar engine's `AscendingSenders` order;
/// * the `live` / `mask` words only ever contain populated lanes that have
///   not been retired by the driver (a retired lane's state stays frozen
///   exactly where its scalar run stopped).
pub trait LanePlane: fmt::Debug {
    /// Number of node slots.
    fn n(&self) -> usize;

    /// Number of populated trial lanes (bits `0..lanes` of every word).
    fn lanes(&self) -> usize;

    /// Snapshots the `(value, phase)` columns as this round's broadcast
    /// wire state. Deliveries of the round read the snapshot, never the
    /// live (mutating) columns.
    fn begin_round(&mut self);

    /// Delivers sender `sender`'s snapshot broadcast to `receiver` on
    /// `port`, for every lane set in `mask`.
    fn deliver_link(&mut self, receiver: usize, port: Port, sender: usize, mask: u64);

    /// End-of-round advance hook for every slot in `executing`, applied
    /// to every lane set in `live` (the scalar plane's `end_round`).
    fn end_round(&mut self, executing: &NodeSet, live: u64);

    /// Slot `v`'s current phase in lane `lane`.
    fn phase_of(&self, v: usize, lane: usize) -> Phase;

    /// Slot `v`'s current value in lane `lane`.
    fn value_of(&self, v: usize, lane: usize) -> Value;

    /// Slot `v`'s decided output in lane `lane`, `None` before the
    /// termination rule fires.
    fn output_of(&self, v: usize, lane: usize) -> Option<Value>;

    /// Copies lane `lane`'s per-slot phases and values into the given
    /// buffers (both of length [`LanePlane::n`]) — the driver's adversary
    /// view snapshot, taken before any delivery of the round so it equals
    /// the start-of-round state. The default routes through the per-slot
    /// accessors.
    fn snapshot_lane(&self, lane: usize, phases: &mut [Phase], values: &mut [Value]) {
        for v in 0..self.n() {
            phases[v] = self.phase_of(v, lane);
            values[v] = self.value_of(v, lane);
        }
    }

    /// The lane word of slot `v`'s decided flags: bit `t` set iff lane
    /// `t` is populated and slot `v` of it has output. ANDing these words
    /// over the fault-free slots yields the all-output lanes in one fold.
    /// Exact after construction and after every
    /// [`LanePlane::end_round`] — when the driver reads it; between the
    /// deliveries of a round an implementation may still report the
    /// previous value.
    fn decided_word(&self, v: usize) -> u64;

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// Up to [`LANE_WIDTH`] trials of one configuration on one columnar plane
/// `P` of `n × LANE_WIDTH` slots (see [the module docs](self)); the
/// adaptor adds the start-of-round wire snapshot and the decided words.
/// Constructor input vectors are **lane-major** (`inputs[t * n + v]` is
/// trial `t`'s input for node `v`), matching the harvest order of
/// `TrialPool::run_lanes`; unpopulated lanes hold `Value::HALF`, are never
/// driven and never reported decided. Byzantine fabrication is a
/// driver-level axis the lane path never sees (the driver falls back to
/// scalar runs), so only honest `(value, phase)` snapshots are delivered.
///
/// # Designs measured and rejected
///
/// `lanes_mc` (64 DAC lanes, `n = 64`) on the 2-vCPU bench box at seed 1,
/// three alternating 5 s runs each, against 61.0k rounds/s for this
/// design (and ≈ 60k for the hand-transcribed lane planes it replaced):
///
/// * refreshing `decided[receiver]` after every `deliver_link` (only the
///   lanes just stepped) — 54.3k (−11 %); the issue's prototype read
///   22k for its variant of this. So `decided` is a skip-mask
///   *cache* of the plane's `outputs` column, refreshed at construction
///   and in `end_round` only. Within a round it may lag, unobservably:
///   the plane's step ignores a slot whose phase reached `pend` by itself.
/// * one [`AlgorithmPlane::receive`] per lane, which rebuilds the column
///   views per lane — 25.2k (−59 %). Hence `Columnar::stepper`: views
///   split once per link.
/// * also folding the per-link `process` into the fused row kernels
///   (kernel load/store per link) — 43.5k against 60.8k (−25 %) on the
///   issue's prototype, the `Simulation` workloads flat; not rebuilt
///   here. So the per-link step and the row kernel stay two forms of
///   each algorithm's receive rule.
///
/// [`AlgorithmPlane::receive`]: crate::AlgorithmPlane::receive
pub struct Lanes<P> {
    plane: P,
    lanes: usize,
    /// Start-of-round snapshots of the plane's `phases` / `values`.
    wire_phase: Vec<Phase>,
    wire_value: Vec<Value>,
    /// Lane word per node (so `n` words): bit `t` set iff lane `t` is
    /// populated and slot `(v, t)` had output at construction or at the
    /// last `end_round`.
    decided: Vec<u64>,
    /// Reused `executing × live` slot set of `end_round`.
    advancing: NodeSet,
}

/// The lane word with bits `0..lanes` set.
fn populated(lanes: usize) -> u64 {
    u64::MAX >> (LANE_WIDTH - lanes)
}

impl<R: Rule> Lanes<Columnar<R>> {
    /// Creates the lane plane from a **lane-major** input vector with
    /// termination phase `pend`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` is not a positive multiple of
    /// `params.n()` of at most [`LANE_WIDTH`] lanes.
    pub fn with_pend(params: Params, inputs: &[Value], pend: u64) -> Self {
        let n = params.n();
        let lanes = inputs.len() / n;
        assert!(
            (1..=LANE_WIDTH).contains(&lanes) && inputs.len() == lanes * n,
            "inputs must hold 1..=64 full lanes of n values"
        );
        let mut slots = vec![Value::HALF; n * LANE_WIDTH];
        for (i, &input) in inputs.iter().enumerate() {
            slots[(i % n) * LANE_WIDTH + i / n] = input;
        }
        let plane = Columnar::with_slots(params, &slots, pend);
        let mut lanes = Lanes {
            lanes,
            wire_phase: plane.phases().to_vec(),
            wire_value: slots,
            decided: vec![0; n],
            advancing: NodeSet::new(n * LANE_WIDTH),
            plane,
        };
        lanes.refresh_decided();
        lanes
    }

    /// ORs into every `decided` word the populated lanes whose slot has
    /// output by now (outputs are never retracted).
    fn refresh_decided(&mut self) {
        let outputs = self.plane.outputs();
        let populated = populated(self.lanes);
        for (v, word) in self.decided.iter_mut().enumerate() {
            let mut open = populated & !*word;
            while open != 0 {
                let t = open.trailing_zeros() as usize;
                open &= open - 1;
                *word |= u64::from(outputs[v * LANE_WIDTH + t].is_some()) << t;
            }
        }
    }
}

impl<P> fmt::Debug for Lanes<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Lanes(n={}, lanes={})", self.decided.len(), self.lanes)
    }
}

impl<R: Rule> LanePlane for Lanes<Columnar<R>> {
    fn n(&self) -> usize {
        self.decided.len()
    }

    fn lanes(&self) -> usize {
        self.lanes
    }

    fn begin_round(&mut self) {
        self.wire_phase.copy_from_slice(self.plane.phases());
        self.wire_value.copy_from_slice(self.plane.values());
    }

    fn deliver_link(&mut self, receiver: usize, port: Port, sender: usize, mask: u64) {
        // Decided lanes keep broadcasting but no longer update; the cached
        // word only saves the plane the trouble of finding that out.
        let mut m = mask & !self.decided[receiver];
        let (rx, tx) = (receiver * LANE_WIDTH, sender * LANE_WIDTH);
        let phase = &self.wire_phase[tx..tx + LANE_WIDTH];
        let value = &self.wire_value[tx..tx + LANE_WIDTH];
        let mut step = self.plane.stepper();
        while m != 0 {
            let t = m.trailing_zeros() as usize;
            m &= m - 1;
            step(rx + t, port, Message::new(value[t], phase[t]));
        }
    }

    fn end_round(&mut self, executing: &NodeSet, live: u64) {
        self.advancing.clear();
        executing.for_each(|id| {
            let v = id.index();
            self.advancing.set_word(v, live & !self.decided[v]);
        });
        self.plane.end_round(&self.advancing);
        self.refresh_decided();
    }

    fn phase_of(&self, v: usize, lane: usize) -> Phase {
        self.plane.phases()[v * LANE_WIDTH + lane]
    }

    fn value_of(&self, v: usize, lane: usize) -> Value {
        self.plane.values()[v * LANE_WIDTH + lane]
    }

    fn output_of(&self, v: usize, lane: usize) -> Option<Value> {
        self.plane.outputs()[v * LANE_WIDTH + lane]
    }

    fn decided_word(&self, v: usize) -> u64 {
        self.decided[v]
    }

    fn name(&self) -> &'static str {
        R::LANES_NAME
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::{DacRule, DbacRule};
    use adn_types::rng::SplitMix64;
    use adn_types::NodeId;

    /// Asserts that every populated lane of `lanes` is in the state of its
    /// scalar twin, through every read the trait offers.
    fn assert_same<R: Rule>(lanes: &Lanes<Columnar<R>>, scalars: &[Columnar<R>], when: &str) {
        let n = lanes.n();
        let (mut phases, mut values) = (vec![Phase::ZERO; n], vec![Value::HALF; n]);
        for (t, s) in scalars.iter().enumerate() {
            lanes.snapshot_lane(t, &mut phases, &mut values);
            assert_eq!(phases, s.phases(), "lane {t} phases {when}");
            assert_eq!(values, s.values(), "lane {t} values {when}");
            for v in 0..n {
                assert_eq!(lanes.phase_of(v, t), s.phases()[v], "{when}");
                assert_eq!(lanes.value_of(v, t), s.values()[v], "{when}");
                assert_eq!(lanes.output_of(v, t), s.outputs()[v], "{when}");
                assert_eq!(
                    lanes.decided_word(v) >> t & 1 == 1,
                    s.outputs()[v].is_some(),
                    "decided bit of ({v}, {t}) {when}"
                );
            }
        }
        for v in 0..n {
            let unpopulated = lanes.decided_word(v) & !populated(scalars.len());
            assert_eq!(unpopulated, 0, "slot {v} {when}");
        }
    }

    /// Drives `lane_count` trials on one `Lanes` and on one scalar plane
    /// each through the same random rounds — lossy links under per-link
    /// lane masks, node `n - 1` outside `executing`, one lane dropped from
    /// `live` halfway — comparing all state after every round. Returns how
    /// many links were fed to a slot that had decided earlier in the same
    /// round (the cached decided word lags there; the plane must ignore
    /// them by itself).
    fn lockstep<R: Rule>(params: Params, pend: u64, lane_count: usize, seed: u64) -> usize {
        const ROUNDS: usize = 10;
        let n = params.n();
        let mut rng = SplitMix64::new(seed);
        let inputs: Vec<Value> = (0..lane_count * n)
            .map(|_| Value::new(rng.next_f64()).unwrap())
            .collect();
        let mut lanes = Lanes::<Columnar<R>>::with_pend(params, &inputs, pend);
        let mut scalars: Vec<Columnar<R>> = inputs
            .chunks(n)
            .map(|lane| Columnar::with_slots(params, lane, pend))
            .collect();
        assert_eq!((lanes.n(), lanes.lanes()), (n, lane_count));
        assert_same(&lanes, &scalars, "at construction");

        let executing = NodeSet::from_ids(n, NodeId::all(n - 1));
        let dropped = lane_count / 2;
        let mut live = populated(lane_count);
        let mut fed_after_deciding = 0;
        for round in 0..ROUNDS {
            if round == ROUNDS / 2 {
                live &= !(1 << dropped);
            }
            lanes.begin_round();
            let wire: Vec<Vec<Message>> = scalars
                .iter()
                .map(|s| {
                    (0..n)
                        .map(|u| Message::new(s.values()[u], s.phases()[u]))
                        .collect()
                })
                .collect();
            for v in 0..n - 1 {
                let decided_at_start = lanes.decided_word(v);
                for u in (0..n).filter(|&u| u != v) {
                    // ~1 link in 16 lost per lane; a whole word now and then.
                    let lost = rng.next_u64() & rng.next_u64() & rng.next_u64() & rng.next_u64();
                    let mask = if rng.next_bool(0.05) { 0 } else { live & !lost };
                    let port = Port::new(u);
                    lanes.deliver_link(v, port, u, mask);
                    for (t, s) in scalars.iter_mut().enumerate() {
                        if mask >> t & 1 == 1 {
                            let late = s.outputs()[v].is_some() && decided_at_start >> t & 1 == 0;
                            fed_after_deciding += usize::from(late);
                            s.receive(v, port, &[wire[t][u]]);
                        }
                    }
                }
            }
            lanes.end_round(&executing, live);
            for (t, s) in scalars.iter_mut().enumerate() {
                if live >> t & 1 == 1 {
                    s.end_round(&executing);
                }
            }
            assert_same(&lanes, &scalars, &format!("after round {round}"));
        }
        // The run got somewhere, and the bystander nowhere.
        if pend > 0 {
            let survivor = (0..lane_count).find(|&t| t != dropped).unwrap_or(0);
            assert!(lanes.phase_of(0, survivor) > Phase::ZERO, "no progress");
            assert_eq!(lanes.phase_of(n - 1, survivor), Phase::ZERO);
        }
        fed_after_deciding
    }

    /// Both planes × {7 nodes, 70 nodes: two-word port rows} × {1, 3, 64
    /// populated lanes}; `f ≥ 1`, so DBAC's trim lists are `f + 1` long.
    fn lockstep_matrix<R: Rule>() {
        let mut fed_after_deciding = 0;
        for (params, pend) in [
            (Params::new(7, 1, 0.25).unwrap(), 2),
            (Params::new(70, 3, 0.25).unwrap(), 3),
        ] {
            for lane_count in [1, 3, LANE_WIDTH] {
                let seed = (params.n() * 100 + lane_count) as u64;
                fed_after_deciding += lockstep::<R>(params, pend, lane_count, seed);
            }
        }
        assert!(fed_after_deciding > 0, "no slot was fed after deciding");
        // pend = 0: decided at construction, every later link a no-op.
        lockstep::<R>(Params::new(7, 1, 0.25).unwrap(), 0, 3, 9);
    }

    #[test]
    fn dac_lanes_match_per_trial_scalar_planes() {
        lockstep_matrix::<DacRule>();
    }

    #[test]
    fn dbac_lanes_match_per_trial_scalar_planes() {
        lockstep_matrix::<DbacRule>();
    }

    #[test]
    fn pend_zero_decides_at_construction() {
        let n = 3;
        let inputs = vec![Value::HALF; n];
        let lanes =
            Lanes::<crate::DacPlane>::with_pend(Params::fault_free(n, 0.25).unwrap(), &inputs, 0);
        for v in 0..n {
            assert_eq!(lanes.output_of(v, 0), Some(Value::HALF));
        }
        // Only the populated lane: the 63 others are never reported.
        assert_eq!(lanes.decided_word(0), 1);
        assert_eq!(lanes.name(), "dac-lanes");
    }
}
