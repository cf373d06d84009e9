//! The trial-lane plane: up to 64 independent Monte-Carlo trials of one
//! configuration stepped in lockstep, one bit lane per trial.
//!
//! The columnar [`AlgorithmPlane`](crate::AlgorithmPlane) applied the
//! 64-bit word-parallel trick across *nodes*; this plane applies it
//! across *seeds*. Every bit-shaped column of the scalar plane (the
//! per-phase `ports_seen` dedup row, the decided flag) becomes one `u64`
//! **lane word** per `(node, fact)` — bit `t` of a word is trial `t` —
//! while the scalar value columns (`value`/`vmin`/`vmax`, the DBAC trim
//! lists) stay per-lane slabs stepped under a divergence mask. One
//! delivery call then updates every live trial of a link with a single
//! dedup word op plus one scalar tail per *diverged* lane, and sweeps
//! (E12, the statistical suites) amortize the whole per-round driver cost
//! over 64 trials.
//!
//! The contract mirrors the scalar plane's: every lane must be
//! byte-identical to its own single-trial scalar run — same outcomes,
//! same rounds, same final phases — which `tests/lane_equivalence.rs`
//! fuzzes across seeds × adversaries × crash mixes. The lane planes are
//! therefore literal per-lane transcriptions of `DacCols` / `DbacCols`
//! with the lane index folded into every slab offset.

use std::fmt;

use adn_graph::NodeSet;
use adn_types::{Params, Phase, Port, Value};

use crate::trim;

/// Number of trials one lane word holds (bit `t` of a word is trial `t`).
pub const LANE_WIDTH: usize = 64;

/// Columnar state of one algorithm across all `n` node slots **and** up
/// to [`LANE_WIDTH`] trial lanes.
///
/// Slab layout is lane-minor: per-lane scalar slot `(v, t)` lives at
/// index `v * LANE_WIDTH + t`, and constructor input vectors are
/// **lane-major** (`inputs[t * n + v]` is trial `t`'s input for node
/// `v`), matching the harvest order of `TrialPool::run_lanes`.
///
/// # Contract
///
/// Each lane must be observationally identical to a scalar
/// [`AlgorithmPlane`](crate::AlgorithmPlane) run of that trial alone,
/// with deliveries applied in the same per-receiver order. The driver
/// guarantees:
///
/// * [`LanePlane::begin_round`] is called once per round before any
///   delivery — the plane snapshots its `(value, phase)` slabs, and every
///   delivery of the round reads the sender's snapshot (the scalar
///   engine's start-of-round broadcast capture);
/// * [`LanePlane::deliver_link`] is called at most once per `(sender,
///   receiver)` pair per round, receivers walked with ascending senders —
///   the scalar engine's `AscendingSenders` order;
/// * the `live` / `mask` words only ever contain lanes that have not been
///   retired by the driver (a retired lane's state stays frozen exactly
///   where its scalar run stopped).
pub trait LanePlane: fmt::Debug {
    /// Number of node slots.
    fn n(&self) -> usize;

    /// Number of populated trial lanes (bits `0..lanes` of every word).
    fn lanes(&self) -> usize;

    /// Snapshots the `(value, phase)` slabs as this round's broadcast
    /// wire state. Deliveries of the round read the snapshot, never the
    /// live (mutating) slabs.
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
    /// the start-of-round state. Implementations override this with
    /// direct slab strides; the default routes through the per-slot
    /// accessors.
    fn snapshot_lane(&self, lane: usize, phases: &mut [Phase], values: &mut [Value]) {
        for v in 0..self.n() {
            phases[v] = self.phase_of(v, lane);
            values[v] = self.value_of(v, lane);
        }
    }

    /// The lane word of slot `v`'s decided flags: bit `t` set iff lane
    /// `t` of slot `v` has output. ANDing these words over the fault-free
    /// slots yields the all-output lanes in one fold.
    fn decided_word(&self, v: usize) -> u64;

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// [`Dac`](crate::Dac) across up to 64 trial lanes — the lane
/// transcription of the scalar `DacPlane`.
pub struct DacLanes {
    pend: u64,
    foreign_quorum: u32,
    n: usize,
    lanes: usize,
    /// Per-lane scalars, indexed `v * LANE_WIDTH + t`.
    phase: Vec<Phase>,
    value: Vec<Value>,
    vmin: Vec<Value>,
    vmax: Vec<Value>,
    seen_count: Vec<u32>,
    /// Start-of-round broadcast snapshots of `value` / `phase`.
    wire_value: Vec<Value>,
    wire_phase: Vec<Phase>,
    /// Lane words, one per `(receiver, port)` at `v * n + port`: bit `t`
    /// set iff lane `t` of `v` counted that port this phase.
    ports_seen: Vec<u64>,
    /// Lane words, one per slot: bit `t` set iff lane `t` of `v` decided.
    /// `value` freezes at decision (the process loop early-outs on the
    /// decided bit), so the decided value *is* the output — no output
    /// slab.
    decided: Vec<u64>,
}

impl DacLanes {
    /// Creates the lane plane from a **lane-major** input vector
    /// (`inputs[t * n + v]` is trial `t`'s input for node `v`), with the
    /// paper's default `pend`.
    pub fn new(params: Params, inputs: &[Value]) -> Self {
        DacLanes::with_pend(params, inputs, params.dac_pend())
    }

    /// Creates the lane plane with an explicit termination phase.
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
        let mut plane = DacLanes {
            pend,
            foreign_quorum: (params.dac_quorum() - 1) as u32,
            n,
            lanes,
            phase: vec![Phase::ZERO; n * LANE_WIDTH],
            value: vec![Value::HALF; n * LANE_WIDTH],
            vmin: vec![Value::HALF; n * LANE_WIDTH],
            vmax: vec![Value::HALF; n * LANE_WIDTH],
            seen_count: vec![0; n * LANE_WIDTH],
            wire_value: vec![Value::HALF; n * LANE_WIDTH],
            wire_phase: vec![Phase::ZERO; n * LANE_WIDTH],
            ports_seen: vec![0; n * n],
            decided: vec![0; n],
        };
        for t in 0..lanes {
            for v in 0..n {
                let vi = v * LANE_WIDTH + t;
                let input = inputs[t * n + v];
                plane.value[vi] = input;
                plane.vmin[vi] = input;
                plane.vmax[vi] = input;
                // The scalar constructor's maybe_output sweep.
                if pend == 0 {
                    plane.decided[v] |= 1 << t;
                }
            }
        }
        plane
    }

    /// Alg. 1 `RESET()` for lane `t` of slot `v` — `DacCols::reset` with
    /// the port-row clear narrowed to this lane's bit.
    #[inline]
    fn reset_lane(&mut self, v: usize, bit: u64, vi: usize) {
        let keep = !bit;
        for w in &mut self.ports_seen[v * self.n..(v + 1) * self.n] {
            *w &= keep;
        }
        self.seen_count[vi] = 0;
        self.vmin[vi] = self.value[vi];
        self.vmax[vi] = self.value[vi];
    }

    /// `DacCols::process` transcribed for lane `t` of slot `v`; the
    /// caller has already masked out decided lanes (the scalar `p >=
    /// pend` early-out).
    #[inline]
    fn process_lane(&mut self, v: usize, t: usize, port: usize, u: usize) {
        let bit = 1u64 << t;
        let vi = v * LANE_WIDTH + t;
        let ui = u * LANE_WIDTH + t;
        let p = self.phase[vi];
        let q = self.wire_phase[ui];
        if q > p {
            // Jump: adopt the future state wholesale.
            self.value[vi] = self.wire_value[ui];
            self.phase[vi] = q;
            self.reset_lane(v, bit, vi);
        } else if q == p {
            let slot = &mut self.ports_seen[v * self.n + port];
            if *slot & bit != 0 {
                return; // duplicate port: nothing changed
            }
            *slot |= bit;
            let seen = self.seen_count[vi] + 1;
            self.seen_count[vi] = seen;
            let mv = self.wire_value[ui];
            if mv < self.vmin[vi] {
                self.vmin[vi] = mv;
            } else if mv > self.vmax[vi] {
                self.vmax[vi] = mv;
            }
            if seen < self.foreign_quorum {
                return;
            }
        } else {
            return; // stale: nothing changed
        }
        self.try_advance_lane(v, bit, vi);
    }

    /// `DacCols::try_advance` for one lane; the `maybe_output` tail is
    /// the decided-bit set (value freezes from then on).
    #[inline]
    fn try_advance_lane(&mut self, v: usize, bit: u64, vi: usize) {
        while self.seen_count[vi] >= self.foreign_quorum && self.phase[vi].as_u64() < self.pend {
            self.value[vi] = self.vmin[vi].midpoint(self.vmax[vi]);
            self.phase[vi] = self.phase[vi].next();
            self.reset_lane(v, bit, vi);
        }
        if self.phase[vi].as_u64() >= self.pend {
            self.decided[v] |= bit;
        }
    }
}

impl fmt::Debug for DacLanes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DacLanes(n={}, lanes={})", self.n, self.lanes)
    }
}

impl LanePlane for DacLanes {
    fn n(&self) -> usize {
        self.n
    }

    fn lanes(&self) -> usize {
        self.lanes
    }

    fn begin_round(&mut self) {
        self.wire_value.copy_from_slice(&self.value);
        self.wire_phase.copy_from_slice(&self.phase);
    }

    fn deliver_link(&mut self, receiver: usize, port: Port, sender: usize, mask: u64) {
        // Decided lanes keep broadcasting but no longer update — the
        // scalar process early-out, word-parallel.
        let mut m = mask & !self.decided[receiver];
        let port = port.index();
        while m != 0 {
            let t = m.trailing_zeros() as usize;
            m &= m - 1;
            self.process_lane(receiver, t, port, sender);
        }
    }

    fn end_round(&mut self, executing: &NodeSet, live: u64) {
        executing.for_each(|id| {
            let v = id.index();
            // try_advance on a decided lane is a no-op — skip it.
            let mut m = live & !self.decided[v];
            while m != 0 {
                let t = m.trailing_zeros() as usize;
                m &= m - 1;
                self.try_advance_lane(v, 1 << t, v * LANE_WIDTH + t);
            }
        });
    }

    fn phase_of(&self, v: usize, lane: usize) -> Phase {
        self.phase[v * LANE_WIDTH + lane]
    }

    fn value_of(&self, v: usize, lane: usize) -> Value {
        self.value[v * LANE_WIDTH + lane]
    }

    fn output_of(&self, v: usize, lane: usize) -> Option<Value> {
        (self.decided[v] & (1 << lane) != 0).then(|| self.value[v * LANE_WIDTH + lane])
    }

    fn snapshot_lane(&self, lane: usize, phases: &mut [Phase], values: &mut [Value]) {
        for v in 0..self.n {
            phases[v] = self.phase[v * LANE_WIDTH + lane];
            values[v] = self.value[v * LANE_WIDTH + lane];
        }
    }

    fn decided_word(&self, v: usize) -> u64 {
        self.decided[v]
    }

    fn name(&self) -> &'static str {
        "dac-lanes"
    }
}

/// [`Dbac`](crate::Dbac) across up to 64 trial lanes — the lane
/// transcription of the scalar `DbacPlane`. Byzantine fabrication is a
/// driver-level axis the lane path never sees (the driver falls back to
/// scalar runs), so the plane only handles honest `(value, phase)`
/// snapshots.
pub struct DbacLanes {
    pend: u64,
    foreign_quorum: u32,
    cap: usize,
    n: usize,
    lanes: usize,
    /// Per-lane scalars, indexed `v * LANE_WIDTH + t`.
    phase: Vec<Phase>,
    value: Vec<Value>,
    seen_count: Vec<u32>,
    /// Per-lane trim lists (see [`crate::trim`]), indexed
    /// `(v * LANE_WIDTH + t) * cap + j`.
    low: Vec<Value>,
    high: Vec<Value>,
    /// Start-of-round broadcast snapshots of `value` / `phase`.
    wire_value: Vec<Value>,
    wire_phase: Vec<Phase>,
    /// Lane words, one per `(receiver, port)` at `v * n + port`.
    ports_seen: Vec<u64>,
    /// Lane words of decided flags, one per slot (see [`DacLanes`]).
    decided: Vec<u64>,
}

impl DbacLanes {
    /// Creates the lane plane from a **lane-major** input vector with the
    /// paper's Eq. (6) `pend`.
    pub fn new(params: Params, inputs: &[Value]) -> Self {
        DbacLanes::with_pend(params, inputs, params.dbac_pend())
    }

    /// Creates the lane plane with an explicit termination phase.
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
        let cap = params.dbac_list_len();
        let mut plane = DbacLanes {
            pend,
            foreign_quorum: (params.dbac_quorum() - 1) as u32,
            cap,
            n,
            lanes,
            phase: vec![Phase::ZERO; n * LANE_WIDTH],
            value: vec![Value::HALF; n * LANE_WIDTH],
            seen_count: vec![0; n * LANE_WIDTH],
            low: vec![Value::HALF; n * LANE_WIDTH * cap],
            high: vec![Value::HALF; n * LANE_WIDTH * cap],
            wire_value: vec![Value::HALF; n * LANE_WIDTH],
            wire_phase: vec![Phase::ZERO; n * LANE_WIDTH],
            ports_seen: vec![0; n * n],
            decided: vec![0; n],
        };
        for t in 0..lanes {
            for v in 0..n {
                let vi = v * LANE_WIDTH + t;
                plane.value[vi] = inputs[t * n + v];
                // The scalar constructor's reset + maybe_output sweep.
                plane.reset_lane(v, 1 << t, vi);
                if pend == 0 {
                    plane.decided[v] |= 1 << t;
                }
            }
        }
        plane
    }

    /// Alg. 2 `RESET()` + self-store for lane `t` of slot `v`
    /// (`DbacCols::reset`).
    #[inline]
    fn reset_lane(&mut self, v: usize, bit: u64, vi: usize) {
        let keep = !bit;
        for w in &mut self.ports_seen[v * self.n..(v + 1) * self.n] {
            *w &= keep;
        }
        self.seen_count[vi] = 0;
        let own = self.value[vi];
        let (low, high) = self.lists(vi);
        trim::clear(low, high);
        trim::store(low, high, own);
    }

    /// Lane slot `vi`'s `(R_low, R_high)`.
    #[inline]
    fn lists(&mut self, vi: usize) -> (&mut [Value], &mut [Value]) {
        let (from, to) = (vi * self.cap, (vi + 1) * self.cap);
        (&mut self.low[from..to], &mut self.high[from..to])
    }

    /// `DbacCols::process` transcribed for lane `t` of slot `v`; the
    /// caller has already masked out decided lanes.
    #[inline]
    fn process_lane(&mut self, v: usize, t: usize, port: usize, u: usize) {
        let bit = 1u64 << t;
        let vi = v * LANE_WIDTH + t;
        let ui = u * LANE_WIDTH + t;
        let p = self.phase[vi];
        if self.wire_phase[ui] >= p {
            let slot = &mut self.ports_seen[v * self.n + port];
            if *slot & bit == 0 {
                *slot |= bit;
                let seen = self.seen_count[vi] + 1;
                self.seen_count[vi] = seen;
                let val = self.wire_value[ui];
                let (low, high) = self.lists(vi);
                trim::store(low, high, val);
                if seen >= self.foreign_quorum {
                    self.try_advance_lane(v, bit, vi);
                }
            }
        }
    }

    /// `DbacCols::try_advance` for one lane.
    // audit: no-alloc-fn
    #[inline]
    fn try_advance_lane(&mut self, v: usize, bit: u64, vi: usize) {
        while self.seen_count[vi] >= self.foreign_quorum && self.phase[vi].as_u64() < self.pend {
            let (low, high) = self.lists(vi);
            let (lo, hi) = trim::bounds(low, high);
            self.value[vi] = lo.midpoint(hi);
            self.phase[vi] = self.phase[vi].next();
            self.reset_lane(v, bit, vi);
        }
        if self.phase[vi].as_u64() >= self.pend {
            self.decided[v] |= bit;
        }
    }
}

impl fmt::Debug for DbacLanes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DbacLanes(n={}, lanes={})", self.n, self.lanes)
    }
}

impl LanePlane for DbacLanes {
    fn n(&self) -> usize {
        self.n
    }

    fn lanes(&self) -> usize {
        self.lanes
    }

    fn begin_round(&mut self) {
        self.wire_value.copy_from_slice(&self.value);
        self.wire_phase.copy_from_slice(&self.phase);
    }

    fn deliver_link(&mut self, receiver: usize, port: Port, sender: usize, mask: u64) {
        let mut m = mask & !self.decided[receiver];
        let port = port.index();
        while m != 0 {
            let t = m.trailing_zeros() as usize;
            m &= m - 1;
            self.process_lane(receiver, t, port, sender);
        }
    }

    fn end_round(&mut self, executing: &NodeSet, live: u64) {
        executing.for_each(|id| {
            let v = id.index();
            let mut m = live & !self.decided[v];
            while m != 0 {
                let t = m.trailing_zeros() as usize;
                m &= m - 1;
                self.try_advance_lane(v, 1 << t, v * LANE_WIDTH + t);
            }
        });
    }

    fn phase_of(&self, v: usize, lane: usize) -> Phase {
        self.phase[v * LANE_WIDTH + lane]
    }

    fn value_of(&self, v: usize, lane: usize) -> Value {
        self.value[v * LANE_WIDTH + lane]
    }

    fn output_of(&self, v: usize, lane: usize) -> Option<Value> {
        (self.decided[v] & (1 << lane) != 0).then(|| self.value[v * LANE_WIDTH + lane])
    }

    fn snapshot_lane(&self, lane: usize, phases: &mut [Phase], values: &mut [Value]) {
        for v in 0..self.n {
            phases[v] = self.phase[v * LANE_WIDTH + lane];
            values[v] = self.value[v * LANE_WIDTH + lane];
        }
    }

    fn decided_word(&self, v: usize) -> u64 {
        self.decided[v]
    }

    fn name(&self) -> &'static str {
        "dbac-lanes"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::AlgorithmPlane;
    use adn_types::NodeId;

    fn params(n: usize) -> Params {
        Params::fault_free(n, 0.25).unwrap()
    }

    #[test]
    fn lane_zero_matches_scalar_plane_one_round() {
        // One complete-graph round, 3 lanes with distinct inputs: each
        // lane must match a scalar DacPlane run of its own inputs.
        let n = 4;
        let p = params(n);
        let lane_inputs: Vec<Vec<Value>> = (0..3)
            .map(|t| {
                (0..n)
                    .map(|v| Value::new((t * n + v) as f64 / (3 * n) as f64).unwrap())
                    .collect()
            })
            .collect();
        let flat: Vec<Value> = lane_inputs.iter().flatten().copied().collect();
        let mut lanes = DacLanes::with_pend(p, &flat, 4);
        let mut scalars: Vec<crate::DacPlane> = lane_inputs
            .iter()
            .map(|inp| crate::DacPlane::with_pend(p, inp, 4))
            .collect();
        let ports: Vec<Port> = (0..n).map(Port::new).collect();
        let mut everyone = NodeSet::new(n);
        for v in 0..n {
            everyone.insert(NodeId::new(v));
        }
        for _ in 0..3 {
            lanes.begin_round();
            let snapshots: Vec<(Vec<Value>, Vec<Phase>)> = scalars
                .iter()
                .map(|s| (s.values().to_vec(), s.phases().to_vec()))
                .collect();
            for u in 0..n {
                for v in 0..n {
                    if u == v {
                        continue;
                    }
                    lanes.deliver_link(v, ports[u], u, 0b111);
                    for (t, s) in scalars.iter_mut().enumerate() {
                        let (vals, phs) = &snapshots[t];
                        s.receive(v, ports[u], &[adn_types::Message::new(vals[u], phs[u])]);
                    }
                }
            }
            lanes.end_round(&everyone, 0b111);
            for s in scalars.iter_mut() {
                s.end_round(&everyone);
            }
            for (t, s) in scalars.iter().enumerate() {
                for v in 0..n {
                    assert_eq!(lanes.phase_of(v, t), s.phases()[v]);
                    assert_eq!(lanes.value_of(v, t), s.values()[v]);
                    assert_eq!(lanes.output_of(v, t), s.outputs()[v]);
                }
            }
        }
    }

    #[test]
    fn pend_zero_decides_at_construction() {
        let n = 3;
        let inputs = vec![Value::HALF; n];
        let lanes = DacLanes::with_pend(params(n), &inputs, 0);
        for v in 0..n {
            assert_eq!(lanes.output_of(v, 0), Some(Value::HALF));
        }
        assert_eq!(lanes.decided_word(0), 1);
    }
}
