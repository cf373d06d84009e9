use adn_adversary::{Adversary, AdversaryView};
// The walk's test counters are compiled out of a release build here, not
// only emptied in adn-core: a branch around the empty call still moved the
// walk's register allocation.
#[cfg(debug_assertions)]
use adn_core::probe;
use adn_core::{
    AlgorithmPlane, PlaneShard, RowKernel, RowWalk, StagedWire, WireIndex, MAX_PLANE_SHARDS,
};
use adn_faults::{ByzContext, ByzantineStrategy, CrashSchedule};
use adn_graph::{EdgeSet, LinkPlane, LinkRows, NodeSet, Schedule};
use adn_net::{PortNumbering, PortRow, RoundBuffers, SenderClass, Traffic};
use adn_types::{Batch, Message, NodeId, Params, Phase, Round, Value, ValueInterval};

use adn_types::rng::SplitMix64;

use crate::builder::{LinkMode, PlaneMode, SimBuilder};
use crate::observer::{Observer, RoundTrace};
use crate::outcome::{Outcome, StopReason};
use crate::pool::fan_out;
use crate::trace::{Event, EventLog};

/// The shared read-only context of one round's delivery — one bundle
/// every shard's walk borrows.
struct PlaneRound<'a> {
    /// The round's shared sender permutation under the non-ascending
    /// delivery orders; `None` walks each receiver's row ascending.
    perm: Option<&'a [NodeId]>,
    classes: &'a [SenderClass],
    /// The round's Partial and Byzantine senders with their positions in
    /// the sender order (see [`scan_senders`]), in that order.
    conditional: &'a [(usize, NodeId)],
    honest: &'a NodeSet,
    /// Every sender but the Silent ones.
    active: &'a NodeSet,
    unconditional: &'a NodeSet,
    crash: &'a CrashSchedule,
    ports: &'a PortNumbering,
    /// What every transmitting non-Byzantine sender staged at the start of
    /// the round — **not** read from the live plane, whose state mutates
    /// as the round delivers.
    wire: StagedWire<'a>,
    /// The round's Present senders by wire phase, when the round's
    /// receivers take their links a word at a time: word kernels, fed
    /// ascending in stretches, and no more distinct wire phases than the
    /// index holds.
    index: Option<&'a WireIndex>,
    /// The highest staged wire phase: past it (or decided) a columnar
    /// receiver ignores every further honest link of the round.
    max_wire_phase: Phase,
    t: Round,
    params: Params,
    /// Start-of-round snapshot columns, for [`ByzContext`].
    phases: &'a [Phase],
    values: &'a [Value],
}

/// One shard's exclusive round state: its plane slice and its traffic
/// meter (merged back in shard order: the deterministic input-ordered
/// merge).
struct ShardCtx<'a> {
    shard: PlaneShard<'a>,
    traffic: Traffic,
}

/// A Byzantine node: its strategy, and the receivers it fabricated nothing
/// for in the round last delivered — the one realized fact the link store,
/// the sender classes and the crash schedule cannot give back
/// ([`RealizedRows`]). The walk visits each of its chosen links, so all
/// others delivered; misses are rare, so a recorded schedule is cheap.
#[derive(Debug)]
struct ByzSlot {
    strategy: Box<dyn ByzantineStrategy>,
    missed: NodeSet,
}

/// The round's Byzantine senders as the delivery walk sees them: the
/// slots, the one fabrication scratch and — on a logged run — the lengths
/// of the round's fabricated batches, in delivery order (see
/// [`Simulation::log_deliveries`]). A run with Byzantine nodes delivers
/// as one shard (strategy objects are not `Send`), so the shards of a
/// sharded run walk with an empty one.
struct ByzSide<'a> {
    slots: &'a mut [Option<ByzSlot>],
    scratch: &'a mut Batch,
    fabricated: Option<&'a mut Vec<usize>>,
}

impl ByzSide<'_> {
    /// Fabricates Byzantine sender `ctx.self_id`'s batch for destination
    /// `v` into the scratch; returns it, or `None` when nothing was
    /// fabricated, which marks `v` missed. On a logged run, the length of
    /// what it returns joins the round's FIFO. The single fabrication site —
    /// its call order per strategy object (that object's receivers,
    /// ascending) is the same whatever plane is being fed, which is what
    /// keeps stateful strategies equivalent across them.
    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    fn fabricate(&mut self, ctx: &ByzContext<'_>, v: NodeId) -> Option<&mut Batch> {
        self.scratch.clear();
        #[allow(
            clippy::expect_used,
            reason = "the classes table marked the sender Byzantine, so its slot is populated"
        )]
        let slot = self.slots[ctx.self_id.index()]
            .as_mut()
            .expect("classified Byzantine");
        slot.strategy.messages_into(ctx, v, self.scratch);
        if self.scratch.is_empty() {
            slot.missed.insert(v);
            return None;
        }
        if let Some(fabricated) = self.fabricated.as_deref_mut() {
            fabricated.push(self.scratch.len());
        }
        Some(self.scratch)
    }
}

/// Calls `f` for receiver `v`'s senders in the round's order, from
/// position `from`, until it returns `false`; returns that sender and its
/// position (`None` once the senders are exhausted). Positions are sender
/// ids under ascending delivery and indices into the round's shared
/// permutation otherwise; scanning again from the returned position `+ 1`
/// continues behind the sender that ended the scan.
#[inline(always)]
fn scan_senders<L: LinkRows>(
    perm: Option<&[NodeId]>,
    links: &L,
    v: NodeId,
    from: usize,
    mut f: impl FnMut(NodeId) -> bool,
) -> Option<(usize, NodeId)> {
    match perm {
        None => links.scan_in(v, from, f).map(|u| (u.index(), u)),
        // The permutation already holds every sender that can deliver
        // anything, in order; per receiver only the chosen-link
        // membership test remains.
        Some(perm) => perm
            .iter()
            .enumerate()
            .skip(from)
            .find(|&(_, &u)| links.contains(u, v) && !f(u))
            .map(|(k, &u)| (k, u)),
    }
}

/// Feeds receiver `v`'s Present links into `kernel`, in the round's
/// sender order from position `from` on (see [`scan_senders`]), until the
/// receiver goes stale (returns that link, consumed) or a Partial or
/// Byzantine sender is next (returns it, untouched). Silent senders are
/// passed over. The links fed are metered into `fed`, once per call.
/// `keys` is the row the kernel tells `v`'s senders apart by.
///
/// The one loop a round spends its time in, so it is its own function:
/// nothing but the kernel's link step inside it, and code generation that
/// does not depend on what it would be inlined next to.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#[inline(never)]
fn feed_present<L: LinkRows, K: RowKernel>(
    env: &PlaneRound<'_>,
    links: &L,
    v: NodeId,
    keys: PortRow<'_>,
    from: usize,
    kernel: &mut K,
    fed: &mut Traffic,
) -> Option<(usize, NodeId)> {
    // One length for all three per-sender columns, so one range check on
    // the sender id covers them.
    let classes = env.classes;
    let wire = StagedWire {
        phase: &env.wire.phase[..classes.len()],
        value: &env.wire.value[..classes.len()],
        batches: &env.wire.batches[..classes.len()],
    };
    // Metered as one message per link plus the difference, so a kernel
    // whose every batch is one message leaves only the link count in the
    // loop.
    let (mut n_links, mut surplus, mut max_batch) = (0u64, 0i64, 0usize);
    let stop = scan_senders(
        env.perm,
        links,
        v,
        from,
        #[inline(always)]
        |u| {
            let u_idx = u.index();
            match classes[u_idx] {
                SenderClass::Present => {
                    let k = kernel.staged(keys.port(u), u_idx, &wire);
                    n_links += 1;
                    surplus += k as i64 - 1;
                    max_batch = max_batch.max(k);
                    kernel.live()
                }
                class => class == SenderClass::Silent,
            }
        },
    );
    let messages = n_links.wrapping_add_signed(surplus);
    fed.record_deliveries(n_links, messages, max_batch as u64);
    stop
}

/// One honest receiver's round: its senders, in the round's order, fed
/// straight into the receiver's kernel — the body of the one delivery
/// routine ([`deliver_rows`]).
struct ReceiverWalk<'r, L> {
    env: &'r PlaneRound<'r>,
    links: &'r L,
    v: NodeId,
    traffic: &'r mut Traffic,
    byz: ByzSide<'r>,
}

impl<L: LinkRows> RowWalk for ReceiverWalk<'_, L> {
    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    #[inline(always)]
    fn walk<K: RowKernel>(self, kernel: &mut K) {
        let ReceiverWalk {
            env,
            links,
            v,
            traffic,
            mut byz,
        } = self;
        // What the kernel tells `v`'s senders apart by: their ids on a
        // word kernel, `v`'s own ports otherwise.
        let keys = if K::WORDS {
            PortRow::identity(env.classes.len())
        } else {
            env.ports.ports_of(v)
        };
        // The Present links, metered once per receiver. They count as
        // delivered whether or not they are still fed: traffic and the
        // realized graph are what the network delivered, not what the
        // receiver made of it.
        let mut fed = Traffic::new();
        // One conditional link on its own, at its position in the sender
        // order: metered and fed (a fabrication may carry any phase, and
        // the strategy object must see its calls). Present links are fed
        // by the stretches and word steps, never here.
        let mut deliver_link = |u: NodeId, kernel: &mut K| {
            let key = keys.port(u);
            let batch_len = match env.classes[u.index()] {
                SenderClass::Partial if env.crash.delivers(u, env.t, v) => {
                    kernel.staged(key, u.index(), &env.wire)
                }
                SenderClass::Byzantine => {
                    let ctx = ByzContext {
                        round: env.t,
                        self_id: u,
                        params: env.params,
                        phases: env.phases,
                        values: env.values,
                    };
                    let Some(batch) = byz.fabricate(&ctx, v) else {
                        return;
                    };
                    kernel.batch(key, batch);
                    batch.len()
                }
                // Silent senders, a Partial sender's dead links, and the
                // Present link a stretch ended at (it made the receiver
                // stale, and was fed).
                _ => return,
            };
            traffic.record_delivery(batch_len);
        };
        // Where the walk left the row because the receiver went stale (a
        // position in the sender order): the first provably stale link
        // ends it, and of the senders from there on only the round's
        // conditional ones are still visited.
        let mut stale_from = None;
        match env.index {
            // A word kernel takes the Present links 64 senders per step:
            // each chunk of the row as stretches cut in front of every
            // conditional sender in it, which is delivered on its own in
            // between. All of them are metered in one sweep, one message
            // each.
            Some(index) if K::WORDS => {
                let (active, present) = (env.active.words(), env.unconditional.words());
                links.scan_words_in(v, |w, bits| {
                    if !kernel.live() {
                        #[cfg(debug_assertions)]
                        probe::bump(probe::STALE_STOPS);
                        stale_from = Some(w * 64 + bits.trailing_zeros() as usize);
                        return false;
                    }
                    let mut stretch = bits & present[w];
                    let mut conditional = bits & active[w] & !present[w];
                    while conditional != 0 {
                        let b = conditional.trailing_zeros();
                        conditional &= conditional - 1;
                        let before = stretch & ((1 << b) - 1);
                        #[cfg(debug_assertions)]
                        if before != 0 && stretch != before {
                            probe::bump(probe::CUT_WORDS);
                        }
                        kernel.word(w, before, &env.wire, index);
                        stretch ^= before;
                        deliver_link(NodeId::new(w * 64 + b as usize), kernel);
                    }
                    #[cfg(debug_assertions)]
                    if stretch != 0 {
                        probe::bump(probe::WORD_STEPS);
                    }
                    kernel.word(w, stretch, &env.wire, index);
                    true
                });
                let present = links.in_degree_within(v, env.unconditional) as u64;
                fed.record_uniform_deliveries(present, 1);
            }
            // While the receiver is live: stretches of Present links,
            // each ending behind the link that made it stale or in front
            // of a conditional sender. A boxed kernel is always live, so
            // it is fed every link.
            _ => {
                let mut from = 0;
                let stale = loop {
                    if !kernel.live() {
                        break true;
                    }
                    let next = feed_present(env, links, v, keys, from, kernel, &mut fed);
                    let Some((pos, u)) = next else { break false };
                    from = pos + 1;
                    deliver_link(u, kernel);
                };
                // The Present links the row still holds are counted in one
                // sweep (one message each — only single-message kernels go
                // stale).
                if stale {
                    let present = links.in_degree_within(v, env.unconditional) as u64;
                    fed.record_uniform_deliveries(present - fed.deliveries(), 1);
                    #[cfg(debug_assertions)]
                    probe::bump(probe::STALE_STOPS);
                    stale_from = Some(from);
                }
            }
        }
        if let Some(from) = stale_from {
            for &(pos, u) in env.conditional {
                if pos >= from && links.contains(u, v) {
                    deliver_link(u, kernel);
                }
            }
        }
        traffic.merge(&fed);
    }
}

/// The one delivery routine, for receivers `lo..hi` (the whole plane, or
/// one shard's range): each honest receiver, ascending, walks its senders
/// in the round's order and applies them to its kernel
/// ([`ReceiverWalk`]). Generic over the link rows — dense bit rows and
/// run/CSR rows are just row kinds — and, through the shard, over the
/// plane it feeds.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
fn deliver_rows<L: LinkRows>(
    env: &PlaneRound<'_>,
    links: &L,
    (lo, hi): (usize, usize),
    ctx: &mut ShardCtx<'_>,
    byz: &mut ByzSide<'_>,
) {
    for v_idx in lo..hi {
        let v = NodeId::new(v_idx);
        // Byzantine "receivers" have no state; nodes that have crashed no
        // longer process input (a node crashing at t sends its final
        // partial broadcast but does not transition). Both are exactly
        // the complement of the round's `honest` set.
        if !env.honest.contains(v) {
            continue;
        }
        ctx.shard.deliver_row(
            v_idx,
            env.max_wire_phase,
            ReceiverWalk {
                env,
                links,
                v,
                traffic: &mut ctx.traffic,
                byz: ByzSide {
                    slots: byz.slots,
                    scratch: byz.scratch,
                    fabricated: byz.fabricated.as_deref_mut(),
                },
            },
        );
    }
}

/// A read-only [`LinkRows`] view of the links that actually **delivered**
/// in the round the last `step` executed — the realized round graph that
/// the dynaDegree safety condition quantifies over.
///
/// Nothing is materialized: the view re-applies the delivery walk's
/// per-link rule to the run's one link store on the fly. A link `u → v`
/// delivered iff `v` executed the round and `u`'s class says so — every
/// link of a Present sender, a Partial sender's links that survived its
/// crash, a Byzantine sender's links but those its fabrication left empty
/// (the walk marks them as it fabricates) and no Silent sender's. `O(row)` per
/// receiver, a word at a time on words and run rows, whichever form the
/// store holds. Obtain via [`Simulation::realized_rows`].
#[derive(Debug)]
pub struct RealizedRows<'a> {
    links: &'a LinkPlane,
    honest: &'a NodeSet,
    /// The round's sender classes: its non-Silent senders, those of them
    /// whose links all deliver (Present), and the rest of them, Partial
    /// and Byzantine (see [`PlaneRound::conditional`]).
    active: &'a NodeSet,
    unconditional: &'a NodeSet,
    conditional: &'a [(usize, NodeId)],
    crash: &'a CrashSchedule,
    byz: &'a [Option<ByzSlot>],
    /// The executed round (the crash-survivor axis).
    t: Round,
}

impl RealizedRows<'_> {
    /// Whether conditional sender `u`'s chosen link to honest `v`
    /// delivered.
    fn conditional_delivers(&self, u: NodeId, v: NodeId) -> bool {
        match &self.byz[u.index()] {
            Some(slot) => !slot.missed.contains(v),
            None => self.crash.delivers(u, self.t, v),
        }
    }

    /// Whether chosen link `u → v` delivered, `v` honest.
    fn delivers(&self, u: NodeId, v: NodeId) -> bool {
        self.unconditional.contains(u) || self.active.contains(u) && self.conditional_delivers(u, v)
    }

    /// The view as dense rows, for a recorded schedule: the store's rows
    /// (a copy of its words, or its run/CSR rows read out) less what did
    /// not deliver — the rows of receivers that did not execute, the
    /// Silent senders' links (if the round has any), and sender by sender
    /// the dead links of the round's few conditional senders.
    fn to_edge_set(&self) -> EdgeSet {
        let mut rows = match self.links.words() {
            Some(words) => words.clone(),
            None => {
                let mut rows = EdgeSet::empty(self.n());
                rows.union_rows(self.links);
                rows
            }
        };
        let silent = self.active.len() < self.n();
        for (v_idx, row) in rows.in_neighbor_sets_mut().iter_mut().enumerate() {
            if !self.honest.contains(NodeId::new(v_idx)) {
                row.clear();
            } else if silent {
                row.intersect_with(self.active);
            }
        }
        for &(_, u) in self.conditional {
            match &self.byz[u.index()] {
                Some(slot) => slot.missed.for_each(|v| {
                    rows.remove(u, v);
                }),
                None => self.honest.for_each(|v| {
                    if rows.contains(u, v) && !self.crash.delivers(u, self.t, v) {
                        rows.remove(u, v);
                    }
                }),
            }
        }
        rows
    }
}

impl LinkRows for RealizedRows<'_> {
    fn n(&self) -> usize {
        self.links.n()
    }

    fn scan_in(&self, v: NodeId, from: usize, mut f: impl FnMut(NodeId) -> bool) -> Option<NodeId> {
        // Crashed/Byzantine receivers process nothing: their realized
        // rows are empty.
        if !self.honest.contains(v) {
            return None;
        }
        self.links
            .scan_in(v, from, |u| !self.delivers(u, v) || f(u))
    }

    /// The realized row by words, never by links: the store's chunks `∧`
    /// the Present senders, plus the round's conditional senders in the
    /// chunk — a handful at most — asked one by one.
    #[inline]
    fn scan_words_in(&self, v: NodeId, mut f: impl FnMut(usize, u64) -> bool) {
        if !self.honest.contains(v) {
            return;
        }
        let (active, present) = (self.active.words(), self.unconditional.words());
        self.links.scan_words_in(v, |w, bits| {
            let mut delivered = bits & present[w];
            let mut conditional = bits & active[w] & !present[w];
            while conditional != 0 {
                let b = conditional.trailing_zeros() as usize;
                conditional &= conditional - 1;
                let u = NodeId::new(w * 64 + b);
                delivered |= u64::from(self.conditional_delivers(u, v)) << b;
            }
            delivered == 0 || f(w, delivered)
        });
    }

    /// The store's membership test (what a permuted order's walk asks per
    /// sender), then the sender's class.
    fn contains(&self, u: NodeId, v: NodeId) -> bool {
        self.honest.contains(v) && self.links.contains(u, v) && self.delivers(u, v)
    }

    fn in_degree(&self, v: NodeId) -> usize {
        let mut c = 0;
        self.scan_words_in(v, |_, bits| {
            c += bits.count_ones() as usize;
            true
        });
        c
    }
}

/// The order in which one receiver's deliveries are processed within a
/// round. The model leaves this to the adversary; algorithms must be
/// correct under every order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOrder {
    /// Ascending sender index (the default).
    AscendingSenders,
    /// Descending sender index.
    DescendingSenders,
    /// Deterministically shuffled per round from the seed.
    ///
    /// **Determinism contract:** round `t` Fisher–Yates-shuffles the full
    /// sender id list `0..n` with `SplitMix64::new(seed ^ (t << 20))`,
    /// then masks out senders that deliver nothing this round
    /// (order-preserving, so the mask is behaviorally invisible). Every
    /// receiver processes its in-neighbors in that one shared order,
    /// whatever plane holds its state.
    Shuffled(u64),
}

/// A deterministic execution of one algorithm under one adversary and one
/// fault assignment. See the [crate docs](crate) for the round structure.
///
/// Construct via [`Simulation::builder`]; drive with [`Simulation::step`]
/// or [`Simulation::run`].
pub struct Simulation {
    params: Params,
    inputs: Vec<Value>,
    ports: PortNumbering,
    adversary: Box<dyn Adversary>,
    crash: CrashSchedule,
    /// `Some` at Byzantine slots, `None` elsewhere.
    byz: Vec<Option<ByzSlot>>,
    /// Every node's algorithm state: boxed state machines or a columnar
    /// plane (see [`PlaneMode`]). Holds all `n` slots; the engine never
    /// drives Byzantine slots and masks them out of every read.
    plane: Box<dyn AlgorithmPlane>,
    /// Whether `plane` is a columnar one ([`Simulation::uses_plane`]).
    columnar: bool,
    /// Phase each node was last observed in (for V(p) bookkeeping).
    last_phase: Vec<Phase>,
    /// Fault-free for the whole execution: not Byzantine, never crashes.
    fault_free: Vec<NodeId>,
    round: Round,
    max_rounds: u64,
    range_oracle: Option<f64>,
    observer: Observer,
    schedule: Schedule,
    record_schedule: bool,
    observe_phases: bool,
    /// Reusable per-round arena: batches, snapshots, sender sets, scratch
    /// (built [`RoundBuffers::sparse`]: none of its dense edge sets).
    /// Persisted across rounds so steady-state `step`s never allocate.
    buffers: RoundBuffers,
    /// The round's chosen links `E(t)`, the run's one link store: words,
    /// or id-range runs / CSR rows (see [`LinkMode`]).
    links: LinkPlane,
    /// The head of every staged batch as two per-sender columns (see
    /// [`StagedWire`]).
    wire_phase: Vec<Phase>,
    wire_value: Vec<Value>,
    /// The round's wire index (see [`PlaneRound::index`]), sized once for
    /// every phase it can hold — and for the senders' rank order, under a
    /// plane whose word step settles by it.
    wire_index: WireIndex,
    /// The round's conditional senders (see [`PlaneRound::conditional`]).
    conditional: Vec<(usize, NodeId)>,
    /// The ascending receiver bounds of the shards the delivery loop fans
    /// out over (one shard = no fan-out): shard `i` owns
    /// `shard_bounds[i]..shard_bounds[i + 1]`.
    shard_bounds: Vec<usize>,
    traffic: Traffic,
    events: Option<EventLog>,
    /// Which nodes had already decided before the current round (for
    /// Decide events).
    was_decided: Vec<bool>,
    delivery_order: DeliveryOrder,
    done: Option<StopReason>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Simulation({}, adversary={}, round={}, done={:?})",
            self.params,
            self.adversary.name(),
            self.round,
            self.done
        )
    }
}

impl Simulation {
    /// Starts configuring a simulation.
    pub fn builder(params: Params) -> SimBuilder {
        SimBuilder::new(params)
    }

    pub(crate) fn from_builder(b: SimBuilder) -> Simulation {
        let n = b.params.n();
        let factory = b
            .factory
            .expect("SimBuilder::algorithm is required before build/run");
        if !b.allow_fault_overflow {
            assert!(
                b.byzantine.len() <= b.params.f(),
                "{} byzantine nodes exceed the fault bound f = {}",
                b.byzantine.len(),
                b.params.f()
            );
            assert!(
                b.byzantine.len() + b.crash.fault_count() <= b.params.f(),
                "total faults exceed the bound f = {}",
                b.params.f()
            );
        }

        let mut byz: Vec<Option<ByzSlot>> = (0..n).map(|_| None).collect();
        for (id, strategy) in b.byzantine {
            let missed = NodeSet::new(n);
            byz[id.index()] = Some(ByzSlot { strategy, missed });
        }

        // Which plane holds the nodes' state. Every run configuration
        // drives every plane; `Auto` keeps a logged run on the boxed one.
        let columnar = match b.plane_mode {
            PlaneMode::Never => false,
            PlaneMode::Auto => factory.has_plane() && !b.record_events,
            PlaneMode::Always => {
                assert!(
                    factory.has_plane(),
                    "PlaneMode::Always but the algorithm has no columnar plane"
                );
                true
            }
        };
        let mut plane = if columnar {
            factory
                .make_plane(&b.inputs)
                .expect("plane-capable factory builds a plane")
        } else {
            factory.make_boxed_plane(&b.inputs)
        };
        // Asked of a shard, which every wire-format adaptor forwards.
        let ranks_words = {
            let mut whole = [None];
            plane.fill_shards(&[0, n], &mut whole);
            whole[0].as_ref().is_some_and(PlaneShard::ranks_words)
        };
        let mut observer = Observer::default();
        if b.observe_phases {
            // Every non-Byzantine node contributes its input to V(0)
            // (Def. 5; crash-faulty nodes count until they crash).
            for i in (0..n).filter(|&i| byz[i].is_none()) {
                observer.record_enter(NodeId::new(i), Phase::ZERO, plane.values()[i]);
            }
        }
        let fault_free: Vec<NodeId> = NodeId::all(n)
            .filter(|id| byz[id.index()].is_none() && !b.crash.is_faulty(*id))
            .collect();

        // The link store's form, the one thing `LinkMode` decides: every
        // form runs every configuration. A dense-only adversary writes
        // words whatever the hint.
        let words = match b.link_mode {
            LinkMode::Dense => true,
            LinkMode::Auto => n <= PortNumbering::MAX_DENSE_N,
            LinkMode::Sparse => false,
        } || !b.adversary.sparse_capable();
        // Strategy objects are not `Send`: a run with Byzantine nodes
        // delivers as one shard.
        let shards = if byz.iter().all(Option::is_none) {
            b.shards
        } else {
            1
        };
        let shard_bounds: Vec<usize> = (0..=shards).map(|i| n * i / shards).collect();

        // A random numbering's table is built here, at set-up, exactly
        // when a step will read ports: boxed nodes are keyed by them and
        // the event log records them. A columnar, unlogged run never
        // looks one up and never builds it.
        let ports = SimBuilder::resolve_ports(b.ports, n);
        if !columnar || b.record_events {
            ports.materialize();
        }

        let mut sim = Simulation {
            params: b.params,
            inputs: b.inputs,
            ports,
            adversary: b.adversary,
            crash: b.crash,
            byz,
            plane,
            columnar,
            last_phase: vec![Phase::ZERO; n],
            fault_free,
            round: Round::ZERO,
            max_rounds: b.max_rounds,
            range_oracle: b.range_oracle,
            observer,
            schedule: Schedule::new(n),
            record_schedule: b.record_schedule,
            observe_phases: b.observe_phases,
            buffers: RoundBuffers::sparse(n, false),
            links: match words {
                true => LinkPlane::with_words(n),
                false => LinkPlane::new(n),
            },
            wire_phase: vec![Phase::ZERO; n],
            wire_value: vec![Value::HALF; n],
            wire_index: match ranks_words {
                true => WireIndex::ranked(n),
                false => WireIndex::new(n),
            },
            conditional: Vec::with_capacity(n),
            shard_bounds,
            traffic: Traffic::new(),
            events: b.record_events.then(EventLog::new),
            was_decided: vec![false; n],
            delivery_order: b.delivery_order,
            done: None,
        };
        // A node whose output exists before any round (pend = 0) decided
        // at initialization: round 0, before the run's first step.
        if let Some(log) = sim.events.as_mut() {
            for (i, &output) in sim.plane.outputs().iter().enumerate() {
                if let (None, Some(value)) = (&sim.byz[i], output) {
                    sim.was_decided[i] = true;
                    log.push(Event::Decide {
                        round: Round::ZERO,
                        node: NodeId::new(i),
                        value,
                    });
                }
            }
        }
        sim
    }

    /// The current round (the next one to execute).
    pub fn round(&self) -> Round {
        self.round
    }

    /// Whether the run has stopped, and why.
    pub fn stopped(&self) -> Option<StopReason> {
        self.done
    }

    /// The persistent round arena — exposed so tests can assert buffer
    /// reuse (stable capacities, no stale messages) across rounds.
    pub fn buffers(&self) -> &RoundBuffers {
        &self.buffers
    }

    /// The execution's port numbering.
    pub fn ports(&self) -> &PortNumbering {
        &self.ports
    }

    /// Whether a columnar algorithm plane holds this run's state (vs one
    /// boxed state machine per node). See
    /// [`PlaneMode`](crate::builder::PlaneMode).
    pub fn uses_plane(&self) -> bool {
        self.columnar
    }

    /// Whether the link store holds this run's chosen links as id-range
    /// runs / CSR rows (vs dense `O(n²)`-bit words). See [`LinkMode`].
    pub fn uses_sparse_links(&self) -> bool {
        self.links.words().is_none()
    }

    /// Heap bytes currently held by the run/CSR link store (`None` when it
    /// holds words) — what the scaling benchmarks compare against the
    /// words' `n²/8` bytes.
    pub fn link_plane_heap_bytes(&self) -> Option<usize> {
        self.uses_sparse_links().then(|| self.links.heap_bytes())
    }

    /// The realized links of the most recently executed round as
    /// [`LinkRows`] — the link-path-agnostic view consumers like the
    /// service watchdog read dynaDegree from. Valid until the next
    /// [`step`](Simulation::step) (or instance re-seed); empty before any
    /// round has executed. See [`RealizedRows`].
    pub fn realized_rows(&self) -> RealizedRows<'_> {
        self.realized_in(Round::new(self.round.as_u64().saturating_sub(1)))
    }

    /// [`Simulation::realized_rows`] of round `t`, the last one delivered.
    fn realized_in(&self, t: Round) -> RealizedRows<'_> {
        RealizedRows {
            links: &self.links,
            honest: &self.buffers.honest,
            active: &self.buffers.active,
            unconditional: &self.buffers.unconditional,
            conditional: &self.conditional,
            crash: &self.crash,
            byz: &self.byz,
            t,
        }
    }

    /// Receiver-range shards the delivery loop fans out over (1 = no
    /// fan-out).
    pub fn shards(&self) -> usize {
        self.shard_bounds.len() - 1
    }

    /// Phase of a non-Byzantine node (`None` for Byzantine slots).
    pub fn phase_of(&self, node: NodeId) -> Option<Phase> {
        let i = node.index();
        self.byz[i].is_none().then(|| self.plane.phases()[i])
    }

    /// Current value of a non-Byzantine node.
    pub fn value_of(&self, node: NodeId) -> Option<Value> {
        let i = node.index();
        self.byz[i].is_none().then(|| self.plane.values()[i])
    }

    /// Decided output of a non-Byzantine node (`None` for Byzantine slots
    /// and undecided nodes).
    pub fn output_of(&self, node: NodeId) -> Option<Value> {
        let i = node.index();
        self.plane.outputs()[i].filter(|_| self.byz[i].is_none())
    }

    /// The fault-free node ids of the current instance (never crashing in
    /// the active crash schedule, not Byzantine).
    pub(crate) fn fault_free_ids(&self) -> &[NodeId] {
        &self.fault_free
    }

    /// The current input vector (refreshed per instance by
    /// [`Simulation::begin_instance`]).
    pub(crate) fn inputs(&self) -> &[Value] {
        &self.inputs
    }

    /// Mutable access to the active crash schedule — the service layer
    /// writes each instance's churn slice here (via
    /// [`ChurnPlan::slice_into`](adn_faults::ChurnPlan::slice_into))
    /// immediately before [`Simulation::begin_instance`]. Mutating the
    /// schedule mid-instance corrupts the run's fault bookkeeping.
    pub(crate) fn crash_mut(&mut self) -> &mut CrashSchedule {
        &mut self.crash
    }

    /// Rewinds the engine to round 0 for consensus instance `instance` of
    /// a service run, **in place**: once the arena, plane, and observer
    /// buffers reached their steady-state capacities, turnover allocates
    /// nothing (pinned by `tests/alloc_free.rs`).
    ///
    /// The caller installs the instance's crash schedule (via
    /// [`Simulation::crash_mut`]) *before* calling this, so the fault-free
    /// set recomputed here sees the new membership. Algorithm state is
    /// reset against the fresh `inputs` through
    /// [`AlgorithmPlane::reset_instance`];
    /// stateful adversaries and Byzantine strategies reseed through their
    /// `begin_instance` hooks, which is what makes service instance `k`
    /// byte-identical to a standalone run given the same membership,
    /// inputs, and adversary slice.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has the wrong length or the algorithm does not
    /// support in-place instance resets.
    pub(crate) fn begin_instance(&mut self, instance: u64, inputs: &[Value]) {
        let n = self.params.n();
        assert_eq!(inputs.len(), n, "one input per node");
        self.inputs.copy_from_slice(inputs);
        self.round = Round::ZERO;
        self.done = None;
        self.last_phase.fill(Phase::ZERO);
        self.was_decided.fill(false);

        // Fresh algorithm state against the new inputs, in place. Down
        // nodes reset too: their inputs still count toward validity
        // (Def. 3 quantifies over non-Byzantine inputs), exactly as a
        // standalone run constructs state machines for crash-faulty nodes.
        assert!(
            self.plane.reset_instance(inputs),
            "service mode requires an algorithm with in-place instance resets"
        );

        // Fault-free set of this instance, into the existing buffer. The
        // service builds with an empty crash schedule, so the capacity
        // from construction (every non-Byzantine node) is maximal.
        self.fault_free.clear();
        for i in 0..n {
            if self.byz[i].is_none() && !self.crash.is_faulty(NodeId::new(i)) {
                self.fault_free.push(NodeId::new(i));
            }
        }

        // Per-instance reseed of stateful adversaries and strategies
        // (instance 0 is each one's construction stream).
        self.adversary.begin_instance(instance);
        for slot in self.byz.iter_mut().flatten() {
            slot.strategy.begin_instance(instance);
        }

        // Observer restart: this instance's V(0) (Def. 5 — every
        // non-Byzantine input counts, crash-faulty ones until they crash).
        self.observer.clear();
        if self.observe_phases {
            for i in 0..n {
                if self.byz[i].is_none() {
                    self.observer
                        .record_enter(NodeId::new(i), Phase::ZERO, self.inputs[i]);
                }
            }
        }
    }

    /// Executes one synchronous round. No-op once stopped.
    pub fn step(&mut self) {
        if self.done.is_some() {
            return;
        }
        // Check the stop conditions that are already true before doing any
        // work (e.g. pend = 0 decides at initialization).
        if self.check_stop_before() {
            return;
        }

        let n = self.params.n();
        let t = self.round;

        // --- Reset the persistent arena (capacity-preserving clears). ---
        self.buffers.begin_round();

        // --- Snapshot states for the adversary and Byzantine context.
        // Byzantine slots keep the arena defaults (the plane holds their
        // untouched initial state, which must not leak into the
        // adversary's view). ---
        let (phases, values) = (self.plane.phases(), self.plane.values());
        for i in (0..n).filter(|&i| self.byz[i].is_none()) {
            self.buffers.phases[i] = phases[i];
            self.buffers.values[i] = values[i];
        }

        // --- One pass over the senders: who transmits, who still executes,
        // what each stages, and its delivery class — so the delivery walk
        // reads one byte per link instead of re-deriving "Byzantine?
        // crashed? staged a batch?" per (sender, receiver) pair. ---
        for i in 0..n {
            let id = NodeId::new(i);
            let class = match self.byz[i].as_mut() {
                // A strategy first derives what it needs from the whole
                // snapshot (a median, the maximum phase) — once, here, so
                // fabrication stays O(1) per link. It stays an active
                // sender whatever `transmits()` says: it decides link by
                // link via `messages_into`.
                Some(ByzSlot { strategy, missed }) => {
                    missed.clear();
                    strategy.begin_round(&ByzContext {
                        round: t,
                        self_id: id,
                        params: self.params,
                        phases: &self.buffers.phases,
                        values: &self.buffers.values,
                    });
                    if strategy.transmits() {
                        self.buffers.deliverers.insert(id);
                    }
                    SenderClass::Byzantine
                }
                None => {
                    if !self.crash.has_crashed_by(id, t) {
                        self.buffers.honest.insert(id);
                    }
                    if self.crash.is_silent(id, t) {
                        SenderClass::Silent
                    } else {
                        // The broadcast, staged once into the node's
                        // persistent batch: a columnar plane stages the
                        // snapshot captured above, a boxed one asks the
                        // node.
                        self.buffers.deliverers.insert(id);
                        let snapshot = Message::new(self.buffers.values[i], self.buffers.phases[i]);
                        let batch = &mut self.buffers.batches[i];
                        self.plane.stage_broadcast(i, snapshot, batch);
                        self.buffers.present[i] = true;
                        if let Some(log) = self.events.as_mut() {
                            log.push(Event::Broadcast {
                                round: t,
                                node: id,
                                batch_len: batch.len(),
                            });
                        }
                        if self.crash.delivers_to_all(id, t) {
                            self.buffers.unconditional.insert(id);
                            SenderClass::Present
                        } else {
                            SenderClass::Partial
                        }
                    }
                }
            };
            self.buffers.classes[i] = class;
            if class != SenderClass::Silent {
                self.buffers.active.insert(id);
            }
        }

        // --- Adversary picks E(t) into the link store: its words through
        // `edges_into`, its run/CSR rows through `sparse_into`. ---
        let view = AdversaryView {
            round: t,
            params: self.params,
            phases: &self.buffers.phases,
            values: &self.buffers.values,
            deliverers: &self.buffers.deliverers,
            honest: &self.buffers.honest,
        };
        self.links.begin_round(&self.buffers.deliverers);
        match self.links.words_mut() {
            Some(words) => self.adversary.edges_into(&view, words),
            None => self.adversary.sparse_into(&view, &mut self.links),
        }

        // Crash events: nodes whose crash round is exactly t.
        if let Some(log) = self.events.as_mut() {
            for id in NodeId::all(n) {
                let crashed_now = self.crash.has_crashed_by(id, t)
                    && (t == Round::ZERO
                        || !self.crash.has_crashed_by(id, Round::new(t.as_u64() - 1)));
                if crashed_now {
                    log.push(Event::Crash { round: t, node: id });
                }
            }
        }

        // --- The shared sender permutation of the non-ascending orders:
        // one per-round order of the active senders that every receiver
        // walks. ---
        self.build_sender_permutation(t);

        // --- Delivery along chosen links: receiver-major, each receiver
        // processing its senders in the configured order (ascending row
        // walks, or the round's shared permutation — its order is part of
        // the determinism contract, see `DeliveryOrder::Shuffled`), each
        // link fed straight into the receiver's kernel. No batch is ever
        // cloned — honest deliveries borrow the sender's staged batch,
        // Byzantine fabrications reuse one scratch batch. ---
        // A logged round's fabricated batch lengths, in delivery order
        // (see `ByzSide`): allocated only when there are some to keep, and
        // a local because a field would grow `Simulation`, whose size
        // moves the ledger's peak RSS through glibc's heap thresholds.
        let mut fabricated = Vec::new();
        self.deliver(t, &mut fabricated);
        self.log_deliveries(t, &fabricated);
        if self.record_schedule {
            self.schedule.push(self.realized_in(t).to_edge_set());
        }

        // --- End-of-round hooks for executing nodes (exactly the
        // non-crashed non-Byzantine set, i.e. `honest`). ---
        self.plane.end_round(&self.buffers.honest);

        // --- Observer: phase transitions (Def. 6 fills skipped phases). --
        let (phases, values, outputs) = (
            self.plane.phases(),
            self.plane.values(),
            self.plane.outputs(),
        );
        for i in 0..n {
            let id = NodeId::new(i);
            if !self.buffers.honest.contains(id) {
                continue;
            }
            let (new_phase, current_value) = (phases[i], values[i]);
            let old_phase = self.last_phase[i];
            if self.observe_phases {
                let mut p = old_phase;
                while p < new_phase {
                    p = p.next();
                    self.observer.record_enter(id, p, current_value);
                }
            }
            if let Some(log) = self.events.as_mut() {
                if new_phase > old_phase {
                    log.push(Event::PhaseAdvance {
                        round: t,
                        node: id,
                        from: old_phase,
                        to: new_phase,
                        value: current_value,
                    });
                }
                if !self.was_decided[i] {
                    if let Some(out) = outputs[i] {
                        self.was_decided[i] = true;
                        log.push(Event::Decide {
                            round: t,
                            node: id,
                            value: out,
                        });
                    }
                }
            }
            self.last_phase[i] = new_phase;
        }

        // --- Trace over fault-free nodes (reused scratch). ---
        let ff = &self.fault_free;
        self.buffers
            .ff_values
            .extend(ff.iter().map(|id| values[id.index()]));
        let range = ValueInterval::of(self.buffers.ff_values.iter().copied())
            .map_or(0.0, ValueInterval::range);
        let (min_phase, max_phase) = ff
            .iter()
            .map(|id| phases[id.index()])
            .fold((Phase::new(u64::MAX), Phase::ZERO), |(lo, hi), p| {
                (lo.min(p), hi.max(p))
            });
        let decided = self.decided();
        self.observer.record_trace(RoundTrace {
            round: t,
            range,
            min_phase: if ff.is_empty() {
                Phase::ZERO
            } else {
                min_phase
            },
            max_phase,
            decided,
        });

        self.round = t.next();
        self.check_stop_after(range, decided);
    }

    /// How many fault-free nodes have decided.
    fn decided(&self) -> usize {
        let outputs = self.plane.outputs();
        self.fault_free
            .iter()
            .filter(|id| outputs[id.index()].is_some())
            .count()
    }

    /// Fills `buffers.perm` with the round's shared sender permutation —
    /// the one order every receiver processes this round's deliveries in.
    /// A no-op under ascending-sender delivery, whose row walks need no id
    /// list.
    ///
    /// The permutation is built over the *full* id range `0..n` and then
    /// masked down to the senders that can deliver anything this round
    /// (`active`), preserving relative order — so masking is behaviorally
    /// invisible: a silent sender's delivery was always a no-op, and
    /// dropping it from the list cannot reorder anyone else
    /// (`tests/reference_round.rs`'s naive executor walks the full list).
    /// `Shuffled`'s seed derivation is a documented determinism contract
    /// (see [`DeliveryOrder::Shuffled`]).
    fn build_sender_permutation(&mut self, t: Round) {
        let n = self.params.n();
        let RoundBuffers { perm, active, .. } = &mut self.buffers;
        perm.clear();
        match self.delivery_order {
            DeliveryOrder::AscendingSenders => {}
            // Descending masked ids, word by word from the top.
            DeliveryOrder::DescendingSenders => {
                for wi in (0..n.div_ceil(64)).rev() {
                    let mut word = active.word(wi);
                    while word != 0 {
                        let b = 63 - word.leading_zeros() as usize;
                        word ^= 1 << b;
                        perm.push(NodeId::new(wi * 64 + b));
                    }
                }
            }
            DeliveryOrder::Shuffled(seed) => {
                perm.extend(NodeId::all(n));
                let mut rng = SplitMix64::new(seed ^ (t.as_u64() << 20));
                rng.shuffle(perm);
                perm.retain(|&u| active.contains(u));
            }
        }
    }

    /// The round's delivery: heads every staged batch into the wire
    /// columns, splits the plane into the run's shards (one shard = the
    /// whole plane), and runs the one delivery routine ([`deliver_rows`])
    /// over each shard's receivers and the link store's rows, whichever
    /// form they take. Shards > 1 run concurrently on scoped threads
    /// ([`fan_out`]: shard 0 on this thread) and merge back in shard
    /// order: receivers are partitioned, not copied, so the traffic meters
    /// are the only cross-shard state. The walk writes no realized link
    /// ([`RealizedRows`] reads them off afterwards).
    fn deliver(&mut self, t: Round, fabricated: &mut Vec<usize>) {
        let Simulation {
            params,
            buffers,
            crash,
            ports,
            byz,
            plane,
            links,
            wire_phase,
            wire_value,
            wire_index,
            conditional,
            traffic,
            events,
            shard_bounds,
            ..
        } = self;
        let RoundBuffers {
            batches,
            phases,
            values,
            classes,
            active,
            honest,
            unconditional,
            perm,
            byz_scratch,
            ..
        } = buffers;

        let mut max_wire_phase = Phase::ZERO;
        active.for_each(|u| {
            // Byzantine senders staged nothing (and a boxed node may not
            // have either).
            if let Some(head) = batches[u.index()].first() {
                wire_phase[u.index()] = head.phase();
                wire_value[u.index()] = head.value();
                max_wire_phase = max_wire_phase.max(head.phase());
            }
        });
        let perm = (self.delivery_order != DeliveryOrder::AscendingSenders).then_some(&perm[..]);
        let is_conditional = |u: &NodeId| !unconditional.contains(*u);
        conditional.clear();
        match perm {
            None => active.for_each(|u| {
                if is_conditional(&u) {
                    conditional.push((u.index(), u));
                }
            }),
            Some(perm) => conditional.extend(
                perm.iter()
                    .copied()
                    .enumerate()
                    .filter(|(_, u)| is_conditional(u)),
            ),
        }
        let shards = shard_bounds.len() - 1;
        let mut slots: [Option<PlaneShard<'_>>; MAX_PLANE_SHARDS] = Default::default();
        plane.fill_shards(shard_bounds, &mut slots[..shards]);
        // Receivers take the round's Present links a word at a time when
        // their kernels can, the walk feeds them ascending, and the wire
        // holds no more phases than the index.
        let words = perm.is_none() && slots[0].as_ref().is_some_and(PlaneShard::takes_words);
        let indexed = words && wire_index.build(unconditional, wire_phase, wire_value);
        #[cfg(debug_assertions)]
        if words && !indexed {
            probe::bump(probe::UNINDEXED_ROUNDS);
        }
        let (wire_value, wire_index) = (&wire_value[..], &*wire_index);
        if indexed {
            for shard in slots[..shards].iter_mut().flatten() {
                shard.index_round(wire_value, wire_index);
            }
        }
        let env = PlaneRound {
            perm,
            classes,
            conditional,
            honest,
            active,
            unconditional,
            crash,
            ports,
            wire: StagedWire {
                phase: wire_phase,
                value: wire_value,
                batches,
            },
            index: indexed.then_some(wire_index),
            max_wire_phase,
            t,
            params: *params,
            phases,
            values,
        };

        let mut ctxs = slots[..shards].iter_mut().map(|slot| ShardCtx {
            shard: slot.take().expect("fill_shards fills every requested slot"),
            traffic: Traffic::new(),
        });
        // The store's form is asked once per shard, not once per row read:
        // the per-read branch measured ≈ 4 % on a 1024-node complete round.
        let run_shard = |i: usize, ctx: &mut ShardCtx<'_>, byz: &mut ByzSide<'_>| {
            let range = (shard_bounds[i], shard_bounds[i + 1]);
            match links.words() {
                Some(words) => deliver_rows(&env, words, range, ctx, byz),
                None => deliver_rows(&env, &*links, range, ctx, byz),
            }
        };
        let mut merge = |ctx: ShardCtx<'_>| traffic.merge(&ctx.traffic);
        if shards == 1 {
            // The inline path: nothing spawned, nothing allocated.
            let mut ctx = ctxs.next().expect("a run has at least one shard");
            let byz = &mut ByzSide {
                slots: byz,
                scratch: byz_scratch,
                fabricated: events.is_some().then_some(fabricated),
            };
            run_shard(0, &mut ctx, byz);
            merge(ctx);
        } else {
            let walk = |i: usize, ctx: &mut ShardCtx<'_>| {
                let byz = &mut ByzSide {
                    slots: &mut [],
                    scratch: &mut Batch::new(),
                    fabricated: None,
                };
                run_shard(i, ctx, byz);
            };
            fan_out(ctxs, walk).into_iter().for_each(merge);
        }
    }

    /// A logged run's `Event::Delivery`s of round `t`, read off the
    /// realized rows once the round has delivered: each honest receiver,
    /// ascending, its realized senders in the round's order — the order
    /// the walk delivered them in. Realized rows hold exactly the links
    /// that delivered something, so the log does not ask the walk to visit
    /// links on their own. A fabricated batch is the one thing the rows do
    /// not keep: its length comes from `fabricated`, the walk's FIFO.
    fn log_deliveries(&mut self, t: Round, fabricated: &[usize]) {
        let Some(mut log) = self.events.take() else {
            return;
        };
        let realized = self.realized_in(t);
        let RoundBuffers {
            batches,
            classes,
            honest,
            perm,
            ..
        } = &self.buffers;
        let perm = (self.delivery_order != DeliveryOrder::AscendingSenders).then_some(&perm[..]);
        let mut fabricated = fabricated.iter().copied();
        honest.for_each(|v| {
            scan_senders(perm, &realized, v, 0, |u| {
                let batch_len = match classes[u.index()] {
                    SenderClass::Byzantine => fabricated.next().expect("a fabricated delivery"),
                    _ => batches[u.index()].len(),
                };
                log.push(Event::Delivery {
                    round: t,
                    sender: u,
                    receiver: v,
                    port: self.ports.port_of(v, u),
                    batch_len,
                });
                true
            });
        });
        debug_assert!(fabricated.next().is_none(), "a fabrication left unlogged");
        self.events = Some(log);
    }

    fn check_stop_before(&mut self) -> bool {
        if self.round.as_u64() >= self.max_rounds {
            self.done = Some(StopReason::MaxRounds);
            return true;
        }
        if self.decided() == self.fault_free.len() {
            self.done = Some(StopReason::AllOutput);
            return true;
        }
        false
    }

    fn check_stop_after(&mut self, range: f64, decided: usize) {
        if decided == self.fault_free.len() {
            self.done = Some(StopReason::AllOutput);
        } else if self.range_oracle.is_some_and(|eps| range <= eps) {
            self.done = Some(StopReason::RangeConverged);
        } else if self.round.as_u64() >= self.max_rounds {
            self.done = Some(StopReason::MaxRounds);
        }
    }

    /// Runs rounds until a stop condition fires, then consumes the
    /// simulation into its [`Outcome`].
    pub fn run(mut self) -> Outcome {
        while self.done.is_none() {
            self.step();
        }
        self.finish()
    }

    /// Consumes the simulation into its [`Outcome`] (callable mid-flight
    /// when stepping manually; the reason defaults to `MaxRounds` if no
    /// stop condition fired yet).
    pub fn finish(self) -> Outcome {
        let n = self.params.n();
        let outputs: Vec<Option<Value>> = NodeId::all(n).map(|id| self.output_of(id)).collect();
        let final_values: Vec<Value> = (0..n)
            .map(|i| {
                // Byzantine slots report the neutral default.
                self.value_of(NodeId::new(i)).unwrap_or(Value::HALF)
            })
            .collect();
        let non_byzantine: Vec<NodeId> = NodeId::all(n)
            .filter(|id| self.byz[id.index()].is_none())
            .collect();
        let (phases, traces) = self.observer.into_parts();
        Outcome {
            params: self.params,
            inputs: self.inputs,
            honest: self.fault_free,
            non_byzantine,
            rounds: self.round.as_u64(),
            reason: self.done.unwrap_or(StopReason::MaxRounds),
            outputs,
            final_values,
            phases,
            traces,
            schedule: self.schedule,
            traffic: self.traffic,
            events: self.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factories;
    use adn_adversary::AdversarySpec;
    use adn_faults::strategies::{Extreme, TwoFaced};
    use adn_faults::CrashSurvivors;
    use adn_graph::checker;
    use adn_types::Params;

    fn params(n: usize, f: usize, eps: f64) -> Params {
        Params::new(n, f, eps).unwrap()
    }

    #[test]
    fn dac_converges_on_complete_graph() {
        let p = params(5, 0, 1e-3);
        let outcome = Simulation::builder(p).algorithm(factories::dac(p)).run();
        assert_eq!(outcome.reason(), StopReason::AllOutput);
        assert!(outcome.eps_agreement(1e-3));
        assert!(outcome.validity());
        // Complete graph: one phase per round, pend = 10.
        assert_eq!(outcome.rounds(), 10);
    }

    #[test]
    fn dac_under_rotating_threshold_adversary() {
        let p = params(9, 0, 1e-3);
        let outcome = Simulation::builder(p)
            .adversary(AdversarySpec::DacThreshold.build(9, 0, 1))
            .algorithm(factories::dac(p))
            .run();
        assert_eq!(outcome.reason(), StopReason::AllOutput);
        assert!(outcome.eps_agreement(1e-3));
        assert!(outcome.validity());
        assert!(outcome.phase_containment_ok());
    }

    #[test]
    fn dac_measured_rate_respects_remark1() {
        let p = params(7, 0, 1e-4);
        let outcome = Simulation::builder(p)
            .adversary(AdversarySpec::Rotating { d: 4 }.build(7, 0, 3))
            .algorithm(factories::dac(p))
            .run();
        let worst = outcome.worst_rate().expect("phases recorded");
        assert!(worst <= 0.5 + 1e-9, "worst rate {worst} exceeds 1/2");
    }

    #[test]
    fn dac_survives_crashes_within_bound() {
        // n = 5, f = 2: crash two nodes mid-run.
        let p = params(5, 2, 1e-3);
        let mut crash = CrashSchedule::new(5);
        crash.crash(NodeId::new(3), Round::new(2), CrashSurvivors::All);
        crash.crash(
            NodeId::new(4),
            Round::new(4),
            CrashSurvivors::Subset(vec![NodeId::new(0)]),
        );
        let outcome = Simulation::builder(p)
            .crashes(crash)
            .algorithm(factories::dac(p))
            .run();
        assert_eq!(outcome.reason(), StopReason::AllOutput);
        assert!(outcome.eps_agreement(1e-3));
        assert!(outcome.validity());
        assert_eq!(outcome.honest_ids().len(), 3);
    }

    #[test]
    fn dac_blocks_under_partition() {
        let p = params(8, 0, 1e-2);
        let outcome = Simulation::builder(p)
            .adversary(AdversarySpec::PartitionHalves.build(8, 0, 1))
            .algorithm(factories::dac(p))
            .max_rounds(300)
            .run();
        assert_eq!(outcome.reason(), StopReason::MaxRounds);
        assert!(!outcome.all_honest_output());
    }

    #[test]
    fn dbac_tolerates_extreme_byzantine() {
        let p = params(6, 1, 1e-2);
        let outcome = Simulation::builder(p)
            .byzantine(NodeId::new(5), Box::new(Extreme { value: Value::ONE }))
            .algorithm(factories::dbac(p))
            .run();
        assert_eq!(outcome.reason(), StopReason::AllOutput);
        assert!(outcome.eps_agreement(1e-2));
        assert!(
            outcome.validity(),
            "byzantine pull must not escape the hull"
        );
    }

    #[test]
    fn dbac_tolerates_two_faced_with_sufficient_degree() {
        let p = params(11, 2, 1e-2);
        let outcome = Simulation::builder(p)
            .byzantine(NodeId::new(4), Box::new(TwoFaced::zero_one(5)))
            .byzantine(NodeId::new(6), Box::new(TwoFaced::zero_one(5)))
            .adversary(AdversarySpec::DbacThreshold.build(11, 2, 2))
            .algorithm(factories::dbac_with_pend(p, 80))
            .run();
        assert_eq!(outcome.reason(), StopReason::AllOutput);
        assert!(outcome.eps_agreement(1e-2));
        assert!(outcome.validity());
    }

    #[test]
    fn realized_schedule_feeds_checker() {
        let p = params(6, 0, 1e-2);
        let outcome = Simulation::builder(p)
            .adversary(AdversarySpec::Rotating { d: 3 }.build(6, 0, 5))
            .algorithm(factories::dac(p))
            .run();
        let sched = outcome.schedule();
        assert_eq!(sched.len() as u64, outcome.rounds());
        assert_eq!(checker::max_dyna_degree(sched, 1, &[]), Some(3));
    }

    #[test]
    fn oracle_stop_fires_before_pend() {
        let p = params(5, 0, 1e-6);
        let outcome = Simulation::builder(p)
            .algorithm(factories::dac(p))
            .stop_when_range_below(0.25)
            .run();
        assert_eq!(outcome.reason(), StopReason::RangeConverged);
        assert!(outcome.rounds() < 10);
        assert!(outcome.final_range() <= 0.25);
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let p = params(8, 0, 1e-3);
        let run = || {
            Simulation::builder(p)
                .inputs_random(11)
                .adversary(AdversarySpec::Random { p: 0.7 }.build(8, 0, 9))
                .algorithm(factories::dac(p))
                .max_rounds(5_000)
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.rounds(), b.rounds());
        assert_eq!(a.honest_outputs(), b.honest_outputs());
        assert_eq!(a.traffic(), b.traffic());
        assert_eq!(a.schedule(), b.schedule());
    }

    #[test]
    fn traffic_counts_complete_graph_rounds() {
        let p = params(4, 0, 0.5); // pend = 1: single phase
        let outcome = Simulation::builder(p).algorithm(factories::dac(p)).run();
        // 1 round, complete graph: 4*3 deliveries of single messages.
        assert_eq!(outcome.rounds(), 1);
        assert_eq!(outcome.traffic().deliveries(), 12);
        assert_eq!(outcome.traffic().messages(), 12);
    }

    #[test]
    fn pend_zero_stops_immediately() {
        let p = params(4, 0, 1.0);
        let outcome = Simulation::builder(p).algorithm(factories::dac(p)).run();
        assert_eq!(outcome.rounds(), 0);
        assert_eq!(outcome.reason(), StopReason::AllOutput);
        assert!(outcome.validity());
    }

    #[test]
    #[should_panic(expected = "algorithm is required")]
    fn missing_algorithm_panics() {
        let p = params(4, 0, 0.5);
        let _ = Simulation::builder(p).build();
    }

    #[test]
    #[should_panic(expected = "exceed the fault bound")]
    fn too_many_byzantine_panics() {
        let p = params(4, 0, 0.5);
        let _ = Simulation::builder(p)
            .byzantine(NodeId::new(0), Box::new(Extreme { value: Value::ONE }))
            .algorithm(factories::dbac(p))
            .build();
    }

    /// The directed case the stop must not break: on the complete graph
    /// every receiver reaches quorum on its first ⌊n/2⌋ honest links and
    /// advances past every honest snapshot, so the rest of its honest
    /// links go unfed — and then the Byzantine sender, last in the sender
    /// order, delivers a fabricated phase far above all of them. That
    /// link must still be delivered and still cause the jump.
    #[test]
    fn fabrication_behind_the_stale_point_still_jumps() {
        use crate::builder::PlaneMode;
        use adn_types::Batch;

        #[derive(Debug)]
        struct Ahead;
        impl ByzantineStrategy for Ahead {
            fn messages_into(&mut self, _: &ByzContext<'_>, _: NodeId, out: &mut Batch) {
                out.push(Message::new(Value::ONE, Phase::new(7)));
            }
            fn begin_instance(&mut self, _: u64) {}
            fn name(&self) -> &'static str {
                "ahead"
            }
        }

        let n = 9;
        let p = params(n, 1, 1e-3);
        let step_once = |mode| {
            let mut sim = Simulation::builder(p)
                .byzantine(NodeId::new(n - 1), Box::new(Ahead))
                .algorithm(factories::dac_with_pend(p, 20))
                .algorithm_plane(mode)
                .build();
            sim.step();
            sim
        };
        let plane = step_once(PlaneMode::Always);
        let reference = step_once(PlaneMode::Never);
        for v in NodeId::all(n - 1) {
            assert_eq!(plane.phase_of(v), Some(Phase::new(7)), "{v} must jump");
            assert_eq!(plane.value_of(v), Some(Value::ONE), "{v}");
            assert_eq!(plane.value_of(v), reference.value_of(v), "{v}");
        }
        // All 8 × 8 links into the honest receivers count as delivered,
        // the unfed ones included, and realized.
        assert_eq!(plane.traffic.deliveries(), 64);
        assert_eq!(plane.traffic, reference.traffic);
        let realized = |sim: &Simulation| {
            let mut rows = EdgeSet::empty(n);
            rows.union_rows(&sim.realized_rows());
            rows
        };
        assert_eq!(realized(&plane).edge_count(), 64);
        assert_eq!(realized(&plane), realized(&reference));
    }

    #[test]
    fn link_mode_auto_stays_dense_below_the_port_cap() {
        use crate::builder::LinkMode;
        let p = params(8, 0, 1e-2);
        let sim = Simulation::builder(p).algorithm(factories::dac(p)).build();
        assert!(!sim.uses_sparse_links(), "Auto stays dense at n = 8");
        assert!(sim.link_plane_heap_bytes().is_none());
        assert_eq!(sim.shards(), 1);
        for mode in [LinkMode::Sparse, LinkMode::Dense] {
            let sim = Simulation::builder(p)
                .algorithm(factories::dac(p))
                .link_mode(mode)
                .shards(2)
                .build();
            assert_eq!(sim.uses_sparse_links(), mode == LinkMode::Sparse);
            assert_eq!(
                sim.link_plane_heap_bytes().is_some(),
                sim.uses_sparse_links()
            );
            assert_eq!(sim.shards(), 2, "{mode:?} shards");
        }
    }

    /// The auto mode picks the plane exactly when the configuration is
    /// plane-compatible — which, with the order-general permutation walk and
    /// the quantized plane adaptor, now means: plane-capable factory, events
    /// off.
    #[test]
    fn auto_mode_selects_plane_only_when_compatible() {
        use crate::quantized::quantized_factory;
        use adn_net::codec::Precision;

        let params = Params::fault_free(6, 1e-2).unwrap();
        let plane_auto = Simulation::builder(params)
            .algorithm(factories::dac(params))
            .build();
        assert!(plane_auto.uses_plane(), "dac + defaults must use the plane");

        let events_on = Simulation::builder(params)
            .algorithm(factories::dac(params))
            .record_events(true)
            .build();
        assert!(!events_on.uses_plane(), "Auto keeps a logged run boxed");
        let events_on_columnar = Simulation::builder(params)
            .algorithm(factories::dac(params))
            .record_events(true)
            .algorithm_plane(PlaneMode::Always)
            .build();
        assert!(
            events_on_columnar.uses_plane(),
            "Always + events is a legal combination"
        );

        for order in [
            DeliveryOrder::DescendingSenders,
            DeliveryOrder::Shuffled(42),
        ] {
            let sim = Simulation::builder(params)
                .algorithm(factories::dac(params))
                .delivery_order(order)
                .build();
            assert!(
                sim.uses_plane(),
                "{order:?} drives the plane through the shared permutation"
            );
        }

        let quantized = Simulation::builder(params)
            .algorithm(quantized_factory(factories::dac(params), Precision::new(8)))
            .build();
        assert!(
            quantized.uses_plane(),
            "quantized dac inherits the plane via the wire-encoding adaptor"
        );

        let no_plane_alg = Simulation::builder(params)
            .algorithm(factories::reliable_ac(params))
            .build();
        assert!(!no_plane_alg.uses_plane(), "baselines have no plane");
        let quantized_no_plane = Simulation::builder(params)
            .algorithm(quantized_factory(
                factories::reliable_ac(params),
                Precision::new(8),
            ))
            .build();
        assert!(
            !quantized_no_plane.uses_plane(),
            "wrapping cannot conjure a plane the inner algorithm lacks"
        );
    }

    #[test]
    fn step_api_advances_one_round() {
        let p = params(5, 0, 1e-3);
        let mut sim = Simulation::builder(p).algorithm(factories::dac(p)).build();
        assert_eq!(sim.round(), Round::ZERO);
        sim.step();
        assert_eq!(sim.round(), Round::new(1));
        assert_eq!(sim.phase_of(NodeId::new(0)), Some(Phase::new(1)));
        let outcome = sim.finish();
        assert_eq!(outcome.rounds(), 1);
    }
}
