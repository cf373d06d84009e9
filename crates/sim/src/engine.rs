use adn_adversary::{Adversary, AdversaryView};
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
    /// Whether the kernels are keyed by sender id (the columnar planes)
    /// rather than by the receiver's real ports (boxed nodes) — see
    /// [`RowKernel`]. Real ports are then read for the event log alone.
    sender_keyed: bool,
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
    /// Whether a receiver's Present links are fed in stretches that end at
    /// the first provably stale link ([`RowKernel::live`]). Off, every
    /// link is visited on its own and fed whatever the kernel says — what
    /// a run with an event log needs (a link counted in bulk has no
    /// event), and what the early-exit regression test compares against.
    stale_stop: bool,
}

/// One shard's exclusive round state: its plane slice, its realized rows
/// (when the run materializes them), its traffic meter and — on a logged
/// run — its stretch of the event log (both merged back in shard order:
/// the deterministic input-ordered merge).
struct ShardCtx<'a> {
    shard: PlaneShard<'a>,
    rows: Option<&'a mut [NodeSet]>,
    traffic: Traffic,
    log: Option<EventLog>,
}

/// The round's Byzantine senders as the delivery walk sees them: the
/// strategy slots and the one fabrication scratch. Sharded runs exclude
/// Byzantine nodes (strategy objects are not `Send`), so their shards
/// walk with an empty one.
struct ByzSide<'a> {
    strategies: &'a mut [Option<Box<dyn ByzantineStrategy>>],
    scratch: &'a mut Batch,
}

/// Test-only observation of the word walk: the switch that turns it off
/// (`word_walk_is_behavior_invisible` compares both sides) and counters of
/// what it did, all local to the stepping thread — the test's own.
#[cfg(test)]
mod probe {
    use std::cell::Cell;

    /// Non-empty stretches fed through `RowKernel::word`.
    pub const WORD_STEPS: usize = 0;
    /// Conditional senders that cut a chunk between two Present ones.
    pub const CUT_WORDS: usize = 1;
    /// Rounds whose wire held more phases than the index does.
    pub const UNINDEXED_ROUNDS: usize = 2;

    thread_local! {
        pub static WORD_WALK_OFF: Cell<bool> = const { Cell::new(false) };
        pub static COUNTS: Cell<[u64; 3]> = const { Cell::new([0; 3]) };
    }

    pub fn bump(counter: usize, when: bool) {
        let mut counts = COUNTS.get();
        counts[counter] += u64::from(when);
        COUNTS.set(counts);
    }
}

/// Fabricates Byzantine sender `ctx.self_id`'s batch for destination `v`
/// into `out`; returns whether anything was fabricated. The single
/// fabrication site — its call order per strategy object (that object's
/// receivers, ascending) is the same whatever plane is being fed, which
/// is what keeps stateful strategies equivalent across them.
// audit: no-alloc
fn fabricate(
    strategies: &mut [Option<Box<dyn ByzantineStrategy>>],
    ctx: &ByzContext<'_>,
    v: NodeId,
    out: &mut Batch,
) -> bool {
    out.clear();
    let slot = &mut strategies[ctx.self_id.index()];
    // audit: allow(no-panic) — the classes table marked the sender Byzantine, so its strategy slot is populated by construction
    let strategy = slot.as_mut().expect("classified Byzantine");
    strategy.messages_into(ctx, v, out);
    !out.is_empty()
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
// audit: no-alloc
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
    /// `v`'s realized row, when the run materializes realized links.
    row: Option<&'r mut NodeSet>,
    traffic: &'r mut Traffic,
    /// The event log, when the run keeps one.
    log: Option<&'r mut EventLog>,
    byz: ByzSide<'r>,
}

impl<L: LinkRows> RowWalk for ReceiverWalk<'_, L> {
    // audit: no-alloc
    #[inline(always)]
    fn walk<K: RowKernel>(self, kernel: &mut K) {
        let ReceiverWalk {
            env,
            links,
            v,
            mut row,
            traffic,
            mut log,
            byz,
        } = self;
        // What the kernel tells `v`'s senders apart by: their ids on a
        // sender-keyed kernel, `v`'s own ports otherwise.
        let keys = if env.sender_keyed {
            PortRow::identity(env.classes.len())
        } else {
            env.ports.ports_of(v)
        };
        // A Present sender's chosen links all deliver, so its realized
        // links are recorded in bulk; only the conditional classes record
        // theirs per delivery below.
        if let Some(row) = row.as_deref_mut() {
            links.union_in_masked(v, env.unconditional, row);
        }
        // The Present links, metered once per receiver. They count as
        // delivered whether or not they are still fed: traffic and the
        // realized graph are what the network delivered, not what the
        // receiver made of it.
        let mut fed = Traffic::new();
        // One link on its own, at its position in the sender order:
        // metered, logged and fed. Partial and Byzantine senders' links
        // always go this way (a fabrication may carry any phase, and the
        // strategy object must see its calls), Present senders' when the
        // walk runs without stretches.
        let mut deliver_link = |u: NodeId, kernel: &mut K| {
            let key = keys.port(u);
            let class = env.classes[u.index()];
            let batch_len = match class {
                SenderClass::Present => kernel.staged(key, u.index(), &env.wire),
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
                    if !fabricate(byz.strategies, &ctx, v, byz.scratch) {
                        return;
                    }
                    kernel.batch(key, byz.scratch);
                    byz.scratch.len()
                }
                // Silent senders and a Partial sender's dead links.
                SenderClass::Partial | SenderClass::Silent => return,
            };
            if class != SenderClass::Present {
                if let Some(row) = row.as_deref_mut() {
                    row.insert(u);
                }
            }
            traffic.record_delivery(batch_len);
            if let Some(log) = log.as_deref_mut() {
                log.push(Event::Delivery {
                    round: env.t,
                    sender: u,
                    receiver: v,
                    // The log speaks of the network, whatever the kernel
                    // is keyed by.
                    port: match env.sender_keyed {
                        true => env.ports.port_of(v, u),
                        false => key,
                    },
                    batch_len,
                });
            }
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
                        stale_from = Some(w * 64 + bits.trailing_zeros() as usize);
                        return false;
                    }
                    let mut stretch = bits & present[w];
                    let mut conditional = bits & active[w] & !present[w];
                    while conditional != 0 {
                        let b = conditional.trailing_zeros();
                        conditional &= conditional - 1;
                        let before = stretch & ((1 << b) - 1);
                        #[cfg(test)]
                        probe::bump(probe::CUT_WORDS, before != 0 && stretch != before);
                        kernel.word(w, before, &env.wire, index);
                        stretch ^= before;
                        deliver_link(NodeId::new(w * 64 + b as usize), kernel);
                    }
                    #[cfg(test)]
                    probe::bump(probe::WORD_STEPS, stretch != 0);
                    kernel.word(w, stretch, &env.wire, index);
                    true
                });
                let present = links.in_degree_within(v, env.unconditional) as u64;
                fed.record_uniform_deliveries(present, 1);
            }
            // While the receiver is live: stretches of Present links,
            // each ending behind the link that made it stale or in front
            // of a conditional sender. Without the stale stop every
            // stretch is empty: the scan stops in front of each sender
            // that delivers.
            _ => {
                let mut from = 0;
                let stale = loop {
                    let next = if env.stale_stop {
                        if !kernel.live() {
                            break true;
                        }
                        feed_present(env, links, v, keys, from, kernel, &mut fed)
                    } else {
                        scan_senders(env.perm, links, v, from, |u| {
                            env.classes[u.index()] == SenderClass::Silent
                        })
                    };
                    let Some((pos, u)) = next else { break false };
                    from = pos + 1;
                    // A stretch that ends at a Present link has fed it: it
                    // is the link that made the receiver stale.
                    if !(env.stale_stop && env.classes[u.index()] == SenderClass::Present) {
                        deliver_link(u, kernel);
                    }
                };
                // The Present links the row still holds are counted in one
                // sweep (one message each — only single-message kernels go
                // stale).
                if stale {
                    let present = links.in_degree_within(v, env.unconditional) as u64;
                    fed.record_uniform_deliveries(present - fed.deliveries(), 1);
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
// audit: no-alloc
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
                row: ctx.rows.as_deref_mut().map(|rows| &mut rows[v_idx - lo]),
                traffic: &mut ctx.traffic,
                log: ctx.log.as_mut(),
                byz: ByzSide {
                    strategies: byz.strategies,
                    scratch: byz.scratch,
                },
            },
        );
    }
}

/// Carves the first `at` elements off `*s` — hands each shard an
/// exclusive prefix of the realized rows and leaves the tail for the
/// rest.
fn take_split<'a, T>(s: &mut &'a mut [T], at: usize) -> &'a mut [T] {
    let (head, rest) = std::mem::take(s).split_at_mut(at);
    *s = rest;
    head
}

/// A read-only [`LinkRows`] view of the links that actually **delivered**
/// in the round the last `step` executed — the realized round graph that
/// the dynaDegree safety condition quantifies over.
///
/// On the dense path this borrows the materialized realized rows the
/// delivery loop filled. On the sparse path no realized set exists unless
/// schedule recording asked for one, so the view re-applies the delivery
/// loop's per-link rule (sender class, partial-crash survivor draw) to
/// the link plane's chosen rows on the fly — `O(row)` per receiver,
/// nothing dense ever materialized. Obtain via
/// [`Simulation::realized_rows`].
#[derive(Debug)]
pub struct RealizedRows<'a>(RealizedInner<'a>);

#[derive(Debug)]
enum RealizedInner<'a> {
    /// Dense path: the round's materialized realized rows.
    Dense(&'a EdgeSet),
    /// Sparse path: the round's chosen rows plus everything needed to
    /// replay the delivery filter (the [`ReceiverWalk`]'s per-class rule,
    /// minus the kernel).
    Sparse {
        links: &'a LinkPlane,
        honest: &'a NodeSet,
        /// The round's non-Silent senders, and those of them whose links
        /// all deliver (Present). Sparse runs exclude Byzantine nodes,
        /// so whatever is active and not Present is Partial.
        active: &'a NodeSet,
        unconditional: &'a NodeSet,
        crash: &'a CrashSchedule,
        /// The executed round (the filter's crash-survivor axis).
        t: Round,
    },
}

impl LinkRows for RealizedRows<'_> {
    fn n(&self) -> usize {
        match &self.0 {
            RealizedInner::Dense(realized) => realized.n(),
            RealizedInner::Sparse { links, .. } => links.n(),
        }
    }

    fn scan_in(&self, v: NodeId, from: usize, mut f: impl FnMut(NodeId) -> bool) -> Option<NodeId> {
        match &self.0 {
            RealizedInner::Dense(realized) => realized.scan_in(v, from, f),
            RealizedInner::Sparse {
                links,
                honest,
                active,
                unconditional,
                crash,
                t,
            } => {
                // Crashed/Byzantine receivers process nothing: their
                // realized rows are empty, exactly as the dense delivery
                // loop leaves them.
                if !honest.contains(v) {
                    return None;
                }
                links.scan_in(v, from, |u| {
                    let delivered = unconditional.contains(u)
                        || (active.contains(u) && crash.delivers(u, *t, v));
                    !delivered || f(u)
                })
            }
        }
    }

    /// The realized row by words, never by links: dense rows hand out
    /// their words; sparse rows the link plane's chunks `∧` the Present
    /// senders, plus the round's Partial senders in the chunk — a handful
    /// at most — asked one by one whether their link to `v` survived.
    #[inline]
    fn scan_words_in(&self, v: NodeId, mut f: impl FnMut(usize, u64) -> bool) {
        match &self.0 {
            RealizedInner::Dense(realized) => realized.scan_words_in(v, f),
            RealizedInner::Sparse {
                links,
                honest,
                active,
                unconditional,
                crash,
                t,
            } => {
                if !honest.contains(v) {
                    return;
                }
                let (active, present) = (active.words(), unconditional.words());
                links.scan_words_in(v, |w, bits| {
                    let mut delivered = bits & present[w];
                    let mut partial = bits & active[w] & !present[w];
                    while partial != 0 {
                        let b = partial.trailing_zeros() as usize;
                        partial &= partial - 1;
                        if crash.delivers(NodeId::new(w * 64 + b), *t, v) {
                            delivered |= 1 << b;
                        }
                    }
                    delivered == 0 || f(w, delivered)
                });
            }
        }
    }

    fn in_degree(&self, v: NodeId) -> usize {
        match &self.0 {
            // Word-parallel popcount instead of the per-bit default.
            RealizedInner::Dense(realized) => realized.in_degree(v),
            RealizedInner::Sparse { .. } => {
                let mut c = 0;
                self.scan_words_in(v, |_, bits| {
                    c += bits.count_ones() as usize;
                    true
                });
                c
            }
        }
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
    /// `Some(strategy)` at Byzantine slots, `None` elsewhere.
    byz: Vec<Option<Box<dyn ByzantineStrategy>>>,
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
    /// Reusable per-round arena: batches, snapshots, link sets, scratch.
    /// Persisted across rounds so steady-state `step`s never allocate.
    buffers: RoundBuffers,
    /// `Some` on the sparse path: the round's chosen links as id-range
    /// runs / CSR rows instead of dense bit rows (see
    /// [`LinkMode`](crate::LinkMode)).
    links: Option<LinkPlane>,
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
    /// Whether the shared sender permutation drops senders that deliver
    /// nothing this round (always on in production; the masking
    /// regression test flips it off to prove the mask is behaviorally
    /// invisible).
    mask_silent: bool,
    /// See [`PlaneRound::stale_stop`]: on, unless the run keeps an event
    /// log.
    stale_stop: bool,
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

        let mut byz: Vec<Option<Box<dyn ByzantineStrategy>>> = (0..n).map(|_| None).collect();
        for (id, strategy) in b.byzantine {
            byz[id.index()] = Some(strategy);
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

        // Sparse link representation: requires ascending-sender delivery
        // (run/CSR rows have no O(1) membership test for the permutation
        // walk), a sparse-capable adversary, and no Byzantine nodes
        // (strategy objects are not shareable across shards, and the
        // on-the-fly realized view cannot replay a fabrication). Any plane
        // runs on it.
        let sparse_ok = b.delivery_order == DeliveryOrder::AscendingSenders
            && b.adversary.sparse_capable()
            && byz.iter().all(Option::is_none);
        let use_sparse = match b.link_mode {
            LinkMode::Dense => false,
            LinkMode::Auto => sparse_ok && n > PortNumbering::MAX_DENSE_N,
            LinkMode::Sparse => {
                assert!(
                    sparse_ok,
                    "LinkMode::Sparse requires a sparse-compatible run: \
                     ascending-sender delivery, a sparse-capable adversary, and no \
                     Byzantine nodes"
                );
                true
            }
        };
        // Only sparse runs shard; a dense run delivers as one shard.
        let shards = if use_sparse { b.shards } else { 1 };
        let shard_bounds: Vec<usize> = (0..=shards).map(|i| n * i / shards).collect();

        // A random numbering's table is built here, at set-up, exactly
        // when a step will read ports: boxed nodes are keyed by them and
        // the event log records them. A columnar, unlogged run never
        // looks one up and never builds it.
        let ports = SimBuilder::resolve_ports(b.ports, n);
        if !columnar || b.record_events {
            ports.materialize();
        }

        Simulation {
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
            buffers: if use_sparse {
                RoundBuffers::sparse(n, b.record_schedule)
            } else {
                RoundBuffers::new(n)
            },
            links: use_sparse.then(|| LinkPlane::new(n)),
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
            mask_silent: b.mask_silent,
            stale_stop: b.stale_stop && !b.record_events,
            done: None,
        }
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

    /// Whether the sparse link plane carries this run's chosen links
    /// (vs dense `O(n²)`-bit edge rows). See [`LinkMode`](crate::LinkMode).
    pub fn uses_sparse_links(&self) -> bool {
        self.links.is_some()
    }

    /// Heap bytes currently held by the sparse link plane (`None` on the
    /// dense path) — what the scaling benchmarks compare against the
    /// dense path's three `n²/8`-byte bitmaps.
    pub fn link_plane_heap_bytes(&self) -> Option<usize> {
        self.links.as_ref().map(LinkPlane::heap_bytes)
    }

    /// The realized links of the most recently executed round as
    /// [`LinkRows`] — the link-path-agnostic view consumers like the
    /// service watchdog read dynaDegree from. Valid until the next
    /// [`step`](Simulation::step) (or instance re-seed); empty before any
    /// round has executed. See [`RealizedRows`].
    pub fn realized_rows(&self) -> RealizedRows<'_> {
        match self.links.as_ref() {
            Some(links) => RealizedRows(RealizedInner::Sparse {
                links,
                honest: &self.buffers.honest,
                active: &self.buffers.active,
                unconditional: &self.buffers.unconditional,
                crash: &self.crash,
                t: Round::new(self.round.as_u64().saturating_sub(1)),
            }),
            None => RealizedRows(RealizedInner::Dense(&self.buffers.realized)),
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
        for strategy in self.byz.iter_mut().flatten() {
            strategy.begin_instance(instance);
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
                Some(strategy) => {
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

        // --- Adversary picks E(t): into the reused dense edge set, or —
        // on the sparse path — into the link plane's run/CSR rows. ---
        let view = AdversaryView {
            round: t,
            params: self.params,
            phases: &self.buffers.phases,
            values: &self.buffers.values,
            deliverers: &self.buffers.deliverers,
            honest: &self.buffers.honest,
        };
        match self.links.as_mut() {
            Some(lp) => {
                lp.begin_round(&self.buffers.deliverers);
                self.adversary.sparse_into(&view, lp);
            }
            None => self.adversary.edges_into(&view, &mut self.buffers.chosen),
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
        self.deliver(t);
        if self.record_schedule {
            self.schedule.push(self.buffers.realized.clone());
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
    /// dropping it from the list cannot reorder anyone else.
    /// `Shuffled`'s seed derivation is a documented determinism contract
    /// (see [`DeliveryOrder::Shuffled`]).
    fn build_sender_permutation(&mut self, t: Round) {
        if self.delivery_order == DeliveryOrder::AscendingSenders {
            return;
        }
        let n = self.params.n();
        let RoundBuffers { perm, active, .. } = &mut self.buffers;
        perm.clear();
        match self.delivery_order {
            DeliveryOrder::AscendingSenders => unreachable!(),
            DeliveryOrder::DescendingSenders => {
                if self.mask_silent {
                    // Descending masked ids, word by word from the top.
                    for wi in (0..n.div_ceil(64)).rev() {
                        let mut word = active.word(wi);
                        while word != 0 {
                            let b = 63 - word.leading_zeros() as usize;
                            word ^= 1 << b;
                            perm.push(NodeId::new(wi * 64 + b));
                        }
                    }
                } else {
                    perm.extend((0..n).rev().map(NodeId::new));
                }
            }
            DeliveryOrder::Shuffled(seed) => {
                perm.extend(NodeId::all(n));
                let mut rng = SplitMix64::new(seed ^ (t.as_u64() << 20));
                rng.shuffle(perm);
                if self.mask_silent {
                    perm.retain(|&u| active.contains(u));
                }
            }
        }
    }

    /// The round's delivery: heads every staged batch into the wire
    /// columns, splits the plane into the run's shards (one shard = the
    /// whole plane), and runs the one delivery routine ([`deliver_rows`])
    /// over each shard's receivers — over the dense chosen rows, or the
    /// sparse link plane's run/CSR rows when the run holds one. Shards > 1
    /// run concurrently on scoped threads ([`fan_out`]: shard 0 on this
    /// thread) and merge back in shard order: receivers and realized rows
    /// are partitioned, not copied, so the traffic meters and event-log
    /// stretches are the only cross-shard state.
    fn deliver(&mut self, t: Round) {
        let record = self.record_schedule;
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
        let links = links.as_ref();
        let RoundBuffers {
            batches,
            phases,
            values,
            classes,
            active,
            honest,
            unconditional,
            perm,
            chosen,
            realized,
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
            // Under an unmasked permutation (a test-only mode) this also
            // lists Silent senders, which deliver nothing either way.
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
        // their kernels can, the walk feeds them ascending in stretches,
        // and the wire holds no more phases than the index.
        let words = self.stale_stop
            && perm.is_none()
            && slots[0].as_ref().is_some_and(PlaneShard::takes_words);
        #[cfg(test)]
        let words = words && !probe::WORD_WALK_OFF.get();
        let indexed = words && wire_index.build(unconditional, wire_phase, wire_value);
        #[cfg(test)]
        probe::bump(probe::UNINDEXED_ROUNDS, words && !indexed);
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
            sender_keyed: self.columnar,
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
            stale_stop: self.stale_stop,
        };

        // The dense path always materializes realized rows (they are its
        // `realized_rows` view); the sparse path only when recording.
        let mut rows_rest: Option<&mut [NodeSet]> =
            (links.is_none() || record).then(|| realized.in_neighbor_sets_mut());
        // Shard 0 appends to the run's own log; the others fill a stretch
        // each, appended behind it below.
        let mut log = events.take();
        let logging = log.is_some();
        let mut ctxs = slots[..shards].iter_mut().enumerate().map(|(i, slot)| {
            let span = shard_bounds[i + 1] - shard_bounds[i];
            ShardCtx {
                shard: slot.take().expect("fill_shards fills every requested slot"),
                rows: rows_rest.as_mut().map(|rest| take_split(rest, span)),
                traffic: Traffic::new(),
                log: log.take().or_else(|| logging.then(EventLog::new)),
            }
        });
        let run_shard = |i: usize, ctx: &mut ShardCtx<'_>, byz: &mut ByzSide<'_>| {
            let range = (shard_bounds[i], shard_bounds[i + 1]);
            match links {
                Some(lp) => deliver_rows(&env, lp, range, ctx, byz),
                None => deliver_rows(&env, &*chosen, range, ctx, byz),
            }
        };
        let mut merge = |ctx: ShardCtx<'_>| {
            traffic.merge(&ctx.traffic);
            match (events.as_mut(), ctx.log) {
                (Some(log), Some(stretch)) => log.append(stretch),
                (None, stretch) => *events = stretch,
                (Some(_), None) => {}
            }
        };
        if shards == 1 {
            // The inline path: nothing spawned, nothing allocated.
            let mut ctx = ctxs.next().expect("a run has at least one shard");
            let byz = &mut ByzSide {
                strategies: byz,
                scratch: byz_scratch,
            };
            run_shard(0, &mut ctx, byz);
            merge(ctx);
        } else {
            let walk = |i: usize, ctx: &mut ShardCtx<'_>| {
                let byz = &mut ByzSide {
                    strategies: &mut [],
                    scratch: &mut Batch::new(),
                };
                run_shard(i, ctx, byz);
            };
            fan_out(ctxs, walk).into_iter().for_each(merge);
        }
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
    use adn_core::AlgorithmFactory;
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

    /// Satellite regression: pre-masking silent senders out of the shared
    /// permutation must be behaviorally invisible. Unmasked, the walk
    /// visits every chosen sender and passes over the Silent-class ones;
    /// with the mask they are never walked at all. A
    /// full-mesh adversary that ignores the deliverer discipline forces
    /// crashed (Silent-class) senders into `chosen`, so the mask actually
    /// removes entries here.
    #[test]
    fn silent_mask_in_permutation_is_behavior_invisible() {
        use crate::builder::PlaneMode;
        use adn_adversary::AdversaryView;
        use adn_graph::EdgeSet;

        #[derive(Debug)]
        struct FullMesh;
        impl adn_adversary::Adversary for FullMesh {
            fn edges_into(&mut self, view: &AdversaryView<'_>, out: &mut EdgeSet) {
                // Deliberately undisciplined: chooses links from *every*
                // node, including crashed-silent ones.
                let n = view.params.n();
                for u in NodeId::all(n) {
                    for v in NodeId::all(n) {
                        if u != v {
                            out.insert(u, v);
                        }
                    }
                }
            }
            fn name(&self) -> &'static str {
                "full-mesh"
            }
        }

        let n = 9;
        let p = params(n, 3, 1e-3);
        let build = |order, mode, mask, events| {
            let mut crash = CrashSchedule::new(n);
            crash.crash(NodeId::new(7), Round::new(2), CrashSurvivors::None);
            crash.crash(
                NodeId::new(6),
                Round::new(4),
                CrashSurvivors::Subset(vec![NodeId::new(0), NodeId::new(3)]),
            );
            let mut b = Simulation::builder(p)
                .inputs_random(21)
                .adversary(Box::new(FullMesh))
                .crashes(crash)
                .byzantine(NodeId::new(8), Box::new(TwoFaced::zero_one(4)))
                .delivery_order(order)
                .algorithm(factories::dac_with_pend(p, 8))
                .algorithm_plane(mode)
                .record_events(events)
                .max_rounds(200);
            b.mask_silent = mask;
            b.run()
        };
        for order in [DeliveryOrder::DescendingSenders, DeliveryOrder::Shuffled(5)] {
            let reference = build(order, PlaneMode::Never, true, false);
            assert!(
                reference.rounds() > 4,
                "{order:?}: crashes must land mid-run"
            );
            for (mode, mask) in [
                (PlaneMode::Never, false),
                (PlaneMode::Always, true),
                (PlaneMode::Always, false),
            ] {
                let other = build(order, mode, mask, false);
                assert_eq!(reference.rounds(), other.rounds(), "{order:?} {mode:?}");
                assert_eq!(
                    reference.honest_outputs(),
                    other.honest_outputs(),
                    "{order:?} {mode:?} mask={mask}"
                );
                assert_eq!(
                    reference.traffic(),
                    other.traffic(),
                    "{order:?} {mode:?} mask={mask}"
                );
                assert_eq!(
                    reference.schedule(),
                    other.schedule(),
                    "{order:?} {mode:?} mask={mask}"
                );
                assert_eq!(
                    reference.traces(),
                    other.traces(),
                    "{order:?} {mode:?} mask={mask}"
                );
            }
            // `Auto` keeps a logged run on boxed nodes; masked and unmasked
            // logs must agree event for event (silent senders never
            // logged one).
            let masked = build(order, PlaneMode::Auto, true, true);
            let unmasked = build(order, PlaneMode::Auto, false, true);
            assert_eq!(
                masked.events().expect("recorded").events(),
                unmasked.events().expect("recorded").events(),
                "{order:?}: event logs must not see the mask"
            );
        }
    }

    /// The stale-link stop must be behaviorally invisible: a run that
    /// stops feeding a receiver the round's honest links once it has
    /// decided or outrun them, and a run that feeds every link, agree on
    /// everything an `Outcome` holds — outputs, rounds, traffic (skipped
    /// links were still delivered), the recorded schedule, the traces.
    /// Crash (silent, partial-subset, partial-random) and Byzantine mixes,
    /// all three delivery orders, dense and sparse links.
    #[test]
    fn stale_link_stop_is_behavior_invisible() {
        use crate::builder::LinkMode;
        use adn_faults::strategies::{by_name, ALL_STRATEGY_NAMES};

        let seeds = std::env::var("ADN_FUZZ_SEEDS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(240u64);
        for seed in 0..seeds {
            let build = |stale_stop: bool| {
                let mut rng = SplitMix64::new(seed);
                let n = 8 + rng.next_index(40);
                let f = 1 + rng.next_index(n / 6);
                let p = params(n, f, 1e-3);
                // Sparse runs deliver ascending and carry no Byzantine
                // nodes; dense runs rotate through the three orders.
                let (sparse, order) = match seed % 4 {
                    0 => (true, DeliveryOrder::AscendingSenders),
                    1 => (false, DeliveryOrder::AscendingSenders),
                    2 => (false, DeliveryOrder::DescendingSenders),
                    _ => (false, DeliveryOrder::Shuffled(seed)),
                };
                let byzantine = if sparse { 0 } else { rng.next_index(f + 1) };
                let mut crash = CrashSchedule::new(n);
                for k in 0..f - byzantine {
                    let survivors = match rng.next_index(4) {
                        0 => CrashSurvivors::All,
                        1 => CrashSurvivors::None,
                        2 => CrashSurvivors::Subset(
                            rng.sample_indices(n, n / 2)
                                .into_iter()
                                .map(NodeId::new)
                                .collect(),
                        ),
                        _ => CrashSurvivors::Random {
                            keep_probability: 0.5,
                            seed: rng.next_u64(),
                        },
                    };
                    crash.crash(NodeId::new(k), Round::new(rng.next_below(6)), survivors);
                }
                let adversary = match rng.next_index(4) {
                    0 => AdversarySpec::Rotating { d: n / 2 + 1 },
                    1 => AdversarySpec::Random { p: 0.7 },
                    2 => AdversarySpec::Spread { t: 2, d: n / 2 },
                    _ => AdversarySpec::Staggered {
                        d: n / 2 + 1,
                        groups: 3,
                    },
                };
                let pend = 3 + rng.next_below(6);
                let mut b = Simulation::builder(p)
                    .inputs_random(seed)
                    .crashes(crash)
                    .adversary(adversary.build(n, f, seed))
                    .algorithm(if rng.next_bool(0.5) {
                        factories::dac_with_pend(p, pend)
                    } else {
                        factories::dbac_with_pend(p, pend)
                    })
                    .algorithm_plane(PlaneMode::Always)
                    .delivery_order(order)
                    .link_mode(if sparse {
                        LinkMode::Sparse
                    } else {
                        LinkMode::Dense
                    })
                    .max_rounds(60);
                for k in 0..byzantine {
                    let name = ALL_STRATEGY_NAMES[rng.next_index(ALL_STRATEGY_NAMES.len())];
                    b = b.byzantine(NodeId::new(n - 1 - k), by_name(name, n, seed + k as u64));
                }
                b.stale_stop = stale_stop;
                b.run()
            };
            let (stopping, feeding) = (build(true), build(false));
            assert_eq!(stopping.rounds(), feeding.rounds(), "seed {seed}");
            assert_eq!(stopping.reason(), feeding.reason(), "seed {seed}");
            assert_eq!(
                stopping.honest_outputs(),
                feeding.honest_outputs(),
                "seed {seed}"
            );
            assert_eq!(stopping.traffic(), feeding.traffic(), "seed {seed}");
            assert_eq!(stopping.schedule(), feeding.schedule(), "seed {seed}");
            assert_eq!(stopping.traces(), feeding.traces(), "seed {seed}");
        }
    }

    /// The word walk must be behaviorally invisible: a DAC or DBAC run
    /// (by turns) whose receivers take the round's Present links 64
    /// senders per kernel step through the wire index, and the same run fed
    /// link by link, agree on everything an `Outcome` holds. Crash (silent,
    /// partial-subset, partial-random) and Byzantine senders at random ids
    /// — so they cut words in the middle — over up to three words of
    /// senders; dense and sparse links; the complete graph (full words), a
    /// rotating window below the quorum and a degree spread over two or
    /// three rounds (T > 1: seen rows stay dirty and Alg. 2's lists live
    /// across rounds, and thin rows settle sender by sender), staggered
    /// receiver groups (every word mixes two phases) and random links
    /// (partial words); one DBAC run whose Byzantine ids straddle a word
    /// boundary; and one run whose wire outgrows the index and comes back.
    #[test]
    fn word_walk_is_behavior_invisible() {
        use crate::builder::LinkMode;
        use adn_adversary::AdversaryView;
        use adn_faults::strategies::{by_name, ALL_STRATEGY_NAMES};
        use adn_graph::EdgeSet;

        fn run_both(build: impl Fn() -> SimBuilder) -> (Outcome, Outcome) {
            probe::WORD_WALK_OFF.set(true);
            let link_by_link = build().run();
            probe::WORD_WALK_OFF.set(false);
            (build().run(), link_by_link)
        }

        fn assert_same((words, links): &(Outcome, Outcome), what: &str) {
            assert_eq!(words.rounds(), links.rounds(), "{what}");
            assert_eq!(words.reason(), links.reason(), "{what}");
            assert_eq!(words.honest_outputs(), links.honest_outputs(), "{what}");
            assert_eq!(words.traffic(), links.traffic(), "{what}");
            assert_eq!(words.schedule(), links.schedule(), "{what}");
            assert_eq!(words.traces(), links.traces(), "{what}");
        }

        let counted = |counter: usize| probe::COUNTS.get()[counter];
        let seeds = std::env::var("ADN_FUZZ_SEEDS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(240u64);
        for seed in 0..seeds {
            let build = || {
                let mut rng = SplitMix64::new(seed);
                let n = 20 + rng.next_index(150);
                let f = 1 + rng.next_index(n / 6);
                let p = params(n, f, 1e-3);
                // Sparse runs carry no Byzantine nodes.
                let (sparse, dbac) = (seed % 2 == 0, seed / 2 % 2 == 0);
                let byzantine = if sparse { 0 } else { rng.next_index(f + 1) };
                let faulty = rng.sample_indices(n, f);
                let mut crash = CrashSchedule::new(n);
                for &k in &faulty[byzantine..] {
                    let survivors = match rng.next_index(4) {
                        0 => CrashSurvivors::All,
                        1 => CrashSurvivors::None,
                        2 => CrashSurvivors::Subset(
                            rng.sample_indices(n, n / 2)
                                .into_iter()
                                .map(NodeId::new)
                                .collect(),
                        ),
                        _ => CrashSurvivors::Random {
                            keep_probability: 0.5,
                            seed: rng.next_u64(),
                        },
                    };
                    crash.crash(NodeId::new(k), Round::new(rng.next_below(8)), survivors);
                }
                // The degree the algorithm needs, over `t` rounds.
                let d = if dbac { (n + 3 * f) / 2 } else { n / 2 };
                let adversary = match rng.next_index(6) {
                    0 => AdversarySpec::Complete,
                    1 => AdversarySpec::Rotating { d: n / 4 },
                    2 => AdversarySpec::Staggered {
                        d: n / 2 + 1,
                        groups: 3,
                    },
                    3 => AdversarySpec::Random { p: 0.7 },
                    t => AdversarySpec::Spread { t: t - 2, d },
                };
                let pend = 3 + rng.next_below(6);
                let mut b = Simulation::builder(p)
                    .inputs_random(seed)
                    .crashes(crash)
                    .adversary(adversary.build(n, f, seed))
                    .algorithm(match dbac {
                        true => factories::dbac_with_pend(p, pend),
                        false => factories::dac_with_pend(p, pend),
                    })
                    .algorithm_plane(PlaneMode::Always)
                    .link_mode(if sparse {
                        LinkMode::Sparse
                    } else {
                        LinkMode::Dense
                    })
                    // (Only sparse runs shard: one pending row each.)
                    .shards(1 + (seed / 4 % 3) as usize)
                    .max_rounds(80);
                for (k, &id) in faulty[..byzantine].iter().enumerate() {
                    let name = ALL_STRATEGY_NAMES[rng.next_index(ALL_STRATEGY_NAMES.len())];
                    b = b.byzantine(NodeId::new(id), by_name(name, n, seed + k as u64));
                }
                b
            };
            assert_same(&run_both(build), &format!("seed {seed}"));
        }
        if seeds >= 100 {
            assert!(counted(probe::WORD_STEPS) > 0, "no run took a word step");
            assert!(
                counted(probe::CUT_WORDS) > 0,
                "no conditional sender landed inside a word"
            );
        }

        // Alg. 2 at its threshold degree, the eight stock strategies on
        // ids either side of the first word boundary: a receiver's row is
        // cut there, inside and between two words that hold pending links.
        let cuts = counted(probe::CUT_WORDS);
        let p = params(140, 8, 1e-3);
        let straddling = run_both(|| {
            let mut b = Simulation::builder(p)
                .inputs_random(5)
                .adversary(AdversarySpec::DbacThreshold.build(140, 8, 5))
                .algorithm(factories::dbac_with_pend(p, 6))
                .algorithm_plane(PlaneMode::Always);
            for (k, id) in [58, 60, 62, 63, 64, 65, 67, 69].into_iter().enumerate() {
                let strategy = by_name(ALL_STRATEGY_NAMES[k], 140, k as u64);
                b = b.byzantine(NodeId::new(id), strategy);
            }
            b
        });
        assert_same(&straddling, "byzantine ids around 64");
        assert_eq!(straddling.0.reason(), StopReason::AllOutput);
        assert!(counted(probe::CUT_WORDS) > cuts, "no word was cut");
        // Both ways to settle Alg. 2's pending links were taken — counted
        // by adn-core on the delivering thread (the runs above that shard
        // are sparse, and a sparse run of one shard delivers inline), and
        // only in a debug build of it: a release run of this test compares
        // the outcomes and says that it did not check the paths.
        match adn_core::probe::counts() {
            Some(settles) if seeds >= 100 => {
                use adn_core::probe::{RANK_SETTLES, SENDER_SETTLES};
                assert!(settles[RANK_SETTLES] > 0, "no settle by rank");
                assert!(settles[SENDER_SETTLES] > 0, "no settle sender by sender");
            }
            Some(_) => {}
            None => eprintln!("word_walk: adn-core built without its probe counters (release); settle paths not asserted"),
        }

        /// Complete, except that receiver `v < 10` hears nothing in rounds
        /// `v + 1 .. 14`: ten stragglers, each left behind in its own
        /// phase while the rest advance, then all of them released.
        #[derive(Debug)]
        struct Stragglers;
        impl adn_adversary::Adversary for Stragglers {
            fn edges_into(&mut self, view: &AdversaryView<'_>, out: &mut EdgeSet) {
                let t = view.round.as_u64() as usize;
                for v in NodeId::all(view.params.n()) {
                    if !(v.index() < 10 && (v.index() + 1..14).contains(&t)) {
                        let row = &mut out.in_neighbor_sets_mut()[v.index()];
                        row.copy_from(view.deliverers);
                        row.remove(v);
                    }
                }
            }
            fn name(&self) -> &'static str {
                "stragglers"
            }
        }
        let unindexed = counted(probe::UNINDEXED_ROUNDS);
        let steps = counted(probe::WORD_STEPS);
        let p = params(70, 0, 1e-6);
        let outgrown = run_both(|| {
            Simulation::builder(p)
                .inputs_random(3)
                .adversary(Box::new(Stragglers))
                .algorithm(factories::dac(p))
                .algorithm_plane(PlaneMode::Always)
        });
        assert_same(&outgrown, "stragglers");
        assert_eq!(outgrown.0.reason(), StopReason::AllOutput);
        assert!(
            counted(probe::UNINDEXED_ROUNDS) > unindexed,
            "the wire never outgrew the index"
        );
        assert!(
            counted(probe::WORD_STEPS) > steps,
            "no indexed round around them"
        );
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
        // the unfed ones included.
        assert_eq!(plane.traffic.deliveries(), 64);
        assert_eq!(plane.traffic, reference.traffic);
        assert_eq!(plane.buffers.realized, reference.buffers.realized);
    }

    #[test]
    fn sparse_links_and_shards_are_byte_identical_to_dense() {
        use crate::builder::LinkMode;
        use crate::quantized::quantized_factory;
        use adn_net::codec::Precision;
        let n = 33;
        let p = params(n, 1, 1e-3);
        let quantized = || quantized_factory(factories::dac(p), Precision::new(9));
        // The columnar plane; the quantized adaptor over it (it forwards
        // the split, so its sharded cells run on real shards); the same two
        // on boxed nodes; and piggyback, which has no columnar plane at
        // all. Every plane runs on sparse links, and shards there.
        let cells: [(&str, &dyn Fn() -> AlgorithmFactory, PlaneMode); 5] = [
            ("dac", &|| factories::dac(p), PlaneMode::Always),
            ("quantized", &quantized, PlaneMode::Always),
            ("dac boxed", &|| factories::dac(p), PlaneMode::Never),
            ("quantized boxed", &quantized, PlaneMode::Never),
            (
                "piggyback",
                &|| factories::dbac_piggyback(p, 2, 12),
                PlaneMode::Auto,
            ),
        ];
        for (name, factory, plane) in cells {
            let mk = |mode: LinkMode, shards: usize| {
                let mut crash = CrashSchedule::new(n);
                crash.crash(
                    NodeId::new(7),
                    Round::new(2),
                    CrashSurvivors::Subset(vec![NodeId::new(0), NodeId::new(20)]),
                );
                let sim = Simulation::builder(p)
                    .inputs_random(99)
                    .adversary(AdversarySpec::Rotating { d: 20 }.build(n, 1, 5))
                    .crashes(crash)
                    .algorithm(factory())
                    .algorithm_plane(plane)
                    .link_mode(mode)
                    .shards(shards)
                    .build();
                assert_eq!(sim.uses_plane(), plane == PlaneMode::Always, "{name}");
                assert_eq!(sim.uses_sparse_links(), mode == LinkMode::Sparse, "{name}");
                sim.run()
            };
            let dense = mk(LinkMode::Dense, 1);
            assert!(dense.rounds() > 4, "crash must land mid-run");
            for shards in [1, 3] {
                let sparse = mk(LinkMode::Sparse, shards);
                let cell = format!("{name} shards={shards}");
                assert_eq!(dense.rounds(), sparse.rounds(), "{cell}");
                assert_eq!(dense.honest_outputs(), sparse.honest_outputs(), "{cell}");
                assert_eq!(dense.traffic(), sparse.traffic(), "{cell}");
                assert_eq!(dense.schedule(), sparse.schedule(), "{cell}");
                assert_eq!(dense.traces(), sparse.traces(), "{cell}");
            }
        }
    }

    /// A logged run shards too: every shard writes its own stretch of the
    /// log, appended in shard order — the same log as one shard's.
    #[test]
    fn sharded_event_log_is_the_single_shard_log() {
        use crate::builder::LinkMode;
        let n = 19;
        let p = params(n, 2, 1e-2);
        let run = |plane, shards| {
            let mut crash = CrashSchedule::new(n);
            crash.crash(
                NodeId::new(3),
                Round::new(1),
                CrashSurvivors::Subset(vec![NodeId::new(0), NodeId::new(11)]),
            );
            Simulation::builder(p)
                .inputs_random(5)
                .adversary(AdversarySpec::Rotating { d: 12 }.build(n, 2, 5))
                .crashes(crash)
                .algorithm(factories::dac(p))
                .algorithm_plane(plane)
                .link_mode(LinkMode::Sparse)
                .shards(shards)
                .record_events(true)
                .run()
        };
        let reference = run(PlaneMode::Never, 1);
        let log = reference.events().expect("recorded").events();
        assert!(log.iter().any(|e| matches!(e, Event::Delivery { .. })));
        for (plane, shards) in [
            (PlaneMode::Never, 4),
            (PlaneMode::Always, 1),
            (PlaneMode::Always, 4),
        ] {
            let other = run(plane, shards);
            assert_eq!(reference.traffic(), other.traffic(), "{plane:?} {shards}");
            assert!(
                log == other.events().expect("recorded").events(),
                "{plane:?} on {shards} shards logs differently"
            );
        }
    }

    #[test]
    fn link_mode_auto_stays_dense_below_the_port_cap() {
        use crate::builder::LinkMode;
        let p = params(8, 0, 1e-2);
        let sim = Simulation::builder(p).algorithm(factories::dac(p)).build();
        assert!(!sim.uses_sparse_links(), "Auto stays dense at n = 8");
        assert_eq!(sim.shards(), 1);
        let sim = Simulation::builder(p)
            .algorithm(factories::dac(p))
            .link_mode(LinkMode::Sparse)
            .shards(2)
            .build();
        assert!(sim.uses_sparse_links());
        assert_eq!(sim.shards(), 2);
        assert!(sim.link_plane_heap_bytes().is_some());
    }

    #[test]
    #[should_panic(expected = "sparse-compatible")]
    fn sparse_mode_rejects_non_ascending_delivery() {
        use crate::builder::LinkMode;
        let p = params(8, 0, 1e-2);
        let _ = Simulation::builder(p)
            .algorithm(factories::dac(p))
            .delivery_order(DeliveryOrder::DescendingSenders)
            .link_mode(LinkMode::Sparse)
            .build();
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
