//! The delivery walk: one routine that feeds every honest receiver's
//! in-links of a round into its kernel.
//!
//! [`deliver_rows`] runs each honest receiver of a receiver range,
//! ascending, through [`ReceiverWalk`]: the receiver's senders in the
//! round's order — its link row ascending (bit words, id-range runs or CSR
//! ids, whichever form the run's one link store holds, read through
//! `LinkRows`), or the round's shared sender permutation with a
//! membership test per sender — each applied to the receiver's kernel
//! ([`RowKernel`], chosen by the plane once per receiver). Nothing is
//! staged in between and no batch is cloned: an honest link borrows the
//! sender's staged batch, a Byzantine one its batch in the round's
//! fabrication arena ([`Fabricated`]). The walk writes no realized link
//! and records nothing — no traffic, no event: the round's recording
//! stage reads all of it off the realized round afterwards
//! ([`RealizedRows`](super::RealizedRows)).
//!
//! **Delivery orders.** Receivers take their links in the configured
//! [`DeliveryOrder`]. Under the default ascending order each receiver
//! walks its own row; the other orders walk one shared per-round sender
//! permutation, asking the link store whether each sender's link to the
//! receiver was chosen:
//!
//! | delivery order | shared permutation |
//! |---|---|
//! | `AscendingSenders` (default) | none: each receiver's row, ascending |
//! | `DescendingSenders` | the active sender ids, descending |
//! | `Shuffled(seed)` | round `t` Fisher–Yates-shuffles `0..n` with `SplitMix64::new(seed ^ (t << 20))`, then drops the inactive senders, order preserved |
//!
//! The shuffle's seed derivation is a determinism contract. Dropping the
//! senders that deliver nothing this round cannot be observed: their
//! deliveries were always no-ops, and dropping them reorders no one else
//! (`tests/reference_round.rs`'s naive executor walks the full list).
//!
//! **Classes, not questions.** The walk reads one [`SenderClass`] byte per
//! sender, staged by the round's class pass: Present (every link
//! delivers the staged batch), Partial (a crashing sender: its surviving
//! links deliver), Byzantine (fabricated per link, on the stepping thread
//! before the walk) and Silent (nothing). Present links are fed in
//! stretches ([`feed_present`]) or, on a word kernel, 64 senders per
//! step; the round's few Partial and fabricating senders — its
//! *conditional* senders — are delivered one by one at their position in
//! the order.
//!
//! **Run pieces.** On a run row, a kernel that declares
//! [`RowKernel::RUNS`] (the columnar DAC plane's) is handed its Present
//! links a run piece at a time instead ([`walk_runs`]): each merged run
//! of the row, cut at the receiver's own id and at every conditional
//! sender, which is delivered on its own in between, each piece answered
//! from the round's run sums in `O(log n)`; after the row's last piece and
//! link, `RowKernel::end_runs` lets the kernel write the seen bits it held
//! back. A piece's cost does not depend on its length, so a DAC round on
//! run rows costs `O(runs · log n)` per receiver where the word walk cost
//! `O(n / 64)`. The word walk stays for DBAC (its counting step keeps
//! word-wise pending rows), boxed kernels, dense rows, the permuted
//! orders, rounds with more than `MAX_WIRE_PHASES` phases and rounds
//! where a Present sender is no deliverer.
//!
//! **The stale-link stop.** A columnar receiver that has decided, or has
//! passed the round's maximum wire phase, ignores every further honest
//! link of the round by Alg. 1/2's own stale rule (`RowKernel::live`), so
//! the walk stops feeding its Present links there and still delivers its
//! conditional senders behind that point: a fabrication may carry any
//! phase. The links it stops feeding still delivered: the realized round,
//! and so the round's traffic, counts them whether or not they were fed.
//!
//! **Shards.** `SimBuilder::shards(k)` splits the receivers into `k`
//! contiguous ranges. The plane hands out disjoint per-shard windows of
//! its columns (`AlgorithmPlane::fill_shards`; one shard is the whole
//! plane), and each shard runs this same routine over its range with its
//! own receivers' part of the fabrication arena ([`ShardCtx`]). Byzantine
//! strategies are not `Send`, so they never reach a shard: their links are
//! fabricated into the arena first. The fan-out is `std::thread::scope`
//! (`pool.rs::fan_out`): shard 0 on the stepping thread, each other shard
//! on a scoped thread that is moved its context and hands it back at the
//! join. Receivers never interact within a round and the shards share
//! nothing they write, so a `k`-shard run is byte-identical to the
//! one-shard run. One shard spawns nothing and allocates nothing; `k`
//! shards cost a constant few allocations a round for their spawns
//! (`tests/alloc_free.rs` pins both).
//! Two shards pay from n ≈ 16k up on two cores (E19's `steady speedup`);
//! the first round of a run goes the other way, as the shards' first
//! touches of the n² seen-row bits contend.

// The walk's test counters are compiled out of a release build here, not
// only emptied in adn-core: a branch around the empty call still moved the
// walk's register allocation.
#[cfg(debug_assertions)]
use adn_core::probe;
use adn_core::{PlaneShard, RowKernel, RowWalk, StagedWire, WireIndex};
use adn_faults::{ByzContext, CrashSchedule};
use adn_graph::{LinkRows, NodeSet, RunRow};
use adn_net::{PortNumbering, PortRow, RoundBuffers, SenderClass};
use adn_types::rng::SplitMix64;
use adn_types::{Batch, Message, NodeId, Phase, Round};

use super::Simulation;

/// The shared read-only context of one round's delivery — one bundle
/// every shard's walk borrows.
pub(super) struct PlaneRound<'a> {
    /// The round's shared sender permutation under the non-ascending
    /// delivery orders; `None` walks each receiver's row ascending.
    pub(super) perm: Option<&'a [NodeId]>,
    pub(super) classes: &'a [SenderClass],
    /// The round's Partial and fabricating Byzantine senders with their
    /// positions in the sender order (see [`scan_senders`]), in that order.
    pub(super) conditional: &'a [(usize, NodeId)],
    pub(super) honest: &'a NodeSet,
    /// Every sender but the Silent ones.
    pub(super) active: &'a NodeSet,
    pub(super) unconditional: &'a NodeSet,
    pub(super) crash: &'a CrashSchedule,
    pub(super) ports: &'a PortNumbering,
    /// What every transmitting non-Byzantine sender staged at the start of
    /// the round — **not** read from the live plane, whose state mutates
    /// as the round delivers.
    pub(super) wire: StagedWire<'a>,
    /// The round's Present senders by wire phase, when the round's
    /// receivers take their links a word at a time: word kernels, fed
    /// ascending in stretches, and no more distinct wire phases than the
    /// index holds.
    pub(super) index: Option<&'a WireIndex>,
    /// Whether the index's run sums were counted this round
    /// ([`WireIndex::sum_runs`]): a kernel that takes run pieces takes a
    /// run row's Present links that way.
    pub(super) runs: bool,
    /// The highest staged wire phase: past it (or decided) a columnar
    /// receiver ignores every further honest link of the round.
    pub(super) max_wire_phase: Phase,
    pub(super) t: Round,
}

/// One shard's exclusive round state: its plane slice and its receivers'
/// fabricated batches.
pub(super) struct ShardCtx<'a> {
    pub(super) shard: PlaneShard<'a>,
    pub(super) fabricated: FabricatedSlice<'a>,
}

/// The round's fabricated batches
/// ([`Simulation::fabricate`](super::Simulation::fabricate)): each
/// honest receiver, ascending, its Byzantine links in the round's sender
/// order, the order the walk meets them in. A link fabricated nothing for
/// (missed) holds an empty batch. Read by the walk,
/// [`RealizedRows`](super::RealizedRows) and the log.
#[derive(Debug)]
pub(super) struct Fabricated {
    /// `(receiver, sender, message count)` of each chosen link.
    pub(super) links: Vec<(NodeId, NodeId, usize)>,
    /// The links' messages, concatenated in `links` order.
    pub(super) messages: Batch,
}

/// How many messages `u` fabricated for `v` among a round's `links`: 0
/// when the link missed or was not chosen.
pub(super) fn fabricated_len(links: &[(NodeId, NodeId, usize)], u: NodeId, v: NodeId) -> usize {
    let first = links.partition_point(|l| l.0 < v);
    let mut own = links[first..].iter().take_while(|l| l.0 == v);
    own.find(|l| l.1 == u).map_or(0, |l| l.2)
}

/// A part of the round's [`Fabricated`] arena: one shard's receivers',
/// taken front to back as the walk meets their links.
#[derive(Default)]
pub(super) struct FabricatedSlice<'a> {
    pub(super) links: &'a [(NodeId, NodeId, usize)],
    pub(super) messages: &'a mut [Message],
}

#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
impl<'a> FabricatedSlice<'a> {
    /// Takes the first `k` links, with their messages, off the front.
    pub(super) fn take_front(&mut self, k: usize) -> FabricatedSlice<'a> {
        let (links, rest) = self.links.split_at(k);
        self.links = rest;
        let len = links.iter().map(|&(_, _, len)| len).sum();
        let (messages, rest) = std::mem::take(&mut self.messages).split_at_mut(len);
        self.messages = rest;
        FabricatedSlice { links, messages }
    }

    /// The next link's batch, `u`'s for `v`; `None` if the link missed.
    fn take(&mut self, u: NodeId, v: NodeId) -> Option<&'a mut [Message]> {
        let &(receiver, sender, _) = self.links.first()?;
        debug_assert_eq!(
            (receiver, sender),
            (v, u),
            "links are met in the arena's order"
        );
        Some(self.take_front(1).messages).filter(|batch| !batch.is_empty())
    }
}

/// Calls `f` for receiver `v`'s senders in the round's order, from
/// position `from`, until it returns `false`; returns that sender and its
/// position (`None` once the senders are exhausted). Positions are sender
/// ids under ascending delivery and indices into the round's shared
/// permutation otherwise; scanning again from the returned position `+ 1`
/// continues behind the sender that ended the scan.
#[inline(always)]
pub(super) fn scan_senders<L: LinkRows>(
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
/// passed over. `keys` is the row the kernel tells `v`'s senders apart by.
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
) -> Option<(usize, NodeId)> {
    // One length for all three per-sender columns, so one range check on
    // the sender id covers them.
    let classes = env.classes;
    let wire = StagedWire {
        phase: &env.wire.phase[..classes.len()],
        value: &env.wire.value[..classes.len()],
        batches: &env.wire.batches[..classes.len()],
    };
    scan_senders(
        env.perm,
        links,
        v,
        from,
        #[inline(always)]
        |u| {
            let u_idx = u.index();
            match classes[u_idx] {
                SenderClass::Present => {
                    kernel.staged(keys.port(u), u_idx, &wire);
                    kernel.live()
                }
                class => class == SenderClass::Silent,
            }
        },
    )
}

/// One honest receiver's round: its senders, in the round's order, fed
/// straight into the receiver's kernel — the body of the one delivery
/// routine ([`deliver_rows`]).
struct ReceiverWalk<'r, 'a, L> {
    env: &'r PlaneRound<'r>,
    links: &'r L,
    v: NodeId,
    fabricated: &'r mut FabricatedSlice<'a>,
}

impl<L: LinkRows> RowWalk for ReceiverWalk<'_, '_, L> {
    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    #[inline(always)]
    fn walk<K: RowKernel>(self, kernel: &mut K) {
        let ReceiverWalk {
            env,
            links,
            v,
            fabricated,
        } = self;
        // What the kernel tells `v`'s senders apart by: their ids on a
        // word kernel, `v`'s own ports otherwise.
        let keys = if K::WORDS {
            PortRow::identity(env.classes.len())
        } else {
            env.ports.ports_of(v)
        };
        // One conditional link on its own, at its position in the sender
        // order, fed whatever the receiver's state (a fabrication may
        // carry any phase). Present links are fed by the stretches and
        // word steps, never here.
        let mut deliver_link = |u: NodeId, kernel: &mut K| match env.classes[u.index()] {
            SenderClass::Partial if env.crash.delivers(u, env.t, v) => {
                kernel.staged(keys.port(u), u.index(), &env.wire);
            }
            SenderClass::Byzantine => {
                if let Some(batch) = fabricated.take(u, v) {
                    kernel.batch(keys.port(u), batch);
                }
            }
            // Silent senders, a Partial sender's dead links, and the
            // Present link a stretch ended at (it made the receiver stale,
            // and was fed).
            _ => {}
        };
        if let (Some(index), true) = (env.index, K::RUNS && env.runs) {
            if let Some(row) = links.run_row(v) {
                walk_runs(env, links, v, row, index, kernel, deliver_link);
                return;
            }
        }
        // Where the walk left the row because the receiver went stale (a
        // position in the sender order): the first provably stale link
        // ends it, and of the senders from there on only the round's
        // conditional ones are still visited.
        let mut stale_from = None;
        match env.index {
            // A word kernel takes the Present links 64 senders per step:
            // each chunk of the row as stretches cut in front of every
            // conditional sender in it, which is delivered on its own in
            // between.
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
                    let next = feed_present(env, links, v, keys, from, kernel);
                    let Some((pos, u)) = next else { break false };
                    from = pos + 1;
                    deliver_link(u, kernel);
                };
                if stale {
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
    }
}

/// Receiver `v`'s run row, a run piece at a time: each merged run cut in
/// front of the receiver itself and of every conditional sender in it —
/// which is delivered on its own in between — and each piece between the
/// cuts fed to the kernel ([`RowKernel::run`]) while it is live. A stale
/// receiver's pieces are passed over; its conditional senders are still
/// delivered where they stand. The kernel's `end_runs` closes the row.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#[inline(always)]
fn walk_runs<L: LinkRows, K: RowKernel>(
    env: &PlaneRound<'_>,
    links: &L,
    v: NodeId,
    row: RunRow,
    index: &WireIndex,
    kernel: &mut K,
    mut deliver_link: impl FnMut(NodeId, &mut K),
) {
    let mut stale = false;
    let mut piece = |lo: usize, hi: usize, kernel: &mut K| {
        if kernel.live() {
            #[cfg(debug_assertions)]
            probe::bump(probe::RUN_STEPS);
            kernel.run(lo, hi, &env.wire, index);
        } else if !stale {
            #[cfg(debug_assertions)]
            probe::bump(probe::STALE_STOPS);
            stale = true;
        }
    };
    // Under ascending delivery a conditional sender's position is its id,
    // and the runs ascend: one pass over the list serves the whole row.
    let mut conditional = env.conditional.iter().peekable();
    for (lo, hi) in row.iter() {
        let mut from = lo;
        loop {
            while conditional.next_if(|&&(pos, _)| pos < from).is_some() {}
            let next = conditional.peek().filter(|&&&(pos, _)| pos <= hi);
            let own = (from..=hi).contains(&v.index()).then_some(v.index());
            let cut = match (next, own) {
                (Some(&&(pos, _)), Some(own)) => pos.min(own),
                (Some(&&(pos, _)), None) => pos,
                (None, Some(own)) => own,
                (None, None) => {
                    piece(from, hi, kernel);
                    break;
                }
            };
            if from < cut {
                piece(from, cut - 1, kernel);
            }
            if let Some(&(_, u)) = conditional.next_if(|&&(pos, _)| pos == cut) {
                if links.contains(u, v) {
                    deliver_link(u, kernel);
                }
            }
            if cut == hi {
                break;
            }
            from = cut + 1;
        }
    }
    kernel.end_runs(index);
}

/// The one delivery routine, for receivers `lo..hi` (the whole plane, or
/// one shard's range): each honest receiver, ascending, walks its senders
/// in the round's order and applies them to its kernel
/// ([`ReceiverWalk`]). Generic over the link rows — dense bit rows and
/// run/CSR rows are just row kinds — and, through the shard, over the
/// plane it feeds.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
pub(super) fn deliver_rows<L: LinkRows>(
    env: &PlaneRound<'_>,
    links: &L,
    (lo, hi): (usize, usize),
    ctx: &mut ShardCtx<'_>,
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
                fabricated: &mut ctx.fabricated,
            },
        );
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

impl DeliveryOrder {
    /// The round's shared sender permutation `perm` as the walk and the
    /// log take it: `None` under ascending delivery, whose row walks need
    /// no id list.
    pub(super) fn shared_perm(self, perm: &[NodeId]) -> Option<&[NodeId]> {
        (self != DeliveryOrder::AscendingSenders).then_some(perm)
    }
}

impl Simulation {
    /// Fills `buffers.perm` with the round's shared sender permutation (none
    /// under ascending-sender delivery, whose row walks need no id list),
    /// and `conditional` with the round's conditional senders in the order
    /// every receiver processes this round's deliveries in.
    ///
    /// The permutation is built over the *full* id range `0..n` and then
    /// masked down to the senders that can deliver anything this round
    /// (`active`), preserving relative order — so masking is behaviorally
    /// invisible: a silent sender's delivery was always a no-op, and
    /// dropping it from the list cannot reorder anyone else
    /// (`tests/reference_round.rs`'s naive executor walks the full list).
    /// `Shuffled`'s seed derivation is a documented determinism contract
    /// (see [`DeliveryOrder::Shuffled`]).
    pub(super) fn order_senders(&mut self, t: Round) {
        let n = self.params.n();
        let RoundBuffers {
            perm,
            active,
            unconditional,
            ..
        } = &mut self.buffers;
        let conditional = &mut self.conditional;
        perm.clear();
        conditional.clear();
        match self.delivery_order {
            DeliveryOrder::AscendingSenders => active.for_each(|u| {
                if !unconditional.contains(u) {
                    conditional.push((u.index(), u));
                }
            }),
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
        let positions = perm.iter().copied().enumerate();
        conditional.extend(positions.filter(|&(_, u)| !unconditional.contains(u)));
    }

    /// Fabricates the round's Byzantine links into the arena
    /// ([`Fabricated`]) before delivery, on this thread: each honest
    /// receiver, ascending, its links from the round's conditional
    /// Byzantine senders (not those staged once) in the round's order. So
    /// each strategy object sees its receivers ascending however the round
    /// delivers, which keeps stateful strategies equivalent across planes
    /// and shard counts.
    pub(super) fn fabricate(&mut self, t: Round) {
        let Some(Fabricated { links, messages }) = self.fabricated.as_deref_mut() else {
            return;
        };
        links.clear();
        messages.clear();
        let byz = &mut self.byz;
        self.buffers.honest.for_each(|v| {
            for &(_, u) in &self.conditional {
                let chosen = |_: &_| self.links.contains(u, v);
                let Some(strategy) = byz[u.index()].as_mut().filter(chosen) else {
                    continue;
                };
                let ctx = ByzContext {
                    round: t,
                    self_id: u,
                    params: self.params,
                    phases: &self.buffers.phases,
                    values: &self.buffers.values,
                };
                let before = messages.len();
                #[cfg(debug_assertions)]
                probe::bump(probe::FABRICATIONS);
                strategy.messages_into(&ctx, v, messages);
                links.push((v, u, messages.len() - before));
            }
        });
    }
}
