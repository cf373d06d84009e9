//! Proves the allocation-free steady state of the batched message plane
//! with a counting global allocator: after warmup, `Simulation::step` —
//! the one receiver-major delivery routine, over boxed state machines and
//! over the columnar planes alike — performs **zero** heap allocations per
//! round for DAC and DBAC runs in
//! lean observability mode (no schedule recording, no phase multisets —
//! both are history *recording*, inherently growing; phase multisets
//! default to on, a schedule is recorded only when asked for, and a
//! recorded round that repeats the one before asks for an index and no
//! copy, which one cell pins). The same counter pins every adversary in the
//! gallery — each one fills the reused edge set in place — and the
//! sliding-window dynaDegree checker: once its `SlidingUnion` scratch
//! is as wide as the window, a full sweep across a recording allocates nothing — and a
//! windowed service watchdog asks for its `T + 1` bit slabs at build and
//! for nothing after.
//!
//! This file contains exactly one `#[test]` so no concurrent test can
//! pollute the allocation counter. The counter is split by thread class —
//! the thread that steps, and every other thread (a sharded round's scoped
//! threads; the test harness) — and each window asserts both at zero and
//! names the one that moved. The one exception is the sharded cell: a
//! round on `k` shards spawns `k − 1` scoped threads, which allocates, so
//! that cell pins what still matters — a small constant per spawned
//! shard, the same every round and at every n.
//!
//! This file is the repo's only no-alloc check: no lint looks for
//! allocating calls. Every item in adn-sim or adn-graph that carries the
//! no-panic `#[deny(clippy::unwrap_used, clippy::expect_used,
//! clippy::panic)]`, and every `fill`, plane, trim or wire hot path in
//! adn-core or adn-adversary, must run inside one of the windows below.
//! The REGIONS list in CHANGES.md names the cell that executes each one.

#![allow(
    unsafe_code,
    reason = "the counting global allocator implements the unsafe `GlobalAlloc` trait"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use anondyn::consensus::{AlgorithmPlane, BoxedPlane, DacPlane, DbacPlane, RowKernel, RowWalk};
use anondyn::faults::colluding::{Coalition, Plan};
use anondyn::faults::strategies::{self, ALL_STRATEGY_NAMES};
use anondyn::faults::ByzantineStrategy;
use anondyn::graph::{checker, generators};
use anondyn::net::codec::Precision;
use anondyn::prelude::*;
use anondyn::sim::quantized::quantized_factory;
use anondyn::sim::{workload, DeliveryOrder, LinkMode};
use anondyn::types::rng::SplitMix64;

struct CountingAllocator;

/// Allocations of all threads together.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// Bytes requested by all threads together (never reduced by a free): what
/// a build asked the allocator for, transient requests included.
static BYTES_REQUESTED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Allocations of this thread. `const`-initialized and without a
    /// destructor: no lazy init and no teardown, so reading it from inside
    /// the allocator can neither allocate nor meet a dead slot.
    static THREAD_ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    BYTES_REQUESTED.fetch_add(bytes, Ordering::Relaxed);
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    THREAD_ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

// SAFETY: a pure pass-through to `System` plus two counter bumps —
// every `GlobalAlloc` contract obligation (layout fit, pointer
// provenance) is delegated unchanged to the system allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: `layout` is forwarded verbatim from our own caller, who
        // upholds `GlobalAlloc::alloc`'s preconditions.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via our `alloc`/`realloc` with
        // this same `layout`, as `GlobalAlloc::dealloc` requires.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        // SAFETY: `ptr`/`layout`/`new_size` are forwarded verbatim from a
        // caller upholding `GlobalAlloc::realloc`'s preconditions.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// A measured window, opened by the thread that then does the stepping.
struct Window {
    here: usize,
    all: usize,
}

impl Window {
    fn open() -> Window {
        Window {
            here: THREAD_ALLOCATIONS.with(Cell::get),
            all: ALLOCATIONS.load(Ordering::Relaxed),
        }
    }

    /// Allocations since `open`: on the stepping thread, and on every
    /// other thread together.
    fn spent(self) -> (usize, usize) {
        let now = Window::open();
        let here = now.here - self.here;
        (here, now.all - self.all - here)
    }

    /// Asserts that nothing was allocated since `open`, by either thread
    /// class; `what` names the cell and the work done.
    fn assert_none(self, what: std::fmt::Arguments<'_>) {
        let (here, elsewhere) = self.spent();
        assert!(
            here == 0 && elsewhere == 0,
            "{what} allocated: {here} allocation(s) on the stepping thread, {elsewhere} on \
             other threads (the test harness — no cell measured here spawns any)"
        );
    }
}

fn lean_dac(n: usize, mode: PlaneMode, order: DeliveryOrder) -> Simulation {
    let params = Params::fault_free(n, 1e-6).unwrap();
    Simulation::builder(params)
        .inputs_random(1)
        .algorithm(factories::dac_with_pend(params, u64::MAX))
        .algorithm_plane(mode)
        .delivery_order(order)
        .record_schedule(false)
        .observe_phases(false)
        .max_rounds(u64::MAX)
        .build()
}

fn lean_dbac(n: usize, mode: PlaneMode, order: DeliveryOrder) -> Simulation {
    let params = Params::fault_free(n, 1e-6).unwrap();
    Simulation::builder(params)
        .inputs_random(1)
        .adversary(AdversarySpec::Rotating { d: n / 2 }.build(n, 0, 1))
        .algorithm(factories::dbac_with_pend(params, u64::MAX))
        .algorithm_plane(mode)
        .delivery_order(order)
        .record_schedule(false)
        .observe_phases(false)
        .max_rounds(u64::MAX)
        .build()
}

/// A lean DAC run over three words of senders under staggered receiver
/// groups: every word mixes the phases of the served and the waiting
/// groups, and how many there are changes from round to round — the wire
/// index rebuilt per round, at a different phase count each time.
fn lean_dac_staggered() -> Simulation {
    let n = 130;
    let params = Params::fault_free(n, 1e-6).unwrap();
    Simulation::builder(params)
        .inputs_random(1)
        .adversary(
            AdversarySpec::Staggered {
                d: n / 2 + 1,
                groups: 3,
            }
            .build(n, 0, 1),
        )
        .algorithm(factories::dac_with_pend(params, u64::MAX))
        .algorithm_plane(PlaneMode::Always)
        .record_schedule(false)
        .observe_phases(false)
        .max_rounds(u64::MAX)
        .build()
}

/// A lean DBAC run at f = 8 with every fault slot Byzantine (the highest
/// ids): `f + 1 = 9`-long trim lists, `begin_round` and per-link
/// fabrication — none of which the `f = 0` cells reach — on either link
/// form and any number of shards.
fn lean_dbac_byz(
    (n, shards): (usize, usize),
    mode: PlaneMode,
    byzantine: Vec<(NodeId, Box<dyn ByzantineStrategy>)>,
    links: LinkMode,
) -> Simulation {
    let f = 8;
    let params = Params::new(n, f, 1e-6).unwrap();
    let mut builder = Simulation::builder(params)
        .inputs_random(1)
        .adversary(AdversarySpec::DbacThreshold.build(n, f, 1))
        .algorithm(factories::dbac_with_pend(params, u64::MAX))
        .algorithm_plane(mode)
        .link_mode(links)
        .shards(shards)
        .record_schedule(false)
        .observe_phases(false)
        .max_rounds(u64::MAX);
    for (id, strategy) in byzantine {
        builder = builder.byzantine(id, strategy);
    }
    builder.build()
}

/// A lean DBAC run over three words of senders (n = 130, f = 8), the
/// eight stock strategies on the ids either side of the boundary between
/// words 1 and 2: the per-round rank order and its blocks, the pending row,
/// and rows cut between two words that hold pending links. At the
/// threshold degree every row reads its quorum's bounds by merge; under a
/// degree spread over three rounds the rows are thin, end with links
/// pending, and settle them sender by sender or, when enough are pending,
/// by rank.
fn lean_dbac_words(adversary: AdversarySpec) -> Simulation {
    let (n, f) = (130, 8);
    let params = Params::new(n, f, 1e-6).unwrap();
    let mut builder = Simulation::builder(params)
        .inputs_random(1)
        .adversary(adversary.build(n, f, 1))
        .algorithm(factories::dbac_with_pend(params, u64::MAX))
        .algorithm_plane(PlaneMode::Always)
        .record_schedule(false)
        .observe_phases(false)
        .max_rounds(u64::MAX);
    for (k, name) in ALL_STRATEGY_NAMES.iter().enumerate() {
        let id = NodeId::new(122 + k);
        builder = builder.byzantine(id, strategies::by_name(name, n, k as u64));
    }
    builder.build()
}

/// A lean DBAC run at n = 130, f = 8 on the complete graph whose eight
/// Byzantine senders (ids 122–129) are of the five kinds that send one
/// message to every receiver: two extremes, a phase forger, a mimic, a
/// flip-flop and three coalition members. The honest receivers advance in
/// lockstep, one phase a round, so every one of those senders is staged
/// once a round and no link is fabricated; every quorum is read by merge.
fn lean_dbac_uniform() -> Simulation {
    let (n, f) = (130, 8);
    let params = Params::new(n, f, 1e-6).unwrap();
    let mut builder = Simulation::builder(params)
        .inputs_random(1)
        .adversary(AdversarySpec::Complete.build(n, f, 1))
        .algorithm(factories::dbac_with_pend(params, u64::MAX))
        .algorithm_plane(PlaneMode::Always)
        .record_schedule(false)
        .observe_phases(false)
        .max_rounds(u64::MAX);
    let names = [
        "extreme-low",
        "extreme-high",
        "phase-forger",
        "mimic",
        "flip-flop",
    ];
    for (k, name) in names.iter().enumerate() {
        let id = NodeId::new(122 + k);
        builder = builder.byzantine(id, strategies::by_name(name, n, k as u64));
    }
    for (id, member) in Coalition::build(Plan::Straddle, (127..130).map(NodeId::new).collect()) {
        builder = builder.byzantine(id, member);
    }
    builder.build()
}

/// The eight stock strategies, one per Byzantine slot of
/// [`lean_dbac_byz`] at `n` nodes.
fn stock_strategies(n: usize) -> Vec<(NodeId, Box<dyn ByzantineStrategy>)> {
    ALL_STRATEGY_NAMES
        .iter()
        .enumerate()
        .map(|(k, name)| {
            (
                NodeId::new(n - 8 + k),
                strategies::by_name(name, n, k as u64),
            )
        })
        .collect()
}

/// A lean quantized-DAC run — the `QuantizedPlane` wire-encoding adaptor
/// on the columnar path.
fn lean_dac_quantized(n: usize, mode: PlaneMode) -> Simulation {
    let params = Params::fault_free(n, 1e-6).unwrap();
    Simulation::builder(params)
        .inputs_random(1)
        .algorithm(quantized_factory(
            factories::dac_with_pend(params, u64::MAX),
            Precision::new(11),
        ))
        .algorithm_plane(mode)
        .record_schedule(false)
        .observe_phases(false)
        .max_rounds(u64::MAX)
        .build()
}

/// A lean DBAC-piggyback run (no columnar plane): every link carries a
/// `k + 1`-message batch from the sender's persistent buffer through the
/// boxed kernel.
fn lean_dbac_piggyback(n: usize) -> Simulation {
    let params = Params::fault_free(n, 1e-6).unwrap();
    Simulation::builder(params)
        .inputs_random(1)
        .adversary(AdversarySpec::Rotating { d: n / 2 + 1 }.build(n, 0, 1))
        .algorithm(factories::dbac_piggyback(params, 3, u64::MAX))
        .record_schedule(false)
        .observe_phases(false)
        .max_rounds(u64::MAX)
        .build()
}

/// A lean sparse-link DAC run — run rows instead of words, receiver-major
/// delivery in `order`, optionally sharded over scoped threads.
fn lean_dac_sparse(n: usize, shards: usize, order: DeliveryOrder) -> Simulation {
    let params = Params::fault_free(n, 1e-6).unwrap();
    Simulation::builder(params)
        .inputs_random(1)
        .adversary(AdversarySpec::Rotating { d: n / 2 }.build(n, 0, 1))
        .algorithm(factories::dac_with_pend(params, u64::MAX))
        .algorithm_plane(PlaneMode::Always)
        .delivery_order(order)
        .link_mode(LinkMode::Sparse)
        .shards(shards)
        .record_schedule(false)
        .observe_phases(false)
        .max_rounds(u64::MAX)
        .build()
}

#[test]
fn steady_state_step_performs_zero_allocations() {
    // --- The round engine's one delivery routine (staging into the
    // persistent batches, per-round wire columns, the conditional-sender
    // list, the wire index, the shard split and its contexts), on the
    // columnar planes and on boxed state machines — under all three delivery orders (the
    // descending and shuffled orders walk the shared per-round sender
    // permutation, whose build — including the shuffle's full-id scratch
    // and the active mask — must reuse the arena's `perm` buffer), plus
    // the quantized wire-encoding adaptor. The `plane` cells (ascending,
    // shuffled, DBAC under 8 Byzantine senders, quantized) are the
    // routine's columnar cells, the `trait` ones (`PlaneMode::Never`) and
    // `dbac/piggyback` (multi-message batches through the kernel) its
    // boxed cells, and the `sparse` ones below the same routine over the
    // other row kind. ---
    use DeliveryOrder::{AscendingSenders, DescendingSenders, Shuffled};
    type Build = fn() -> Simulation;
    let cells: [(&str, Build); 21] = [
        ("dac/plane", || {
            lean_dac(32, PlaneMode::Always, AscendingSenders)
        }),
        // The benchmark's size: 16-word rows — and no 8 MB port table,
        // let alone a second one (the table assertions below).
        ("dac/plane/1024", || {
            lean_dac(1024, PlaneMode::Always, AscendingSenders)
        }),
        ("dac/plane/staggered", lean_dac_staggered),
        ("dac/trait", || {
            lean_dac(32, PlaneMode::Never, AscendingSenders)
        }),
        ("dac/plane/desc", || {
            lean_dac(32, PlaneMode::Always, DescendingSenders)
        }),
        ("dac/plane/shuffled", || {
            lean_dac(32, PlaneMode::Always, Shuffled(7))
        }),
        ("dac/trait/shuffled", || {
            lean_dac(32, PlaneMode::Never, Shuffled(7))
        }),
        ("dac/plane/quantized", || {
            lean_dac_quantized(32, PlaneMode::Always)
        }),
        ("dbac/plane", || {
            lean_dbac(32, PlaneMode::Always, AscendingSenders)
        }),
        ("dbac/trait", || {
            lean_dbac(32, PlaneMode::Never, AscendingSenders)
        }),
        ("dbac/plane/shuffled", || {
            lean_dbac(32, PlaneMode::Always, Shuffled(7))
        }),
        ("dbac/piggyback", || lean_dbac_piggyback(32)),
        // DBAC under real Byzantine senders, where the trim lists and the
        // strategies' once-per-round facts do their work.
        ("dbac/plane/byz", || {
            lean_dbac_byz(
                (64, 1),
                PlaneMode::Always,
                stock_strategies(64),
                LinkMode::Auto,
            )
        }),
        ("dbac/trait/byz", || {
            lean_dbac_byz(
                (64, 1),
                PlaneMode::Never,
                stock_strategies(64),
                LinkMode::Auto,
            )
        }),
        ("dbac/plane/byz/straddle", || {
            lean_dbac_byz(
                (64, 1),
                PlaneMode::Always,
                Coalition::build(Plan::Straddle, (56..64).map(NodeId::new).collect()),
                LinkMode::Auto,
            )
        }),
        // Alg. 2 by words: the rank order sorted and its blocks rebuilt
        // every round, the pending row, both settles and the merge read.
        ("dbac/plane/words", || {
            lean_dbac_words(AdversarySpec::DbacThreshold)
        }),
        ("dbac/plane/spread", || {
            lean_dbac_words(AdversarySpec::Spread {
                t: 3,
                d: (130 + 3 * 8) / 2,
            })
        }),
        // Byzantine senders staged once a round, ranked with the honest
        // ones; the quorum's bounds read off the lists and the pending
        // senders together.
        ("dbac/plane/uniform", lean_dbac_uniform),
        // Run rows + receiver-major delivery on one shard — the inline
        // path, which spawns nothing (the sharded twin has its own pin
        // below); under a permuted order, whose walk asks the run rows
        // for membership sender by sender; and under Byzantine senders,
        // whose empty fabrications are marked as they fabricate.
        ("dac/sparse", || lean_dac_sparse(32, 1, AscendingSenders)),
        ("dac/sparse/shuffled", || {
            lean_dac_sparse(32, 1, Shuffled(7))
        }),
        ("dbac/sparse/byz", || {
            lean_dbac_byz(
                (64, 1),
                PlaneMode::Always,
                stock_strategies(64),
                LinkMode::Sparse,
            )
        }),
    ];
    for (name, build) in cells {
        let settles_before = adn_core::probe::counts();
        let mut sim = build();
        assert_eq!(
            sim.uses_plane(),
            name.contains("plane") || name.contains("sparse"),
            "{name}"
        );
        assert_eq!(sim.uses_sparse_links(), name.contains("sparse"), "{name}");
        // Warmup: grow every buffer to its steady-state capacity. 70
        // rounds also pushes the internal round-trace vector past a
        // power-of-two boundary (cap 128), so the measured window below
        // (30 rounds) cannot hit an amortized doubling.
        for _ in 0..70 {
            sim.step();
        }
        let caps = sim.buffers().batch_capacities();
        let window = Window::open();
        for _ in 0..30 {
            sim.step();
        }
        window.assert_none(format_args!("{name}: 30 steady-state steps"));
        assert_eq!(
            sim.buffers().batch_capacities(),
            caps,
            "{name}: batch capacities changed in the measured window"
        );
        assert!(sim.stopped().is_none(), "{name}: must still be running");
        if name == "dbac/piggyback" {
            let staged = sim.buffers().batches[0].len();
            assert_eq!(staged, 4, "{name}: every link must carry k + 1 messages");
        }
        // The Alg. 2 word cells are there for one path each (adn-core
        // counts them on the delivering thread — this one — and only in a
        // debug build of it, which is what `cargo test` gives this file).
        if let (Some(before), Some(settled)) = (settles_before, adn_core::probe::counts()) {
            use adn_core::probe::{FABRICATIONS, QUORUM_BOUNDS, RANK_SETTLES, SENDER_SETTLES};
            let since = |counter: usize| settled[counter] - before[counter];
            match name {
                "dbac/plane/words" => assert!(since(QUORUM_BOUNDS) > 0, "{name}"),
                "dbac/plane/spread" => {
                    assert!(since(SENDER_SETTLES) > 0, "{name}");
                    assert!(since(RANK_SETTLES) > 0, "{name}");
                }
                "dbac/plane/uniform" => {
                    assert_eq!(since(FABRICATIONS), 0, "{name}: a link was fabricated");
                    assert!(since(QUORUM_BOUNDS) > 0, "{name}");
                }
                _ => {}
            }
        }
        // No engine path delivers sender-major any more, so none may have
        // built the transposed port table behind `ports_to`. And only
        // boxed nodes are keyed by ports: their runs built the random
        // table up front (a fill in the window above would have counted),
        // the columnar ones never did.
        assert!(
            !sim.ports().has_transpose(),
            "{name}: a run materialized the transposed port table"
        );
        assert_eq!(
            sim.ports().has_table(),
            !sim.uses_plane(),
            "{name}: the port table is built exactly for runs that read ports"
        );
    }

    // --- `dac/sparse/sharded`: the same run on three shards and on two,
    // and `dbac/byz/sharded`: DBAC under the eight stock strategies on two.
    // Each round fans every shard but the first out to a scoped thread,
    // and a spawn allocates (its result packet, its handle, the boxed
    // closure), so the count cannot be zero. What must hold instead is
    // that nothing scales with the round's work: the same count in every
    // steady step, the same at two sizes, and a small constant per spawned
    // shard — to which the round's fabricated batches add nothing. ---
    let sharded_step_allocations =
        |name: &str, sizes: [usize; 2], build: &dyn Fn(usize) -> Simulation| {
            let [small, large] = sizes.map(|n| {
                let mut sim = build(n);
                for _ in 0..70 {
                    sim.step();
                }
                let steps: Vec<usize> = (0..30)
                    .map(|_| {
                        let window = Window::open();
                        sim.step();
                        let (here, elsewhere) = window.spent();
                        here + elsewhere
                    })
                    .collect();
                assert!(
                    steps.iter().all(|&count| count == steps[0]),
                    "{name} n = {n}: per-step allocations vary: {steps:?}"
                );
                steps[0]
            });
            assert_eq!(small, large, "{name}: allocations per step grew with n");
            small
        };
    let dac_sparse = |shards| {
        move |n| {
            let sim = lean_dac_sparse(n, shards, AscendingSenders);
            assert!(sim.uses_sparse_links() && sim.shards() == shards);
            sim
        }
    };
    let three = sharded_step_allocations("dac/sparse/sharded", [32, 128], &dac_sparse(3));
    let two = sharded_step_allocations("dac/sparse/sharded/2", [32, 128], &dac_sparse(2));
    // Measured: 9 and 6 — three per spawn, the scope, and the two vectors
    // of handles and of contexts handed back; the bound leaves std room.
    const PER_SPAWNED_SHARD: usize = 8;
    assert!(
        (1..=2 * PER_SPAWNED_SHARD).contains(&three) && three - two <= PER_SPAWNED_SHARD,
        "dac/sparse/sharded: {three} allocations per step for two spawned shards, {two} for one"
    );
    let fabricated_before = adn_core::probe::counts();
    let byz = sharded_step_allocations("dbac/byz/sharded", [64, 128], &|n| {
        let sim = lean_dbac_byz(
            (n, 2),
            PlaneMode::Always,
            stock_strategies(n),
            LinkMode::Auto,
        );
        assert_eq!(sim.shards(), 2);
        sim
    });
    assert_eq!(
        byz, two,
        "dbac/byz/sharded: allocations per step beyond the fault-free run's on two shards"
    );
    // Fabrication runs before the fan-out, on the stepping thread (whose
    // counters these are, in a debug build of adn-core).
    if let (Some(before), Some(after)) = (fabricated_before, adn_core::probe::counts()) {
        use adn_core::probe::FABRICATIONS;
        assert!(
            after[FABRICATIONS] > before[FABRICATIONS],
            "dbac/byz/sharded: no link fabricated on the stepping thread"
        );
    }

    // --- Building a sparse-link run asks for the seen rows (n²/8 bytes)
    // and O(n) besides: none of the dense n² bitmaps, not even for a
    // moment (`RoundBuffers::sparse` once built three and dropped them —
    // ≈ 4 · n²/8 requested, 3.6 GB of peak RSS at n = 100 000). ---
    let n = 4096;
    let before = BYTES_REQUESTED.load(Ordering::Relaxed);
    let sim = lean_dac_sparse(n, 1, AscendingSenders);
    let requested = BYTES_REQUESTED.load(Ordering::Relaxed) - before;
    assert!(sim.uses_sparse_links() && sim.uses_plane());
    assert!(
        requested < 2 * n * n / 8,
        "dac/sparse build at n = {n} requested {requested} bytes; the seen rows are {}",
        n * n / 8
    );

    // --- What Alg. 2's word step adds to a build — the rank order, its
    // blocks, the pending rows — is Alg. 2's alone and O(n): a DAC run at
    // the benchmark's size asks for not one byte more than it does with
    // one link store whose words wait for the first round (422 304; it
    // was 881 056 with three dense n² edge sets built up front — the
    // ledger's `dac_dense` builds one such run per operation, and has read
    // 8 % slower for 32 bytes moving its heap), a DBAC run for under 16
    // bytes a node besides. ---
    let n = 1024;
    let build_bytes = |build: fn(usize, PlaneMode, DeliveryOrder) -> Simulation| {
        let before = BYTES_REQUESTED.load(Ordering::Relaxed);
        let sim = build(n, PlaneMode::Always, AscendingSenders);
        assert!(sim.uses_plane());
        BYTES_REQUESTED.load(Ordering::Relaxed) - before
    };
    let (dac, dbac) = (build_bytes(lean_dac), build_bytes(lean_dbac));
    assert!(dac <= 422_304, "dac/plane build at n = {n}: {dac} bytes");
    assert!(
        dbac <= dac + 16 * n,
        "dbac/plane build at n = {n}: {dbac} bytes, dac {dac}"
    );

    // --- A recorded run keeps each distinct round once: a fault-free
    // DAC run at the benchmark's size under `Complete` repeats its round,
    // and recording a repeat asks for an index and no copy — over 18
    // rounds, less than one round's rows (it asked for more than that
    // every round when each round was copied). A `Rotating` run changes
    // its round every round and still records every one. Built as the
    // defaults leave it, with no `record_schedule` call, the same
    // `Rotating` run records nothing and asks for no byte at all over
    // rounds 3-20 (its round-trace vector reserved its room at its first
    // step), while its meter reads the degree the recorded run's schedule
    // gives the checker. ---
    let n: usize = 1024;
    let rows = n * n.div_ceil(64) * 8;
    let run = |adversary: AdversarySpec, record: bool, measured: std::ops::Range<usize>| {
        let params = Params::fault_free(n, 1e-6).unwrap();
        let mut builder = Simulation::builder(params)
            .inputs_random(1)
            .adversary(adversary.build(n, 0, 1))
            .algorithm(factories::dac_with_pend(params, u64::MAX))
            .algorithm_plane(PlaneMode::Always)
            .observe_phases(false)
            .max_rounds(u64::MAX);
        if record {
            builder = builder.record_schedule(true);
        }
        let mut sim = builder.build();
        assert!(sim.uses_plane() && !sim.uses_sparse_links());
        for _ in 0..measured.start {
            sim.step();
        }
        let before = BYTES_REQUESTED.load(Ordering::Relaxed);
        for _ in measured {
            sim.step();
        }
        let requested = BYTES_REQUESTED.load(Ordering::Relaxed) - before;
        (requested, sim.finish())
    };
    let (requested, outcome) = run(AdversarySpec::Complete, true, 3..21);
    assert!(
        requested < rows,
        "dac/recorded/complete at n = {n}: rounds 3-20 requested {requested} bytes, one \
         round's rows are {rows}"
    );
    let schedule = outcome.schedule();
    assert_eq!(schedule.len(), 21);
    assert!(schedule.iter().all(|(_, e)| e.edge_count() == n * (n - 1)));
    let (_, recorded) = run(AdversarySpec::Rotating { d: n / 2 }, true, 3..21);
    let rounds: Vec<_> = recorded.schedule().iter().map(|(_, e)| e).collect();
    assert_eq!(rounds.len(), 21);
    assert!(
        rounds.windows(2).all(|w| w[0] != w[1]),
        "dac/recorded/rotating: every round differs from the one before"
    );
    let (requested, unrecorded) = run(AdversarySpec::Rotating { d: n / 2 }, false, 3..21);
    assert_eq!(
        requested, 0,
        "dac/default/rotating at n = {n}: rounds 3-20 requested {requested} bytes"
    );
    assert!(unrecorded.schedule().is_empty());
    assert_eq!(
        checker::max_dyna_degree(recorded.schedule(), 1, &[]),
        Some(n / 2)
    );
    assert_eq!(unrecorded.min_dyna_degree(), Some(n / 2));

    // --- The trial-lane driver: 64 lockstep trials per word. A steady
    // `LaneRun::step` — the broadcast snapshot, the per-lane (or shared)
    // adversary drive into the lane link words, the receiver-major masked
    // delivery, and the per-lane stop checks — must allocate nothing once
    // built, for both link-driving modes: one shared realization
    // broadcast to all lanes (Rotating declares a `lane_key`) and a
    // per-lane seeded realization (Random draws each lane's own links).
    // ---
    for (name, spec) in [
        ("lanes/shared", AdversarySpec::Rotating { d: 16 }),
        ("lanes/random", AdversarySpec::Random { p: 0.4 }),
    ] {
        let params = Params::fault_free(32, 1e-6).unwrap();
        let builders: Vec<SimBuilder> = (0..64)
            .map(|t| {
                Simulation::builder(params)
                    .inputs_random(t)
                    .adversary(spec.build(32, 0, t))
                    .algorithm(factories::dac_with_pend(params, u64::MAX))
                    .max_rounds(u64::MAX)
            })
            .collect();
        let mut run = LaneRun::try_new(builders).expect("configuration must lane");
        for _ in 0..70 {
            run.step();
        }
        let window = Window::open();
        for _ in 0..30 {
            run.step();
        }
        window.assert_none(format_args!("{name}: 30 steady-state lane steps"));
        assert_eq!(run.live(), u64::MAX, "{name}: all 64 lanes must still run");
    }

    // --- The adversary gallery: every strategy's `fill` must write the
    // engine's reused links without allocating once its own scratch
    // (deliverer lists, heard-sets, sort buffers) has warmed up — into
    // both sinks it is compiled for: the dense rows and the sparse
    // `LinkPlane`. All runs take the default (plane) path at n = 32;
    // Figure 1 is the same code path as AlternatingComplete at a fixed
    // n = 3, so it is covered by proxy. ---
    let n = 32;
    let gallery = [
        AdversarySpec::Silence,
        AdversarySpec::Rotating { d: n / 2 },
        AdversarySpec::Spread { t: 3, d: n / 2 },
        AdversarySpec::Staggered {
            d: n / 2,
            groups: 3,
        },
        AdversarySpec::AlternatingComplete { period: 2 },
        AdversarySpec::PartitionHalves,
        AdversarySpec::PartitionAt { split: 5 },
        AdversarySpec::Theorem10,
        AdversarySpec::Random { p: 0.4 },
        AdversarySpec::AdaptiveClosest { d: n / 2 },
        AdversarySpec::OmitLowest,
        AdversarySpec::OmitHighest,
        AdversarySpec::OmitRoundRobin,
        AdversarySpec::EventuallyStable { round: 5 },
        AdversarySpec::IsolateOne {
            victim: 3,
            from: 0,
            duration: 1_000, // outage spans the whole measured window
        },
    ];
    for (spec, mode) in gallery
        .iter()
        .flat_map(|&spec| [(spec, LinkMode::Dense), (spec, LinkMode::Sparse)])
    {
        let params = Params::fault_free(n, 1e-6).unwrap();
        let mut sim = Simulation::builder(params)
            .inputs_random(1)
            .adversary(spec.build(n, 0, 7))
            .algorithm(factories::dac_with_pend(params, u64::MAX))
            .link_mode(mode)
            .record_schedule(false)
            .observe_phases(false)
            .max_rounds(u64::MAX)
            .build();
        assert_eq!(sim.uses_sparse_links(), mode == LinkMode::Sparse, "{spec}");
        for _ in 0..70 {
            sim.step();
        }
        let window = Window::open();
        for _ in 0..30 {
            sim.step();
        }
        window.assert_none(format_args!("{spec} ({mode:?}): 30 steady-state steps"));
    }

    // --- The plane API the engine's row walk does not use: the per-link
    // `receive`, the replay-only `receive_many` and `deliver_from_sender`
    // (the trait's provided loops over `receive`, on every plane), and a
    // boxed kernel's `link` driven through a shard — what the benchmark's
    // stage replay and other callers outside adn-sim drive. A complete
    // round each time, one path per round in turn. ---
    struct Links<'a>(&'a [(Port, Message)]);
    impl RowWalk for Links<'_> {
        fn walk<K: RowKernel>(self, kernel: &mut K) {
            for &(key, m) in self.0 {
                kernel.link(key, m.phase(), m.value());
            }
        }
    }
    /// Receiver `v`'s links of a complete round, each keyed by its
    /// sender's id (one key on every path into a plane).
    fn complete_row<'a>(
        links: &'a mut Vec<(Port, Message)>,
        snapshot: &[Message],
        v: usize,
    ) -> &'a [(Port, Message)] {
        links.clear();
        links.extend(
            (0..snapshot.len())
                .filter(|&u| u != v)
                .map(|u| (Port::new(u), snapshot[u])),
        );
        links
    }
    let n = 32;
    let params = Params::fault_free(n, 1e-6).unwrap();
    let inputs = workload::random(n, 1);
    let boxed = |node: &dyn Fn(Value) -> Box<dyn Algorithm>| {
        BoxedPlane::new(inputs.iter().map(|&x| node(x)).collect())
    };
    let planes: [(&str, Box<dyn AlgorithmPlane>); 4] = [
        (
            "plane-api/dac",
            Box::new(DacPlane::with_pend(params, &inputs, u64::MAX)),
        ),
        (
            "plane-api/dbac",
            Box::new(DbacPlane::with_pend(params, &inputs, u64::MAX)),
        ),
        (
            "plane-api/boxed-dac",
            Box::new(boxed(&|x| Box::new(Dac::with_pend(params, x, u64::MAX)))),
        ),
        (
            "plane-api/boxed-dbac",
            Box::new(boxed(&|x| Box::new(Dbac::with_pend(params, x, u64::MAX)))),
        ),
    ];
    let all = NodeSet::full(n);
    let mut receivers = NodeSet::full(n);
    let mut ports = vec![Port::new(0); n];
    let mut snapshot = Vec::with_capacity(n);
    let mut links: Vec<(Port, Message)> = Vec::with_capacity(n);
    for (name, mut plane) in planes {
        let mut round = |plane: &mut dyn AlgorithmPlane, path: usize| {
            snapshot.clear();
            snapshot.extend((0..n).map(|u| Message::new(plane.values()[u], plane.phases()[u])));
            let max_phase = snapshot
                .iter()
                .map(|m| m.phase())
                .max()
                .unwrap_or(Phase::ZERO);
            match path {
                0 => (0..n).for_each(|v| {
                    plane.receive_many(v, complete_row(&mut links, &snapshot, v));
                }),
                1 => (0..n).for_each(|u| {
                    receivers.remove(NodeId::new(u));
                    ports.fill(Port::new(u));
                    plane.deliver_from_sender(snapshot[u], &receivers, &ports);
                    receivers.insert(NodeId::new(u));
                }),
                2 => (0..n).for_each(|v| {
                    for u in (0..n).filter(|&u| u != v) {
                        plane.receive(v, Port::new(u), &[snapshot[u]]);
                    }
                }),
                _ => {
                    let mut shards = [None];
                    plane.fill_shards(&[0, n], &mut shards);
                    let shard = shards[0].as_mut().expect("one shard");
                    for v in 0..n {
                        let row = complete_row(&mut links, &snapshot, v);
                        shard.deliver_row(v, max_phase, Links(row));
                    }
                }
            }
            plane.end_round(&all);
        };
        for r in 0..70 {
            round(&mut *plane, r % 4);
        }
        let window = Window::open();
        for r in 0..30 {
            round(&mut *plane, r % 4);
        }
        window.assert_none(format_args!("{name}: 30 rounds through the plane API"));
        assert!(plane.outputs().iter().all(Option::is_none), "{name}");
    }

    // --- Service-mode instance turnover: between consecutive consensus
    // instances, `ServiceRun` re-fills the input vector from the workload
    // stream, re-slices the churn plan into the long-lived crash
    // schedule, resets the algorithm plane in place (`service/trait` is
    // the boxed plane: one `Algorithm::reset_instance` per node), clears
    // the observer without dropping
    // capacity, and slides realized rounds through the watchdog window —
    // all allocation-free once the first few instances have warmed every
    // buffer up. ---
    let n = 32;
    let params = Params::fault_free(n, 1e-2).unwrap();
    let mut churn = ChurnPlan::new(n);
    // Two flapping nodes keep the membership slice changing across the
    // measured instances, so the pin covers slices with and without
    // mid-instance crashes.
    churn.flap_periodic(
        NodeId::new(0),
        Round::new(3),
        2,
        7,
        DownKind::Abrupt,
        Round::new(4_000),
    );
    churn.flap_periodic(
        NodeId::new(1),
        Round::new(5),
        3,
        11,
        DownKind::Graceful,
        Round::new(4_000),
    );
    for (name, mode) in [
        ("service/plane", PlaneMode::Always),
        ("service/trait", PlaneMode::Never),
    ] {
        let mut service = ServiceRun::new(
            Simulation::builder(params)
                .inputs_random(1)
                .algorithm(factories::dac(params))
                .algorithm_plane(mode)
                .max_rounds(50),
            churn.clone(),
            InputStream::random(5),
        )
        .dyna_window(4);
        for _ in 0..10 {
            service.run_instance();
        }
        let window = Window::open();
        for _ in 0..20 {
            let rec = service.run_instance();
            assert!(rec.outcome.is_decided(), "{name}: instance must decide");
        }
        window.assert_none(format_args!("{name}: 20 steady-state instance turnovers"));
        assert_eq!(service.decided_instances(), 30, "{name}");
    }
    // The same pin at the E20 scale point (n = 256, the service
    // experiment's fixed size): a few instances after warmup, still zero.
    let n = 256;
    let params = Params::fault_free(n, 1e-2).unwrap();
    let mut churn = ChurnPlan::new(n);
    churn.flap_periodic(
        NodeId::new(0),
        Round::new(2),
        2,
        5,
        DownKind::Abrupt,
        Round::new(1_000),
    );
    let service = ServiceRun::new(
        Simulation::builder(params)
            .inputs_random(1)
            .algorithm(factories::dac(params))
            .algorithm_plane(PlaneMode::Always)
            .max_rounds(50),
        churn,
        InputStream::random(5),
    );
    // All the windowed watchdog ever holds is asked for here: T + 1 bit
    // slabs of n · ⌈n/64⌉ words (a per-link counter table would be 4 · n²
    // bytes, and a ring of T edge sets besides).
    let t_window = 2;
    let before = BYTES_REQUESTED.load(Ordering::Relaxed);
    let mut service = service.dyna_window(t_window);
    let requested = BYTES_REQUESTED.load(Ordering::Relaxed) - before;
    assert_eq!(
        requested,
        (t_window + 1) * n * n.div_ceil(64) * 8,
        "service/n256: dyna_window({t_window}) asks for T + 1 slabs, no more"
    );
    for _ in 0..4 {
        service.run_instance();
    }
    let window = Window::open();
    for _ in 0..4 {
        let rec = service.run_instance();
        assert!(
            rec.outcome.is_decided(),
            "service/n256: instance must decide"
        );
    }
    window.assert_none(format_args!(
        "service/n256: 4 steady-state instance turnovers"
    ));

    // --- The sliding-window dynaDegree checker. Setup (the recording,
    // the SlidingUnion scratch, the honest set) allocates; the sweep
    // itself — slab pushes plus per-window degree reads — must not, no
    // matter the window length. ---
    let n = 48;
    let mut rng = SplitMix64::new(7);
    let mut schedule = Schedule::new(n);
    for _ in 0..120 {
        schedule.push(generators::gnp(n, 0.3, &mut rng));
    }
    let honest = checker::honest_set(n, &[NodeId::new(5)]);
    let mut scratch = SlidingUnion::new(n, 1);
    // Warmup grows the slabs to the widest window measured below; after
    // that, sweeps of any narrower window reuse them allocation-free.
    let warm = checker::max_dyna_degree_into(&mut scratch, &schedule, 32, &honest);
    checker::max_dyna_degree_into(&mut scratch, &schedule, 100, &honest);
    let window = Window::open();
    // Every width runs on the same slabs, one past 64 rounds included.
    for t_window in [1usize, 8, 32, 100] {
        let got = checker::max_dyna_degree_into(&mut scratch, &schedule, t_window, &honest);
        assert!(got.is_some(), "T={t_window}: a full window must fit");
    }
    window.assert_none(format_args!("sliding checker: 4 sweeps"));
    assert_eq!(
        checker::max_dyna_degree_into(&mut scratch, &schedule, 32, &honest),
        warm,
        "checker must be deterministic across scratch reuse"
    );
    // A one-shot verdict builds its scratch per call, so what it asks for
    // is the (T + 1) bit slabs it slides — (T + 1) · n²/8 bytes — and not
    // the 4 · n² bytes of a per-link counter table (1 GiB at n = 16 384).
    let (n, t_window) = (256, 8);
    let mut schedule = Schedule::new(n);
    for _ in 0..t_window + 2 {
        schedule.push(generators::gnp(n, 0.1, &mut rng));
    }
    let before = BYTES_REQUESTED.load(Ordering::Relaxed);
    let got = checker::max_dyna_degree(&schedule, t_window, &[]);
    let requested = BYTES_REQUESTED.load(Ordering::Relaxed) - before;
    assert!(got.is_some());
    assert!(
        requested < (t_window + 2) * n * n / 8 && requested < 4 * n * n,
        "max_dyna_degree at n = {n}, T = {t_window} requested {requested} bytes; its slabs \
         are {}, a counter table {}",
        (t_window + 1) * n * n / 8,
        4 * n * n
    );
}
