//! The seven workloads: which cells each is made of, at which sizes, and
//! why it exists.

mod lanes;
mod service;
mod standalone;

use adn_adversary::AdversarySpec;
use adn_sim::{DeliveryOrder, LinkMode, PlaneMode};

use crate::measure::Cell;
use crate::spec::{Algo, RunSpec};
use crate::util::derive;
use lanes::LanesCell;
use service::ServiceCell;
use standalone::{Path, StandaloneCell};

/// `Full` is what the benchmark measures; `Smoke` (`--smoke`, and the
/// self-tests) runs the same code at `n ≤ 64` in well under a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// Operation indices from here up belong to the traced run's replay
/// passes, so they never collide with measured (and digested) operations.
pub const TRACE_OPS: u64 = 1 << 40;

/// One workload: its name, its one-line reason, and whether the benchmark
/// driver runs it (`BENCHMARK.json` lists exactly the gated ones, in this
/// order).
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub gated: bool,
}

const fn workload(name: &'static str, why: &'static str) -> Workload {
    Workload {
        name,
        why,
        gated: true,
    }
}

pub const WORKLOADS: [Workload; 7] = [
    workload(
        "dac_dense",
        "DAC n=1024 fault-free on the dense columnar plane: delivery-bound, every other path bypassed",
    ),
    workload(
        "dbac_byz",
        "DBAC n=1024 f=16 with 16 Byzantine senders at the threshold degree: trim lists and per-link fabrication",
    ),
    workload(
        "trait_gallery",
        "five small runs on the boxed trait path, event log, piggyback, shuffled/quantized and CSR-kind adversaries: per-round overhead-bound",
    ),
    workload(
        "sparse_scale",
        "DAC n=4096 on sparse links with rotation ports, one shard: receiver-major delivery over run rows",
    ),
    // Not gated: two delivery shards on the reference box's two vCPUs run
    // 1.4-2.2x slower than one, by an amount that follows the host (the
    // README's known confounds): ten-run sets an hour apart had medians
    // 18 % apart. It stays a ledger workload (`ledger all` runs it,
    // `baseline.json` pins it); the gated `sparse_scale`'s traced run
    // reports `sim.shard_speedup` and checks the two-shard outcomes.
    Workload {
        name: "sparse_sharded",
        why: "the same runs as sparse_scale on two delivery shards: a gain for one shard count that costs the other shows",
        gated: false,
    },
    workload(
        "service_churn",
        "n=64 service instances under churn, then a must-abort partition stream: turnover- and watchdog-bound",
    ),
    workload(
        "lanes_mc",
        "64-trial lane words at n=64, one shared adversary fill versus one fill per lane: Monte-Carlo throughput",
    ),
];

/// Stable per-workload seed tag. `sparse_sharded` shares `sparse_scale`'s:
/// the two run identical operations, so their digests must be equal.
fn tag(workload: &str) -> u64 {
    match workload {
        "dac_dense" => 1,
        "dbac_byz" => 2,
        "trait_gallery" => 3,
        "sparse_scale" | "sparse_sharded" => 4,
        "service_churn" => 6,
        "lanes_mc" => 7,
        _ => 0,
    }
}

fn dac_dense(seed: u64, _index: u64, size: Size) -> RunSpec {
    let n = match size {
        Size::Full => 1024,
        Size::Smoke => 64,
    };
    RunSpec {
        plane: PlaneMode::Always,
        ..RunSpec::dac(n, 1e-9, seed)
    }
}

fn dbac_byz(seed: u64, _index: u64, size: Size) -> RunSpec {
    let (n, f, pend) = match size {
        Size::Full => (1024, 16, 30),
        Size::Smoke => (64, 8, 10),
    };
    RunSpec {
        algo: Algo::Dbac { pend },
        f,
        byzantine: f,
        adversary: AdversarySpec::DbacThreshold,
        plane: PlaneMode::Always,
        ..RunSpec::dac(n, 1e-3, seed)
    }
}

/// Gallery runs cycle `n` through five sizes in `[65, 129]` (smoke:
/// `[17, 33]`), so a cell's cost does not hinge on one word-boundary.
fn gallery_n(index: u64, size: Size) -> usize {
    let step = (index % 5) as usize;
    match size {
        Size::Full => 65 + 16 * step,
        Size::Smoke => 17 + 4 * step,
    }
}

fn dac_crash_spread(seed: u64, index: u64, size: Size) -> RunSpec {
    let n = gallery_n(index, size);
    let f = (n - 1) / 2;
    RunSpec {
        f,
        crashes: f,
        adversary: AdversarySpec::Spread { t: 3, d: n / 2 },
        plane: PlaneMode::Never,
        ..RunSpec::dac(n, 1e-3, seed)
    }
}

fn dbac_byz_events(seed: u64, index: u64, size: Size) -> RunSpec {
    let n = gallery_n(index, size);
    let f = (n - 1) / 5;
    RunSpec {
        algo: Algo::Dbac { pend: 12 },
        f,
        byzantine: f,
        adversary: AdversarySpec::DbacThreshold,
        events: true,
        ..RunSpec::dac(n, 1e-2, seed)
    }
}

fn piggyback_random(seed: u64, index: u64, size: Size) -> RunSpec {
    let n = gallery_n(index, size);
    RunSpec {
        algo: Algo::Piggyback { k: 3, pend: 12 },
        f: (n - 1) / 10,
        adversary: AdversarySpec::Random { p: 0.9 },
        ..RunSpec::dac(n, 1e-2, seed)
    }
}

fn quantized_shuffled(seed: u64, index: u64, size: Size) -> RunSpec {
    RunSpec {
        algo: Algo::QuantizedDac,
        adversary: AdversarySpec::OmitRoundRobin,
        order: DeliveryOrder::Shuffled(7),
        ..RunSpec::dac(gallery_n(index, size), 1e-3, seed)
    }
}

fn adaptive(seed: u64, index: u64, size: Size) -> RunSpec {
    let n = gallery_n(index, size);
    RunSpec {
        adversary: AdversarySpec::AdaptiveClosest { d: n / 2 },
        ..RunSpec::dac(n, 1e-3, seed)
    }
}

fn sparse_n(size: Size) -> usize {
    match size {
        Size::Full => 4096,
        Size::Smoke => 64,
    }
}

fn sparse(seed: u64, size: Size, adversary: AdversarySpec) -> RunSpec {
    RunSpec {
        adversary,
        links: LinkMode::Sparse,
        plane: PlaneMode::Always,
        lean: true,
        max_rounds: 200,
        ..RunSpec::dac(sparse_n(size), 1.0 / 32.0, seed)
    }
}

fn sparse_rotating(seed: u64, _index: u64, size: Size) -> RunSpec {
    let d = sparse_n(size) / 2 + 1;
    sparse(seed, size, AdversarySpec::Rotating { d })
}

fn sparse_staggered(seed: u64, _index: u64, size: Size) -> RunSpec {
    let d = sparse_n(size) / 2 + 1;
    sparse(seed, size, AdversarySpec::Staggered { d, groups: 4 })
}

fn sparse_rotating_sharded(seed: u64, index: u64, size: Size) -> RunSpec {
    RunSpec {
        shards: 2,
        ..sparse_rotating(seed, index, size)
    }
}

fn sparse_staggered_sharded(seed: u64, index: u64, size: Size) -> RunSpec {
    RunSpec {
        shards: 2,
        ..sparse_staggered(seed, index, size)
    }
}

const PLANE_DENSE: Path = Path {
    plane: true,
    sparse: false,
    shards: 1,
};
const TRAIT_DENSE: Path = Path {
    plane: false,
    sparse: false,
    shards: 1,
};

/// Builds the cells of `workload` (part of set-up: the service cells
/// construct their `ServiceRun` here). `None` for an unknown name.
pub fn cells(workload: &str, seed: u64, size: Size) -> Option<Vec<Box<dyn Cell>>> {
    let wseed = derive(seed, &[tag(workload)]);
    let cell_seed = |cell: u64| derive(wseed, &[cell]);
    // A standalone cell with the common defaults: two digested runs, one
    // warm-up run, no checker stage, whole runs replayed.
    let standalone = |name, weight, cell, make, path| StandaloneCell {
        name,
        weight,
        digest_ops: 2,
        warm_ops: 1,
        seed: cell_seed(cell),
        size,
        make,
        path,
        checker_window: None,
        replay_rounds: u64::MAX,
    };
    let gallery = |name, cell, make, path| StandaloneCell {
        digest_ops: 5, // one run at each of the five sizes
        warm_ops: 30,
        ..standalone(name, 0.2, cell, make, path)
    };
    let sparse = |name, cell, make, shards, replay_rounds| StandaloneCell {
        replay_rounds,
        ..standalone(
            name,
            0.5,
            cell,
            make,
            Path {
                plane: true,
                sparse: true,
                shards,
            },
        )
    };
    Some(match workload {
        "dac_dense" => vec![Box::new(StandaloneCell {
            warm_ops: 3,
            ..standalone("runs", 1.0, 0, dac_dense, PLANE_DENSE)
        })],
        "dbac_byz" => vec![Box::new(StandaloneCell {
            replay_rounds: 8,
            ..standalone("runs", 1.0, 0, dbac_byz, PLANE_DENSE)
        })],
        "trait_gallery" => vec![
            Box::new(StandaloneCell {
                checker_window: Some(3),
                ..gallery("dac_crash_spread", 0, dac_crash_spread, TRAIT_DENSE)
            }),
            Box::new(gallery("dbac_byz_events", 1, dbac_byz_events, TRAIT_DENSE)),
            Box::new(gallery(
                "piggyback_random",
                2,
                piggyback_random,
                TRAIT_DENSE,
            )),
            Box::new(gallery(
                "quantized_shuffled",
                3,
                quantized_shuffled,
                PLANE_DENSE,
            )),
            Box::new(gallery("adaptive", 4, adaptive, PLANE_DENSE)),
        ],
        "sparse_scale" => vec![
            Box::new(sparse("rotating", 0, sparse_rotating, 1, 3)),
            Box::new(sparse("staggered", 1, sparse_staggered, 1, 8)),
        ],
        "sparse_sharded" => vec![
            Box::new(sparse("rotating", 0, sparse_rotating_sharded, 2, 3)),
            Box::new(sparse("staggered", 1, sparse_staggered_sharded, 2, 8)),
        ],
        "service_churn" => vec![
            Box::new(ServiceCell::new(
                "decide",
                2.0 / 3.0,
                cell_seed(0),
                size,
                false,
            )),
            Box::new(ServiceCell::new(
                "abort",
                1.0 / 3.0,
                cell_seed(1),
                size,
                true,
            )),
        ],
        "lanes_mc" => vec![
            Box::new(LanesCell {
                name: "shared",
                weight: 0.5,
                seed: cell_seed(0),
                size,
                shared: true,
            }),
            Box::new(LanesCell {
                name: "perlane",
                weight: 0.5,
                seed: cell_seed(1),
                size,
                shared: false,
            }),
        ],
        _ => return None,
    })
}
