//! What §V changes between Alg. 1 and Alg. 2, as a [`Rule`] of the one
//! columnar plane: the jump, the list length, the batch order, the quorum
//! and `pend`, and which word step the row kernel takes.

use std::fmt;

use adn_types::Params;

/// What §V changes between Alg. 1 and Alg. 2, and nothing else: the
/// columnar plane — struct, column views, per-link step, row kernel, the
/// whole [`AlgorithmPlane`](crate::AlgorithmPlane) impl — is written
/// once over `R: Rule`
/// ([`Columnar`](super::Columnar)). Sealed: [`DacRule`] and [`DbacRule`]
/// are the two rules.
pub trait Rule: sealed::Sealed + fmt::Debug + Clone + 'static {
    /// [`AlgorithmPlane::name`](crate::AlgorithmPlane::name) of the plane.
    const NAME: &'static str;

    /// `LanePlane::name` of [`Lanes`](crate::Lanes) over the plane.
    const LANES_NAME: &'static str;

    /// Alg. 1 line 6: a message from a later phase is adopted wholesale —
    /// value, phase, fresh `R_i`. Alg. 2 never skips a phase (a forged
    /// huge one cannot drag the node forward): it counts the message like
    /// one of its own phase.
    const JUMPS: bool;

    /// Length of `R_low` / `R_high`: `Some(1)` for Alg. 1, whose
    /// `(min, max)` *is* Alg. 2's pair of lists at length 1 (the `trim`
    /// module's tests pin it); `None` for Alg. 2's `f + 1`
    /// ([`Params::dbac_list_len`]). A constant where it can be: the
    /// per-link step indexes the slabs by it.
    const LIST_LEN: Option<usize>;

    /// Whether a multi-message (fabricated) batch is resolved in ascending
    /// phase order, as `Dbac::receive` does; Alg. 1 takes it as it comes.
    const ASCENDING_BATCHES: bool;

    /// What the row kernel's word step
    /// ([`RowKernel::word`](crate::RowKernel::word)) does with a
    /// word's values. Alg. 1's folds them in at once: `(min, max)` need
    /// only the word's extrema. Alg. 2's lists are order statistics of
    /// everything stored since `RESET()`, so its step counts the links and
    /// stores their values later, by rank, once per quorum (see "Count
    /// now, store later" in the plane's `row.rs`).
    const DEFERS_STORES: bool;

    /// Distinct same-phase contributors, the node itself included, that
    /// complete a phase: `⌊n/2⌋ + 1` / `⌊(n+3f)/2⌋ + 1`.
    fn quorum(params: Params) -> usize;

    /// The paper's output phase: Eq. (2) / Eq. (6).
    fn pend(params: Params) -> u64;
}

/// Alg. 1 ([`Dac`](crate::Dac)) as a [`Rule`].
#[derive(Debug, Clone, Copy)]
pub struct DacRule;

/// Alg. 2 ([`Dbac`](crate::Dbac)) as a [`Rule`].
#[derive(Debug, Clone, Copy)]
pub struct DbacRule;

impl Rule for DacRule {
    const NAME: &'static str = "dac";
    const LANES_NAME: &'static str = "dac-lanes";
    const JUMPS: bool = true;
    const LIST_LEN: Option<usize> = Some(1);
    const ASCENDING_BATCHES: bool = false;
    const DEFERS_STORES: bool = false;

    fn quorum(params: Params) -> usize {
        params.dac_quorum()
    }

    fn pend(params: Params) -> u64 {
        params.dac_pend()
    }
}

impl Rule for DbacRule {
    const NAME: &'static str = "dbac";
    const LANES_NAME: &'static str = "dbac-lanes";
    const JUMPS: bool = false;
    const LIST_LEN: Option<usize> = None;
    const ASCENDING_BATCHES: bool = true;
    const DEFERS_STORES: bool = true;

    fn quorum(params: Params) -> usize {
        params.dbac_quorum()
    }

    fn pend(params: Params) -> u64 {
        params.dbac_pend()
    }
}

/// Seals [`Rule`], and holds the members that speak of this module's
/// private types: the shard arm a rule's column views travel in, and what
/// a rule with [`Rule::DEFERS_STORES`] adds to a row — state and two
/// hooks, all of them nothing for Alg. 1, whose monomorphization of the
/// row kernel must not carry an instruction of Alg. 2's (a DAC receiver's
/// whole round is a few hundred nanoseconds). Nothing outside the crate
/// can name `Sealed`, which is what the lint below cannot see.
#[allow(
    private_interfaces,
    reason = "`Sealed` is unnameable outside the crate, so its private types leak nowhere"
)]
pub(super) mod sealed {
    use super::{DacRule, DbacRule};
    use crate::plane::columnar::Cols;
    use crate::plane::row::{Ranked, Row};
    use crate::plane::{word_per_link, ShardRepr, StagedWire};
    use adn_types::Value;

    /// What a row of Alg. 2 keeps between its word steps and their settle.
    /// (`pub`, as an associated type's value must be; unnameable, as the
    /// trait is.)
    #[derive(Debug)]
    pub struct Deferred<'a> {
        /// The senders a word step counted whose wire values are not in
        /// the lists yet, by id. All zero again after every settle.
        pub(in crate::plane) pending: &'a mut [u64],
        /// How many they are.
        pub(in crate::plane) count: u32,
        pub(in crate::plane) ranked: Option<Ranked<'a>>,
    }

    pub trait Sealed: Sized {
        /// What a row keeps between its word steps and their settle.
        type Deferred<'a>;

        fn shard(cols: Cols<'_, Self>) -> ShardRepr<'_>;

        /// A row's [`Sealed::Deferred`], nothing pending: over the shard's
        /// pending row, against what [`crate::plane::PlaneShard::index_round`]
        /// left.
        fn deferred<'a>(pending: &'a mut [u64], ranked: Option<Ranked<'a>>) -> Self::Deferred<'a>;

        /// Puts what the row's word steps left pending into its lists.
        fn settle(row: &mut Row<'_, Self>);

        /// `(max(R_low), min(R_high))` at a quorum, over the lists and
        /// whatever the row's word steps left pending.
        fn quorum_bounds(row: &mut Row<'_, Self>) -> (Value, Value);

        /// The word step of a rule with [`super::Rule::DEFERS_STORES`]:
        /// by the index the row's shard was handed, link by link off
        /// `wire` if it was handed none.
        fn word_deferred(row: &mut Row<'_, Self>, w: usize, bits: u64, wire: &StagedWire<'_>);
    }

    impl Sealed for DacRule {
        type Deferred<'a> = ();

        fn shard(cols: Cols<'_, Self>) -> ShardRepr<'_> {
            ShardRepr::Dac(cols)
        }

        #[inline(always)]
        fn deferred<'a>(_: &'a mut [u64], _: Option<Ranked<'a>>) {}

        #[inline(always)]
        fn settle(_: &mut Row<'_, Self>) {}

        /// Alg. 1's lists are its running `(min, max)`, held in the row.
        #[inline(always)]
        fn quorum_bounds(row: &mut Row<'_, Self>) -> (Value, Value) {
            (row.lo, row.hi)
        }

        #[inline(always)]
        fn word_deferred(_: &mut Row<'_, Self>, _: usize, _: u64, _: &StagedWire<'_>) {}
    }

    impl Sealed for DbacRule {
        type Deferred<'a> = Deferred<'a>;

        fn shard(cols: Cols<'_, Self>) -> ShardRepr<'_> {
            ShardRepr::Dbac(cols)
        }

        #[inline(always)]
        fn deferred<'a>(pending: &'a mut [u64], ranked: Option<Ranked<'a>>) -> Deferred<'a> {
            Deferred {
                pending,
                count: 0,
                ranked,
            }
        }

        #[inline(always)]
        fn settle(row: &mut Row<'_, Self>) {
            row.settle();
        }

        #[inline(always)]
        fn quorum_bounds(row: &mut Row<'_, Self>) -> (Value, Value) {
            row.quorum_bounds()
        }

        #[inline(always)]
        fn word_deferred(row: &mut Row<'_, Self>, w: usize, bits: u64, wire: &StagedWire<'_>) {
            match row.deferred.ranked {
                Some(Ranked { index, .. }) => row.count_word(w, bits, index),
                None => word_per_link(row, w, bits, wire),
            }
        }
    }
}
