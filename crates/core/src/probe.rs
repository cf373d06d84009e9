//! Counters of what the delivery walk and Alg. 2's deferred word step did,
//! for tests to assert that the paths they mean to compare were taken.
//! They count in this crate's own tests and in debug builds — so that
//! integration tests, which see this crate as an ordinary dependency, can
//! read them under `cargo test` — and in a release build `bump` is empty
//! and [`counts`] says so, for the caller to skip its assert out loud.
//! Local to the thread that bumps them: a shard run on a scoped thread
//! counts where nobody reads.

/// Row-end settles that stored the pending senders by rank.
pub const RANK_SETTLES: usize = 0;
/// Settles that stored each pending sender on its own.
pub const SENDER_SETTLES: usize = 1;
/// Ranks gathered plus blocks tested by the rank walks.
pub const RANK_VISITS: usize = 2;
/// Settles onto lists that did not yet hold `f + 1` values.
pub const SETTLES_ONTO_PARTIAL_LISTS: usize = 3;
/// Non-empty stretches the delivery walk fed through `RowKernel::word`.
pub const WORD_STEPS: usize = 4;
/// Conditional senders that cut a chunk between two Present ones.
pub const CUT_WORDS: usize = 5;
/// Word-walk rounds whose wire held more phases than the index does.
pub const UNINDEXED_ROUNDS: usize = 6;
/// Receivers the walk left at a stale link (the stale-link stop).
pub const STALE_STOPS: usize = 7;
/// Quorums whose bounds were read by merging the lists with the pending
/// senders, storing nothing.
pub const QUORUM_BOUNDS: usize = 8;
/// Per-link Byzantine fabrications (`messages_into` calls), counted on the
/// stepping thread, which fabricates a round's links before delivery.
pub const FABRICATIONS: usize = 9;

/// How many counters there are.
pub const COUNTERS: usize = 10;

#[cfg(any(test, debug_assertions))]
thread_local! {
    static COUNTS: std::cell::Cell<[u64; COUNTERS]> = const { std::cell::Cell::new([0; COUNTERS]) };
}

/// Adds one to `counter`.
#[inline(always)]
pub fn bump(counter: usize) {
    add(counter, 1);
}

/// Adds `k` to `counter`.
#[inline(always)]
pub fn add(counter: usize, k: u64) {
    #[cfg(any(test, debug_assertions))]
    COUNTS.set({
        let mut counts = COUNTS.get();
        counts[counter] += k;
        counts
    });
    let _ = (counter, k);
}

/// This thread's counters, by the constants above — or `None` in a build
/// that does not count.
pub fn counts() -> Option<[u64; COUNTERS]> {
    #[cfg(any(test, debug_assertions))]
    return Some(COUNTS.get());
    #[cfg(not(any(test, debug_assertions)))]
    None
}
