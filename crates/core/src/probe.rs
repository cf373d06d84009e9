//! Counters of what Alg. 2's deferred word step did, for tests to assert
//! that the paths they mean to compare were taken. They count in this
//! crate's own tests and in debug builds — so that `adn-sim`'s word-walk
//! fuzz, which sees this crate as an ordinary dependency, can read them
//! under `cargo test` — and in a release build `bump` is empty and
//! [`counts`] says so, for the caller to skip its assert out loud. Local
//! to the thread that delivers: a shard run on a scoped thread counts
//! where nobody reads.

/// Settles that walked the round's senders by rank.
pub const RANK_SETTLES: usize = 0;
/// Settles that stored each pending sender on its own.
pub const SENDER_SETTLES: usize = 1;
/// Senders probed plus blocks tested by the rank walks.
pub const RANK_VISITS: usize = 2;
/// Settles onto lists that did not yet hold `f + 1` values.
pub const SETTLES_ONTO_PARTIAL_LISTS: usize = 3;

#[cfg(any(test, debug_assertions))]
thread_local! {
    static COUNTS: std::cell::Cell<[u64; 4]> = const { std::cell::Cell::new([0; 4]) };
}

/// Adds one to `counter`.
#[inline(always)]
pub(crate) fn bump(counter: usize) {
    #[cfg(any(test, debug_assertions))]
    COUNTS.set({
        let mut counts = COUNTS.get();
        counts[counter] += 1;
        counts
    });
    let _ = counter;
}

/// This thread's counters, by the constants above — or `None` in a build
/// that does not count.
pub fn counts() -> Option<[u64; 4]> {
    #[cfg(any(test, debug_assertions))]
    return Some(COUNTS.get());
    #[cfg(not(any(test, debug_assertions)))]
    None
}
