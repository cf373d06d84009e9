//! The crate's threading, all of it on `std::thread::scope`: parallel
//! multi-trial execution with deterministic, input-ordered results
//! ([`TrialPool`]), and the per-round fan-out of one sharded delivery
//! ([`fan_out`]).
//!
//! Every multi-seed experiment runs the same shape of work: N independent
//! simulations (different seeds or configurations), each fully
//! deterministic, whose results are then aggregated *in input order* so
//! that report text and floating-point folds are bit-identical to a serial
//! run. [`TrialPool`] provides exactly that contract on top of
//! `std::thread::scope` — no work-stealing library, no shared mutable
//! state, no ordering surprises:
//!
//! * trials are claimed from an atomic cursor, so threads stay busy even
//!   when per-trial runtimes vary wildly;
//! * each worker keeps `(index, result)` pairs privately and the pool
//!   re-assembles them by index afterwards, so the returned `Vec` is in
//!   input order regardless of scheduling;
//! * a panicking trial propagates its panic to the caller (after the
//!   other workers finish their current trial), like the serial loop
//!   would.
//!
//! Simulations themselves are built *inside* the trial closure — they are
//! not `Send` (coalition strategies share `Rc` state) and never cross a
//! thread boundary.
//!
//! ```
//! use adn_sim::{factories, Simulation, TrialPool};
//! use adn_types::Params;
//!
//! let params = Params::fault_free(5, 1e-3).unwrap();
//! let rounds = TrialPool::new().run_seeds(&[1, 2, 3], |seed| {
//!     Simulation::builder(params)
//!         .inputs_random(seed)
//!         .algorithm(factories::dac(params))
//!         .run()
//!         .rounds()
//! });
//! assert_eq!(rounds.len(), 3); // one result per seed, in seed order
//! ```

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the one file that owns threading (crates/clippy.toml confines it here)"
)]

use std::sync::atomic::{AtomicUsize, Ordering};

use adn_core::LANE_WIDTH;

use crate::builder::SimBuilder;
use crate::lanes::{scalar_lane_outcome, LaneOutcome, LaneRun};

/// A scoped thread pool for independent deterministic trials.
#[derive(Debug, Clone)]
pub struct TrialPool {
    threads: usize,
}

impl TrialPool {
    /// A pool sized to the machine (`available_parallelism`, min 1).
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        TrialPool { threads }
    }

    /// A pool with an explicit worker count (1 = serial execution on the
    /// calling thread).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads >= 1, "a pool needs at least one worker");
        TrialPool { threads }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `run` once per trial and returns the results **in input
    /// order** — parallel execution is observationally identical to
    /// `trials.iter().map(run).collect()`.
    pub fn run<T, R, F>(&self, trials: &[T], run: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if self.threads == 1 || trials.len() <= 1 {
            return trials.iter().map(run).collect();
        }
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(trials.len());
        let claimed = fan_out((0..workers).map(|_| Vec::new()), |_, got| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= trials.len() {
                break;
            }
            got.push((i, run(&trials[i])));
        });
        let mut claimed: Vec<(usize, R)> = claimed.into_iter().flatten().collect();
        claimed.sort_unstable_by_key(|&(i, _)| i);
        claimed.into_iter().map(|(_, r)| r).collect()
    }

    /// Runs one simulation per trial through the lane path where the
    /// trials allow it, returning per-trial [`LaneOutcome`]s **in input
    /// order** — the batch front-end of [`LaneRun`].
    ///
    /// Trials are chunked into consecutive runs of up to 64; each chunk
    /// becomes one [`LaneRun`] when its builders pass the lane gate and
    /// falls back to scalar simulations (see
    /// [`scalar_lane_outcome`](crate::scalar_lane_outcome)) when not —
    /// either way every trial's result is byte-identical to its scalar
    /// single-trial run. Chunks are distributed over the pool's workers
    /// like any other trial batch.
    pub fn run_lanes<T, F>(&self, trials: &[T], build: F) -> Vec<LaneOutcome>
    where
        T: Sync,
        F: Fn(&T) -> SimBuilder + Sync,
    {
        let chunks: Vec<(usize, usize)> = (0..trials.len())
            .step_by(LANE_WIDTH)
            .map(|lo| (lo, (lo + LANE_WIDTH).min(trials.len())))
            .collect();
        let per_chunk = self.run(&chunks, |&(lo, hi)| {
            let builders: Vec<SimBuilder> = trials[lo..hi].iter().map(&build).collect();
            match LaneRun::try_new(builders) {
                Ok(run) => run.run(),
                Err(builders) => builders.into_iter().map(scalar_lane_outcome).collect(),
            }
        });
        per_chunk.into_iter().flatten().collect()
    }

    /// [`TrialPool::run`] specialized to the ubiquitous seed sweep.
    pub fn run_seeds<R, F>(&self, seeds: &[u64], run: F) -> Vec<R>
    where
        R: Send,
        F: Fn(u64) -> R + Sync,
    {
        self.run(seeds, |&s| run(s))
    }
}

impl Default for TrialPool {
    fn default() -> Self {
        TrialPool::new()
    }
}

/// Runs `job(i, &mut part)` for every part of one round's work — part 0
/// on the calling thread, part `i ≥ 1` on a scoped thread of its own, each
/// part **moved** into its thread — and hands the parts back in input
/// order once all of them finished.
///
/// A panic in any part surfaces on the caller, and only after every other
/// part is done: the scope joins its threads before it unwinds (part 0's
/// panic) and a spawned part's payload is resumed from its join. Spawning
/// allocates (a packet and a handle per thread), so a caller that must
/// stay allocation-free runs a single part inline instead of coming here.
pub(crate) fn fan_out<C, F>(parts: impl IntoIterator<Item = C>, job: F) -> Vec<C>
where
    C: Send,
    F: Fn(usize, &mut C) + Sync,
{
    let mut parts = parts.into_iter();
    let Some(mut first) = parts.next() else {
        return Vec::new();
    };
    std::thread::scope(|scope| {
        let job = &job;
        let spawned: Vec<_> = parts
            .enumerate()
            .map(|(i, mut part)| {
                scope.spawn(move || {
                    job(i + 1, &mut part);
                    part
                })
            })
            .collect();
        job(0, &mut first);
        let rest = spawned.into_iter().map(|handle| {
            let joined = handle.join();
            joined.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        });
        std::iter::once(first).chain(rest).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    #[test]
    fn results_come_back_in_input_order() {
        // Reverse the natural completion order: early trials sleep longest.
        let trials: Vec<u64> = (0..16).collect();
        let got = TrialPool::with_threads(4).run(&trials, |&i| {
            std::thread::sleep(std::time::Duration::from_millis(16 - i));
            i * 10
        });
        assert_eq!(got, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let trials: Vec<u64> = (0..40).collect();
        let f = |&x: &u64| x.wrapping_mul(0x9E37_79B9).rotate_left(13);
        let serial = TrialPool::with_threads(1).run(&trials, f);
        let parallel = TrialPool::with_threads(8).run(&trials, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = TrialPool::new();
        assert!(pool.run(&[] as &[u64], |&x| x).is_empty());
        assert_eq!(pool.run(&[7u64], |&x| x + 1), vec![8]);
    }

    #[test]
    fn pool_reports_thread_count() {
        assert_eq!(TrialPool::with_threads(3).threads(), 3);
        assert!(TrialPool::new().threads() >= 1);
        assert!(TrialPool::default().threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let trials: Vec<u64> = (0..8).collect();
        TrialPool::with_threads(4).run(&trials, |&i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = TrialPool::with_threads(0);
    }

    /// The payload `fan_out` unwound with, as the `&str` the panic carried.
    fn panic_of(run: impl FnOnce()) -> &'static str {
        let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("panic must propagate");
        payload.downcast_ref::<&str>().copied().unwrap_or_default()
    }

    #[test]
    fn fan_out_runs_every_shard_exactly_once_per_call() {
        // The barrier only opens when all four parts run at once — each on
        // a thread of its own.
        let all_running = Barrier::new(4);
        let hits = [const { AtomicUsize::new(0) }; 4];
        for round in 1..=20 {
            let back = fan_out(0..4usize, |i, part| {
                assert_eq!(*part, i, "part i goes to job i");
                all_running.wait();
                hits[i].fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(back, [0, 1, 2, 3], "handed back in input order");
            assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == round));
        }
        assert!(fan_out(0..0usize, |_, _| unreachable!()).is_empty());
    }

    #[test]
    fn fan_out_parts_borrow_round_local_state() {
        let mut totals = vec![0usize; 3];
        for round in 0..10 {
            let bonus = round % 2; // a local the shared job borrows
            fan_out(totals.iter_mut(), |i, cell| **cell += i + 1 + bonus);
        }
        assert_eq!(totals, vec![15, 25, 35]);
    }

    #[test]
    fn fan_out_spawned_panic_surfaces_after_all_shards_finished() {
        let all_running = Barrier::new(3);
        let finished = [const { AtomicBool::new(false) }; 3];
        let message = panic_of(|| {
            fan_out(0..3usize, |i, _| {
                all_running.wait();
                if i == 2 {
                    panic!("shard 2 exploded");
                }
                finished[i].store(true, Ordering::SeqCst);
            });
        });
        assert_eq!(message, "shard 2 exploded");
        assert!(finished[0].load(Ordering::SeqCst) && finished[1].load(Ordering::SeqCst));
    }

    #[test]
    fn fan_out_shard_zero_panic_waits_for_spawned_shards() {
        // Shard 1 cannot finish before shard 0 is at its panic; by the time
        // the panic reaches the caller, shard 1 has finished all the same —
        // its borrow of `finished` never outlives the call.
        let both_running = Barrier::new(2);
        let finished = AtomicBool::new(false);
        let message = panic_of(|| {
            fan_out(0..2usize, |i, _| {
                both_running.wait();
                if i == 0 {
                    panic!("caller shard exploded");
                }
                std::thread::sleep(std::time::Duration::from_millis(30));
                finished.store(true, Ordering::SeqCst);
            });
        });
        assert_eq!(message, "caller shard exploded");
        assert!(finished.load(Ordering::SeqCst));
    }
}
