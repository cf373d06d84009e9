use adn_graph::LinkSink;
use adn_types::rng::SplitMix64;
use adn_types::NodeId;

use crate::{AdversaryView, LinkChoice};

/// The probabilistic message adversary sketched in §VII: each directed
/// link between delivering senders and any receiver is present
/// independently with probability `p` each round.
///
/// Gives no deterministic dynaDegree guarantee; experiments E12 measure the
/// *expected* rounds to ε-agreement as a function of `p`, and the checker
/// can certify a posteriori what degree a particular run realized.
#[derive(Debug, Clone)]
pub struct RandomLinks {
    p: f64,
    seed: u64,
    rng: SplitMix64,
}

impl RandomLinks {
    /// Creates the adversary with link probability `p` and its own
    /// deterministic stream.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        RandomLinks {
            p,
            seed,
            rng: SplitMix64::new(seed),
        }
    }

    /// The per-link probability.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl LinkChoice for RandomLinks {
    // audit: no-alloc
    fn fill<S: LinkSink>(&mut self, view: &AdversaryView<'_>, out: &mut S) {
        // One Bernoulli draw per (receiver, delivering sender ≠ receiver)
        // pair, ascending receiver-major — the draw sequence is part of
        // the per-seed determinism contract. Each kept link is an exact
        // draw with no range structure.
        for v in NodeId::all(view.params.n()) {
            let (rng, p) = (&mut self.rng, self.p);
            view.deliverers.for_each(|u| {
                if u != v && rng.next_bool(p) {
                    out.push_link(v, u);
                }
            });
        }
    }

    fn begin_instance(&mut self, instance: u64) {
        // Instance 0 reseeds to the construction stream, so a service's
        // first instance matches a plain single-instance run byte for
        // byte; later instances draw from disjoint deterministic streams.
        self.rng = SplitMix64::new(self.seed ^ instance.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }

    fn name(&self) -> &'static str {
        "random-links"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::record;

    #[test]
    fn extremes() {
        let s0 = record(&mut RandomLinks::new(0.0, 1), 5, 3);
        assert_eq!(s0.total_edges(), 0);
        let s1 = record(&mut RandomLinks::new(1.0, 1), 5, 3);
        assert_eq!(s1.total_edges(), 3 * 5 * 4);
    }

    #[test]
    fn density_tracks_p() {
        let s = record(&mut RandomLinks::new(0.4, 2), 20, 10);
        let possible = 10 * 20 * 19;
        let density = s.total_edges() as f64 / possible as f64;
        assert!((density - 0.4).abs() < 0.05, "density = {density}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = record(&mut RandomLinks::new(0.5, 7), 6, 4);
        let b = record(&mut RandomLinks::new(0.5, 7), 6, 4);
        assert_eq!(a, b);
        let c = record(&mut RandomLinks::new(0.5, 8), 6, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn begin_instance_reseeds_deterministically() {
        // A long-lived adversary at instance k must match a fresh one that
        // received the same begin_instance(k) — the service-vs-standalone
        // oracle contract.
        let mut long_lived = RandomLinks::new(0.5, 7);
        let _burn = record(&mut long_lived, 6, 4);
        long_lived.begin_instance(3);
        let a = record(&mut long_lived, 6, 4);
        let mut fresh = RandomLinks::new(0.5, 7);
        fresh.begin_instance(3);
        let b = record(&mut fresh, 6, 4);
        assert_eq!(a, b);
        // Instance 0 is the construction stream.
        let mut zero = RandomLinks::new(0.5, 7);
        zero.begin_instance(0);
        assert_eq!(
            record(&mut zero, 6, 4),
            record(&mut RandomLinks::new(0.5, 7), 6, 4)
        );
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_p_rejected() {
        RandomLinks::new(1.5, 0);
    }
}
