use std::fmt;

use adn_types::Message;

/// Cumulative traffic meter for one execution.
///
/// The paper bounds each link to one `O(log n)`-bit message per round
/// (§II-A) and discusses trading bandwidth for convergence rate via
/// piggybacking (§VII). `Traffic` counts delivered messages and bits so
/// experiments can report both sides of that trade-off. One "delivery" is
/// one sender→receiver link firing in one round; a piggybacked batch of
/// `k` messages on one link counts as one delivery of `k * 128` bits.
///
/// ```
/// use adn_net::Traffic;
///
/// let mut t = Traffic::default();
/// t.record_delivery(1); // plain DAC/DBAC message
/// t.record_delivery(3); // piggybacked batch of 3
/// assert_eq!(t.deliveries(), 2);
/// assert_eq!(t.messages(), 4);
/// assert_eq!(t.bits(), 4 * 128);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    deliveries: u64,
    messages: u64,
    bits: u64,
    max_batch: u64,
}

impl Traffic {
    /// A fresh meter with all counters at zero.
    pub fn new() -> Self {
        Traffic::default()
    }

    /// Records one link firing with a batch of `batch_len` messages.
    ///
    /// All counters saturate at `u64::MAX` instead of wrapping: a
    /// 100 000-node run delivers ~5·10⁹ links *per round*, so the
    /// `links · batch · 128` bit product is the first place a silent
    /// wraparound would corrupt an experiment's report.
    pub fn record_delivery(&mut self, batch_len: usize) {
        self.record_uniform_deliveries(1, batch_len);
    }

    /// Records `links` simultaneous link firings that each carried the
    /// same batch of `batch_len` messages.
    /// Equivalent to calling `record_delivery(batch_len)` `links` times.
    /// Saturates like [`Traffic::record_delivery`].
    pub fn record_uniform_deliveries(&mut self, links: u64, batch_len: usize) {
        if links > 0 {
            let k = batch_len as u64;
            let messages = links.saturating_mul(k);
            self.deliveries = self.deliveries.saturating_add(links);
            self.messages = self.messages.saturating_add(messages);
            self.bits = self
                .bits
                .saturating_add(messages.saturating_mul(Message::WIRE_BITS));
            self.max_batch = self.max_batch.max(k);
        }
    }

    /// Number of link-round firings (one per delivered batch).
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Total individual messages delivered.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Total bits delivered (`messages * 128`).
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Largest batch observed on a single link in a single round — the
    /// per-link bandwidth requirement of the execution.
    pub fn max_batch(&self) -> u64 {
        self.max_batch
    }

    /// Largest per-link per-round bits, i.e. `max_batch * 128`.
    pub fn peak_link_bits(&self) -> u64 {
        self.max_batch * Message::WIRE_BITS
    }

    /// Merges another meter into this one (counters add saturating,
    /// peaks max) — how a run adds each round's traffic to its total.
    pub fn merge(&mut self, other: &Traffic) {
        self.deliveries = self.deliveries.saturating_add(other.deliveries);
        self.messages = self.messages.saturating_add(other.messages);
        self.bits = self.bits.saturating_add(other.bits);
        self.max_batch = self.max_batch.max(other.max_batch);
    }
}

impl fmt::Display for Traffic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} deliveries, {} msgs, {} bits (peak link {} bits/round)",
            self.deliveries,
            self.messages,
            self.bits,
            self.peak_link_bits()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut t = Traffic::new();
        t.record_delivery(1);
        t.record_delivery(1);
        t.record_delivery(5);
        assert_eq!(t.deliveries(), 3);
        assert_eq!(t.messages(), 7);
        assert_eq!(t.bits(), 7 * 128);
        assert_eq!(t.max_batch(), 5);
        assert_eq!(t.peak_link_bits(), 5 * 128);
    }

    #[test]
    fn empty_batch_counts_delivery_only() {
        let mut t = Traffic::new();
        t.record_delivery(0);
        assert_eq!(t.deliveries(), 1);
        assert_eq!(t.messages(), 0);
        assert_eq!(t.bits(), 0);
    }

    #[test]
    fn uniform_deliveries_match_repeated_singles() {
        let mut bulk = Traffic::new();
        bulk.record_uniform_deliveries(5, 2);
        bulk.record_uniform_deliveries(0, 9); // no links: must not touch peaks
        let mut singles = Traffic::new();
        for _ in 0..5 {
            singles.record_delivery(2);
        }
        assert_eq!(bulk, singles);
    }

    #[test]
    fn merge_adds_and_maxes() {
        let mut a = Traffic::new();
        a.record_delivery(2);
        let mut b = Traffic::new();
        b.record_delivery(4);
        a.merge(&b);
        assert_eq!(a.deliveries(), 2);
        assert_eq!(a.messages(), 6);
        assert_eq!(a.max_batch(), 4);
    }

    #[test]
    fn counters_saturate_at_the_boundary_instead_of_wrapping() {
        let mut t = Traffic::new();
        // One bulk record already past any realistic scale: the bit
        // product alone overflows u64 by a factor of ~128.
        t.record_uniform_deliveries(u64::MAX / 2, 3);
        assert_eq!(t.bits(), u64::MAX, "bits must pin, not wrap");
        let messages_before = t.messages();
        t.record_uniform_deliveries(u64::MAX / 2, 3);
        assert!(t.messages() >= messages_before, "no wraparound");
        assert_eq!(t.deliveries(), u64::MAX - 1);
        t.record_delivery(1);
        t.record_delivery(1);
        assert_eq!(t.deliveries(), u64::MAX, "per-link adds saturate too");
        let mut merged = Traffic::new();
        merged.record_delivery(1);
        merged.merge(&t);
        assert_eq!(merged.deliveries(), u64::MAX, "merge saturates");
    }

    #[test]
    fn display_mentions_bits() {
        let mut t = Traffic::new();
        t.record_delivery(1);
        assert!(t.to_string().contains("128 bits"));
    }
}
