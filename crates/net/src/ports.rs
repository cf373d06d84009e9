use std::fmt;
// audit: allow(layering) — OnceLock is lock-free lazy init, not threading; the table and transpose caches must be shareable across TrialPool workers
use std::sync::OnceLock;

use adn_types::rng::SplitMix64;
use adn_types::{NodeId, Port};

/// All `n` per-receiver port bijections of an execution.
///
/// `port_of(receiver, sender)` answers "on which local port does
/// `receiver` hear `sender`?". The numbering is static for the whole
/// execution (§II-A) and, in the random variant, different at every
/// receiver — so no two nodes need to agree on what "port 3" means.
///
/// A Byzantine sender cannot tamper with the numbering (the underlying
/// communication layer is authenticated in the paper's model), so the
/// substrate — not the sender — decides which port a fabricated message
/// arrives on.
///
/// Three representations, chosen by constructor:
///
/// * [`PortNumbering::random`] — an explicit `n × n` table of independent
///   uniform bijections, the strongest anonymity model. O(n²) memory, so
///   it is capped at [`PortNumbering::MAX_DENSE_N`] nodes — and **lazy**:
///   the constructor keeps the seed, and the table is built by the first
///   lookup (or [`PortNumbering::materialize`]), so a run that never
///   reads a port never pays for it;
/// * [`PortNumbering::rotation`] — per-receiver private rotations
///   `port = (sender + bᵣ) mod n`: still a different bijection at every
///   receiver, but O(n) memory and one add per lookup — the numbering
///   the sparse large-`n` delivery path uses;
/// * [`PortNumbering::identity`] — `port = sender` arithmetically, O(1)
///   memory; for tests that need predictable ports.
///
/// ```
/// use adn_net::PortNumbering;
/// use adn_types::NodeId;
///
/// let pn = PortNumbering::random(4, 42);
/// // Bijection: the four senders occupy four distinct ports at receiver 0.
/// let r = NodeId::new(0);
/// let mut ports: Vec<_> = (0..4).map(|s| pn.port_of(r, NodeId::new(s))).collect();
/// ports.sort();
/// ports.dedup();
/// assert_eq!(ports.len(), 4);
/// ```
#[derive(Clone)]
pub struct PortNumbering {
    n: usize,
    repr: Repr,
    /// The transposed dense table, sender-major:
    /// `transposed[sender * n + receiver] = port`, built lazily by the
    /// first [`PortNumbering::ports_to`] call. **Replay-only:** every
    /// engine path delivers receiver-major and reads a receiver's own
    /// [`PortNumbering::ports_of`], so no simulation materializes this table
    /// (`tests/alloc_free.rs` pins that); only the benchmark's frozen
    /// sender-major stage replay still asks for sender columns.
    transposed: OnceLock<Vec<Port>>,
}

#[derive(Clone)]
enum Repr {
    /// Flat row-major table, `map[receiver * n + sender] = port`, a pure
    /// function of `(n, seed)` built on first use (see
    /// [`PortNumbering::materialize`]).
    ///
    /// One indexed load per lookup — `port_of` sits in the per-link
    /// delivery loops, where the former `Vec<Vec<usize>>` cost a second
    /// pointer chase per delivered message.
    Table { seed: u64, map: OnceLock<Vec<Port>> },
    /// `port = sender`, computed arithmetically.
    Identity,
    /// `port = (sender + offset[receiver]) mod n`, offsets seeded
    /// independently per receiver.
    Rotation(Vec<u32>),
}

/// Both caches are pure functions of what the constructor was given, so
/// identity (and hashing-adjacent uses) compare `n` and that only — a
/// random numbering is its `(n, seed)`, built or not. Numberings built by
/// different constructors compare unequal even where their mappings
/// happen to coincide.
impl PartialEq for PortNumbering {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && match (&self.repr, &other.repr) {
                (Repr::Table { seed: a, .. }, Repr::Table { seed: b, .. }) => a == b,
                (Repr::Identity, Repr::Identity) => true,
                (Repr::Rotation(a), Repr::Rotation(b)) => a == b,
                _ => false,
            }
    }
}

impl Eq for PortNumbering {}

impl PortNumbering {
    /// Largest `n` for which a dense `n × n` port table — the
    /// [`PortNumbering::random`] representation, the only one a
    /// simulation ever holds, or the replay-only
    /// [`PortNumbering::ports_to`] transpose — may be materialized
    /// (128 MB of ports at the cap). Larger systems must use
    /// [`PortNumbering::rotation`] (the simulation builder switches
    /// automatically), whose rows are arithmetic.
    pub const MAX_DENSE_N: usize = 1 << 12;

    /// The identity numbering: every receiver maps sender `j` to port `j`.
    ///
    /// Handy in unit tests where ports must be predictable. Correct
    /// algorithms may not exploit this (they cannot know it), and the
    /// integration tests run multiple numberings to check invariance.
    /// O(1) memory at any `n`.
    pub fn identity(n: usize) -> Self {
        PortNumbering {
            n,
            repr: Repr::Identity,
            transposed: OnceLock::new(),
        }
    }

    /// An independent uniformly random bijection at every receiver,
    /// deterministic in `seed`. Builds nothing yet: the `n²`-port table is
    /// filled by the first lookup, or ahead of time by
    /// [`PortNumbering::materialize`].
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`PortNumbering::MAX_DENSE_N`] — the table
    /// is `n²` words, and failing fast with a pointer at
    /// [`PortNumbering::rotation`] beats an OOM abort deep inside an
    /// experiment.
    pub fn random(n: usize, seed: u64) -> Self {
        assert!(
            n <= Self::MAX_DENSE_N,
            "PortNumbering::random(n = {n}) would allocate an n×n port table \
             (cap: {}); large systems should use PortNumbering::rotation",
            Self::MAX_DENSE_N
        );
        PortNumbering {
            n,
            repr: Repr::Table {
                seed,
                map: OnceLock::new(),
            },
            transposed: OnceLock::new(),
        }
    }

    /// The random table of `(n, seed)`: row `r` is the `r`-th
    /// [`SplitMix64::permutation`] of one stream, drawn in place.
    fn random_table(n: usize, seed: u64) -> Vec<Port> {
        let mut rng = SplitMix64::new(seed);
        let mut map = Vec::with_capacity(n * n);
        for r in 0..n {
            map.extend((0..n).map(Port::new));
            rng.partial_shuffle(&mut map[r * n..], n);
        }
        map
    }

    /// Builds the random table now if this numbering has one and it is
    /// not built yet (a no-op for the arithmetic representations). Whoever
    /// will read ports inside a timed or allocation-free section — the
    /// simulation builder, for runs whose kernels or event log read them —
    /// calls this at set-up, so the first lookup does not pay for it.
    pub fn materialize(&self) {
        if let Repr::Table { seed, map } = &self.repr {
            self.table(*seed, map);
        }
    }

    /// The table behind a [`Repr::Table`], built on first use.
    #[inline]
    fn table<'a>(&self, seed: u64, map: &'a OnceLock<Vec<Port>>) -> &'a [Port] {
        map.get_or_init(|| Self::random_table(self.n, seed))
    }

    /// Whether the random table is built: `false` for a
    /// [`PortNumbering::random`] numbering no lookup has touched yet (and
    /// for the arithmetic representations, which have none) — for tests
    /// pinning that a run which reads no port builds no table.
    pub fn has_table(&self) -> bool {
        matches!(&self.repr, Repr::Table { map, .. } if map.get().is_some())
    }

    /// A private rotation at every receiver: receiver `r` hears sender
    /// `s` on port `(s + bᵣ) mod n`, with the offsets `bᵣ` drawn
    /// independently from `seed`. Every receiver still has its own
    /// bijection — a node cannot translate its port numbers into anyone
    /// else's — but the whole numbering is `n` words instead of `n²`,
    /// which is what lets executions at `n = 100 000+` keep the paper's
    /// anonymity model without a multi-gigabyte table.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n` does not fit the 32-bit offset encoding.
    pub fn rotation(n: usize, seed: u64) -> Self {
        assert!(n > 0, "a rotation numbering needs at least one node");
        assert!(n < u32::MAX as usize, "n = {n} exceeds the 32-bit id space");
        let mut rng = SplitMix64::new(seed);
        let offsets = (0..n).map(|_| rng.next_index(n) as u32).collect();
        PortNumbering {
            n,
            repr: Repr::Rotation(offsets),
            transposed: OnceLock::new(),
        }
    }

    /// Number of nodes (and of ports per receiver).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The port on which `receiver` hears `sender`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    #[inline]
    pub fn port_of(&self, receiver: NodeId, sender: NodeId) -> Port {
        self.ports_of(receiver).port(sender)
    }

    /// `receiver`'s own bijection — the row a receiver-major delivery loop
    /// fetches once per receiver and then asks for one sender after
    /// another: a table row read left to right, or one add per lookup.
    ///
    /// # Panics
    ///
    /// Panics if the receiver is out of range.
    #[inline]
    pub fn ports_of(&self, receiver: NodeId) -> PortRow<'_> {
        let (r, n) = (receiver.index(), self.n);
        assert!(r < n, "receiver {receiver} out of range");
        match &self.repr {
            Repr::Table { seed, map } => {
                PortRow::Table(&self.table(*seed, map)[r * n..(r + 1) * n])
            }
            Repr::Identity => PortRow::identity(n),
            Repr::Rotation(offsets) => PortRow::Rotated {
                offset: offsets[r] as usize,
                n,
            },
        }
    }

    /// Whether the sender-major transpose behind
    /// [`PortNumbering::ports_to`] has been materialized — for tests
    /// pinning that no simulation path builds it.
    pub fn has_transpose(&self) -> bool {
        self.transposed.get().is_some()
    }

    /// The port column of one sender: `ports_to(u)[v]` is the port on
    /// which receiver `v` hears `u` — `port_of(v, u)` for every `v`, laid
    /// out contiguously. **Replay-only**: the engine delivers
    /// receiver-major through [`PortNumbering::ports_of`]; this sender-major
    /// view (and the whole transposed table its first call builds,
    /// whatever the representation) survives for the benchmark's frozen
    /// stage replay and goes with it.
    ///
    /// # Panics
    ///
    /// Panics if the sender is out of range, or if `n` exceeds
    /// [`PortNumbering::MAX_DENSE_N`] — the transpose is an `n²`-word
    /// table.
    #[inline]
    pub fn ports_to(&self, sender: NodeId) -> &[Port] {
        assert!(
            self.n <= Self::MAX_DENSE_N,
            "ports_to would materialize an n×n transpose at n = {} (cap: {}); \
             the sparse delivery path computes port_of per link instead",
            self.n,
            Self::MAX_DENSE_N
        );
        let transposed = self.transposed.get_or_init(|| {
            // audit: allow(alloc-reach) — one-time OnceLock fill; steady-state calls read the cached transpose
            let mut t = vec![Port::new(0); self.n * self.n];
            for r in 0..self.n {
                for s in 0..self.n {
                    t[s * self.n + r] = self.port_of(NodeId::new(r), NodeId::new(s));
                }
            }
            t
        });
        &transposed[sender.index() * self.n..(sender.index() + 1) * self.n]
    }

    /// Inverse lookup: which sender occupies `port` at `receiver`?
    /// (Analysis-only — real nodes have no access to this mapping.)
    ///
    /// # Panics
    ///
    /// Panics if the receiver or port is out of range.
    pub fn sender_at(&self, receiver: NodeId, port: Port) -> NodeId {
        match &self.repr {
            Repr::Table { seed, map } => {
                let (r, n) = (receiver.index(), self.n);
                let row = &self.table(*seed, map)[r * n..(r + 1) * n];
                let sender = row
                    .iter()
                    .position(|&p| p == port)
                    .unwrap_or_else(|| panic!("port {port} out of range at receiver {receiver}"));
                NodeId::new(sender)
            }
            Repr::Identity => {
                assert!(
                    receiver.index() < self.n,
                    "receiver {receiver} out of range"
                );
                assert!(
                    port.index() < self.n,
                    "port {port} out of range at receiver {receiver}"
                );
                NodeId::new(port.index())
            }
            Repr::Rotation(offsets) => {
                assert!(
                    port.index() < self.n,
                    "port {port} out of range at receiver {receiver}"
                );
                let s = port.index() + self.n - offsets[receiver.index()] as usize;
                NodeId::new(if s >= self.n { s - self.n } else { s })
            }
        }
    }
}

/// One receiver's port bijection (see [`PortNumbering::ports_of`]).
#[derive(Debug, Clone, Copy)]
pub enum PortRow<'a> {
    /// An explicit row of the random table: `row[sender] = port`.
    Table(&'a [Port]),
    /// `port = (sender + offset) mod n` (the identity is offset 0).
    Rotated {
        /// This receiver's private rotation, `< n`.
        offset: usize,
        /// The system size.
        n: usize,
    },
}

impl PortRow<'_> {
    /// The row of the identity numbering over `n` senders: `port = sender`.
    /// Also how the engine keys a columnar kernel's seen row — by sender
    /// id, a relabelling of the real row no algorithm can observe.
    pub fn identity(n: usize) -> PortRow<'static> {
        PortRow::Rotated { offset: 0, n }
    }

    /// The port this receiver hears `sender` on.
    ///
    /// # Panics
    ///
    /// Panics if the sender is out of range.
    #[inline]
    pub fn port(&self, sender: NodeId) -> Port {
        let s = sender.index();
        match *self {
            PortRow::Table(row) => {
                assert!(s < row.len(), "sender {sender} out of range");
                row[s]
            }
            PortRow::Rotated { offset, n } => {
                assert!(s < n, "sender {sender} out of range");
                let p = s + offset;
                Port::new(if p >= n { p - n } else { p })
            }
        }
    }
}

impl fmt::Debug for PortNumbering {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.repr {
            Repr::Table { .. } => "random",
            Repr::Identity => "identity",
            Repr::Rotation(_) => "rotation",
        };
        write!(f, "PortNumbering(n={}, {kind})", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_maps_sender_to_same_port() {
        let pn = PortNumbering::identity(5);
        for r in NodeId::all(5) {
            for s in NodeId::all(5) {
                assert_eq!(pn.port_of(r, s).index(), s.index());
            }
        }
    }

    #[test]
    fn random_rows_are_bijections() {
        let pn = PortNumbering::random(17, 3);
        for r in NodeId::all(17) {
            let mut ports: Vec<usize> = NodeId::all(17).map(|s| pn.port_of(r, s).index()).collect();
            ports.sort_unstable();
            assert_eq!(ports, (0..17).collect::<Vec<_>>());
        }
    }

    #[test]
    fn rotation_rows_are_bijections() {
        let pn = PortNumbering::rotation(17, 3);
        for r in NodeId::all(17) {
            let mut ports: Vec<usize> = NodeId::all(17).map(|s| pn.port_of(r, s).index()).collect();
            ports.sort_unstable();
            assert_eq!(ports, (0..17).collect::<Vec<_>>());
        }
    }

    #[test]
    fn random_is_deterministic_in_seed() {
        assert_eq!(PortNumbering::random(8, 9), PortNumbering::random(8, 9));
        assert_ne!(PortNumbering::random(8, 9), PortNumbering::random(8, 10));
    }

    #[test]
    fn random_table_is_lazy_and_is_the_permutation_stream() {
        let pn = PortNumbering::random(9, 11);
        let untouched = pn.clone();
        assert!(!pn.has_table(), "the constructor builds nothing");
        pn.materialize();
        assert!(pn.has_table());
        assert_eq!(pn, untouched, "a random numbering is its (n, seed)");
        // Row r is the r-th permutation drawn from one seeded stream, and
        // a lookup builds the table just as `materialize` does.
        let mut rng = SplitMix64::new(11);
        for r in NodeId::all(9) {
            let row = rng.permutation(9);
            for s in NodeId::all(9) {
                assert_eq!(untouched.port_of(r, s).index(), row[s.index()]);
            }
        }
        assert!(untouched.has_table());
        let rotation = PortNumbering::rotation(9, 11);
        rotation.materialize();
        assert!(!rotation.has_table(), "arithmetic rows have no table");
    }

    #[test]
    fn rotation_is_deterministic_in_seed() {
        assert_eq!(PortNumbering::rotation(8, 9), PortNumbering::rotation(8, 9));
        assert_ne!(
            PortNumbering::rotation(8, 9),
            PortNumbering::rotation(8, 10)
        );
    }

    #[test]
    fn receivers_generally_disagree() {
        // With n = 16 the chance that two independent random permutations
        // coincide is 1/16!; a disagreement must show up.
        let pn = PortNumbering::random(16, 7);
        let r0: Vec<usize> = NodeId::all(16)
            .map(|s| pn.port_of(NodeId::new(0), s).index())
            .collect();
        let r1: Vec<usize> = NodeId::all(16)
            .map(|s| pn.port_of(NodeId::new(1), s).index())
            .collect();
        assert_ne!(r0, r1, "private numberings should differ between receivers");
    }

    #[test]
    fn rotation_receivers_generally_disagree() {
        // 64 receivers with independent offsets in 0..64: all-equal has
        // probability 64⁻⁶³.
        let pn = PortNumbering::rotation(64, 7);
        let first: Vec<usize> = NodeId::all(64)
            .map(|r| pn.port_of(r, NodeId::new(0)).index())
            .collect();
        assert!(
            first.iter().any(|&p| p != first[0]),
            "private rotations should differ between receivers"
        );
    }

    #[test]
    fn ports_to_matches_port_of_for_every_repr() {
        for pn in [
            PortNumbering::random(9, 11),
            PortNumbering::rotation(9, 11),
            PortNumbering::identity(9),
        ] {
            for s in NodeId::all(9) {
                let col = pn.ports_to(s);
                assert_eq!(col.len(), 9);
                for r in NodeId::all(9) {
                    assert_eq!(col[r.index()], pn.port_of(r, s), "{pn:?}");
                }
            }
        }
    }

    #[test]
    fn rows_match_port_of_and_never_build_the_transpose() {
        for pn in [
            PortNumbering::random(9, 11),
            PortNumbering::rotation(9, 11),
            PortNumbering::identity(9),
        ] {
            for r in NodeId::all(9) {
                let row = pn.ports_of(r);
                for s in NodeId::all(9) {
                    assert_eq!(row.port(s), pn.port_of(r, s), "{pn:?}");
                }
            }
            assert!(!pn.has_transpose(), "{pn:?}: rows are not columns");
            pn.ports_to(NodeId::new(0));
            assert!(pn.has_transpose(), "{pn:?}");
        }
    }

    #[test]
    #[should_panic(expected = "sender n9 out of range")]
    fn row_rejects_out_of_range_senders() {
        PortNumbering::random(9, 11)
            .ports_of(NodeId::new(0))
            .port(NodeId::new(9));
    }

    #[test]
    fn sender_at_inverts_port_of_for_every_repr() {
        for pn in [
            PortNumbering::random(9, 11),
            PortNumbering::rotation(9, 11),
            PortNumbering::identity(9),
        ] {
            for r in NodeId::all(9) {
                for s in NodeId::all(9) {
                    let p = pn.port_of(r, s);
                    assert_eq!(pn.sender_at(r, p), s, "{pn:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sender_at_bad_port_panics() {
        let pn = PortNumbering::identity(3);
        pn.sender_at(NodeId::new(0), Port::new(3));
    }

    #[test]
    #[should_panic(expected = "PortNumbering::rotation")]
    fn random_past_dense_cap_fails_fast() {
        PortNumbering::random(PortNumbering::MAX_DENSE_N + 1, 1);
    }

    #[test]
    #[should_panic(expected = "port_of per link")]
    fn ports_to_past_dense_cap_fails_fast() {
        let pn = PortNumbering::rotation(PortNumbering::MAX_DENSE_N + 1, 1);
        pn.ports_to(NodeId::new(0));
    }

    #[test]
    fn rotation_is_arithmetic_at_large_n() {
        // The point of the representation: O(n) memory, so a 100k-node
        // numbering is constructible and consecutive senders land on
        // consecutive ports (mod n) at every receiver.
        let n = 100_000;
        let pn = PortNumbering::rotation(n, 5);
        let r = NodeId::new(12_345);
        let a = pn.port_of(r, NodeId::new(0)).index();
        let b = pn.port_of(r, NodeId::new(1)).index();
        assert_eq!(b, (a + 1) % n);
        assert_eq!(pn.sender_at(r, Port::new(a)), NodeId::new(0));
    }
}
