//! Wire encoding for messages.
//!
//! The paper assumes each link carries `O(log n)` bits per round. Our
//! in-memory [`Message`] is a 64-bit value plus a 64-bit phase; this
//! module provides the actual byte encoding used when accounting for real
//! transmission sizes:
//!
//! * the **value** is quantized to `B` bits of fixed-point precision
//!   (values live in `[0, 1]`, so `B` bits give resolution `2⁻ᴮ`;
//!   an algorithm targeting ε-agreement needs only `B ≈ log₂(1/ε) + 1`
//!   bits — the encoding ties the paper's bandwidth assumption to ε);
//! * the **phase** is LEB128 varint-encoded (phases are small in practice,
//!   `pend` at most; a 1-byte phase covers the common case).
//!
//! Quantization is conservative (round toward the nearest grid point), so
//! an encode/decode round trip moves a value by at most `2⁻(ᴮ⁺¹)`; the
//! codec tests pin that bound. The simulator itself exchanges exact
//! values — the codec is the measurement instrument for E10-style
//! bandwidth accounting and a building block for users who want to run
//! the algorithms over real transports.

use adn_types::{Message, Phase, Value};

/// Fixed-point value precision in bits, `1..=52`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Precision(u8);

impl Precision {
    /// Creates a precision level.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 52` (the f64 mantissa bound).
    pub fn new(bits: u8) -> Self {
        assert!((1..=52).contains(&bits), "precision must be 1..=52 bits");
        Precision(bits)
    }

    /// Enough precision to support ε-agreement at the given ε:
    /// `⌈log₂(1/ε)⌉ + 1` bits (one guard bit below the target resolution).
    ///
    /// # Panics
    ///
    /// Panics if `eps` is not in `(0, 1]`.
    pub fn for_eps(eps: f64) -> Self {
        assert!(eps > 0.0 && eps <= 1.0, "eps must be in (0, 1]");
        let bits = ((1.0 / eps).log2().ceil() as u8)
            .saturating_add(1)
            .clamp(1, 52);
        Precision(bits)
    }

    /// The number of bits.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// The grid resolution `2⁻ᴮ`.
    pub fn resolution(self) -> f64 {
        2.0_f64.powi(-(self.0 as i32))
    }

    fn levels(self) -> u64 {
        1u64 << self.0
    }
}

/// Quantizes a value to the precision grid (nearest grid point).
pub fn quantize(v: Value, precision: Precision) -> u64 {
    let levels = precision.levels();
    // Grid points i / levels for i in 0..=levels.
    let i = (v.get() * levels as f64).round() as u64;
    i.min(levels)
}

/// Reconstructs a value from its grid index.
///
/// # Panics
///
/// Panics if `index` exceeds the grid (`> 2^bits`).
pub fn dequantize(index: u64, precision: Precision) -> Value {
    let levels = precision.levels();
    assert!(index <= levels, "grid index {index} out of range");
    Value::saturating(index as f64 / levels as f64)
}

/// Snaps a value to its nearest grid point — the quantize/dequantize
/// round trip a `B`-bit wire applies to every transmitted value. Both
/// wire-format adaptors (the per-node `Quantized` wrapper and the
/// columnar `QuantizedPlane`, in `adn-sim`) route through this one
/// function, so the two execution paths compute bit-identical floats.
#[inline]
pub fn snap(v: Value, precision: Precision) -> Value {
    dequantize(quantize(v, precision), precision)
}

/// Encodes a message: varint phase, then the quantized value in
/// `ceil((bits+1)/8)` little-endian bytes (the `+1` accommodates the
/// inclusive top grid point `2^bits`).
pub fn encode(msg: Message, precision: Precision, out: &mut Vec<u8>) {
    encode_varint(msg.phase().as_u64(), out);
    let q = quantize(msg.value(), precision);
    let value_bytes = value_byte_len(precision);
    out.extend_from_slice(&q.to_le_bytes()[..value_bytes]);
}

/// Decodes one message from the front of `bytes`; returns the message and
/// the number of bytes consumed, or `None` if the buffer is truncated or
/// spells a phase or grid index no message can carry.
pub fn decode(bytes: &[u8], precision: Precision) -> Option<(Message, usize)> {
    let (phase, used) = decode_varint(bytes)?;
    let value_bytes = value_byte_len(precision);
    if bytes.len() < used + value_bytes {
        return None;
    }
    let mut raw = [0u8; 8];
    raw[..value_bytes].copy_from_slice(&bytes[used..used + value_bytes]);
    let q = u64::from_le_bytes(raw);
    if q > precision.levels() {
        return None;
    }
    let value = dequantize(q, precision);
    Some((Message::new(value, Phase::new(phase)), used + value_bytes))
}

fn value_byte_len(precision: Precision) -> usize {
    (precision.bits() as usize + 1).div_ceil(8)
}

fn encode_varint(mut x: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn decode_varint(bytes: &[u8]) -> Option<(u64, usize)> {
    let mut x = 0u64;
    for (i, &b) in bytes.iter().enumerate().take(10) {
        if i == 9 && b > 1 {
            return None; // bits 64.. of a u64: not a phase, not ours to drop
        }
        x |= u64::from(b & 0x7f) << (7 * i);
        if b & 0x80 == 0 {
            return Some((x, i + 1));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(v: f64) -> Value {
        Value::new(v).unwrap()
    }

    #[test]
    fn precision_constructors() {
        assert_eq!(Precision::new(10).bits(), 10);
        // eps = 1e-3 -> ceil(log2(1000)) + 1 = 11 bits.
        assert_eq!(Precision::for_eps(1e-3).bits(), 11);
        assert_eq!(Precision::for_eps(1.0).bits(), 1);
        assert!((Precision::new(4).resolution() - 0.0625).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "precision")]
    fn precision_bounds_enforced() {
        Precision::new(0);
    }

    #[test]
    fn quantize_roundtrip_error_bound() {
        let p = Precision::new(8);
        let half_step = p.resolution() / 2.0;
        for i in 0..=1000 {
            let v = val(i as f64 / 1000.0);
            let q = quantize(v, p);
            let back = dequantize(q, p);
            assert!(
                v.distance(back) <= half_step + 1e-15,
                "{v} -> {back} error exceeds half a grid step"
            );
        }
    }

    #[test]
    fn snap_is_idempotent_and_on_grid() {
        let p = Precision::new(5); // grid step 1/32
        for i in 0..=100 {
            let v = val(i as f64 / 100.0);
            let s = snap(v, p);
            let scaled = s.get() * 32.0;
            assert!((scaled - scaled.round()).abs() < 1e-12, "{s} off-grid");
            assert_eq!(snap(s, p), s, "snap must be idempotent");
        }
    }

    #[test]
    fn quantize_endpoints_are_exact() {
        let p = Precision::new(6);
        assert_eq!(dequantize(quantize(Value::ZERO, p), p), Value::ZERO);
        assert_eq!(dequantize(quantize(Value::ONE, p), p), Value::ONE);
        assert_eq!(dequantize(quantize(Value::HALF, p), p), Value::HALF);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = Precision::new(11);
        for (v, ph) in [(0.0, 0u64), (0.375, 3), (1.0, 300), (0.6181640625, 70_000)] {
            let msg = Message::new(val(v), Phase::new(ph));
            let mut buf = Vec::new();
            encode(msg, p, &mut buf);
            let (decoded, used) = decode(&buf, p).expect("decodes");
            assert_eq!(used, buf.len());
            assert_eq!(decoded.phase().as_u64(), ph);
            assert!(decoded.value().distance(val(v)) <= p.resolution());
        }
    }

    #[test]
    fn small_phase_small_message() {
        // Phase < 128 takes 1 byte; an 11-bit value takes 2 bytes: 24 bits
        // total — the concrete O(log n) the model assumes.
        let p = Precision::for_eps(1e-3);
        let mut buf = Vec::new();
        encode(Message::new(Value::HALF, Phase::new(9)), p, &mut buf);
        assert_eq!(buf.len() * 8, 24);
    }

    #[test]
    fn truncated_buffers_rejected() {
        let p = Precision::new(16);
        let msg = Message::new(Value::HALF, Phase::new(5));
        let mut buf = Vec::new();
        encode(msg, p, &mut buf);
        for cut in 0..buf.len() {
            assert!(decode(&buf[..cut], p).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn varint_known_values() {
        let mut buf = Vec::new();
        encode_varint(0, &mut buf);
        assert_eq!(buf, [0]);
        buf.clear();
        encode_varint(127, &mut buf);
        assert_eq!(buf, [127]);
        buf.clear();
        encode_varint(128, &mut buf);
        assert_eq!(buf, [0x80, 1]);
        assert_eq!(decode_varint(&[0x80, 1]), Some((128, 2)));
        buf.clear();
        encode_varint(u64::MAX, &mut buf);
        assert_eq!(decode_varint(&buf), Some((u64::MAX, 10)));
    }

    #[test]
    fn varint_overflow_rejected() {
        // Ten bytes carry 70 payload bits; the 10th may only hold bit 63.
        let mut wire = [0xff; 10];
        wire[9] = 0x7f;
        assert_eq!(decode_varint(&wire), None, "was u64::MAX, silently");
        wire[9] = 0x02;
        assert_eq!(decode_varint(&wire), None);
        wire[9] = 0x01;
        assert_eq!(decode_varint(&wire), Some((u64::MAX, 10)));
        assert_eq!(decode_varint(&[0xff; 11]), None, "no terminator in 10");
        wire[9] = 0x7f;
        assert!(decode(&[&wire[..], &[0, 0, 0]].concat(), Precision::new(16)).is_none());
    }

    /// Wire bytes are outside input: every valid encoding round-trips,
    /// none of its strict prefixes decodes, and arbitrary bytes decode or
    /// are refused but never panic. Seeds: `ADN_FUZZ_SEEDS` (default 300).
    #[test]
    fn decode_fuzz_roundtrip_prefixes_and_garbage() {
        use adn_types::rng::SplitMix64;
        let seeds = std::env::var("ADN_FUZZ_SEEDS").map_or(300, |s| s.parse().unwrap());
        let mut buf = Vec::new();
        for seed in 0..seeds {
            let mut rng = SplitMix64::new(seed ^ 0xC0DEC);
            let p = Precision::new(1 + rng.next_index(52) as u8);
            // Phases of every varint length, 1 to 10 bytes.
            let phase = rng.next_u64() >> rng.next_index(64);
            let msg = Message::new(Value::saturating(rng.next_f64()), Phase::new(phase));
            buf.clear();
            encode(msg, p, &mut buf);
            let (back, used) = decode(&buf, p).expect("a valid encoding decodes");
            assert_eq!(used, buf.len(), "seed {seed}");
            assert_eq!(back.phase(), msg.phase(), "seed {seed}");
            assert_eq!(back.value(), snap(msg.value(), p), "seed {seed}");
            for cut in 0..buf.len() {
                assert!(decode(&buf[..cut], p).is_none(), "seed {seed} cut {cut}");
            }
            let garbage: Vec<u8> = (0..rng.next_index(20))
                .map(|_| rng.next_u64() as u8 | if rng.next_bool(0.5) { 0x80 } else { 0 })
                .collect();
            if let Some((m, used)) = decode(&garbage, p) {
                // Whatever decodes is a message the wire can carry.
                assert!(used <= garbage.len(), "seed {seed}");
                assert_eq!(m.value(), snap(m.value(), p), "seed {seed}");
            }
        }
    }

    #[test]
    fn batch_of_messages_concatenates() {
        let p = Precision::new(8);
        let msgs = [
            Message::new(val(0.25), Phase::new(1)),
            Message::new(val(0.75), Phase::new(2)),
        ];
        let mut buf = Vec::new();
        for m in msgs {
            encode(m, p, &mut buf);
        }
        let (first, used) = decode(&buf, p).unwrap();
        let (second, used2) = decode(&buf[used..], p).unwrap();
        assert_eq!(used + used2, buf.len());
        assert_eq!(first.phase().as_u64(), 1);
        assert_eq!(second.phase().as_u64(), 2);
    }
}
