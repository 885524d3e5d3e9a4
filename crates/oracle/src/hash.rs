//! Small deterministic hashing utilities.
//!
//! Experiment reproducibility requires that every pseudo-random decision be a
//! pure function of (seed, request content). The standard library's `Hasher`
//! is randomly keyed per process, so we implement FNV-1a and a splitmix-style
//! mixer here and use them everywhere a stable fingerprint is needed.

/// 64-bit FNV-1a over a byte slice.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// FNV-1a over a string.
#[inline]
pub(crate) fn fnv1a_str(s: &str) -> u64 {
    fnv1a(s.as_bytes())
}

/// Combine two hashes into one (order-sensitive).
#[inline]
pub(crate) fn combine(a: u64, b: u64) -> u64 {
    // splitmix64 finalizer over the xor-rotated pair; cheap and well mixed.
    mix(a ^ b.rotate_left(32))
}

/// splitmix64 finalizer: turns a counter or weak hash into a well-mixed value.
#[inline]
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Append a 64-bit value as fixed-width lowercase hex (`{v:016x}`) — the
/// canonical on-disk rendering of fingerprints, checksums, and `f64` bit
/// patterns in the record logs ([`crate::recordlog`], [`crate::store`]).
#[inline]
pub(crate) fn push_hex64(out: &mut String, v: u64) {
    use std::fmt::Write as _;
    // Writing to a `String` cannot fail.
    let _ = write!(out, "{v:016x}");
}

/// Parse a [`push_hex64`]-formatted field: exactly 16 hex digits, nothing
/// else. Stricter than raw `u64::from_str_radix` (no sign, no width
/// variance), so a corrupted or truncated log field never aliases a
/// valid one.
#[inline]
pub(crate) fn parse_hex64(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// An incremental FNV-1a hasher for fingerprinting structured values.
#[derive(Debug, Clone)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// Start a fresh fingerprint.
    pub fn new() -> Self {
        Fingerprint(0xcbf29ce484222325)
    }

    /// Fold raw bytes into the fingerprint.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        const PRIME: u64 = 0x100000001b3;
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
        self
    }

    /// Fold a string (length-prefixed, so `"ab","c"` differs from `"a","bc"`).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes())
    }

    /// Fold a `u64` (little-endian bytes).
    pub(crate) fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// Fold an `f64` (by bit pattern; NaN payloads are preserved).
    pub(crate) fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    /// Finish, returning the mixed 64-bit digest.
    pub fn finish(&self) -> u64 {
        mix(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fnv_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fingerprint_is_length_prefixed() {
        let mut a = Fingerprint::new();
        a.write_str("ab").write_str("c");
        let mut b = Fingerprint::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fingerprint_deterministic() {
        let digest = |payload: &str| {
            let mut f = Fingerprint::new();
            f.write_str(payload).write_u64(7).write_f64(0.25);
            f.finish()
        };
        assert_eq!(digest("hello"), digest("hello"));
        assert_ne!(digest("hello"), digest("hellp"));
    }

    #[test]
    fn combine_order_sensitive() {
        assert_ne!(combine(1, 2), combine(2, 1));
    }

    #[test]
    fn hex64_roundtrips_and_parse_is_strict() {
        for v in [0, 1, 0xff, u64::MAX, 0xdead_beef_cafe_f00d] {
            let mut hex = String::from("x");
            push_hex64(&mut hex, v);
            assert_eq!(hex[1..], format!("{v:016x}"));
            assert_eq!(parse_hex64(&hex[1..]), Some(v));
        }
        assert_eq!(parse_hex64("ff"), None); // width-variant
        assert_eq!(parse_hex64("+00000000000000ff"), None); // signed
        assert_eq!(parse_hex64("00000000000000fg"), None); // non-hex
        assert_eq!(parse_hex64("00000000000000ff0"), None); // too long
    }

    /// Characters a hex field may be corrupted into: every hex digit in both
    /// cases, near misses, a sign, a space and non-ASCII digits.
    const HEX_PIECES: [&str; 30] = [
        "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "a", "b", "c", "d", "e", "f", "A", "F",
        "g", "G", "x", "+", "-", " ", "\t", "٣", "９", "é", "🦀", "\n",
    ];

    proptest! {
        #[test]
        fn parse_hex64_accepts_exactly_sixteen_hex_digits(
            picks in prop::collection::vec(0usize..HEX_PIECES.len(), 0..20),
            hex_only in any::<bool>(),
        ) {
            // Half the cases draw only hex digits, so length alone decides.
            let pool = if hex_only { 18 } else { HEX_PIECES.len() };
            let s: String = picks.iter().map(|&p| HEX_PIECES[p % pool]).collect();
            let parsed = match std::panic::catch_unwind(|| parse_hex64(&s)) {
                Ok(parsed) => parsed,
                Err(_) => panic!("parse_hex64({s:?}) panicked"),
            };
            let sixteen_hex = s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit());
            prop_assert_eq!(parsed.is_some(), sixteen_hex, "parse_hex64({:?}) = {:?}", s, parsed);
            if let Some(v) = parsed {
                prop_assert_eq!(format!("{v:016x}"), s.to_ascii_lowercase(), "parse_hex64({:?})", s);
            }
        }
    }

    #[test]
    fn mix_spreads_counters() {
        // Consecutive counters should produce wildly different values.
        let a = mix(1);
        let b = mix(2);
        assert_ne!(a >> 32, b >> 32);
    }
}
