//! Small deterministic hashing utilities.
//!
//! Experiment reproducibility requires that every pseudo-random decision be a
//! pure function of (seed, request content). The standard library's `Hasher`
//! is randomly keyed per process, so every stable hash is written here:
//!
//! * [`prompt_hash`] — the prompt's part of a request's cache key
//!   ([`crate::CompletionRequest::fingerprint`]), 16 bytes a step, and the
//!   engine's fingerprint of each item text and of its render options,
//!   the parts of a task key. The key is persisted in every store and
//!   journal, so its values are pinned by known-answer vectors.
//! * FNV-1a ([`fnv1a`], `Fingerprint`) — one byte a step, for the
//!   simulator's seeds (`sim::seed_of`), a task's structural fingerprint
//!   and the record logs' line checksums (`fnv1a_x4` checks four lines'
//!   at once). Every simulated answer is a function of these values, so
//!   they never change.
//! * `mix` / [`combine`] — a splitmix64 finalizer and an order-sensitive
//!   fold of two hashes (a request key's parts, a task key's parts).

/// FNV-1a's starting state.
const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// FNV-1a's multiplier.
const FNV_PRIME: u64 = 0x100000001b3;

/// Fold `bytes` into the FNV-1a state `h`, one byte a step.
#[inline(always)]
fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// 64-bit FNV-1a over a byte slice.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_OFFSET, bytes)
}

/// [`fnv1a`] of four slices at once, lane for lane. One chain waits on its
/// multiply every byte; here the four chains step together over the bytes
/// all four slices have, so four multiplies are in flight, and each lane
/// then folds its own remaining bytes.
#[inline]
pub(crate) fn fnv1a_x4(lanes: [&[u8]; 4]) -> [u64; 4] {
    let [a, b, c, d] = lanes;
    let mut h = [FNV_OFFSET; 4];
    for (((&x, &y), &z), &w) in a.iter().zip(b).zip(c).zip(d) {
        h[0] = (h[0] ^ u64::from(x)).wrapping_mul(FNV_PRIME);
        h[1] = (h[1] ^ u64::from(y)).wrapping_mul(FNV_PRIME);
        h[2] = (h[2] ^ u64::from(z)).wrapping_mul(FNV_PRIME);
        h[3] = (h[3] ^ u64::from(w)).wrapping_mul(FNV_PRIME);
    }
    let common = a.len().min(b.len()).min(c.len()).min(d.len());
    for (h, lane) in h.iter_mut().zip(lanes) {
        *h = fnv1a_fold(*h, &lane[common..]);
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
pub fn combine(a: u64, b: u64) -> u64 {
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

/// The odd constants [`prompt_hash`] folds its words against (wyhash's).
const WIDE: [u64; 3] = [
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
    0x8ebc_6af0_9c88_c6e3,
];

/// The 64×64→128-bit multiply of `a` and `b`, its halves xor-folded.
#[inline(always)]
fn mum(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// The little-endian word at the start of `bytes` (at least 8 long).
#[inline(always)]
pub(crate) fn word(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(w)
}

/// The little-endian half-word at the start of `bytes` (at least 4 long).
#[inline(always)]
fn half(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 4];
    w.copy_from_slice(&bytes[..4]);
    u64::from(u32::from_le_bytes(w))
}

/// Hash a prompt for a request's cache key: 16 bytes a step, each step one
/// multiply-fold (`mum`, the construction of wyhash) of the two words
/// against the state, which starts from the length. The last 0–15 bytes
/// are read as two (possibly overlapping) words whose span covers them all,
/// and a splitmix64 finalizer (`mix`) finishes. The engine hashes each item
/// text and its render options with it too, for its task keys.
///
/// Like FNV-1a it is a fast hash, not a keyed one: a prompt built to
/// collide can. Its values are persisted as store keys, so they are pinned
/// by known-answer vectors and must never change.
#[inline]
pub fn prompt_hash(bytes: &[u8]) -> u64 {
    let len = bytes.len();
    let mut h = (len as u64) ^ WIDE[0];
    let mut steps = bytes.chunks_exact(16);
    for step in &mut steps {
        h = mum(word(step) ^ WIDE[1], word(&step[8..]) ^ h);
    }
    let rest = steps.remainder();
    let n = rest.len();
    let (a, b) = if n >= 8 {
        (word(rest), word(&rest[n - 8..]))
    } else if n >= 4 {
        (half(rest), half(&rest[n - 4..]))
    } else if n > 0 {
        let spread =
            u64::from(rest[0]) << 16 | u64::from(rest[n / 2]) << 8 | u64::from(rest[n - 1]);
        (spread, 0)
    } else {
        (0, 0)
    };
    mix(mum(a ^ WIDE[2], b ^ h))
}

/// The lowercase hex digits, by value.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Each byte's value as a hex digit, either case; [`NOT_HEX`] for a byte
/// that is none.
const HEX_VALUES: [u8; 256] = {
    let mut values = [NOT_HEX; 256];
    let mut i = 0;
    while i < 16 {
        values[HEX_DIGITS[i] as usize] = i as u8;
        values[HEX_DIGITS[i].to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    values
};

/// [`HEX_VALUES`]' mark for a byte that is not a hex digit.
const NOT_HEX: u8 = 0xff;

/// Append a 64-bit value as fixed-width lowercase hex (`{v:016x}`) — the
/// canonical on-disk rendering of fingerprints, checksums, and `f64` bit
/// patterns in the record logs ([`crate::recordlog`], [`crate::store`]).
#[inline]
pub(crate) fn push_hex64(out: &mut String, v: u64) {
    out.reserve(16);
    for shift in (0..16).rev() {
        out.push(char::from(HEX_DIGITS[(v >> (4 * shift)) as usize & 0xf]));
    }
}

/// Parse a [`push_hex64`]-formatted field: exactly 16 hex digits, either
/// case, nothing else. Stricter than raw `u64::from_str_radix` (no sign,
/// no width variance), so a corrupted or truncated log field never
/// aliases a valid one.
#[inline]
pub(crate) fn parse_hex64(s: &str) -> Option<u64> {
    let digits: &[u8; 16] = s.as_bytes().try_into().ok()?;
    let mut v = 0u64;
    let mut bad = 0u8;
    for &d in digits {
        let value = HEX_VALUES[usize::from(d)];
        bad |= value;
        v = v << 4 | u64::from(value & 0xf);
    }
    // Digit values are below 16, so only a byte that is no digit sets the
    // high bits.
    (bad & 0xf0 == 0).then_some(v)
}

/// The `from_str_radix` parser the table one replaced, kept as the
/// reference it must agree with: `from_str_radix` alone would take a `+`
/// and 15 digits, so the field's width and digits are checked first.
#[cfg(test)]
pub(crate) fn parse_hex64_by_radix(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// An incremental FNV-1a hasher for fingerprinting structured values.
#[derive(Debug, Clone)]
pub(crate) struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// Start a fresh fingerprint.
    pub(crate) fn new() -> Self {
        Fingerprint(FNV_OFFSET)
    }

    /// Fold raw bytes into the fingerprint.
    pub(crate) fn write(&mut self, bytes: &[u8]) -> &mut Self {
        self.0 = fnv1a_fold(self.0, bytes);
        self
    }

    /// Fold a string (length-prefixed, so `"ab","c"` differs from `"a","bc"`).
    pub(crate) fn write_str(&mut self, s: &str) -> &mut Self {
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
    pub(crate) fn finish(&self) -> u64 {
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
    fn four_chains_hash_empty_and_uneven_lanes_as_fnv1a() {
        let long = [0xa5u8; 300];
        for lens in [
            [0, 0, 0, 0],
            [0, 5, 17, 300],
            [300, 17, 5, 0],
            [17, 300, 0, 5],
            [64, 64, 64, 64],
            [63, 64, 65, 1],
        ] {
            let lanes = lens.map(|len| &long[..len]);
            assert_eq!(fnv1a_x4(lanes), lanes.map(fnv1a), "lengths {lens:?}");
        }
        assert_eq!(fnv1a_x4([b"", b"a", b"foobar", b""])[2], 0x85944171f73967e8);
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

        #[test]
        fn the_table_parse_accepts_what_the_radix_parse_accepts(
            picks in prop::collection::vec(0usize..HEX_BYTES.len(), 16),
            hex_only in 0usize..3,
            e in 0usize..40,
        ) {
            // A third of the cases draw only hex digits, so most of those
            // parse; the rest mix in signs, near misses and an `é`.
            let pool = [22, 16, HEX_BYTES.len()][hex_only];
            let picks: Vec<usize> = picks.iter().map(|&p| p % pool).collect();
            let s = sixteen_bytes(&picks, e);
            prop_assert_eq!(s.len(), 16);
            prop_assert_eq!(parse_hex64(&s), parse_hex64_by_radix(&s), "{:?}", s);
        }

        #[test]
        fn push_hex64_writes_what_format_writes(v in any::<u64>(), shift in 0u32..64) {
            for v in [v, v >> shift] {
                let mut hex = String::new();
                push_hex64(&mut hex, v);
                prop_assert_eq!(hex, format!("{v:016x}"));
            }
        }

        #[test]
        fn four_chains_hash_each_lane_as_fnv1a(
            lens in (0usize..80, 0usize..80, 0usize..80, 0usize..80),
            seed in any::<u8>(),
        ) {
            let lens = [lens.0, lens.1, lens.2, lens.3];
            let bytes: Vec<Vec<u8>> = lens
                .iter()
                .enumerate()
                .map(|(lane, &len)| {
                    (0..len).map(|i| seed.wrapping_add((i * 31 + lane * 7) as u8)).collect()
                })
                .collect();
            let lanes = [&bytes[0][..], &bytes[1][..], &bytes[2][..], &bytes[3][..]];
            prop_assert_eq!(fnv1a_x4(lanes), lanes.map(fnv1a), "lengths {:?}", lens);
        }
    }

    /// One-byte characters a 16-byte hex field may hold or be corrupted
    /// into; [`sixteen_bytes`] may also put an `é` (two bytes) among them.
    const HEX_BYTES: &[u8] = b"0123456789abcdefABCDEF+-gGxX \t";

    /// A 16-byte string of [`HEX_BYTES`], with an `é` over bytes `e..e + 2`
    /// when `e` is below 15.
    fn sixteen_bytes(picks: &[usize], e: usize) -> String {
        let mut s: String = picks.iter().map(|&p| char::from(HEX_BYTES[p])).collect();
        if e < 15 {
            s.replace_range(e..e + 2, "é");
        }
        s
    }

    /// `len` bytes of a fixed, non-repeating-looking pattern.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add((i >> 8) as u8 ^ 7))
            .collect()
    }

    /// The prompt hash is persisted as part of every store key: these
    /// values may never change. Lengths cover the empty input, each tail
    /// path (1–3, 4–7, 8–15 bytes), whole steps with and without a tail,
    /// and a long prompt.
    const PROMPT_HASH_VECTORS: [(usize, u64); 11] = [
        (0, 0xc178268d5e1cd9c4),
        (1, 0x3cbd4b188041032f),
        (7, 0x3e67380aa756f2e7),
        (8, 0x3079d1c068073c46),
        (15, 0x6606498f895ebe45),
        (16, 0x1b3895238e27da03),
        (17, 0x948f3b8b01fed967),
        (31, 0x8ff1b2899fca8737),
        (32, 0x9dfa5922d52c84fd),
        (33, 0x44d8bbdf2d79a0f1),
        (1_300, 0x5ac050647663c691),
    ];

    #[test]
    fn prompt_hash_known_vectors() {
        let got: Vec<(usize, u64)> = PROMPT_HASH_VECTORS
            .iter()
            .map(|&(len, _)| (len, prompt_hash(&pattern(len))))
            .collect();
        let rows: Vec<String> = got
            .iter()
            .map(|(l, h)| format!("({l}, {h:#018x}),"))
            .collect();
        assert_eq!(got, PROMPT_HASH_VECTORS, "\n{}", rows.join("\n"));
    }

    #[test]
    fn every_single_bit_flip_moves_the_prompt_hash() {
        for len in [64, 1_300] {
            let base = pattern(len);
            let reference = prompt_hash(&base);
            let mut flipped = base.clone();
            for bit in 0..len * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(prompt_hash(&flipped), reference, "len {len}, bit {bit}");
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn prompt_hash_is_seeded_by_the_length() {
        // Zero bytes of every length up to three steps: only the length
        // tells them apart.
        let zeros = [0u8; 48];
        let mut seen: Vec<u64> = (0..=48).map(|n| prompt_hash(&zeros[..n])).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 49);
    }

    #[test]
    fn generated_serve_prompts_do_not_collide() {
        // 200 000 prompts in the shape a serve workload renders: a fixed
        // instruction around a ticket whose numbers are all that varies.
        let mut keys: Vec<u64> = (0..200_000u64)
            .map(|i| {
                let r = mix(i);
                let prompt = format!(
                    "Does the following item satisfy: {}?\nItem: ticket {i}: customer reports \
                     issue {} in module {}\nStart your response with Yes or No.",
                    ["urgent", "billing"][(r & 1) as usize],
                    (r >> 8) % 10_000,
                    (r >> 32) % 97,
                );
                prompt_hash(prompt.as_bytes())
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 200_000);
    }

    #[test]
    fn mix_spreads_counters() {
        // Consecutive counters should produce wildly different values.
        let a = mix(1);
        let b = mix(2);
        assert_ne!(a >> 32, b >> 32);
    }
}
