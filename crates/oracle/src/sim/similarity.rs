//! Cheap text-similarity measures used to modulate task difficulty.
//!
//! The simulator grades how *hard* a pair of strings is (for entity
//! resolution) or how confusable two sort keys are (for lexicographic
//! comparisons) using surface similarity — mirroring the empirical fact that
//! LLMs confuse near-identical strings far more than dissimilar ones.

use std::cmp::Ordering;

/// Jaccard similarity over the character trigrams of the two lowercased
/// strings, in `[0, 1]`.
///
/// Identical strings give 1.0 without looking at trigrams. A string under
/// three characters has none, so two different short strings give 0.0.
pub fn trigram_jaccard(a: &str, b: &str) -> f64 {
    if a == b {
        return 1.0;
    }
    let (ta, tb) = (trigrams(a), trigrams(b));
    // One merge over the two sorted sets counts the intersection.
    let (mut i, mut j, mut inter) = (0, 0, 0usize);
    while i < ta.len() && j < tb.len() {
        match ta[i].cmp(&tb[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = ta.len() + tb.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

/// The set of `s.to_lowercase()`'s character trigrams, sorted and
/// deduplicated.
fn trigrams(s: &str) -> Vec<u64> {
    let mut codes = if s.is_ascii() {
        // An ASCII char lowercases to one ASCII char, the same one
        // `to_lowercase` gives, so the bytes are the chars.
        packed_windows(
            s.bytes().map(|b| u64::from(b.to_ascii_lowercase())),
            s.len(),
        )
    } else {
        // Lowercasing may change the length (`İ` → `i̇`) and depends on
        // context (a word-final `Σ` → `ς`): take the string's own.
        packed_windows(s.to_lowercase().chars().map(u64::from), s.len())
    };
    codes.sort_unstable();
    codes.dedup();
    codes
}

/// Every window of three consecutive code points, packed as
/// `c0 << 42 | c1 << 21 | c2` — injective, since a `char` is under 2^21.
fn packed_windows(chars: impl Iterator<Item = u64>, len_hint: usize) -> Vec<u64> {
    const THREE_CHARS: u64 = (1 << 63) - 1;
    let mut codes = Vec::with_capacity(len_hint.saturating_sub(2));
    let mut window = 0u64;
    for (n, c) in chars.enumerate() {
        window = ((window << 21) | c) & THREE_CHARS;
        if n >= 2 {
            codes.push(window);
        }
    }
    codes
}

/// Ratio of the common prefix length to the shorter string's length, in
/// `[0, 1]`. `"chair"`/`"chalk"` share `"cha"` → 0.6.
pub(crate) fn common_prefix_ratio(a: &str, b: &str) -> f64 {
    let ca: Vec<char> = a.chars().collect();
    let cb: Vec<char> = b.chars().collect();
    let min_len = ca.len().min(cb.len());
    if min_len == 0 {
        return 0.0;
    }
    let common = ca.iter().zip(cb.iter()).take_while(|(x, y)| x == y).count();
    common as f64 / min_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn identical_strings_max_similarity() {
        assert_eq!(trigram_jaccard("abcdef", "abcdef"), 1.0);
        assert_eq!(common_prefix_ratio("same", "same"), 1.0);
    }

    #[test]
    fn disjoint_strings_low_similarity() {
        assert_eq!(trigram_jaccard("aaaa", "zzzz"), 0.0);
        assert_eq!(common_prefix_ratio("aaaa", "zzzz"), 0.0);
    }

    #[test]
    fn near_duplicates_high_similarity() {
        let a = "indexing the positions of continuously moving objects";
        let b = "bindexing the positions of continuous moving objects";
        assert!(trigram_jaccard(a, b) > 0.6);
    }

    #[test]
    fn similarity_symmetric() {
        let (a, b) = (
            "crowdsourcing entity resolution",
            "entity resolution crowds",
        );
        assert!((trigram_jaccard(a, b) - trigram_jaccard(b, a)).abs() < 1e-12);
    }

    #[test]
    fn prefix_ratio_examples() {
        assert!((common_prefix_ratio("chair", "chalk") - 0.6).abs() < 1e-12);
        assert_eq!(common_prefix_ratio("", "x"), 0.0);
        assert_eq!(common_prefix_ratio("ab", "abcd"), 1.0);
    }

    #[test]
    fn short_strings() {
        assert_eq!(trigram_jaccard("ab", "ab"), 1.0);
        assert_eq!(trigram_jaccard("ab", "cd"), 0.0);
    }

    #[test]
    fn case_insensitive_trigrams() {
        assert_eq!(trigram_jaccard("Chocolate", "chocolate"), 1.0);
    }

    /// The hash-set kernel `trigram_jaccard` started from: the reference
    /// every faster kernel must equal bit for bit.
    fn reference_jaccard(a: &str, b: &str) -> f64 {
        fn trigrams(s: &str) -> HashSet<[char; 3]> {
            let lowered: Vec<char> = s.to_lowercase().chars().collect();
            lowered.windows(3).map(|w| [w[0], w[1], w[2]]).collect()
        }
        if a == b {
            return 1.0;
        }
        let (ta, tb) = (trigrams(a), trigrams(b));
        let union = ta.union(&tb).count();
        if union == 0 {
            0.0
        } else {
            ta.intersection(&tb).count() as f64 / union as f64
        }
    }

    /// Pieces strings are drawn from: ASCII of both cases first, then text
    /// whose lowercasing is unusual — a fold that changes length (`İ`), a
    /// context-dependent one (`Σ`), `ß`, a titlecase digraph, a combining
    /// mark, four-byte text.
    const PIECES: [&str; 24] = [
        "a",
        "b",
        "c",
        "A",
        "B",
        "C",
        " ",
        "ab",
        "BC",
        "-",
        "1",
        "the ",
        "\u{130}",
        "\u{3a3}",
        "\u{3c3}",
        "\u{3c2}",
        "\u{df}",
        "\u{c9}",
        "\u{e9}",
        "\u{1c5}",
        "\u{307}",
        "\u{1f980}",
        "\u{2014}",
        "\u{20ac}",
    ];
    /// `PIECES[..ASCII_PIECES]` are ASCII.
    const ASCII_PIECES: usize = 12;

    fn draw(picks: &[usize], pool: usize) -> String {
        picks.iter().map(|&p| PIECES[p % pool]).collect()
    }

    proptest! {
        #[test]
        fn trigram_jaccard_equals_the_hash_set_kernel_bit_for_bit(
            a in prop::collection::vec(0usize..PIECES.len(), 0..24),
            b in prop::collection::vec(0usize..PIECES.len(), 0..24),
            ascii_a in any::<bool>(),
            ascii_b in any::<bool>(),
        ) {
            let a = draw(&a, if ascii_a { ASCII_PIECES } else { PIECES.len() });
            let b = draw(&b, if ascii_b { ASCII_PIECES } else { PIECES.len() });
            for (x, y) in [(&a, &b), (&b, &a), (&a, &a)] {
                prop_assert_eq!(
                    trigram_jaccard(x, y).to_bits(),
                    reference_jaccard(x, y).to_bits(),
                    "trigram_jaccard({:?}, {:?})", x, y
                );
            }
        }
    }

    #[test]
    fn citation_length_pairs_equal_the_hash_set_kernel() {
        let texts = [
            "indexing the positions of continuously moving objects in databases",
            "bindexing the position of continuous moving objects in database",
            "Saltenis S, Jensen CS. Indexing the Positions of Continuously Moving Objects. SIGMOD 2000",
            "caf\u{e9} cr\u{e8}me br\u{fb}l\u{e9}e \u{2014} 12\u{20ac}",
            "CAF\u{c9} CR\u{c8}ME BR\u{db}L\u{c9}E \u{2014} 12\u{20ac}",
            "\u{39f}\u{394}\u{39f}\u{3a3} \u{3a3}\u{3a4}\u{39f}\u{3a3}",
        ];
        for a in texts {
            for b in texts {
                assert_eq!(
                    trigram_jaccard(a, b).to_bits(),
                    reference_jaccard(a, b).to_bits(),
                    "{a:?} / {b:?}"
                );
            }
        }
    }
}
