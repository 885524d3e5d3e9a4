//! Deterministic approximate tokenizer.
//!
//! Commercial LLM pricing is per token under a BPE vocabulary we do not ship.
//! For cost accounting we only need a *stable, monotone* approximation; the
//! standard industry rule of thumb is ~4 characters or ~0.75 words per token.
//! We blend a word/punctuation count with a character-length estimate, which
//! tracks real tokenizers closely on English prose and record-style text.

/// Count approximate tokens in `text`.
///
/// Properties (tested below and by property tests):
/// * deterministic,
/// * `count_tokens("") == 0`,
/// * monotone under concatenation: `count(a + b) >= max(count(a), count(b))`.
pub fn count_tokens(text: &str) -> u32 {
    if text.is_empty() {
        return 0;
    }
    let mut words: u32 = 0;
    let mut punct: u32 = 0;
    let mut in_word = false;
    let chars = if text.is_ascii() {
        // Rendered prompts are almost always ASCII: classify bytes, no
        // UTF-8 decoding and no Unicode table lookups. Same classes as the
        // `char` predicates below — note `char::is_whitespace` takes VT
        // (0x0b), which `u8::is_ascii_whitespace` leaves out.
        let bytes = text.as_bytes();
        #[cfg(target_arch = "x86_64")]
        let bytes = {
            // SAFETY: SSE2 is part of the x86_64 baseline.
            let (blocks, w, p, carry) = unsafe { ascii_blocks(bytes) };
            (words, punct, in_word) = (w, p, carry);
            &bytes[blocks * 16..]
        };
        for &b in bytes {
            if b.is_ascii_alphanumeric() {
                words += u32::from(!in_word);
                in_word = true;
            } else {
                in_word = false;
                punct += u32::from(!matches!(b, b'\t'..=b'\r' | b' '));
            }
        }
        text.len() as u32
    } else {
        let mut chars: u32 = 0;
        for c in text.chars() {
            chars += 1;
            if c.is_alphanumeric() {
                if !in_word {
                    words += 1;
                    in_word = true;
                }
            } else {
                in_word = false;
                if !c.is_whitespace() {
                    punct += 1;
                }
            }
        }
        chars
    };
    // Long words get split into multiple BPE pieces; approximate that with a
    // character-driven floor of one token per 4 characters.
    let char_floor = chars.div_ceil(4);
    let blended = words + punct;
    blended.max(char_floor).max(1)
}

/// The ASCII loop of [`count_tokens`] over every whole 16-byte block of
/// `bytes`, one block a step with SSE2 (the x86_64 baseline, so nothing is
/// detected at run time): returns how many blocks it took, the word starts
/// and punctuation bytes among them, and whether the last block ended inside
/// a word. `bytes` must be ASCII, so signed byte compares order it right.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn ascii_blocks(bytes: &[u8]) -> (usize, u32, u32, bool) {
    use std::arch::x86_64::*;
    // Lanes whose byte lies in `lo..=hi`.
    let within = |v: __m128i, lo: u8, hi: u8| {
        _mm_and_si128(
            _mm_cmpgt_epi8(v, _mm_set1_epi8(lo as i8 - 1)),
            _mm_cmplt_epi8(v, _mm_set1_epi8(hi as i8 + 1)),
        )
    };
    let (mut words, mut punct, mut carry) = (0u32, 0u32, 0u32);
    let blocks = bytes.chunks_exact(16);
    let taken = blocks.len();
    for block in blocks {
        // SAFETY: `block` holds 16 readable bytes; the load is unaligned.
        let v = unsafe { _mm_loadu_si128(block.as_ptr().cast()) };
        let digit = within(v, b'0', b'9');
        // `| 0x20` folds `A..=Z` onto `a..=z` and moves no other ASCII byte
        // into that range.
        let letter = within(_mm_or_si128(v, _mm_set1_epi8(0x20)), b'a', b'z');
        let blank = _mm_or_si128(
            within(v, b'\t', b'\r'),
            _mm_cmpeq_epi8(v, _mm_set1_epi8(b' ' as i8)),
        );
        // Bit `i` of a mask is byte `i` of the block.
        let alnum = _mm_movemask_epi8(_mm_or_si128(digit, letter)) as u32;
        let blank = _mm_movemask_epi8(blank) as u32;
        words += (alnum & !((alnum << 1) | carry)).count_ones();
        punct += (!(alnum | blank) & 0xffff).count_ones();
        carry = alnum >> 15;
    }
    (taken, words, punct, carry != 0)
}

/// Truncate `text` to approximately `max_tokens`, respecting char boundaries.
///
/// Used by the simulator to emulate `max_tokens` cut-offs (finish reason
/// `Length`). Returns the truncated text and whether truncation occurred.
pub(crate) fn truncate_to_tokens(text: &str, max_tokens: u32) -> (&str, bool) {
    if count_tokens(text) <= max_tokens {
        return (text, false);
    }
    // Binary search the longest char-boundary prefix within budget.
    let indices: Vec<usize> = text
        .char_indices()
        .map(|(i, _)| i)
        .chain(std::iter::once(text.len()))
        .collect();
    let (mut lo, mut hi) = (0usize, indices.len() - 1);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if count_tokens(&text[..indices[mid]]) <= max_tokens {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    (&text[..indices[lo]], true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_is_zero() {
        assert_eq!(count_tokens(""), 0);
    }

    #[test]
    fn single_word() {
        assert_eq!(count_tokens("hello"), 2); // ceil(5/4) = 2
        assert_eq!(count_tokens("hi"), 1);
    }

    #[test]
    fn prose_tracks_word_count() {
        let text = "Are Citation A and Citation B the same? Yes or No?";
        let t = count_tokens(text);
        // 11 words + 2 punctuation marks, char floor ceil(51/4)=13.
        assert!((11..=16).contains(&t), "got {t}");
    }

    #[test]
    fn long_unbroken_word_uses_char_floor() {
        let text = "a".repeat(100);
        assert_eq!(count_tokens(&text), 25);
    }

    #[test]
    fn monotone_under_concat() {
        let a = "chocolate fudge brownie";
        let b = "; lemon sorbet";
        let ab = format!("{a}{b}");
        assert!(count_tokens(&ab) >= count_tokens(a));
        assert!(count_tokens(&ab) >= count_tokens(b));
    }

    /// The `char` loop, kept as the reference the ASCII paths (bytes and
    /// SSE2 blocks) must agree with count for count.
    fn count_by_chars(text: &str) -> u32 {
        if text.is_empty() {
            return 0;
        }
        let (mut words, mut punct, mut chars, mut in_word) = (0u32, 0u32, 0u32, false);
        for c in text.chars() {
            chars += 1;
            if c.is_alphanumeric() {
                words += u32::from(!in_word);
                in_word = true;
            } else {
                in_word = false;
                punct += u32::from(!c.is_whitespace());
            }
        }
        (words + punct).max(chars.div_ceil(4)).max(1)
    }

    #[test]
    fn every_ascii_byte_pair_counts_as_the_char_loop_does() {
        // The pair inside a block, across a block boundary (the word carry),
        // and from the last block into the scalar tail, between fillers of
        // each class.
        for filler in [b'a', b' ', b'.', b'\x0b'] {
            for at in [3, 15, 31] {
                for a in 0..128u8 {
                    for b in 0..128u8 {
                        let mut bytes = vec![filler; 40];
                        bytes[at] = a;
                        bytes[at + 1] = b;
                        let text = std::str::from_utf8(&bytes).unwrap();
                        assert_eq!(count_tokens(text), count_by_chars(text), "{bytes:?}");
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn tokenizer_truncation_respects_budget(text in ".{0,300}", cap in 0u32..64) {
            let (prefix, truncated) = truncate_to_tokens(&text, cap);
            prop_assert!(text.starts_with(prefix));
            if truncated {
                prop_assert!(count_tokens(prefix) <= cap);
            } else {
                prop_assert_eq!(prefix, text.as_str());
            }
        }

        #[test]
        fn random_ascii_counts_as_the_char_loop_does(
            bytes in prop::collection::vec(0u8..128, 0..=300),
            pick in prop::collection::vec(0usize..8, 0..=300),
        ) {
            // Uniform bytes, and text drawn from a few classes so words and
            // blank runs of every length cross block boundaries.
            let texts = [
                String::from_utf8(bytes).unwrap(),
                pick.iter().map(|&p| ["a", "Z", "7", " ", "\t", ".", "\x0b", "ab "][p]).collect(),
            ];
            for text in texts {
                prop_assert_eq!(count_tokens(&text), count_by_chars(&text), "{:?}", text);
            }
        }
    }

    #[test]
    fn truncate_noop_when_within_budget() {
        let (out, cut) = truncate_to_tokens("short text", 100);
        assert_eq!(out, "short text");
        assert!(!cut);
    }

    #[test]
    fn truncate_respects_budget() {
        let text = "alpha beta gamma delta epsilon zeta eta theta";
        let (out, cut) = truncate_to_tokens(text, 4);
        assert!(cut);
        assert!(count_tokens(out) <= 4);
        assert!(text.starts_with(out));
    }

    #[test]
    fn truncate_handles_multibyte() {
        let text = "héllo wörld ünïcode tèxt çontent";
        let (out, _) = truncate_to_tokens(text, 3);
        assert!(text.starts_with(out));
        assert!(count_tokens(out) <= 3);
    }
}
