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
        for &b in text.as_bytes() {
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

/// Truncate `text` to approximately `max_tokens`, respecting char boundaries.
///
/// Used by the simulator to emulate `max_tokens` cut-offs (finish reason
/// `Length`). Returns the truncated text and whether truncation occurred.
pub fn truncate_to_tokens(text: &str, max_tokens: u32) -> (&str, bool) {
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
