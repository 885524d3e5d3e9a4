//! Robust answer extraction from free-text LLM responses.
//!
//! §4 of the paper describes the hazard: chain-of-thought chatter, answers
//! restated with both polarities ("They are not the same... They are the
//! same."), prefixes like `Answer:`, and inconsistent structure. Each
//! extractor here applies an ordered chain of increasingly permissive rules
//! and returns a typed [`EngineError::Extraction`] when nothing matches, so
//! callers can retry or fall back.

use crate::error::EngineError;

/// Extract a yes/no answer.
///
/// Rule chain:
/// 1. the first word is `yes`/`no`;
/// 2. an explicit `answer is yes/no` phrase;
/// 3. the *last* standalone `yes`/`no` token (models put conclusions last —
///    this resolves the paper's contradictory-chatter pattern).
///
/// ASCII text is read in place, other text through a lowercase copy; on
/// ASCII text the two readers answer alike.
pub fn yes_no(text: &str) -> Result<bool, EngineError> {
    let verdict = if text.is_ascii() {
        yes_no_ascii(text)
    } else {
        yes_no_general(text)
    };
    verdict.ok_or_else(|| EngineError::Extraction {
        expected: "yes/no",
        response: text.to_owned(),
    })
}

/// [`yes_no`]'s rule chain on any text, over a lowercase copy split into
/// Unicode alphanumeric words.
fn yes_no_general(text: &str) -> Option<bool> {
    let lowered = text.to_lowercase();
    let words: Vec<&str> = lowered
        .split(|ch: char| !ch.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .collect();
    match words.first() {
        Some(&"yes") => return Some(true),
        Some(&"no") => return Some(false),
        _ => {}
    }
    if let Some(pos) = lowered.find("answer is") {
        let tail = &lowered[pos + "answer is".len()..];
        for w in tail.split(|ch: char| !ch.is_alphanumeric()) {
            match w {
                "" => continue,
                "yes" => return Some(true),
                "no" => return Some(false),
                _ => break,
            }
        }
    }
    let last = words.iter().rev().find(|w| **w == "yes" || **w == "no");
    last.map(|w| *w == "yes")
}

/// [`yes_no`]'s rule chain on ASCII text, read in place: ASCII lowercasing
/// keeps every byte offset and a character is alphanumeric exactly when it
/// is an ASCII one, so the words, the phrase and the verdict are the
/// general path's without its copy.
fn yes_no_ascii(text: &str) -> Option<bool> {
    fn words(text: &str) -> impl DoubleEndedIterator<Item = &str> {
        text.split(|ch: char| !ch.is_ascii_alphanumeric())
            .filter(|w| !w.is_empty())
    }
    let verdict = |word: &str| match word.len() {
        3 => word.eq_ignore_ascii_case("yes").then_some(true),
        2 => word.eq_ignore_ascii_case("no").then_some(false),
        _ => None,
    };
    if let Some(first) = words(text).next().and_then(verdict) {
        return Some(first);
    }
    if let Some(pos) = ascii_positions(text, "answer is").next() {
        let after = words(&text[pos + "answer is".len()..]).next();
        if let Some(stated) = after.and_then(verdict) {
            return Some(stated);
        }
    }
    words(text).rev().find_map(verdict)
}

/// Extract an integer rating (the first integer in the response).
pub fn rating(text: &str) -> Result<u8, EngineError> {
    first_integer(text)
        .and_then(|n| u8::try_from(n).ok())
        .ok_or_else(|| EngineError::Extraction {
            expected: "rating",
            response: text.to_owned(),
        })
}

/// Extract a count (the first integer in the response).
pub fn count(text: &str) -> Result<u64, EngineError> {
    first_integer(text).ok_or_else(|| EngineError::Extraction {
        expected: "count",
        response: text.to_owned(),
    })
}

fn first_integer(text: &str) -> Option<u64> {
    let mut current: Option<u64> = None;
    for ch in text.chars() {
        if let Some(d) = ch.to_digit(10) {
            current = Some(
                current
                    .unwrap_or(0)
                    .saturating_mul(10)
                    .saturating_add(u64::from(d)),
            );
        } else if current.is_some() {
            break;
        }
    }
    current
}

/// The items of a (possibly numbered) list response, borrowed from it.
///
/// Skips preamble lines (ending with `:`) and blank lines; strips `N.` /
/// `N)` prefixes. The one line reader: the packed round reads each answer
/// off these lines, and [`packed_answers`] and [`yes_no_list`] wrap it.
pub(crate) fn list_items(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.ends_with(':'))
        .map(strip_enumeration)
}

fn strip_enumeration(line: &str) -> &str {
    let rest = line.trim_start_matches(|c: char| c.is_ascii_digit());
    if rest.len() != line.len() {
        let rest = rest.trim_start_matches(['.', ')']);
        return rest.trim_start();
    }
    line
}

/// Parse a batched yes/no response: one answer per (possibly numbered)
/// line, `expected` answers required.
pub(crate) fn yes_no_list(text: &str, expected: usize) -> Result<Vec<bool>, EngineError> {
    let mut out = Vec::with_capacity(expected);
    out.extend(list_items(text).filter_map(|line| yes_no(line).ok()));
    if out.len() != expected {
        return Err(EngineError::Extraction {
            expected: "yes/no list",
            response: text.to_owned(),
        });
    }
    Ok(out)
}

/// Parse a packed multi-item response: one answer line per packed item,
/// `expected` lines required (numbering and preamble stripped).
///
/// A count mismatch — the numbered-list dropout/duplication failure mode of
/// long packed prompts — is `None`; the dispatcher reacts by bisecting the
/// pack and retrying (see `Engine::run_built`).
pub fn packed_answers(text: &str, expected: usize) -> Option<Vec<String>> {
    let answers: Vec<String> = list_items(text).map(str::to_owned).collect();
    (answers.len() == expected).then_some(answers)
}

/// Parse a grouped-duplicates response (`Group N: a | b | c` per line).
pub fn groups(text: &str) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if !line.to_lowercase().starts_with("group") {
            continue;
        }
        let Some((_, members)) = line.split_once(':') else {
            continue;
        };
        let members: Vec<String> = members
            .split('|')
            .map(|m| m.trim().to_owned())
            .filter(|m| !m.is_empty())
            .collect();
        if !members.is_empty() {
            out.push(members);
        }
    }
    out
}

/// Extract a free-form value (imputation / classification answer).
///
/// Rule chain: quoted string → `Answer:` prefix → `most likely ...` →
/// `it is ...` → first non-empty line with trailing punctuation trimmed.
pub fn value(text: &str) -> Result<String, EngineError> {
    value_in(text)
        .map(str::to_owned)
        .ok_or_else(|| EngineError::Extraction {
            expected: "value",
            response: text.to_owned(),
        })
}

/// [`value`]'s rule chain, borrowing the value from `text`; `None` for
/// blank text.
fn value_in(text: &str) -> Option<&str> {
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return None;
    }
    // 1. A double-quoted span.
    if let Some(start) = trimmed.find('"') {
        if let Some(len) = trimmed[start + 1..].find('"') {
            let inner = &trimmed[start + 1..start + 1 + len];
            if !inner.is_empty() {
                return Some(inner);
            }
        }
    }
    // 2. "Answer: X"
    if let Some(pos) = ascii_positions(trimmed, "answer:").next() {
        let tail = trimmed[pos + "answer:".len()..].trim();
        if !tail.is_empty() {
            return Some(strip_sentence_end(first_line(tail)));
        }
    }
    // 3. "... most likely X" / 4. "... it is X"
    for marker in ["most likely", "it is "] {
        if let Some(pos) = ascii_positions(trimmed, marker).next_back() {
            let tail = trimmed[pos + marker.len()..].trim();
            if !tail.is_empty() {
                return Some(strip_sentence_end(first_line(tail)));
            }
        }
    }
    // 5. First non-empty line.
    Some(strip_sentence_end(first_line(trimmed)))
}

/// Extract one of the given labels from a classification response.
///
/// Prefers an exact match of the cleaned [`value`] extraction; otherwise
/// takes the label whose *last* occurrence in the text is latest (models
/// state conclusions last, per §4's multiple-choice discussion).
pub fn choice(text: &str, labels: &[String]) -> Result<String, EngineError> {
    choice_index(text, labels).map(|at| labels[at].clone())
}

/// [`choice`], as the chosen label's index in `labels`.
pub(crate) fn choice_index(text: &str, labels: &[String]) -> Result<usize, EngineError> {
    if let Some(v) = value_in(text) {
        if let Some(at) = labels
            .iter()
            .position(|label| v.eq_ignore_ascii_case(label))
        {
            return Ok(at);
        }
    }
    let lowered = text.to_lowercase();
    let mut best: Option<(usize, usize)> = None;
    for (at, label) in labels.iter().enumerate() {
        if let Some(pos) = lowered.rfind(&label.to_lowercase()) {
            if best.is_none_or(|(bp, _)| pos > bp) {
                best = Some((pos, at));
            }
        }
    }
    best.map(|(_, at)| at)
        .ok_or_else(|| EngineError::Extraction {
            expected: "choice",
            response: text.to_owned(),
        })
}

/// Byte offsets in `text` where the ASCII `marker` occurs, ignoring ASCII
/// case, in ascending order. Found in `text` itself, not in a lowercase
/// copy, whose byte offsets drift wherever lowercasing changes a
/// character's length (U+212A KELVIN SIGN → `k`, `İ` → `i̇`). A match is
/// all ASCII bytes, so both its ends are char boundaries of `text`.
fn ascii_positions<'a>(
    text: &'a str,
    marker: &'a str,
) -> impl DoubleEndedIterator<Item = usize> + 'a {
    text.as_bytes()
        .windows(marker.len())
        .enumerate()
        .filter(move |(_, window)| window.eq_ignore_ascii_case(marker.as_bytes()))
        .map(|(at, _)| at)
}

fn first_line(text: &str) -> &str {
    text.lines().next().unwrap_or("").trim()
}

fn strip_sentence_end(s: &str) -> &str {
    s.trim_end_matches(['.', '!', '?', ',', ';']).trim()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn yes_no_first_word() {
        assert_eq!(yes_no("Yes."), Ok(true));
        assert_eq!(yes_no("No, they differ."), Ok(false));
        assert_eq!(yes_no("yes — definitely"), Ok(true));
    }

    #[test]
    fn yes_no_contradictory_chatter_resolved_by_last_token() {
        // The paper's observed failure pattern.
        let text = "They are not the same... on closer inspection of the fields, \
                    They are the same. Yes.";
        assert_eq!(yes_no(text), Ok(true));
    }

    #[test]
    fn yes_no_answer_is_phrase_beats_parenthetical() {
        let text = "After comparing the two, my answer is Yes. (Not No.)";
        assert_eq!(yes_no(text), Ok(true));
        let text = "After comparing the two, my answer is No. (Not Yes.)";
        assert_eq!(yes_no(text), Ok(false));
    }

    #[test]
    fn yes_no_error_on_garbage() {
        assert!(matches!(
            yes_no("I cannot determine this."),
            Err(EngineError::Extraction { .. })
        ));
    }

    #[test]
    fn rating_variants() {
        assert_eq!(rating("5"), Ok(5));
        assert_eq!(rating("Rating: 5/7"), Ok(5));
        assert_eq!(rating("I would rate this a 6 out of 7."), Ok(6));
        assert!(rating("no number here").is_err());
    }

    #[test]
    fn count_variants() {
        assert_eq!(count("12"), Ok(12));
        assert_eq!(
            count("Approximately 12 of the 40 items satisfy the condition."),
            Ok(12)
        );
    }

    #[test]
    fn overlong_numbers_saturate_instead_of_overflowing() {
        // 20 nines exceed u64: the accumulator saturates (it used to panic
        // in debug builds and wrap to 8 in release).
        let huge = "There are 99999999999999999999 of them.";
        assert_eq!(count(huge), Ok(u64::MAX));
        assert!(matches!(
            rating(huge),
            Err(EngineError::Extraction {
                expected: "rating",
                ..
            })
        ));
    }

    #[test]
    fn list_items_strips_numbering_and_preamble() {
        let text = "Here is the sorted list:\n1. alpha\n2. beta\n3) gamma\n";
        let items: Vec<&str> = list_items(text).collect();
        assert_eq!(items, vec!["alpha", "beta", "gamma"]);
    }

    #[test]
    fn list_items_handles_unnumbered() {
        let items: Vec<&str> = list_items("apple\nbanana\n").collect();
        assert_eq!(items, vec!["apple", "banana"]);
    }

    /// The list reader as it was when it returned owned lines.
    fn owned_list_items(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.ends_with(':') {
                continue;
            }
            out.push(strip_enumeration(line).to_owned());
        }
        out
    }

    #[test]
    fn borrowed_lines_are_the_owned_readers_lines() {
        let texts = [
            "",
            "\n\n",
            "Here are the answers:\n1. Yes\n2) no\n\n3.   maybe so\n",
            "Answers:\r\n1. Yes\r\n\r\n2. No\r\n",
            "10) ten\n  11.eleven  \n12\n3)\n4.:\nnote: kept?\n",
            "plain\r\nlines\rwith a bare CR\n\t\n last ",
            "1. café\n2. 日本:\n3. 🦀 ok",
        ];
        for text in texts {
            let borrowed: Vec<&str> = list_items(text).collect();
            assert_eq!(borrowed, owned_list_items(text), "{text:?}");
        }
    }

    #[test]
    fn groups_parsing() {
        let text = "I grouped the records as follows:\nGroup 1: a | a'\nGroup 2: b\n";
        assert_eq!(
            groups(text),
            vec![vec!["a".to_owned(), "a'".to_owned()], vec!["b".to_owned()]]
        );
    }

    #[test]
    fn value_variants() {
        assert_eq!(value("Berkeley").unwrap(), "Berkeley");
        assert_eq!(value("Answer: Berkeley").unwrap(), "Berkeley");
        assert_eq!(
            value("The missing value is most likely \"Berkeley\".").unwrap(),
            "Berkeley"
        );
        assert_eq!(
            value("Based on the record, I believe it is Berkeley.").unwrap(),
            "Berkeley"
        );
        assert!(value("   ").is_err());
    }

    #[test]
    fn value_preserves_internal_punctuation() {
        assert_eq!(value("Answer: Tom Tom").unwrap(), "Tom Tom");
        assert_eq!(value("510-548-5525.").unwrap(), "510-548-5525");
    }

    #[test]
    fn value_slices_at_markers_found_in_the_text_itself() {
        // Lowercasing shrinks U+212A KELVIN SIGN (3 bytes → `k`) and grows
        // `İ` (2 bytes → `i̇`, 3): offsets found in a lowercase copy missed
        // the answer, or fell inside a character.
        assert_eq!(
            value("\u{212A}\u{212A} Answer: Berkeley").unwrap(),
            "Berkeley"
        );
        assert_eq!(value("İİİ answer: Oakland").unwrap(), "Oakland");
        assert_eq!(
            value("\u{212A}\u{212A}\u{212A}\u{212A} It is cafés").unwrap(),
            "cafés"
        );
        assert_eq!(value("İstanbul, MOST LIKELY Ankara.").unwrap(), "Ankara");
    }

    #[test]
    fn choice_exact_then_last_occurrence() {
        let labels = vec!["A".to_owned(), "B".to_owned(), "D".to_owned()];
        assert_eq!(choice("B", &labels).unwrap(), "B");
        // §4's example: every answer letter appears; conclusion comes last.
        let text = "I considered A because B and D are not relevant. I choose D";
        assert_eq!(choice(text, &labels).unwrap(), "D");
        assert!(choice("none of those", &labels).is_err());
    }

    #[test]
    fn yes_no_list_parses_numbered_lines() {
        let text = "1. Yes\n2. No\n3. Yes\n";
        assert_eq!(yes_no_list(text, 3).unwrap(), vec![true, false, true]);
        assert!(yes_no_list(text, 4).is_err(), "count mismatch is an error");
        assert!(yes_no_list("garbage", 1).is_err());
    }

    #[test]
    fn packed_answers_requires_exact_count() {
        let text = "Here is the sorted list:\n1. Yes\n2. No\n3. berkeley\n";
        assert_eq!(
            packed_answers(text, 3).unwrap(),
            vec!["Yes", "No", "berkeley"]
        );
        assert_eq!(packed_answers(text, 4), None);
        assert_eq!(packed_answers(text, 2), None);
    }

    #[test]
    fn yes_no_list_skips_preamble() {
        let text = "Here is the sorted list:\n1. Yes\n2. No\n";
        assert_eq!(yes_no_list(text, 2).unwrap(), vec![true, false]);
    }

    #[test]
    fn non_ascii_text_is_read_by_the_general_path() {
        // `é` is a letter to Unicode and a separator to the ASCII reader:
        // in place, "yes" would be the first word.
        let text = "é yes, then no";
        assert_eq!(yes_no_ascii(text), Some(true));
        assert_eq!(yes_no_general(text), Some(false));
        assert_eq!(yes_no(text), Ok(false));
        // U+212A KELVIN SIGN lowercases to `k`, one byte shorter.
        let text = "\u{212A} the answer is no, not yes";
        assert_eq!(yes_no(text), Ok(false));
    }

    /// Words of ASCII answers: every word and phrase [`yes_no`] looks for,
    /// in mixed case and run together, digits and filler.
    const ASCII_WORDS: [&str; 20] = [
        "yes",
        "YES",
        "Yes",
        "yEs",
        "no",
        "NO",
        "nO",
        "answer is",
        "ANSWER IS",
        "Answer",
        "is",
        "answeris",
        "yesno",
        "noyes",
        "yes1",
        "2no",
        "42",
        "maybe",
        "x",
        "",
    ];

    /// What separates two [`ASCII_WORDS`]: punctuation, whitespace, or
    /// nothing, which runs them together.
    const ASCII_GAPS: [&str; 8] = [" ", "  ", "\n", ". ", ",", "!", ": ", ""];

    /// The ASCII text the `(word, gap)` picks spell.
    fn spelled(picks: &[(usize, usize)]) -> String {
        picks
            .iter()
            .flat_map(|&(word, gap)| [ASCII_WORDS[word], ASCII_GAPS[gap]])
            .collect()
    }

    /// [`choice`] as it was when it read [`value`]'s owned copy.
    fn owned_choice(text: &str, labels: &[String]) -> Result<String, EngineError> {
        if let Ok(v) = value(text) {
            for label in labels {
                if v.eq_ignore_ascii_case(label) {
                    return Ok(label.clone());
                }
            }
        }
        let lowered = text.to_lowercase();
        let mut best: Option<(usize, &String)> = None;
        for label in labels {
            if let Some(pos) = lowered.rfind(&label.to_lowercase()) {
                if best.is_none_or(|(bp, _)| pos > bp) {
                    best = Some((pos, label));
                }
            }
        }
        best.map(|(_, l)| l.clone())
            .ok_or_else(|| EngineError::Extraction {
                expected: "choice",
                response: text.to_owned(),
            })
    }

    proptest! {
        #[test]
        fn the_ascii_reader_answers_as_the_general_one(
            picks in prop::collection::vec((0usize..ASCII_WORDS.len(), 0usize..ASCII_GAPS.len()), 0..10),
            bytes in prop::collection::vec(0u8..128, 0..24),
            at in 0usize..32,
        ) {
            let pieced = spelled(&picks);
            let raw: String = bytes.iter().map(|&b| char::from(b)).collect();
            // The raw bytes with a phrase spliced in at any offset.
            let mut spliced = raw.clone();
            spliced.insert_str(at.min(raw.len()), " Answer is ");
            for text in [pieced, raw, spliced, String::new()] {
                prop_assert!(text.is_ascii());
                prop_assert_eq!(yes_no_ascii(&text), yes_no_general(&text), "{:?}", text);
                // And through the public door, errors included.
                let general = yes_no_general(&text).ok_or_else(|| EngineError::Extraction {
                    expected: "yes/no",
                    response: text.clone(),
                });
                prop_assert_eq!(yes_no(&text), general);
            }
        }

        #[test]
        fn a_borrowed_choice_is_the_owned_one(
            picks in prop::collection::vec((0usize..ASCII_WORDS.len(), 0usize..ASCII_GAPS.len()), 0..10),
            marks in prop::collection::vec(0usize..6, 0..6),
        ) {
            const MARKS: [&str; 6] = ["\"", "Answer: ", "most likely ", "it is ", "B", "d."];
            let labels = ["A", "B", "D", "yes", "maybe"].map(str::to_owned);
            let mut text = spelled(&picks);
            for (k, &m) in marks.iter().enumerate() {
                text.insert_str((k * 7).min(text.len()), MARKS[m]);
            }
            prop_assert_eq!(choice(&text, &labels), owned_choice(&text, &labels));
        }
    }

    #[test]
    fn multi_digit_and_overflow_ratings() {
        assert_eq!(rating("10 out of 10"), Ok(10));
        assert!(rating("999999999999 stars").is_err(), "overflows u8");
    }
}
