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
pub fn yes_no(text: &str) -> Result<bool, EngineError> {
    let lowered = text.to_lowercase();
    let words: Vec<&str> = lowered
        .split(|ch: char| !ch.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .collect();
    match words.first() {
        Some(&"yes") => return Ok(true),
        Some(&"no") => return Ok(false),
        _ => {}
    }
    if let Some(pos) = lowered.find("answer is") {
        let tail = &lowered[pos + "answer is".len()..];
        for w in tail.split(|ch: char| !ch.is_alphanumeric()) {
            match w {
                "" => continue,
                "yes" => return Ok(true),
                "no" => return Ok(false),
                _ => break,
            }
        }
    }
    let last = words.iter().rev().find(|w| **w == "yes" || **w == "no");
    match last {
        Some(&"yes") => Ok(true),
        Some(&"no") => Ok(false),
        _ => Err(EngineError::Extraction {
            expected: "yes/no",
            response: text.to_owned(),
        }),
    }
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

/// Parse a (possibly numbered) list response into item strings.
///
/// Skips preamble lines (ending with `:`) and blank lines; strips `N.` /
/// `N)` prefixes.
pub fn list_items(text: &str) -> Vec<String> {
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
pub fn yes_no_list(text: &str, expected: usize) -> Result<Vec<bool>, EngineError> {
    let mut out = Vec::with_capacity(expected);
    for line in list_items(text) {
        if let Ok(answer) = yes_no(&line) {
            out.push(answer);
        }
    }
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
/// long packed prompts — is an extraction error; the dispatcher reacts by
/// bisecting the pack and retrying (see `Engine::run_packed`).
pub fn packed_answers(text: &str, expected: usize) -> Result<Vec<String>, EngineError> {
    let answers = list_items(text);
    if answers.len() != expected {
        return Err(EngineError::Extraction {
            expected: "packed answer list",
            response: text.to_owned(),
        });
    }
    Ok(answers)
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
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Err(EngineError::Extraction {
            expected: "value",
            response: text.to_owned(),
        });
    }
    // 1. A double-quoted span.
    if let Some(start) = trimmed.find('"') {
        if let Some(len) = trimmed[start + 1..].find('"') {
            let inner = &trimmed[start + 1..start + 1 + len];
            if !inner.is_empty() {
                return Ok(inner.to_owned());
            }
        }
    }
    // 2. "Answer: X"
    if let Some(pos) = trimmed.to_lowercase().find("answer:") {
        let tail = trimmed[pos + "answer:".len()..].trim();
        if !tail.is_empty() {
            return Ok(strip_sentence_end(first_line(tail)).to_owned());
        }
    }
    // 3. "... most likely X" / 4. "... it is X"
    for marker in ["most likely", "it is "] {
        if let Some(pos) = trimmed.to_lowercase().rfind(marker) {
            let tail = trimmed[pos + marker.len()..].trim();
            if !tail.is_empty() {
                return Ok(strip_sentence_end(first_line(tail)).to_owned());
            }
        }
    }
    // 5. First non-empty line.
    Ok(strip_sentence_end(first_line(trimmed)).to_owned())
}

/// Extract one of the given labels from a classification response.
///
/// Prefers an exact match of the cleaned [`value`] extraction; otherwise
/// takes the label whose *last* occurrence in the text is latest (models
/// state conclusions last, per §4's multiple-choice discussion).
pub fn choice(text: &str, labels: &[String]) -> Result<String, EngineError> {
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

fn first_line(text: &str) -> &str {
    text.lines().next().unwrap_or("").trim()
}

fn strip_sentence_end(s: &str) -> &str {
    s.trim_end_matches(['.', '!', '?', ',', ';']).trim()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(list_items(text), vec!["alpha", "beta", "gamma"]);
    }

    #[test]
    fn list_items_handles_unnumbered() {
        assert_eq!(list_items("apple\nbanana\n"), vec!["apple", "banana"]);
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
        assert!(matches!(
            packed_answers(text, 4),
            Err(EngineError::Extraction { .. })
        ));
        assert!(matches!(
            packed_answers(text, 2),
            Err(EngineError::Extraction { .. })
        ));
    }

    #[test]
    fn yes_no_list_skips_preamble() {
        let text = "Here is the sorted list:\n1. Yes\n2. No\n";
        assert_eq!(yes_no_list(text, 2).unwrap(), vec![true, false]);
    }

    #[test]
    fn multi_digit_and_overflow_ratings() {
        assert_eq!(rating("10 out of 10"), Ok(10));
        assert!(rating("999999999999 stars").is_err(), "overflows u8");
    }
}
