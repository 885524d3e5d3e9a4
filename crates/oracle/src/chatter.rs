//! Free-text "chatter" rendering around answers.
//!
//! Real chat models rarely emit a bare `Yes`; they wrap answers in prose, and
//! occasionally in *contradictory* prose — the paper reports seeing
//! `"They are not the same...[explanation]...They are the same."` in its
//! entity-resolution study. The simulator routes every answer through this
//! module so the extraction layer in `crowdprompt-core` is exercised against
//! realistic response surfaces.

/// Style knobs resolved from a per-response hash.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChatterStyle {
    /// Verbosity in `[0,1]` — 0 renders the bare answer.
    pub level: f64,
    /// Which phrasing family to use (derived from the response hash).
    pub variant: u64,
    /// Emit the contradictory malformed pattern.
    pub malformed: bool,
}

/// Wrap a yes/no answer in chatter.
///
/// When `style.malformed` is set, the output leads with the *opposite*
/// polarity before settling on the answer, reproducing the extraction hazard
/// described in §4 of the paper.
pub(crate) fn wrap_yes_no(answer: bool, style: ChatterStyle) -> String {
    let word = if answer { "Yes" } else { "No" };
    let opposite = if answer { "No" } else { "Yes" };
    if style.malformed {
        let (a, b) = if answer {
            ("They are not the same", "They are the same")
        } else {
            ("They are the same", "They are not the same")
        };
        return format!("{a}... on closer inspection of the fields, {b}. {word}.");
    }
    if style.level < 0.2 {
        return format!("{word}.");
    }
    match style.variant % 4 {
        0 => format!("{word}."),
        1 => format!("{word}, based on the information provided."),
        2 => format!("After comparing the two, my answer is {word}. (Not {opposite}.)"),
        _ => format!("{word} — the records appear to support this conclusion."),
    }
}

/// Wrap a numeric rating in chatter, e.g. `"I would rate this a 5 out of 7."`.
pub(crate) fn wrap_rating(rating: u8, scale_max: u8, style: ChatterStyle) -> String {
    if style.level < 0.2 {
        return rating.to_string();
    }
    match style.variant % 3 {
        0 => format!("{rating}"),
        1 => format!("Rating: {rating}/{scale_max}"),
        _ => format!("I would rate this a {rating} out of {scale_max}."),
    }
}

/// Wrap a chosen value (imputation / classification answer) in chatter.
pub(crate) fn wrap_value(value: &str, style: ChatterStyle) -> String {
    if style.level < 0.2 {
        return value.to_owned();
    }
    match style.variant % 4 {
        0 => value.to_owned(),
        1 => format!("Answer: {value}"),
        2 => format!("The missing value is most likely \"{value}\"."),
        _ => format!("Based on the record, I believe it is {value}."),
    }
}

/// Render a sorted list as a numbered block, the way chat models answer
/// "return the sorted list" prompts.
pub(crate) fn wrap_list(items: &[&str], style: ChatterStyle) -> String {
    let mut out = String::with_capacity(items.len() * 16 + 64);
    if style.level >= 0.2 && style.variant.is_multiple_of(2) {
        out.push_str("Here is the sorted list:\n");
    }
    for (i, item) in items.iter().enumerate() {
        out.push_str(&format!("{}. {}\n", i + 1, item));
    }
    out
}

/// Render duplicate groups, one group per line.
pub(crate) fn wrap_groups(groups: &[Vec<&str>], style: ChatterStyle) -> String {
    let mut out = String::new();
    if style.level >= 0.2 {
        out.push_str("I grouped the records as follows:\n");
    }
    for (i, group) in groups.iter().enumerate() {
        out.push_str(&format!("Group {}: {}\n", i + 1, group.join(" | ")));
    }
    out
}

/// Render a count estimate.
pub(crate) fn wrap_count(count: usize, total: usize, style: ChatterStyle) -> String {
    if style.level < 0.2 {
        return count.to_string();
    }
    match style.variant % 2 {
        0 => format!("{count}"),
        _ => format!("Approximately {count} of the {total} items satisfy the condition."),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn style(level: f64, variant: u64, malformed: bool) -> ChatterStyle {
        ChatterStyle {
            level,
            variant,
            malformed,
        }
    }

    #[test]
    fn bare_answers_at_low_level() {
        assert_eq!(wrap_yes_no(true, style(0.0, 3, false)), "Yes.");
        assert_eq!(wrap_rating(5, 7, style(0.0, 2, false)), "5");
        assert_eq!(wrap_value("Berkeley", style(0.0, 2, false)), "Berkeley");
    }

    #[test]
    fn malformed_contains_both_polarities_but_ends_with_answer() {
        let s = wrap_yes_no(true, style(0.9, 0, true));
        assert!(s.contains("not the same"));
        assert!(s.trim_end().ends_with("Yes."));
        let s = wrap_yes_no(false, style(0.9, 0, true));
        assert!(s.trim_end().ends_with("No."));
    }

    #[test]
    fn all_yes_no_variants_contain_answer_word() {
        for v in 0..8 {
            let s = wrap_yes_no(true, style(0.9, v, false));
            assert!(s.contains("Yes"), "variant {v}: {s}");
        }
    }

    #[test]
    fn list_rendering_is_numbered() {
        let s = wrap_list(&["b", "a"], style(0.0, 1, false));
        assert_eq!(s, "1. b\n2. a\n");
    }

    #[test]
    fn rating_variants_contain_number() {
        for v in 0..6 {
            let s = wrap_rating(4, 7, style(0.9, v, false));
            assert!(s.contains('4'), "variant {v}: {s}");
        }
    }

    #[test]
    fn groups_render_each_group() {
        let s = wrap_groups(&[vec!["a", "a'"], vec!["b"]], style(0.0, 0, false));
        assert!(s.contains("Group 1: a | a'"));
        assert!(s.contains("Group 2: b"));
    }

    #[test]
    fn count_variants_contain_count() {
        for v in 0..4 {
            let s = wrap_count(12, 40, style(0.9, v, false));
            assert!(s.contains("12"), "variant {v}: {s}");
        }
    }
}
