//! Text mutation: how the simulator hallucinates list entries.
//!
//! The paper's Table 2 experiment saw hallucinations like `"bindexing..."`
//! for `"indexing..."` — plausible near-copies of real entries. We reproduce
//! that by applying small deterministic mutations to an existing entry.

use rand::Rng;

fn random_letter<R: Rng>(rng: &mut R) -> char {
    (b'a' + rng.random_range(0..26u8)) as char
}

/// Produce a hallucinated variant of `text` that differs from it.
///
/// Mutations mirror observed LLM behaviour: prepend a letter, double a
/// letter, drop a letter, or swap two adjacent letters.
pub(crate) fn hallucinate<R: Rng>(text: &str, rng: &mut R) -> String {
    let chars: Vec<char> = text.chars().collect();
    if chars.is_empty() {
        return "ghost".to_owned();
    }
    for _ in 0..8 {
        let out = match rng.random_range(0..4u8) {
            0 => {
                // Prepend a letter (the paper's "bindexing" pattern).
                let c = random_letter(rng);
                let mut s = String::with_capacity(text.len() + 1);
                s.push(c);
                s.push_str(text);
                s
            }
            1 => {
                // Double a letter.
                let i = rng.random_range(0..chars.len());
                let mut s: String = chars[..=i].iter().collect();
                s.push(chars[i]);
                s.extend(&chars[i + 1..]);
                s
            }
            2 => {
                // Drop a letter (only if that leaves something).
                if chars.len() < 2 {
                    continue;
                }
                let i = rng.random_range(0..chars.len());
                let mut s: String = chars[..i].iter().collect();
                s.extend(&chars[i + 1..]);
                s
            }
            _ => {
                // Swap adjacent letters.
                if chars.len() < 2 {
                    continue;
                }
                let i = rng.random_range(0..chars.len() - 1);
                if chars[i] == chars[i + 1] {
                    continue;
                }
                let mut v = chars.clone();
                v.swap(i, i + 1);
                v.into_iter().collect()
            }
        };
        if out != text {
            return out;
        }
    }
    // Mutation kept colliding (e.g. "aaaa"); fall back to a prepend, which
    // always changes the string.
    format!("x{text}")
}

/// Whether a value has *structural* formatting variants (internal spaces or
/// camel-case boundaries). Values like `"berkeley"` are written one way by
/// everyone, so LLM answers for them survive exact-match scoring; values
/// like `"Tom Tom"` or `"san francisco"` do not.
pub(crate) fn has_format_variants(value: &str) -> bool {
    !variant_candidates(value).is_empty()
}

/// Produce a formatting variant of an attribute value that a strict
/// exact-match scorer would reject ("TomTom" vs "Tom Tom", per §3.4).
pub(crate) fn format_variant<R: Rng>(value: &str, rng: &mut R) -> String {
    let candidates: Vec<String> = variant_candidates(value);
    if candidates.is_empty() {
        // Nothing structural to vary; change case instead.
        return flip_case(value);
    }
    let pick = rng.random_range(0..candidates.len());
    candidates[pick].clone()
}

fn variant_candidates(value: &str) -> Vec<String> {
    let mut out = Vec::new();
    // Remove internal spaces: "Tom Tom" -> "TomTom".
    if value.contains(' ') {
        out.push(value.replace(' ', ""));
        // Drop a trailing corporate suffix: "Elgato Systems" -> "Elgato".
        if let Some((head, tail)) = value.rsplit_once(' ') {
            const SUFFIXES: [&str; 6] = ["Systems", "Inc", "Inc.", "Corp", "Co", "Ltd"];
            if SUFFIXES.contains(&tail) {
                out.push(head.to_owned());
            } else {
                // Keep only the first word as an abbreviation variant.
                out.push(value.split(' ').next().unwrap_or(head).to_owned());
            }
        }
    } else if value.len() > 3 {
        // Insert a space at a camel-case boundary: "TomTom" -> "Tom Tom".
        let chars: Vec<char> = value.chars().collect();
        for i in 1..chars.len() {
            if chars[i].is_uppercase() && chars[i - 1].is_lowercase() {
                let mut s: String = chars[..i].iter().collect();
                s.push(' ');
                s.extend(&chars[i..]);
                out.push(s);
                break;
            }
        }
    }
    out.retain(|v| v != value && !v.is_empty());
    out
}

fn flip_case(value: &str) -> String {
    let lower = value.to_lowercase();
    if lower != value {
        lower
    } else {
        value.to_uppercase()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn hallucination_differs_from_original() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for word in ["indexing", "a", "zz", "continuous queries"] {
            for _ in 0..20 {
                let h = hallucinate(word, &mut rng);
                assert_ne!(h, word);
                assert!(!h.is_empty());
            }
        }
    }

    #[test]
    fn hallucination_of_degenerate_strings() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_ne!(hallucinate("", &mut rng), "");
        let h = hallucinate("aaaa", &mut rng);
        assert_ne!(h, "aaaa");
    }

    #[test]
    fn format_variant_removes_space() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut seen_spaceless = false;
        for _ in 0..32 {
            let v = format_variant("Tom Tom", &mut rng);
            assert_ne!(v, "Tom Tom");
            if v == "TomTom" || v == "Tom" {
                seen_spaceless = true;
            }
        }
        assert!(seen_spaceless);
    }

    #[test]
    fn format_variant_drops_corporate_suffix() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut seen_bare = false;
        for _ in 0..32 {
            if format_variant("Elgato Systems", &mut rng) == "Elgato" {
                seen_bare = true;
            }
        }
        assert!(seen_bare);
    }

    #[test]
    fn format_variant_splits_camel_case() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let v = format_variant("TomTom", &mut rng);
        assert_eq!(v, "Tom Tom");
    }

    #[test]
    fn format_variant_falls_back_to_case_flip() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let v = format_variant("abc", &mut rng);
        assert_eq!(v, "ABC");
    }
}
