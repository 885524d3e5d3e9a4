//! Cheap text-similarity measures used to modulate task difficulty.
//!
//! The simulator grades how *hard* a pair of strings is (for entity
//! resolution) or how confusable two sort keys are (for lexicographic
//! comparisons) using surface similarity — mirroring the empirical fact that
//! LLMs confuse near-identical strings far more than dissimilar ones.

use std::collections::HashSet;

/// Jaccard similarity over character trigrams, in `[0, 1]`.
///
/// Strings shorter than 3 characters are padded conceptually by comparing
/// their full contents: identical short strings yield 1.0.
pub fn trigram_jaccard(a: &str, b: &str) -> f64 {
    if a == b {
        return 1.0;
    }
    let ta = trigrams(a);
    let tb = trigrams(b);
    if ta.is_empty() && tb.is_empty() {
        // Both too short for trigrams and not equal.
        return 0.0;
    }
    let inter = ta.intersection(&tb).count();
    let union = ta.union(&tb).count();
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

fn trigrams(s: &str) -> HashSet<[char; 3]> {
    let lowered: Vec<char> = s.to_lowercase().chars().collect();
    let mut set = HashSet::new();
    if lowered.len() < 3 {
        return set;
    }
    for w in lowered.windows(3) {
        set.insert([w[0], w[1], w[2]]);
    }
    set
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

/// Normalized Levenshtein similarity, `1 - distance / max_len`, in `[0, 1]`.
///
/// O(len(a) * len(b)); fine for the record-sized strings we simulate.
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    if a == b {
        return 1.0;
    }
    let ca: Vec<char> = a.chars().collect();
    let cb: Vec<char> = b.chars().collect();
    let max_len = ca.len().max(cb.len());
    if max_len == 0 {
        return 1.0;
    }
    let dist = levenshtein(&ca, &cb);
    1.0 - dist as f64 / max_len as f64
}

fn levenshtein(a: &[char], b: &[char]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr = vec![0usize; b.len() + 1];
    for (i, &ac) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &bc) in b.iter().enumerate() {
            let cost = usize::from(ac != bc);
            curr[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_strings_max_similarity() {
        assert_eq!(trigram_jaccard("abcdef", "abcdef"), 1.0);
        assert_eq!(levenshtein_similarity("abcdef", "abcdef"), 1.0);
        assert_eq!(common_prefix_ratio("same", "same"), 1.0);
    }

    #[test]
    fn disjoint_strings_low_similarity() {
        assert_eq!(trigram_jaccard("aaaa", "zzzz"), 0.0);
        assert!(levenshtein_similarity("aaaa", "zzzz") < 0.01);
        assert_eq!(common_prefix_ratio("aaaa", "zzzz"), 0.0);
    }

    #[test]
    fn near_duplicates_high_similarity() {
        let a = "indexing the positions of continuously moving objects";
        let b = "bindexing the positions of continuous moving objects";
        assert!(trigram_jaccard(a, b) > 0.6);
        assert!(levenshtein_similarity(a, b) > 0.9);
    }

    #[test]
    fn similarity_symmetric() {
        let (a, b) = (
            "crowdsourcing entity resolution",
            "entity resolution crowds",
        );
        assert!((trigram_jaccard(a, b) - trigram_jaccard(b, a)).abs() < 1e-12);
        assert!((levenshtein_similarity(a, b) - levenshtein_similarity(b, a)).abs() < 1e-12);
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
        assert_eq!(levenshtein_similarity("", ""), 1.0);
    }

    #[test]
    fn case_insensitive_trigrams() {
        assert_eq!(trigram_jaccard("Chocolate", "chocolate"), 1.0);
    }
}
