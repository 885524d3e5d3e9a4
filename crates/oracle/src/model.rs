//! Model profiles: context window, pricing, and the calibrated noise model.

use crate::pricing::Pricing;

/// Noise characteristics of a simulated model.
///
/// Each field maps to a failure mode the paper observes in real LLMs. The
/// presets below are calibrated so the four case-study tables come out with
/// the same *shape* as the paper's numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseProfile {
    // -- pairwise comparisons ------------------------------------------------
    /// Thurstone noise scale for latent-score comparisons: the probability of
    /// ordering a pair correctly is `sigmoid(|Δscore| / compare_sigma)`.
    /// Smaller values mean a sharper, more reliable comparator.
    pub compare_sigma: f64,
    /// Base error probability for lexicographic comparisons.
    pub compare_lex_error: f64,
    /// Extra lexicographic error proportional to the common-prefix ratio of
    /// the two keys (words sharing long prefixes are harder to order).
    pub compare_lex_prefix_penalty: f64,
    /// Additive bias toward preferring the first-listed item (the paper's
    /// sort-then-insert runs each comparison in both orders to cancel this).
    pub position_bias: f64,
    /// Per-extra-pair multiplicative inflation of `compare_sigma` (and of
    /// the lexicographic error) when comparisons are batched into one
    /// prompt: a batch of `b` pairs behaves like a comparator with noise
    /// scale `sigma * (1 + batch_penalty * (b - 1))`.
    pub compare_batch_penalty: f64,

    // -- ratings -------------------------------------------------------------
    /// Standard deviation of noise added to the normalized (0..1) latent
    /// score before quantizing onto the rating scale.
    pub rate_sigma: f64,

    // -- whole-list sorting --------------------------------------------------
    /// Rank jitter for low-salience items in a single-prompt sort, as a
    /// fraction of the list length.
    pub sort_jitter: f64,
    /// Salience threshold above which an item is placed confidently.
    pub sort_salience_threshold: f64,
    /// Per-item omission probability for a list of `sort_drop_ref_len` items;
    /// scales linearly with list length.
    pub sort_drop_rate: f64,
    /// Reference list length at which `sort_drop_rate` applies.
    pub sort_drop_ref_len: usize,
    /// Multiplier (>= 1) applied to the drop rate for items in the middle
    /// third of the prompt ("lost in the middle").
    pub sort_middle_bias: f64,
    /// Per-item probability of emitting a hallucinated (mutated) entry.
    pub sort_halluc_rate: f64,

    // -- entity resolution ---------------------------------------------------
    /// P(say "yes" | true duplicates) for a maximally *easy* pair
    /// (near-identical strings).
    pub er_recall_easy: f64,
    /// P(say "yes" | true duplicates) for a maximally *hard* pair.
    pub er_recall_hard: f64,
    /// P(say "yes" | true non-duplicates) for dissimilar pairs.
    pub er_fp_base: f64,
    /// Extra false-positive probability for highly similar non-duplicates.
    pub er_fp_similar: f64,
    /// Probability a coarse grouping task wrongly merges two clusters.
    pub group_merge_error: f64,
    /// Probability a coarse grouping task wrongly splits a cluster.
    pub group_split_error: f64,

    // -- imputation ----------------------------------------------------------
    /// Probability of producing the *semantically* correct attribute value
    /// with zero few-shot examples.
    pub impute_base_acc: f64,
    /// Additive accuracy per few-shot example (saturating at
    /// `impute_max_acc`).
    pub impute_shot_bonus: f64,
    /// Accuracy ceiling with examples.
    pub impute_max_acc: f64,
    /// Probability that a semantically correct answer is rendered as a
    /// formatting variant ("TomTom" for "Tom Tom") — penalized by
    /// exact-match scoring, as the paper notes. Halves with each example.
    pub impute_format_variant_rate: f64,

    // -- counting / predicates / classification ------------------------------
    /// Noise (std dev, as a fraction) on eyeballed proportion estimates.
    pub eyeball_sigma: f64,
    /// Accuracy of fine-grained per-item predicate checks.
    pub check_accuracy: f64,
    /// Accuracy of classification tasks.
    pub classify_accuracy: f64,
    /// Accuracy of verification tasks (saying whether an answer is right).
    pub verify_accuracy: f64,

    // -- response surface ----------------------------------------------------
    /// Probability of wrapping an answer in contradictory chatter (the
    /// paper's "They are not the same... They are the same." failure).
    pub malformed_rate: f64,
    /// How verbose the chatter around answers is, in `[0,1]`.
    pub chatter_level: f64,
    /// Probability that a multi-item packed prompt's numbered answer list
    /// comes back unusable (a dropped or duplicated line — the numbered-list
    /// failure mode long prompts exhibit), forcing the dispatcher to bisect
    /// the pack and retry. Applies only to packs of more than one item.
    pub packed_dropout_rate: f64,

    // -- transport failure injection ------------------------------------------
    /// Probability a call fails with `RateLimited` (retryable).
    pub rate_limit_prob: f64,
    /// Probability a call fails with `ServiceUnavailable` (retryable).
    pub unavailable_prob: f64,
    /// Probability a call hangs past its deadline and fails with `Timeout`
    /// (retryable). When injected at the transport layer
    /// ([`crate::backend::SimBackend`]) the call burns its full straggler
    /// latency before failing, so timeouts cost wall-clock as well as a
    /// retry — the failure mode hedged dispatch exists for.
    pub timeout_prob: f64,
}

impl Default for NoiseProfile {
    fn default() -> Self {
        NoiseProfile {
            compare_sigma: 0.15,
            compare_lex_error: 0.02,
            compare_lex_prefix_penalty: 0.10,
            position_bias: 0.04,
            compare_batch_penalty: 0.06,
            rate_sigma: 0.24,
            sort_jitter: 0.72,
            sort_salience_threshold: 0.75,
            sort_drop_rate: 0.05,
            sort_drop_ref_len: 100,
            sort_middle_bias: 1.8,
            sort_halluc_rate: 0.006,
            er_recall_easy: 0.95,
            er_recall_hard: 0.33,
            er_fp_base: 0.008,
            er_fp_similar: 0.15,
            group_merge_error: 0.08,
            group_split_error: 0.12,
            impute_base_acc: 0.80,
            impute_shot_bonus: 0.04,
            impute_max_acc: 0.93,
            impute_format_variant_rate: 0.18,
            eyeball_sigma: 0.08,
            check_accuracy: 0.92,
            classify_accuracy: 0.90,
            verify_accuracy: 0.85,
            malformed_rate: 0.01,
            chatter_level: 0.4,
            packed_dropout_rate: 0.02,
            rate_limit_prob: 0.0,
            unavailable_prob: 0.0,
            timeout_prob: 0.0,
        }
    }
}

impl NoiseProfile {
    /// A noiseless oracle: every answer is correct, no chatter, no failures.
    /// Useful for testing engine plumbing in isolation.
    pub fn perfect() -> Self {
        NoiseProfile {
            compare_sigma: 1e-9,
            compare_lex_error: 0.0,
            compare_lex_prefix_penalty: 0.0,
            position_bias: 0.0,
            compare_batch_penalty: 0.0,
            rate_sigma: 0.0,
            sort_jitter: 0.0,
            sort_salience_threshold: 0.0,
            sort_drop_rate: 0.0,
            sort_drop_ref_len: 100,
            sort_middle_bias: 1.0,
            sort_halluc_rate: 0.0,
            er_recall_easy: 1.0,
            er_recall_hard: 1.0,
            er_fp_base: 0.0,
            er_fp_similar: 0.0,
            group_merge_error: 0.0,
            group_split_error: 0.0,
            impute_base_acc: 1.0,
            impute_shot_bonus: 0.0,
            impute_max_acc: 1.0,
            impute_format_variant_rate: 0.0,
            eyeball_sigma: 0.0,
            check_accuracy: 1.0,
            classify_accuracy: 1.0,
            verify_accuracy: 1.0,
            malformed_rate: 0.0,
            chatter_level: 0.0,
            packed_dropout_rate: 0.0,
            rate_limit_prob: 0.0,
            unavailable_prob: 0.0,
            timeout_prob: 0.0,
        }
    }
}

/// Full description of a simulated model: identity, limits, billing, noise.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelProfile {
    /// Stable model name.
    pub name: String,
    /// Context window in tokens.
    pub context_window: u32,
    /// Billing schedule.
    pub pricing: Pricing,
    /// Default completion-token cap when a request does not set one.
    pub default_max_tokens: u32,
    /// Calibrated noise model.
    pub noise: NoiseProfile,
}

impl ModelProfile {
    /// A gpt-3.5-turbo-like chat model: 4k context, cheap, moderately noisy.
    ///
    /// Used for the T1 (flavor sorting) and T3 (entity resolution) studies.
    pub fn gpt35_like() -> Self {
        ModelProfile {
            name: "sim-gpt-3.5-turbo".into(),
            context_window: 4096,
            pricing: Pricing::new(0.0015, 0.002),
            default_max_tokens: 1024,
            noise: NoiseProfile::default(),
        }
    }

    /// A Claude-2-like model: 100k context, pricier, calibrated so a
    /// 100-item single-prompt sort drops ~4–7 items and hallucinates 0–1
    /// (matching Table 2 of the paper).
    pub fn claude2_like() -> Self {
        ModelProfile {
            name: "sim-claude-2".into(),
            context_window: 100_000,
            pricing: Pricing::new(0.008, 0.024),
            default_max_tokens: 4096,
            noise: NoiseProfile {
                compare_lex_error: 0.04,
                compare_lex_prefix_penalty: 0.18,
                sort_drop_rate: 0.055,
                sort_drop_ref_len: 100,
                sort_halluc_rate: 0.005,
                sort_jitter: 0.02,
                sort_salience_threshold: 0.0,
                ..NoiseProfile::default()
            },
        }
    }

    /// A perfect oracle for tests.
    pub fn perfect() -> Self {
        ModelProfile {
            name: "sim-perfect".into(),
            context_window: 1_000_000,
            pricing: Pricing::free(),
            default_max_tokens: 100_000,
            noise: NoiseProfile::perfect(),
        }
    }

    /// Replace the noise profile (builder style).
    #[must_use]
    pub fn with_noise(mut self, noise: NoiseProfile) -> Self {
        self.noise = noise;
        self
    }

    /// Replace the context window (builder style): a prompt longer than it
    /// is refused.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use crowdprompt_oracle::{
    ///     CompletionRequest, ItemId, LanguageModel, LlmError, ModelProfile, SimulatedLlm,
    ///     TaskDescriptor, WorldModel,
    /// };
    ///
    /// let profile = ModelProfile::perfect().with_context_window(8);
    /// let llm = SimulatedLlm::new(profile, Arc::new(WorldModel::new()), 1);
    /// let task = TaskDescriptor::CheckPredicate {
    ///     item: ItemId(0),
    ///     predicate: "p".into(),
    /// };
    /// let long = CompletionRequest::new("word ".repeat(50), task);
    /// assert!(matches!(llm.complete(&long), Err(LlmError::ContextOverflow { .. })));
    /// ```
    #[must_use]
    pub fn with_context_window(mut self, tokens: u32) -> Self {
        self.context_window = tokens;
        self
    }

    /// Replace the name (builder style).
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_distinct_names() {
        let names = [
            ModelProfile::gpt35_like().name,
            ModelProfile::claude2_like().name,
            ModelProfile::perfect().name,
        ];
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn claude_preset_matches_table2_calibration() {
        let m = ModelProfile::claude2_like();
        // Expected drops at n=100: rate * middle-bias-weighted ~ 4..7.
        let expected = 100.0 * m.noise.sort_drop_rate;
        assert!((3.0..=8.0).contains(&expected));
        assert!(m.context_window >= 50_000);
    }

    #[test]
    fn perfect_noise_is_quiet() {
        let n = NoiseProfile::perfect();
        assert_eq!(n.malformed_rate, 0.0);
        assert_eq!(n.sort_drop_rate, 0.0);
        assert_eq!(n.er_recall_hard, 1.0);
    }

    #[test]
    fn builder_methods() {
        let m = ModelProfile::perfect()
            .with_name("custom")
            .with_context_window(123);
        assert_eq!(m.name, "custom");
        assert_eq!(m.context_window, 123);
    }
}
