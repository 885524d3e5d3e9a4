//! Request/response types and the [`LanguageModel`] trait.

use crate::error::LlmError;
use crate::hash::Fingerprint;
use crate::pricing::Pricing;
use crate::task::TaskDescriptor;

/// Token usage for a single completion call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    /// Tokens in the rendered prompt.
    pub prompt_tokens: u32,
    /// Tokens in the generated completion.
    pub completion_tokens: u32,
}

impl Usage {
    /// Total tokens (prompt + completion).
    pub fn total(&self) -> u32 {
        self.prompt_tokens + self.completion_tokens
    }
}

impl std::ops::Add for Usage {
    type Output = Usage;
    fn add(self, rhs: Usage) -> Usage {
        Usage {
            prompt_tokens: self.prompt_tokens + rhs.prompt_tokens,
            completion_tokens: self.completion_tokens + rhs.completion_tokens,
        }
    }
}

impl std::ops::AddAssign for Usage {
    fn add_assign(&mut self, rhs: Usage) {
        *self = *self + rhs;
    }
}

/// Why generation stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishReason {
    /// The model emitted a natural stop.
    Stop,
    /// Output was cut off by the `max_tokens` limit.
    Length,
}

/// A single completion request.
///
/// `prompt` is the rendered natural-language text (used for token accounting
/// and context-window checks, exactly as a real API would). `task` is the
/// structured payload the prompt renders; the simulator executes it against
/// the world model. A real network-backed implementation of
/// [`LanguageModel`] would ignore `task` and send `prompt` over the wire.
#[derive(Debug, Clone)]
pub struct CompletionRequest {
    /// Rendered prompt text.
    pub prompt: String,
    /// Structured description of the unit task the prompt encodes.
    pub task: TaskDescriptor,
    /// Sampling temperature; `0.0` means deterministic.
    pub temperature: f64,
    /// Maximum completion tokens (`None` = model default).
    pub max_tokens: Option<u32>,
    /// Monotone sequence number used to decorrelate repeated sampling of the
    /// same prompt at temperature > 0 (e.g. self-consistency voting).
    pub sample_index: u32,
    /// Wall-clock deadline for this call's *run*, if any. Dispatchers clip
    /// retry backoff and hedge waits against it and stop retrying once it
    /// passes, so a deadlined batch never overshoots chasing stragglers.
    /// Excluded from [`CompletionRequest::fingerprint`]: a deadline changes
    /// scheduling, never the answer, so caching is unaffected.
    pub deadline: Option<std::time::Instant>,
    /// Which transport attempt of this request a dispatcher is making (`0`
    /// = the first). Like `deadline` it is excluded from
    /// [`CompletionRequest::fingerprint`]: only a backend's *transport*
    /// draws (latency, injected 429 / 5xx / timeout) read it, so a retry
    /// meets a different server moment and the same answer.
    pub attempt: u32,
}

impl CompletionRequest {
    /// Build a request with default sampling parameters (temperature 0).
    pub fn new(prompt: impl Into<String>, task: TaskDescriptor) -> Self {
        CompletionRequest {
            prompt: prompt.into(),
            task,
            temperature: 0.0,
            max_tokens: None,
            sample_index: 0,
            deadline: None,
            attempt: 0,
        }
    }

    /// Set the sampling temperature.
    #[must_use]
    pub fn with_temperature(mut self, t: f64) -> Self {
        self.temperature = t;
        self
    }

    /// Set the max-tokens cap.
    #[must_use]
    pub fn with_max_tokens(mut self, m: u32) -> Self {
        self.max_tokens = Some(m);
        self
    }

    /// Set the sample index (for repeated sampling at temperature > 0).
    #[must_use]
    pub fn with_sample_index(mut self, i: u32) -> Self {
        self.sample_index = i;
        self
    }

    /// Set (or clear) the run deadline this call must respect.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Option<std::time::Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Time remaining until the deadline, if one is set. `Some(ZERO)` when
    /// the deadline has already passed.
    pub fn remaining(&self, now: std::time::Instant) -> Option<std::time::Duration> {
        self.deadline.map(|d| d.saturating_duration_since(now))
    }

    /// The coordinate a backend folds into its transport draws beside the
    /// fingerprint: the sample index (which a temperature-0 fingerprint
    /// leaves out) advanced by the attempt, so every attempt re-rolls.
    pub(crate) fn transport_draw(&self) -> u64 {
        u64::from(self.sample_index.wrapping_add(self.attempt))
    }

    /// Stable fingerprint of the request content, suitable as a cache key.
    ///
    /// Includes the sample index only when temperature is positive, so that
    /// deterministic (temperature-0) requests are cached across samples.
    pub fn fingerprint(&self) -> u64 {
        let mut f = Fingerprint::new();
        f.write_str(&self.prompt);
        f.write_u64(self.task.fingerprint());
        f.write_f64(self.temperature);
        f.write_u64(u64::from(self.max_tokens.unwrap_or(0)));
        if self.temperature > 0.0 {
            f.write_u64(u64::from(self.sample_index));
        }
        f.finish()
    }
}

/// A completion response.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletionResponse {
    /// The generated text (may include chatter around the answer).
    pub text: String,
    /// Token usage for this call.
    pub usage: Usage,
    /// Why generation stopped.
    pub finish_reason: FinishReason,
    /// Model that produced the response.
    pub model: String,
    /// Whether this response was served from a client-side cache (cached
    /// responses incur no spend; budget guards skip them).
    pub cached: bool,
    /// The billing schedule this response is charged under — the serving
    /// backend's pricing, not necessarily the tier's reference pricing.
    /// With multi-backend routing, backends carry price multipliers, so
    /// the ledger, budget tracker, and operator cost meters all price a
    /// response from this field to stay mutually consistent.
    pub pricing: Pricing,
    /// The model's confidence in its answer, in `(0.5, 1.0]`, when the task
    /// has a binary answer — the simulator's analogue of answer-token log
    /// probabilities (§2 of the paper notes real APIs expose these).
    /// `None` for task kinds without a single binary answer.
    pub confidence: Option<f64>,
}

/// A language model backend: the simulator here, or a network client in a
/// production deployment. Object safe; engines hold `Arc<dyn LanguageModel>`.
pub trait LanguageModel: Send + Sync {
    /// Stable model identifier (e.g. `"sim-gpt35"`).
    fn name(&self) -> &str;
    /// Maximum prompt size in tokens.
    fn context_window(&self) -> u32;
    /// Billing schedule.
    fn pricing(&self) -> Pricing;
    /// Execute one completion request.
    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, LlmError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskDescriptor;
    use crate::world::ItemId;

    fn dummy_task() -> TaskDescriptor {
        TaskDescriptor::CheckPredicate {
            item: ItemId(1),
            predicate: "is_positive".into(),
        }
    }

    #[test]
    fn usage_arithmetic() {
        let a = Usage {
            prompt_tokens: 10,
            completion_tokens: 5,
        };
        let b = Usage {
            prompt_tokens: 1,
            completion_tokens: 2,
        };
        assert_eq!((a + b).total(), 18);
        let mut c = a;
        c += b;
        assert_eq!(c.prompt_tokens, 11);
    }

    #[test]
    fn fingerprint_ignores_sample_index_at_temp_zero() {
        let r1 = CompletionRequest::new("p", dummy_task()).with_sample_index(0);
        let r2 = CompletionRequest::new("p", dummy_task()).with_sample_index(5);
        assert_eq!(r1.fingerprint(), r2.fingerprint());
    }

    #[test]
    fn fingerprint_varies_sample_index_at_positive_temp() {
        let r1 = CompletionRequest::new("p", dummy_task())
            .with_temperature(0.7)
            .with_sample_index(0);
        let r2 = CompletionRequest::new("p", dummy_task())
            .with_temperature(0.7)
            .with_sample_index(1);
        assert_ne!(r1.fingerprint(), r2.fingerprint());
    }

    #[test]
    fn fingerprint_ignores_deadline() {
        let r1 = CompletionRequest::new("p", dummy_task());
        let r2 = CompletionRequest::new("p", dummy_task())
            .with_deadline(Some(std::time::Instant::now()));
        assert_eq!(r1.fingerprint(), r2.fingerprint());
        assert_eq!(
            r2.remaining(std::time::Instant::now()),
            Some(std::time::Duration::ZERO)
        );
        assert_eq!(r1.remaining(std::time::Instant::now()), None);
    }

    #[test]
    fn fingerprint_ignores_attempt_which_only_moves_the_transport_draw() {
        let first = CompletionRequest::new("p", dummy_task())
            .with_temperature(0.7)
            .with_sample_index(3);
        let mut retry = first.clone();
        retry.attempt = 2;
        assert_eq!(first.fingerprint(), retry.fingerprint());
        assert_eq!((first.transport_draw(), retry.transport_draw()), (3, 5));
    }

    #[test]
    fn fingerprint_sensitive_to_prompt_and_task() {
        let base = CompletionRequest::new("p", dummy_task());
        let other_prompt = CompletionRequest::new("q", dummy_task());
        assert_ne!(base.fingerprint(), other_prompt.fingerprint());

        let other_task = CompletionRequest::new(
            "p",
            TaskDescriptor::CheckPredicate {
                item: ItemId(2),
                predicate: "is_positive".into(),
            },
        );
        assert_ne!(base.fingerprint(), other_task.fingerprint());
    }
}
