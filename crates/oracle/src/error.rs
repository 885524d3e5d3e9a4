//! Error types surfaced by language-model backends and clients.

use std::fmt;

/// Errors produced when invoking a language model.
///
/// These mirror the failure modes of production LLM APIs so that client code
/// (retry loops, budget guards, extraction fallbacks) exercises realistic
/// paths even against the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum LlmError {
    /// The rendered prompt exceeds the model's context window.
    ContextOverflow {
        /// Tokens in the offending prompt.
        prompt_tokens: u32,
        /// The model's maximum context size.
        context_window: u32,
    },
    /// The provider rejected the request due to rate limiting.
    ///
    /// Carries a suggested backoff in milliseconds, like a `Retry-After`
    /// header would.
    RateLimited {
        /// Suggested wait before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// Transient provider-side failure (HTTP 5xx equivalent).
    ServiceUnavailable,
    /// The call hung past its deadline and was abandoned (client-side
    /// timeout). Retryable: a retry hits a different server moment.
    Timeout {
        /// How long the call waited before being abandoned, in milliseconds.
        elapsed_ms: u64,
    },
    /// The call was cancelled by its dispatcher (e.g. a hedged request whose
    /// twin answered first). Not retryable — cancellation is deliberate.
    Cancelled,
    /// Every backend serving the model tier is circuit-broken (failing
    /// repeatedly and cooling down); no call was attempted.
    CircuitOpen {
        /// The model tier whose backends are all open.
        model: String,
        /// Milliseconds until the *earliest* breaker admits a half-open
        /// probe. Callers can schedule around the cooldown (sleep this
        /// long, then retry) instead of blind-retrying into a tier that is
        /// guaranteed to reject them. `0` when a probe is already
        /// admissible (e.g. the half-open slot was momentarily claimed).
        retry_in_ms: u64,
    },
    /// The request payload was structurally invalid (e.g. empty item list).
    InvalidRequest(String),
    /// Retries were exhausted without a successful response.
    RetriesExhausted {
        /// Number of attempts made.
        attempts: u32,
        /// The final error encountered.
        last: Box<LlmError>,
    },
}

impl fmt::Display for LlmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LlmError::ContextOverflow {
                prompt_tokens,
                context_window,
            } => write!(
                f,
                "prompt of {prompt_tokens} tokens exceeds context window of {context_window}"
            ),
            LlmError::RateLimited { retry_after_ms } => {
                write!(f, "rate limited; retry after {retry_after_ms} ms")
            }
            LlmError::ServiceUnavailable => write!(f, "service temporarily unavailable"),
            LlmError::Timeout { elapsed_ms } => {
                write!(f, "call timed out after {elapsed_ms} ms")
            }
            LlmError::Cancelled => write!(f, "call cancelled by dispatcher"),
            LlmError::CircuitOpen { model, retry_in_ms } => {
                write!(
                    f,
                    "all backends for model '{model}' are circuit-broken; earliest probe in {retry_in_ms} ms"
                )
            }
            LlmError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            LlmError::RetriesExhausted { attempts, last } => {
                write!(
                    f,
                    "retries exhausted after {attempts} attempts; last error: {last}"
                )
            }
        }
    }
}

impl std::error::Error for LlmError {}

impl LlmError {
    /// Whether a retry of the identical request could plausibly succeed.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            LlmError::RateLimited { .. } | LlmError::ServiceUnavailable | LlmError::Timeout { .. }
        )
    }

    /// The server's (or breaker's) own suggestion for when a retry could
    /// succeed, in milliseconds: a 429's `Retry-After` or an open circuit's
    /// earliest half-open probe time. `None` for errors that carry no
    /// scheduling hint.
    pub fn retry_hint_ms(&self) -> Option<u64> {
        match self {
            LlmError::RateLimited { retry_after_ms } => Some(*retry_after_ms),
            LlmError::CircuitOpen { retry_in_ms, .. } => Some(*retry_in_ms),
            LlmError::RetriesExhausted { last, .. } => last.retry_hint_ms(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryable_classification() {
        assert!(LlmError::RateLimited { retry_after_ms: 10 }.is_retryable());
        assert!(LlmError::ServiceUnavailable.is_retryable());
        assert!(LlmError::Timeout { elapsed_ms: 100 }.is_retryable());
        assert!(!LlmError::Cancelled.is_retryable());
        assert!(!LlmError::CircuitOpen {
            model: "m".into(),
            retry_in_ms: 5
        }
        .is_retryable());
        assert!(!LlmError::ContextOverflow {
            prompt_tokens: 10,
            context_window: 5
        }
        .is_retryable());
        assert!(!LlmError::InvalidRequest("empty".into()).is_retryable());
    }

    #[test]
    fn display_is_informative() {
        let e = LlmError::ContextOverflow {
            prompt_tokens: 9000,
            context_window: 4096,
        };
        let s = e.to_string();
        assert!(s.contains("9000"));
        assert!(s.contains("4096"));

        let e = LlmError::RetriesExhausted {
            attempts: 3,
            last: Box::new(LlmError::ServiceUnavailable),
        };
        assert!(e.to_string().contains("3 attempts"));
    }

    #[test]
    fn retry_hints_surface_scheduling_information() {
        assert_eq!(
            LlmError::RateLimited { retry_after_ms: 75 }.retry_hint_ms(),
            Some(75)
        );
        assert_eq!(
            LlmError::CircuitOpen {
                model: "m".into(),
                retry_in_ms: 40
            }
            .retry_hint_ms(),
            Some(40)
        );
        // The hint tunnels through an exhaustion wrapper.
        assert_eq!(
            LlmError::RetriesExhausted {
                attempts: 3,
                last: Box::new(LlmError::RateLimited { retry_after_ms: 20 }),
            }
            .retry_hint_ms(),
            Some(20)
        );
        assert_eq!(LlmError::ServiceUnavailable.retry_hint_ms(), None);
    }
}
