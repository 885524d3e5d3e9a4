//! Engine-level errors.

use crowdprompt_oracle::LlmError;
use std::fmt;

/// Errors surfaced by declarative operations.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The underlying model call failed after client-side handling.
    Llm(LlmError),
    /// The operation would exceed the session budget.
    BudgetExceeded {
        /// Estimated cost of the refused call in USD.
        needed_usd: f64,
        /// Remaining budget in USD.
        remaining_usd: f64,
    },
    /// No answer could be extracted from the model's response text.
    Extraction {
        /// What kind of answer was expected (e.g. `"yes/no"`).
        expected: &'static str,
        /// The offending response text (truncated for display).
        response: String,
    },
    /// The operation was invoked with unusable arguments.
    InvalidInput(String),
    /// An item id was not present in the engine's corpus.
    UnknownItem(crowdprompt_oracle::ItemId),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Llm(e) => write!(f, "model call failed: {e}"),
            EngineError::BudgetExceeded {
                needed_usd,
                remaining_usd,
            } => write!(
                f,
                "budget exceeded: next call needs ${needed_usd:.6}, ${remaining_usd:.6} remaining"
            ),
            EngineError::Extraction { expected, response } => {
                let shown: String = response.chars().take(120).collect();
                write!(f, "could not extract {expected} answer from: {shown:?}")
            }
            EngineError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            EngineError::UnknownItem(id) => write!(f, "item {id} is not in the corpus"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<LlmError> for EngineError {
    fn from(e: LlmError) -> Self {
        EngineError::Llm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = EngineError::BudgetExceeded {
            needed_usd: 1.0,
            remaining_usd: 0.5,
        };
        assert!(e.to_string().contains("budget exceeded"));

        let e = EngineError::Extraction {
            expected: "yes/no",
            response: "mumble".into(),
        };
        assert!(e.to_string().contains("yes/no"));
        assert!(e.to_string().contains("mumble"));
    }

    #[test]
    fn extraction_display_truncates_long_responses() {
        let e = EngineError::Extraction {
            expected: "rating",
            response: "x".repeat(4000),
        };
        assert!(e.to_string().len() < 300);
    }

    #[test]
    fn llm_error_converts() {
        let e: EngineError = LlmError::ServiceUnavailable.into();
        assert!(matches!(e, EngineError::Llm(LlmError::ServiceUnavailable)));
    }
}
