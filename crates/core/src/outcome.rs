//! Operation results with cost accounting attached.

use crowdprompt_oracle::Usage;

/// The result of a declarative operation, with everything needed for the
/// paper's cost/accuracy tables: the value, token usage, call count, and
/// dollar cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome<T> {
    /// The operation's result value.
    pub value: T,
    /// Total token usage across all calls the operation made.
    pub usage: Usage,
    /// Number of LLM calls made (cache hits not included).
    pub calls: u64,
    /// Dollar cost of those calls.
    pub cost_usd: f64,
}

impl<T> Outcome<T> {
    /// Wrap a value with zero cost (e.g. a pure non-LLM strategy).
    pub fn free(value: T) -> Self {
        Outcome {
            value,
            usage: Usage::default(),
            calls: 0,
            cost_usd: 0.0,
        }
    }

    /// Map the value, preserving accounting.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Outcome<U> {
        Outcome {
            value: f(self.value),
            usage: self.usage,
            calls: self.calls,
            cost_usd: self.cost_usd,
        }
    }
}

/// Mutable accumulator used by operators while they issue calls.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct CostMeter {
    /// Accumulated usage.
    pub usage: Usage,
    /// Accumulated call count.
    pub calls: u64,
    /// Accumulated cost.
    pub cost_usd: f64,
}

impl CostMeter {
    /// Start at zero.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record one call.
    pub(crate) fn add(&mut self, usage: Usage, cost_usd: f64) {
        self.usage += usage;
        self.calls += 1;
        self.cost_usd += cost_usd;
    }

    /// Finish into an [`Outcome`].
    pub(crate) fn into_outcome<T>(self, value: T) -> Outcome<T> {
        Outcome {
            value,
            usage: self.usage,
            calls: self.calls,
            cost_usd: self.cost_usd,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_outcome_has_zero_cost() {
        let o = Outcome::free(42);
        assert_eq!(o.value, 42);
        assert_eq!(o.calls, 0);
        assert_eq!(o.cost_usd, 0.0);
    }

    #[test]
    fn map_preserves_accounting() {
        let mut meter = CostMeter::new();
        meter.add(
            Usage {
                prompt_tokens: 10,
                completion_tokens: 5,
            },
            0.01,
        );
        let o = meter.into_outcome("seven").map(str::len);
        assert_eq!(o.value, 5);
        assert_eq!(o.calls, 1);
        assert_eq!(o.usage.total(), 15);
        assert!((o.cost_usd - 0.01).abs() < 1e-12);
    }

    #[test]
    fn meter_accumulates_multiple_calls() {
        let mut m = CostMeter::new();
        for _ in 0..3 {
            m.add(
                Usage {
                    prompt_tokens: 100,
                    completion_tokens: 10,
                },
                0.001,
            );
        }
        assert_eq!(m.calls, 3);
        assert_eq!(m.usage.prompt_tokens, 300);
    }
}
