//! Per-token pricing and thread-safe cost accounting.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::types::Usage;

/// Per-1000-token USD rates, with separate input and output prices, mirroring
/// how commercial providers bill.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pricing {
    /// USD per 1000 prompt (input) tokens.
    pub usd_per_1k_input: f64,
    /// USD per 1000 completion (output) tokens.
    pub usd_per_1k_output: f64,
}

impl Pricing {
    /// A pricing schedule with the given per-1k rates.
    pub const fn new(usd_per_1k_input: f64, usd_per_1k_output: f64) -> Self {
        Pricing {
            usd_per_1k_input,
            usd_per_1k_output,
        }
    }

    /// Zero-cost pricing (useful for free local proxies in hybrid plans).
    pub const fn free() -> Self {
        Pricing::new(0.0, 0.0)
    }

    /// Cost in USD of the given usage under this schedule.
    pub fn cost_usd(&self, usage: Usage) -> f64 {
        f64::from(usage.prompt_tokens) / 1000.0 * self.usd_per_1k_input
            + f64::from(usage.completion_tokens) / 1000.0 * self.usd_per_1k_output
    }
}

/// A thread-safe accumulator of token usage and spend across many calls.
///
/// Internally stores microdollars in an atomic so concurrent workers can
/// record costs without a lock.
#[derive(Debug, Default)]
// lint: allow(pub-has-caller) — exposed by `LlmClient::ledger`
pub struct CostLedger {
    calls: AtomicU64,
    prompt_tokens: AtomicU64,
    completion_tokens: AtomicU64,
    /// Spend in nano-dollars to keep integer atomics precise.
    nanodollars: AtomicU64,
}

impl CostLedger {
    /// A fresh, empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one call's usage at the given pricing.
    pub fn record(&self, usage: Usage, pricing: Pricing) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.prompt_tokens
            .fetch_add(u64::from(usage.prompt_tokens), Ordering::Relaxed);
        self.completion_tokens
            .fetch_add(u64::from(usage.completion_tokens), Ordering::Relaxed);
        let nanos = (pricing.cost_usd(usage) * 1e9).round() as u64;
        self.nanodollars.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Number of calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Total prompt tokens recorded.
    pub fn prompt_tokens(&self) -> u64 {
        self.prompt_tokens.load(Ordering::Relaxed)
    }

    /// Total completion tokens recorded.
    pub fn completion_tokens(&self) -> u64 {
        self.completion_tokens.load(Ordering::Relaxed)
    }

    /// Total tokens (prompt + completion).
    ///
    /// ```
    /// use crowdprompt_oracle::{CostLedger, Pricing, Usage};
    ///
    /// let ledger = CostLedger::new();
    /// let usage = Usage {
    ///     prompt_tokens: 40,
    ///     completion_tokens: 2,
    /// };
    /// ledger.record(usage, Pricing::new(0.0, 0.0));
    /// ledger.record(usage, Pricing::new(0.0, 0.0));
    /// assert_eq!(ledger.total_tokens(), 84);
    /// ```
    pub fn total_tokens(&self) -> u64 {
        self.prompt_tokens() + self.completion_tokens()
    }

    /// Total spend in USD.
    pub fn spend_usd(&self) -> f64 {
        self.nanodollars.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Snapshot the ledger as a plain [`Usage`] total.
    pub fn usage(&self) -> Usage {
        Usage {
            prompt_tokens: self.prompt_tokens().min(u64::from(u32::MAX)) as u32,
            completion_tokens: self.completion_tokens().min(u64::from(u32::MAX)) as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_computation() {
        let p = Pricing::new(0.0015, 0.002);
        let cost = p.cost_usd(Usage {
            prompt_tokens: 1000,
            completion_tokens: 500,
        });
        assert!((cost - (0.0015 + 0.001)).abs() < 1e-12);
    }

    #[test]
    fn free_pricing_costs_nothing() {
        let cost = Pricing::free().cost_usd(Usage {
            prompt_tokens: 1_000_000,
            completion_tokens: 1_000_000,
        });
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn ledger_accumulates() {
        let ledger = CostLedger::new();
        let p = Pricing::new(0.001, 0.002);
        for _ in 0..10 {
            ledger.record(
                Usage {
                    prompt_tokens: 100,
                    completion_tokens: 50,
                },
                p,
            );
        }
        assert_eq!(ledger.calls(), 10);
        assert_eq!(ledger.prompt_tokens(), 1000);
        assert_eq!(ledger.completion_tokens(), 500);
        assert!((ledger.spend_usd() - (0.001 + 0.001)).abs() < 1e-9);
    }

    #[test]
    fn ledger_concurrent_records() {
        let ledger = std::sync::Arc::new(CostLedger::new());
        let p = Pricing::new(0.001, 0.001);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let l = std::sync::Arc::clone(&ledger);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    l.record(
                        Usage {
                            prompt_tokens: 10,
                            completion_tokens: 10,
                        },
                        p,
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ledger.calls(), 800);
        assert_eq!(ledger.total_tokens(), 16_000);
    }
}
