//! Monetary/token budgets and thread-safe spend tracking.
//!
//! The paper's declarative vision lets users state "process this dataset for
//! at most $X"; every engine call is admitted against a [`BudgetTracker`]
//! before it is dispatched, so a runaway O(n²) plan cannot silently blow
//! through the cap.

use parking_lot::Mutex;

/// A spending limit. `Unlimited` is useful for calibration runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// No limit.
    Unlimited,
    /// Cap in USD.
    Usd(f64),
    /// Cap in total tokens (prompt + completion).
    Tokens(u64),
}

impl Budget {
    /// Convenience constructor for a USD cap.
    pub fn usd(amount: f64) -> Self {
        Budget::Usd(amount)
    }

    /// Convenience constructor for a token cap.
    pub fn tokens(amount: u64) -> Self {
        Budget::Tokens(amount)
    }
}

#[derive(Debug, Default)]
struct Spend {
    usd: f64,
    tokens: u64,
}

/// Thread-safe budget state: admission checks plus actual-spend recording.
#[derive(Debug)]
pub struct BudgetTracker {
    budget: Budget,
    spend: Mutex<Spend>,
}

impl BudgetTracker {
    /// A tracker for the given budget with zero spend.
    pub fn new(budget: Budget) -> Self {
        BudgetTracker {
            budget,
            spend: Mutex::new(Spend::default()),
        }
    }

    /// The configured budget.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Whether a call with the given estimated cost may proceed.
    ///
    /// Admission is optimistic (estimates, not reservations): concurrent
    /// workers may collectively overshoot by at most one call each, matching
    /// how production token budgets behave.
    pub fn admit(&self, est_usd: f64, est_tokens: u64) -> bool {
        let spend = self.spend.lock();
        match self.budget {
            Budget::Unlimited => true,
            Budget::Usd(cap) => spend.usd + est_usd <= cap + 1e-12,
            Budget::Tokens(cap) => spend.tokens + est_tokens <= cap,
        }
    }

    /// Record actual spend after a completed call.
    pub fn record(&self, usd: f64, tokens: u64) {
        let mut spend = self.spend.lock();
        spend.usd += usd;
        spend.tokens += tokens;
    }

    /// USD spent so far.
    pub fn spent_usd(&self) -> f64 {
        self.spend.lock().usd
    }

    /// Tokens spent so far.
    pub fn spent_tokens(&self) -> u64 {
        self.spend.lock().tokens
    }

    /// USD remaining (`f64::INFINITY` when unlimited or token-capped).
    pub fn remaining_usd(&self) -> f64 {
        match self.budget {
            Budget::Usd(cap) => (cap - self.spent_usd()).max(0.0),
            _ => f64::INFINITY,
        }
    }

    /// Tokens remaining (`u64::MAX` when unlimited or USD-capped).
    pub fn remaining_tokens(&self) -> u64 {
        match self.budget {
            Budget::Tokens(cap) => cap.saturating_sub(self.spent_tokens()),
            _ => u64::MAX,
        }
    }
}

/// A point-in-time spend snapshot for one tenant's ledger (see
/// [`crate::serve::TenantStats`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerSnapshot {
    /// USD spent so far.
    pub spent_usd: f64,
    /// Tokens spent so far (prompt + completion).
    pub spent_tokens: u64,
    /// The budget the ledger enforces.
    pub budget: Budget,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_always_admits() {
        let t = BudgetTracker::new(Budget::Unlimited);
        assert!(t.admit(1e9, u64::MAX));
    }

    #[test]
    fn usd_budget_enforced() {
        let t = BudgetTracker::new(Budget::usd(1.0));
        assert!(t.admit(0.6, 0));
        t.record(0.6, 100);
        assert!(t.admit(0.4, 0));
        assert!(!t.admit(0.5, 0));
        assert!((t.remaining_usd() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn token_budget_enforced() {
        let t = BudgetTracker::new(Budget::tokens(1000));
        assert!(t.admit(0.0, 1000));
        t.record(0.0, 900);
        assert!(t.admit(0.0, 100));
        assert!(!t.admit(0.0, 101));
        assert_eq!(t.remaining_tokens(), 100);
    }

    #[test]
    fn record_accumulates_across_threads() {
        let t = std::sync::Arc::new(BudgetTracker::new(Budget::usd(100.0)));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let t = std::sync::Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    t.record(0.01, 5);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!((t.spent_usd() - 8.0).abs() < 1e-9);
        assert_eq!(t.spent_tokens(), 4000);
    }

    #[test]
    fn remaining_is_saturating() {
        let t = BudgetTracker::new(Budget::usd(0.5));
        t.record(0.9, 10);
        assert_eq!(t.remaining_usd(), 0.0);
        let t = BudgetTracker::new(Budget::tokens(5));
        t.record(0.0, 10);
        assert_eq!(t.remaining_tokens(), 0);
    }
}
