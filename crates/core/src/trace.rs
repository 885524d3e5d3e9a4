//! Execution tracing: a per-call audit log for declarative operations.
//!
//! Production LLM workflows live or die by observability — when a 5742-pair
//! resolve costs real money, you want to know afterwards which task kinds
//! consumed it, what was cached, and what failed. The engine records one
//! event per completed call when tracing is enabled, and the trace adds it
//! into its task kind's totals on arrival: it holds one `KindStats` per
//! kind however many calls a session makes, and a [`TraceSummary`] is a
//! copy of those totals.

use std::collections::BTreeMap;

use crowdprompt_oracle::Usage;
use parking_lot::Mutex;

/// One recorded model call.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TraceEvent {
    /// Task kind tag (e.g. `"compare"`, `"same_entity"`).
    pub kind: &'static str,
    /// Token usage of the call.
    pub usage: Usage,
    /// Dollar cost of the call (0 for cache hits).
    pub cost_usd: f64,
    /// Whether the response came from the client cache.
    pub cached: bool,
}

/// Aggregated view of a trace, keyed by task kind.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct KindStats {
    /// Calls of this kind (including cached).
    pub calls: u64,
    /// Cache hits among them.
    pub cached: u64,
    /// Total tokens.
    pub tokens: u64,
    /// Total dollars.
    pub cost_usd: f64,
}

/// Summary of an execution trace.
#[derive(Debug, Clone, Default, PartialEq)]
// lint: allow(pub-has-caller) — exposed by `Trace::summary`
pub struct TraceSummary {
    /// Per-kind aggregates, sorted by kind name.
    pub(crate) by_kind: BTreeMap<&'static str, KindStats>,
}

impl TraceSummary {
    /// Total calls across kinds.
    pub fn total_calls(&self) -> u64 {
        self.by_kind.values().map(|s| s.calls).sum()
    }

    /// Total dollars across kinds.
    pub fn total_cost_usd(&self) -> f64 {
        self.by_kind.values().map(|s| s.cost_usd).sum()
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut table = crowdprompt_metrics::Table::new(
            "execution trace",
            &["task kind", "calls", "cached", "tokens", "cost"],
        );
        for (kind, stats) in &self.by_kind {
            table.add_row(&[
                (*kind).to_owned(),
                stats.calls.to_string(),
                stats.cached.to_string(),
                stats.tokens.to_string(),
                format!("${:.4}", stats.cost_usd),
            ]);
        }
        table.render()
    }
}

/// A thread-safe trace recorder.
#[derive(Debug, Default)]
// lint: allow(pub-has-caller) — exposed by `Session::trace`
pub struct Trace {
    by_kind: Mutex<BTreeMap<&'static str, KindStats>>,
}

impl Trace {
    /// An empty trace.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Add one event into its kind's totals.
    pub(crate) fn record(&self, event: TraceEvent) {
        let mut by_kind = self.by_kind.lock();
        let s = by_kind.entry(event.kind).or_default();
        s.calls += 1;
        s.cached += u64::from(event.cached);
        s.tokens += u64::from(event.usage.total());
        s.cost_usd += event.cost_usd;
    }

    /// The per-kind totals so far.
    pub fn summary(&self) -> TraceSummary {
        TraceSummary {
            by_kind: self.by_kind.lock().clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: &'static str, tokens: u32, cached: bool) -> TraceEvent {
        TraceEvent {
            kind,
            usage: Usage {
                prompt_tokens: tokens,
                completion_tokens: 0,
            },
            cost_usd: if cached { 0.0 } else { 0.001 },
            cached,
        }
    }

    #[test]
    fn summary_aggregates_by_kind() {
        let trace = Trace::new();
        trace.record(ev("compare", 10, false));
        trace.record(ev("compare", 10, true));
        trace.record(ev("rate", 5, false));
        let s = trace.summary();
        assert_eq!(s.total_calls(), 3);
        assert_eq!(s.by_kind["compare"].calls, 2);
        assert_eq!(s.by_kind["compare"].cached, 1);
        assert_eq!(s.by_kind["compare"].tokens, 20);
        assert_eq!(s.by_kind["rate"].calls, 1);
        assert!((s.total_cost_usd() - 0.002).abs() < 1e-12);
    }

    #[test]
    fn render_contains_kinds() {
        let trace = Trace::new();
        trace.record(ev("same_entity", 30, false));
        let text = trace.summary().render();
        assert!(text.contains("same_entity"));
        assert!(text.contains("$0.0010"));
    }

    #[test]
    fn concurrent_recording() {
        let trace = std::sync::Arc::new(Trace::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let t = std::sync::Arc::clone(&trace);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    t.record(ev("compare", 1, false));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(trace.summary().total_calls(), 200);
    }
}
