//! The declarative prompt engineering engine — the paper's primary
//! contribution, built on crowdsourcing principles.
//!
//! Users declare *data processing operations* (sort, resolve, impute, filter,
//! count, …) over item collections, together with a budget; the engine
//! decomposes each operation into unit LLM tasks under a chosen (or
//! auto-selected) strategy, orchestrates the calls, repairs inconsistencies,
//! mixes in non-LLM proxies, and accounts for every token spent.
//!
//! Layer map (bottom-up):
//!
//! * [`budget`] — spend admission and tracking.
//! * [`corpus`] — the public item texts the engine is allowed to see.
//! * [`template`] — rendering unit tasks into prompts (with few-shot
//!   example selection).
//! * [`extract`] — robust answer extraction from free-text responses.
//! * [`exec`] — the [`exec::Engine`]: budget-guarded, parallel task
//!   execution over an [`crowdprompt_oracle::LlmClient`], with a
//!   [`exec::FailurePolicy`] governing fail-fast vs. degraded partial
//!   execution.
//! * [`consistency`] — transitive closure and ranking repair (§3.3).
//! * [`blocking`] — the shared embedding-blocking index all operators
//!   route non-LLM candidate pruning through (§3.4).
//! * [`ops`] — the operators, each with multiple strategies (§3.1–3.5).
//!   [`mod@ops::filter`] holds the one vote loop: majority voting,
//!   self-consistency, sequential asking, proxy gating and
//!   self-verification are [`ops::filter::FilterStrategy`] variants, so a
//!   `Query` runs them under a session's or a tenant's budget.
//!   `ops::judge` (crate-private) is its strict twin, the one step where
//!   sort, max, top-k, resolve, join and cluster ask pairs or ratings,
//!   meter the responses and parse the answers.
//! * [`quality`] — the pure vote aggregators: Dawid–Skene EM and
//!   decision-threshold calibration (§3.5).
//! * [`cascade`] — multi-model routing: FrugalGPT-style tiering over
//!   engines the caller owns (§3.5).
//! * [`optimize`] — validation-set strategy trials and Pareto frontiers
//!   (§4); choosing under a budget is the planner's
//!   ([`Query::calibrate_sort`]), which prices each candidate by its bill.
//! * [`plan`] — the declarative front door: a logical-plan IR
//!   ([`plan::Query`]), a cost-based planner with rule rewrites, EXPLAIN,
//!   and a per-node-attributed executor. Its cost model is bill → price →
//!   fold: every strategy states what it asks as a crate-private `bill`
//!   beside its run code in [`ops`], and the planner's estimator prices each
//!   prompt shape and folds the lines into calls and dollars.
//! * [`session`] — the user-facing declarative API (each operator method
//!   calls its operator in [`ops`] directly on the session's engine).

#![warn(missing_docs)]

pub mod blocking;
pub mod budget;
pub mod cascade;
pub mod consistency;
pub mod corpus;
pub mod error;
pub mod exec;
pub mod extract;
pub mod ops;
pub mod optimize;
pub mod outcome;
pub mod plan;
mod proxy;
pub mod quality;
pub mod serve;
pub mod session;
pub mod template;
pub mod trace;

pub use blocking::{BlockingHit, BlockingIndex};
pub use budget::{Budget, BudgetTracker, LedgerSnapshot};
pub use corpus::Corpus;
pub use error::EngineError;
pub use exec::{BatchOutcome, Engine, FailurePolicy, FairFeed, OpSalvage, Quarantine, RunSpec};
pub use outcome::Outcome;
pub use plan::{Plan, PlanOptions, PlanOutput, PlanRun, Query};
pub use serve::{ServeError, Server, ServerBuilder, TenantRun, TenantSpec, TenantStats};
pub use session::{CacheConfig, ResilienceConfig, RoutingConfig, Session, SessionBuilder};
