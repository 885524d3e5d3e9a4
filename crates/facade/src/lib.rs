//! # crowdprompt
//!
//! Declarative prompt engineering via declarative crowdsourcing principles —
//! a full implementation of the research agenda in *"Revisiting Prompt
//! Engineering via Declarative Crowdsourcing"* (Parameswaran et al.,
//! CIDR 2024).
//!
//! Treat LLMs as noisy human oracles: declare data processing operations
//! (sort, resolve, impute, filter, count, …) plus a budget, and let the
//! engine decompose them into unit tasks, orchestrate the calls, enforce
//! cross-task consistency, mix in non-LLM proxies, and control quality.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use crowdprompt::data::FlavorDataset;
//! use crowdprompt::oracle::{LlmClient, ModelProfile, SimulatedLlm};
//! use crowdprompt::core::ops::sort::SortStrategy;
//! use crowdprompt::core::{Budget, Corpus, Session};
//! use crowdprompt::oracle::task::SortCriterion;
//!
//! // 20 ice-cream flavors with latent chocolateyness (Table 1's workload).
//! let data = FlavorDataset::paper(42);
//! let corpus = Corpus::from_world(&data.world, &data.items);
//! // A simulated gpt-3.5-turbo stands in for the real API.
//! let llm = SimulatedLlm::new(ModelProfile::gpt35_like(), Arc::new(data.world.clone()), 7);
//! let session = Session::builder()
//!     .client(Arc::new(LlmClient::new(Arc::new(llm))))
//!     .corpus(corpus)
//!     .budget(Budget::usd(1.0))
//!     .criterion("by how chocolatey they are")
//!     .try_build()
//!     .unwrap();
//!
//! // Declare *what* you want; the planner decides *how* (here it fuses
//! // sort+take(3) into a top-k node) and EXPLAINs its physical plan
//! // before a single LLM call is spent.
//! let query = session
//!     .query(&data.items)
//!     .sort(SortCriterion::LatentScore)
//!     .take(3);
//! let plan = session.plan(query).unwrap();
//! assert!(plan.explain().contains("top-k[3]"));
//!
//! let run = plan.execute(&session).unwrap();
//! assert_eq!(run.output.items().unwrap().len(), 3);
//! assert!(run.total_cost_usd() > 0.0);
//!
//! // Pinning a strategy is a node that names it: the planner prices it
//! // but never rewrites it.
//! let query = session
//!     .query(&data.items)
//!     .sort_with(SortCriterion::LatentScore, SortStrategy::Pairwise);
//! let result = session.plan(query).unwrap().execute(&session).unwrap();
//! assert_eq!(result.output.items().unwrap().len(), 20);
//! assert!(result.total_cost_usd() > 0.0);
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`core`] | the declarative engine: session, operators, strategies, consistency, quality control, optimizer |
//! | [`oracle`] | the simulated-LLM substrate: model profiles, pricing, tokenizer, client |
//! | [`embed`] | deterministic embeddings + k-NN indexes |
//! | [`data`] | seeded dataset generators with latent ground truth |
//! | [`metrics`] | Kendall tau-β, classification metrics, report tables |
//!
//! ## Further reading
//!
//! * [README](https://github.com/crowdprompt/crowdprompt/blob/main/README.md)
//!   — building, testing, regenerating the paper's tables, benchmarks.
//! * [ARCHITECTURE](https://github.com/crowdprompt/crowdprompt/blob/main/ARCHITECTURE.md)
//!   — crate-to-paper-section map, the sharded coalescing client and the
//!   pipelined executor's queue design, and the offline dependency shims.

#![warn(missing_docs)]

pub use crowdprompt_core as core;
pub use crowdprompt_data as data;
pub use crowdprompt_embed as embed;
pub use crowdprompt_metrics as metrics;
pub use crowdprompt_oracle as oracle;

/// `README.md`, compiled as this crate's doc-tests: its Quickstart runs, so
/// the README cannot name an item the crates no longer export.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
struct ReadmeDoctests;

/// Convenience prelude: the types most programs need.
pub mod prelude {
    pub use crowdprompt_core::cascade::{run_cascade, CascadeTier, CascadeVerdict};
    pub use crowdprompt_core::ops::count::CountStrategy;
    pub use crowdprompt_core::ops::filter::FilterStrategy;
    pub use crowdprompt_core::ops::impute::ImputeStrategy;
    pub use crowdprompt_core::ops::join::{JoinResult, JoinStrategy};
    pub use crowdprompt_core::ops::max::MaxStrategy;
    pub use crowdprompt_core::ops::resolve::ResolveStrategy;
    pub use crowdprompt_core::ops::sort::{SortResult, SortStrategy};
    pub use crowdprompt_core::plan::{
        Plan, PlanOptions, PlanOutput, PlanRun, Query, SortCalibration,
    };
    pub use crowdprompt_core::{
        BatchOutcome, BlockingHit, BlockingIndex, Budget, CacheConfig, Corpus, EngineError,
        FailurePolicy, OpSalvage, Outcome, Quarantine, ResilienceConfig, RoutingConfig, RunSpec,
        ServeError, Server, ServerBuilder, Session, SessionBuilder, TenantRun, TenantSpec,
        TenantStats,
    };
    pub use crowdprompt_oracle::task::SortCriterion;
    pub use crowdprompt_oracle::{
        Backend, BackendRegistry, CompletionRequest, FaultKind, FaultSchedule, FaultWindow,
        LanguageModel, LatencyProfile, LlmClient, ModelProfile, RoutePolicy, SimBackend,
        SimulatedLlm,
    };
}
