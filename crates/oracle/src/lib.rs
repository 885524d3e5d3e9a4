//! Simulated LLM oracle substrate for `crowdprompt`.
//!
//! The paper's experiments call commercial chat-completion APIs. This crate
//! provides the same *shape* of API — a [`LanguageModel`] trait with requests,
//! responses, token usage, pricing, context-window limits, and failure modes —
//! backed by a deterministic, seeded **noisy oracle** ([`SimulatedLlm`])
//! instead of a network service.
//!
//! The simulator executes the *structured* payload of each unit task (a
//! [`TaskDescriptor`]) against a latent [`WorldModel`] with noise models
//! calibrated to the behaviours the paper names:
//!
//! * distance-dependent pairwise-comparison errors (Thurstone-style),
//! * rating quantization noise,
//! * list-task omissions and hallucinations that grow with list length,
//! * positional "lost in the middle" bias,
//! * false-negative-heavy duplicate detection,
//! * formatting-variant imputation answers, and
//! * free-text chatter around answers (exercising downstream extraction).
//!
//! Client-side concerns — caching, coalescing, and cost accounting — live in
//! [`LlmClient`]; transport concerns — backend selection, retries, backoff,
//! hedging — live in the [`Router`] every client dispatches through.

#![warn(missing_docs)]

pub mod backend;
pub mod chatter;
pub mod client;
pub mod error;
pub mod hash;
pub mod model;
pub mod pricing;
pub mod recordlog;
pub mod retry;
pub mod route;
pub mod sim;
pub mod store;
pub mod task;
pub mod tokenizer;
pub mod types;
pub mod world;

pub use backend::{
    Backend, BackendRegistry, CancelToken, FaultKind, FaultSchedule, FaultWindow, LatencyProfile,
    SimBackend,
};
pub use client::{ClientStats, LlmClient, Probe};
pub use error::LlmError;
pub use model::{ModelProfile, NoiseProfile};
pub use pricing::{CostLedger, Pricing};
pub use route::{
    BreakerConfig, HedgeConfig, LeaseTable, RoutePolicy, Router, RouterStats, SlotLease,
};
pub use sim::SimulatedLlm;
pub use store::{ResponseStore, SemanticConfig, SemanticHit, StoreConfig};
pub use task::{CountMode, SortCriterion, TaskDescriptor};
pub use tokenizer::count_tokens;
pub use types::{CompletionRequest, CompletionResponse, FinishReason, LanguageModel, Usage};
pub use world::{ItemId, WorldModel};
