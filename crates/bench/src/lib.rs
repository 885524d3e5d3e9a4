//! Shared helpers for the table-regeneration harnesses.

#![warn(missing_docs)]

use std::sync::Arc;

use crowdprompt_core::{Budget, Corpus, Engine, PlanRun, Query, Session};
use crowdprompt_oracle::world::{ItemId, WorldModel};
use crowdprompt_oracle::{LlmClient, ModelProfile, SimulatedLlm};

/// Build a session over a simulated model for the given world and items.
pub fn session_over(
    profile: ModelProfile,
    world: &WorldModel,
    items: &[ItemId],
    seed: u64,
    criterion: &str,
) -> Session {
    let corpus = Corpus::from_world(world, items);
    let llm = SimulatedLlm::new(profile, Arc::new(world.clone()), seed);
    Session::builder()
        .client(Arc::new(LlmClient::new(Arc::new(llm))))
        .corpus(corpus)
        .budget(Budget::Unlimited)
        .parallelism(8)
        .seed(seed)
        .criterion(criterion)
        .build()
}

/// Plan `query` against the engine (a session's: [`Session::engine`]) and
/// execute it there.
///
/// # Panics
/// Panics if the query fails to plan or to run: a harness has no partial
/// result to report.
pub fn run(engine: &Engine, query: Query) -> PlanRun {
    query
        .plan_on(engine)
        .and_then(|plan| plan.execute_on(engine))
        .unwrap_or_else(|e| panic!("query should run: {e}"))
}

/// Parse `--key value` style args with a default.
pub fn arg_usize(args: &[String], key: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parse a `--key value` u64 arg with a default.
pub fn arg_u64(args: &[String], key: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Mean of a slice (0 for empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--trials", "7", "--seed", "9"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        assert_eq!(arg_usize(&args, "--trials", 3), 7);
        assert_eq!(arg_usize(&args, "--missing", 3), 3);
        assert_eq!(arg_u64(&args, "--seed", 0), 9);
    }

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
