//! Resilience benchmark — salvage under fire, the `Degrade` failure policy
//! through a fault window, which the end-to-end harness never runs.
//!
//! The same batch is dispatched into a scripted outage with a healthy
//! standby backend: cross-backend retries absorb the whole fault window,
//! every item salvages, nothing quarantines, and the outcome meter, the
//! client ledger and the budget tracker agree on what the salvage cost.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::sync::Arc;

use crowdprompt_core::{Corpus, Engine, FailurePolicy, RunSpec};
use crowdprompt_oracle::backend::{Backend, BackendRegistry, SimBackend};
use crowdprompt_oracle::route::{BreakerConfig, RoutePolicy};
use crowdprompt_oracle::task::TaskDescriptor;
use crowdprompt_oracle::types::LanguageModel;
use crowdprompt_oracle::world::{ItemId, WorldModel};
use crowdprompt_oracle::{
    FaultKind, FaultSchedule, FaultWindow, LlmClient, ModelProfile, SimulatedLlm,
};

const BATCH: usize = 64;
/// Backend-call ordinals [0, 24) on the flaky backend fail hard.
const OUTAGE_CALLS: u64 = 24;

fn batch_world() -> (Arc<WorldModel>, Vec<ItemId>) {
    let mut w = WorldModel::new();
    let ids = (0..BATCH)
        .map(|i| {
            let id = w.add_item(format!("ticket {i}: triage severity {}", i % 7));
            w.set_flag(id, "urgent", i % 3 == 0);
            id
        })
        .collect();
    (Arc::new(w), ids)
}

fn model(world: &Arc<WorldModel>) -> Arc<dyn LanguageModel> {
    Arc::new(SimulatedLlm::new(
        ModelProfile::gpt35_like(),
        Arc::clone(world),
        7,
    ))
}

fn tasks(ids: &[ItemId]) -> Vec<TaskDescriptor> {
    ids.iter()
        .map(|id| TaskDescriptor::CheckPredicate {
            item: *id,
            predicate: "urgent".into(),
        })
        .collect()
}

fn routed(backends: Vec<Arc<dyn Backend>>) -> Arc<LlmClient> {
    Arc::new(LlmClient::routed(
        BackendRegistry::new(backends).expect("distinct same-tier backends"),
        RoutePolicy {
            max_retries: 2,
            breaker: BreakerConfig {
                failure_threshold: 4,
                cooldown: std::time::Duration::from_millis(5),
            },
            ..RoutePolicy::default()
        },
    ))
}

/// A fresh outage-vs-standby engine: the flaky backend hard-fails its
/// first `OUTAGE_CALLS` calls, the standby never fails.
fn outage_engine(world: &Arc<WorldModel>, ids: &[ItemId]) -> Engine {
    let llm = model(world);
    let flaky: Arc<dyn Backend> = Arc::new(
        SimBackend::new("flaky", Arc::clone(&llm)).with_fault_schedule(FaultSchedule::new(vec![
            FaultWindow::new(0, OUTAGE_CALLS, FaultKind::Outage),
        ])),
    );
    let steady: Arc<dyn Backend> = Arc::new(SimBackend::new("steady", llm));
    Engine::new(routed(vec![flaky, steady]), Corpus::from_world(world, ids))
        .with_parallelism(8)
        .with_failure_policy(FailurePolicy::Degrade { max_attempts: 6 })
}

/// Salvage through a scripted outage with a healthy standby.
fn bench_outage_salvage(c: &mut Criterion) {
    let (world, ids) = batch_world();

    let mut group = c.benchmark_group("resilience_outage");
    group.bench_function("degrade_salvage", |b| {
        b.iter_batched(
            || outage_engine(&world, &ids),
            |engine| {
                let outcome = engine.run_outcome(RunSpec::tasks(tasks(&ids))).unwrap();
                assert!(
                    outcome.is_complete(),
                    "standby must absorb the outage: {} quarantined",
                    outcome.quarantined.len()
                );
                outcome
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();

    // Maximal salvage and money conservation, checked once on a fresh
    // fleet.
    let engine = outage_engine(&world, &ids);
    let outcome = engine.run_outcome(RunSpec::tasks(tasks(&ids))).unwrap();
    assert_eq!(outcome.ok_count(), BATCH, "outage salvage must be total");
    println!(
        "bench: {:<48} {:>14}",
        "resilience_outage/salvaged_of_64",
        outcome.ok_count()
    );
    let meter: f64 = outcome
        .responses
        .iter()
        .map(|r| r.pricing.cost_usd(r.usage))
        .sum();
    let ledger = engine.client().ledger().spend_usd();
    assert!(
        (meter - ledger).abs() < 1e-6,
        "salvage meter must equal the ledger: {meter} vs {ledger}"
    );
    assert!(
        (engine.budget().spent_usd() - ledger).abs() < 1e-6,
        "budget tracker must equal the ledger under salvage"
    );
}

criterion_group!(benches, bench_outage_salvage);
criterion_main!(benches);
