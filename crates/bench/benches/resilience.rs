//! Resilience benchmarks — the PR-7 tentpole's fault-tolerant execution.
//!
//! Three questions, each answered with a timed group plus in-bench
//! assertions on the invariants the chaos suite property-tests:
//!
//! * **What does degrade mode cost when nothing fails?** A healthy 64-task
//!   batch through fail-fast vs degrade-mode execution. The degraded path
//!   runs the outcome machinery (per-item attempt ledgers, quarantine
//!   bookkeeping) and must stay within a small constant factor of the
//!   fail-fast path — partial-failure insurance should be near-free when
//!   nothing burns.
//! * **What does salvage cost under fire?** The same batch dispatched into
//!   a scripted outage with a healthy standby backend: cross-backend
//!   retries absorb the whole fault window, every item salvages, nothing
//!   quarantines.
//! * **What does resume buy?** A journaled batch replayed from a complete
//!   journal vs journaled from scratch: the client's replay slot serves
//!   from the journal's in-memory index without touching the backend, so a
//!   resumed run should beat the run that has to dispatch.
//!
//! Run with `CRITERION_JSON=BENCH_resilience.json cargo bench --bench
//! resilience` to record the JSON baseline.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use crowdprompt_core::{Corpus, Engine, FailurePolicy, RunSpec};
use crowdprompt_oracle::backend::{Backend, BackendRegistry, SimBackend};
use crowdprompt_oracle::route::{BreakerConfig, RoutePolicy};
use crowdprompt_oracle::store::{ResponseStore, StoreConfig};
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

/// A fresh healthy single-backend engine (cold cache) for the clean group.
fn clean_engine(world: &Arc<WorldModel>, ids: &[ItemId], degrade: bool) -> Engine {
    let mut engine = Engine::new(
        routed(vec![
            Arc::new(SimBackend::new("steady", model(world))) as Arc<dyn Backend>
        ]),
        Corpus::from_world(world, ids),
    )
    .with_parallelism(8);
    if degrade {
        engine = engine.with_failure_policy(FailurePolicy::Degrade { max_attempts: 4 });
    }
    engine
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

fn temp_journal(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "crowdprompt-resilience-bench-{}-{tag}-{n}.log",
        std::process::id()
    ))
}

/// Append an extra JSON line (same file the criterion shim writes) for
/// non-timing measurements like salvage counters.
fn record_ns(name: &str, ns: u64) {
    println!("bench: {name:<48} {ns:>14} ns (recorded)");
    if let Ok(path) = std::env::var("CRITERION_JSON") {
        let line = format!("{{\"name\":\"{name}\",\"ns\":{ns}}}\n");
        let _ = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
    }
}

/// Degrade-mode bookkeeping on a healthy batch vs the fail-fast path.
fn bench_clean_batch(c: &mut Criterion) {
    let (world, ids) = batch_world();

    let mut group = c.benchmark_group("resilience_batch");
    group.bench_function("failfast_clean", |b| {
        b.iter_batched(
            || clean_engine(&world, &ids, false),
            |engine| engine.run_many(tasks(&ids)).unwrap(),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("degrade_clean", |b| {
        b.iter_batched(
            || clean_engine(&world, &ids, true),
            |engine| {
                let outcome = engine.run_outcome(RunSpec::tasks(tasks(&ids))).unwrap();
                assert!(outcome.is_complete());
                outcome
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
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

    // Maximal-salvage and money-conservation counters, recorded once on a
    // fresh fleet so the baseline file pins them alongside the timings.
    let engine = outage_engine(&world, &ids);
    let outcome = engine.run_outcome(RunSpec::tasks(tasks(&ids))).unwrap();
    record_ns(
        "resilience_outage/salvaged_of_64",
        outcome.ok_count() as u64,
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

/// A fresh healthy engine (cold cache) with `journal` in its client's
/// replay slot.
fn journaled_engine(world: &Arc<WorldModel>, ids: &[ItemId], journal: ResponseStore) -> Engine {
    let engine = clean_engine(world, ids, false);
    assert!(engine.client().attach_journal(Arc::new(journal)));
    engine
}

/// Journal replay vs journaled first run.
fn bench_resume(c: &mut Criterion) {
    let (world, ids) = batch_world();

    // A complete journal recorded once; every replay iteration opens a
    // fresh handle on it through a cold client, exactly like a resumed
    // process would — read-only, because `iter_batched` keeps several
    // handles alive and a journal has one writer.
    let warm_path = temp_journal("warm");
    journaled_engine(
        &world,
        &ids,
        ResponseStore::open(&warm_path, StoreConfig::default()).unwrap(),
    )
    .run_many(tasks(&ids))
    .unwrap();

    let mut group = c.benchmark_group("resilience_resume");
    group.bench_function("journal_write", |b| {
        b.iter_batched(
            || {
                let path = temp_journal("write");
                let journal = ResponseStore::open(&path, StoreConfig::default()).unwrap();
                (journaled_engine(&world, &ids, journal), path)
            },
            |(engine, path)| {
                let out = engine.run_many(tasks(&ids)).unwrap();
                (out, path)
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("journal_replay", |b| {
        b.iter_batched(
            || {
                let journal =
                    ResponseStore::open_read_only(&warm_path, StoreConfig::default()).unwrap();
                journaled_engine(&world, &ids, journal)
            },
            |engine| {
                let out = engine.run_many(tasks(&ids)).unwrap();
                assert_eq!(
                    engine.client().stats().calls(),
                    0,
                    "replay must not dispatch"
                );
                out
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();

    // Clean up every journal this process scattered across temp (the
    // write benchmark mints one per iteration).
    if let Ok(entries) = std::fs::read_dir(std::env::temp_dir()) {
        let prefix = format!("crowdprompt-resilience-bench-{}-", std::process::id());
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

criterion_group!(
    benches,
    bench_clean_batch,
    bench_outage_salvage,
    bench_resume
);
criterion_main!(benches);
