//! Persistent response store benchmarks — the PR-9 tentpole.
//!
//! Three questions, each answered with a timed group plus in-bench
//! assertions on the invariants the store test suites property-check:
//!
//! * **What does a warm start buy?** A 64-task burst against a
//!   latency-injected backend, run by a *fresh process stack* (new client,
//!   empty in-memory cache) over an already-populated store vs over an
//!   empty one. The warm run must complete with **zero backend calls** and
//!   at least a **5× wall-clock speedup**, asserted in-bench from manual
//!   timings (the CI baseline guard re-checks the ratio from the recorded
//!   series).
//! * **Is the exact tier invisible?** Store-served results must be
//!   bit-identical (text, usage, model, confidence) to the same burst run
//!   with no store at all, and meter == ledger == budget must hold on both
//!   the cold and warm paths — store hits are free everywhere or nowhere.
//! * **What does the semantic tier cost?** Near-duplicate rephrasings and
//!   adversarial near-miss prompts are answered through the embedding
//!   tier; hits and answer mismatches against the backend's ground truth
//!   are recorded as a *measured* accuracy delta, not assumed.
//!
//! Run with `CRITERION_JSON=BENCH_store.json cargo bench --bench store`
//! to record the JSON baseline.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use crowdprompt_core::{extract, Corpus, Engine};
use crowdprompt_oracle::backend::{Backend, BackendRegistry, LatencyProfile, SimBackend};
use crowdprompt_oracle::store::{ResponseStore, SemanticConfig, StoreConfig};
use crowdprompt_oracle::task::TaskDescriptor;
use crowdprompt_oracle::types::{CompletionRequest, CompletionResponse, LanguageModel};
use crowdprompt_oracle::world::{ItemId, WorldModel};
use crowdprompt_oracle::{LlmClient, ModelProfile, NoiseProfile, RoutePolicy, SimulatedLlm};

const BURST: usize = 64;
/// Injected per-call backend latency: realistic enough that the cold burst
/// is dominated by the backend, so the warm/cold ratio measures what the
/// store actually removes.
const CALL_US: u64 = 400;
/// Manual-timing repetitions backing the in-bench speedup assertion.
const REPS: u32 = 10;

fn batch_world() -> (Arc<WorldModel>, Vec<ItemId>) {
    let mut w = WorldModel::new();
    let ids = (0..BURST)
        .map(|i| {
            let id = w.add_item(format!("ticket {i}: triage severity {}", i % 7));
            w.set_flag(id, "urgent", i % 3 == 0);
            // A deliberately different predicate whose *prompt* is a near
            // neighbor of "urgent" — the semantic tier's adversarial case.
            w.set_flag(id, "truly urgent", i % 5 == 0);
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

/// Noise-free variant for the semantic section: the simulated oracle's
/// answer noise is keyed by the request fingerprint, so a noisy model
/// answers a rephrased prompt with a fresh noise draw — the measured
/// accuracy delta would mix task-level differences with noise flips.
/// Perfect noise isolates the semantic tier's own approximation cost.
fn perfect_model(world: &Arc<WorldModel>) -> Arc<dyn LanguageModel> {
    Arc::new(SimulatedLlm::new(
        ModelProfile::gpt35_like().with_noise(NoiseProfile::perfect()),
        Arc::clone(world),
        7,
    ))
}

/// Distinct word-pair ticket names: different tickets' prompts stay far
/// apart in n-gram embedding space (~0.7 L2) while rephrasings of one
/// ticket stay close (~0.1), which is the separation the semantic-tier
/// threshold relies on.
fn ticket_name(i: usize) -> String {
    const ADJ: [&str; 8] = [
        "amber", "cobalt", "crimson", "indigo", "saffron", "onyx", "russet", "viridian",
    ];
    const ANIMAL: [&str; 8] = [
        "finch", "otter", "heron", "vole", "lynx", "stoat", "plover", "marten",
    ];
    format!("{}-{}", ADJ[i / 8 % 8], ANIMAL[i % 8])
}

fn tasks(ids: &[ItemId]) -> Vec<TaskDescriptor> {
    ids.iter()
        .map(|id| TaskDescriptor::CheckPredicate {
            item: *id,
            predicate: "urgent".into(),
        })
        .collect()
}

/// A fresh client over one latency-injected backend, optionally layered on
/// a persistent store. Every call minting one of these simulates a fresh
/// process: empty in-memory shards, zeroed ledger and stats.
fn latency_client(world: &Arc<WorldModel>, store: Option<Arc<ResponseStore>>) -> Arc<LlmClient> {
    client_over(model(world), store)
}

/// A fresh client over one latency-injected backend serving `llm`.
fn client_over(llm: Arc<dyn LanguageModel>, store: Option<Arc<ResponseStore>>) -> Arc<LlmClient> {
    let backend: Arc<dyn Backend> =
        Arc::new(SimBackend::new("steady", llm).with_latency(LatencyProfile::fixed(CALL_US)));
    let mut client = LlmClient::routed(
        BackendRegistry::new(vec![backend]).expect("one backend"),
        RoutePolicy::default(),
    );
    if let Some(store) = store {
        client = client.with_store(store);
    }
    Arc::new(client)
}

fn engine_with(
    world: &Arc<WorldModel>,
    ids: &[ItemId],
    store: Option<Arc<ResponseStore>>,
) -> Engine {
    Engine::new(latency_client(world, store), Corpus::from_world(world, ids)).with_parallelism(8)
}

fn temp_store(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "crowdprompt-store-bench-{}-{tag}-{n}.log",
        std::process::id()
    ))
}

/// Append an extra JSON line (same file the criterion shim writes) for
/// non-timing measurements like hit and mismatch counters.
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

fn assert_meter_ledger_budget(engine: &Engine, responses: &[CompletionResponse]) {
    let meter: f64 = responses
        .iter()
        .filter(|r| !r.cached)
        .map(|r| r.pricing.cost_usd(r.usage))
        .sum();
    let ledger = engine.client().ledger().spend_usd();
    assert!(
        (meter - ledger).abs() < 1e-6,
        "outcome meter must equal the ledger: {meter} vs {ledger}"
    );
    assert!(
        (engine.budget().spent_usd() - ledger).abs() < 1e-6,
        "budget tracker must equal the ledger: {} vs {ledger}",
        engine.budget().spent_usd()
    );
}

/// Cold empty-store burst vs fresh-stack warm start on a populated store.
fn bench_warm_start(c: &mut Criterion) {
    let (world, ids) = batch_world();

    // Populate the shared store once, through the normal admission path.
    let warm_path = temp_store("warm");
    {
        let store = Arc::new(ResponseStore::open(&warm_path, StoreConfig::default()).unwrap());
        let engine = engine_with(&world, &ids, Some(store));
        let out = engine.run_many(tasks(&ids)).unwrap();
        assert_eq!(out.len(), BURST);
        assert_eq!(engine.client().store().unwrap().len(), BURST);
    }

    let mut group = c.benchmark_group("store_start");
    group.bench_function("cold_empty", |b| {
        b.iter_batched(
            || {
                let path = temp_store("cold");
                let store = Arc::new(ResponseStore::open(&path, StoreConfig::default()).unwrap());
                engine_with(&world, &ids, Some(store))
            },
            |engine| engine.run_many(tasks(&ids)).unwrap(),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("warm_populated", |b| {
        b.iter_batched(
            || {
                // Read-only handles take no writer lock, so every
                // iteration is a truly fresh process stack on the same
                // file with no handoff between iterations.
                let store = Arc::new(
                    ResponseStore::open_read_only(&warm_path, StoreConfig::default()).unwrap(),
                );
                engine_with(&world, &ids, Some(store))
            },
            |engine| {
                let out = engine.run_many(tasks(&ids)).unwrap();
                assert_eq!(
                    engine.client().stats().calls(),
                    0,
                    "warm start must not touch the backend"
                );
                out
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();

    // Manual wall-clock measurement backing the tentpole's >=5x guarantee,
    // plus the accounting and bit-identity invariants, checked in-bench so
    // a regression fails the bench run itself, not just the CI ratio guard.
    let mut cold_ns = 0u64;
    for _ in 0..REPS {
        let path = temp_store("manual-cold");
        let store = Arc::new(ResponseStore::open(&path, StoreConfig::default()).unwrap());
        let engine = engine_with(&world, &ids, Some(store));
        let t = Instant::now();
        let out = engine.run_many(tasks(&ids)).unwrap();
        cold_ns += t.elapsed().as_nanos() as u64;
        assert_eq!(engine.client().stats().calls(), BURST as u64);
        assert_meter_ledger_budget(&engine, &out);
    }
    let mut warm_ns = 0u64;
    let mut warm_out = Vec::new();
    for _ in 0..REPS {
        let store =
            Arc::new(ResponseStore::open_read_only(&warm_path, StoreConfig::default()).unwrap());
        let engine = engine_with(&world, &ids, Some(store));
        let t = Instant::now();
        let out = engine.run_many(tasks(&ids)).unwrap();
        warm_ns += t.elapsed().as_nanos() as u64;
        assert_eq!(engine.client().stats().calls(), 0, "zero backend calls");
        assert_eq!(engine.client().stats().store_hits(), BURST as u64);
        assert_meter_ledger_budget(&engine, &out);
        warm_out = out;
    }
    assert!(
        cold_ns >= 5 * warm_ns,
        "warm start must be >=5x faster: cold {cold_ns} ns vs warm {warm_ns} ns over {REPS} reps"
    );
    record_ns("store_start/manual_cold_ns", cold_ns / u64::from(REPS));
    record_ns("store_start/manual_warm_ns", warm_ns / u64::from(REPS));

    // Exact-tier results are bit-identical to a store-less run: same text,
    // usage, model, and confidence — only the `cached` marking differs.
    let bare = engine_with(&world, &ids, None);
    let bare_out = bare.run_many(tasks(&ids)).unwrap();
    assert_eq!(warm_out.len(), bare_out.len());
    for (warm, fresh) in warm_out.iter().zip(&bare_out) {
        assert!(warm.cached, "warm burst is store-served");
        assert_eq!(warm.text, fresh.text, "store must not change results");
        assert_eq!(warm.usage, fresh.usage);
        assert_eq!(warm.model, fresh.model);
        assert_eq!(warm.confidence, fresh.confidence);
    }

    sweep_temp_files();
}

/// Semantic tier: near-duplicate bursts answered from disk, with the
/// accuracy delta measured against the backend's ground truth.
fn bench_semantic(c: &mut Criterion) {
    let (world, ids) = batch_world();
    let sem_path = temp_store("semantic");
    // Threshold picked from measured n-gram L2 distances over these exact
    // prompts (the embedder is deterministic, so these are constants):
    // trivial rephrasings sit at <= 0.113, the adversarial "truly "
    // insertion at <= 0.367, and no variant comes within 0.423 of a
    // *different* ticket's prompt — so 0.39 serves both variant families
    // while distinct tickets never alias each other (population admits
    // all 64).
    let config = StoreConfig {
        semantic: Some(SemanticConfig::new(0.39)),
    };

    let base: Vec<CompletionRequest> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            CompletionRequest::new(
                format!(
                    "Does ticket {} satisfy the urgent predicate?",
                    ticket_name(i)
                ),
                TaskDescriptor::CheckPredicate {
                    item: id,
                    predicate: "urgent".into(),
                },
            )
        })
        .collect();
    // Benign rephrasings: same task, trivially perturbed prompt — the
    // semantic tier exists to catch exactly these.
    let rephrased: Vec<CompletionRequest> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            CompletionRequest::new(
                format!(
                    "Does ticket {} satisfy the urgent predicate??",
                    ticket_name(i)
                ),
                TaskDescriptor::CheckPredicate {
                    item: id,
                    predicate: "urgent".into(),
                },
            )
        })
        .collect();
    // Adversarial near-misses: a prompt within embedding reach of the
    // stored one but asking a genuinely different question. Every hit
    // here that answers differently from ground truth is the semantic
    // tier's real accuracy cost.
    let adversarial: Vec<CompletionRequest> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            CompletionRequest::new(
                format!(
                    "Does ticket {} satisfy the truly urgent predicate?",
                    ticket_name(i)
                ),
                TaskDescriptor::CheckPredicate {
                    item: id,
                    predicate: "truly urgent".into(),
                },
            )
        })
        .collect();

    // Populate through the admission path.
    {
        let client = client_over(
            perfect_model(&world),
            Some(Arc::new(
                ResponseStore::open(&sem_path, config.clone()).unwrap(),
            )),
        );
        for req in &base {
            client.complete(req).unwrap();
        }
        assert_eq!(client.store().unwrap().len(), BURST);
    }

    // Measure the accuracy delta: for every variant, compare the answer
    // the store-backed client serves against what the backend itself says
    // for that exact request. Chatter differs per request, so answers are
    // compared after yes/no extraction, not as raw text.
    let truth_client = LlmClient::new(perfect_model(&world));
    let report = |label: &str, variants: &[CompletionRequest], expect_all_hits: bool| {
        let client = client_over(
            perfect_model(&world),
            Some(Arc::new(
                ResponseStore::open_read_only(&sem_path, config.clone()).unwrap(),
            )),
        );
        let mut hits = 0u64;
        let mut mismatches = 0u64;
        for req in variants {
            let before = client.stats().semantic_hits();
            let served = client.complete(req).unwrap();
            let truth = truth_client.complete(req).unwrap();
            if client.stats().semantic_hits() > before {
                hits += 1;
                let served_answer = extract::yes_no(&served.text).expect("yes/no answer");
                let truth_answer = extract::yes_no(&truth.text).expect("yes/no answer");
                if served_answer != truth_answer {
                    mismatches += 1;
                }
            }
        }
        if expect_all_hits {
            assert_eq!(hits, variants.len() as u64, "{label}: all must hit");
            assert_eq!(
                mismatches, 0,
                "{label}: rephrasings must not change answers"
            );
        } else {
            // The adversarial family truly asks a different question for
            // some tickets, so the measured delta must be visible — the
            // measurement is real, not vacuously zero.
            assert!(
                mismatches > 0,
                "{label}: delta measurement must detect the approximation"
            );
        }
        record_ns(&format!("store_semantic/{label}_hits_of_64"), hits);
        record_ns(&format!("store_semantic/{label}_mismatch"), mismatches);
        println!(
            "bench: store_semantic/{label} accuracy delta = {mismatches}/{hits} semantic answers"
        );
    };
    report("rephrased", &rephrased, true);
    report("adversarial", &adversarial, false);

    // Time the benign-variant burst: semantic hits skip the injected
    // backend latency entirely, backend-only pays it per call.
    let mut group = c.benchmark_group("store_semantic");
    group.bench_function("variant_burst_semantic", |b| {
        b.iter_batched(
            || {
                client_over(
                    perfect_model(&world),
                    Some(Arc::new(
                        ResponseStore::open_read_only(&sem_path, config.clone()).unwrap(),
                    )),
                )
            },
            |client| {
                for req in &rephrased {
                    let out = client.complete(req).unwrap();
                    assert!(out.cached, "variant burst must be served semantically");
                }
                assert_eq!(client.stats().calls(), 0);
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("variant_burst_backend", |b| {
        b.iter_batched(
            || client_over(perfect_model(&world), None),
            |client| {
                for req in &rephrased {
                    client.complete(req).unwrap();
                }
                assert_eq!(client.stats().calls(), rephrased.len() as u64);
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();

    sweep_temp_files();
}

/// Remove every store file this process scattered across temp (the cold
/// benchmark mints one per iteration).
fn sweep_temp_files() {
    if let Ok(entries) = std::fs::read_dir(std::env::temp_dir()) {
        let prefix = format!("crowdprompt-store-bench-{}-", std::process::id());
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

criterion_group!(benches, bench_warm_start, bench_semantic);
criterion_main!(benches);
