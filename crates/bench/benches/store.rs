//! Semantic response-store tier benchmark.
//!
//! Near-duplicate rephrasings and adversarial near-miss prompts are
//! answered through the embedding tier; hits and answer mismatches against
//! the backend's ground truth are counted as a *measured* accuracy delta,
//! not assumed. A rephrased burst served by the semantic tier must take at
//! most half the time of the same burst dispatched to a latency-injected
//! backend, asserted in-bench from manual timings. The harness in
//! `benchmark/` never attaches a semantic tier, so this is its only run.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Instant;

use crowdprompt_core::extract;
use crowdprompt_oracle::backend::{Backend, BackendRegistry, LatencyProfile, SimBackend};
use crowdprompt_oracle::store::{ResponseStore, SemanticConfig, StoreConfig};
use crowdprompt_oracle::task::TaskDescriptor;
use crowdprompt_oracle::types::{CompletionRequest, LanguageModel};
use crowdprompt_oracle::world::{ItemId, WorldModel};
use crowdprompt_oracle::{LlmClient, ModelProfile, NoiseProfile, RoutePolicy, SimulatedLlm};

const BURST: usize = 64;
/// Injected per-call backend latency: realistic enough that a dispatched
/// burst is dominated by the backend, so the semantic/backend ratio
/// measures what the tier actually removes.
const CALL_US: u64 = 400;
/// Manual-timing repetitions backing the in-bench speedup assertion.
const REPS: u32 = 5;

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

/// The simulated oracle's answer noise is keyed by the request
/// fingerprint, so a noisy model answers a rephrased prompt with a fresh
/// noise draw — the measured accuracy delta would mix task-level
/// differences with noise flips. Perfect noise isolates the semantic
/// tier's own approximation cost.
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

/// Semantic tier: near-duplicate bursts answered from disk, with the
/// accuracy delta measured against the backend's ground truth.
fn bench_semantic(_c: &mut Criterion) {
    let (world, ids) = batch_world();
    let sem_path = std::env::temp_dir().join(format!(
        "crowdprompt-store-bench-{}.log",
        std::process::id()
    ));
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
        println!(
            "bench: store_semantic/{label} accuracy delta = {mismatches}/{hits} semantic answers"
        );
    };
    report("rephrased", &rephrased, true);
    report("adversarial", &adversarial, false);

    // Time the benign-variant burst by hand, alternating the two sides
    // each repetition: semantic hits skip the injected backend latency
    // entirely, a store-less client pays it per call.
    let mut semantic_ns = 0u64;
    let mut backend_ns = 0u64;
    for _ in 0..REPS {
        let client = client_over(
            perfect_model(&world),
            Some(Arc::new(
                ResponseStore::open_read_only(&sem_path, config.clone()).unwrap(),
            )),
        );
        let t = Instant::now();
        for req in &rephrased {
            let out = client.complete(req).unwrap();
            assert!(out.cached, "variant burst must be served semantically");
        }
        semantic_ns += t.elapsed().as_nanos() as u64;
        assert_eq!(client.stats().calls(), 0);

        let client = client_over(perfect_model(&world), None);
        let t = Instant::now();
        for req in &rephrased {
            client.complete(req).unwrap();
        }
        backend_ns += t.elapsed().as_nanos() as u64;
        assert_eq!(client.stats().calls(), rephrased.len() as u64);
    }
    for (name, ns) in [("semantic", semantic_ns), ("backend", backend_ns)] {
        let per_burst = ns / u64::from(REPS);
        println!("bench: store_semantic/variant_burst_{name:<19} {per_burst:>14} ns/burst");
    }
    assert!(
        2 * semantic_ns <= backend_ns,
        "a semantic variant burst must take <= 0.5x the backend's: \
         {semantic_ns} ns vs {backend_ns} ns over {REPS} reps"
    );

    std::fs::remove_file(&sem_path).ok();
    std::fs::remove_file(format!("{}.lock", sem_path.display())).ok();
}

criterion_group!(benches, bench_semantic);
criterion_main!(benches);
