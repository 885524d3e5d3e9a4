//! Failure-injection integration tests: transport errors, malformed
//! responses, context overflows, and extraction hazards exercised through
//! the full stack.

use std::sync::Arc;

use crowdprompt::core::ops::filter::FilterStrategy;
use crowdprompt::oracle::model::NoiseProfile;
use crowdprompt::oracle::world::{ItemId, WorldModel};
use crowdprompt::oracle::LlmError;
use crowdprompt::prelude::*;

fn flagged_world(n: usize) -> (WorldModel, Vec<ItemId>) {
    let mut w = WorldModel::new();
    let items = (0..n)
        .map(|i| {
            let id = w.add_item(format!("item number {i}"));
            w.set_flag(id, "keep", i % 2 == 0);
            w.set_score(id, i as f64 / n as f64);
            id
        })
        .collect();
    (w, items)
}

/// Which roster a scenario runs against: one backend or two. Transport-
/// failure scenarios run across both — their guarantees must not depend on
/// the backend set.
#[derive(Debug, Clone, Copy)]
enum Fleet {
    Single,
    Pair,
}

const ALL_FLEETS: [Fleet; 2] = [Fleet::Single, Fleet::Pair];

/// Build a session over the given fleet with `attempts` total transport
/// attempts per call (however the router spreads them).
///
/// Both fleets pin an effectively-disabled circuit breaker: these
/// scenarios drive 100%-failure storms through parallel workers, and a
/// default-threshold breaker would race the assertions (tripping turns
/// `RetriesExhausted` into `CircuitOpen` depending on scheduling). The
/// retry contract is the thing under test here; breaker behaviour has its
/// own tests in `oracle::route`.
fn fleet_session(
    noise: NoiseProfile,
    attempts: u32,
    seed: u64,
    fleet: Fleet,
) -> (Session, Vec<ItemId>) {
    use crowdprompt::oracle::route::BreakerConfig;
    let (w, items) = flagged_world(30);
    let profile = ModelProfile::gpt35_like().with_noise(noise);
    let llm: Arc<dyn LanguageModel> =
        Arc::new(SimulatedLlm::new(profile, Arc::new(w.clone()), seed));
    let routed = |backends: Vec<Arc<dyn Backend>>| {
        Arc::new(LlmClient::routed(
            BackendRegistry::new(backends).unwrap(),
            RoutePolicy {
                max_retries: attempts.saturating_sub(1),
                breaker: BreakerConfig {
                    failure_threshold: u32::MAX,
                    cooldown: std::time::Duration::from_millis(1),
                },
                ..RoutePolicy::default()
            },
        ))
    };
    let builder = Session::builder()
        .corpus(Corpus::from_world(&w, &items))
        .criterion("by index");
    let session = match fleet {
        Fleet::Single => builder.client(routed(vec![
            Arc::new(SimBackend::new("solo", llm)) as Arc<dyn Backend>
        ])),
        Fleet::Pair => builder.client(routed(vec![
            Arc::new(SimBackend::new("east", Arc::clone(&llm))) as Arc<dyn Backend>,
            Arc::new(SimBackend::new("west", llm)) as Arc<dyn Backend>,
        ])),
    }
    .build();
    (session, items)
}

/// Transport retries the router performed.
fn transport_retries(session: &Session) -> u64 {
    session.engine().client().stats().retries()
}

fn session_with(noise: NoiseProfile, seed: u64) -> (Session, Vec<ItemId>) {
    fleet_session(noise, 3, seed, Fleet::Single)
}

#[test]
fn flaky_transport_is_absorbed_by_retries() {
    let noise = NoiseProfile {
        rate_limit_prob: 0.3,
        unavailable_prob: 0.1,
        ..NoiseProfile::perfect()
    };
    for fleet in ALL_FLEETS {
        let (session, items) = fleet_session(noise.clone(), 8, 5, fleet);
        // A 30-item filter fires 30 calls; with 40% failure probability and
        // 8 attempts, every call should eventually succeed — on either
        // roster.
        let out = session
            .filter(&items, "keep", FilterStrategy::Single)
            .expect("retries should absorb transient failures");
        assert_eq!(out.value.len(), 15, "{fleet:?}");
        // Retries actually happened somewhere in the stack.
        assert!(transport_retries(&session) > 0, "{fleet:?}");
    }
}

#[test]
fn persistent_transport_failure_surfaces_retries_exhausted() {
    let noise = NoiseProfile {
        rate_limit_prob: 1.0,
        ..NoiseProfile::perfect()
    };
    for fleet in ALL_FLEETS {
        let (session, items) = fleet_session(noise.clone(), 3, 6, fleet);
        let err = session
            .filter(&items, "keep", FilterStrategy::Single)
            .unwrap_err();
        match err {
            EngineError::Llm(LlmError::RetriesExhausted { attempts, .. }) => {
                assert_eq!(
                    attempts, 3,
                    "{fleet:?}: total attempts are configured, not assumed"
                );
            }
            other => panic!("{fleet:?}: expected retry exhaustion, got {other:?}"),
        }
    }
}

#[test]
fn malformed_contradictory_chatter_is_still_extracted() {
    // Every answer is wrapped in the paper's "They are not the same...
    // They are the same." pattern; extraction must still resolve them and
    // the perfect underlying answers must survive.
    let noise = NoiseProfile {
        malformed_rate: 1.0,
        chatter_level: 1.0,
        ..NoiseProfile::perfect()
    };
    let (session, items) = session_with(noise, 7);
    let out = session
        .filter(&items, "keep", FilterStrategy::Single)
        .expect("extraction should survive contradictory chatter");
    assert_eq!(out.value.len(), 15, "answers must still be correct");
}

#[test]
fn context_overflow_fails_fast_with_diagnostics() {
    let (w, items) = flagged_world(4000);
    let profile = ModelProfile::gpt35_like(); // 4k-token window
    let llm = SimulatedLlm::new(profile, Arc::new(w.clone()), 8);
    let session = Session::builder()
        .client(Arc::new(LlmClient::new(Arc::new(llm))))
        .corpus(Corpus::from_world(&w, &items))
        .criterion("by index")
        .build();
    // 4000 items in one sort prompt cannot fit into 4096 tokens.
    let err = session
        .sort(
            &items,
            SortCriterion::LatentScore,
            &SortStrategy::SinglePrompt,
        )
        .unwrap_err();
    match err {
        EngineError::Llm(LlmError::ContextOverflow {
            prompt_tokens,
            context_window,
        }) => {
            assert!(prompt_tokens > context_window);
            assert_eq!(context_window, 4096);
        }
        other => panic!("expected context overflow, got {other:?}"),
    }
    // Nothing was spent on the failed call.
    assert_eq!(session.spent_usd(), 0.0);
}

#[test]
fn max_token_truncation_reported_as_length_finish() {
    use crowdprompt::oracle::task::{SortCriterion as SC, TaskDescriptor};
    use crowdprompt::oracle::types::FinishReason;
    let (w, items) = flagged_world(50);
    let llm = SimulatedLlm::new(ModelProfile::perfect(), Arc::new(w.clone()), 9);
    let client = LlmClient::new(Arc::new(llm));
    let req = CompletionRequest::new(
        "Sort everything.",
        TaskDescriptor::SortList {
            items: items.clone(),
            criterion: SC::LatentScore,
        },
    )
    .with_max_tokens(10);
    let resp = client.complete(&req).unwrap();
    assert_eq!(resp.finish_reason, FinishReason::Length);
    assert!(resp.usage.completion_tokens <= 10);
}

#[test]
fn breaker_opens_heals_and_degraded_batch_completes() {
    // End-to-end circuit-breaker recovery: a scripted outage fails the
    // backend's first calls, the breaker trips open, and a degrade-mode
    // batch started mid-outage keeps re-asking — sleeping the breaker's
    // advertised probe hints — until half-open probes heal the circuit and
    // every item completes. Nothing may quarantine.
    let (w, items) = flagged_world(30);
    let llm: Arc<dyn LanguageModel> = Arc::new(SimulatedLlm::new(
        ModelProfile::gpt35_like().with_noise(NoiseProfile::perfect()),
        Arc::new(w.clone()),
        11,
    ));
    // First 12 backend calls are an outage; everything after heals.
    let backend = SimBackend::new("healing", llm).with_fault_schedule(FaultSchedule::new(vec![
        FaultWindow::new(0, 12, FaultKind::Outage),
    ]));
    use crowdprompt::oracle::route::BreakerConfig;
    let client = Arc::new(LlmClient::routed(
        BackendRegistry::new(vec![Arc::new(backend) as Arc<dyn Backend>]).unwrap(),
        RoutePolicy {
            max_retries: 1,
            breaker: BreakerConfig {
                failure_threshold: 3,
                cooldown: std::time::Duration::from_millis(10),
            },
            ..RoutePolicy::default()
        },
    ));
    let session = Session::builder()
        .client(client)
        .corpus(Corpus::from_world(&w, &items))
        .criterion("by index")
        .resilience(
            ResilienceConfig::new().failure_policy(FailurePolicy::Degrade { max_attempts: 60 }),
        )
        .build();

    let run = session
        .plan(session.query(&items).filter("keep"))
        .unwrap()
        .execute(&session)
        .unwrap();
    // Every keep-flagged item survived the outage.
    assert_eq!(run.output.items().unwrap().len(), 15);
    // The whole batch was salvaged: the step degraded transparently, with
    // zero casualties recorded in its salvage notes.
    assert_eq!(run.steps.len(), 1);
    assert_eq!(run.steps[0].quarantined_count(), 0);
    assert!(
        !run.steps[0].salvage.is_empty(),
        "degrade mode leaves a note"
    );
    // The breaker genuinely opened during the outage...
    let stats = session.engine().client().router().unwrap().stats();
    assert!(
        stats.per_backend[0].breaker_trips >= 1,
        "outage should trip the breaker: {stats:?}"
    );
    // ...and genuinely healed: it is closed now, and a fresh operation
    // completes first-try (served from cache or a healthy backend).
    assert!(!stats.per_backend[0].open, "breaker should have re-closed");
    let again = session
        .filter(&items, "keep", FilterStrategy::Single)
        .unwrap();
    assert_eq!(again.value.len(), 15);
}

#[test]
fn cache_prevents_double_billing_across_repeated_operations() {
    let (session, items) = session_with(NoiseProfile::perfect(), 10);
    session
        .filter(&items, "keep", FilterStrategy::Single)
        .unwrap();
    let spent_once = session.spent_usd();
    let calls_once = session.engine().client().stats().calls();
    // Identical operation: every unit task is a cache hit.
    session
        .filter(&items, "keep", FilterStrategy::Single)
        .unwrap();
    assert_eq!(session.engine().client().stats().calls(), calls_once);
    assert!(session.engine().client().stats().cache_hits() >= items.len() as u64);
    // Budget spend does not grow on cached responses.
    assert_eq!(session.spent_usd(), spent_once);
}
