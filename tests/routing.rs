//! Multi-backend routing integration tests: single-backend parity,
//! failure-path accounting (retry and hedging charge exactly one call),
//! circuit breaking through the session API, and cascade escalation over a
//! dead tier.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crowdprompt::core::ops::filter::FilterStrategy;
use crowdprompt::oracle::backend::CancelToken;
use crowdprompt::oracle::model::NoiseProfile;
use crowdprompt::oracle::types::CompletionResponse;
use crowdprompt::oracle::{ItemId, LlmError, Pricing};
use crowdprompt::prelude::*;

/// Plan and run `query`, as one cost-annotated outcome.
fn run<T>(
    session: &Session,
    query: Query,
    value: impl FnOnce(PlanOutput) -> T,
) -> Result<Outcome<T>, EngineError> {
    let run = session.plan(query).and_then(|plan| plan.execute(session))?;
    Ok(run.into_outcome(value))
}

/// The items a single-check filter on `keep` keeps.
fn keep(session: &Session, items: &[ItemId]) -> Result<Outcome<Vec<ItemId>>, EngineError> {
    let query = session
        .query(items)
        .filter_with("keep", FilterStrategy::Single);
    run(session, query, |out| out.into_items().unwrap())
}

fn flagged_world(
    n: usize,
) -> (
    crowdprompt::oracle::WorldModel,
    Vec<crowdprompt::oracle::ItemId>,
) {
    let mut w = crowdprompt::oracle::WorldModel::new();
    let items = (0..n)
        .map(|i| {
            let id = w.add_item(format!("routed record {i}"));
            w.set_flag(id, "keep", i % 2 == 0);
            w.set_score(id, i as f64 / n as f64);
            id
        })
        .collect();
    (w, items)
}

fn shared_model(w: &crowdprompt::oracle::WorldModel, seed: u64) -> Arc<dyn LanguageModel> {
    Arc::new(SimulatedLlm::new(
        ModelProfile::gpt35_like(),
        Arc::new(w.clone()),
        seed,
    ))
}

/// Routing through a registry of one transparent backend is bit-identical —
/// results, call counts, and spend — to the plain single-client path.
#[test]
fn single_backend_routing_is_bit_identical_to_plain_client() {
    let (w, items) = flagged_world(24);
    let model = shared_model(&w, 5);

    let plain = Session::builder()
        .client(Arc::new(LlmClient::new(Arc::clone(&model))))
        .corpus(Corpus::from_world(&w, &items))
        .criterion("by index")
        .build();
    let routed = Session::builder()
        .routing(
            RoutingConfig::new().backends(vec![
                Arc::new(SimBackend::new("only", Arc::clone(&model))) as Arc<dyn Backend>,
            ]),
        )
        .corpus(Corpus::from_world(&w, &items))
        .criterion("by index")
        .build();

    let plain_filter = keep(&plain, &items).unwrap();
    let routed_filter = keep(&routed, &items).unwrap();
    assert_eq!(plain_filter.value, routed_filter.value);
    assert_eq!(plain_filter.usage, routed_filter.usage);
    assert_eq!(plain_filter.cost_usd, routed_filter.cost_usd);

    let sort = |session: &Session| {
        let query = session
            .query(&items)
            .sort_with(SortCriterion::LatentScore, SortStrategy::SinglePrompt);
        run(session, query, |out| out.into_items().unwrap())
    };
    let plain_sort = sort(&plain).unwrap();
    let routed_sort = sort(&routed).unwrap();
    assert_eq!(plain_sort.value, routed_sort.value);

    // Ledger, budget, and client behaviour identical call for call.
    let pc = plain.engine().client();
    let rc = routed.engine().client();
    assert_eq!(pc.ledger().calls(), rc.ledger().calls());
    assert_eq!(pc.ledger().total_tokens(), rc.ledger().total_tokens());
    assert!((pc.ledger().spend_usd() - rc.ledger().spend_usd()).abs() < 1e-12);
    assert!((plain.spent_usd() - routed.spent_usd()).abs() < 1e-12);
    assert_eq!(pc.stats().calls(), rc.stats().calls());
}

/// A backend that fails transiently a fixed number of times, then delegates
/// to a real simulator — deterministic retry shapes by construction.
struct FailsFirst {
    id: String,
    inner: Arc<dyn LanguageModel>,
    failures_left: AtomicU32,
    price_multiplier: f64,
}

impl Backend for FailsFirst {
    fn id(&self) -> &str {
        &self.id
    }
    fn tier(&self) -> &str {
        self.inner.name()
    }
    fn context_window(&self) -> u32 {
        self.inner.context_window()
    }
    fn pricing(&self) -> Pricing {
        let base = self.inner.pricing();
        Pricing::new(
            base.usd_per_1k_input * self.price_multiplier,
            base.usd_per_1k_output * self.price_multiplier,
        )
    }
    fn slots(&self) -> usize {
        0
    }
    fn complete(
        &self,
        request: &CompletionRequest,
        _cancel: &CancelToken,
    ) -> Result<CompletionResponse, LlmError> {
        if self
            .failures_left
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            return Err(LlmError::ServiceUnavailable);
        }
        let mut response = self.inner.complete(request)?;
        response.pricing = self.pricing();
        Ok(response)
    }
}

/// Transient backend error → retry → success charges exactly ONE backend
/// call to the ledger and the budget, priced at the serving backend's
/// schedule.
#[test]
fn retried_transient_failure_charges_exactly_one_call() {
    let (w, items) = flagged_world(1);
    let model = shared_model(&w, 7);
    let flaky = Arc::new(FailsFirst {
        id: "flaky".into(),
        inner: Arc::clone(&model),
        failures_left: AtomicU32::new(2),
        price_multiplier: 1.5,
    });
    let session = Session::builder()
        .routing(RoutingConfig::new().backends(vec![Arc::clone(&flaky) as Arc<dyn Backend>]))
        .corpus(Corpus::from_world(&w, &items))
        .budget(Budget::usd(1.0))
        .build();

    let out = keep(&session, &items).unwrap();
    assert_eq!(out.value, items, "item 0 satisfies keep");

    let client = session.engine().client();
    let router = client.router().expect("session is routed");
    assert_eq!(router.stats().retries, 2, "two transient failures retried");
    assert_eq!(
        client.ledger().calls(),
        1,
        "failed attempts are never billed; success charges once"
    );
    // Ledger spend == budget spend == outcome meter, all at the backend's
    // 1.5× schedule.
    let expected = flaky.pricing().cost_usd(out.usage);
    assert!((client.ledger().spend_usd() - expected).abs() < 1e-9);
    assert!((session.spent_usd() - expected).abs() < 1e-9);
    assert!((out.cost_usd - expected).abs() < 1e-9);
}

/// A retried sample is still that sample: the router re-rolls a retry's
/// *transport* fate, never the answer draw. Every request here fails once on
/// the always-down cheap backend and is retried on the healthy one, at
/// temperature 0.9 where the sample index is part of the fingerprint — so a
/// retry that moved the sample index would answer vote `k` as vote `k + 1`,
/// correlating self-consistency votes.
#[test]
fn a_retried_sample_answers_as_the_sample_it_is() {
    use crowdprompt::oracle::route::{BreakerConfig, Router};
    use crowdprompt::oracle::TaskDescriptor;

    let (w, items) = flagged_world(40);
    let model = shared_model(&w, 13);
    let down = SimBackend::new("down", Arc::clone(&model))
        .with_price_multiplier(0.1)
        .with_transport_noise(NoiseProfile {
            unavailable_prob: 1.0,
            ..NoiseProfile::perfect()
        })
        .with_seed(3);
    let router = Router::new(
        BackendRegistry::new(vec![
            Arc::new(down) as Arc<dyn Backend>,
            Arc::new(SimBackend::new("up", Arc::clone(&model))) as Arc<dyn Backend>,
        ])
        .unwrap(),
        RoutePolicy {
            max_retries: 2,
            // Never opens: every request meets the dead backend first.
            breaker: BreakerConfig {
                failure_threshold: u32::MAX,
                cooldown: Duration::ZERO,
            },
            ..RoutePolicy::default()
        },
    );
    let mut moved = Vec::new();
    for item in &items {
        for sample in 0..3u32 {
            let request = CompletionRequest {
                temperature: 0.9,
                sample_index: sample,
                ..CompletionRequest::new(
                    format!("Should record {} be kept? Answer Yes or No.", item.0),
                    TaskDescriptor::CheckPredicate {
                        item: *item,
                        predicate: "keep".into(),
                    },
                )
            };
            let direct = model.complete(&request).unwrap();
            let routed = router.complete(&request).unwrap();
            if routed.text != direct.text {
                moved.push((item.0, sample));
            }
        }
    }
    assert_eq!(
        router.stats().retries,
        120,
        "every request was retried once"
    );
    assert!(
        moved.is_empty(),
        "routed answers differ from the model's own at (item, sample) {moved:?}"
    );
}

/// A slow backend that reports whether its cancel token fired.
struct SlowProbe {
    id: String,
    inner: Arc<SimBackend>,
    saw_cancel: AtomicBool,
}

impl Backend for SlowProbe {
    fn id(&self) -> &str {
        &self.id
    }
    fn tier(&self) -> &str {
        self.inner.tier()
    }
    fn context_window(&self) -> u32 {
        self.inner.context_window()
    }
    fn pricing(&self) -> Pricing {
        self.inner.pricing()
    }
    fn slots(&self) -> usize {
        self.inner.slots()
    }
    fn complete(
        &self,
        request: &CompletionRequest,
        cancel: &CancelToken,
    ) -> Result<CompletionResponse, LlmError> {
        let result = self.inner.complete(request, cancel);
        if matches!(result, Err(LlmError::Cancelled)) {
            self.saw_cancel.store(true, Ordering::SeqCst);
        }
        result
    }
}

/// A hedged request's loser is cancelled and contributes zero spend: the
/// ledger and budget charge exactly the winner's one call.
#[test]
fn hedged_loser_is_cancelled_without_spend() {
    let (w, items) = flagged_world(1);
    let model = shared_model(&w, 9);
    // The slow backend is cheapest, so selection makes it primary; the
    // hedge then wins on the fast backend.
    let slow = Arc::new(SlowProbe {
        id: "slow".into(),
        inner: Arc::new(
            SimBackend::new("slow-inner", Arc::clone(&model))
                .with_latency(LatencyProfile::fixed(2_000_000))
                .with_price_multiplier(0.5),
        ),
        saw_cancel: AtomicBool::new(false),
    });
    let fast = Arc::new(SimBackend::new("fast", Arc::clone(&model)).with_price_multiplier(2.0));
    let session = Session::builder()
        .routing(
            RoutingConfig::new()
                .backends(vec![
                    Arc::clone(&slow) as Arc<dyn Backend>,
                    fast as Arc<dyn Backend>,
                ])
                .hedge_after(Duration::from_millis(2)),
        )
        .corpus(Corpus::from_world(&w, &items))
        .budget(Budget::usd(1.0))
        .build();

    let out = keep(&session, &items).unwrap();
    assert_eq!(out.value, items, "hedged answer matches the model's");

    let client = session.engine().client();
    let router = client.router().expect("session is routed");
    let stats = router.stats();
    assert_eq!(stats.hedges_launched, 1);
    assert_eq!(stats.hedges_won, 1, "the fast duplicate wins");

    // Give the cancelled loser a moment to observe its token and unwind.
    for _ in 0..100 {
        if slow.saw_cancel.load(Ordering::SeqCst) {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        slow.saw_cancel.load(Ordering::SeqCst),
        "loser saw cancellation"
    );

    // Exactly one charged call, at the WINNER's (2×) schedule — the loser
    // contributes nothing to ledger, budget, or the outcome meter.
    assert_eq!(client.ledger().calls(), 1);
    let winner_pricing = Pricing::new(
        model.pricing().usd_per_1k_input * 2.0,
        model.pricing().usd_per_1k_output * 2.0,
    );
    let expected = winner_pricing.cost_usd(out.usage);
    assert!((client.ledger().spend_usd() - expected).abs() < 1e-9);
    assert!((session.spent_usd() - expected).abs() < 1e-9);
    assert!((out.cost_usd - expected).abs() < 1e-9);
}

/// A USD cap must hold even though estimates are priced at the cheapest
/// backend: admission scales by the worst-case price factor, so a batch
/// that only fits at cheap pricing is refused before any spend.
#[test]
fn usd_cap_admission_accounts_for_priciest_backend() {
    use crowdprompt::core::Engine;
    use crowdprompt::oracle::TaskDescriptor;
    let (w, items) = flagged_world(10);
    let model: Arc<dyn LanguageModel> = Arc::new(SimulatedLlm::new(
        ModelProfile::gpt35_like().with_noise(NoiseProfile::perfect()),
        Arc::new(w.clone()),
        19,
    ));
    let client = Arc::new(LlmClient::routed(
        BackendRegistry::new(vec![
            Arc::new(SimBackend::new("cheap", Arc::clone(&model))) as Arc<dyn Backend>,
            Arc::new(SimBackend::new("pricey", Arc::clone(&model)).with_price_multiplier(10.0))
                as Arc<dyn Backend>,
        ])
        .unwrap(),
        RoutePolicy::default(),
    ));
    let tasks: Vec<TaskDescriptor> = items
        .iter()
        .map(|id| TaskDescriptor::CheckPredicate {
            item: *id,
            predicate: "keep".into(),
        })
        .collect();
    // Price the batch at the reference (cheap) schedule — what an engine
    // over the cheap backend alone asks to admit, task by task, against a
    // zero budget — then grant twice that: enough for every call at cheap
    // pricing, nowhere near enough if the 10x backend were to serve them.
    let probe = Engine::new(
        Arc::new(LlmClient::new(Arc::clone(&model))),
        Corpus::from_world(&w, &items),
    )
    .with_budget(Budget::usd(0.0));
    let reference_total: f64 = tasks
        .iter()
        .map(|t| match probe.run(t.clone()) {
            Err(EngineError::BudgetExceeded { needed_usd, .. }) => needed_usd,
            other => panic!("a zero budget admits no call: {other:?}"),
        })
        .sum();
    let engine = Engine::new(Arc::clone(&client), Corpus::from_world(&w, &items))
        .with_budget(Budget::usd(reference_total * 2.0));
    let result = engine.run_many(tasks);
    assert!(
        matches!(result, Err(EngineError::BudgetExceeded { .. })),
        "optimistically-priced admission would blow the cap; got {result:?}"
    );
    assert_eq!(
        engine.budget().spent_usd(),
        0.0,
        "refused before any dispatch"
    );
    assert_eq!(client.ledger().calls(), 0);
}

/// EXPLAIN surfaces the backend roster and which schedule estimates use.
#[test]
fn explain_notes_backend_roster_and_reference_pricing() {
    let (w, items) = flagged_world(12);
    let model = shared_model(&w, 3);
    let session = Session::builder()
        .routing(RoutingConfig::new().backends(vec![
            Arc::new(SimBackend::new("pricey", Arc::clone(&model)).with_price_multiplier(2.0))
                as Arc<dyn Backend>,
            Arc::new(SimBackend::new("bargain", Arc::clone(&model)).with_price_multiplier(0.25))
                as Arc<dyn Backend>,
        ]))
        .corpus(Corpus::from_world(&w, &items))
        .build();
    let plan = session.plan(session.query(&items).filter("keep")).unwrap();
    let note = plan
        .notes()
        .iter()
        .find(|n| n.contains("routing"))
        .expect("routed plans note the backend roster");
    assert!(note.contains("2 backends"), "note: {note}");
    assert!(
        note.contains("'pricey'") && note.contains("'bargain'"),
        "note: {note}"
    );
    assert!(note.contains("cheapest 'bargain'"), "note: {note}");
    assert!(
        plan.explain().contains("routing"),
        "explain renders the note"
    );

    // The engine's reference pricing really is the bargain schedule.
    let reference = session.engine().client().model().pricing();
    assert!((reference.usd_per_1k_input - model.pricing().usd_per_1k_input * 0.25).abs() < 1e-12);
}

/// Builder misuse surfaces as errors, not silent misconfiguration.
#[test]
fn builder_rejects_conflicting_routing_configuration() {
    let (w, _) = flagged_world(1);
    let model = shared_model(&w, 1);
    let backend: Arc<dyn Backend> = Arc::new(SimBackend::new("b", Arc::clone(&model)));
    match Session::builder()
        .client(Arc::new(LlmClient::new(Arc::clone(&model))))
        .routing(RoutingConfig::new().backends(vec![Arc::clone(&backend)]))
        .try_build()
    {
        Err(EngineError::InvalidInput(msg)) => assert!(msg.contains("not both"), "{msg}"),
        other => panic!("expected conflict error, got {:?}", other.map(|_| ())),
    }
    match Session::builder()
        .client(Arc::new(LlmClient::new(model)))
        .routing(RoutingConfig::new().hedge_after(Duration::from_millis(1)))
        .try_build()
    {
        Err(EngineError::InvalidInput(msg)) => assert!(msg.contains("backends"), "{msg}"),
        other => panic!("expected routing-knob error, got {:?}", other.map(|_| ())),
    }
}

/// A tier that bills a few calls and then collapses mid-dispatch must not
/// lose that partial spend from the cascade's outcome meter: the meter
/// stays equal to the sum of the tier ledgers.
#[test]
fn cascade_meter_keeps_partial_spend_of_a_failed_tier() {
    use crowdprompt::oracle::TaskDescriptor;

    /// Succeeds for the first `remaining` calls, then fails transiently
    /// forever — a backend dying mid-burst.
    struct DiesAfter {
        inner: Arc<dyn LanguageModel>,
        remaining: AtomicU32,
    }
    impl Backend for DiesAfter {
        fn id(&self) -> &str {
            "dies-after"
        }
        fn tier(&self) -> &str {
            self.inner.name()
        }
        fn context_window(&self) -> u32 {
            self.inner.context_window()
        }
        fn pricing(&self) -> Pricing {
            self.inner.pricing()
        }
        fn slots(&self) -> usize {
            0
        }
        fn complete(
            &self,
            request: &CompletionRequest,
            _cancel: &CancelToken,
        ) -> Result<CompletionResponse, LlmError> {
            if self
                .remaining
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_err()
            {
                return Err(LlmError::ServiceUnavailable);
            }
            self.inner.complete(request)
        }
    }

    let (w, items) = flagged_world(10);
    // Priced but noiseless: spend is real, answers are world truth.
    let model: Arc<dyn LanguageModel> = Arc::new(SimulatedLlm::new(
        ModelProfile::gpt35_like().with_noise(NoiseProfile::perfect()),
        Arc::new(w.clone()),
        17,
    ));
    let tier0_client = Arc::new(LlmClient::routed(
        BackendRegistry::new(vec![Arc::new(DiesAfter {
            inner: Arc::clone(&model),
            remaining: AtomicU32::new(3),
        }) as Arc<dyn Backend>])
        .unwrap(),
        RoutePolicy {
            max_retries: 0,
            ..RoutePolicy::default()
        },
    ));
    let tier1_client = Arc::new(LlmClient::new(Arc::clone(&model)));
    let tasks: Vec<TaskDescriptor> = items
        .iter()
        .map(|id| TaskDescriptor::CheckPredicate {
            item: *id,
            predicate: "keep".into(),
        })
        .collect();
    let engine_over = |client: &Arc<LlmClient>| {
        crowdprompt::core::Engine::new(Arc::clone(client), Corpus::from_world(&w, &items))
    };
    // Six votes asked of a tier that answers three calls in all: no item
    // can reach the 0.6 margin there, so every item escalates. Outliving
    // the failed votes is the tier engine's degrade policy; under FailFast
    // the tier's error is the cascade's.
    let tier0 = engine_over(&tier0_client).with_failure_policy(FailurePolicy::degrade());
    let tier1 = engine_over(&tier1_client);
    let tiers = |tier0| {
        [
            CascadeTier {
                engine: tier0,
                votes: 6,
                temperature_pct: 100,
            },
            CascadeTier {
                engine: &tier1,
                votes: 1,
                temperature_pct: 0,
            },
        ]
    };
    let out = run_cascade(&tiers(&tier0), tasks.clone(), 0.6).expect("tier 1 answers everything");
    for (i, verdict) in out.value.iter().enumerate() {
        assert_eq!(verdict.deepest_tier, 1);
        assert_eq!(verdict.answer, i % 2 == 0);
    }
    // Tier 0 billed exactly its 3 pre-collapse successes; the meter must
    // include them even though no item settled on them.
    assert_eq!(tier0_client.ledger().calls(), 3);
    assert_eq!(tier1_client.ledger().calls(), 10);
    assert_eq!(out.calls, 13, "meter counts both tiers' billed calls");
    let ledger_total = tier0_client.ledger().spend_usd() + tier1_client.ledger().spend_usd();
    assert!(
        (out.cost_usd - ledger_total).abs() < 1e-9,
        "outcome meter equals the tier ledgers: {} vs {}",
        out.cost_usd,
        ledger_total
    );
    // The backend is spent by now: the same cascade with a fail-fast tier 0
    // returns that tier's error instead of escalating.
    let strict = engine_over(&tier0_client);
    assert!(matches!(
        run_cascade(&tiers(&strict), tasks, 0.6),
        Err(EngineError::Llm(_))
    ));
}

/// A cascade whose cheap tier is completely down (breaker open after
/// repeated failures) escalates to the healthy tier instead of erroring.
#[test]
fn cascade_escalates_over_a_dead_tier() {
    use crowdprompt::oracle::TaskDescriptor;
    let (w, items) = flagged_world(10);
    // A noiseless answer model: the test pins escalation mechanics, not
    // answer accuracy under check noise.
    let model: Arc<dyn LanguageModel> = Arc::new(SimulatedLlm::new(
        ModelProfile::perfect(),
        Arc::new(w.clone()),
        13,
    ));
    let dead_registry = BackendRegistry::new(vec![Arc::new(
        SimBackend::new("dead", Arc::clone(&model))
            .with_transport_noise(NoiseProfile {
                unavailable_prob: 1.0,
                ..NoiseProfile::perfect()
            })
            .with_seed(21),
    ) as Arc<dyn Backend>])
    .unwrap();
    let dead_tier = Arc::new(LlmClient::routed(
        dead_registry,
        RoutePolicy {
            max_retries: 1,
            ..RoutePolicy::default()
        },
    ));
    let healthy_tier = Arc::new(LlmClient::new(Arc::clone(&model)));
    let engine_over = |client: Arc<LlmClient>| {
        crowdprompt::core::Engine::new(client, Corpus::from_world(&w, &items))
    };
    // Escalating past the dead tier is its engine's degrade policy.
    let dead = engine_over(dead_tier).with_failure_policy(FailurePolicy::degrade());
    let healthy = engine_over(healthy_tier);
    let tiers = [&dead, &healthy].map(|engine| CascadeTier {
        engine,
        votes: 1,
        temperature_pct: 0,
    });
    let tasks: Vec<TaskDescriptor> = items
        .iter()
        .map(|id| TaskDescriptor::CheckPredicate {
            item: *id,
            predicate: "keep".into(),
        })
        .collect();
    let out = run_cascade(&tiers, tasks, 0.6).expect("dead tier escalates, not errors");
    for (i, verdict) in out.value.iter().enumerate() {
        assert_eq!(verdict.deepest_tier, 1, "answered by the healthy tier");
        assert_eq!(verdict.answer, i % 2 == 0);
    }
}
