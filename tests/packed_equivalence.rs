//! Packed/per-item equivalence: for every packing-enabled operator ×
//! strategy, execution with multi-item prompt packing must produce
//! bit-identical results to the per-item path, and the operator's reported
//! spend must agree exactly with the client ledger and the budget tracker.
//!
//! The model profile used here answers with *accuracy 1.0* (verdicts are a
//! pure function of the world) while injecting every formatting hazard the
//! extraction layer handles — heavy chatter, the paper's contradictory
//! malformed pattern, and (in the bisection tests) a fault-injecting sim
//! world whose packed numbered lists come back with dropped or duplicated
//! lines. Equality below therefore pins the *packing mechanics* — chunking,
//! multi-answer parsing, bisection, reassembly — independent of model
//! noise. With answer noise, packed answers are draws from the same
//! calibrated distribution but not the same draws; the bisection guarantee
//! is that any pack the parser rejects degrades, item by item, into exactly
//! the per-item requests.
//!
//! Each comparison runs on two *fresh* engines built from the same world
//! and simulator seed, so neither path can borrow the other's cache.

use std::sync::Arc;

use crowdprompt::core::ops;
use crowdprompt::core::ops::impute::LabeledPool;
use crowdprompt::core::{Budget, Corpus, Engine};
use crowdprompt::oracle::model::NoiseProfile;
use crowdprompt::oracle::task::TaskDescriptor;
use crowdprompt::oracle::world::{ItemId, WorldModel};
use crowdprompt::oracle::{LlmClient, ModelProfile, SimulatedLlm};
use crowdprompt::prelude::*;

/// Accuracy-1.0 noise with every formatting hazard turned up.
fn chatty_noise(packed_dropout_rate: f64) -> NoiseProfile {
    NoiseProfile {
        chatter_level: 0.9,
        malformed_rate: 0.3,
        packed_dropout_rate,
        ..NoiseProfile::perfect()
    }
}

fn world(n: usize) -> (WorldModel, Vec<ItemId>) {
    let mut w = WorldModel::new();
    let mut ids = Vec::with_capacity(n);
    for i in 0..n {
        let id = w.add_item(format!(
            "catalog record {i:03} vendor {} lot {}",
            i % 7,
            i % 13
        ));
        w.set_flag(id, "active", i % 2 == 0);
        w.set_flag(id, "rare", i % 5 == 0);
        w.set_attr(id, "label", if i % 3 == 0 { "bulk" } else { "retail" });
        ids.push(id);
    }
    (w, ids)
}

/// A fresh engine over a fresh copy of the world (same seed).
fn engine(n: usize, dropout: f64, pack: usize) -> (Engine, Vec<ItemId>) {
    let (w, ids) = world(n);
    let corpus = Corpus::from_world(&w, &ids);
    let profile = ModelProfile::perfect().with_noise(chatty_noise(dropout));
    let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(w), 42));
    let engine = Engine::new(Arc::new(LlmClient::new(llm)), corpus)
        .with_budget(Budget::Unlimited)
        .with_pack_width(pack);
    (engine, ids)
}

/// The operator's reported accounting must agree exactly with the client
/// ledger and the budget tracker (no double counting across packed
/// dispatches, bisection retries, or singleton fallbacks).
fn assert_spend_attribution<T>(engine: &Engine, out: &crowdprompt::core::Outcome<T>) {
    let ledger = engine.client().ledger();
    assert_eq!(out.calls, ledger.calls(), "outcome calls == ledger calls");
    assert_eq!(
        u64::from(out.usage.total()),
        ledger.total_tokens(),
        "outcome usage == ledger usage"
    );
    assert_eq!(
        engine.budget().spent_tokens(),
        ledger.total_tokens(),
        "budget spend == ledger spend"
    );
}

#[test]
fn packed_filter_single_matches_per_item_at_every_width() {
    let (baseline_engine, ids) = engine(53, 0.0, 1);
    let baseline =
        ops::filter::filter(&baseline_engine, &ids, "active", FilterStrategy::Single).unwrap();
    assert_spend_attribution(&baseline_engine, &baseline);
    for width in [2, 7, 16, 64] {
        let (packed_engine, ids) = engine(53, 0.0, width);
        let packed =
            ops::filter::filter(&packed_engine, &ids, "active", FilterStrategy::Single).unwrap();
        assert_eq!(packed.value, baseline.value, "width {width}");
        assert_eq!(
            packed.calls,
            53u64.div_ceil(width as u64),
            "width {width} call count"
        );
        assert_spend_attribution(&packed_engine, &packed);
    }
}

#[test]
fn packed_majority_vote_matches_per_item() {
    let strategy = FilterStrategy::MajorityVote {
        votes: 5,
        temperature_pct: 70,
    };
    let (baseline_engine, ids) = engine(30, 0.0, 1);
    let baseline = ops::filter::filter(&baseline_engine, &ids, "rare", strategy).unwrap();
    let (packed_engine, ids) = engine(30, 0.0, 8);
    let packed = ops::filter::filter(&packed_engine, &ids, "rare", strategy).unwrap();
    assert_eq!(packed.value, baseline.value);
    // 5 vote rounds of ⌈30/8⌉ packs each.
    assert_eq!(packed.calls, 5 * 4);
    assert_spend_attribution(&packed_engine, &packed);
}

#[test]
fn confidence_gated_filter_ignores_the_pack_knob() {
    let strategy = FilterStrategy::ConfidenceGated {
        min_confidence_pct: 65,
        votes: 3,
    };
    let (baseline_engine, ids) = engine(24, 0.0, 1);
    let baseline = ops::filter::filter(&baseline_engine, &ids, "active", strategy).unwrap();
    let (packed_engine, ids) = engine(24, 0.0, 8);
    let gated = ops::filter::filter(&packed_engine, &ids, "active", strategy).unwrap();
    assert_eq!(gated.value, baseline.value);
    assert_eq!(
        gated.calls, baseline.calls,
        "the gate consumes per-answer confidence and must never pack"
    );
}

#[test]
fn forced_bisection_degrades_to_exactly_the_per_item_path() {
    // Every multi-item pack comes back unparseable: the dispatcher must
    // bisect down to singletons, whose requests *are* the per-item path's.
    let (baseline_engine, ids) = engine(37, 0.0, 1);
    let baseline =
        ops::filter::filter(&baseline_engine, &ids, "active", FilterStrategy::Single).unwrap();
    let (packed_engine, ids) = engine(37, 1.0, 16);
    let packed =
        ops::filter::filter(&packed_engine, &ids, "active", FilterStrategy::Single).unwrap();
    assert_eq!(packed.value, baseline.value);
    assert!(
        packed.calls > 37,
        "failed packs plus singleton retries exceed n, got {}",
        packed.calls
    );
    assert_spend_attribution(&packed_engine, &packed);
}

#[test]
fn partial_dropout_still_reassembles_identically() {
    let (baseline_engine, ids) = engine(61, 0.0, 1);
    let baseline =
        ops::filter::filter(&baseline_engine, &ids, "active", FilterStrategy::Single).unwrap();
    // Half the packs fail and bisect; results must be unchanged.
    let (packed_engine, ids) = engine(61, 0.5, 8);
    let packed =
        ops::filter::filter(&packed_engine, &ids, "active", FilterStrategy::Single).unwrap();
    assert_eq!(packed.value, baseline.value);
    assert_spend_attribution(&packed_engine, &packed);
}

#[test]
fn packed_count_matches_per_item() {
    let (baseline_engine, ids) = engine(47, 0.0, 1);
    let baseline =
        ops::count::count(&baseline_engine, &ids, "rare", CountStrategy::PerItem).unwrap();
    let (packed_engine, ids) = engine(47, 0.3, 16);
    let packed = ops::count::count(&packed_engine, &ids, "rare", CountStrategy::PerItem).unwrap();
    assert_eq!(packed.value, baseline.value);
    assert_spend_attribution(&packed_engine, &packed);

    // Eyeball batches are already one-prompt-per-batch: the knob is inert.
    let (a, ids) = engine(40, 0.0, 1);
    let (b, ids_b) = engine(40, 0.0, 16);
    assert_eq!(ids, ids_b);
    let strategy = CountStrategy::Eyeball { batch_size: 10 };
    let coarse_a = ops::count::count(&a, &ids, "rare", strategy).unwrap();
    let coarse_b = ops::count::count(&b, &ids, "rare", strategy).unwrap();
    assert_eq!(coarse_a.value, coarse_b.value);
    assert_eq!(coarse_a.calls, coarse_b.calls);
}

#[test]
fn packed_categorize_matches_per_item() {
    let labels = vec!["bulk".to_owned(), "retail".to_owned()];
    let (baseline_engine, ids) = engine(44, 0.0, 1);
    let baseline = ops::categorize::categorize(&baseline_engine, &ids, &labels).unwrap();
    let (packed_engine, ids) = engine(44, 0.4, 12);
    let packed = ops::categorize::categorize(&packed_engine, &ids, &labels).unwrap();
    assert_eq!(packed.value, baseline.value);
    assert_spend_attribution(&packed_engine, &packed);
}

#[test]
fn packed_keep_label_plan_matches_per_item_plan() {
    let labels = vec!["bulk".to_owned(), "retail".to_owned()];
    let run_with = |pack: usize, dropout: f64| {
        let (engine, ids) = engine(36, dropout, pack);
        let run = Query::over(&ids)
            .keep_label(labels.clone(), "bulk")
            .plan_on(&engine)
            .unwrap()
            .execute_on(&engine)
            .unwrap();
        run.output.items().unwrap().to_vec()
    };
    let baseline = run_with(1, 0.0);
    assert_eq!(run_with(9, 0.0), baseline);
    assert_eq!(run_with(9, 1.0), baseline, "forced bisection");
}

/// Records in two well-separated text clusters plus ambiguous strays, for
/// the impute strategies.
fn impute_world() -> (WorldModel, Vec<ItemId>, Vec<(ItemId, String)>) {
    let mut w = WorldModel::new();
    let mut ids = Vec::new();
    let mut labeled = Vec::new();
    for i in 0..10 {
        let id = w.add_item(format!("mission taqueria {i}; street valencia; area 415"));
        w.set_attr(id, "city", "san francisco");
        labeled.push((id, "san francisco".to_owned()));
        ids.push(id);
    }
    for i in 0..10 {
        let id = w.add_item(format!("shattuck bistro {i}; street shattuck; area 510"));
        w.set_attr(id, "city", "berkeley");
        labeled.push((id, "berkeley".to_owned()));
        ids.push(id);
    }
    for i in 0..6 {
        let id = w.add_item(format!("corner diner {i}; street main"));
        let city = if i % 2 == 0 {
            "san francisco"
        } else {
            "berkeley"
        };
        w.set_attr(id, "city", city);
        ids.push(id);
    }
    (w, ids, labeled)
}

#[test]
fn packed_impute_matches_per_item_for_llm_and_hybrid() {
    let build = |pack: usize, dropout: f64| {
        let (w, ids, labeled) = impute_world();
        let corpus = Corpus::from_world(&w, &ids);
        let profile = ModelProfile::perfect().with_noise(chatty_noise(dropout));
        let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(w), 13));
        let engine = Engine::new(Arc::new(LlmClient::new(llm)), corpus)
            .with_budget(Budget::Unlimited)
            .with_pack_width(pack);
        (engine, ids, labeled)
    };
    for strategy in [
        ImputeStrategy::LlmOnly { shots: 0 },
        ImputeStrategy::LlmOnly { shots: 3 },
        ImputeStrategy::Hybrid { k: 3, shots: 2 },
    ] {
        let (baseline_engine, ids, labeled) = build(1, 0.0);
        let pool = LabeledPool::build(&baseline_engine, &labeled).unwrap();
        let baseline =
            ops::impute::impute(&baseline_engine, &ids, "city", &pool, &strategy).unwrap();

        let (packed_engine, ids, labeled) = build(8, 0.4);
        let pool = LabeledPool::build(&packed_engine, &labeled).unwrap();
        let packed = ops::impute::impute(&packed_engine, &ids, "city", &pool, &strategy).unwrap();
        assert_eq!(packed.value, baseline.value, "{strategy:?}");
        assert!(
            packed.calls <= baseline.calls,
            "{strategy:?}: packing must not add calls ({} vs {})",
            packed.calls,
            baseline.calls
        );
        assert_spend_attribution(&packed_engine, &packed);
    }
}

#[test]
fn packed_session_spends_less_for_the_same_answer() {
    let (per_item_engine, ids) = engine(64, 0.0, 1);
    let per_item =
        ops::filter::filter(&per_item_engine, &ids, "active", FilterStrategy::Single).unwrap();
    let (packed_engine, ids) = engine(64, 0.0, 16);
    let packed =
        ops::filter::filter(&packed_engine, &ids, "active", FilterStrategy::Single).unwrap();
    assert_eq!(packed.value, per_item.value);
    assert!(
        packed.calls * 4 <= per_item.calls,
        "≥4x call reduction: {} vs {}",
        packed.calls,
        per_item.calls
    );
    assert!(
        packed.usage.prompt_tokens < per_item.usage.prompt_tokens,
        "shared instruction prefix amortizes: {} vs {}",
        packed.usage.prompt_tokens,
        per_item.usage.prompt_tokens
    );
}

/// A fresh priced engine (so `spend_usd` is non-trivial) over the healthy
/// accuracy-1.0 world, under the given failure policy.
fn policy_engine(n: usize, pack: usize, policy: FailurePolicy) -> (Engine, Vec<ItemId>) {
    let (w, ids) = world(n);
    let corpus = Corpus::from_world(&w, &ids);
    let profile = ModelProfile::gpt35_like().with_noise(chatty_noise(0.0));
    let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(w), 42));
    let engine = Engine::new(Arc::new(LlmClient::new(llm)), corpus)
        .with_pack_width(pack)
        .with_failure_policy(policy);
    (engine, ids)
}

/// The failure policy is data, not a second implementation: on a healthy
/// world every packable operator × strategy × width returns the same value
/// from the same calls at the same spend, bit for bit, whether the engine
/// fails fast or degrades.
#[test]
fn failure_policy_is_invisible_on_a_healthy_world() {
    type Run = Box<dyn Fn(&Engine, &[ItemId]) -> String>;
    type Case = (&'static str, Run);
    let labels = vec!["bulk".to_owned(), "retail".to_owned()];
    let vote = FilterStrategy::MajorityVote {
        votes: 3,
        temperature_pct: 70,
    };
    let gated = FilterStrategy::ConfidenceGated {
        min_confidence_pct: 65,
        votes: 3,
    };
    let sequential = FilterStrategy::Sequential {
        lead: 2,
        max_votes: 5,
        temperature_pct: 70,
    };
    let proxy = FilterStrategy::ProxyGated {
        train: 10,
        min_confidence_pct: 5,
    };
    let verified = FilterStrategy::Verified { max_rounds: 3 };
    let filter_case = |strategy: FilterStrategy| -> Run {
        Box::new(move |e, ids| {
            format!(
                "{:?}",
                ops::filter::filter(e, ids, "rare", strategy).unwrap()
            )
        })
    };
    let count_case = |strategy: CountStrategy| -> Run {
        Box::new(move |e, ids| {
            format!("{:?}", ops::count::count(e, ids, "rare", strategy).unwrap())
        })
    };
    let (categorize_labels, keep_labels) = (labels.clone(), labels);
    let cases: Vec<Case> = vec![
        ("filter/single", filter_case(FilterStrategy::Single)),
        ("filter/majority-vote", filter_case(vote)),
        ("filter/confidence-gated", filter_case(gated)),
        ("filter/sequential", filter_case(sequential)),
        ("filter/proxy-gated", filter_case(proxy)),
        ("filter/verified", filter_case(verified)),
        ("count/per-item", count_case(CountStrategy::PerItem)),
        (
            "count/eyeball",
            count_case(CountStrategy::Eyeball { batch_size: 10 }),
        ),
        (
            "categorize",
            Box::new(move |e, ids| {
                format!(
                    "{:?}",
                    ops::categorize::categorize(e, ids, &categorize_labels).unwrap()
                )
            }),
        ),
        (
            "keep-label",
            Box::new(move |e, ids| {
                let run = Query::over(ids)
                    .keep_label(keep_labels.clone(), "bulk")
                    .plan_on(e)
                    .unwrap()
                    .execute_on(e)
                    .unwrap();
                format!("{:?} in {} calls", run.output, run.total_calls())
            }),
        ),
    ];
    let policies = [
        FailurePolicy::FailFast,
        FailurePolicy::Degrade { max_attempts: 1 },
        FailurePolicy::Degrade { max_attempts: 3 },
    ];
    for (name, case) in &cases {
        for pack in [1, 8] {
            let observed: Vec<(String, u64, u64)> = policies
                .iter()
                .map(|&policy| {
                    let (engine, ids) = policy_engine(30, pack, policy);
                    let value = case(&engine, &ids);
                    let ledger = engine.client().ledger();
                    (value, ledger.calls(), ledger.spend_usd().to_bits())
                })
                .collect();
            assert_eq!(observed[0], observed[1], "{name} pack {pack}: degrade-1");
            assert_eq!(observed[0], observed[2], "{name} pack {pack}: degrade-3");
            if *name == "filter/majority-vote" && pack == 8 {
                // Vote rounds pack under every policy: 3 rounds of ⌈30/8⌉.
                assert_eq!(observed[0].1, 3 * 4, "{name} pack {pack}");
            }
        }
    }

    // Impute needs its own labeled world.
    for strategy in [
        ImputeStrategy::LlmOnly { shots: 2 },
        ImputeStrategy::Hybrid { k: 3, shots: 2 },
    ] {
        for pack in [1, 8] {
            let observed: Vec<(Vec<String>, u64, u64)> = policies
                .iter()
                .map(|&policy| {
                    let (w, ids, labeled) = impute_world();
                    let corpus = Corpus::from_world(&w, &ids);
                    let profile = ModelProfile::gpt35_like().with_noise(chatty_noise(0.0));
                    let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(w), 13));
                    let engine = Engine::new(Arc::new(LlmClient::new(llm)), corpus)
                        .with_pack_width(pack)
                        .with_failure_policy(policy);
                    let pool = LabeledPool::build(&engine, &labeled).unwrap();
                    let out = ops::impute::impute(&engine, &ids, "city", &pool, &strategy).unwrap();
                    let ledger = engine.client().ledger();
                    (out.value, ledger.calls(), ledger.spend_usd().to_bits())
                })
                .collect();
            assert_eq!(observed[0], observed[1], "{strategy:?} pack {pack}");
            assert_eq!(observed[0], observed[2], "{strategy:?} pack {pack}");
        }
    }
}

/// Eight check tasks over a world whose items 2 and 5 are too long for the
/// model's context window (a hard, non-retryable dispatch failure).
fn poisoned_engine(policy: FailurePolicy) -> (Engine, Vec<TaskDescriptor>) {
    let mut w = WorldModel::new();
    let ids: Vec<ItemId> = (0..8)
        .map(|i| {
            let text = if i == 2 || i == 5 {
                format!("oversize record {i} {}", "lorem ipsum ".repeat(200))
            } else {
                format!("record {i}")
            };
            let id = w.add_item(text);
            w.set_flag(id, "active", i % 2 == 0);
            id
        })
        .collect();
    let corpus = Corpus::from_world(&w, &ids);
    let profile = ModelProfile::gpt35_like()
        .with_noise(NoiseProfile::perfect())
        .with_context_window(200);
    let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(w), 7));
    let engine = Engine::new(Arc::new(LlmClient::new(llm)), corpus)
        .with_parallelism(1)
        .with_failure_policy(policy);
    let tasks = ids
        .iter()
        .map(|&item| TaskDescriptor::CheckPredicate {
            item,
            predicate: "active".to_owned(),
        })
        .collect();
    (engine, tasks)
}

#[test]
fn run_outcome_fails_fast_or_quarantines_as_the_policy_says() {
    use crowdprompt::oracle::LlmError;
    let overflow_of = |e: &EngineError| match e {
        EngineError::Llm(LlmError::ContextOverflow { prompt_tokens, .. }) => *prompt_tokens,
        other => panic!("expected context overflow, got {other:?}"),
    };

    // FailFast: the first hard error in input order, exactly as run_many.
    let (strict, tasks) = poisoned_engine(FailurePolicy::FailFast);
    let via_run_many = strict.run_many(tasks.clone()).unwrap_err();
    let (engine, tasks) = poisoned_engine(FailurePolicy::FailFast);
    let via_outcome = engine.run_outcome(RunSpec::tasks(tasks)).unwrap_err();
    assert_eq!(overflow_of(&via_outcome), overflow_of(&via_run_many));
    assert_eq!(
        engine.client().ledger().calls(),
        2,
        "items 0 and 1 ran, item 2 stopped the batch"
    );
    assert_eq!(
        engine.budget().spent_usd().to_bits(),
        strict.budget().spent_usd().to_bits()
    );

    // A task that does not render fails the batch before anything is
    // dispatched, whatever the parallelism — and it is the *first* one.
    let (engine, mut tasks) = poisoned_engine(FailurePolicy::FailFast);
    let engine = engine.with_parallelism(8);
    for (slot, ghost) in [(3, 9003), (6, 9006)] {
        tasks[slot] = TaskDescriptor::CheckPredicate {
            item: ItemId(ghost),
            predicate: "active".to_owned(),
        };
    }
    match engine.run_outcome(RunSpec::tasks(tasks)) {
        Err(EngineError::UnknownItem(id)) => assert_eq!(id, ItemId(9003)),
        other => panic!("expected the first unknown item, got {other:?}"),
    }
    assert_eq!(engine.client().ledger().calls(), 0);

    // Degrade: the same faulty batch quarantines exactly the failing
    // indices, each with its error chain, and completes the rest.
    let (engine, tasks) = poisoned_engine(FailurePolicy::Degrade { max_attempts: 3 });
    let outcome = engine.run_outcome(RunSpec::tasks(tasks)).unwrap();
    let quarantined: Vec<usize> = outcome.quarantined.iter().map(|q| q.index).collect();
    assert_eq!(quarantined, vec![2, 5]);
    for q in &outcome.quarantined {
        assert_eq!(q.errors.len(), 1, "an overflow is not retryable");
        overflow_of(&q.errors[0]);
        assert!(outcome.answers[q.index].is_err());
    }
    assert_eq!(outcome.ok_count(), 6);
    assert_eq!(outcome.responses.len(), 6);
    assert_eq!(engine.client().ledger().calls(), 6);
}

#[test]
fn over_budget_task_batch_is_refused_whole_under_fail_fast() {
    let tight = |policy: FailurePolicy| {
        let (engine, ids) = policy_engine(30, 1, policy);
        let tasks: Vec<TaskDescriptor> = ids
            .iter()
            .map(|&item| TaskDescriptor::CheckPredicate {
                item,
                predicate: "active".to_owned(),
            })
            .collect();
        (engine.with_budget(Budget::usd(0.0002)), tasks)
    };
    // FailFast: the cumulative estimate cannot fit, so nothing is dispatched
    // — by run_outcome exactly as by run_many.
    for via_outcome in [false, true] {
        let (engine, tasks) = tight(FailurePolicy::FailFast);
        let result = if via_outcome {
            engine.run_outcome(RunSpec::tasks(tasks)).map(|_| ())
        } else {
            engine.run_many(tasks).map(|_| ())
        };
        assert!(
            matches!(result, Err(EngineError::BudgetExceeded { .. })),
            "expected a whole-batch refusal, got {result:?}"
        );
        assert_eq!(engine.client().ledger().calls(), 0);
        assert_eq!(engine.budget().spent_usd(), 0.0);
    }
    // Degrade: what fits runs; the rest is quarantined as over budget.
    let (engine, tasks) = tight(FailurePolicy::Degrade { max_attempts: 2 });
    let outcome = engine.run_outcome(RunSpec::tasks(tasks)).unwrap();
    assert!(outcome.ok_count() > 0 && !outcome.is_complete());
    for q in &outcome.quarantined {
        assert!(matches!(
            q.errors.last(),
            Some(EngineError::BudgetExceeded { .. })
        ));
    }
    assert_eq!(engine.client().ledger().calls(), outcome.ok_count() as u64);
}
