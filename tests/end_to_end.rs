//! End-to-end integration tests: every declarative operator run through the
//! public `crowdprompt` facade against seeded workloads.

use std::sync::Arc;

use crowdprompt::core::ops::count::CountStrategy;
use crowdprompt::core::ops::filter::FilterStrategy;
use crowdprompt::core::ops::max::MaxStrategy;
use crowdprompt::data::FlavorDataset;
use crowdprompt::metrics::rank::kendall_tau_b_rankings;
use crowdprompt::oracle::world::{ItemId, WorldModel};
use crowdprompt::prelude::*;

fn flavor_session(seed: u64) -> (Session, FlavorDataset) {
    let data = FlavorDataset::paper(seed);
    let llm = SimulatedLlm::new(
        ModelProfile::gpt35_like(),
        Arc::new(data.world.clone()),
        seed,
    );
    let session = Session::builder()
        .client(Arc::new(LlmClient::new(Arc::new(llm))))
        .corpus(Corpus::from_world(&data.world, &data.items))
        .budget(Budget::usd(5.0))
        .criterion("by how chocolatey they are")
        .seed(seed)
        .build();
    (session, data)
}

/// Plan and run `query`, as one cost-annotated outcome.
fn run<T>(
    session: &Session,
    query: Query,
    value: impl FnOnce(PlanOutput) -> T,
) -> Result<Outcome<T>, EngineError> {
    let run = session.plan(query).and_then(|plan| plan.execute(session))?;
    Ok(run.into_outcome(value))
}

/// Sort every item by latent score under `strategy`.
fn sort(
    session: &Session,
    items: &[ItemId],
    strategy: &SortStrategy,
) -> Result<Outcome<SortResult>, EngineError> {
    let query = session
        .query(items)
        .sort_with(SortCriterion::LatentScore, strategy.clone());
    run(session, query, |out| match out {
        PlanOutput::Sorted(sorted) => sorted,
        other => panic!("a sort node returns its sort result, got {other:?}"),
    })
}

#[test]
fn sort_all_strategies_return_permutations() {
    let (session, data) = flavor_session(1);
    for strategy in [
        SortStrategy::SinglePrompt,
        SortStrategy::Pairwise,
        SortStrategy::Rating {
            scale_min: 1,
            scale_max: 7,
        },
        SortStrategy::SortThenInsert,
        SortStrategy::BucketThenCompare { buckets: 4 },
    ] {
        let out = sort(&session, &data.items, &strategy)
            .unwrap_or_else(|e| panic!("{strategy:?} failed: {e}"));
        let mut sorted = out.value.order.clone();
        sorted.sort_unstable();
        let mut expected = data.items.clone();
        expected.sort_unstable();
        assert_eq!(sorted, expected, "{strategy:?} must permute the input");
        // Cost accounting is populated for LLM strategies.
        assert!(out.usage.total() > 0);
    }
}

#[test]
fn sort_quality_is_positive_for_all_strategies() {
    let (session, data) = flavor_session(2);
    for strategy in [
        SortStrategy::SinglePrompt,
        SortStrategy::Pairwise,
        SortStrategy::Rating {
            scale_min: 1,
            scale_max: 7,
        },
    ] {
        let out = sort(&session, &data.items, &strategy).unwrap();
        let tau = kendall_tau_b_rankings(&out.value.order, &data.gold).unwrap();
        assert!(tau > 0.2, "{strategy:?} tau {tau} too low");
    }
}

#[test]
fn filter_count_categorize_max_topk_cluster_roundtrip() {
    // One world exercising several operators.
    let mut w = WorldModel::new();
    let labels = vec!["hot".to_owned(), "cold".to_owned()];
    let items: Vec<ItemId> = (0..24)
        .map(|i| {
            let id = w.add_item(format!("dish number {i:02}"));
            w.set_score(id, i as f64 / 24.0);
            w.set_flag(id, "spicy", i % 3 == 0);
            w.set_attr(id, "label", if i < 12 { "hot" } else { "cold" });
            w.set_cluster(id, u64::from(i % 4 == 0)); // two clusters
            id
        })
        .collect();
    let llm = SimulatedLlm::new(ModelProfile::perfect(), Arc::new(w.clone()), 3);
    let session = Session::builder()
        .client(Arc::new(LlmClient::new(Arc::new(llm))))
        .corpus(Corpus::from_world(&w, &items))
        .criterion("by heat")
        .build();

    let query = session.query(&items);
    let kept = run(
        &session,
        query.clone().filter_with("spicy", FilterStrategy::Single),
        |o| o.into_items().unwrap(),
    )
    .unwrap();
    assert_eq!(kept.value.len(), 8);

    let n = run(
        &session,
        query.clone().count_with("spicy", CountStrategy::PerItem),
        |o| o.count().unwrap(),
    )
    .unwrap();
    assert_eq!(n.value, 8);

    let cats = run(&session, query.clone().categorize(labels), |o| {
        o.labels().unwrap().to_vec()
    })
    .unwrap();
    assert_eq!(cats.value.iter().filter(|l| *l == "hot").count(), 12);

    let max = run(
        &session,
        query
            .clone()
            .max_with(SortCriterion::LatentScore, MaxStrategy::Tournament),
        |o| o.max_item().unwrap(),
    )
    .unwrap();
    assert_eq!(max.value, items[23]);

    let top = run(
        &session,
        query.clone().top_k_with(SortCriterion::LatentScore, 3, 3),
        |o| o.into_items().unwrap(),
    )
    .unwrap();
    assert_eq!(top.value, vec![items[23], items[22], items[21]]);

    let clusters = run(&session, query.cluster_exhaustive(8), |o| {
        o.groups().unwrap().to_vec()
    })
    .unwrap();
    let total: usize = clusters.value.iter().map(Vec::len).sum();
    assert_eq!(total, items.len());
    assert_eq!(clusters.value.len(), 2);
}

#[test]
fn budget_is_shared_across_operations() {
    let (session, data) = flavor_session(3);
    let before = session.spent_usd();
    sort(&session, &data.items, &SortStrategy::SinglePrompt).unwrap();
    let mid = session.spent_usd();
    assert!(mid > before);
    sort(
        &session,
        &data.items,
        &SortStrategy::Rating {
            scale_min: 1,
            scale_max: 7,
        },
    )
    .unwrap();
    assert!(session.spent_usd() > mid);
}

#[test]
fn tight_budget_rejects_expensive_strategy_but_allows_cheap_one() {
    let data = FlavorDataset::paper(4);
    let llm = SimulatedLlm::new(ModelProfile::gpt35_like(), Arc::new(data.world.clone()), 4);
    let session = Session::builder()
        .client(Arc::new(LlmClient::new(Arc::new(llm))))
        .corpus(Corpus::from_world(&data.world, &data.items))
        // Enough for one list prompt, nowhere near enough for 190 pairwise.
        .budget(Budget::usd(0.001))
        .criterion("by how chocolatey they are")
        .build();
    let cheap = sort(&session, &data.items, &SortStrategy::SinglePrompt);
    assert!(cheap.is_ok(), "single prompt should fit: {cheap:?}");
    let expensive = sort(&session, &data.items, &SortStrategy::Pairwise);
    assert!(
        matches!(expensive, Err(EngineError::BudgetExceeded { .. })),
        "pairwise should exceed the leftover budget: {expensive:?}"
    );
}

#[test]
fn deterministic_given_seed() {
    let run = || {
        let (session, data) = flavor_session(9);
        let out = sort(&session, &data.items, &SortStrategy::Pairwise).unwrap();
        (out.value.order.clone(), out.usage)
    };
    assert_eq!(run(), run());
}
