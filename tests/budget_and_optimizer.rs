//! Integration tests for budget enforcement and automatic strategy
//! selection through the public facade.

use std::sync::Arc;

use crowdprompt::core::optimize::{evaluate_sort_strategies, pareto_frontier, recommend};
use crowdprompt::data::FlavorDataset;
use crowdprompt::oracle::world::ItemId;
use crowdprompt::prelude::*;

fn session_with_budget(budget: Budget, seed: u64) -> (Session, FlavorDataset) {
    let data = FlavorDataset::sample(30, seed);
    let llm = SimulatedLlm::new(
        ModelProfile::gpt35_like(),
        Arc::new(data.world.clone()),
        seed,
    );
    let session = Session::builder()
        .client(Arc::new(LlmClient::new(Arc::new(llm))))
        .corpus(Corpus::from_world(&data.world, &data.items))
        .budget(budget)
        .criterion("by how chocolatey they are")
        .seed(seed)
        .build();
    (session, data)
}

/// Plan and run a sort of every item under `strategy`.
fn sort(
    session: &Session,
    items: &[ItemId],
    strategy: SortStrategy,
) -> Result<PlanRun, EngineError> {
    let query = session
        .query(items)
        .sort_with(SortCriterion::LatentScore, strategy);
    session.plan(query).and_then(|plan| plan.execute(session))
}

#[test]
fn token_budget_is_enforced_end_to_end() {
    let (session, data) = session_with_budget(Budget::tokens(500), 1);
    // A 30-item pairwise sort needs hundreds of calls; 500 tokens cannot
    // cover it.
    let result = sort(&session, &data.items, SortStrategy::Pairwise);
    assert!(matches!(result, Err(EngineError::BudgetExceeded { .. })));
    // The tracker never exceeds the cap.
    assert!(session.engine().budget().spent_tokens() <= 500);
}

#[test]
fn usd_budget_partial_progress_then_refusal() {
    let (session, data) = session_with_budget(Budget::usd(0.004), 2);
    // Cheap operation fits...
    sort(&session, &data.items, SortStrategy::SinglePrompt).expect("cheap op fits");
    let spent_after_first = session.spent_usd();
    assert!(spent_after_first > 0.0);
    // ...until the budget runs dry on repeated expensive work.
    let mut refused = false;
    for _ in 0..50 {
        // Different strategies to avoid the response cache making calls free.
        if sort(
            &session,
            &data.items,
            SortStrategy::Rating {
                scale_min: 1,
                scale_max: 7,
            },
        )
        .is_err()
        {
            refused = true;
            break;
        }
    }
    assert!(refused, "budget should eventually refuse");
    assert!(
        session.spent_usd() <= 0.004 + 0.001,
        "overshoot bounded by one call"
    );
}

#[test]
fn optimizer_trials_reflect_cost_structure() {
    let (session, data) = session_with_budget(Budget::Unlimited, 3);
    let sample: Vec<_> = data.items.iter().take(10).copied().collect();
    let gold = data.world.gold_ranking_by_score(&sample);
    let candidates = vec![
        SortStrategy::SinglePrompt,
        SortStrategy::Rating {
            scale_min: 1,
            scale_max: 7,
        },
        SortStrategy::Pairwise,
    ];
    let trials = evaluate_sort_strategies(
        session.engine(),
        &sample,
        &gold,
        SortCriterion::LatentScore,
        &candidates,
    )
    .unwrap();
    assert_eq!(trials.len(), 3);
    // Cost ordering on the sample: pairwise > rating > single prompt.
    assert!(trials[2].sample_tokens > trials[1].sample_tokens);
    assert!(trials[1].sample_tokens > trials[0].sample_tokens);
    // Exponents drive extrapolation.
    assert_eq!(SortStrategy::Pairwise.cost_exponent(), 2);
    assert_eq!(SortStrategy::SinglePrompt.cost_exponent(), 1);
    let pairwise = &trials[2];
    let at_100 = pairwise.extrapolated_cost(10, 100);
    assert!(
        at_100 > pairwise.sample_cost_usd * 50.0,
        "quadratic blow-up expected"
    );
}

#[test]
fn recommendation_degrades_gracefully_with_budget() {
    let (session, data) = session_with_budget(Budget::Unlimited, 4);
    let sample: Vec<_> = data.items.iter().take(10).copied().collect();
    let gold = data.world.gold_ranking_by_score(&sample);
    let candidates = vec![SortStrategy::SinglePrompt, SortStrategy::Pairwise];
    let trials = evaluate_sort_strategies(
        session.engine(),
        &sample,
        &gold,
        SortCriterion::LatentScore,
        &candidates,
    )
    .unwrap();
    // Generous budget: the more accurate strategy (pairwise here, given
    // the gpt35 noise profile) is chosen.
    let rich = recommend(&trials, 10, 1000, 1e6).unwrap();
    let best_tau = trials
        .iter()
        .map(|t| t.accuracy)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!((rich.accuracy - best_tau).abs() < 1e-9);
    // Starvation budget: the cheapest extrapolated strategy is returned.
    let poor = recommend(&trials, 10, 1000, 1e-9).unwrap();
    assert_eq!(poor.name, "single-prompt");
    // The frontier never contains a strictly dominated strategy.
    let frontier = pareto_frontier(&trials);
    for f in &frontier {
        assert!(!trials
            .iter()
            .any(|t| { t.accuracy > f.accuracy && t.sample_cost_usd < f.sample_cost_usd }));
    }
}
