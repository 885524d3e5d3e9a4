//! Integration tests for budget enforcement and automatic strategy
//! selection through the public facade.

use std::sync::Arc;

use crowdprompt::core::optimize::{evaluate_sort_strategies, pareto_frontier};
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
    for scale_max in 7..57 {
        // A different scale each time, so every run's prompts are new: a
        // cache hit is free and admitted whatever is left.
        if sort(
            &session,
            &data.items,
            SortStrategy::Rating {
                scale_min: 1,
                scale_max,
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

/// Plan `sort().calibrate_sort(..)` of the first `rows` items of seed
/// `seed`'s data on a fresh session capped at `budget`, calibrated on the
/// first ten.
fn calibrated_sort(budget: Budget, seed: u64, rows: usize) -> (Session, Plan) {
    let (session, data) = session_with_budget(budget, seed);
    let items = &data.items[..rows];
    let sample = &items[..10];
    let gold = data.world.gold_ranking_by_score(sample);
    let query = session
        .query(items)
        .sort(SortCriterion::LatentScore)
        .calibrate_sort(sample, &gold);
    let plan = session.plan(query).expect("the trials fit the budget");
    (session, plan)
}

/// What `calibrated_sort`'s trials spend: they run alike under every
/// budget that admits them.
fn trial_spend(seed: u64, rows: usize) -> f64 {
    calibrated_sort(Budget::Unlimited, seed, rows).0.spent_usd()
}

/// The estimate of the plan that pins `strategy` for the same items.
fn pinned_estimate(strategy: &SortStrategy, seed: u64, rows: usize) -> f64 {
    let (session, data) = session_with_budget(Budget::Unlimited, seed);
    let query = session
        .query(&data.items[..rows])
        .sort_with(SortCriterion::LatentScore, strategy.clone());
    session.plan(query).unwrap().estimated_cost_usd()
}

/// The strategy a one-node plan runs.
fn chosen(plan: &Plan) -> String {
    plan.nodes()[0].node.strategy_label()
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
}

#[test]
fn calibrated_sort_chooses_by_the_bill_it_runs_under() {
    let seed = 6;
    let trials = trial_spend(seed, 12);
    // $0.0075 left after the trials. Pairwise, the most accurate trial,
    // bills more than that for twelve rows, though its ten-item sample
    // cost scaled by (12/10)^2 would fit.
    let left = 0.0075;
    assert!(pinned_estimate(&SortStrategy::Pairwise, seed, 12) > left);
    let (session, plan) = calibrated_sort(Budget::usd(trials + left), seed, 12);
    assert!((session.spent_usd() - trials).abs() < 1e-12);
    assert!(
        plan.estimated_cost_usd() <= left,
        "{} estimated at ${:.5} with ${left} left",
        chosen(&plan),
        plan.estimated_cost_usd()
    );
    plan.execute(&session)
        .expect("a plan that fits its budget runs");

    // Whenever some candidate's pinned plan fits what the trials leave,
    // so does the calibrated plan.
    // The strategies the planner tries on a twelve-row sort.
    let candidates = [
        SortStrategy::Pairwise,
        SortStrategy::SinglePrompt,
        SortStrategy::Rating {
            scale_min: 1,
            scale_max: 7,
        },
    ];
    let pinned: Vec<f64> = candidates
        .iter()
        .map(|strategy| pinned_estimate(strategy, seed, 12))
        .collect();
    for left in [0.0005, 0.001, 0.002, 0.005, 0.0075, 0.01] {
        let (_, plan) = calibrated_sort(Budget::usd(trials + left), seed, 12);
        if pinned.iter().any(|cost| *cost <= left) {
            assert!(
                plan.estimated_cost_usd() <= left,
                "${left} left: {} estimated at ${:.5}",
                chosen(&plan),
                plan.estimated_cost_usd()
            );
        }
    }
}

#[test]
fn recommendation_degrades_gracefully_with_budget() {
    let (seed, rows) = (4, 30);
    let (session, data) = session_with_budget(Budget::Unlimited, seed);
    let sample: Vec<_> = data.items.iter().take(10).copied().collect();
    let gold = data.world.gold_ranking_by_score(&sample);
    // The strategies the planner tries on a thirty-row sort.
    let candidates = [
        SortStrategy::SinglePrompt,
        SortStrategy::Rating {
            scale_min: 1,
            scale_max: 7,
        },
    ];
    let trials = evaluate_sort_strategies(
        session.engine(),
        &sample,
        &gold,
        SortCriterion::LatentScore,
        &candidates,
    )
    .unwrap();
    // Generous budget: the most accurate trial's strategy is chosen.
    let (_, rich) = calibrated_sort(Budget::usd(1.0), seed, rows);
    let best_tau = trials
        .iter()
        .map(|t| t.accuracy)
        .fold(f64::NEG_INFINITY, f64::max);
    let rich_trial = trials.iter().find(|t| t.name == chosen(&rich)).unwrap();
    assert!((rich_trial.accuracy - best_tau).abs() < 1e-9);
    // Starvation budget: the trials are admitted, but no candidate's
    // pinned plan fits what they leave, and the cheapest is chosen.
    let left = 0.0005;
    let pinned: Vec<f64> = candidates
        .iter()
        .map(|strategy| pinned_estimate(strategy, seed, rows))
        .collect();
    assert!(pinned.iter().all(|cost| *cost > left));
    let (_, poor) = calibrated_sort(Budget::usd(trial_spend(seed, rows) + left), seed, rows);
    let cheapest = pinned
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| candidates[i].name());
    assert_eq!(Some(chosen(&poor)), cheapest);
    // The frontier never contains a strictly dominated strategy.
    let frontier = pareto_frontier(&trials);
    for f in &frontier {
        assert!(!trials
            .iter()
            .any(|t| { t.accuracy > f.accuracy && t.sample_cost_usd < f.sample_cost_usd }));
    }
}
