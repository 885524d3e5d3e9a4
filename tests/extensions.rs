//! Integration tests for the extension features: model cascades, fuzzy
//! joins, multi-step workflows, execution tracing, and the sentiment
//! workload — all through the public facade.

use std::sync::Arc;

use crowdprompt::core::ops::filter::FilterStrategy;
use crowdprompt::core::{Corpus, Engine};
use crowdprompt::data::ReviewsDataset;
use crowdprompt::metrics::rank::kendall_tau_b_rankings;
use crowdprompt::oracle::model::NoiseProfile;
use crowdprompt::oracle::task::TaskDescriptor;
use crowdprompt::oracle::world::{ItemId, WorldModel};
use crowdprompt::prelude::*;

/// Plan `query` on the session and run it, as one cost-annotated outcome.
fn run<T>(session: &Session, query: Query, value: impl FnOnce(PlanOutput) -> T) -> Outcome<T> {
    let plan = session.plan(query).unwrap();
    plan.execute(session).unwrap().into_outcome(value)
}

#[test]
fn sentiment_workload_sorts_filters_and_counts() {
    let data = ReviewsDataset::generate(60, 5);
    let llm = SimulatedLlm::new(ModelProfile::gpt35_like(), Arc::new(data.world.clone()), 5);
    let session = Session::builder()
        .client(Arc::new(LlmClient::new(Arc::new(llm))))
        .corpus(Corpus::from_world(&data.world, &data.items))
        .criterion("by how positive the sentiment is")
        .tracing(true)
        .build();

    // Sorting on sentiment should clearly beat chance.
    let sorted = run(
        &session,
        session
            .query(&data.items)
            .sort_with(SortCriterion::LatentScore, SortStrategy::Pairwise),
        |out| out.into_items().unwrap(),
    );
    let tau = kendall_tau_b_rankings(&sorted.value, &data.gold).unwrap();
    assert!(tau > 0.5, "tau {tau}");

    // Counting positives should land near the truth.
    let count = run(
        &session,
        session
            .query(&data.items)
            .count_with("positive", CountStrategy::PerItem),
        |out| out.count().unwrap(),
    );
    let err = (count.value as i64 - data.positive_count as i64).unsigned_abs();
    assert!(
        err <= 8,
        "count {} vs truth {}",
        count.value,
        data.positive_count
    );

    // Tracing captured both operations.
    let summary = session.trace().unwrap().summary();
    // One table row per task kind, led by the kind's name.
    let table = summary.render();
    let has_row = |kind: &str| {
        table
            .lines()
            .any(|l| l.split_whitespace().next() == Some(kind))
    };
    assert!(has_row("compare"));
    assert!(has_row("check_predicate"));
    assert!(summary.total_calls() >= sorted.calls + count.calls);
}

#[test]
fn workflow_pipeline_composes_and_audits() {
    let data = ReviewsDataset::generate(50, 9);
    let llm = SimulatedLlm::new(ModelProfile::perfect(), Arc::new(data.world.clone()), 9);
    let engine = Engine::new(
        Arc::new(LlmClient::new(Arc::new(llm))),
        Corpus::from_world(&data.world, &data.items),
    )
    .with_criterion_label("by sentiment");

    // Lowered verbatim: declared order and pinned strategies, no rewrites.
    let run = Query::over(&data.items)
        .filter_with("positive", FilterStrategy::Single)
        .sort_with(SortCriterion::LatentScore, SortStrategy::SinglePrompt)
        .take(5)
        .plan_with(&engine, PlanOptions::verbatim())
        .unwrap()
        .execute_on(&engine)
        .unwrap();
    let survivors = run.output.items().expect("item plan");

    assert_eq!(survivors.len(), 5.min(data.positive_count));
    // With a perfect oracle, the survivors are the top positive snippets.
    for id in survivors {
        assert_eq!(data.world.flag(*id, "positive"), Some(true));
    }
    // Per-step audit is coherent.
    assert_eq!(run.steps.len(), 3);
    assert_eq!(run.steps[0].items_in, 50);
    assert_eq!(
        run.steps[0].items_out, data.positive_count,
        "perfect filter keeps exactly the positives"
    );
    assert_eq!(run.steps[0].items_out, run.steps[1].items_in);
    assert_eq!(run.steps[2].items_out, survivors.len());
    assert_eq!(run.steps[2].calls, 0, "truncate is free");
    assert_eq!(
        run.total_calls(),
        run.steps.iter().map(|s| s.calls).sum::<u64>()
    );
    assert!(run.total_cost_usd() >= 0.0);
}

#[test]
fn fuzzy_join_blocked_vs_all_pairs_through_session() {
    // Two catalogs of the same entities with different formatting.
    let mut w = WorldModel::new();
    let mut left = Vec::new();
    let mut right = Vec::new();
    for i in 0..10 {
        let l = w.add_item(format!("contoso gadget unit {i:02} (warehouse listing)"));
        w.set_cluster(l, i);
        left.push(l);
        let r = w.add_item(format!("Contoso Gadget {i:02} retail"));
        w.set_cluster(r, i);
        right.push(r);
    }
    let all: Vec<ItemId> = left.iter().chain(right.iter()).copied().collect();
    let llm = SimulatedLlm::new(ModelProfile::perfect(), Arc::new(w.clone()), 4);
    let session = Session::builder()
        .client(Arc::new(LlmClient::new(Arc::new(llm))))
        .corpus(Corpus::from_world(&w, &all))
        .build();

    let join = |strategy: JoinStrategy| {
        run(
            &session,
            session.query(&left).join_with(&right, strategy),
            |out| match out {
                PlanOutput::Join(join) => join,
                other => panic!("a join node returns its join result, got {other:?}"),
            },
        )
    };
    let naive = join(JoinStrategy::AllPairs);
    let blocked = join(JoinStrategy::Blocked {
        candidates: 2,
        max_distance: 1.3,
    });
    assert_eq!(naive.value.matches.len(), 10);
    assert_eq!(
        blocked.value.matches, naive.value.matches,
        "blocking must not lose matches here"
    );
    assert!(blocked.calls < naive.calls);
    assert!(blocked.value.pruned_pairs > 0);
}

#[test]
fn cascade_routes_hard_items_to_strong_model() {
    let mut w = WorldModel::new();
    let items: Vec<ItemId> = (0..30)
        .map(|i| {
            let id = w.add_item(format!("ticket {i}"));
            w.set_flag(id, "urgent", i % 2 == 0);
            id
        })
        .collect();
    let world = Arc::new(w);
    let tier = |acc: f64, seed: u64| -> Engine {
        let profile = ModelProfile::gpt35_like().with_noise(NoiseProfile {
            check_accuracy: acc,
            malformed_rate: 0.0,
            ..NoiseProfile::perfect()
        });
        let llm = SimulatedLlm::new(profile, Arc::clone(&world), seed);
        Engine::new(
            Arc::new(LlmClient::new(Arc::new(llm)).without_cache()),
            Corpus::from_world(&world, &items),
        )
    };
    let (weak, strong) = (tier(0.6, 1), tier(0.99, 2));
    let tiers = [
        CascadeTier {
            engine: &weak,
            votes: 5,
            temperature_pct: 100,
        },
        CascadeTier {
            engine: &strong,
            votes: 3,
            temperature_pct: 100,
        },
    ];
    let tasks: Vec<TaskDescriptor> = items
        .iter()
        .map(|id| TaskDescriptor::CheckPredicate {
            item: *id,
            predicate: "urgent".into(),
        })
        .collect();
    let out = run_cascade(&tiers, tasks, 0.9).unwrap();
    let escalated = out.value.iter().filter(|v| v.deepest_tier == 1).count();
    assert!(
        escalated > 5,
        "weak tier should escalate often: {escalated}"
    );
    let correct = out
        .value
        .iter()
        .enumerate()
        .filter(|(i, v)| v.answer == (i % 2 == 0))
        .count();
    assert!(correct >= 25, "cascade accuracy {correct}/30");
}
