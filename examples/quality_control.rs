//! Quality control (§3.5): estimating model accuracy from a validation set,
//! self-consistency voting, Dawid–Skene EM across multiple models, and
//! self-verification — the first, second and fourth as filter strategies a
//! session runs under its budget.
//!
//! Run with: `cargo run -p crowdprompt --example quality_control`

use std::sync::Arc;

use crowdprompt::core::optimize::evaluate_filter_strategies;
use crowdprompt::core::quality::dawid_skene;
use crowdprompt::oracle::model::NoiseProfile;
use crowdprompt::oracle::task::TaskDescriptor;
use crowdprompt::oracle::world::{ItemId, WorldModel};
use crowdprompt::prelude::*;

const PREDICATE: &str = "is_bug_report";

fn main() {
    // A predicate-checking workload with known truth.
    let mut world = WorldModel::new();
    let items: Vec<ItemId> = (0..120)
        .map(|i| {
            let id = world.add_item(format!("support ticket {i}: the app crashed on login"));
            world.set_flag(id, PREDICATE, i % 4 != 3);
            id
        })
        .collect();
    let truth: Vec<bool> = (0..items.len()).map(|i| i % 4 != 3).collect();
    let world = Arc::new(world);

    let session_with_accuracy = |acc: f64, seed: u64, name: &str| -> Session {
        let profile = ModelProfile::gpt35_like()
            .with_name(name.to_owned())
            .with_noise(NoiseProfile {
                check_accuracy: acc,
                verify_accuracy: 0.95,
                malformed_rate: 0.0,
                ..NoiseProfile::perfect()
            });
        let llm = SimulatedLlm::new(profile, Arc::clone(&world), seed);
        Session::builder()
            .client(Arc::new(LlmClient::new(Arc::new(llm))))
            .corpus(Corpus::from_world(&world, &items))
            .build()
    };
    let vote = FilterStrategy::MajorityVote {
        votes: 9,
        temperature_pct: 100,
    };

    // 1. Accuracy estimation on a labelled validation slice: the single
    //    check measures the model's per-call accuracy; the vote shows what
    //    nine samples buy on the same slice.
    let session = session_with_accuracy(0.8, 1, "sim-primary");
    let trials = evaluate_filter_strategies(
        session.engine(),
        &items[..40],
        &truth[..40],
        PREDICATE,
        &[FilterStrategy::Single, vote],
    )
    .expect("estimation runs");
    println!("1. validation-set accuracy (true per-call accuracy: 0.80):");
    for trial in &trials {
        println!(
            "   {:<16} accuracy {:.3} in {} calls",
            trial.name, trial.accuracy, trial.sample_calls
        );
    }

    // 2. Self-consistency: sample the same task 9 times at temperature 1,
    //    majority vote.
    let voted = keep(&session, &items[..1], vote);
    println!(
        "2. self-consistency on one task: verdict={} after {} samples (truth: true)",
        !voted.value.is_empty(),
        voted.calls
    );

    // 3. Dawid–Skene EM across three models of unknown, unequal accuracy.
    let sessions = [
        session_with_accuracy(0.92, 2, "sim-a"),
        session_with_accuracy(0.72, 3, "sim-b"),
        session_with_accuracy(0.58, 4, "sim-c"),
    ];
    let checks = || -> Vec<TaskDescriptor> {
        items
            .iter()
            .map(|id| TaskDescriptor::CheckPredicate {
                item: *id,
                predicate: PREDICATE.into(),
            })
            .collect()
    };
    let mut votes: Vec<Vec<Option<bool>>> = Vec::new();
    for session in &sessions {
        let responses = session.engine().run_many(checks()).expect("checks run");
        votes.push(
            responses
                .iter()
                .map(|r| crowdprompt::core::extract::yes_no(&r.text).ok())
                .collect(),
        );
    }
    let ds = dawid_skene(&votes, 100);
    let labels = ds.labels();
    let em_acc =
        labels.iter().zip(&truth).filter(|(a, b)| a == b).count() as f64 / items.len() as f64;
    println!(
        "3. Dawid-Skene over 3 models: label accuracy {:.3}; estimated model accuracies {:?}",
        em_acc,
        ds.worker_accuracy
            .iter()
            .map(|a| (a * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );

    // 4. Self-verification: have the model check each answer and re-sample
    //    the ones it rejects.
    let weak = session_with_accuracy(0.6, 5, "sim-weak");
    let accuracy = |kept: &[ItemId]| {
        let correct = items
            .iter()
            .zip(&truth)
            .filter(|(id, t)| kept.contains(id) == **t)
            .count();
        correct as f64 / items.len() as f64
    };
    let single = keep(&weak, &items, FilterStrategy::Single);
    let verified = keep(&weak, &items, FilterStrategy::Verified { max_rounds: 4 });
    println!(
        "4. self-verification: accuracy {:.3} in {} calls (a single check: {:.3} in {})",
        accuracy(&verified.value),
        verified.calls,
        accuracy(&single.value),
        single.calls
    );
}

/// The items of `items` a filter node under `strategy` keeps, with its cost.
fn keep(session: &Session, items: &[ItemId], strategy: FilterStrategy) -> Outcome<Vec<ItemId>> {
    let query = session.query(items).filter_with(PREDICATE, strategy);
    let run = session.plan(query).and_then(|plan| plan.execute(session));
    run.expect("filter runs")
        .into_outcome(|out| out.into_items().expect("a filter keeps items"))
}
