//! Multi-model routing (§3.5): a cheap model answers the easy questions, an
//! expensive one is consulted only when the cheap answer is not confident,
//! and a sequential stopping rule spends votes where disagreement lives.
//!
//! Run with: `cargo run -p crowdprompt --example model_cascade`

use std::sync::Arc;

use crowdprompt::oracle::model::NoiseProfile;
use crowdprompt::oracle::task::TaskDescriptor;
use crowdprompt::oracle::world::{ItemId, WorldModel};
use crowdprompt::oracle::Pricing;
use crowdprompt::prelude::*;

fn main() {
    // A moderation-style workload: 60 claims to validate.
    let mut world = WorldModel::new();
    let items: Vec<ItemId> = (0..60)
        .map(|i| {
            let id = world.add_item(format!("user-submitted claim {i}"));
            world.set_flag(id, "acceptable", i % 3 != 0);
            id
        })
        .collect();
    let world = Arc::new(world);

    // One session per model: a tier polls its session's engine, under that
    // session's budget and failure policy.
    let tier = |accuracy: f64, price_mult: f64, name: &str, seed: u64| -> Session {
        let mut profile = ModelProfile::gpt35_like()
            .with_name(name.to_owned())
            .with_noise(NoiseProfile {
                check_accuracy: accuracy,
                malformed_rate: 0.0,
                ..NoiseProfile::perfect()
            });
        profile.pricing = Pricing::new(0.0002 * price_mult, 0.0004 * price_mult);
        let llm = SimulatedLlm::new(profile, Arc::clone(&world), seed);
        Session::builder()
            .client(Arc::new(LlmClient::new(Arc::new(llm)).without_cache()))
            .corpus(Corpus::from_world(&world, &items))
            .build()
    };
    let cheap = tier(0.78, 1.0, "sim-small", 1);
    let strong = tier(0.97, 40.0, "sim-large", 2);

    // --- FrugalGPT-style cascade --------------------------------------------
    let tiers = [&cheap, &strong].map(|session| CascadeTier {
        engine: session.engine(),
        votes: 3,
        temperature_pct: 100,
    });
    let tasks: Vec<TaskDescriptor> = items
        .iter()
        .map(|id| TaskDescriptor::CheckPredicate {
            item: *id,
            predicate: "acceptable".into(),
        })
        .collect();
    // Margin 0.9: escalate unless the cheap tier is unanimous.
    let out = run_cascade(&tiers, tasks, 0.9).expect("cascade runs");

    let escalated = out.value.iter().filter(|v| v.deepest_tier > 0).count();
    let correct = out
        .value
        .iter()
        .enumerate()
        .filter(|(i, v)| v.answer == (i % 3 != 0))
        .count();
    println!("cascade over {} claims:", items.len());
    println!(
        "  escalated to the strong model: {escalated}/{}",
        items.len()
    );
    println!(
        "  accuracy: {:.1}%",
        100.0 * correct as f64 / items.len() as f64
    );
    println!("  cost: ${:.4}", out.cost_usd);

    // All-strong comparison: the same three votes, every item.
    let all_strong = FilterStrategy::MajorityVote {
        votes: 3,
        temperature_pct: 100,
    };
    let query = strong.query(&items).filter_with("acceptable", all_strong);
    let all_strong = strong
        .plan(query)
        .and_then(|plan| plan.execute(&strong))
        .expect("vote runs");
    println!(
        "  (asking the strong model everything: ${:.4})",
        all_strong.total_cost_usd()
    );

    // --- Sequential stopping rule --------------------------------------------
    // ~95% posterior confidence (log-odds ln 19) at the cheap model's 0.78
    // per-call accuracy is a vote lead of ⌈ln 19 / ln(0.78/0.22)⌉ = 3.
    println!("\nsequential asking (stop at a 3-vote lead):");
    let sequential = FilterStrategy::Sequential {
        lead: 3,
        max_votes: 15,
        temperature_pct: 100,
    };
    let query = cheap
        .query(&items[..10])
        .filter_with("acceptable", sequential);
    let run = cheap
        .plan(query)
        .and_then(|plan| plan.execute(&cheap))
        .expect("sequential filter runs");
    println!(
        "  10 items resolved with {} votes total \
         (uniform 15-vote polling would use 150)",
        run.total_calls()
    );
}
