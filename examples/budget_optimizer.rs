//! Automatic strategy selection under a budget: the paper's §4 vision.
//!
//! The toolkit labels a small validation sample, runs every candidate sort
//! strategy on it and measures accuracy and cost. The planner then prices
//! each candidate at full scale by its bill and keeps the most accurate one
//! the budget can afford — AutoML for prompting strategies.
//!
//! Run with: `cargo run -p crowdprompt --example budget_optimizer`

use std::sync::Arc;

use crowdprompt::core::optimize::{evaluate_sort_strategies, pareto_frontier};
use crowdprompt::data::FlavorDataset;
use crowdprompt::prelude::*;

fn main() {
    let data = FlavorDataset::sample(40, 9);
    let session = |budget: Budget| {
        let llm = SimulatedLlm::new(ModelProfile::gpt35_like(), Arc::new(data.world.clone()), 9);
        Session::builder()
            .client(Arc::new(LlmClient::new(Arc::new(llm))))
            .corpus(Corpus::from_world(&data.world, &data.items))
            .budget(budget)
            .criterion("by how chocolatey they are")
            .build()
    };

    // A small labelled validation sample (the user supplies gold labels for
    // ~10 items; the optimizer explores on those).
    let sample: Vec<_> = data.items.iter().take(10).copied().collect();
    let sample_gold = data.world.gold_ranking_by_score(&sample);

    let candidates = vec![
        SortStrategy::SinglePrompt,
        SortStrategy::Rating {
            scale_min: 1,
            scale_max: 7,
        },
        SortStrategy::BucketThenCompare { buckets: 4 },
        SortStrategy::Pairwise,
    ];
    let trials = evaluate_sort_strategies(
        session(Budget::Unlimited).engine(),
        &sample,
        &sample_gold,
        SortCriterion::LatentScore,
        &candidates,
    )
    .expect("validation trials run");

    println!("validation trials on a 10-item sample:");
    println!("strategy                 tau     sample cost  calls");
    println!("{}", "-".repeat(54));
    for t in &trials {
        println!(
            "{:<24} {:+.3}  ${:<10.5}  {}",
            t.name, t.accuracy, t.sample_cost_usd, t.sample_calls
        );
    }

    println!("\nPareto frontier (no strategy dominates these):");
    for t in pareto_frontier(&trials) {
        println!(
            "  {:<24} tau {:+.3} at ${:.5}",
            t.name, t.accuracy, t.sample_cost_usd
        );
    }

    // The planner's choice for sorting all items, on a fresh session per
    // budget: its trials spend from that budget, then each candidate is
    // priced by its bill against what is left.
    let full_n = data.items.len();
    println!("\nplanned {full_n}-item sort, calibrated on the sample:");
    println!("budget     left after trials  pick                     plan estimate");
    println!("{}", "-".repeat(72));
    for budget in [0.002f64, 0.008, 0.02, 1.0] {
        let session = session(Budget::usd(budget));
        let query = session
            .query(&data.items)
            .sort(SortCriterion::LatentScore)
            .calibrate_sort(&sample, &sample_gold);
        match session.plan(query) {
            Ok(plan) => println!(
                "${budget:<9} ${:<17.4} {:<24} ${:.4}",
                budget - session.spent_usd(),
                plan.nodes()[0].node.strategy_label(),
                plan.estimated_cost_usd()
            ),
            Err(e) => println!("${budget:<9} {e}"),
        }
    }
}
