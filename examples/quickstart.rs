//! Quickstart: sort 20 ice-cream flavors by chocolateyness under a budget,
//! comparing three prompting strategies — the paper's Table 1 in miniature.
//!
//! Run with: `cargo run -p crowdprompt --example quickstart`

use std::sync::Arc;

use crowdprompt::data::FlavorDataset;
use crowdprompt::metrics::rank::kendall_tau_b_rankings;
use crowdprompt::prelude::*;

fn main() {
    // 1. A workload: 20 flavors with latent "chocolateyness" ground truth.
    //    (In production the items come from your own data; here a seeded
    //    generator provides both the items and the gold ordering we score
    //    against.)
    let data = FlavorDataset::paper(42);

    // 2. A model. The simulator stands in for a chat-completion API and is
    //    calibrated to gpt-3.5-turbo-like noise. Any `LanguageModel`
    //    implementation plugs in here.
    let llm = SimulatedLlm::new(ModelProfile::gpt35_like(), Arc::new(data.world.clone()), 7);

    // 3. A declarative session: corpus + budget + criterion.
    let session = Session::builder()
        .client(Arc::new(LlmClient::new(Arc::new(llm))))
        .corpus(Corpus::from_world(&data.world, &data.items))
        .budget(Budget::usd(1.00))
        .criterion("by how chocolatey they are")
        .seed(42)
        .build();

    // 4. The same declared operation, three strategies, three
    //    cost/accuracy trade-offs. `sort_with` pins the strategy; the
    //    planner prices it before any call is spent.
    println!("Sorting 20 flavors by chocolateyness (budget $1.00)\n");
    for (name, strategy) in [
        ("single prompt ", SortStrategy::SinglePrompt),
        (
            "rating (1-7)  ",
            SortStrategy::Rating {
                scale_min: 1,
                scale_max: 7,
            },
        ),
        ("pairwise      ", SortStrategy::Pairwise),
    ] {
        let query = session
            .query(&data.items)
            .sort_with(SortCriterion::LatentScore, strategy);
        let run = session
            .plan(query)
            .and_then(|plan| plan.execute(&session))
            .expect("sort runs within budget");
        let order = run.output.items().expect("a sort returns an order");
        let tau = kendall_tau_b_rankings(order, &data.gold).unwrap_or(0.0);
        println!(
            "{name}  tau={tau:+.3}  calls={:>3}  tokens={:>5}  cost=${:.4}",
            run.total_calls(),
            run.total_usage().total(),
            run.total_cost_usd(),
        );
    }

    println!("\ntotal session spend: ${:.4}", session.spent_usd());
    println!("\nTop 5 by the pairwise strategy:");
    let query = session
        .query(&data.items)
        .sort_with(SortCriterion::LatentScore, SortStrategy::Pairwise);
    let run = session.plan(query).unwrap().execute(&session).unwrap();
    for (i, id) in run.output.items().unwrap().iter().take(5).enumerate() {
        println!(
            "  {}. {}",
            i + 1,
            session.engine().corpus().text(*id).unwrap_or("?")
        );
    }
}
