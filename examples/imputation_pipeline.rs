//! Hybrid LLM / non-LLM imputation: the paper's §3.4 workflow.
//!
//! Missing `city` values are filled for restaurant records three ways:
//! free k-NN over record-text embeddings, LLM-only prompting, and the
//! hybrid that trusts k-NN when all neighbors agree and pays for the LLM
//! only on the ambiguous remainder.
//!
//! Run with: `cargo run -p crowdprompt --example imputation_pipeline`

use std::sync::Arc;

use crowdprompt::data::products::restaurants;
use crowdprompt::oracle::world::ItemId;
use crowdprompt::prelude::*;

fn main() {
    let data = restaurants(300, 5);

    let llm = SimulatedLlm::new(
        ModelProfile::claude2_like(),
        Arc::new(data.world.clone()),
        5,
    );
    let session = Session::builder()
        .client(Arc::new(LlmClient::new(Arc::new(llm))))
        .corpus(Corpus::from_world(&data.world, &data.records))
        .budget(Budget::usd(10.0))
        .build();

    // The labeled pool: records with known city values (leave-one-out when
    // imputing a record that is itself in the pool). Each impute node
    // embeds it into a neighbor index of its own.
    let labeled: Vec<(ItemId, String)> = data
        .records
        .iter()
        .map(|id| (*id, data.gold_value(*id).to_owned()))
        .collect();
    let impute = |strategy: ImputeStrategy| -> PlanRun {
        let query = session
            .query(&data.records)
            .impute_with("city", labeled.clone(), strategy);
        session
            .plan(query)
            .and_then(|plan| plan.execute(&session))
            .expect("impute runs")
    };

    let accuracy = |values: &[String]| {
        100.0
            * values
                .iter()
                .zip(&data.records)
                .filter(|(v, id)| v.as_str() == data.gold_value(**id))
                .count() as f64
            / data.records.len() as f64
    };

    println!(
        "Imputing `city` for {} restaurant records\n",
        data.records.len()
    );
    println!("strategy          accuracy  LLM calls  tokens   cost");
    println!("{}", "-".repeat(58));
    for (name, strategy) in [
        ("k-NN only     ", ImputeStrategy::KnnOnly { k: 3 }),
        ("hybrid, 0-shot", ImputeStrategy::Hybrid { k: 3, shots: 0 }),
        ("LLM-only 0shot", ImputeStrategy::LlmOnly { shots: 0 }),
        ("hybrid, 3-shot", ImputeStrategy::Hybrid { k: 3, shots: 3 }),
        ("LLM-only 3shot", ImputeStrategy::LlmOnly { shots: 3 }),
    ] {
        let run = impute(strategy);
        println!(
            "{name}    {:>5.1}%   {:>6}   {:>7}  ${:.4}",
            accuracy(run.output.values().expect("one value per record")),
            run.total_calls(),
            run.total_usage().total(),
            run.total_cost_usd(),
        );
    }

    // Peek at the gate: which records did the hybrid route to the LLM?
    let hybrid = impute(ImputeStrategy::Hybrid { k: 3, shots: 0 }).total_calls();
    println!(
        "\nhybrid routed {} of {} records to the LLM ({:.0}% saved)",
        hybrid,
        data.records.len(),
        100.0 * (1.0 - hybrid as f64 / data.records.len() as f64)
    );
    println!("\nexample record the k-NN gate answered for free:");
    if let Some(&id) = data.records.iter().find(|id| {
        // Unambiguous records have unanimous same-city neighborhoods.
        data.world.flag(**id, "ambiguous") == Some(false)
    }) {
        println!("  {}", data.text(id));
        println!("  -> {}", data.gold_value(id));
    }
}
