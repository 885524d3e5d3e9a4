//! Full catalog deduplication — the paper's §1 motivating example, solved
//! the CrowdER way: a free embedding index blocks the candidate space, the
//! LLM confirms only plausible pairs, and union-find closes confirmed edges
//! into duplicate groups.
//!
//! Run with: `cargo run -p crowdprompt --example dedup_catalog`

use std::sync::Arc;

use crowdprompt::data::{CitationDataset, CitationParams};
use crowdprompt::prelude::*;

fn main() {
    // A citation corpus where many papers appear in 2–3 textual variants.
    let params = CitationParams {
        n_entities: 120,
        duplicated_fraction: 0.6,
        bridge_fraction: 1.0,
        ..CitationParams::small()
    };
    let data = CitationDataset::generate(&params, 21);

    let llm = SimulatedLlm::new(ModelProfile::gpt35_like(), Arc::new(data.world.clone()), 21);
    let session = Session::builder()
        .client(Arc::new(LlmClient::new(Arc::new(llm))))
        .corpus(Corpus::from_world(&data.world, &data.mentions))
        .budget(Budget::usd(2.0))
        .tracing(true)
        .build();

    let build_start = std::time::Instant::now();
    let index = session
        .blocking_index(&data.mentions)
        .expect("index builds");
    println!(
        "blocking index over {} mentions: exact scan, built in {:.2?} \
         (parallel embed + flat storage)",
        index.len(),
        build_start.elapsed(),
    );

    println!(
        "deduplicating {} citation mentions (all-pairs would be {} comparisons)\n",
        data.mentions.len(),
        data.mentions.len() * (data.mentions.len() - 1) / 2
    );

    // The resolve node blocks through an index of its own over the same
    // mentions, then confirms each candidate pair with the model.
    let query = session.query(&data.mentions).resolve(4, 1.2);
    let run = session
        .plan(query)
        .and_then(|plan| plan.execute(&session))
        .expect("dedup runs in budget");
    let clusters = run.output.groups().expect("dedup returns groups");
    let multi = clusters.iter().filter(|c| c.len() > 1).count();
    println!(
        "found {} clusters ({} with duplicates) using {} LLM calls (${:.4})",
        clusters.len(),
        multi,
        run.total_calls(),
        run.total_cost_usd(),
    );

    // Score against the latent truth (pairwise F1 over mention pairs).
    let (mut tp, mut fp, mut fn_) = (0u64, 0u64, 0u64);
    let cluster_of: std::collections::HashMap<_, _> = clusters
        .iter()
        .enumerate()
        .flat_map(|(c, members)| members.iter().map(move |m| (*m, c)))
        .collect();
    for i in 0..data.mentions.len() {
        for j in (i + 1)..data.mentions.len() {
            let (a, b) = (data.mentions[i], data.mentions[j]);
            let predicted = cluster_of[&a] == cluster_of[&b];
            let actual = data.world.same_cluster(a, b) == Some(true);
            match (predicted, actual) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fn_ += 1,
                (false, false) => {}
            }
        }
    }
    let precision = tp as f64 / (tp + fp).max(1) as f64;
    let recall = tp as f64 / (tp + fn_).max(1) as f64;
    println!("pairwise precision {precision:.3}, recall {recall:.3} against the latent clustering");

    let example = clusters.iter().find(|c| c.len() >= 3);
    if let Some(group) = example {
        println!("\nan example duplicate group:");
        for id in group {
            println!("  - {}", data.text(*id));
        }
    }

    if let Some(trace) = session.trace() {
        println!("\n{}", trace.summary().render());
    }
}
