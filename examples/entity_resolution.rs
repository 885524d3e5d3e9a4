//! Entity resolution with internal consistency: the paper's §3.3 workflow.
//!
//! A batch of "are these two citations the same paper?" questions is
//! answered three ways: plain pairwise questioning, then k-NN neighbor
//! expansion with transitive closure for k = 1 and 2. The closure flips
//! "no" answers to "yes" whenever a chain of confident duplicate edges
//! connects the two records — recovering duplicates whose surface forms are
//! too garbled to match directly.
//!
//! Run with: `cargo run -p crowdprompt --example entity_resolution`

use std::sync::Arc;

use crowdprompt::data::{CitationDataset, CitationParams};
use crowdprompt::metrics::BinaryConfusion;
use crowdprompt::oracle::world::ItemId;
use crowdprompt::prelude::*;

fn main() {
    // A synthetic DBLP-vs-Scholar style corpus: latent paper entities
    // rendered as canonical, lightly-abbreviated, and heavily-garbled
    // mentions, plus a labelled validation pair set skewed toward hard
    // questions.
    let params = CitationParams {
        n_pairs: 600,
        n_entities: 400,
        ..CitationParams::paper_scale()
    };
    let data = CitationDataset::generate(&params, 11);

    let llm = SimulatedLlm::new(ModelProfile::gpt35_like(), Arc::new(data.world.clone()), 11);
    let session = Session::builder()
        .client(Arc::new(LlmClient::new(Arc::new(llm))))
        .corpus(Corpus::from_world(&data.world, &data.mentions))
        .budget(Budget::usd(5.0))
        .build();

    let questions: Vec<(ItemId, ItemId)> = data.pairs.iter().map(|(a, b, _)| (*a, *b)).collect();
    let gold: Vec<bool> = data.pairs.iter().map(|(_, _, d)| *d).collect();

    // The blocking index over all mentions (the ada-002 stand-in).
    let index = session
        .blocking_index(&data.mentions)
        .expect("index builds from corpus texts");

    println!(
        "{} duplicate questions over {} citation mentions\n",
        questions.len(),
        data.mentions.len()
    );
    println!("strategy          F1     recall  precision  LLM calls  cost");
    println!("{}", "-".repeat(64));
    for (name, strategy) in [
        ("baseline      ", ResolveStrategy::Pairwise),
        (
            "transitive k=1",
            ResolveStrategy::TransitivityAugmented { k: 1 },
        ),
        (
            "transitive k=2",
            ResolveStrategy::TransitivityAugmented { k: 2 },
        ),
    ] {
        let out = session
            .resolve_pairs(&questions, &strategy, Some(&index))
            .expect("resolve runs");
        let confusion = BinaryConfusion::from_pairs(&out.value, &gold);
        println!(
            "{name}    {:.3}  {:.3}   {:.3}      {:>6}     ${:.4}",
            confusion.f1().unwrap_or(0.0),
            confusion.recall().unwrap_or(0.0),
            confusion.precision().unwrap_or(0.0),
            out.calls,
            out.cost_usd,
        );
    }

    // Show one flipped pair: answered "no" directly but connected by a path.
    let baseline = session
        .resolve_pairs(&questions, &ResolveStrategy::Pairwise, None)
        .unwrap();
    let augmented = session
        .resolve_pairs(
            &questions,
            &ResolveStrategy::TransitivityAugmented { k: 2 },
            Some(&index),
        )
        .unwrap();
    if let Some(i) =
        (0..questions.len()).find(|&i| gold[i] && !baseline.value[i] && augmented.value[i])
    {
        let (a, b) = questions[i];
        println!("\nexample flip (missed directly, recovered by transitivity):");
        println!("  A: {}", data.text(a));
        println!("  B: {}", data.text(b));
    }
}
