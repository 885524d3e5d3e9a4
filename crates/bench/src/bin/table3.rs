//! Regenerates **Table 3**: entity resolution on a DBLP–Google-Scholar-style
//! citation pair set, enforcing internal consistency via k-NN neighbor
//! expansion + transitive closure.
//!
//! Paper values (5742 validation pairs, gpt-3.5-turbo + ada embeddings):
//!
//! | Nearest Neighbors | F1    | Recall | Precision |
//! |-------------------|-------|--------|-----------|
//! | 0 (Baseline)      | 0.658 | 0.503  | 0.952     |
//! | 1                 | 0.706 | 0.569  | 0.930     |
//! | 2                 | 0.722 | 0.593  | 0.923     |
//!
//! The shape under test: F1 and recall rise with k while precision dips
//! slightly.
//!
//! Usage: `table3 [--pairs N] [--entities N] [--seed S] [--markdown]`

use crowdprompt_bench::{arg_u64, arg_usize, run, session_over};
use crowdprompt_core::ops::resolve::ResolveStrategy;
use crowdprompt_data::{CitationDataset, CitationParams};
use crowdprompt_metrics::BinaryConfusion;
use crowdprompt_metrics::Table;
use crowdprompt_oracle::world::ItemId;
use crowdprompt_oracle::ModelProfile;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed = arg_u64(&args, "--seed", 1);
    let markdown = args.iter().any(|a| a == "--markdown");
    let defaults = CitationParams::paper_scale();
    let params = CitationParams {
        n_pairs: arg_usize(&args, "--pairs", defaults.n_pairs),
        n_entities: arg_usize(&args, "--entities", defaults.n_entities),
        ..defaults
    };

    let data = CitationDataset::generate(&params, seed);
    let session = session_over(
        ModelProfile::gpt35_like(),
        &data.world,
        &data.mentions,
        seed,
        "as citations",
    );
    let questions: Vec<(ItemId, ItemId)> = data.pairs.iter().map(|(a, b, _)| (*a, *b)).collect();
    let gold: Vec<bool> = data.pairs.iter().map(|(_, _, d)| *d).collect();

    let paper = [
        (0.658, 0.503, 0.952),
        (0.706, 0.569, 0.930),
        (0.722, 0.593, 0.923),
    ];
    let mut table = Table::new(
        format!(
            "Table 3 — duplicate citations, {} validation pairs (sim-gpt-3.5-turbo)",
            questions.len()
        ),
        &[
            "Nearest Neighbors",
            "F1 (paper)",
            "F1",
            "Recall (paper)",
            "Recall",
            "Precision (paper)",
            "Precision",
            "# LLM Calls",
        ],
    );

    let mut f1s = Vec::new();
    let mut recalls = Vec::new();
    let mut precisions = Vec::new();
    for (k, (p_f1, p_rec, p_prec)) in paper.iter().enumerate() {
        let strategy = if k == 0 {
            ResolveStrategy::Pairwise
        } else {
            ResolveStrategy::TransitivityAugmented { k }
        };
        // Neighborhoods come from a blocking index over every mention.
        let query = session
            .query(&data.mentions)
            .resolve_pairs(questions.clone(), strategy);
        let out = run(session.engine(), query).into_outcome(|o| o.verdicts().unwrap().to_vec());
        let confusion = BinaryConfusion::from_pairs(&out.value, &gold);
        let f1 = confusion.f1().unwrap_or(0.0);
        let recall = confusion.recall().unwrap_or(0.0);
        let precision = confusion.precision().unwrap_or(0.0);
        f1s.push(f1);
        recalls.push(recall);
        precisions.push(precision);
        table.add_row(&[
            format!("{k}{}", if k == 0 { " (Baseline)" } else { "" }),
            format!("{p_f1:.3}"),
            format!("{f1:.3}"),
            format!("{p_rec:.3}"),
            format!("{recall:.3}"),
            format!("{p_prec:.3}"),
            format!("{precision:.3}"),
            format!("{}", out.calls),
        ]);
    }

    if markdown {
        println!("{}", table.render_markdown());
    } else {
        println!("{}", table.render());
    }
    println!(
        "shape: F1 rises with k: {}",
        if f1s[1] > f1s[0] && f1s[2] >= f1s[1] {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );
    println!(
        "shape: recall rises with k: {}",
        if recalls[1] > recalls[0] && recalls[2] >= recalls[1] {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );
    println!(
        "shape: precision dips only slightly: {}",
        if precisions[2] > precisions[0] - 0.08 {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );
}
