//! Regenerates **Table 1**: sorting 20 ice-cream flavors by chocolateyness
//! with three prompting strategies on a gpt-3.5-turbo-like model.
//!
//! Paper values (single run): single-prompt tau 0.526 (152/117 tokens),
//! coarse ratings tau 0.547 (1615/900), pairwise comparisons tau 0.737
//! (12065/10884). We report means over `--trials` seeds; the claim under
//! test is the *shape*: pairwise > rating > single-prompt on accuracy, and
//! the reverse on cost.
//!
//! Usage: `table1 [--trials N] [--seed S] [--markdown]`

use crowdprompt_bench::{arg_u64, arg_usize, mean, run, session_over};
use crowdprompt_core::ops::sort::SortStrategy;
use crowdprompt_data::FlavorDataset;
use crowdprompt_metrics::rank::kendall_tau_b_rankings;
use crowdprompt_metrics::stats::fmt_mean_sd;
use crowdprompt_metrics::Table;
use crowdprompt_oracle::task::SortCriterion;
use crowdprompt_oracle::ModelProfile;

struct Row {
    name: &'static str,
    paper_tau: f64,
    taus: Vec<f64>,
    prompt_tokens: Vec<f64>,
    completion_tokens: Vec<f64>,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trials = arg_usize(&args, "--trials", 5);
    let seed0 = arg_u64(&args, "--seed", 1);
    let markdown = args.iter().any(|a| a == "--markdown");

    let strategies: [(&'static str, SortStrategy, f64); 3] = [
        ("Sorting in one prompt", SortStrategy::SinglePrompt, 0.526),
        (
            "Coarse-grained ratings",
            SortStrategy::Rating {
                scale_min: 1,
                scale_max: 7,
            },
            0.547,
        ),
        ("Fine-grained comparisons", SortStrategy::Pairwise, 0.737),
    ];
    let mut rows: Vec<Row> = strategies
        .iter()
        .map(|(name, _, paper)| Row {
            name,
            paper_tau: *paper,
            taus: Vec::new(),
            prompt_tokens: Vec::new(),
            completion_tokens: Vec::new(),
        })
        .collect();

    for t in 0..trials {
        let seed = seed0 + t as u64;
        let data = FlavorDataset::paper(seed);
        let session = session_over(
            ModelProfile::gpt35_like(),
            &data.world,
            &data.items,
            seed,
            "by how chocolatey they are",
        );
        for ((_, strategy, _), row) in strategies.iter().zip(rows.iter_mut()) {
            let query = session
                .query(&data.items)
                .sort_with(SortCriterion::LatentScore, strategy.clone());
            let out = run(session.engine(), query).into_outcome(|o| o.into_items().unwrap());
            let tau = kendall_tau_b_rankings(&out.value, &data.gold).unwrap_or(0.0);
            row.taus.push(tau);
            row.prompt_tokens.push(f64::from(out.usage.prompt_tokens));
            row.completion_tokens
                .push(f64::from(out.usage.completion_tokens));
        }
    }

    let mut table = Table::new(
        format!(
            "Table 1 — sorting 20 flavors by chocolateyness (mean of {trials} trials, \
             sim-gpt-3.5-turbo)"
        ),
        &[
            "Method",
            "Kendall Tau-b (paper)",
            "Kendall Tau-b (ours)",
            "# Prompt Tokens",
            "# Completion Tokens",
        ],
    );
    for row in &rows {
        table.add_row(&[
            row.name.to_owned(),
            format!("{:.3}", row.paper_tau),
            fmt_mean_sd(&row.taus, 3),
            format!("{:.0}", mean(&row.prompt_tokens)),
            format!("{:.0}", mean(&row.completion_tokens)),
        ]);
    }
    if markdown {
        println!("{}", table.render_markdown());
    } else {
        println!("{}", table.render());
    }

    // Shape assertions, printed so the harness is self-checking.
    let tau = |i: usize| mean(&rows[i].taus);
    let toks = |i: usize| mean(&rows[i].prompt_tokens) + mean(&rows[i].completion_tokens);
    let shape_acc = tau(2) > tau(1) && tau(1) > tau(0) - 0.05;
    let shape_cost = toks(2) > toks(1) && toks(1) > toks(0);
    println!(
        "shape: pairwise > rating > single-prompt on tau: {}",
        if shape_acc { "HOLDS" } else { "VIOLATED" }
    );
    println!(
        "shape: pairwise > rating > single-prompt on tokens: {}",
        if shape_cost { "HOLDS" } else { "VIOLATED" }
    );
}
