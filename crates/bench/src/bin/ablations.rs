//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Subcommands (run all with no argument):
//!
//! * `batch` — batch size as a cost/accuracy hyper-parameter for coarse
//!   counting (§4).
//! * `consistency` — ranking repair (min-feedback edge flipping) on/off as
//!   comparison noise grows (§3.3).
//! * `optimizer` — validation-sample strategy selection under a budget
//!   sweep (§4).
//! * `quality` — single call vs majority vote vs Dawid–Skene across models
//!   of unequal accuracy (§3.5).
//!
//! Usage: `ablations [batch|consistency|optimizer|quality] [--seed S]`

use std::sync::Arc;

use crowdprompt_bench::{arg_u64, mean, session_over};
use crowdprompt_core::consistency::{repair_ranking, violations};
use crowdprompt_core::ops::count::CountStrategy;
use crowdprompt_core::ops::sort::SortStrategy;
use crowdprompt_core::optimize::{evaluate_sort_strategies, recommend};
use crowdprompt_core::quality::dawid_skene;
use crowdprompt_core::{Corpus, Engine};
use crowdprompt_data::FlavorDataset;
use crowdprompt_metrics::rank::kendall_tau_b_rankings;
use crowdprompt_metrics::Table;
use crowdprompt_oracle::model::{ModelProfile, NoiseProfile};
use crowdprompt_oracle::sim::SimulatedLlm;
use crowdprompt_oracle::task::{SortCriterion, TaskDescriptor};
use crowdprompt_oracle::world::{ItemId, WorldModel};
use crowdprompt_oracle::LlmClient;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed = arg_u64(&args, "--seed", 1);
    let which = args.get(1).map(String::as_str).unwrap_or("all");
    if matches!(which, "batch" | "all") {
        ablation_batch(seed);
    }
    if matches!(which, "consistency" | "all") {
        ablation_consistency(seed);
    }
    if matches!(which, "optimizer" | "all") {
        ablation_optimizer(seed);
    }
    if matches!(which, "quality" | "all") {
        ablation_quality(seed);
    }
    if matches!(which, "proxy" | "all") {
        ablation_proxy(seed);
    }
    if matches!(which, "confidence" | "all") {
        ablation_confidence(seed);
    }
    if matches!(which, "chunks" | "all") {
        ablation_chunks(seed);
    }
}

// ---------------------------------------------------------------------------
// A7: large-list sorting strategies
// ---------------------------------------------------------------------------

fn ablation_chunks(seed: u64) {
    use crowdprompt_data::WordsDataset;

    let data = WordsDataset::sample(100, seed);
    let session = crowdprompt_bench::session_over(
        ModelProfile::claude2_like(),
        &data.world,
        &data.items,
        seed,
        "in alphabetical order",
    );
    let mut table = Table::new(
        "A7 — sorting 100 words: large-list strategies compared",
        &[
            "Strategy",
            "Kendall tau-b",
            "Missing (pre-repair)",
            "Calls",
            "Tokens",
        ],
    );
    let strategies: [(String, SortStrategy); 5] = [
        ("one prompt".to_owned(), SortStrategy::SinglePrompt),
        ("sort then insert".to_owned(), SortStrategy::SortThenInsert),
        (
            "chunked merge (25)".to_owned(),
            SortStrategy::ChunkedMerge { chunk_size: 25 },
        ),
        (
            "chunked merge (10)".to_owned(),
            SortStrategy::ChunkedMerge { chunk_size: 10 },
        ),
        (
            "pairwise batched (20)".to_owned(),
            SortStrategy::PairwiseBatched { batch_size: 20 },
        ),
    ];
    for (name, strategy) in strategies {
        let out = session
            .sort(&data.items, SortCriterion::Lexicographic, &strategy)
            .expect("sort runs");
        let tau = kendall_tau_b_rankings(&out.value.order, &data.gold).unwrap_or(0.0);
        table.add_row(&[
            name,
            format!("{tau:.3}"),
            out.value.missing.to_string(),
            out.calls.to_string(),
            out.usage.total().to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "(chunked merge needs no giant context window and no re-insertion pass; \
         sort→insert is most accurate, the single prompt cheapest)\n"
    );
}

// ---------------------------------------------------------------------------
// A5: proxy confidence threshold
// ---------------------------------------------------------------------------

fn ablation_proxy(seed: u64) {
    use crowdprompt_core::ops::filter::{filter, FilterStrategy};
    use crowdprompt_data::ReviewsDataset;

    let data = ReviewsDataset::generate(300, seed);
    let profile = ModelProfile::gpt35_like().with_noise(NoiseProfile {
        check_accuracy: 0.93,
        malformed_rate: 0.0,
        ..NoiseProfile::perfect()
    });
    let corpus = Corpus::from_world(&data.world, &data.items);
    let llm = Arc::new(SimulatedLlm::new(
        profile,
        Arc::new(data.world.clone()),
        seed,
    ));
    let engine = Engine::new(Arc::new(LlmClient::new(llm)), corpus);

    // The LLM labels the first 60 snippets; evaluate on the rest.
    const TRAIN: usize = 60;
    let rest = &data.items[TRAIN..];
    let gold: Vec<bool> = rest
        .iter()
        .map(|id| data.world.flag(*id, "positive").unwrap())
        .collect();
    let mut table = Table::new(
        "A5 — LLM-trained proxy for sentiment filtering (240 eval snippets, 60 training labels)",
        &[
            "Confidence threshold",
            "Accuracy",
            "Proxy decisions",
            "LLM decisions",
            "Tokens",
        ],
    );
    for min_confidence_pct in [0u8, 2, 5, 10, 200] {
        let strategy = FilterStrategy::ProxyGated {
            train: TRAIN,
            min_confidence_pct,
        };
        let out = filter(&engine, &data.items, "positive", strategy).expect("filter runs");
        let kept: std::collections::HashSet<ItemId> = out.value.iter().copied().collect();
        let correct = rest
            .iter()
            .zip(&gold)
            .filter(|(id, g)| kept.contains(id) == **g)
            .count();
        // Every call past the training labels is one referred item.
        let llm_decisions = out.calls as usize - TRAIN;
        table.add_row(&[
            if min_confidence_pct > 100 {
                "LLM only".to_owned()
            } else {
                format!("{:.2}", f64::from(min_confidence_pct) / 100.0)
            },
            format!("{:.3}", correct as f64 / rest.len() as f64),
            (rest.len() - llm_decisions).to_string(),
            llm_decisions.to_string(),
            out.usage.total().to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "(low thresholds trust the free proxy broadly; raising them buys back LLM accuracy)\n"
    );
}

// ---------------------------------------------------------------------------
// A6: confidence-gated escalation
// ---------------------------------------------------------------------------

fn ablation_confidence(seed: u64) {
    use crowdprompt_core::ops::filter::{filter, FilterStrategy};

    let n = 200usize;
    let mut world = WorldModel::new();
    let items: Vec<ItemId> = (0..n)
        .map(|i| {
            let id = world.add_item(format!("moderation item {i}"));
            world.set_flag(id, "flagged", i % 3 == 0);
            id
        })
        .collect();
    let profile = ModelProfile::gpt35_like().with_noise(NoiseProfile {
        check_accuracy: 0.78,
        malformed_rate: 0.0,
        ..NoiseProfile::perfect()
    });
    let corpus = Corpus::from_world(&world, &items);
    let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(world.clone()), seed));
    let engine = Engine::new(Arc::new(LlmClient::new(llm).without_cache()), corpus);

    let accuracy = |kept: &[ItemId]| {
        let kept: std::collections::HashSet<ItemId> = kept.iter().copied().collect();
        items
            .iter()
            .enumerate()
            .filter(|(i, id)| kept.contains(id) == (i % 3 == 0))
            .count() as f64
            / n as f64
    };
    let mut table = Table::new(
        format!("A6 — confidence-gated escalation over {n} checks (per-call accuracy 0.78)"),
        &["Strategy", "Accuracy", "Calls", "Tokens"],
    );
    let strategies: [(String, FilterStrategy); 5] = [
        ("single pass".to_owned(), FilterStrategy::Single),
        (
            "gate at 0.60".to_owned(),
            FilterStrategy::ConfidenceGated {
                min_confidence_pct: 60,
                votes: 5,
            },
        ),
        (
            "gate at 0.72".to_owned(),
            FilterStrategy::ConfidenceGated {
                min_confidence_pct: 72,
                votes: 5,
            },
        ),
        (
            "gate at 0.85".to_owned(),
            FilterStrategy::ConfidenceGated {
                min_confidence_pct: 85,
                votes: 5,
            },
        ),
        (
            "vote everything (5)".to_owned(),
            FilterStrategy::MajorityVote {
                votes: 5,
                temperature_pct: 100,
            },
        ),
    ];
    for (name, strategy) in strategies {
        let out = filter(&engine, &items, "flagged", strategy).expect("filter runs");
        table.add_row(&[
            name,
            format!("{:.3}", accuracy(&out.value)),
            out.calls.to_string(),
            out.usage.total().to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "(the gate interpolates between one call per item and full voting, \
         spending votes only where the model reports low confidence)\n"
    );
}

// ---------------------------------------------------------------------------
// A1: batch size for coarse counting
// ---------------------------------------------------------------------------

fn ablation_batch(seed: u64) {
    let n = 200usize;
    let mut world = WorldModel::new();
    let items: Vec<ItemId> = (0..n)
        .map(|i| {
            let id = world.add_item(format!("review snippet number {i}"));
            world.set_flag(id, "positive", i % 5 < 2); // 40% true
            id
        })
        .collect();
    let truth = 80u64;
    let session = session_over(
        ModelProfile::gpt35_like(),
        &world,
        &items,
        seed,
        "sentiment",
    );

    let mut table = Table::new(
        format!("A1 — counting {n} items: batch size vs accuracy and cost"),
        &[
            "Strategy",
            "Batch",
            "Estimate",
            "Abs error",
            "Calls",
            "Tokens",
        ],
    );
    for batch in [10usize, 25, 50, 100, 200] {
        let out = session
            .count(
                &items,
                "positive",
                CountStrategy::Eyeball { batch_size: batch },
            )
            .expect("count runs");
        table.add_row(&[
            "eyeball".to_owned(),
            batch.to_string(),
            out.value.to_string(),
            (out.value as i64 - truth as i64).unsigned_abs().to_string(),
            out.calls.to_string(),
            out.usage.total().to_string(),
        ]);
    }
    let out = session
        .count(&items, "positive", CountStrategy::PerItem)
        .expect("count runs");
    table.add_row(&[
        "per-item".to_owned(),
        "1".to_owned(),
        out.value.to_string(),
        (out.value as i64 - truth as i64).unsigned_abs().to_string(),
        out.calls.to_string(),
        out.usage.total().to_string(),
    ]);
    println!("{}", table.render());
    println!("(true count = {truth}; larger batches are cheaper but noisier)\n");

    // Second sweep: pairwise-comparison batching for sorting (§4 names
    // batch size as an optimizer dimension with accuracy implications).
    let data = FlavorDataset::paper(seed);
    let session = session_over(
        ModelProfile::gpt35_like(),
        &data.world,
        &data.items,
        seed,
        "by how chocolatey they are",
    );
    let mut table = Table::new(
        "A1b — pairwise sort of 20 flavors: comparisons per prompt vs tau and cost",
        &["Batch", "Kendall tau-b", "Calls", "Tokens"],
    );
    for batch in [1usize, 5, 10, 20, 48] {
        let strategy = if batch == 1 {
            SortStrategy::Pairwise
        } else {
            SortStrategy::PairwiseBatched { batch_size: batch }
        };
        let out = session
            .sort(&data.items, SortCriterion::LatentScore, &strategy)
            .expect("sort runs");
        let tau = kendall_tau_b_rankings(&out.value.order, &data.gold).unwrap_or(0.0);
        table.add_row(&[
            batch.to_string(),
            format!("{tau:.3}"),
            out.calls.to_string(),
            out.usage.total().to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("(packing more comparisons per prompt slashes calls and tokens while tau decays)\n");
}

// ---------------------------------------------------------------------------
// A2: consistency repair vs noise
// ---------------------------------------------------------------------------

fn ablation_consistency(seed: u64) {
    let n = 10usize;
    // Two noise regimes: gap-dependent (Thurstone) noise, where near-ties
    // flip often, and uniform noise, where every comparison errs with the
    // same probability. The paper's "flip the minimum number of edges"
    // repair is the maximum-likelihood order under *uniform* error; under
    // gap-dependent noise Copeland's win-count averaging is more robust —
    // both regimes are shown.
    let mut table = Table::new(
        "A2 — pairwise ranking of 10 items: Copeland vs min-feedback repair as noise grows",
        &[
            "noise model",
            "level",
            "tau (Copeland)",
            "tau (repair)",
            "violations (Copeland)",
            "violations (repair)",
        ],
    );
    for (regime, level) in [
        ("thurstone", 0.05f64),
        ("thurstone", 0.15),
        ("thurstone", 0.3),
        ("uniform", 0.05),
        ("uniform", 0.15),
        ("uniform", 0.3),
    ] {
        let mut taus_c = Vec::new();
        let mut taus_r = Vec::new();
        let mut viol_c = Vec::new();
        let mut viol_r = Vec::new();
        for trial in 0..16u64 {
            let mut world = WorldModel::new();
            let items: Vec<ItemId> = (0..n)
                .map(|i| {
                    let id = world.add_item(format!("candidate {i}"));
                    world.set_score(id, 1.0 - i as f64 / n as f64);
                    // Lexicographic keys mirror the score order, so the
                    // uniform-error regime targets the same gold ranking.
                    world.set_sort_key(id, format!("candidate {i}"));
                    id
                })
                .collect();
            let gold = world.gold_ranking_by_score(&items);
            let noise = if regime == "thurstone" {
                NoiseProfile {
                    compare_sigma: level,
                    position_bias: 0.0,
                    malformed_rate: 0.0,
                    ..NoiseProfile::perfect()
                }
            } else {
                NoiseProfile {
                    compare_lex_error: level,
                    compare_lex_prefix_penalty: 0.0,
                    position_bias: 0.0,
                    malformed_rate: 0.0,
                    ..NoiseProfile::perfect()
                }
            };
            let criterion = if regime == "thurstone" {
                SortCriterion::LatentScore
            } else {
                SortCriterion::Lexicographic
            };
            let profile = ModelProfile::gpt35_like().with_noise(noise);
            let corpus = Corpus::from_world(&world, &items);
            let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(world), seed + trial));
            let engine = Engine::new(Arc::new(LlmClient::new(llm)), corpus)
                .with_criterion_label("by quality");

            // Collect the full comparison matrix once.
            let mut tasks = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    tasks.push(TaskDescriptor::Compare {
                        left: items[i],
                        right: items[j],
                        criterion,
                    });
                }
            }
            let responses = engine.run_many(tasks).expect("comparisons run");
            let mut beats = vec![vec![false; n]; n];
            let mut k = 0;
            #[allow(clippy::needless_range_loop)]
            for i in 0..n {
                for j in (i + 1)..n {
                    let yes =
                        crowdprompt_core::extract::yes_no(&responses[k].text).expect("yes/no");
                    k += 1;
                    if yes {
                        beats[i][j] = true;
                    } else {
                        beats[j][i] = true;
                    }
                }
            }
            let wins = |a: usize, b: usize| beats[a][b];
            // Copeland: order by win count only.
            let mut copeland: Vec<usize> = (0..n).collect();
            let score: Vec<usize> = (0..n)
                .map(|a| (0..n).filter(|&b| wins(a, b)).count())
                .collect();
            copeland.sort_by(|&a, &b| score[b].cmp(&score[a]).then(a.cmp(&b)));
            // Exact min-feedback repair.
            let repaired = repair_ranking(n, &wins, 12);

            let order_of =
                |idx: &[usize]| -> Vec<ItemId> { idx.iter().map(|&i| items[i]).collect() };
            taus_c.push(kendall_tau_b_rankings(&order_of(&copeland), &gold).unwrap_or(0.0));
            taus_r.push(kendall_tau_b_rankings(&order_of(&repaired), &gold).unwrap_or(0.0));
            viol_c.push(violations(&copeland, &wins) as f64);
            viol_r.push(violations(&repaired, &wins) as f64);
        }
        table.add_row(&[
            regime.to_owned(),
            format!("{level:.2}"),
            format!("{:.3}", mean(&taus_c)),
            format!("{:.3}", mean(&taus_r)),
            format!("{:.1}", mean(&viol_c)),
            format!("{:.1}", mean(&viol_r)),
        ]);
    }
    println!("{}", table.render());
    println!(
        "(repair always has the fewest violations; under uniform error it is the \
         maximum-likelihood order, while under gap-dependent Thurstone noise \
         Copeland's win-count averaging is the safer aggregator)\n"
    );
}

// ---------------------------------------------------------------------------
// A3: optimizer under budget sweep
// ---------------------------------------------------------------------------

fn ablation_optimizer(seed: u64) {
    let data = FlavorDataset::paper(seed);
    // Validation sample: first 8 flavors.
    let sample: Vec<ItemId> = data.items.iter().take(8).copied().collect();
    let sample_gold = data.world.gold_ranking_by_score(&sample);
    let session = session_over(
        ModelProfile::gpt35_like(),
        &data.world,
        &data.items,
        seed,
        "by how chocolatey they are",
    );
    let candidates = vec![
        SortStrategy::SinglePrompt,
        SortStrategy::Rating {
            scale_min: 1,
            scale_max: 7,
        },
        SortStrategy::Pairwise,
        SortStrategy::BucketThenCompare { buckets: 4 },
    ];
    let trials = evaluate_sort_strategies(
        session.engine(),
        &sample,
        &sample_gold,
        SortCriterion::LatentScore,
        &candidates,
    )
    .expect("trials run");

    let mut table = Table::new(
        "A3 — strategy auto-selection: validation trials on 8 flavors, recommendation for 1000 items",
        &["Budget (USD)", "Recommended strategy", "Trial tau", "Extrapolated cost"],
    );
    for budget in [0.005f64, 0.05, 0.5, 5.0, 500.0] {
        let pick = recommend(&trials, sample.len(), 1000, budget).expect("non-empty trials");
        table.add_row(&[
            format!("{budget}"),
            pick.name.clone(),
            format!("{:.3}", pick.accuracy),
            format!("${:.4}", pick.extrapolated_cost(sample.len(), 1000)),
        ]);
    }
    println!("{}", table.render());
    println!("(bigger budgets buy the quadratic pairwise strategy; small ones fall back to linear plans)\n");
}

// ---------------------------------------------------------------------------
// A4: quality control across models
// ---------------------------------------------------------------------------

fn ablation_quality(seed: u64) {
    let n_items = 300usize;
    let mut world = WorldModel::new();
    let items: Vec<ItemId> = (0..n_items)
        .map(|i| {
            let id = world.add_item(format!("claim number {i}"));
            world.set_flag(id, "valid", i % 3 == 0);
            id
        })
        .collect();
    let truth: Vec<bool> = (0..n_items).map(|i| i % 3 == 0).collect();
    let world = Arc::new(world);

    // Three "models" with different per-task accuracy.
    let accs = [0.93f64, 0.75, 0.6];
    let mut votes: Vec<Vec<Option<bool>>> = Vec::new();
    let mut single_accuracy = Vec::new();
    for (m, acc) in accs.iter().enumerate() {
        let profile = ModelProfile::gpt35_like()
            .with_name(format!("sim-model-{m}"))
            .with_noise(NoiseProfile {
                check_accuracy: *acc,
                malformed_rate: 0.0,
                ..NoiseProfile::perfect()
            });
        let llm = Arc::new(SimulatedLlm::new(
            profile,
            Arc::clone(&world),
            seed + m as u64,
        ));
        let corpus = Corpus::from_world(&world, &items);
        let engine = Engine::new(Arc::new(LlmClient::new(llm)), corpus);
        let tasks: Vec<TaskDescriptor> = items
            .iter()
            .map(|id| TaskDescriptor::CheckPredicate {
                item: *id,
                predicate: "valid".into(),
            })
            .collect();
        let responses = engine.run_many(tasks).expect("checks run");
        let row: Vec<Option<bool>> = responses
            .iter()
            .map(|r| crowdprompt_core::extract::yes_no(&r.text).ok())
            .collect();
        let correct = row
            .iter()
            .zip(&truth)
            .filter(|(v, t)| v.as_ref() == Some(t))
            .count();
        single_accuracy.push(correct as f64 / n_items as f64);
        votes.push(row);
    }

    // Majority vote.
    let majority: Vec<bool> = (0..n_items)
        .map(|i| {
            let yes = votes.iter().filter(|row| row[i] == Some(true)).count();
            yes * 2 > votes.len()
        })
        .collect();
    let majority_acc =
        majority.iter().zip(&truth).filter(|(a, b)| a == b).count() as f64 / n_items as f64;

    // Dawid–Skene EM.
    let ds = dawid_skene(&votes, 100);
    let ds_acc = ds
        .labels()
        .iter()
        .zip(&truth)
        .filter(|(a, b)| a == b)
        .count() as f64
        / n_items as f64;

    let mut table = Table::new(
        format!(
            "A4 — quality control over {n_items} predicate checks, 3 models of unequal accuracy"
        ),
        &["Method", "Accuracy", "Estimated worker accuracies"],
    );
    for (m, acc) in single_accuracy.iter().enumerate() {
        table.add_row(&[
            format!("model {m} alone (true acc {:.2})", accs[m]),
            format!("{acc:.3}"),
            String::new(),
        ]);
    }
    table.add_row(&[
        "unweighted majority vote".to_owned(),
        format!("{majority_acc:.3}"),
        String::new(),
    ]);
    table.add_row(&[
        "Dawid–Skene EM".to_owned(),
        format!("{ds_acc:.3}"),
        format!(
            "[{}]",
            ds.worker_accuracy
                .iter()
                .map(|a| format!("{a:.2}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ]);
    println!("{}", table.render());
    println!("(EM should match or beat majority vote by weighting the strong model)\n");
}
