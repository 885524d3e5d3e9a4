//! Integration tests asserting the *shape* of each paper table at reduced
//! scale: who wins, by roughly what factor, and where the trade-offs fall.
//! The full-scale regenerations live in `crowdprompt-bench` (`table1`–`table4`).

use std::sync::Arc;

use crowdprompt::data::products::{buy, restaurants};
use crowdprompt::data::{CitationDataset, CitationParams, FlavorDataset, WordsDataset};
use crowdprompt::metrics::rank::kendall_tau_b_rankings;
use crowdprompt::metrics::BinaryConfusion;
use crowdprompt::oracle::world::ItemId;
use crowdprompt::prelude::*;

fn session_over(
    profile: ModelProfile,
    world: &crowdprompt::oracle::WorldModel,
    items: &[ItemId],
    seed: u64,
    criterion: &str,
) -> Session {
    let llm = SimulatedLlm::new(profile, Arc::new(world.clone()), seed);
    Session::builder()
        .client(Arc::new(LlmClient::new(Arc::new(llm))))
        .corpus(Corpus::from_world(world, items))
        .budget(Budget::Unlimited)
        .seed(seed)
        .criterion(criterion)
        .build()
}

/// Plan and run `query`, as one cost-annotated outcome.
fn run<T>(session: &Session, query: Query, value: impl FnOnce(PlanOutput) -> T) -> Outcome<T> {
    let plan = session.plan(query).unwrap();
    plan.execute(session).unwrap().into_outcome(value)
}

/// Sort every item of `items` under `criterion` and `strategy`.
fn sort(
    session: &Session,
    items: &[ItemId],
    criterion: SortCriterion,
    strategy: &SortStrategy,
) -> Outcome<SortResult> {
    let query = session.query(items).sort_with(criterion, strategy.clone());
    run(session, query, |out| match out {
        PlanOutput::Sorted(sorted) => sorted,
        other => panic!("a sort node returns its sort result, got {other:?}"),
    })
}

#[test]
fn table1_shape_pairwise_beats_rating_beats_single_on_average() {
    let trials = 4;
    let mut tau = [0.0f64; 3];
    let mut tokens = [0u64; 3];
    for t in 0..trials {
        let data = FlavorDataset::paper(100 + t);
        let session = session_over(
            ModelProfile::gpt35_like(),
            &data.world,
            &data.items,
            100 + t,
            "by how chocolatey they are",
        );
        for (i, strategy) in [
            SortStrategy::SinglePrompt,
            SortStrategy::Rating {
                scale_min: 1,
                scale_max: 7,
            },
            SortStrategy::Pairwise,
        ]
        .iter()
        .enumerate()
        {
            let out = sort(&session, &data.items, SortCriterion::LatentScore, strategy);
            tau[i] += kendall_tau_b_rankings(&out.value.order, &data.gold).unwrap();
            tokens[i] += u64::from(out.usage.total());
        }
    }
    // Accuracy ordering: pairwise clearly on top; rating >= single-prompt
    // within noise.
    assert!(
        tau[2] > tau[1] + 0.1 * trials as f64,
        "pairwise {:.3} should clearly beat rating {:.3}",
        tau[2],
        tau[1]
    );
    assert!(
        tau[1] > tau[0] - 0.15 * trials as f64,
        "rating {:.3} should be at least comparable to single-prompt {:.3}",
        tau[1],
        tau[0]
    );
    // Cost ordering is strict and large.
    assert!(
        tokens[2] > tokens[1] * 4,
        "pairwise is order-of-magnitude pricier"
    );
    assert!(tokens[1] > tokens[0], "rating costs more than one prompt");
}

#[test]
fn table2_shape_sort_then_insert_repairs_omissions() {
    let mut baseline_missing = 0usize;
    let mut hybrid_tau_sum = 0.0;
    let trials = 3;
    for t in 0..trials {
        let data = WordsDataset::paper(200 + t);
        let session = session_over(
            ModelProfile::claude2_like(),
            &data.world,
            &data.items,
            200 + t,
            "in alphabetical order",
        );
        let base = sort(
            &session,
            &data.items,
            SortCriterion::Lexicographic,
            &SortStrategy::SinglePrompt,
        );
        baseline_missing += base.value.missing;
        let hybrid = sort(
            &session,
            &data.items,
            SortCriterion::Lexicographic,
            &SortStrategy::SortThenInsert,
        );
        hybrid_tau_sum += kendall_tau_b_rankings(&hybrid.value.order, &data.gold).unwrap();
        // The hybrid's output is complete.
        assert_eq!(hybrid.value.order.len(), data.items.len());
    }
    assert!(
        baseline_missing as u64 >= trials,
        "baseline should drop words: {baseline_missing} over {trials} trials"
    );
    let avg = hybrid_tau_sum / trials as f64;
    assert!(avg > 0.97, "hybrid tau {avg:.3} should be near-perfect");
}

#[test]
fn table3_shape_transitivity_raises_recall_and_f1() {
    let params = CitationParams {
        n_pairs: 1200,
        n_entities: 600,
        ..CitationParams::paper_scale()
    };
    let data = CitationDataset::generate(&params, 11);
    let session = session_over(
        ModelProfile::gpt35_like(),
        &data.world,
        &data.mentions,
        11,
        "as citations",
    );
    let questions: Vec<(ItemId, ItemId)> = data.pairs.iter().map(|(a, b, _)| (*a, *b)).collect();
    let gold: Vec<bool> = data.pairs.iter().map(|(_, _, d)| *d).collect();

    let score = |verdicts: &[bool]| {
        let c = BinaryConfusion::from_pairs(verdicts, &gold);
        (
            c.f1().unwrap_or(0.0),
            c.recall().unwrap_or(0.0),
            c.precision().unwrap_or(0.0),
        )
    };
    let resolve = |strategy: ResolveStrategy| {
        let query = session
            .query(&data.mentions)
            .resolve_pairs(questions.clone(), strategy);
        run(&session, query, |out| out.verdicts().unwrap().to_vec())
    };
    let base = resolve(ResolveStrategy::Pairwise);
    let aug = resolve(ResolveStrategy::TransitivityAugmented { k: 2 });
    let (f1_b, rec_b, prec_b) = score(&base.value);
    let (f1_a, rec_a, prec_a) = score(&aug.value);

    assert!(f1_a > f1_b + 0.02, "F1 {f1_b:.3} -> {f1_a:.3} should rise");
    assert!(
        rec_a > rec_b + 0.03,
        "recall {rec_b:.3} -> {rec_a:.3} should rise"
    );
    assert!(
        prec_a > prec_b - 0.08,
        "precision {prec_b:.3} -> {prec_a:.3} should dip only slightly"
    );
    // Baseline is high-precision / low-recall like the paper's.
    assert!(prec_b > 0.85, "baseline precision {prec_b:.3}");
    assert!(rec_b < 0.7, "baseline recall {rec_b:.3}");
    assert!(aug.calls > base.calls, "expansion costs more calls");
}

#[test]
fn table4_shape_hybrid_matches_llm_at_half_cost() {
    for (data, tag) in [(restaurants(250, 31), "restaurants"), (buy(250, 32), "buy")] {
        let session = session_over(
            ModelProfile::claude2_like(),
            &data.world,
            &data.records,
            33,
            tag,
        );
        let labeled: Vec<(ItemId, String)> = data
            .records
            .iter()
            .map(|id| (*id, data.gold_value(*id).to_owned()))
            .collect();
        let impute = |strategy: ImputeStrategy| {
            let query = session.query(&data.records).impute_with(
                data.target.as_str(),
                labeled.clone(),
                strategy,
            );
            run(&session, query, |out| out.values().unwrap().to_vec())
        };
        let accuracy = |values: &[String]| {
            values
                .iter()
                .zip(&data.records)
                .filter(|(v, id)| v.as_str() == data.gold_value(**id))
                .count() as f64
                / data.records.len() as f64
        };
        let knn = impute(ImputeStrategy::KnnOnly { k: 3 });
        let hybrid = impute(ImputeStrategy::Hybrid { k: 3, shots: 3 });
        let llm_only = impute(ImputeStrategy::LlmOnly { shots: 3 });

        assert_eq!(knn.usage.total(), 0, "{tag}: k-NN must be free");
        assert!(
            accuracy(&hybrid.value) > accuracy(&knn.value),
            "{tag}: hybrid should beat naive k-NN"
        );
        assert!(
            accuracy(&hybrid.value) > accuracy(&llm_only.value) - 0.08,
            "{tag}: hybrid should be within a few points of LLM-only"
        );
        let ratio = hybrid.usage.total() as f64 / llm_only.usage.total() as f64;
        assert!(
            (0.2..=0.75).contains(&ratio),
            "{tag}: hybrid should save roughly half the tokens (ratio {ratio:.2})"
        );
    }
}
