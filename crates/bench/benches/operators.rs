//! Criterion benchmarks for end-to-end operator throughput against the
//! simulator (measures engine overhead: templating, extraction, budget
//! accounting, dispatch — not network latency).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use crowdprompt_core::ops::impute::ImputeStrategy;
use crowdprompt_core::ops::resolve::ResolveStrategy;
use crowdprompt_core::ops::sort::SortStrategy;
use crowdprompt_core::{Budget, Corpus, Session};
use crowdprompt_data::products::restaurants;
use crowdprompt_data::{CitationDataset, CitationParams, FlavorDataset};
use crowdprompt_oracle::task::SortCriterion;
use crowdprompt_oracle::world::ItemId;
use crowdprompt_oracle::{LlmClient, ModelProfile, SimulatedLlm};

fn session_for(
    world: &crowdprompt_oracle::WorldModel,
    items: &[ItemId],
    criterion_label: &str,
) -> Session {
    let corpus = Corpus::from_world(world, items);
    let llm = SimulatedLlm::new(ModelProfile::gpt35_like(), Arc::new(world.clone()), 7);
    // No response cache: we want steady-state per-call engine cost.
    let client = LlmClient::new(Arc::new(llm)).without_cache();
    Session::builder()
        .client(Arc::new(client))
        .corpus(corpus)
        .budget(Budget::Unlimited)
        .parallelism(4)
        .criterion(criterion_label)
        .build()
}

fn bench_sort_strategies(c: &mut Criterion) {
    let data = FlavorDataset::paper(3);
    let session = session_for(&data.world, &data.items, "by how chocolatey they are");
    let mut group = c.benchmark_group("sort_20_flavors");
    group.sample_size(20);
    for (name, strategy) in [
        ("single_prompt", SortStrategy::SinglePrompt),
        (
            "rating",
            SortStrategy::Rating {
                scale_min: 1,
                scale_max: 7,
            },
        ),
        ("pairwise_190_calls", SortStrategy::Pairwise),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                session
                    .sort(
                        black_box(&data.items),
                        SortCriterion::LatentScore,
                        &strategy,
                    )
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_resolve(c: &mut Criterion) {
    let params = CitationParams {
        n_pairs: 100,
        n_entities: 120,
        ..CitationParams::small()
    };
    let data = CitationDataset::generate(&params, 5);
    let session = session_for(&data.world, &data.mentions, "as citations");
    let questions: Vec<(ItemId, ItemId)> = data.pairs.iter().map(|(a, b, _)| (*a, *b)).collect();
    let mut group = c.benchmark_group("resolve_100_pairs");
    group.sample_size(20);
    group.bench_function("pairwise_baseline", |b| {
        b.iter(|| {
            session
                .resolve_pairs(black_box(&questions), &ResolveStrategy::Pairwise, None)
                .unwrap()
        })
    });
    let index = session.blocking_index(&data.mentions).unwrap();
    group.bench_function("transitivity_k1", |b| {
        b.iter(|| {
            session
                .resolve_pairs(
                    black_box(&questions),
                    &ResolveStrategy::TransitivityAugmented { k: 1 },
                    Some(&index),
                )
                .unwrap()
        })
    });
    group.finish();
}

fn bench_impute(c: &mut Criterion) {
    let data = restaurants(100, 9);
    let session = session_for(&data.world, &data.records, "restaurants");
    let labeled: Vec<(ItemId, String)> = data
        .records
        .iter()
        .map(|id| (*id, data.gold_value(*id).to_owned()))
        .collect();
    let pool = session.labeled_pool(&labeled).unwrap();
    let mut group = c.benchmark_group("impute_100_records");
    group.sample_size(20);
    for (name, strategy) in [
        ("knn_only", ImputeStrategy::KnnOnly { k: 3 }),
        ("hybrid_0shot", ImputeStrategy::Hybrid { k: 3, shots: 0 }),
        ("llm_only_0shot", ImputeStrategy::LlmOnly { shots: 0 }),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                session
                    .impute(black_box(&data.records), "city", &pool, &strategy)
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sort_strategies, bench_resolve, bench_impute);
criterion_main!(benches);
