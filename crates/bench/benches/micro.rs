//! Criterion micro-benchmarks for the hot substrate primitives.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;

use crowdprompt_core::consistency::{repair_ranking, UnionFind};
use crowdprompt_embed::{BruteForceIndex, Embedder, Metric, NgramEmbedder, Queries, VectorStore};
use crowdprompt_metrics::rank::{kendall_tau_b, kendall_tau_b_reference};
use crowdprompt_oracle::sim::similarity::{levenshtein_similarity, trigram_jaccard};
use crowdprompt_oracle::tokenizer::count_tokens;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn bench_kendall_tau(c: &mut Criterion) {
    let mut group = c.benchmark_group("kendall_tau_b");
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for n in [100usize, 1000, 5000] {
        let x: Vec<f64> = (0..n).map(|_| rng.random_range(0..50) as f64).collect();
        let y: Vec<f64> = (0..n).map(|_| rng.random_range(0..50) as f64).collect();
        group.bench_with_input(BenchmarkId::new("knight_nlogn", n), &n, |b, _| {
            b.iter(|| kendall_tau_b(black_box(&x), black_box(&y)))
        });
        if n <= 1000 {
            group.bench_with_input(BenchmarkId::new("reference_n2", n), &n, |b, _| {
                b.iter(|| kendall_tau_b_reference(black_box(&x), black_box(&y)))
            });
        }
    }
    group.finish();
}

fn bench_knn(c: &mut Criterion) {
    let mut group = c.benchmark_group("knn");
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let n = 2000usize;
    let dims = 64usize;
    let vectors: Vec<f32> = (0..n * dims).map(|_| rng.random_range(-1.0..1.0)).collect();
    let query: Vec<f32> = (0..dims).map(|_| rng.random_range(-1.0..1.0)).collect();
    let brute = BruteForceIndex::from_store(VectorStore::from_flat(vectors, dims), Metric::L2);
    group.bench_function("brute_force_2000x64", |b| {
        b.iter(|| brute.search(Queries::Flat(black_box(&query)), 5))
    });
    group.finish();
}

fn bench_embedder(c: &mut Criterion) {
    let e = NgramEmbedder::ada_like();
    let text = "Ada Abiteboul, Jim Widom. scalable query processing for sensor \
                stream workloads. Proceedings of the VLDB Endowment, 2003.";
    c.bench_function("embed_citation_256d", |b| {
        b.iter(|| e.embed(black_box(text)))
    });
}

fn bench_tokenizer(c: &mut Criterion) {
    let prompt = "Are Citation A and Citation B the same? Yes or No? ".repeat(40);
    c.bench_function("count_tokens_2k_chars", |b| {
        b.iter(|| count_tokens(black_box(&prompt)))
    });
}

fn bench_similarity(c: &mut Criterion) {
    let a = "indexing the positions of continuously moving objects in databases";
    let b_text = "bindexing the position of continuous moving objects in database";
    c.bench_function("trigram_jaccard", |b| {
        b.iter(|| trigram_jaccard(black_box(a), black_box(b_text)))
    });
    c.bench_function("levenshtein_similarity", |b| {
        b.iter(|| levenshtein_similarity(black_box(a), black_box(b_text)))
    });
}

fn bench_consistency(c: &mut Criterion) {
    let mut group = c.benchmark_group("consistency");
    // Noisy tournament over n items: true order with seeded flips.
    let make_wins = |n: usize, flips: u64| {
        let mut rng = ChaCha8Rng::seed_from_u64(flips);
        let mut flipped = std::collections::HashSet::new();
        for _ in 0..flips {
            let a = rng.random_range(0..n);
            let b = rng.random_range(0..n);
            if a != b {
                flipped.insert((a.min(b), a.max(b)));
            }
        }
        move |a: usize, b: usize| {
            let base = a < b;
            if flipped.contains(&(a.min(b), a.max(b))) {
                !base
            } else {
                base
            }
        }
    };
    let wins12 = make_wins(12, 6);
    group.bench_function("repair_exact_n12", |b| {
        b.iter(|| repair_ranking(12, &wins12, 12))
    });
    let wins100 = make_wins(100, 300);
    group.bench_function("repair_greedy_n100", |b| {
        b.iter(|| repair_ranking(100, &wins100, 12))
    });
    group.bench_function("union_find_10k_unions", |b| {
        b.iter_batched(
            || UnionFind::new(10_000),
            |mut uf| {
                for i in 0..9_999usize {
                    uf.union(black_box(i), black_box(i + 1));
                }
                uf.components()
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_kendall_tau,
    bench_knn,
    bench_embedder,
    bench_tokenizer,
    bench_similarity,
    bench_consistency
);
criterion_main!(benches);
