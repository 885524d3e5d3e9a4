//! Micro-benchmarks for the blocking layer: index build, one query, and
//! the batch-blocking shape through the one `search` entry point.
//!
//! The corpus is ~20k synthetic product records embedded with the
//! ada-like 256-dimension hashed n-gram embedder — the shape every
//! blocking workload (resolve dedup, blocked join, cluster) actually
//! queries.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use crowdprompt_embed::{BruteForceIndex, Embedder, Metric, NgramEmbedder, Queries, VectorStore};

const CORPUS: usize = 20_000;
const QUERIES: usize = 256;
const K: usize = 8;

/// ~`n` synthetic product records with overlapping vocabulary, so the
/// embedding space has realistic near-duplicate structure.
fn synthetic_corpus(n: usize) -> Vec<String> {
    const BRANDS: [&str; 8] = [
        "acme",
        "globex",
        "initech",
        "umbrella",
        "stark",
        "wayne",
        "tyrell",
        "cyberdyne",
    ];
    const NOUNS: [&str; 10] = [
        "widget", "gadget", "sprocket", "fastener", "gizmo", "adapter", "bracket", "coupler",
        "housing", "manifold",
    ];
    const VARIANTS: [&str; 6] = ["retail", "bulk", "boxed", "refurbished", "oem", "deluxe"];
    (0..n)
        .map(|i| {
            format!(
                "{} {} model {:05} ({}) - {} packaging",
                BRANDS[i % BRANDS.len()],
                NOUNS[(i / 3) % NOUNS.len()],
                i % 10_000,
                VARIANTS[(i / 7) % VARIANTS.len()],
                VARIANTS[i % VARIANTS.len()],
            )
        })
        .collect()
}

/// The corpus as the embedding stage hands it off: one flat row-major
/// buffer and its stride.
fn embedded_corpus() -> (Vec<f32>, usize) {
    let embedder = NgramEmbedder::ada_like();
    let texts = synthetic_corpus(CORPUS);
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    (embedder.embed_all_flat(&refs), embedder.dimensions())
}

fn exact_index() -> BruteForceIndex {
    let (flat, dims) = embedded_corpus();
    BruteForceIndex::from_store(VectorStore::from_flat(flat, dims), Metric::L2)
}

/// Index construction from the embedding stage's output (one norms pass in
/// `VectorStore::from_flat`, no repacking).
fn bench_index_build(c: &mut Criterion) {
    let (flat, dims) = embedded_corpus();
    let mut group = c.benchmark_group("embed_index_build_20k");
    group.bench_function("flat_store", |b| {
        b.iter_batched(
            || flat.clone(),
            |data| BruteForceIndex::from_store(VectorStore::from_flat(data, dims), Metric::L2),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// One k-NN query over the 20k corpus: the fused dot-product scan with a
/// bounded top-k heap.
fn bench_single_query(c: &mut Criterion) {
    let fused = exact_index();
    let query = fused.store().row(CORPUS / 2).to_vec();
    let mut group = c.benchmark_group("embed_single_query_20k");
    group.bench_function("fused_heap", |b| {
        b.iter(|| fused.search(Queries::Flat(black_box(&query)), K))
    });
    group.finish();
}

/// Batch blocking: answer `QUERIES` blocking queries over the 20k corpus
/// (the dedup/join shape), as 256 one-row `search` calls and as one
/// 256-row `search` — what the tiled scan buys over a per-record loop
/// (partitioned across whatever cores exist; tiling alone carries the
/// 1-core container).
fn bench_batch_blocking(c: &mut Criterion) {
    let fused = exact_index();
    let dims = fused.store().dims();
    let queries: Vec<f32> = (0..QUERIES)
        .flat_map(|i| fused.store().row(i * (CORPUS / QUERIES)))
        .copied()
        .collect();

    let mut group = c.benchmark_group("embed_batch_blocking_20kx256");
    group.bench_function("fused_sequential_loop", |b| {
        b.iter(|| -> usize {
            queries
                .chunks(dims)
                .map(|q| fused.search(Queries::Flat(black_box(q)), K).len())
                .sum()
        })
    });
    group.bench_function("batched_fused", |b| {
        b.iter(|| fused.search(Queries::Flat(black_box(&queries)), K).len())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_index_build,
    bench_single_query,
    bench_batch_blocking
);
criterion_main!(benches);
