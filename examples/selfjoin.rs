//! What one candidate pair costs in the exact k-NN scans — the numbers
//! behind the `resolve_cold` and `pipeline_warm` claims (ROADMAP item 5):
//! `dot_unrolled_many` on an L1-resident tile of sixteen queries, the
//! kernel call both scans make per stored row; the imputation shape, a
//! `Queries::Flat` batch of 6 000 queries against a 512-row pool, on random
//! rows ("pool") and on ada-like embeddings of restaurant records, 6 062
//! against 512 as `pipeline_warm`'s impute node asks ("ada"); and the
//! whole 4 000 × 4 000 × 256 blocking question asked two ways. "stream"
//! asks every stored row as `Queries::Rows`, which the index answers with
//! the symmetric self-join (n(n−1)/2 dots); "scan" asks the same rows as
//! `Queries::Flat`, which runs the one-directional tiled scan (n² dots).
//! Every line reports nanoseconds per ordered (query, stored row) pair; the
//! two imputation lines also report the share of pairs that reach the
//! lane-contract kernel, the rest ruled out by the scan's 8-bit filter
//! (100 % on a CPU without AVX-512 VNNI, where the filter does not run).
//! The example exits non-zero if either imputation batch differs in any bit
//! from its queries asked one at a time, or the self-join from the tiled
//! scan.
//!
//! Run with: `cargo run --release --example selfjoin`
//!
//! Each figure is the minimum of ten repetitions on one thread. A shared
//! host moves the same binary by tens of percent within minutes, so to
//! compare two builds run them alternately, never one after the other's
//! numbers were taken. The first line names the kernel tier the CPU runs
//! (AVX-512F, AVX2 or portable), so that figures from two hosts are
//! compared only tier for tier.

use std::hint::black_box;
use std::time::Instant;

use crowdprompt::data::products;
use crowdprompt::embed::vector::dot_unrolled_many;
use crowdprompt::embed::{
    embed_all_flat_with_workers, BruteForceIndex, Embedder, Metric, Neighbor, NgramEmbedder,
    Queries, VectorStore,
};

const DIMS: usize = 256;
const ROWS: usize = 4_000;
/// Neighbours per row, as `resolve_cold`'s blocking asks.
const K: usize = 2;
const TILE: usize = 16;
/// The imputation shape: labeled pool rows, records asked against it,
/// and neighbours per record.
const POOL: usize = 512;
const RECORDS: usize = 6_000;
const POOL_K: usize = 3;
/// Records `pipeline_warm`'s impute node asks against its pool at seed 11.
const ADA_RECORDS: usize = 6_062;
const REPS: usize = 10;

/// `rows` deterministic rows in `[-1, 1)` (SplitMix64), flat row-major.
fn corpus(rows: usize, seed: u64) -> Vec<f32> {
    let mut state = seed;
    (0..rows * DIMS)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect()
}

/// The dot-kernel tier `vector.rs` dispatches to on this CPU, by the same
/// runtime test.
fn kernel_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return if std::arch::is_x86_feature_detected!("avx512f") {
            "avx512f"
        } else {
            "avx2"
        };
    }
    "portable"
}

/// Minimum over [`REPS`] runs of `work`, in nanoseconds per pair.
fn ns_per_pair(pairs: usize, mut work: impl FnMut()) -> f64 {
    (0..REPS)
        .map(|_| {
            let start = Instant::now();
            work();
            start.elapsed().as_secs_f64() * 1e9 / pairs as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Every answer as `(index, distance bits)`.
fn bits(hits: &[Neighbor]) -> Vec<(usize, u32)> {
    hits.iter()
        .map(|h| (h.index, h.distance.to_bits()))
        .collect()
}

/// Time the imputation shape, `records` asked as one `Flat` batch against
/// `pool`; print its cost a pair and the share of pairs that reach the
/// lane-contract kernel; exit 1 if a record's answer differs in a bit from
/// the record asked alone.
fn impute_shape(name: &str, pool: &BruteForceIndex, records: &[f32]) {
    let dims = pool.store().dims();
    let count = records.len() / dims;
    let (mut imputed, mut refined) = (Vec::new(), 0);
    let ns = ns_per_pair(count * POOL, || {
        (imputed, refined) = pool.scan_counting(Queries::Flat(records), POOL_K);
    });
    let share = 100.0 * refined as f64 / (count * POOL) as f64;
    println!(
        "{name} {count} x {POOL} flat,     k={POOL_K}   {ns:6.2} ns/pair, {share:5.1} % of pairs to the f32 kernel"
    );
    if imputed.len() != count {
        eprintln!("{name}: {} answers for {count} records", imputed.len());
        std::process::exit(1);
    }
    for (r, (record, hits)) in records.chunks(dims).zip(&imputed).enumerate() {
        let alone = pool.search_with_workers(Queries::Flat(record), POOL_K, 1);
        if bits(hits) != bits(&alone[0]) {
            eprintln!("{name} record {r}: batch {hits:?} != alone {:?}", alone[0]);
            std::process::exit(1);
        }
    }
}

fn main() {
    println!("kernels {}", kernel_tier());
    let index = BruteForceIndex::from_store(
        VectorStore::from_flat(corpus(ROWS, 0x9E37_79B9_7F4A_7C15), DIMS),
        Metric::L2,
    );
    let rows: Vec<&[f32]> = (0..ROWS).map(|i| index.store().row(i)).collect();

    let (tile, row) = (&rows[..TILE], rows[TILE]);
    let mut dots = [0.0f32; TILE];
    let passes = 20_000;
    let tile_ns = ns_per_pair(passes * TILE, || {
        for _ in 0..passes {
            dot_unrolled_many(black_box(row), black_box(tile), &mut dots);
            black_box(&mut dots);
        }
    });
    println!("tile   1x{TILE} L1-resident         {tile_ns:6.2} ns/pair");

    let pool = BruteForceIndex::from_store(
        VectorStore::from_flat(index.store().as_flat()[..POOL * DIMS].to_vec(), DIMS),
        Metric::L2,
    );
    impute_shape("pool  ", &pool, &corpus(RECORDS, 7));

    // The pool and records `pipeline_warm` embeds: restaurant records as
    // ada-like n-gram vectors, the first `POOL` the labelled pool.
    let data = products::restaurants(POOL + ADA_RECORDS, 11);
    let texts: Vec<&str> = data.records.iter().map(|&id| data.text(id)).collect();
    let embedder = NgramEmbedder::ada_like();
    let dims = embedder.dimensions();
    let flat = embed_all_flat_with_workers(&embedder, &texts, 1);
    let (labelled, records) = flat.split_at(POOL * dims);
    let ada =
        BruteForceIndex::from_store(VectorStore::from_flat(labelled.to_vec(), dims), Metric::L2);
    impute_shape("ada   ", &ada, records);

    let every_row: Vec<usize> = (0..ROWS).collect();
    let mut joined = Vec::new();
    let stream_ns = ns_per_pair(ROWS * ROWS, || {
        joined = index.search_with_workers(Queries::Rows(&every_row), K, 1);
    });
    println!("stream {ROWS} x {ROWS} self-join, k={K} {stream_ns:6.2} ns/pair");

    // A free query's answer holds its own row, so ask one more and drop it.
    let mut scanned = Vec::new();
    let scan_ns = ns_per_pair(ROWS * ROWS, || {
        scanned = index.search_with_workers(Queries::Flat(index.store().as_flat()), K + 1, 1);
    });
    println!("scan   {ROWS} x {ROWS} tiled,  k={K}+1 {scan_ns:6.2} ns/pair");

    if joined.len() != ROWS || scanned.len() != ROWS {
        eprintln!(
            "{} self-join and {} scan answers for {ROWS} rows",
            joined.len(),
            scanned.len()
        );
        std::process::exit(1);
    }
    for (row, (join, scan)) in joined.iter().zip(&scanned).enumerate() {
        let mut scan = scan.clone();
        scan.retain(|h| h.index != row);
        scan.truncate(K);
        if bits(join) != bits(&scan) {
            eprintln!("row {row}: self-join {join:?} != tiled scan {scan:?}");
            std::process::exit(1);
        }
    }
}
