//! What one candidate pair costs in the exact blocking scan — the numbers
//! behind the `resolve_cold` claim (ROADMAP item 5(i)): the 1×N dot kernel
//! on an L1-resident query tile, the 1×1 kernel over a 512-row pool (the
//! imputation shape), and the whole 4 000 × 4 000 × 256 self-join.
//!
//! Run with: `cargo run --release --example selfjoin`
//!
//! Each figure is the minimum of ten repetitions on one thread. A shared
//! host moves the same binary by tens of percent within minutes, so to
//! compare two builds run them alternately, never one after the other's
//! numbers were taken.

use std::hint::black_box;
use std::time::Instant;

use crowdprompt::embed::vector::dot_unrolled_many;
use crowdprompt::embed::{dot_unrolled, BruteForceIndex, Metric, Queries, VectorStore};

const DIMS: usize = 256;
const ROWS: usize = 4_000;
const TILE: usize = 16;
const POOL: usize = 512;
const REPS: usize = 10;

/// Deterministic rows in `[-1, 1)` (SplitMix64), flat row-major.
fn corpus() -> Vec<f32> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..ROWS * DIMS)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect()
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

fn main() {
    let index = BruteForceIndex::from_store(VectorStore::from_flat(corpus(), DIMS), Metric::L2);
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

    let passes = 400;
    let pool_ns = ns_per_pair(passes * POOL, || {
        for _ in 0..passes {
            for r in &rows[..POOL] {
                black_box(dot_unrolled(black_box(row), r));
            }
        }
    });
    println!("pool   1x1 over {POOL} rows        {pool_ns:6.2} ns/pair");

    let every_row: Vec<usize> = (0..ROWS).collect();
    let stream_ns = ns_per_pair(ROWS * ROWS, || {
        black_box(index.search_with_workers(Queries::Rows(&every_row), 2, 1));
    });
    println!("stream {ROWS} x {ROWS} self-join, k=2 {stream_ns:6.2} ns/pair");
}
