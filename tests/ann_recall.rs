//! Property tests for the approximate IVF + SQ8 tier against the exact
//! recall oracle (PR 6).
//!
//! The exact [`BruteForceIndex`] is the in-tree oracle: approximation is
//! a *tested* contract, not a vibe. Properties, over random corpora,
//! dimensionalities, and seeds:
//!
//! (a) recall@k against the oracle meets the configured target,
//! (b) returned neighbors exactly obey the ascending-distance /
//!     tie-by-index contract, with distances bit-identical to the
//!     oracle's fused computation for every returned row,
//! (c) `nprobe = centroid_count` degrades to exact results
//!     bit-identically (structurally: the same brute-force code runs).
//!
//! The proptest shim is deterministic per (test name, case index), so
//! these assertions are reproducible, never flaky.

use crowdprompt::embed::{
    BruteForceIndex, IvfIndex, IvfParams, KnnIndex, Metric, Neighbor, Queries, VectorStore,
};
use proptest::prelude::*;

/// Recall@k the property corpora are tuned to meet (clustered data with
/// every query's own cluster probed comfortably clears it; the 1M bench
/// asserts the production 0.95 target on the realistic tier).
const RECALL_TARGET: f64 = 0.90;

/// Deterministic clustered corpus: `n` rows around `centers` well-spread
/// anchor points with small noise — the shape blocking corpora have
/// (near-duplicate records cluster in embedding space).
fn clustered_corpus(n: usize, dims: usize, centers: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let c = (next() as usize) % centers.max(1);
            (0..dims)
                .map(|d| {
                    let anchor = ((c * 37 + d * 11) % 29) as f32;
                    let noise = (next() % 1000) as f32 / 1000.0 - 0.5;
                    anchor + noise * 0.3
                })
                .collect()
        })
        .collect()
}

/// Equal-length rows packed into one flat store.
fn store(rows: Vec<Vec<f32>>) -> VectorStore {
    let dims = rows.first().map_or(0, Vec::len);
    VectorStore::from_flat(rows.concat(), dims)
}

fn build_pair(
    vectors: Vec<Vec<f32>>,
    nlist: usize,
    nprobe: usize,
    seed: u64,
) -> (BruteForceIndex, IvfIndex) {
    let store = store(vectors);
    let exact = BruteForceIndex::from_store(store.clone(), Metric::L2);
    let ivf = IvfIndex::build(
        store,
        Metric::L2,
        IvfParams {
            nlist,
            nprobe,
            rescore: 32,
            train_iters: 4,
            train_sample: 768,
            seed,
        },
    );
    (exact, ivf)
}

/// One free vector's answer from the exact oracle.
fn exact_one(exact: &BruteForceIndex, query: &[f32], k: usize) -> Vec<Neighbor> {
    exact.search(Queries::Flat(query), k).remove(0)
}

/// One free vector's answer from the approximate tier.
fn ivf_one(ivf: &IvfIndex, query: &[f32], k: usize) -> Vec<Neighbor> {
    ivf.search(Queries::Flat(query), k).remove(0)
}

proptest! {
    /// (a) Recall@k against the exact oracle meets the configured target.
    #[test]
    fn recall_meets_target(
        (n, dims, centers) in (400usize..1200, 8usize..40, 4usize..10),
        seed in 0u64..1_000_000,
    ) {
        let vectors = clustered_corpus(n, dims, centers, seed);
        // Probe a third of the lists; one list per latent cluster.
        let (exact, ivf) = build_pair(vectors, centers, centers.div_ceil(3), seed);
        let k = 10;
        let mut hit = 0usize;
        let mut total = 0usize;
        for q in 0..20 {
            let query = exact.store().row((q * 53) % n).to_vec();
            let truth: Vec<usize> = exact_one(&exact, &query, k).iter().map(|h| h.index).collect();
            let got: Vec<usize> = ivf_one(&ivf, &query, k).iter().map(|h| h.index).collect();
            total += truth.len();
            hit += truth.iter().filter(|i| got.contains(i)).count();
        }
        let recall = hit as f64 / total.max(1) as f64;
        prop_assert!(
            recall >= RECALL_TARGET,
            "recall@{k} = {recall} < {RECALL_TARGET} (n={n}, dims={dims}, centers={centers})"
        );
    }

    /// (b) Returned neighbors obey the ascending-distance / tie-by-index
    /// contract, and every returned distance is bit-identical to the
    /// oracle's fused computation for that row.
    #[test]
    fn rescored_results_obey_the_exact_contract(
        (n, dims, centers, k) in (100usize..600, 4usize..32, 2usize..8, 1usize..15),
        seed in 0u64..1_000_000,
    ) {
        let vectors = clustered_corpus(n, dims, centers, seed);
        let (exact, ivf) = build_pair(vectors, centers.max(2), 1, seed);
        for q in 0..8 {
            let query = exact.store().row((q * 97) % n).to_vec();
            let hits = ivf_one(&ivf, &query, k);
            prop_assert!(hits.len() <= k);
            // Strictly ascending under (distance, index): no duplicates.
            for w in hits.windows(2) {
                let asc = w[0].distance < w[1].distance
                    || (w[0].distance == w[1].distance && w[0].index < w[1].index);
                prop_assert!(asc, "contract violated: {:?} then {:?}", w[0], w[1]);
            }
            // Distances are the oracle's own: querying for enough
            // neighbors to cover each returned row must reproduce the
            // exact (distance, index) pair bit-for-bit.
            let oracle = exact_one(&exact, &query, n);
            for h in &hits {
                let reference = oracle
                    .iter()
                    .find(|o| o.index == h.index)
                    .expect("returned row must be oracle-rankable");
                prop_assert_eq!(h.distance.to_bits(), reference.distance.to_bits());
            }
        }
    }

    /// (c) `nprobe = centroid_count` degrades to exact results
    /// bit-identically — same hits, same order, same distance bits.
    #[test]
    fn full_probe_is_bit_identical_to_exact(
        (n, dims, centers, k) in (50usize..500, 2usize..32, 1usize..9, 1usize..12),
        seed in 0u64..1_000_000,
    ) {
        let vectors = clustered_corpus(n, dims, centers, seed);
        let (exact, ivf) = build_pair(vectors, centers, centers, seed);
        for q in 0..10 {
            let query = exact.store().row((q * 41) % n).to_vec();
            let a = ivf_one(&ivf, &query, k);
            let b = exact_one(&exact, &query, k);
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x.index, y.index);
                prop_assert_eq!(x.distance.to_bits(), y.distance.to_bits());
            }
            // And the row form (the row itself left out) too.
            let row = [(q * 41) % n];
            prop_assert_eq!(
                ivf.search(Queries::Rows(&row), k),
                exact.search(Queries::Rows(&row), k)
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Degenerate shapes (IVF path)
// ---------------------------------------------------------------------------

fn small_params(nlist: usize, nprobe: usize) -> IvfParams {
    IvfParams {
        nlist,
        nprobe,
        rescore: 16,
        train_iters: 3,
        train_sample: 256,
        seed: 11,
    }
}

#[test]
fn empty_corpus_yields_no_hits() {
    let ivf = IvfIndex::build(
        VectorStore::from_flat(Vec::new(), 2),
        Metric::L2,
        small_params(4, 2),
    );
    assert!(ivf.is_empty());
    assert!(ivf_one(&ivf, &[1.0, 2.0], 5).is_empty());
    assert!(ivf.search(Queries::Rows(&[]), 5).is_empty());
}

#[test]
fn k_zero_and_k_beyond_corpus() {
    let vectors = clustered_corpus(40, 6, 3, 5);
    let (exact, ivf) = build_pair(vectors, 3, 1, 5);
    let query = exact.store().row(7).to_vec();
    assert!(ivf_one(&ivf, &query, 0).is_empty());
    // k > N falls back to the exact path and returns every row, exactly.
    assert_eq!(ivf_one(&ivf, &query, 100), exact_one(&exact, &query, 100));
}

#[test]
fn all_identical_vectors_collapse_to_one_centroid() {
    let ivf = IvfIndex::build(
        store(vec![vec![3.0, -1.0, 4.0]; 50]),
        Metric::L2,
        small_params(8, 2),
    );
    assert_eq!(ivf.nlist(), 1, "duplicate corpus must train one centroid");
    let hits = ivf_one(&ivf, &[3.0, -1.0, 4.0], 4);
    assert_eq!(
        hits.iter().map(|h| h.index).collect::<Vec<_>>(),
        vec![0, 1, 2, 3],
        "ties break by insertion index"
    );
    assert!(hits.iter().all(|h| h.distance == 0.0));
}

#[test]
fn nan_rows_are_filtered_deterministically() {
    let mut vectors = clustered_corpus(60, 5, 3, 9);
    vectors[10] = vec![f32::NAN; 5];
    vectors[20][2] = f32::NAN;
    let (exact, ivf) = build_pair(vectors, 3, 3, 9);
    let query = exact.store().row(0).to_vec();
    let hits = ivf_one(&ivf, &query, 60);
    assert_eq!(hits.len(), 58, "the two NaN rows are unreachable");
    assert!(hits.iter().all(|h| ![10, 20].contains(&h.index)));
    assert!(hits.iter().all(|h| !h.distance.is_nan()));
    // Identical to the oracle's own filtering (full probe → exact path).
    assert_eq!(hits, exact_one(&exact, &query, 60));
    // A NaN query returns no hits on either path.
    assert!(ivf_one(&ivf, &[f32::NAN; 5], 3).is_empty());
}

#[test]
fn corpus_smaller_than_centroid_count() {
    let vectors = clustered_corpus(5, 4, 2, 13);
    let ivf = IvfIndex::build(store(vectors.clone()), Metric::L2, small_params(64, 16));
    assert!(ivf.nlist() <= 5, "nlist must clamp to the corpus");
    let exact = BruteForceIndex::from_store(store(vectors), Metric::L2);
    let query = exact.store().row(2).to_vec();
    assert_eq!(ivf_one(&ivf, &query, 3), exact_one(&exact, &query, 3));
}

#[test]
fn auto_tuned_routes_by_shape_and_target() {
    // Small corpus: recall target is ignored, exact scan chosen.
    let small = clustered_corpus(500, 40, 4, 1);
    assert_eq!(
        KnnIndex::build(store(small), Metric::L2, Some(0.95)).kind(),
        "brute_force"
    );
    // A recall target >= 1.0 demands exact even at scale (narrow corpus
    // here so the build stays cheap; shape routing is covered in-crate).
    let narrow = clustered_corpus(5000, 8, 4, 2);
    assert_eq!(
        KnnIndex::build(store(narrow), Metric::L2, Some(1.0)).kind(),
        "brute_force"
    );
}
