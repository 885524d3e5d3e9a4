//! Recall of the exact k-NN index against an independent oracle.
//!
//! [`BruteForceIndex`] does not pay every candidate's dot: its tiled scan
//! drops a candidate on one comparison against its ranking's bound, and
//! with L2 keys on a CPU with AVX-512 VNNI it first rules candidates out
//! on 8-bit codes. Both are pruning steps that may only skip a candidate
//! that could never be returned. These tests check that claim from the
//! outside, over random corpora, dimensionalities and seeds, against an
//! oracle built from the public pieces alone: every stored row's key from
//! [`dot_unrolled`] and [`Metric::rank_key`], NaN keys dropped, sorted by
//! `(key, index)`. Properties:
//!
//! (a) recall@k against the oracle is 1.0, for flat batches (the tiled
//!     scan) and for the every-row batch (the self-join),
//! (b) returned neighbors exactly obey the ascending-distance /
//!     tie-by-index contract, with distances bit-identical to the
//!     oracle's for every returned row.
//!
//! Degenerate shapes follow: an empty corpus, `k = 0`, `k` beyond the
//! corpus, and NaN rows and queries.
//!
//! The proptest shim is deterministic per (test name, case index), so
//! these assertions are reproducible, never flaky.

use crowdprompt::embed::{dot_unrolled, BruteForceIndex, Metric, Neighbor, Queries, VectorStore};
use proptest::prelude::*;

/// Recall@k the index must meet: it is exact, so every pruned candidate
/// must be one the oracle ranks below the `k` kept.
const RECALL_TARGET: f64 = 1.0;

/// Rows of the corpus prefix the self-join property runs on.
const JOIN_ROWS: usize = 160;

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

fn index(vectors: Vec<Vec<f32>>) -> BruteForceIndex {
    BruteForceIndex::from_store(store(vectors), Metric::L2)
}

/// The oracle's `k` nearest rows to `query`, `skip` left out: one key per
/// stored row, computed one row at a time, NaN keys dropped, sorted by
/// `(key, index)`.
fn oracle(index: &BruteForceIndex, query: &[f32], k: usize, skip: Option<usize>) -> Vec<Neighbor> {
    let metric = index.metric();
    let store = index.store();
    let query_norm_sq = dot_unrolled(query, query);
    let mut keyed: Vec<(f32, usize)> = (0..store.len())
        .filter(|&i| Some(i) != skip)
        .map(|i| {
            let dot = dot_unrolled(query, store.row(i));
            (metric.rank_key(dot, query_norm_sq, store.norm_sq(i)), i)
        })
        .filter(|(key, _)| !key.is_nan())
        .collect();
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    keyed
        .into_iter()
        .take(k)
        .map(|(key, index)| Neighbor {
            index,
            distance: metric.key_to_distance(key),
        })
        .collect()
}

/// One free vector's answer from the index.
fn search_one(index: &BruteForceIndex, query: &[f32], k: usize) -> Vec<Neighbor> {
    index.search(Queries::Flat(query), k).remove(0)
}

/// Shares of `truth`'s rows found in `got`, summed over the batch.
fn recall(truth: &[Vec<Neighbor>], got: &[Vec<Neighbor>]) -> f64 {
    let mut hit = 0usize;
    let mut total = 0usize;
    for (t, g) in truth.iter().zip(got) {
        total += t.len();
        hit += t
            .iter()
            .filter(|n| g.iter().any(|h| h.index == n.index))
            .count();
    }
    hit as f64 / total.max(1) as f64
}

proptest! {
    /// (a) Recall@k against the oracle meets the target, for a flat batch
    /// of more than one query tile and for the every-row self-join.
    #[test]
    fn recall_meets_target(
        (n, dims, centers) in (400usize..1200, 8usize..40, 4usize..10),
        seed in 0u64..1_000_000,
    ) {
        let index = index(clustered_corpus(n, dims, centers, seed));
        let k = 10;
        let queries: Vec<usize> = (0..20).map(|q| (q * 53) % n).collect();
        let flat: Vec<f32> = queries
            .iter()
            .flat_map(|&r| index.store().row(r).to_vec())
            .collect();
        let got = index.search(Queries::Flat(&flat), k);
        let truth: Vec<Vec<Neighbor>> = queries
            .iter()
            .map(|&r| oracle(&index, index.store().row(r), k, None))
            .collect();
        let flat_recall = recall(&truth, &got);
        prop_assert!(
            flat_recall >= RECALL_TARGET,
            "flat recall@{k} = {flat_recall} < {RECALL_TARGET} (n={n}, dims={dims}, centers={centers})"
        );

        // The self-join is quadratic in its corpus: it runs on a prefix of
        // the rows, still many query tiles wide.
        let m = n.min(JOIN_ROWS);
        let prefix = BruteForceIndex::from_store(
            VectorStore::from_flat(index.store().as_flat()[..m * dims].to_vec(), dims),
            Metric::L2,
        );
        let every_row: Vec<usize> = (0..m).collect();
        let joined = prefix.search(Queries::Rows(&every_row), k);
        let truth: Vec<Vec<Neighbor>> = (0..m)
            .map(|r| oracle(&prefix, prefix.store().row(r), k, Some(r)))
            .collect();
        let join_recall = recall(&truth, &joined);
        prop_assert!(
            join_recall >= RECALL_TARGET,
            "self-join recall@{k} = {join_recall} < {RECALL_TARGET} (n={n}, dims={dims}, centers={centers})"
        );
    }

    /// (b) Returned neighbors obey the ascending-distance / tie-by-index
    /// contract, and every returned distance is bit-identical to the
    /// oracle's for that row.
    #[test]
    fn rescored_results_obey_the_exact_contract(
        (n, dims, centers, k) in (100usize..600, 4usize..32, 2usize..8, 1usize..15),
        seed in 0u64..1_000_000,
    ) {
        let index = index(clustered_corpus(n, dims, centers, seed));
        for q in 0..8 {
            let query = index.store().row((q * 97) % n).to_vec();
            let hits = search_one(&index, &query, k);
            prop_assert_eq!(hits.len(), k.min(n));
            // Strictly ascending under (distance, index): no duplicates.
            for w in hits.windows(2) {
                let asc = w[0].distance < w[1].distance
                    || (w[0].distance == w[1].distance && w[0].index < w[1].index);
                prop_assert!(asc, "contract violated: {:?} then {:?}", w[0], w[1]);
            }
            // Distances are the oracle's own: ranking every row must
            // reproduce each returned (distance, index) pair bit-for-bit.
            let every = oracle(&index, &query, n, None);
            for h in &hits {
                let reference = every
                    .iter()
                    .find(|o| o.index == h.index)
                    .expect("returned row must be oracle-rankable");
                prop_assert_eq!(h.distance.to_bits(), reference.distance.to_bits());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Degenerate shapes
// ---------------------------------------------------------------------------

#[test]
fn empty_corpus_yields_no_hits() {
    let index = BruteForceIndex::from_store(VectorStore::from_flat(Vec::new(), 2), Metric::L2);
    assert!(index.is_empty());
    assert!(search_one(&index, &[1.0, 2.0], 5).is_empty());
    assert!(index.search(Queries::Rows(&[]), 5).is_empty());
}

#[test]
fn k_zero_and_k_beyond_corpus() {
    let index = index(clustered_corpus(40, 6, 3, 5));
    let query = index.store().row(7).to_vec();
    assert!(search_one(&index, &query, 0).is_empty());
    // k > N returns every row, in the oracle's order, bit for bit.
    let all = search_one(&index, &query, 100);
    assert_eq!(all.len(), 40);
    assert_eq!(all, oracle(&index, &query, 100, None));
    // The row form leaves the row itself out.
    let row = index.search(Queries::Rows(&[7]), 100).remove(0);
    assert_eq!(row.len(), 39);
    assert_eq!(row, oracle(&index, &query, 100, Some(7)));
}

#[test]
fn nan_rows_are_filtered_deterministically() {
    let mut vectors = clustered_corpus(60, 5, 3, 9);
    vectors[10] = vec![f32::NAN; 5];
    vectors[20][2] = f32::NAN;
    let index = index(vectors);
    let query = index.store().row(0).to_vec();
    let hits = search_one(&index, &query, 60);
    assert_eq!(hits.len(), 58, "the two NaN rows are unreachable");
    assert!(hits.iter().all(|h| ![10, 20].contains(&h.index)));
    assert!(hits.iter().all(|h| !h.distance.is_nan()));
    // Identical to the oracle's own filtering.
    assert_eq!(hits, oracle(&index, &query, 60, None));
    // A NaN query returns no hits.
    assert!(search_one(&index, &[f32::NAN; 5], 3).is_empty());
}
