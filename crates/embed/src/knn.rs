//! Exact k-nearest-neighbor search: the brute-force index and the
//! auto-selecting [`KnnIndex`].
//!
//! One layout in, one question asked. Vectors live in a flat
//! [`VectorStore`] (one `Vec<f32>` plus stride, with precomputed squared
//! norms) and every index answers exactly one query method,
//! `search(queries, k)`, over a batch that is either [`Queries::Rows`] —
//! rows of the index's own store, each left out of its own answer (the
//! self-join every blocking operator runs) — or [`Queries::Flat`] — `dims`
//! floats per query in one row-major buffer, so a single vector is a
//! one-row batch. The batch is cut into one contiguous chunk per worker;
//! [`BruteForceIndex`] answers a chunk with the *tiled scan* (up to
//! [`QUERY_TILE`] queries per pass over the store) and
//! [`crate::ivf::IvfIndex`] with one probe–rescore per query. Neither the
//! chunking nor the tiling changes a result, only wall-clock time.
//!
//! The scan has one *fused* distance path: every candidate costs exactly
//! one dot product, because with stored norms both metrics reduce to it
//! (`‖q − v‖² = ‖q‖² + ‖v‖² − 2⟨q,v⟩`; `1 − cos = 1 − ⟨q,v⟩ / (‖q‖‖v‖)`).
//! Candidates are ranked by a monotone *key* (squared distance for L2) in
//! a bounded top-k structure, so a query is `O(n·d + n·log k)` with no
//! per-query `O(n)` allocation — the seed implementation materialized and
//! sorted all `n` distances. Once a ranking is full it caches its worst
//! kept key as a `bound`, and a candidate whose key is *greater* is dropped
//! on that one comparison (`k·ln(n/k)` of `n` candidates get further). The
//! test is sufficient, not necessary: an equal key is a tie that the index
//! decides, and a NaN key compares false, so both go on to the exact
//! `(key, index)` order.
//!
//! Determinism contract: results ascend by distance, ties broken by
//! insertion index, and a query containing NaN returns no hits. Candidates
//! whose distance is NaN are never ranked (the seed fed them to
//! `partial_cmp(..).unwrap_or(Equal)`, scrambling the order):
//! [`BruteForceIndex`] deterministically filters NaN *stored* rows out of
//! its results.

use crate::store::VectorStore;
use crate::vector::{cosine_similarity, dot_unrolled, dot_unrolled_many, l2_distance};

/// Distance metric for neighbor search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Metric {
    /// Euclidean distance (what the paper's Table 3 study uses).
    #[default]
    L2,
    /// `1 - cosine similarity` (a proper distance on the unit sphere).
    Cosine,
}

impl Metric {
    /// Distance between two vectors under this metric (reference path; the
    /// indexes use the fused [`Metric::rank_key`] path instead).
    pub fn distance(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::L2 => l2_distance(a, b),
            Metric::Cosine => 1.0 - cosine_similarity(a, b),
        }
    }

    /// The scan's ranking key for one candidate, computed from the fused
    /// quantities: the query/candidate dot product and both squared norms.
    ///
    /// The key is a monotone transform of the metric's distance (squared
    /// distance for [`Metric::L2`], the distance itself for
    /// [`Metric::Cosine`]), so ranking by key ranks by distance while
    /// skipping the per-candidate square root. Recover the distance with
    /// [`Metric::key_to_distance`]. Exposed so tests and benchmarks can
    /// replicate the index computation bit-for-bit.
    pub fn rank_key(&self, dot: f32, query_norm_sq: f32, stored_norm_sq: f32) -> f32 {
        match self {
            Metric::L2 => query_norm_sq + stored_norm_sq - 2.0 * dot,
            Metric::Cosine => {
                let denom = query_norm_sq.sqrt() * stored_norm_sq.sqrt();
                if denom == 0.0 {
                    // Matches `cosine_similarity`'s zero-vector convention.
                    1.0
                } else {
                    1.0 - (dot / denom).clamp(-1.0, 1.0)
                }
            }
        }
    }

    /// Convert a [`Metric::rank_key`] back into the metric's distance.
    pub fn key_to_distance(&self, key: f32) -> f32 {
        match self {
            // max(0) guards tiny negative keys from floating-point
            // cancellation in `qq + bb - 2·dot`.
            Metric::L2 => key.max(0.0).sqrt(),
            Metric::Cosine => key,
        }
    }
}

/// One search hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the hit in the order vectors were added to the index.
    pub index: usize,
    /// Distance from the query.
    pub distance: f32,
}

/// Total order on `(key, insertion index)` used by every ranking path:
/// ascending key, ties broken by ascending index. `total_cmp` keeps NaN
/// out of `unwrap_or(Equal)` territory (NaN keys are filtered before
/// ranking anyway).
pub(crate) fn key_cmp(a: (f32, usize), b: (f32, usize)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// A batch of queries for an index's `search`.
#[derive(Debug, Clone, Copy)]
pub enum Queries<'a> {
    /// Rows of the index's own store. Each row is left out of its own
    /// answer inside the scan ("the neighbours of a record already
    /// indexed"), and no query vector is copied.
    Rows(&'a [usize]),
    /// `dims` floats per query in one row-major buffer (the layout
    /// [`crate::hashing::Embedder::embed_all_flat`] writes); a single
    /// vector is a one-row batch. Nothing is left out of an answer.
    Flat(&'a [f32]),
}

impl<'a> Queries<'a> {
    /// How many queries this is against a store of `dims` dimensions.
    ///
    /// # Panics
    /// Panics if a non-empty flat buffer is not a whole number of
    /// `dims`-wide rows.
    pub(crate) fn count(self, dims: usize) -> usize {
        match self {
            Queries::Rows(rows) => rows.len(),
            Queries::Flat([]) => 0,
            Queries::Flat(flat) => {
                assert!(
                    dims > 0 && flat.len().is_multiple_of(dims),
                    "flat query buffer of {} floats is not a whole number of {dims}-dimension rows",
                    flat.len()
                );
                flat.len() / dims
            }
        }
    }

    /// The `i`-th query vector and the stored row its answer leaves out.
    ///
    /// # Panics
    /// Panics if a row query is out of the store's bounds.
    pub(crate) fn get(self, store: &'a VectorStore, i: usize) -> (&'a [f32], Option<usize>) {
        match self {
            Queries::Rows(rows) => (store.row(rows[i]), Some(rows[i])),
            Queries::Flat(flat) => {
                let dims = store.dims();
                (&flat[i * dims..(i + 1) * dims], None)
            }
        }
    }
}

/// Worker count for a batch: threading only pays off when the total scan
/// volume dwarfs spawn cost; small workloads run inline (results are
/// identical either way).
pub(crate) fn auto_workers(queries: usize, corpus: usize) -> usize {
    if queries.saturating_mul(corpus) < 1 << 14 {
        1
    } else {
        std::thread::available_parallelism().map_or(1, usize::from)
    }
}

// ---------------------------------------------------------------------------
// Bounded top-k
// ---------------------------------------------------------------------------

/// A candidate in the bounded top-k heap, ordered by `(key, index)` with
/// the *worst* candidate at the top (max-heap), so a full heap evicts its
/// worst member in `O(log k)` when a better candidate arrives.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    pub(crate) key: f32,
    pub(crate) index: usize,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        key_cmp((self.key, self.index), (other.key, other.index))
    }
}

/// Keep the `k` best `(key, index)` candidates seen so far.
///
/// Replaces the seed's materialize-all-then-sort: `O(n log k)` comparisons
/// and `O(k)` memory instead of `O(n log n)` and `O(n)`.
pub(crate) struct TopK {
    heap: std::collections::BinaryHeap<Candidate>,
    k: usize,
    /// The worst kept key once the heap is full, `+∞` before. A key
    /// *greater* than this cannot be kept, which [`TopK::offer`] uses as
    /// its first test: sufficient to reject, not necessary — a tie on the
    /// key is decided by index, so it goes on to the exact comparison.
    bound: f32,
}

impl TopK {
    /// A ranking of the best `k` of at most `candidates` offers. `k` is
    /// caller input (`usize::MAX` is a legal "everything"), so the heap is
    /// sized by what can actually be kept.
    pub(crate) fn new(k: usize, candidates: usize) -> Self {
        let k = k.min(candidates);
        TopK {
            heap: std::collections::BinaryHeap::with_capacity(k),
            k,
            bound: f32::INFINITY,
        }
    }

    /// Rank one candidate. A NaN key is never kept. Once the heap has
    /// warmed up nearly every candidate loses to the worst kept one
    /// (`k·ln(n/k)` heap updates in `n` random offers), so the common
    /// path is the single comparison against `bound`.
    #[inline]
    pub(crate) fn offer(&mut self, key: f32, index: usize) {
        // False for NaN and for a tie, which fall through.
        if key > self.bound || key.is_nan() {
            return;
        }
        let cand = Candidate { key, index };
        if self.heap.len() < self.k {
            self.heap.push(cand);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if cand >= *worst {
                return;
            }
            *worst = cand; // sifts down on drop
        }
        if self.heap.len() == self.k {
            self.bound = self.heap.peek().map_or(f32::INFINITY, |worst| worst.key);
        }
    }

    /// Drain into `(key, index)` pairs ascending by the ranking order.
    pub(crate) fn into_sorted(self) -> Vec<Candidate> {
        let mut out = self.heap.into_vec();
        out.sort_unstable();
        out
    }

    /// Drain into hits ascending by distance, ties by index.
    pub(crate) fn into_neighbors(self, metric: Metric) -> Vec<Neighbor> {
        self.into_sorted()
            .into_iter()
            .map(|c| Neighbor {
                index: c.index,
                distance: metric.key_to_distance(c.key),
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Brute force
// ---------------------------------------------------------------------------

/// Exact brute-force scan over flat storage with the fused dot-product
/// distance path; the reference implementation.
#[derive(Debug, Clone)]
pub struct BruteForceIndex {
    store: VectorStore,
    metric: Metric,
}

impl BruteForceIndex {
    /// Index an already-built [`VectorStore`] without copying — the IVF
    /// index shares one store between its exact fallback path and its
    /// quantized lists.
    pub fn from_store(store: VectorStore, metric: Metric) -> Self {
        BruteForceIndex { store, metric }
    }

    /// The flat vector storage backing this index.
    pub fn store(&self) -> &VectorStore {
        &self.store
    }

    /// The metric this index ranks by.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The `k` nearest stored vectors to each query, position-aligned with
    /// the batch: ascending by distance, ties broken by insertion index.
    /// `k = 0`, an empty index, or a query containing NaN yield an empty
    /// list. Large batches are partitioned across threads (see
    /// [`BruteForceIndex::search_with_workers`]); the answers are
    /// bit-identical to asking one query at a time.
    ///
    /// # Panics
    /// Panics if a row query is out of bounds or a flat buffer is not a
    /// whole number of `dims`-wide rows.
    pub fn search(&self, queries: Queries<'_>, k: usize) -> Vec<Vec<Neighbor>> {
        let workers = auto_workers(queries.count(self.store.dims()), self.len());
        self.search_with_workers(queries, k, workers)
    }

    /// [`BruteForceIndex::search`] with an explicit worker count:
    /// contiguous query chunks go to `std::thread::scope` workers, and each
    /// worker runs the tiled scan ([`QUERY_TILE`] queries per pass over the
    /// store). Exposed so the partitioned path is testable deterministically
    /// on any machine; `search` sizes `workers` automatically.
    ///
    /// # Panics
    /// As [`BruteForceIndex::search`].
    pub fn search_with_workers(
        &self,
        queries: Queries<'_>,
        k: usize,
        workers: usize,
    ) -> Vec<Vec<Neighbor>> {
        let n = queries.count(self.store.dims());
        crate::parallel::partition_chunks(n, workers, |range| {
            let (vectors, skip): (Vec<&[f32]>, Vec<Option<usize>>) =
                range.map(|i| queries.get(&self.store, i)).unzip();
            self.scan_block(&vectors, &skip, k)
        })
    }

    /// Tiled multi-query scan: each pass over the store answers up to
    /// [`QUERY_TILE`] queries, so a stored row is loaded once per *tile*
    /// instead of once per query. A one-query-per-pass scan is
    /// memory-bandwidth-bound on corpora that outgrow cache (a 20k × 256
    /// corpus streams 20 MB per query); tiling amortizes that traffic
    /// across the tile and is what makes batch blocking several times
    /// faster than a per-query loop even on one core.
    ///
    /// `skip[i]` is the stored row query `i` must not match (skipped without
    /// ranking). The per-candidate computation and the top-k policy do not
    /// depend on the tile, and queries never interact: a query's answer is
    /// the same bits whatever batch it arrives in.
    pub(crate) fn scan_block(
        &self,
        queries: &[&[f32]],
        skip: &[Option<usize>],
        k: usize,
    ) -> Vec<Vec<Neighbor>> {
        if k == 0 || self.store.is_empty() {
            return vec![Vec::new(); queries.len()];
        }
        let mut out = Vec::with_capacity(queries.len());
        let mut dots = [0.0f32; QUERY_TILE];
        for tile_start in (0..queries.len()).step_by(QUERY_TILE) {
            let tile_end = (tile_start + QUERY_TILE).min(queries.len());
            let tile = &queries[tile_start..tile_end];
            // Per-tile state, one slot per query: its squared norm, its
            // excluded row and its ranking. With these the loop below is
            // a dot kernel call and, per candidate, a key and a compare.
            let qqs: Vec<f32> = tile.iter().map(|q| dot_unrolled(q, q)).collect();
            let skip = &skip[tile_start..tile_end];
            let mut tops: Vec<TopK> = tile
                .iter()
                .map(|_| TopK::new(k, self.store.len()))
                .collect();
            let dots = &mut dots[..tile.len()];
            for (index, (row, norm_sq)) in self.store.rows().enumerate() {
                // One multi-query kernel call per row: the row is loaded
                // once for the whole tile and the AVX2 dispatch happens
                // per row, not per candidate.
                dot_unrolled_many(row, tile, dots);
                for (t, &dot) in dots.iter().enumerate() {
                    if skip[t] != Some(index) {
                        tops[t].offer(self.metric.rank_key(dot, qqs[t], norm_sq), index);
                    }
                }
            }
            out.extend(tops.into_iter().map(|top| top.into_neighbors(self.metric)));
        }
        out
    }
}

/// Queries answered per pass over the store by the tiled scan: large
/// enough to amortize memory traffic on out-of-cache corpora, small enough
/// that the tile's query vectors and heaps stay cache-resident.
pub const QUERY_TILE: usize = 16;

// ---------------------------------------------------------------------------
// Auto selection
// ---------------------------------------------------------------------------

/// Corpus size at which [`KnnIndex::build`] starts considering the
/// approximate IVF tier: below this, one fused exact scan is already
/// cheap and the k-means build cost cannot pay for itself.
pub const AUTO_IVF_MIN_LEN: usize = 65_536;

/// Minimum dimensionality for the IVF tier: on narrow corpora the exact
/// scan is already cheap per row, so approximation would only give up
/// recall without buying speed.
pub const AUTO_IVF_MIN_DIMS: usize = 32;

/// Recall@k the auto-tuned IVF parameters aim for when the caller does
/// not specify a target (see [`crate::ivf::IvfParams::for_corpus`]).
pub const DEFAULT_RECALL_TARGET: f32 = 0.95;

/// An index that picks its implementation per corpus
/// ([`KnnIndex::build`]), or wraps an explicit choice.
// One index is built per corpus and held singly, never stored in bulk, so
// the IVF variant's inline size costs nothing worth a pointer chase per query.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum KnnIndex {
    /// Fused linear scan (every exact corpus).
    BruteForce(BruteForceIndex),
    /// Approximate IVF + SQ8 tier (very large, high-dimensional corpora
    /// with a sub-1.0 recall target).
    Ivf(crate::ivf::IvfIndex),
}

impl KnnIndex {
    /// Index a store, choosing the implementation by corpus shape and
    /// recall target ([`predict_auto_kind`]). `None` (or a target `>= 1.0`)
    /// demands exact results: the fused brute-force scan, whatever the
    /// shape. A sub-1.0 target unlocks the approximate IVF tier where an
    /// exact scan is the bottleneck — [`Metric::L2`], `len >=
    /// `[`AUTO_IVF_MIN_LEN`], `dims >= `[`AUTO_IVF_MIN_DIMS`] — built with
    /// parameters tuned for that recall@k
    /// ([`crate::ivf::IvfParams::for_corpus`]); small or narrow corpora
    /// ignore the target and stay exact.
    pub fn build(store: VectorStore, metric: Metric, recall_target: Option<f32>) -> Self {
        let target = recall_target.unwrap_or(1.0);
        if predict_auto_kind(store.len(), store.dims(), metric, target) == "ivf_sq8" {
            let params = crate::ivf::IvfParams::for_corpus(store.len(), target);
            KnnIndex::Ivf(crate::ivf::IvfIndex::build(store, metric, params))
        } else {
            KnnIndex::BruteForce(BruteForceIndex::from_store(store, metric))
        }
    }

    /// The `k` nearest stored vectors to each query (see
    /// [`BruteForceIndex::search`] for the contract; the IVF tier's answers
    /// are approximate in *which* rows they hold, exact in every distance).
    ///
    /// # Panics
    /// Panics if a row query is out of bounds or a flat buffer is not a
    /// whole number of `dims`-wide rows.
    pub fn search(&self, queries: Queries<'_>, k: usize) -> Vec<Vec<Neighbor>> {
        match self {
            KnnIndex::BruteForce(i) => i.search(queries, k),
            KnnIndex::Ivf(i) => i.search(queries, k),
        }
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.store().len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.store().is_empty()
    }

    /// Which implementation backs this index (`"brute_force"` /
    /// `"ivf_sq8"`).
    pub fn kind(&self) -> &'static str {
        match self {
            KnnIndex::BruteForce(_) => "brute_force",
            KnnIndex::Ivf(_) => "ivf_sq8",
        }
    }

    /// The flat vector storage backing this index.
    pub fn store(&self) -> &VectorStore {
        match self {
            KnnIndex::BruteForce(i) => i.store(),
            KnnIndex::Ivf(i) => i.store(),
        }
    }

    /// The metric this index ranks by.
    pub fn metric(&self) -> Metric {
        match self {
            KnnIndex::BruteForce(i) => i.metric(),
            KnnIndex::Ivf(i) => i.metric(),
        }
    }
}

/// Which implementation [`KnnIndex::build`] would pick for a corpus of
/// this shape, without building anything (`"brute_force"` / `"ivf_sq8"`).
/// The planner uses this to annotate plans and adjust call estimates for
/// approximate blocking before any index exists.
pub fn predict_auto_kind(
    len: usize,
    dims: usize,
    metric: Metric,
    recall_target: f32,
) -> &'static str {
    if metric == Metric::L2
        && recall_target < 1.0
        && len >= AUTO_IVF_MIN_LEN
        && dims >= AUTO_IVF_MIN_DIMS
    {
        "ivf_sq8"
    } else {
        "brute_force"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| vec![i as f32, (i * i % 17) as f32])
            .collect()
    }

    fn index(rows: Vec<Vec<f32>>, metric: Metric) -> BruteForceIndex {
        BruteForceIndex::from_store(VectorStore::from_rows(rows), metric)
    }

    /// One free vector's answer.
    fn one(idx: &BruteForceIndex, query: &[f32], k: usize) -> Vec<Neighbor> {
        idx.search(Queries::Flat(query), k).remove(0)
    }

    fn indices(hits: &[Neighbor]) -> Vec<usize> {
        hits.iter().map(|n| n.index).collect()
    }

    #[test]
    fn brute_force_finds_self_first() {
        let idx = index(grid(10), Metric::L2);
        let hits = one(&idx, &[3.0, 9.0], 3);
        assert_eq!(hits[0].index, 3);
        assert_eq!(hits[0].distance, 0.0);
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn cosine_metric_works() {
        let vectors = vec![vec![1.0, 0.0], vec![0.9, 0.1], vec![0.0, 1.0]];
        let idx = index(vectors, Metric::Cosine);
        assert_eq!(indices(&one(&idx, &[1.0, 0.0], 2)), vec![0, 1]);
    }

    #[test]
    fn k_larger_than_index() {
        let idx = index(grid(3), Metric::L2);
        assert_eq!(one(&idx, &[0.0, 0.0], 10).len(), 3);
    }

    #[test]
    fn oversized_k_returns_every_row_ascending() {
        // `k` is caller input: it must neither overflow nor size an
        // allocation (`1 << 60` candidates is "capacity overflow").
        let n = 40;
        let brute = index(grid(n), Metric::L2);
        let ivf = crate::ivf::IvfIndex::build(
            VectorStore::from_rows(grid(n)),
            Metric::L2,
            crate::ivf::IvfParams {
                nlist: 4,
                nprobe: 1,
                ..crate::ivf::IvfParams::for_corpus(n, 0.9)
            },
        );
        let query = [7.3, 2.0];
        let everything = one(&brute, &query, n);
        assert_eq!(everything.len(), n);
        for pair in everything.windows(2) {
            assert!(key_cmp(
                (pair[0].distance, pair[0].index),
                (pair[1].distance, pair[1].index)
            )
            .is_lt());
        }
        for k in [n, n + 1, 1 << 60, usize::MAX] {
            assert_eq!(one(&brute, &query, k), everything, "k = {k}");
            assert_eq!(
                ivf.search(Queries::Flat(&query), k),
                vec![everything.clone()],
                "ivf, k = {k}"
            );
            // A tile and a half of queries through the batched scan.
            let batch = query.repeat(QUERY_TILE + 8);
            for hits in brute.search(Queries::Flat(&batch), k) {
                assert_eq!(hits, everything, "batched, k = {k}");
            }
            // A row query sees every row but itself, on both indexes.
            let rows = brute.search(Queries::Rows(&[2]), k).remove(0);
            let mut with_self = one(&brute, brute.store().row(2), k);
            with_self.retain(|h| h.index != 2);
            assert_eq!(rows, with_self, "k = {k}");
            assert_eq!(rows.len(), n - 1);
            assert_eq!(
                ivf.search(Queries::Rows(&[2]), k),
                vec![rows],
                "ivf, k = {k}"
            );
        }
    }

    #[test]
    fn a_tie_on_the_worst_kept_key_is_decided_by_index() {
        // Every key equals the bound once the heap is full: the `bound`
        // fast path must let ties through to the exact comparison, which
        // keeps the lowest indices however the offers are ordered.
        let mut top = TopK::new(3, 10);
        for index in [5, 9, 7, 1, 8, 0, 6] {
            top.offer(2.5, index);
        }
        top.offer(f32::NAN, 4);
        top.offer(2.500_000_2, 2);
        let kept: Vec<usize> = top.into_sorted().iter().map(|c| c.index).collect();
        assert_eq!(kept, vec![0, 1, 5]);
    }

    #[test]
    fn empty_index_answers_every_query_with_nothing() {
        let idx = BruteForceIndex::from_store(VectorStore::from_flat(Vec::new(), 1), Metric::L2);
        assert!(idx.is_empty());
        assert_eq!(idx.search(Queries::Flat(&[1.0, 2.0]), 3), vec![vec![]; 2]);
        assert!(idx.search(Queries::Flat(&[]), 3).is_empty());
        assert!(idx.search(Queries::Rows(&[]), 3).is_empty());
    }

    #[test]
    fn k_zero() {
        let idx = index(grid(5), Metric::L2);
        assert!(one(&idx, &[0.0, 0.0], 0).is_empty());
        assert_eq!(idx.search(Queries::Rows(&[1, 2]), 0), vec![vec![]; 2]);
    }

    #[test]
    #[should_panic(expected = "not a whole number of 2-dimension rows")]
    fn ragged_flat_queries_panic() {
        index(grid(4), Metric::L2).search(Queries::Flat(&[0.0, 0.0, 1.0]), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_row_query_panics() {
        index(grid(4), Metric::L2).search(Queries::Rows(&[4]), 2);
    }

    #[test]
    fn duplicate_points_tie_break_by_index() {
        let idx = index(vec![vec![1.0, 1.0]; 4], Metric::L2);
        assert_eq!(indices(&one(&idx, &[1.0, 1.0], 3)), vec![0, 1, 2]);
        // A row query leaves out itself, not its duplicates.
        let rows = idx.search(Queries::Rows(&[1]), 3).remove(0);
        assert_eq!(indices(&rows), vec![0, 2, 3]);
    }

    #[test]
    fn nan_query_returns_empty() {
        let idx = index(grid(6), Metric::L2);
        assert!(one(&idx, &[f32::NAN, 0.0], 3).is_empty());
    }

    #[test]
    fn nan_stored_vector_is_filtered_deterministically() {
        let vectors = vec![
            vec![0.0, 0.0],
            vec![f32::NAN, 1.0],
            vec![2.0, 0.0],
            vec![3.0, 0.0],
        ];
        let idx = index(vectors, Metric::L2);
        let hits = one(&idx, &[0.0, 0.0], 4);
        assert_eq!(
            indices(&hits),
            vec![0, 2, 3],
            "the NaN row must never be ranked"
        );
        for h in &hits {
            assert!(!h.distance.is_nan());
        }
    }

    #[test]
    fn a_batch_matches_one_query_at_a_time() {
        // Two tiles and a ragged third, against tiles of one.
        let idx = index(grid(40), Metric::L2);
        let flat: Vec<f32> = (0..2 * QUERY_TILE + 3)
            .flat_map(|i| [i as f32 * 0.7, (i % 13) as f32])
            .collect();
        let batch = idx.search(Queries::Flat(&flat), 4);
        assert_eq!(batch.len(), 2 * QUERY_TILE + 3);
        for (q, hits) in flat.chunks(2).zip(&batch) {
            assert_eq!(hits, &one(&idx, q, 4));
        }
    }

    #[test]
    fn row_queries_are_their_vectors_minus_the_self_hit() {
        let idx = index(grid(30), Metric::L2);
        let rows: Vec<usize> = (0..30).step_by(3).chain([4, 4]).collect();
        let batch = idx.search(Queries::Rows(&rows), 4);
        for (&r, hits) in rows.iter().zip(&batch) {
            assert_eq!(hits.len(), 4);
            assert_eq!(hits, &idx.search(Queries::Rows(&[r]), 4)[0], "row {r}");
            let mut free = one(&idx, idx.store().row(r), 5);
            free.retain(|h| h.index != r);
            assert_eq!(hits, &free, "row {r}");
        }
        // The enum forwards to the same answers.
        assert_eq!(
            KnnIndex::BruteForce(idx).search(Queries::Rows(&rows), 4),
            batch
        );
    }

    #[test]
    fn build_stays_exact_for_small_narrow_or_exact_target_corpora() {
        let flat = |n: usize| -> Vec<f32> { grid(n).into_iter().flatten().collect() };
        for (n, metric, target) in [
            (100, Metric::L2, None),
            (100, Metric::L2, Some(0.9)),
            (100, Metric::Cosine, Some(0.9)),
            // Past the length floor, but two dimensions wide.
            (AUTO_IVF_MIN_LEN, Metric::L2, Some(0.9)),
        ] {
            let built = KnnIndex::build(VectorStore::from_flat(flat(n), 2), metric, target);
            assert_eq!(built.kind(), "brute_force", "n = {n}, target {target:?}");
            assert_eq!(built.len(), n);
            assert_eq!(built.metric(), metric);
            let exact = index(grid(n), metric);
            let query = [17.3, 4.0];
            assert_eq!(
                built.search(Queries::Flat(&query), 5),
                vec![one(&exact, &query, 5)]
            );
        }
        // Wide and long enough, but exactness demanded.
        let wide: Vec<f32> = (0..4097 * 64).map(|i| (i % 97) as f32).collect();
        let built = KnnIndex::build(VectorStore::from_flat(wide, 64), Metric::L2, Some(1.0));
        assert_eq!(built.kind(), "brute_force");
    }

    #[test]
    fn zero_dimension_vectors_tie_break_by_index() {
        let idx = index(vec![vec![]; 5], Metric::L2);
        let hits = idx.search(Queries::Rows(&[3]), 3).remove(0);
        assert_eq!(indices(&hits), vec![0, 1, 2]);
        assert!(hits.iter().all(|n| n.distance == 0.0));
    }
}
