//! Exact k-nearest-neighbor search: the brute-force index and the
//! auto-selecting [`KnnIndex`].
//!
//! The scan runs over one substrate ([`VectorStore`]: one flat
//! `Vec<f32>` plus stride, with precomputed squared norms) and one
//! *fused* distance path: every candidate costs exactly one
//! [`dot_unrolled`] call, because with stored norms both metrics reduce to
//! the dot product (`‖q − v‖² = ‖q‖² + ‖v‖² − 2⟨q,v⟩`;
//! `1 − cos = 1 − ⟨q,v⟩ / (‖q‖‖v‖)`). Candidates are ranked by a
//! monotone *key* (squared distance for L2) in a bounded top-k structure,
//! so a query is `O(n·d + n·log k)` with no per-query `O(n)` allocation —
//! the seed implementation materialized and sorted all `n` distances.
//! Once a ranking is full it caches its worst kept key as a `bound`, and
//! a candidate whose key is *greater* is dropped on that one comparison
//! (`k·ln(n/k)` of `n` candidates get further). The test is sufficient,
//! not necessary: an equal key is a tie that the index decides, and a NaN
//! key compares false, so both go on to the exact `(key, index)` order.
//!
//! Determinism contract (all entry points): results ascend by distance,
//! ties broken by insertion index, and a query containing NaN returns no
//! hits. Candidates whose distance is NaN are never ranked (the seed fed
//! them to `partial_cmp(..).unwrap_or(Equal)`, scrambling the order):
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

/// A k-nearest-neighbor index over fixed-dimension vectors.
pub trait NearestNeighbors: Send + Sync {
    /// Number of indexed vectors.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k` nearest stored vectors to `query`, ascending by distance,
    /// ties broken by insertion index for determinism. `k = 0`, an empty
    /// index, or an all-NaN query yield an empty result.
    fn nearest(&self, query: &[f32], k: usize) -> Vec<Neighbor>;

    /// Like [`NearestNeighbors::nearest`] but excluding one stored index
    /// (used for "neighbors of an item already in the index").
    fn nearest_excluding(&self, query: &[f32], k: usize, exclude: usize) -> Vec<Neighbor> {
        let mut hits = self.nearest(query, k.saturating_add(1));
        hits.retain(|n| n.index != exclude);
        hits.truncate(k);
        hits
    }

    /// Answer a batch of queries, partitioning them across
    /// `std::thread::scope` workers (one contiguous chunk per worker).
    ///
    /// Results are position-aligned with `queries` and bit-identical to
    /// calling [`NearestNeighbors::nearest`] per query sequentially —
    /// parallelism never changes a result, only wall-clock time. Small
    /// batches (or small corpora) run inline to skip thread spawn cost.
    fn nearest_many(&self, queries: &[Vec<f32>], k: usize) -> Vec<Vec<Neighbor>> {
        batch_queries(self, queries, k, None)
    }

    /// Batched form of [`NearestNeighbors::nearest_excluding`]: per-query
    /// optional stored index to omit (position-aligned with `queries`).
    ///
    /// # Panics
    /// Panics if `excludes.len() != queries.len()`.
    fn nearest_many_excluding(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        excludes: &[Option<usize>],
    ) -> Vec<Vec<Neighbor>> {
        assert_eq!(queries.len(), excludes.len(), "one exclude slot per query");
        batch_queries(self, queries, k, Some(excludes))
    }
}

/// Worker count for a batch: threading only pays off when the total scan
/// volume dwarfs spawn cost; small workloads run inline (results are
/// identical either way).
fn auto_workers(queries: usize, corpus: usize) -> usize {
    if queries.saturating_mul(corpus) < 1 << 14 {
        1
    } else {
        std::thread::available_parallelism().map_or(1, usize::from)
    }
}

/// Shared batch driver for the trait's default `nearest_many*` methods.
fn batch_queries<I: NearestNeighbors + ?Sized>(
    index: &I,
    queries: &[Vec<f32>],
    k: usize,
    excludes: Option<&[Option<usize>]>,
) -> Vec<Vec<Neighbor>> {
    batch_nearest_with_workers(
        index,
        queries,
        k,
        excludes,
        auto_workers(queries.len(), index.len()),
    )
}

/// The partitioning driver behind [`NearestNeighbors::nearest_many`] and
/// [`NearestNeighbors::nearest_many_excluding`], with an explicit worker
/// count: queries are split into `workers` contiguous chunks, each chunk
/// answered on its own `std::thread::scope` worker, results reassembled
/// in input order. Exposed so the parallel path is testable
/// deterministically on any machine (the defaults size `workers` from
/// `std::thread::available_parallelism`).
///
/// # Panics
/// Panics if `excludes` is provided with a length differing from
/// `queries`.
pub fn batch_nearest_with_workers<I: NearestNeighbors + ?Sized>(
    index: &I,
    queries: &[Vec<f32>],
    k: usize,
    excludes: Option<&[Option<usize>]>,
    workers: usize,
) -> Vec<Vec<Neighbor>> {
    if let Some(e) = excludes {
        assert_eq!(queries.len(), e.len(), "one exclude slot per query");
    }
    crate::parallel::partition_chunks(queries.len(), workers, |range| {
        range
            .map(|qi| match excludes.and_then(|e| e[qi]) {
                Some(x) => index.nearest_excluding(&queries[qi], k, x),
                None => index.nearest(&queries[qi], k),
            })
            .collect()
    })
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
    /// Build from vectors (all must share one dimensionality).
    ///
    /// # Panics
    /// Panics if vector dimensionalities differ.
    pub fn new(vectors: Vec<Vec<f32>>, metric: Metric) -> Self {
        BruteForceIndex {
            store: VectorStore::from_rows(vectors),
            metric,
        }
    }

    /// Wrap an already-built [`VectorStore`] without copying — the IVF
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

    /// The fused scan: one `dot_unrolled` per candidate, bounded top-k,
    /// optional single excluded stored index (skipped without ranking).
    fn scan(&self, query: &[f32], k: usize, exclude: Option<usize>) -> Vec<Neighbor> {
        if k == 0 || self.store.is_empty() {
            return Vec::new();
        }
        let qq = dot_unrolled(query, query);
        let mut top = TopK::new(k, self.store.len());
        for (index, (row, norm_sq)) in self.store.rows().enumerate() {
            if Some(index) != exclude {
                let key = self.metric.rank_key(dot_unrolled(query, row), qq, norm_sq);
                top.offer(key, index);
            }
        }
        top.into_neighbors(self.metric)
    }

    /// Tiled multi-query scan: each pass over the store answers up to
    /// [`QUERY_TILE`] queries, so a stored row is loaded once per *tile*
    /// instead of once per query. The single-query scan is
    /// memory-bandwidth-bound on corpora that outgrow cache (a 20k × 256
    /// corpus streams 20 MB per query); tiling amortizes that traffic
    /// across the tile and is what makes batch blocking several times
    /// faster than a per-query loop even on one core.
    ///
    /// Per-query results are bit-identical to [`BruteForceIndex::scan`]:
    /// the per-candidate computation and top-k policy are unchanged,
    /// queries never interact.
    fn scan_block(
        &self,
        queries: &[&[f32]],
        k: usize,
        excludes: Option<&[Option<usize>]>,
    ) -> Vec<Vec<Neighbor>> {
        if k == 0 || self.store.is_empty() {
            return vec![Vec::new(); queries.len()];
        }
        let mut out = Vec::with_capacity(queries.len());
        let mut dots = [0.0f32; QUERY_TILE];
        for tile_start in (0..queries.len()).step_by(QUERY_TILE) {
            let tile = &queries[tile_start..(tile_start + QUERY_TILE).min(queries.len())];
            // Per-tile state, one slot per query: its squared norm, its
            // excluded row and its ranking. With these the loop below is
            // a dot kernel call and, per candidate, a key and a compare.
            let qqs: Vec<f32> = tile.iter().map(|q| dot_unrolled(q, q)).collect();
            let skip: Vec<Option<usize>> = (0..tile.len())
                .map(|t| excludes.and_then(|e| e[tile_start + t]))
                .collect();
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

/// Queries answered per pass over the store in
/// [`BruteForceIndex::nearest_many`]: large enough to amortize memory
/// traffic on out-of-cache corpora, small enough that the tile's query
/// vectors and heaps stay cache-resident.
pub const QUERY_TILE: usize = 16;

impl BruteForceIndex {
    /// Batched queries with an explicit worker count: contiguous query
    /// chunks go to `std::thread::scope` workers, and each worker runs
    /// the tiled scan ([`QUERY_TILE`] queries per pass over the store).
    /// Exposed so the tiled parallel path is testable deterministically
    /// on any machine; [`NearestNeighbors::nearest_many`] sizes `workers`
    /// automatically.
    ///
    /// # Panics
    /// Panics if `excludes` is provided with a length differing from
    /// `queries`.
    pub fn nearest_many_with_workers(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        excludes: Option<&[Option<usize>]>,
        workers: usize,
    ) -> Vec<Vec<Neighbor>> {
        let refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        self.nearest_many_refs_with_workers(&refs, k, excludes, workers)
    }

    /// Borrowed-query form of
    /// [`BruteForceIndex::nearest_many_with_workers`]: queries that
    /// already live somewhere (the flat store itself, another corpus)
    /// are scanned without being copied into owned vectors.
    ///
    /// # Panics
    /// Panics if `excludes` is provided with a length differing from
    /// `queries`.
    pub fn nearest_many_refs_with_workers(
        &self,
        queries: &[&[f32]],
        k: usize,
        excludes: Option<&[Option<usize>]>,
        workers: usize,
    ) -> Vec<Vec<Neighbor>> {
        if let Some(e) = excludes {
            assert_eq!(queries.len(), e.len(), "one exclude slot per query");
        }
        crate::parallel::partition_chunks(queries.len(), workers, |range| {
            self.scan_block(&queries[range.clone()], k, excludes.map(|e| &e[range]))
        })
    }

    /// Batched self-queries: for each stored row index, the `k` nearest
    /// *other* stored vectors. The dedup-blocking shape — every query
    /// vector is borrowed straight from the flat store (zero copies) and
    /// the row itself is excluded inside the scan.
    ///
    /// # Panics
    /// Panics if any row index is out of bounds.
    pub fn nearest_rows(&self, rows: &[usize], k: usize) -> Vec<Vec<Neighbor>> {
        let queries: Vec<&[f32]> = rows.iter().map(|&i| self.store.row(i)).collect();
        let excludes: Vec<Option<usize>> = rows.iter().map(|&i| Some(i)).collect();
        self.nearest_many_refs_with_workers(
            &queries,
            k,
            Some(&excludes),
            auto_workers(rows.len(), self.len()),
        )
    }
}

impl NearestNeighbors for BruteForceIndex {
    fn len(&self) -> usize {
        self.store.len()
    }

    fn nearest(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.scan(query, k, None)
    }

    fn nearest_excluding(&self, query: &[f32], k: usize, exclude: usize) -> Vec<Neighbor> {
        // Skips the excluded row inside the scan instead of ranking k + 1
        // hits and discarding the self-hit afterwards.
        self.scan(query, k, Some(exclude))
    }

    fn nearest_many(&self, queries: &[Vec<f32>], k: usize) -> Vec<Vec<Neighbor>> {
        self.nearest_many_with_workers(queries, k, None, auto_workers(queries.len(), self.len()))
    }

    fn nearest_many_excluding(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        excludes: &[Option<usize>],
    ) -> Vec<Vec<Neighbor>> {
        self.nearest_many_with_workers(
            queries,
            k,
            Some(excludes),
            auto_workers(queries.len(), self.len()),
        )
    }
}

// ---------------------------------------------------------------------------
// Auto selection
// ---------------------------------------------------------------------------

/// Corpus size at which [`KnnIndex::auto_tuned`] starts considering the
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

/// An index that picks its implementation per corpus ([`KnnIndex::auto`] /
/// [`KnnIndex::auto_tuned`]), or wraps an explicit choice.
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
    /// Build the exact index: the fused brute-force scan, whatever the
    /// corpus shape. Never selects the approximate tier — use
    /// [`KnnIndex::auto_tuned`] to opt in.
    ///
    /// # Panics
    /// Panics if vector dimensionalities differ.
    pub fn auto(vectors: Vec<Vec<f32>>, metric: Metric) -> Self {
        KnnIndex::auto_from_store(VectorStore::from_rows(vectors), metric)
    }

    /// [`KnnIndex::auto`] over flat storage: the corpus arrives as an
    /// already-built [`VectorStore`] (e.g.
    /// from [`crate::hashing::Embedder::embed_all_flat`] +
    /// [`VectorStore::from_flat`]), so no nested-row intermediate is
    /// ever materialized. This is the production index-build path.
    pub fn auto_from_store(store: VectorStore, metric: Metric) -> Self {
        KnnIndex::BruteForce(BruteForceIndex::from_store(store, metric))
    }

    /// Like [`KnnIndex::auto`], but with an explicit recall target that
    /// unlocks the approximate IVF tier for corpora where an exact scan
    /// is the bottleneck: [`Metric::L2`], `len >= `[`AUTO_IVF_MIN_LEN`],
    /// `dims >= `[`AUTO_IVF_MIN_DIMS`]. A `recall_target >= 1.0` demands
    /// exact results and always routes to the exact paths;
    /// `recall_target < 1.0` on a qualifying corpus builds an
    /// [`crate::ivf::IvfIndex`] with parameters tuned for that target
    /// ([`crate::ivf::IvfParams::for_corpus`]). Small or narrow corpora
    /// ignore the target and behave exactly like [`KnnIndex::auto`].
    ///
    /// # Panics
    /// Panics if vector dimensionalities differ.
    pub fn auto_tuned(vectors: Vec<Vec<f32>>, metric: Metric, recall_target: f32) -> Self {
        KnnIndex::auto_tuned_from_store(VectorStore::from_rows(vectors), metric, recall_target)
    }

    /// [`KnnIndex::auto_tuned`] over flat storage (see
    /// [`KnnIndex::auto_from_store`] for why the flat entry point
    /// exists).
    pub fn auto_tuned_from_store(store: VectorStore, metric: Metric, recall_target: f32) -> Self {
        if predict_auto_kind(store.len(), store.dims(), metric, recall_target) == "ivf_sq8" {
            let params = crate::ivf::IvfParams::for_corpus(store.len(), recall_target);
            KnnIndex::Ivf(crate::ivf::IvfIndex::build(store, metric, params))
        } else {
            KnnIndex::auto_from_store(store, metric)
        }
    }

    /// Batched self-queries by stored row index (see
    /// [`BruteForceIndex::nearest_rows`]); the IVF variant answers row
    /// queries one at a time but still borrows each query vector from
    /// the store.
    ///
    /// # Panics
    /// Panics if any row index is out of bounds.
    pub fn nearest_rows(&self, rows: &[usize], k: usize) -> Vec<Vec<Neighbor>> {
        match self {
            KnnIndex::BruteForce(i) => i.nearest_rows(rows, k),
            KnnIndex::Ivf(i) => rows
                .iter()
                .map(|&r| i.nearest_excluding(i.store().row(r), k, r))
                .collect(),
        }
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

/// Which implementation [`KnnIndex::auto_tuned`] would pick for a corpus
/// of this shape, without building anything (`"brute_force"` /
/// `"ivf_sq8"`). The planner uses this to annotate plans
/// and adjust call estimates for approximate blocking before any index
/// exists.
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

impl NearestNeighbors for KnnIndex {
    fn len(&self) -> usize {
        match self {
            KnnIndex::BruteForce(i) => i.len(),
            KnnIndex::Ivf(i) => i.len(),
        }
    }

    fn nearest(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        match self {
            KnnIndex::BruteForce(i) => i.nearest(query, k),
            KnnIndex::Ivf(i) => i.nearest(query, k),
        }
    }

    fn nearest_excluding(&self, query: &[f32], k: usize, exclude: usize) -> Vec<Neighbor> {
        match self {
            KnnIndex::BruteForce(i) => i.nearest_excluding(query, k, exclude),
            KnnIndex::Ivf(i) => i.nearest_excluding(query, k, exclude),
        }
    }

    // Forward the batch entry points so the brute-force tiled scan (and
    // not just the generic per-query driver) serves production callers
    // that hold a `KnnIndex`.
    fn nearest_many(&self, queries: &[Vec<f32>], k: usize) -> Vec<Vec<Neighbor>> {
        match self {
            KnnIndex::BruteForce(i) => i.nearest_many(queries, k),
            KnnIndex::Ivf(i) => i.nearest_many(queries, k),
        }
    }

    fn nearest_many_excluding(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        excludes: &[Option<usize>],
    ) -> Vec<Vec<Neighbor>> {
        match self {
            KnnIndex::BruteForce(i) => i.nearest_many_excluding(queries, k, excludes),
            KnnIndex::Ivf(i) => i.nearest_many_excluding(queries, k, excludes),
        }
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

    #[test]
    fn brute_force_finds_self_first() {
        let idx = BruteForceIndex::new(grid(10), Metric::L2);
        let hits = idx.nearest(&[3.0, 9.0], 3);
        assert_eq!(hits[0].index, 3);
        assert_eq!(hits[0].distance, 0.0);
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn cosine_metric_works() {
        let vectors = vec![vec![1.0, 0.0], vec![0.9, 0.1], vec![0.0, 1.0]];
        let idx = BruteForceIndex::new(vectors, Metric::Cosine);
        let hits = idx.nearest(&[1.0, 0.0], 2);
        assert_eq!(hits[0].index, 0);
        assert_eq!(hits[1].index, 1);
    }

    #[test]
    fn k_larger_than_index() {
        let idx = BruteForceIndex::new(grid(3), Metric::L2);
        assert_eq!(idx.nearest(&[0.0, 0.0], 10).len(), 3);
    }

    /// An index that keeps the trait's default `nearest_excluding`.
    struct DefaultExcluding(BruteForceIndex);

    impl NearestNeighbors for DefaultExcluding {
        fn len(&self) -> usize {
            self.0.len()
        }
        fn nearest(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
            self.0.nearest(query, k)
        }
    }

    #[test]
    fn oversized_k_returns_every_row_ascending() {
        // `k` is caller input: it must neither overflow `k + 1` nor size
        // an allocation (`1 << 60` candidates is "capacity overflow").
        let n = 40;
        let brute = BruteForceIndex::new(grid(n), Metric::L2);
        let ivf = crate::ivf::IvfIndex::build(
            VectorStore::from_rows(grid(n)),
            Metric::L2,
            crate::ivf::IvfParams {
                nlist: 4,
                nprobe: 1,
                ..crate::ivf::IvfParams::for_corpus(n, 0.9)
            },
        );
        let defaulted = DefaultExcluding(brute.clone());
        let query = vec![7.3, 2.0];
        let everything = brute.nearest(&query, n);
        assert_eq!(everything.len(), n);
        for pair in everything.windows(2) {
            assert!(key_cmp(
                (pair[0].distance, pair[0].index),
                (pair[1].distance, pair[1].index)
            )
            .is_lt());
        }
        let all_but_two: Vec<Neighbor> = everything
            .iter()
            .copied()
            .filter(|h| h.index != 2)
            .collect();
        for k in [n, n + 1, 1 << 60, usize::MAX] {
            assert_eq!(brute.nearest(&query, k), everything, "k = {k}");
            assert_eq!(ivf.nearest(&query, k), everything, "ivf, k = {k}");
            assert_eq!(
                brute.nearest_excluding(&query, k, 2),
                all_but_two,
                "k = {k}"
            );
            assert_eq!(
                ivf.nearest_excluding(&query, k, 2),
                all_but_two,
                "ivf, k = {k}"
            );
            assert_eq!(
                defaulted.nearest_excluding(&query, k, 2),
                all_but_two,
                "default, k = {k}"
            );
            // A tile and a half of queries through the batched scan.
            for hits in brute.nearest_many(&vec![query.clone(); QUERY_TILE + 8], k) {
                assert_eq!(hits, everything, "batched, k = {k}");
            }
            let rows = brute.nearest_rows(&[2], k).remove(0);
            assert_eq!(
                rows,
                brute.nearest_excluding(brute.store().row(2), k, 2),
                "k = {k}"
            );
            assert_eq!(rows.len(), n - 1);
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
    fn empty_index() {
        let idx = BruteForceIndex::new(Vec::new(), Metric::L2);
        assert!(idx.is_empty());
        assert!(idx.nearest(&[1.0], 3).is_empty());
    }

    #[test]
    fn k_zero() {
        let idx = BruteForceIndex::new(grid(5), Metric::L2);
        assert!(idx.nearest(&[0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn nearest_excluding_skips_self() {
        let idx = BruteForceIndex::new(grid(10), Metric::L2);
        let hits = idx.nearest_excluding(&[3.0, 9.0], 2, 3);
        assert!(hits.iter().all(|n| n.index != 3));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn duplicate_points_tie_break_by_index() {
        let vectors = vec![vec![1.0, 1.0]; 4];
        let idx = BruteForceIndex::new(vectors, Metric::L2);
        let hits = idx.nearest(&[1.0, 1.0], 3);
        assert_eq!(
            hits.iter().map(|n| n.index).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    #[should_panic(expected = "share a dimensionality")]
    fn mismatched_dims_panic() {
        BruteForceIndex::new(vec![vec![1.0], vec![1.0, 2.0]], Metric::L2);
    }

    #[test]
    fn nan_query_returns_empty() {
        let idx = BruteForceIndex::new(grid(6), Metric::L2);
        assert!(idx.nearest(&[f32::NAN, 0.0], 3).is_empty());
    }

    #[test]
    fn nan_stored_vector_is_filtered_deterministically() {
        let vectors = vec![
            vec![0.0, 0.0],
            vec![f32::NAN, 1.0],
            vec![2.0, 0.0],
            vec![3.0, 0.0],
        ];
        let idx = BruteForceIndex::new(vectors, Metric::L2);
        let hits = idx.nearest(&[0.0, 0.0], 4);
        assert_eq!(
            hits.iter().map(|n| n.index).collect::<Vec<_>>(),
            vec![0, 2, 3],
            "the NaN row must never be ranked"
        );
        for h in &hits {
            assert!(!h.distance.is_nan());
        }
    }

    #[test]
    fn nearest_many_matches_sequential() {
        let idx = BruteForceIndex::new(grid(40), Metric::L2);
        let queries: Vec<Vec<f32>> = (0..30)
            .map(|i| vec![i as f32 * 0.7, (i % 13) as f32])
            .collect();
        let batch = idx.nearest_many(&queries, 4);
        assert_eq!(batch.len(), queries.len());
        for (q, hits) in queries.iter().zip(&batch) {
            assert_eq!(hits, &idx.nearest(q, 4));
        }
    }

    #[test]
    fn nearest_many_excluding_matches_sequential() {
        let idx = BruteForceIndex::new(grid(25), Metric::L2);
        let queries: Vec<Vec<f32>> = (0..25)
            .map(|i| vec![i as f32, (i * i % 17) as f32])
            .collect();
        let excludes: Vec<Option<usize>> = (0..25).map(|i| (i % 3 == 0).then_some(i)).collect();
        let batch = idx.nearest_many_excluding(&queries, 3, &excludes);
        for i in 0..queries.len() {
            let expected = match excludes[i] {
                Some(x) => idx.nearest_excluding(&queries[i], 3, x),
                None => idx.nearest(&queries[i], 3),
            };
            assert_eq!(batch[i], expected, "query {i}");
        }
    }

    #[test]
    #[should_panic(expected = "one exclude slot per query")]
    fn nearest_many_excluding_length_mismatch_panics() {
        let idx = BruteForceIndex::new(grid(4), Metric::L2);
        idx.nearest_many_excluding(&[vec![0.0, 0.0]], 2, &[]);
    }

    #[test]
    fn auto_picks_brute_force_for_high_dims_and_small_corpora() {
        let small = KnnIndex::auto(grid(100), Metric::L2);
        assert_eq!(small.kind(), "brute_force");
        let wide: Vec<Vec<f32>> = (0..4097)
            .map(|i| (0..64).map(|d| ((i * 31 + d * 7) % 97) as f32).collect())
            .collect();
        assert_eq!(KnnIndex::auto(wide, Metric::L2).kind(), "brute_force");
    }

    #[test]
    fn auto_from_store_matches_auto_routing_and_answers() {
        // Same routing decisions and identical answers whether the
        // corpus arrives as nested rows or as a flat store.
        for (vectors, metric) in [
            (grid(100), Metric::L2),
            (grid(4096), Metric::L2),
            (grid(100), Metric::Cosine),
        ] {
            let dims = vectors[0].len();
            let flat: Vec<f32> = vectors.iter().flatten().copied().collect();
            let nested = KnnIndex::auto(vectors, metric);
            let from_store =
                KnnIndex::auto_from_store(VectorStore::from_flat(flat.clone(), dims), metric);
            assert_eq!(nested.kind(), from_store.kind());
            let query = vec![17.3, 4.0];
            assert_eq!(nested.nearest(&query, 5), from_store.nearest(&query, 5));
            let tuned =
                KnnIndex::auto_tuned_from_store(VectorStore::from_flat(flat, dims), metric, 0.9);
            // Too small for the IVF tier: the target is ignored.
            assert_eq!(tuned.kind(), nested.kind());
        }
    }

    #[test]
    fn nearest_rows_matches_nearest_excluding() {
        let vectors = grid(30);
        let rows: Vec<usize> = (0..30).step_by(3).collect();
        let brute = BruteForceIndex::new(vectors.clone(), Metric::L2);
        let batch = brute.nearest_rows(&rows, 4);
        for (&r, hits) in rows.iter().zip(&batch) {
            let expected = brute.nearest_excluding(brute.store().row(r), 4, r);
            assert_eq!(hits, &expected, "row {r}");
        }
        // The enum forwards to the same answers.
        assert_eq!(KnnIndex::BruteForce(brute).nearest_rows(&rows, 4), batch);
    }

    #[test]
    fn zero_dimension_vectors_tie_break_by_index() {
        let idx = BruteForceIndex::new(vec![vec![]; 5], Metric::L2);
        let hits = idx.nearest(&[], 3);
        assert_eq!(
            hits.iter().map(|n| n.index).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(hits.iter().all(|n| n.distance == 0.0));
    }
}
