//! Exact k-nearest-neighbor search: the brute-force index, the one index
//! every blocking operator uses.
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
//! `QUERY_TILE` queries per pass over the store). Neither the chunking nor
//! the tiling changes a result, only wall-clock time.
//!
//! One batch shape takes a third path: a `Rows` batch naming every stored
//! row exactly once, in any order — what `dedup` sends — is the
//! *symmetric self-join* on [`BruteForceIndex`]. It walks the upper
//! triangle in `QUERY_TILE`-row tiles, computes each unordered pair's dot
//! once, and offers it to both rows; tile `t` goes to worker `t mod W`,
//! because contiguous halves of a triangle split its work about 75/25.
//! Each worker ranks into its own top-k per row and the workers' rankings
//! are merged by re-offering. A ranking keeps the `k` best under the strict
//! `(key, index)` order, whatever order the offers came in, and each
//! direction's key is computed with the scan's own argument order from a
//! dot that is symmetric in its arguments ([the lane
//! contract](crate::vector#the-lane-contract)), so the self-join returns the
//! tiled scan's bits at any worker count. It has no switch: partial or
//! repeated `Rows` batches and `Flat` batches keep the tiled scan.
//!
//! The scan has one *fused* distance path: a candidate's key needs one dot
//! product, because with stored norms both metrics reduce to it
//! (`‖q − v‖² = ‖q‖² + ‖v‖² − 2⟨q,v⟩`; `1 − cos = 1 − ⟨q,v⟩ / (‖q‖‖v‖)`).
//! Candidates are ranked by a monotone *key* (squared distance for L2) in
//! a bounded top-k structure, so a query is `O(n·d + n·log k)` with no
//! per-query `O(n)` allocation — the seed implementation materialized and
//! sorted all `n` distances. Once a ranking is full it caches its worst
//! kept key as a `bound`, and a candidate whose key is *greater* is dropped
//! on that one comparison (`k·ln(n/k)` of `n` candidates get further). The
//! test is sufficient, not necessary: an equal key is a tie that the index
//! decides, and a NaN key compares false, so both go on to the exact
//! `(key, index)` order. Both exact scans run it sixteen candidates at a
//! time: one [`dot_unrolled_many`] call per stored row fills a tile's
//! sixteen dots, the sixteen keys are one array, and one mask of the lanes whose key is
//! at or below its ranking's bound (`≤`, so ties and — before a ranking
//! fills — infinite keys get through) decides which reach the ranking.
//! Nearly every row leaves the mask empty.
//!
//! The tiled scan does not pay every candidate's dot. With L2 keys on a CPU
//! with AVX-512 VNNI it first rules candidates out on 8-bit codes
//! (`filter.rs`): per stored row one integer kernel call bounds all
//! sixteen lanes' distances from below, and a lane whose lower bound puts
//! its key provably above its ranking's bound never reaches the f32
//! kernel. On `pipeline_warm`'s impute shape (ada-like embeddings, 6 062
//! queries against 512 rows, `k = 3`) about one candidate in twenty gets
//! through (`examples/selfjoin` prints the share). A rejected lane is one
//! the mask above would have dropped, so the filter changes no offer and no
//! bit of any answer. The self-join does not filter.
//!
//! Determinism contract: results ascend by distance, ties broken by
//! insertion index, and a query containing NaN returns no hits. Candidates
//! whose distance is NaN are never ranked (the seed fed them to
//! `partial_cmp(..).unwrap_or(Equal)`, scrambling the order):
//! [`BruteForceIndex`] deterministically filters NaN *stored* rows out of
//! its results.

use std::sync::OnceLock;

use crate::filter::{StoreCodes, TileCodes};
use crate::store::VectorStore;
use crate::vector::{
    cosine_similarity, dot_unrolled, dot_unrolled_many, l2_distance, vnni_available,
};

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
    /// index uses the fused [`Metric::rank_key`] path instead).
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
    ///
    /// The key is symmetric in the two norms, to the bit: the self-join
    /// computes one key per unordered pair and ranks both rows by it.
    #[inline]
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

    /// A tile's keys as one array: `keys[t] = self.rank_key(dots[t],
    /// norms_sq[t], norm_sq)`.
    #[inline]
    fn rank_keys(self, dots: &Lanes, norms_sq: &Lanes, norm_sq: f32) -> Lanes {
        std::array::from_fn(|t| self.rank_key(dots[t], norms_sq[t], norm_sq))
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
        crate::parallel::cores()
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

    /// The worst kept key once the ranking is full, `+∞` before: a key
    /// above it cannot be kept, a key at or below it may be.
    #[inline]
    pub(crate) fn bound(&self) -> f32 {
        self.bound
    }

    /// Rank every candidate `other` kept. Both rankings keep the `k` best
    /// of what they were offered under the strict `(key, index)` order,
    /// which no offer order can change, so absorbing yields the `k` best of
    /// everything either one saw.
    pub(crate) fn absorb(&mut self, other: TopK) {
        for cand in other.heap {
            self.offer(cand.key, cand.index);
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
    /// The store's 8-bit codes for the tiled scan's filter
    /// ([`crate::filter`]), built by the first tiled scan that has a query;
    /// `None` inside where the filter does not run.
    codes: OnceLock<Option<StoreCodes>>,
}

impl BruteForceIndex {
    /// Index an already-built [`VectorStore`] without copying.
    pub fn from_store(store: VectorStore, metric: Metric) -> Self {
        BruteForceIndex {
            store,
            metric,
            codes: OnceLock::new(),
        }
    }

    /// The store's codes, quantized on the first call, if the filter runs
    /// here: [`Metric::L2`] keys on a CPU with AVX-512 VNNI.
    fn codes(&self) -> Option<&StoreCodes> {
        self.codes
            .get_or_init(|| {
                if self.metric == Metric::L2 && vnni_available() {
                    StoreCodes::build(&self.store)
                } else {
                    None
                }
            })
            .as_ref()
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

    /// [`BruteForceIndex::search`] with an explicit worker count. Exposed
    /// so the partitioned paths are testable deterministically on any
    /// machine; `search` sizes `workers` automatically.
    ///
    /// A [`Queries::Rows`] batch naming every stored row exactly once, in
    /// any order, is the *self-join*: the upper triangle is walked in
    /// `QUERY_TILE`-row tiles, each unordered pair's dot and ranking key
    /// are computed once and the key is offered to both rows' rankings,
    /// and tile `t` goes to worker `t mod workers` (contiguous halves of a
    /// triangle split its work about 75/25). Every other batch is cut into
    /// contiguous query chunks, one per `std::thread::scope` worker, and
    /// each chunk runs the tiled scan (`QUERY_TILE` queries per pass over
    /// the store). Both compute a tile's dots in one [`dot_unrolled_many`]
    /// call and its keys as one array, and offer only the lanes whose key
    /// is at or below a ranking's bound; the tiled scan may first rule
    /// lanes out on 8-bit codes, never one that would have been offered
    /// (`filter.rs`). Both give the same bits: the self-join's
    /// keys are the scan's keys in both directions — the lane contract's
    /// dot is symmetric in its arguments, and [`Metric::rank_key`] in its
    /// two norms (`(a + b) − 2d` and `√a·√b` commute in IEEE arithmetic) —
    /// and every ranking keeps the `k` best under the strict `(key, index)`
    /// order, which the order of offers — and so the merge of the workers'
    /// rankings — cannot change.
    ///
    /// # Panics
    /// As [`BruteForceIndex::search`].
    pub fn search_with_workers(
        &self,
        queries: Queries<'_>,
        k: usize,
        workers: usize,
    ) -> Vec<Vec<Neighbor>> {
        if let Queries::Rows(rows) = queries {
            if self.is_every_row_once(rows) {
                return self.self_join(rows, k, workers);
            }
        }
        let n = queries.count(self.store.dims());
        crate::parallel::partition_chunks(n, workers, |range| {
            let (vectors, skip): (Vec<&[f32]>, Vec<Option<usize>>) =
                range.map(|i| queries.get(&self.store, i)).unzip();
            self.scan_block(&vectors, &skip, k)
        })
    }

    /// The tiled scan's answers to `queries` at one worker — never the
    /// self-join — and how many of the batch's (query, stored row)
    /// candidates reached the lane-contract kernel: every one where the
    /// 8-bit filter does not run, the ones it could not rule out where it
    /// does. The answers are [`BruteForceIndex::search`]'s.
    ///
    /// # Panics
    /// As [`BruteForceIndex::search`].
    pub fn scan_counting(&self, queries: Queries<'_>, k: usize) -> (Vec<Vec<Neighbor>>, u64) {
        let (vectors, skip): (Vec<&[f32]>, Vec<Option<usize>>) = (0..queries
            .count(self.store.dims()))
            .map(|i| queries.get(&self.store, i))
            .unzip();
        self.scan_counted(&vectors, &skip, k)
    }

    /// Whether `rows` names every stored row exactly once, in any order:
    /// the batch [`BruteForceIndex::self_join`] answers. An out-of-bounds
    /// row is `false`, so the tiled scan reports it.
    fn is_every_row_once(&self, rows: &[usize]) -> bool {
        if rows.len() != self.len() {
            return false;
        }
        let mut seen = vec![false; rows.len()];
        rows.iter()
            .all(|&r| r < seen.len() && !std::mem::replace(&mut seen[r], true))
    }

    /// The answers to a batch naming every stored row once, position-aligned
    /// with `rows`. Each worker ranks its interleaved share of the triangle
    /// into a ranking per stored row ([`BruteForceIndex::triangle_share`]);
    /// the shares are merged by re-offering ([`TopK::absorb`]).
    fn self_join(&self, rows: &[usize], k: usize, workers: usize) -> Vec<Vec<Neighbor>> {
        if k == 0 {
            return vec![Vec::new(); rows.len()];
        }
        let workers = workers.clamp(1, rows.len().div_ceil(QUERY_TILE).max(1));
        let tops = crate::parallel::partition_chunks(workers, workers, |shares| {
            shares.map(|w| self.triangle_share(w, workers, k)).collect()
        })
        .into_iter()
        .reduce(|mut tops, share| {
            for (top, other) in tops.iter_mut().zip(share) {
                top.absorb(other);
            }
            tops
        })
        .unwrap_or_default();
        let mut by_row: Vec<Vec<Neighbor>> = tops
            .into_iter()
            .map(|top| top.into_neighbors(self.metric))
            .collect();
        rows.iter()
            .map(|&r| std::mem::take(&mut by_row[r]))
            .collect()
    }

    /// One worker's share of the self-join: tiles `worker`, `worker +
    /// workers`, … of `QUERY_TILE` stored rows, each against every later
    /// row. A pair's one dot makes one [`Metric::rank_key`], offered to
    /// both rows: the key is symmetric in its two norms, so it is the bits
    /// the tiled scan computes in either direction.
    ///
    /// Row `j` against the tile is one [`dot_unrolled_many`] call and one
    /// array of sixteen keys, tested against the tile rows' bounds and
    /// against row `j`'s ([`at_or_below`]): only a lane that passes reaches
    /// [`TopK::offer`], which decides ties by index. The bounds only fall,
    /// so a copy that lags its ranking lets through too much, never too
    /// little.
    fn triangle_share(&self, worker: usize, workers: usize, k: usize) -> Vec<TopK> {
        let store = &self.store;
        let n = store.len();
        let mut tops: Vec<TopK> = (0..n).map(|_| TopK::new(k, n)).collect();
        // The tile's rows, squared norms and rankings' bounds, in its first
        // `len` slots.
        let mut tile: [&[f32]; QUERY_TILE] = [&[]; QUERY_TILE];
        let mut norms: Lanes = [0.0; QUERY_TILE];
        let mut bounds: Lanes = [0.0; QUERY_TILE];
        let mut dots: Lanes = [0.0; QUERY_TILE];
        for tile_start in (worker * QUERY_TILE..n).step_by(workers * QUERY_TILE) {
            let len = QUERY_TILE.min(n - tile_start);
            for (t, i) in (tile_start..tile_start + len).enumerate() {
                (tile[t], norms[t]) = (store.row(i), store.norm_sq(i));
                bounds[t] = tops[i].bound();
            }
            for j in tile_start + 1..n {
                // Row `j` against the tile's rows before it: inside the
                // tile the ones below `j`, past it the whole tile.
                let width = (j - tile_start).min(len);
                dot_unrolled_many(store.row(j), &tile[..width], &mut dots[..width]);
                let keys = self.metric.rank_keys(&dots, &norms, store.norm_sq(j));
                // Every `i` here is below `j`: split the rankings there, so
                // that row `j`'s is a borrow of its own.
                let (below, from_j) = tops.split_at_mut(j);
                let top_j = &mut from_j[0];
                let tile_tops = &mut below[tile_start..];
                let live = lanes_below(width);
                let mut to_tile = at_or_below(&keys, &bounds) & live;
                let mut to_j = at_or_below(&keys, &[top_j.bound(); QUERY_TILE]) & live;
                while to_tile != 0 {
                    let t = to_tile.trailing_zeros() as usize;
                    to_tile &= to_tile - 1;
                    tile_tops[t].offer(keys[t], j);
                    bounds[t] = tile_tops[t].bound();
                }
                while to_j != 0 {
                    let t = to_j.trailing_zeros() as usize;
                    to_j &= to_j - 1;
                    top_j.offer(keys[t], tile_start + t);
                }
                if j < tile_start + len {
                    bounds[j - tile_start] = top_j.bound();
                }
            }
        }
        tops
    }

    /// Tiled multi-query scan: each pass over the store answers up to
    /// `QUERY_TILE` queries, so a stored row is loaded once per *tile*
    /// instead of once per query. A one-query-per-pass scan is
    /// memory-bandwidth-bound on corpora that outgrow cache (a 20k × 256
    /// corpus streams 20 MB per query); tiling amortizes that traffic
    /// across the tile and is what makes batch blocking several times
    /// faster than a per-query loop even on one core.
    ///
    /// Per stored row the tile costs, where the filter runs (L2 keys, a CPU
    /// with AVX-512 VNNI), one 8-bit kernel call and one rejection test
    /// over the sixteen lanes ([`crate::filter`]); the lanes it cannot rule
    /// out go on, in ascending lane order, to one [`dot_unrolled_many`]
    /// call and their keys. Elsewhere every lane goes on: one
    /// [`dot_unrolled_many`] call, one array of sixteen keys. Either way
    /// only a lane whose key is at or below its ranking's bound
    /// ([`at_or_below`]) reaches [`TopK::offer`], which decides ties by
    /// `(key, index)`. The filter rejects only lanes whose key is provably
    /// above that bound, so both ways make the same offers in the same
    /// order. A short last tile's lanes past its queries are masked off, so
    /// it runs the same loop as a full one.
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
        self.scan_counted(queries, skip, k).0
    }

    /// [`BruteForceIndex::scan_block`], and how many (query, stored row)
    /// candidates reached the lane-contract kernel.
    fn scan_counted(
        &self,
        queries: &[&[f32]],
        skip: &[Option<usize>],
        k: usize,
    ) -> (Vec<Vec<Neighbor>>, u64) {
        if k == 0 || self.store.is_empty() {
            return (vec![Vec::new(); queries.len()], 0);
        }
        let codes = if queries.is_empty() {
            None
        } else {
            self.codes()
        };
        let mut filter = codes.map(TileCodes::new);
        let mut refined = 0u64;
        let mut out = Vec::with_capacity(queries.len());
        // Per-tile state, one slot per query: its squared norm and its
        // ranking's bound (its excluded row is `skip`'s). With these the
        // loop below is, per stored row, one kernel call, an array of keys
        // and one mask of the lanes that reach a ranking.
        let mut qqs: Lanes = [0.0; QUERY_TILE];
        let mut bounds: Lanes = [f32::INFINITY; QUERY_TILE];
        let mut dots: Lanes = [0.0; QUERY_TILE];
        for (tile, skip) in queries.chunks(QUERY_TILE).zip(skip.chunks(QUERY_TILE)) {
            for (qq, q) in qqs.iter_mut().zip(tile) {
                *qq = dot_unrolled(q, q);
            }
            bounds.fill(f32::INFINITY);
            let live = lanes_below(tile.len());
            let mut tops: Vec<TopK> = tile
                .iter()
                .map(|_| TopK::new(k, self.store.len()))
                .collect();
            if let (Some(codes), Some(filter)) = (codes, filter.as_mut()) {
                filter.load(codes, tile, &qqs[..tile.len()]);
                // The surviving lanes' queries and lane numbers, in their
                // first `width` slots.
                let mut picked: [&[f32]; QUERY_TILE] = [&[]; QUERY_TILE];
                let mut lanes = [0usize; QUERY_TILE];
                for (index, (row, norm_sq)) in self.store.rows().enumerate() {
                    let mut pass = filter.survivors(codes, index, live);
                    if pass == 0 {
                        continue;
                    }
                    let width = pass.count_ones() as usize;
                    for (pick, lane) in picked.iter_mut().zip(&mut lanes).take(width) {
                        *lane = pass.trailing_zeros() as usize;
                        pass &= pass - 1;
                        *pick = tile[*lane];
                    }
                    refined += width as u64;
                    dot_unrolled_many(row, &picked[..width], &mut dots[..width]);
                    for (&dot, &t) in dots.iter().zip(&lanes).take(width) {
                        let key = self.metric.rank_key(dot, qqs[t], norm_sq);
                        if key <= bounds[t] && skip[t] != Some(index) {
                            tops[t].offer(key, index);
                            bounds[t] = tops[t].bound();
                            filter.set_bound(t, bounds[t]);
                        }
                    }
                }
            } else {
                refined += (tile.len() * self.store.len()) as u64;
                for (index, (row, norm_sq)) in self.store.rows().enumerate() {
                    // One multi-query kernel call per row: the row is loaded
                    // once for the whole tile and the dispatch happens per
                    // row, not per candidate.
                    dot_unrolled_many(row, tile, &mut dots[..tile.len()]);
                    let keys = self.metric.rank_keys(&dots, &qqs, norm_sq);
                    let mut pass = at_or_below(&keys, &bounds) & live;
                    while pass != 0 {
                        let t = pass.trailing_zeros() as usize;
                        pass &= pass - 1;
                        if skip[t] != Some(index) {
                            tops[t].offer(keys[t], index);
                            bounds[t] = tops[t].bound();
                        }
                    }
                }
            }
            out.extend(tops.into_iter().map(|top| top.into_neighbors(self.metric)));
        }
        (out, refined)
    }
}

/// One value per lane of a tile: its dots against a stored row, their
/// keys, the tile's norms or its rankings' bounds.
type Lanes = [f32; QUERY_TILE];

/// The lanes of a tile that hold one of its `width` vectors, as a mask:
/// bit `t` for lane `t`. A short tile's other lanes hold stale values.
fn lanes_below(width: usize) -> u32 {
    debug_assert!(width <= QUERY_TILE);
    (1u32 << width) - 1
}

/// Bit `t` set where `keys[t] <= bounds[t]`: the lanes whose candidate a
/// ranking at that bound may keep. A NaN key is never at or below, and
/// `≤` rather than `<` lets a tie through to [`TopK::offer`]'s
/// `(key, index)` order — and an infinite key into a ranking that is not
/// yet full, whose bound is `+∞`.
#[inline]
fn at_or_below(keys: &Lanes, bounds: &Lanes) -> u32 {
    let mut mask = 0;
    for (t, (key, bound)) in keys.iter().zip(bounds).enumerate() {
        mask |= u32::from(key <= bound) << t;
    }
    mask
}

/// Queries answered per pass over the store by the tiled scan: large
/// enough to amortize memory traffic on out-of-cache corpora, small enough
/// that the tile's query vectors and heaps stay cache-resident.
pub(crate) const QUERY_TILE: usize = 16;

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
            // A tile and a half of queries through the batched scan.
            let batch = query.repeat(QUERY_TILE + 8);
            for hits in brute.search(Queries::Flat(&batch), k) {
                assert_eq!(hits, everything, "batched, k = {k}");
            }
            // A row query sees every row but itself.
            let rows = brute.search(Queries::Rows(&[2]), k).remove(0);
            let mut with_self = one(&brute, brute.store().row(2), k);
            with_self.retain(|h| h.index != 2);
            assert_eq!(rows, with_self, "k = {k}");
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
    }

    /// SplitMix64: the test corpora's only source of randomness.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `n` rows of `dims` dimensions: some on a coarse grid, so keys tie,
    /// the rest arbitrary; a duplicate row, an all-zero row and a row
    /// holding a NaN once there is room.
    fn self_join_corpus(n: usize, dims: usize, seed: u64) -> VectorStore {
        let mut state = seed;
        let mut rows: Vec<Vec<f32>> = (0..n)
            .map(|_| {
                let coarse = splitmix(&mut state).is_multiple_of(2);
                (0..dims)
                    .map(|_| {
                        let r = splitmix(&mut state);
                        if coarse {
                            (r % 3) as f32 * 0.5 - 0.5
                        } else {
                            (r >> 40) as f32 / (1u64 << 23) as f32 - 1.0
                        }
                    })
                    .collect()
            })
            .collect();
        if n >= 2 {
            rows[n / 2] = rows[0].clone();
        }
        if n >= 3 {
            rows[n - 1][dims / 2] = f32::NAN;
        }
        if n >= 4 {
            rows[1] = vec![0.0; dims];
        }
        VectorStore::from_rows(rows)
    }

    /// Every answer as `(index, distance bits)`.
    fn bits(answers: &[Vec<Neighbor>]) -> Vec<Vec<(usize, u32)>> {
        answers
            .iter()
            .map(|hits| {
                hits.iter()
                    .map(|h| (h.index, h.distance.to_bits()))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn rank_key_is_symmetric_in_its_norms() {
        let values = [
            0.0f32,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(3),
            f32::MIN_POSITIVE / 2.0,
            f32::MIN_POSITIVE,
            0.3,
            1.0,
            2.5,
            -4.0,
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for metric in [Metric::L2, Metric::Cosine] {
            for &dot in &values {
                for &a in &values {
                    for &b in &values {
                        let (ab, ba) = (metric.rank_key(dot, a, b), metric.rank_key(dot, b, a));
                        assert!(
                            ab.to_bits() == ba.to_bits() || (ab.is_nan() && ba.is_nan()),
                            "{metric:?} dot {dot:e} norms {a:e}, {b:e}: {ab:e} vs {ba:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn the_self_join_returns_the_tiled_scans_bits() {
        for n in [0usize, 1, 2, 15, 16, 17, 33, 300] {
            let mut state = n as u64;
            // A permuted order, and the identity.
            let mut permuted: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                permuted.swap(i, splitmix(&mut state) as usize % (i + 1));
            }
            let identity: Vec<usize> = (0..n).collect();
            // One row missing, and one row asked twice.
            let missing = &permuted[..n.saturating_sub(1)];
            let mut repeated = permuted.clone();
            if n >= 2 {
                repeated[0] = repeated[1];
            }
            // A whole 64-lane chunk and a tail; the largest corpus is
            // narrow so that an unoptimised build stays quick.
            let dims = if n > 64 { 5 } else { 70 };
            for metric in [Metric::L2, Metric::Cosine] {
                let store = self_join_corpus(n, dims, 7 + n as u64);
                let idx = BruteForceIndex::from_store(store, metric);
                assert!(idx.is_every_row_once(&permuted) && idx.is_every_row_once(&identity));
                assert!(n == 0 || !idx.is_every_row_once(missing));
                assert!(n < 2 || !idx.is_every_row_once(&repeated));
                for k in [0, 1, 2, n.saturating_sub(1), n, usize::MAX] {
                    for rows in [&permuted[..], &identity, missing, &repeated] {
                        let vectors: Vec<&[f32]> =
                            rows.iter().map(|&r| idx.store().row(r)).collect();
                        let skip: Vec<Option<usize>> = rows.iter().map(|&r| Some(r)).collect();
                        let tiled = bits(&idx.scan_block(&vectors, &skip, k));
                        // The self-join at one worker, two, three, and more
                        // than there are tiles; the tiled path at two.
                        let workers: &[usize] = if idx.is_every_row_once(rows) {
                            &[1, 2, 3, n / QUERY_TILE + 2]
                        } else {
                            &[2]
                        };
                        for &workers in workers {
                            let got =
                                bits(&idx.search_with_workers(Queries::Rows(rows), k, workers));
                            assert_eq!(
                                got, tiled,
                                "{metric:?} n = {n} k = {k} workers = {workers} rows = {rows:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// `n >= 15` rows built to load a tile's lanes: every fifth row one
    /// duplicate vector (equal keys, decided by index), the rest on a
    /// coarse grid (more ties), a NaN row, and two rows whose squared norm
    /// overflows — an L2 key of `+∞`, which a ranking that is not yet full
    /// keeps.
    fn tile_corpus(n: usize, dims: usize) -> VectorStore {
        let rows = (0..n)
            .map(|i| {
                let mut row: Vec<f32> = (0..dims)
                    .map(|d| match i % 5 {
                        0 => 0.5,
                        _ => ((i * 7 + d * 3) % 5) as f32 * 0.5 - 1.0,
                    })
                    .collect();
                if i == 3 {
                    row[dims / 2] = f32::NAN;
                }
                if i == 7 || i == n - 2 {
                    row[0] = 1e20;
                }
                row
            })
            .collect();
        VectorStore::from_rows(rows)
    }

    /// A query's answer by definition: every stored row but `skip` keyed
    /// one at a time, NaN keys dropped, sorted by `(key, index)`, the
    /// first `k`.
    fn by_definition(
        idx: &BruteForceIndex,
        query: &[f32],
        skip: Option<usize>,
        k: usize,
    ) -> Vec<(usize, u32)> {
        let metric = idx.metric();
        let qq = dot_unrolled(query, query);
        let mut keyed: Vec<(f32, usize)> = idx
            .store()
            .rows()
            .enumerate()
            .filter(|&(i, _)| Some(i) != skip)
            .map(|(i, (row, norm_sq))| (metric.rank_key(dot_unrolled(query, row), qq, norm_sq), i))
            .filter(|(key, _)| !key.is_nan())
            .collect();
        keyed.sort_by(|a, b| key_cmp(*a, *b));
        keyed
            .into_iter()
            .take(k)
            .map(|(key, i)| (i, metric.key_to_distance(key).to_bits()))
            .collect()
    }

    #[test]
    fn scans_at_tile_width_answer_by_definition() {
        // Short of a tile, one tile, one over and two over; k from one to
        // past every row. Every query runs through a full tile's lanes, a
        // short last tile's masked lanes, ties, a NaN row and infinite keys.
        for n in [15usize, 16, 17, 33] {
            for dims in [5usize, 70] {
                for metric in [Metric::L2, Metric::Cosine] {
                    let idx = BruteForceIndex::from_store(tile_corpus(n, dims), metric);
                    if metric == Metric::L2 {
                        let all = by_definition(&idx, idx.store().row(0), None, n);
                        assert!(all.iter().any(|&(_, d)| f32::from_bits(d) == f32::INFINITY));
                    }
                    let flat = idx.store().as_flat().to_vec();
                    let every: Vec<usize> = (0..n).collect();
                    let most: Vec<usize> = (1..n).rev().collect();
                    for k in [1, 2, 5, n - 1, n, n + 1, usize::MAX] {
                        let case = format!("{metric:?} n = {n} dims = {dims} k = {k}");
                        let want = |query: &[f32], skip| by_definition(&idx, query, skip, k);
                        let free = bits(&idx.search_with_workers(Queries::Flat(&flat), k, 1));
                        for (i, got) in free.iter().enumerate() {
                            assert_eq!(got, &want(idx.store().row(i), None), "{case} flat {i}");
                        }
                        for workers in [1, 2] {
                            let joined = idx.search_with_workers(Queries::Rows(&every), k, workers);
                            for (i, got) in bits(&joined).iter().enumerate() {
                                let row = idx.store().row(i);
                                assert_eq!(got, &want(row, Some(i)), "{case} self-join {i}");
                            }
                        }
                        let scanned = bits(&idx.search_with_workers(Queries::Rows(&most), k, 1));
                        for (&r, got) in most.iter().zip(&scanned) {
                            let row = idx.store().row(r);
                            assert_eq!(got, &want(row, Some(r)), "{case} row {r}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn an_empty_tiled_scan_quantizes_nothing() {
        for metric in [Metric::L2, Metric::Cosine] {
            let idx = BruteForceIndex::from_store(tile_corpus(40, 12), metric);
            // A partial `Rows` batch takes the tiled scan, as `Flat` does.
            assert!(idx.search(Queries::Flat(&[]), 3).is_empty());
            assert!(idx.search(Queries::Rows(&[]), 3).is_empty());
            assert!(idx.codes.get().is_none(), "{metric:?}");
            idx.search(Queries::Rows(&[4]), 3);
            let built = idx.codes.get().expect("a scan with a query looks");
            let filtered = metric == Metric::L2 && vnni_available();
            assert_eq!(built.is_some(), filtered, "{metric:?}");
        }
    }

    /// `n` rows of `dims` dimensions in a few tight clusters, so that a
    /// query's ranking fills with near rows and the 8-bit filter rules
    /// most of the rest out; one row a NaN, one an exact duplicate.
    fn clustered(n: usize, dims: usize, seed: u64) -> Vec<f32> {
        let mut state = seed;
        let centres: Vec<Vec<f32>> = (0..5)
            .map(|_| {
                (0..dims)
                    .map(|_| (splitmix(&mut state) % 9) as f32)
                    .collect()
            })
            .collect();
        let mut flat = Vec::with_capacity(n * dims);
        for i in 0..n {
            let centre = &centres[splitmix(&mut state) as usize % centres.len()];
            for &c in centre {
                let noise = (splitmix(&mut state) >> 40) as f32 / (1u64 << 26) as f32;
                flat.push(c + noise);
            }
            if i == 7 {
                flat[i * dims] = f32::NAN;
            }
        }
        flat.copy_within(0..dims, dims * (n / 2));
        flat
    }

    #[test]
    fn the_filtered_scan_answers_by_definition() {
        // Dimensions with and without a padded last code group, free
        // queries from the clusters and far outside them, and row queries.
        for dims in [5usize, 70, 256] {
            let n = 200;
            let idx = BruteForceIndex::from_store(
                VectorStore::from_flat(clustered(n, dims, dims as u64), dims),
                Metric::L2,
            );
            let mut queries = clustered(37, dims, 99 + dims as u64);
            for x in &mut queries[..3 * dims] {
                *x = *x * 3.0 - 20.0;
            }
            let rows: Vec<usize> = (0..n).step_by(7).collect();
            for k in [1, 3, 10] {
                let (free, refined) = idx.scan_counting(Queries::Flat(&queries), k);
                for (i, (query, got)) in queries.chunks(dims).zip(bits(&free)).enumerate() {
                    assert_eq!(
                        got,
                        by_definition(&idx, query, None, k),
                        "dims {dims} k {k} {i}"
                    );
                }
                if vnni_available() {
                    assert!(
                        refined < (37 * n) as u64 / 2,
                        "dims {dims} k {k}: {refined}"
                    );
                }
                let (asked, _) = idx.scan_counting(Queries::Rows(&rows), k);
                for (&r, got) in rows.iter().zip(bits(&asked)) {
                    let want = by_definition(&idx, idx.store().row(r), Some(r), k);
                    assert_eq!(got, want, "dims {dims} k {k} row {r}");
                }
            }
        }
    }

    #[test]
    fn zero_dimension_vectors_tie_break_by_index() {
        let idx = index(vec![vec![]; 5], Metric::L2);
        let hits = idx.search(Queries::Rows(&[3]), 3).remove(0);
        assert_eq!(indices(&hits), vec![0, 1, 2]);
        assert!(hits.iter().all(|n| n.distance == 0.0));
    }
}
