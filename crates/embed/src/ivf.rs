//! Approximate nearest-neighbor tier: IVF coarse quantizer over the flat
//! [`VectorStore`] with 8-bit scalar-quantized residuals.
//!
//! Layout: a seeded deterministic k-means partitions the finite rows into
//! `nlist` clusters. Each cluster owns an *inverted list* — a contiguous
//! range of `(row id, quantized residual)` pairs, residual = `row −
//! centroid`, quantized per-vector to 8 bits ([`crate::quant`]). A query
//! ranks the centroids exactly (fused f32 path), probes the `nprobe`
//! closest lists by scanning their codes with the integer
//! [`crate::vector::dot_u8_many`] kernel, keeps the best `rescore`
//! candidates by approximate key, then *rescores those exactly* through
//! the same fused [`dot_unrolled`] path the brute-force index uses — so
//! every returned distance is exact and the ascending-distance /
//! tie-by-index contract survives approximation. Recall is governed by
//! `nprobe`: only true neighbors living outside every probed list (or
//! pushed out of the rescore pool by quantization error) can be missed.
//!
//! Exact-path degradation is structural, not approximate: `nprobe >=
//! nlist`, `k >=` the indexed row count and non-finite queries delegate to
//! the embedded [`BruteForceIndex`] — the same tiled scan the oracle runs
//! — so the degenerate configuration is bit-identical to exact search by
//! construction.
//!
//! Queries arrive as a batch ([`Queries`]: rows of the store, each left
//! out of its own answer, or free vectors in one flat buffer), are cut into
//! one contiguous chunk per worker like the exact index's, and each query
//! in a chunk is one probe–rescore: batching and threading never change an
//! answer.
//!
//! Everything is deterministic: k-means uses a seeded SplitMix64 stream,
//! ties break by row index, the integer scan kernel is bit-identical
//! across ISAs, and NaN rows are excluded from every list at build time
//! (matching the exact scan's NaN filtering).

use crate::knn::{auto_workers, key_cmp, BruteForceIndex, Metric, Neighbor, Queries, TopK};
use crate::quant::{quantize_into, QuantizedBlock, ScanQuery};
use crate::store::VectorStore;
use crate::vector::{dot_u8_many, dot_unrolled, dot_unrolled_many};

/// Tuning knobs for [`IvfIndex::build`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IvfParams {
    /// Number of k-means centroids / inverted lists (clamped to the
    /// finite-row count at build time).
    pub nlist: usize,
    /// Lists probed per query; `nprobe >= nlist` degrades to exact search
    /// bit-identically.
    pub nprobe: usize,
    /// Minimum exact-rescore pool size (the effective pool is
    /// `max(rescore, 4·k)` so large `k` never starves).
    pub rescore: usize,
    /// Lloyd iterations over the training sample.
    pub train_iters: usize,
    /// Rows sampled (deterministically) for k-means training.
    pub train_sample: usize,
    /// Seed for the SplitMix64 stream driving k-means++ init.
    pub seed: u64,
}

impl IvfParams {
    /// Parameters tuned for a corpus of `len` rows at a given recall
    /// target: `nlist ≈ len / 4096` keeps lists around 4k rows (one
    /// centroid scan amortizes well against list scans of that size), and
    /// the probed fraction grows with the recall target. A target `>=
    /// 1.0` is honored upstream by not building an IVF index at all
    /// ([`crate::knn::KnnIndex::build`]); here it just maps to the
    /// widest probe setting.
    pub fn for_corpus(len: usize, recall_target: f32) -> IvfParams {
        let nlist = (len / 4096).clamp(8, 4096);
        let frac = if recall_target >= 1.0 {
            1.0
        } else if recall_target >= 0.99 {
            0.25
        } else if recall_target >= 0.95 {
            0.08
        } else if recall_target >= 0.90 {
            0.05
        } else {
            0.03
        };
        // Floor of 2 probed lists: k-means cell boundaries make a
        // single-list probe brittle for queries near an edge, and a second
        // list is cheap at every corpus size that routes here.
        let nprobe = ((nlist as f64 * frac).ceil() as usize).max(2);
        IvfParams {
            nlist,
            nprobe,
            rescore: 64,
            train_iters: 5,
            train_sample: nlist * 64,
            seed: 0x1DF0_5EED,
        }
    }
}

/// SplitMix64 step — the repo-local deterministic RNG (the embed crate
/// has no dependencies to borrow one from).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from the SplitMix64 stream.
fn splitmix_f64(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The IVF + SQ8 approximate index. Build with [`IvfIndex::build`];
/// query with [`IvfIndex::search`].
#[derive(Debug, Clone)]
pub struct IvfIndex {
    /// Exact fallback over the full store — the recall oracle's own code
    /// path, used verbatim when `nprobe >= nlist` or the query is
    /// non-finite.
    exact: BruteForceIndex,
    params: IvfParams,
    /// Centroid vectors (fused-scannable store, `nlist` rows).
    centroids: VectorStore,
    /// `list_offsets[c]..list_offsets[c + 1]` is centroid `c`'s slot
    /// range in `row_ids` / `quant`.
    list_offsets: Vec<usize>,
    /// Global row id per slot, grouped by list, ascending within a list.
    row_ids: Vec<u32>,
    /// Quantized residuals, one row per slot (same order as `row_ids`).
    quant: QuantizedBlock,
}

impl IvfIndex {
    /// Build over an existing store.
    ///
    /// Non-finite rows are excluded from every inverted list (they are
    /// unreachable through the exact path too, so results agree).
    /// `params.nlist` is clamped to the finite-row count; a corpus with
    /// no finite rows gets zero lists and always delegates to the exact
    /// path.
    ///
    /// # Panics
    /// Panics on [`Metric::Cosine`]: the quantized residual scan
    /// approximates squared L2 only. (`KnnIndex::build` never routes
    /// cosine corpora here.)
    pub fn build(store: VectorStore, metric: Metric, params: IvfParams) -> Self {
        assert!(
            metric == Metric::L2,
            "IvfIndex requires Metric::L2 (the SQ8 residual scan approximates squared L2)"
        );
        let dims = store.dims();
        let finite: Vec<u32> = (0..store.len())
            .filter(|&i| store.row(i).iter().all(|x| x.is_finite()))
            .map(|i| i as u32)
            .collect();
        let nlist = params.nlist.min(finite.len().max(1)).max(1);
        if finite.is_empty() {
            return IvfIndex {
                exact: BruteForceIndex::from_store(store, metric),
                params,
                centroids: VectorStore::from_flat(Vec::new(), dims),
                list_offsets: vec![0],
                row_ids: Vec::new(),
                quant: QuantizedBlock::new(dims),
            };
        }

        let centroids = train_centroids(&store, &finite, nlist, &params);
        let nlist = centroids.len(); // may shrink on degenerate (duplicate-heavy) corpora

        // One full assignment pass over the finite rows.
        let centroid_refs: Vec<&[f32]> = (0..nlist).map(|c| centroids.row(c)).collect();
        let centroid_norms: Vec<f32> = (0..nlist).map(|c| centroids.norm_sq(c)).collect();
        let assignments: Vec<u32> = finite
            .iter()
            .map(|&r| {
                closest_centroid(
                    store.row(r as usize),
                    store.norm_sq(r as usize),
                    &centroid_refs,
                    &centroid_norms,
                ) as u32
            })
            .collect();

        // Counting sort into inverted lists (stable: rows stay ascending
        // within each list, which is what the tie-break contract needs).
        let mut counts = vec![0usize; nlist];
        for &a in &assignments {
            counts[a as usize] += 1;
        }
        let mut list_offsets = Vec::with_capacity(nlist + 1);
        let mut acc = 0usize;
        list_offsets.push(0);
        for &c in &counts {
            acc += c;
            list_offsets.push(acc);
        }
        let mut cursors: Vec<usize> = list_offsets[..nlist].to_vec();
        let mut row_ids = vec![0u32; finite.len()];
        for (&r, &a) in finite.iter().zip(&assignments) {
            row_ids[cursors[a as usize]] = r;
            cursors[a as usize] += 1;
        }

        // Quantize residuals in slot order.
        let mut quant = QuantizedBlock::new(dims);
        quant.reserve(row_ids.len());
        let mut residual = vec![0.0f32; dims];
        for c in 0..nlist {
            let centroid = centroids.row(c);
            for &row_id in &row_ids[list_offsets[c]..list_offsets[c + 1]] {
                let row = store.row(row_id as usize);
                for d in 0..dims {
                    residual[d] = row[d] - centroid[d];
                }
                quant.push(&residual);
            }
        }

        IvfIndex {
            exact: BruteForceIndex::from_store(store, metric),
            params,
            centroids,
            list_offsets,
            row_ids,
            quant,
        }
    }

    /// The flat vector storage backing this index.
    pub fn store(&self) -> &VectorStore {
        self.exact.store()
    }

    /// The metric this index ranks by (always [`Metric::L2`]).
    pub fn metric(&self) -> Metric {
        self.exact.metric()
    }

    /// The build parameters.
    pub fn params(&self) -> &IvfParams {
        &self.params
    }

    /// Number of inverted lists actually built (≤ `params.nlist`;
    /// degenerate corpora can collapse to fewer).
    pub fn nlist(&self) -> usize {
        self.centroids.len()
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.exact.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty()
    }

    /// The (approximately) `k` nearest stored vectors to each query,
    /// position-aligned with the batch; same contract as
    /// [`BruteForceIndex::search`], with every returned distance exact.
    ///
    /// # Panics
    /// Panics if a row query is out of bounds or a flat buffer is not a
    /// whole number of `dims`-wide rows.
    pub fn search(&self, queries: Queries<'_>, k: usize) -> Vec<Vec<Neighbor>> {
        let workers = auto_workers(queries.count(self.store().dims()), self.len());
        self.search_with_workers(queries, k, workers)
    }

    /// [`IvfIndex::search`] over `workers` contiguous query chunks.
    fn search_with_workers(
        &self,
        queries: Queries<'_>,
        k: usize,
        workers: usize,
    ) -> Vec<Vec<Neighbor>> {
        // Structural exact-path degradation: same code as the oracle.
        // Oversized k (>= the indexed row count) must see every row, which
        // probing a subset of lists cannot, so it is exact-path territory
        // too — and the exact scan is no slower at that k anyway.
        let nlist = self.centroids.len();
        if nlist == 0 || self.params.nprobe >= nlist || k >= self.row_ids.len() {
            return self.exact.search_with_workers(queries, k, workers);
        }
        let store = self.exact.store();
        crate::parallel::partition_chunks(queries.count(store.dims()), workers, |range| {
            range
                .map(|i| {
                    let (query, skip) = queries.get(store, i);
                    self.probe(query, k, skip)
                })
                .collect()
        })
    }

    /// One probe–rescore (`nprobe < nlist`, `k <` the indexed row count):
    /// the `k` best of the probed lists, leaving out row `exclude`.
    fn probe(&self, query: &[f32], k: usize, exclude: Option<usize>) -> Vec<Neighbor> {
        // A non-finite query has no centroid ranking to probe by; the exact
        // scan decides what it sees (nothing, for a NaN).
        if !query.iter().all(|x| x.is_finite()) {
            return self.exact.scan_block(&[query], &[exclude], k).remove(0);
        }
        if k == 0 {
            return Vec::new();
        }
        let nlist = self.centroids.len();
        let store = self.exact.store();
        let metric = self.exact.metric();
        let dims = store.dims();
        let qq = dot_unrolled(query, query);

        // Rank centroids exactly; probe the nprobe closest lists.
        let mut centroid_top = TopK::new(self.params.nprobe, nlist);
        for (c, (row, norm_sq)) in self.centroids.rows().enumerate() {
            centroid_top.offer(metric.rank_key(dot_unrolled(query, row), qq, norm_sq), c);
        }

        // Approximate scan of the probed lists, tie-break by global row
        // id so the candidate pool is deterministic.
        let pool = self.params.rescore.max(4 * k);
        let mut approx_top = TopK::new(pool, self.row_ids.len());
        let mut query_codes: Vec<u8> = Vec::with_capacity(dims);
        let mut residual = vec![0.0f32; dims];
        let mut dots: Vec<u64> = Vec::new();
        for probed in centroid_top.into_sorted() {
            let c = probed.index;
            let (start, end) = (self.list_offsets[c], self.list_offsets[c + 1]);
            if start == end {
                continue;
            }
            let centroid = self.centroids.row(c);
            for d in 0..dims {
                residual[d] = query[d] - centroid[d];
            }
            let qmeta = quantize_into(&residual, &mut query_codes);
            let scan_query = ScanQuery::new(dims, &qmeta);
            dots.resize(end - start, 0);
            dot_u8_many(&query_codes, self.quant.codes_range(start, end), &mut dots);
            let rows = &self.row_ids[start..end];
            let terms = self.quant.scan_range(start, end);
            for ((&dot, &row), y) in dots.iter().zip(rows).zip(terms) {
                let row = row as usize;
                if Some(row) == exclude {
                    continue;
                }
                // Bit-identical to `approx_l2_sq` with the query-side
                // constants hoisted out of the loop.
                approx_top.offer(scan_query.key(y, dot), row);
            }
        }

        // Exact rescore of the surviving pool through the fused path —
        // identical key computation to BruteForceIndex, so ordering and
        // distances match the oracle on every row both paths rank.
        let mut top = TopK::new(k, pool);
        for cand in approx_top.into_sorted() {
            let row = cand.index;
            let key = metric.rank_key(dot_unrolled(query, store.row(row)), qq, store.norm_sq(row));
            top.offer(key, row);
        }
        top.into_neighbors(metric)
    }
}

/// Index of the centroid closest to `row` (fused keys, ties by centroid
/// index).
fn closest_centroid(
    row: &[f32],
    row_norm_sq: f32,
    centroid_refs: &[&[f32]],
    centroid_norms: &[f32],
) -> usize {
    const TILE: usize = 16;
    let mut dots = [0.0f32; TILE];
    let mut best = (f32::INFINITY, 0usize);
    for tile_start in (0..centroid_refs.len()).step_by(TILE) {
        let tile = &centroid_refs[tile_start..(tile_start + TILE).min(centroid_refs.len())];
        let dots = &mut dots[..tile.len()];
        dot_unrolled_many(row, tile, dots);
        for (t, &dot) in dots.iter().enumerate() {
            let c = tile_start + t;
            let key = row_norm_sq + centroid_norms[c] - 2.0 * dot;
            if key_cmp((key, c), best).is_lt() {
                best = (key, c);
            }
        }
    }
    best.1
}

/// Seeded deterministic k-means over a sample of the finite rows:
/// k-means++ init (distance-weighted, SplitMix64 draws) followed by
/// bounded Lloyd iterations. Returns the centroids as a fused-scannable
/// [`VectorStore`]; may return fewer than `nlist` centroids when the
/// sample collapses onto fewer distinct points.
fn train_centroids(
    store: &VectorStore,
    finite: &[u32],
    nlist: usize,
    params: &IvfParams,
) -> VectorStore {
    let dims = store.dims();
    let mut rng = params.seed;

    // Deterministic spread sample: stride over the finite rows.
    let sample_len = params
        .train_sample
        .clamp(nlist, finite.len().max(1))
        .min(finite.len());
    let sample: Vec<u32> = (0..sample_len)
        .map(|i| finite[i * finite.len() / sample_len])
        .collect();

    // k-means++ init with incremental min-distance updates: O(nlist ·
    // sample) distance evaluations total.
    let mut chosen: Vec<u32> = Vec::with_capacity(nlist);
    chosen.push(sample[(splitmix(&mut rng) as usize) % sample.len()]);
    let mut min_d = vec![f64::INFINITY; sample.len()];
    while chosen.len() < nlist {
        let last = *chosen.last().expect("non-empty") as usize; // lint: allow(no-unwrap)
        let (last_row, last_norm) = (store.row(last), store.norm_sq(last));
        let mut total = 0.0f64;
        for (i, &s) in sample.iter().enumerate() {
            let key = store.norm_sq(s as usize) + last_norm
                - 2.0 * dot_unrolled(store.row(s as usize), last_row);
            let d = f64::from(key.max(0.0));
            if d < min_d[i] {
                min_d[i] = d;
            }
            total += min_d[i];
        }
        if total <= 0.0 {
            // Every sampled point coincides with a chosen centroid:
            // fewer distinct points than requested lists.
            break;
        }
        let mut r = splitmix_f64(&mut rng) * total;
        let mut pick = sample.len() - 1;
        for (i, &d) in min_d.iter().enumerate() {
            if r < d {
                pick = i;
                break;
            }
            r -= d;
        }
        chosen.push(sample[pick]);
    }
    let nlist = chosen.len();

    let mut flat: Vec<f32> = Vec::with_capacity(nlist * dims);
    for &c in &chosen {
        flat.extend_from_slice(store.row(c as usize));
    }

    // Lloyd: assign the sample, recompute means (f64 accumulators so the
    // summation is order-robust), keep old centroids for empty clusters.
    for _ in 0..params.train_iters {
        let norms: Vec<f32> = (0..nlist)
            .map(|c| {
                let row = &flat[c * dims..(c + 1) * dims];
                dot_unrolled(row, row)
            })
            .collect();
        let refs: Vec<&[f32]> = (0..nlist)
            .map(|c| &flat[c * dims..(c + 1) * dims])
            .collect();
        let mut sums = vec![0.0f64; nlist * dims];
        let mut counts = vec![0u64; nlist];
        for &s in &sample {
            let row = store.row(s as usize);
            let c = closest_centroid(row, store.norm_sq(s as usize), &refs, &norms);
            counts[c] += 1;
            let acc = &mut sums[c * dims..(c + 1) * dims];
            for (a, &x) in acc.iter_mut().zip(row) {
                *a += f64::from(x);
            }
        }
        for c in 0..nlist {
            if counts[c] == 0 {
                continue;
            }
            let inv = 1.0 / counts[c] as f64;
            for d in 0..dims {
                flat[c * dims + d] = (sums[c * dims + d] * inv) as f32;
            }
        }
    }

    VectorStore::from_flat(flat, dims)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random corpus clustered around `centers`.
    fn clustered(n: usize, dims: usize, centers: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                let c = (splitmix(&mut state) as usize) % centers;
                (0..dims)
                    .map(|d| {
                        let base = ((c * 31 + d * 7) % 23) as f32;
                        base + (splitmix_f64(&mut state) as f32 - 0.5) * 0.25
                    })
                    .collect()
            })
            .collect()
    }

    fn params_small(nlist: usize, nprobe: usize) -> IvfParams {
        IvfParams {
            nlist,
            nprobe,
            rescore: 32,
            train_iters: 4,
            train_sample: 512,
            seed: 7,
        }
    }

    fn pair(vectors: Vec<Vec<f32>>, params: IvfParams) -> (BruteForceIndex, IvfIndex) {
        let store = VectorStore::from_rows(vectors);
        (
            BruteForceIndex::from_store(store.clone(), Metric::L2),
            IvfIndex::build(store, Metric::L2, params),
        )
    }

    /// One free vector's answer.
    fn one(ivf: &IvfIndex, query: &[f32], k: usize) -> Vec<Neighbor> {
        ivf.search(Queries::Flat(query), k).remove(0)
    }

    #[test]
    fn nprobe_full_is_bit_identical_to_exact() {
        let (exact, ivf) = pair(clustered(600, 16, 8, 42), params_small(8, 8));
        let rows: Vec<usize> = (0..40).map(|q| q * 7).collect();
        let flat: Vec<f32> = rows
            .iter()
            .flat_map(|&r| exact.store().row(r))
            .copied()
            .collect();
        assert_eq!(
            ivf.search(Queries::Flat(&flat), 5),
            exact.search(Queries::Flat(&flat), 5)
        );
        assert_eq!(
            ivf.search(Queries::Rows(&rows), 5),
            exact.search(Queries::Rows(&rows), 5)
        );
    }

    #[test]
    fn probed_search_has_high_recall_on_clustered_data() {
        let (exact, ivf) = pair(clustered(2000, 24, 10, 9), params_small(10, 3));
        let mut hit = 0usize;
        let mut total = 0usize;
        for q in 0..50 {
            let query = Queries::Flat(exact.store().row(q * 31));
            let truth: Vec<usize> = exact.search(query, 10)[0].iter().map(|n| n.index).collect();
            let got: Vec<usize> = ivf.search(query, 10)[0].iter().map(|n| n.index).collect();
            total += truth.len();
            hit += truth.iter().filter(|i| got.contains(i)).count();
        }
        let recall = hit as f64 / total as f64;
        assert!(recall >= 0.9, "recall {recall} too low");
    }

    #[test]
    fn results_ascend_with_exact_distances() {
        let (exact, ivf) = pair(clustered(1500, 16, 6, 3), params_small(6, 2));
        let query = exact.store().row(17).to_vec();
        let hits = one(&ivf, &query, 8);
        for pair in hits.windows(2) {
            assert!(key_cmp(
                (pair[0].distance, pair[0].index),
                (pair[1].distance, pair[1].index)
            )
            .is_lt());
        }
        // Rescored distances must be bit-identical to the fused exact
        // path (same rank_key computation the oracle uses).
        let qq = dot_unrolled(&query, &query);
        for h in &hits {
            let key = Metric::L2.rank_key(
                dot_unrolled(&query, exact.store().row(h.index)),
                qq,
                exact.store().norm_sq(h.index),
            );
            assert_eq!(h.distance, Metric::L2.key_to_distance(key));
        }
    }

    #[test]
    fn row_queries_match_one_at_a_time_at_any_worker_count() {
        // The self-join through the partitioned driver: whatever the worker
        // count, a batch of row queries is the per-row answers in order, and
        // each is its vector's free-query answer minus the self hit.
        let mut vectors = clustered(400, 12, 6, 21);
        vectors[7] = vec![f32::NAN; 12];
        let (_, ivf) = pair(vectors, params_small(6, 2));
        assert!(ivf.params().nprobe < ivf.nlist());
        let n = ivf.len();
        let rows: Vec<usize> = (0..n).step_by(3).chain([7, 8, 8]).collect();
        // `k = n` takes the exact delegate; the others probe.
        for k in [1, 5, n] {
            let per_row: Vec<Vec<Neighbor>> = rows
                .iter()
                .map(|&r| ivf.search_with_workers(Queries::Rows(&[r]), k, 1).remove(0))
                .collect();
            for workers in [1, 2, 3, 7] {
                assert_eq!(
                    ivf.search_with_workers(Queries::Rows(&rows), k, workers),
                    per_row,
                    "k = {k}, workers = {workers}"
                );
            }
            let flat: Vec<f32> = rows
                .iter()
                .flat_map(|&r| ivf.store().row(r))
                .copied()
                .collect();
            for workers in [1, 3] {
                let free =
                    ivf.search_with_workers(Queries::Flat(&flat), k.saturating_add(1), workers);
                for ((&r, mut free), rows_hits) in rows.iter().zip(free).zip(&per_row) {
                    free.retain(|h| h.index != r);
                    free.truncate(k);
                    assert_eq!(&free, rows_hits, "row {r}, k = {k}");
                    assert!(
                        free.iter().all(|h| h.index != 7),
                        "the NaN row is unreachable"
                    );
                }
            }
            // The NaN row's own neighbourhood is empty on every path.
            let nan_slot = rows.iter().position(|&r| r == 7).expect("row 7 is queried");
            assert!(per_row[nan_slot].is_empty());
        }
    }

    #[test]
    fn nan_rows_never_returned_and_nan_query_empty() {
        let mut vectors = clustered(300, 8, 4, 11);
        vectors[5] = vec![f32::NAN; 8];
        vectors[100][3] = f32::NAN;
        let (_, ivf) = pair(vectors, params_small(4, 2));
        let query = ivf.store().row(0).to_vec();
        let hits = one(&ivf, &query, 300);
        assert!(hits.iter().all(|n| n.index != 5 && n.index != 100));
        assert_eq!(hits.len(), 298);
        assert!(one(&ivf, &[f32::NAN; 8], 5).is_empty());
    }

    #[test]
    fn degenerate_shapes() {
        // Empty corpus.
        let (_, empty) = pair(Vec::new(), params_small(4, 2));
        assert!(empty.is_empty());
        assert!(empty.search(Queries::Rows(&[]), 3).is_empty());
        let empty = IvfIndex::build(
            VectorStore::from_flat(Vec::new(), 1),
            Metric::L2,
            params_small(4, 2),
        );
        assert!(one(&empty, &[1.0], 3).is_empty());
        // k = 0 and k > N.
        let (_, small) = pair(clustered(10, 4, 2, 1), params_small(4, 2));
        let q = small.store().row(0).to_vec();
        assert!(one(&small, &q, 0).is_empty());
        assert_eq!(one(&small, &q, 50).len(), 10);
        // All-identical vectors collapse to one centroid.
        let (_, dup) = pair(vec![vec![2.0, 2.0]; 64], params_small(8, 2));
        assert_eq!(dup.nlist(), 1);
        let hits = one(&dup, &[2.0, 2.0], 3);
        assert_eq!(
            hits.iter().map(|n| n.index).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // Corpus smaller than the requested centroid count.
        let (_, tiny) = pair(clustered(3, 4, 2, 5), params_small(16, 4));
        assert!(tiny.nlist() <= 3);
        assert_eq!(one(&tiny, tiny.store().row(1), 3).len(), 3);
    }

    #[test]
    #[should_panic(expected = "requires Metric::L2")]
    fn cosine_rejected() {
        IvfIndex::build(
            VectorStore::from_rows(vec![vec![1.0, 0.0]]),
            Metric::Cosine,
            params_small(1, 1),
        );
    }

    #[test]
    fn for_corpus_scales_with_target() {
        let p95 = IvfParams::for_corpus(1_000_000, 0.95);
        let p99 = IvfParams::for_corpus(1_000_000, 0.99);
        assert!(p95.nlist >= 8);
        assert!(p99.nprobe > p95.nprobe);
        assert!(p95.nprobe >= 1 && p95.nprobe < p95.nlist);
    }
}
