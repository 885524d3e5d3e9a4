//! Property tests for the embedding substrate.
//!
//! The `*_parity` properties pin the PR-2 rewrite to the seed semantics:
//! the heap/flat-storage brute-force index must return **byte-identical**
//! `Neighbor` lists to a replica of the seed's materialize-all-then-sort
//! reference over random corpora, and a batch of queries must equal its
//! queries asked one at a time bit-for-bit at any worker count.

use crowdprompt_embed::{
    cosine_similarity, dot_unrolled, embed_all_flat_with_workers, l2_distance, BruteForceIndex,
    Embedder, Metric, Neighbor, NgramEmbedder, Queries, VectorStore,
};
use proptest::prelude::*;

fn vectors(n: usize, dims: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-10.0f32..10.0, dims..=dims), 1..n)
}

fn index(vectors: &[Vec<f32>], metric: Metric) -> BruteForceIndex {
    BruteForceIndex::from_store(VectorStore::from_rows(vectors.to_vec()), metric)
}

/// One free vector's answer.
fn one(idx: &BruteForceIndex, query: &[f32], k: usize) -> Vec<Neighbor> {
    idx.search(Queries::Flat(query), k).remove(0)
}

/// Replica of the seed brute-force *algorithm*: materialize
/// one scored entry per stored vector, fully sort ascending with ties by
/// insertion index, truncate to `k` — using the same canonical per-row
/// computation as the new index (fused dot product + rank key), so any
/// divergence is attributable to the heap/flat-storage rewrite itself.
fn seed_sort_reference(
    vectors: &[Vec<f32>],
    metric: Metric,
    query: &[f32],
    k: usize,
    exclude: Option<usize>,
) -> Vec<Neighbor> {
    if k == 0 {
        return Vec::new();
    }
    let qq = dot_unrolled(query, query);
    let mut keyed: Vec<(f32, usize)> = vectors
        .iter()
        .enumerate()
        .filter(|(i, _)| Some(*i) != exclude)
        .map(|(i, v)| {
            (
                metric.rank_key(dot_unrolled(query, v), qq, dot_unrolled(v, v)),
                i,
            )
        })
        .filter(|(key, _)| !key.is_nan())
        .collect();
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    keyed.truncate(k);
    keyed
        .into_iter()
        .map(|(key, index)| Neighbor {
            index,
            distance: metric.key_to_distance(key),
        })
        .collect()
}

/// Bit-level equality for neighbor lists (f32 `==` would conflate
/// distinct NaN/zero encodings; parity here means *byte-identical*).
fn assert_bit_identical(a: &[Neighbor], b: &[Neighbor]) {
    assert_eq!(a.len(), b.len(), "hit count mismatch");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.index, y.index);
        assert_eq!(
            x.distance.to_bits(),
            y.distance.to_bits(),
            "distance bits differ at index {}: {} vs {}",
            x.index,
            x.distance,
            y.distance
        );
    }
}

proptest! {
    #[test]
    fn brute_force_is_byte_identical_to_seed_sort_reference(
        vs in vectors(50, 8),
        query in prop::collection::vec(-10.0f32..10.0, 8..=8),
        k in 0usize..12
    ) {
        for metric in [Metric::L2, Metric::Cosine] {
            let idx = index(&vs, metric);
            assert_bit_identical(
                &one(&idx, &query, k),
                &seed_sort_reference(&vs, metric, &query, k, None),
            );
            // Exclusion parity: a row query's in-scan skip must equal
            // filtering the reference.
            let row = vs.len() / 2;
            assert_bit_identical(
                &idx.search(Queries::Rows(&[row]), k)[0],
                &seed_sort_reference(&vs, metric, &vs[row], k, Some(row)),
            );
        }
    }

    #[test]
    fn normalized_corpora_are_byte_identical_too(
        vs in vectors(40, 6),
        query in prop::collection::vec(-1.0f32..1.0, 6..=6),
        k in 1usize..6
    ) {
        // The blocking workloads always run over unit vectors; pin that
        // regime explicitly.
        let mut vs = vs;
        for v in &mut vs {
            crowdprompt_embed::normalize(v);
        }
        let idx = index(&vs, Metric::L2);
        assert_bit_identical(
            &one(&idx, &query, k),
            &seed_sort_reference(&vs, Metric::L2, &query, k, None),
        );
    }

    #[test]
    fn batched_queries_match_the_reference_at_any_worker_count(
        vs in vectors(30, 5),
        queries in prop::collection::vec(prop::collection::vec(-10.0f32..10.0, 5..=5), 1..40),
        k in 1usize..6,
        workers in 1usize..5
    ) {
        // Up to two and a half tiles of free queries, cut into `workers`
        // chunks: each answer is the reference's, whatever tile and chunk
        // it landed in.
        let idx = index(&vs, Metric::L2);
        let flat: Vec<f32> = queries.iter().flatten().copied().collect();
        let tiled = idx.search_with_workers(Queries::Flat(&flat), k, workers);
        prop_assert_eq!(tiled.len(), queries.len());
        for (hits, query) in tiled.iter().zip(&queries) {
            assert_bit_identical(hits, &seed_sort_reference(&vs, Metric::L2, query, k, None));
            assert_bit_identical(hits, &one(&idx, query, k));
        }
        // The auto-sized entry point is the same answers.
        prop_assert_eq!(idx.search(Queries::Flat(&flat), k), tiled);
        // Row queries, some repeated, against the reference's exclusion.
        let rows: Vec<usize> = (0..queries.len()).map(|i| (i * 7) % idx.len()).collect();
        let tiled = idx.search_with_workers(Queries::Rows(&rows), k, workers);
        for (hits, &row) in tiled.iter().zip(&rows) {
            assert_bit_identical(
                hits,
                &seed_sort_reference(&vs, Metric::L2, &vs[row], k, Some(row)),
            );
        }
    }

    #[test]
    fn self_join_with_ties_and_nan_rows_matches_the_reference(
        // Few distinct values in few dimensions: duplicate rows, equal
        // keys at the worst kept rank (the `bound` fast path's tie case),
        // zero vectors, and about one row in four containing a NaN.
        cells in prop::collection::vec(prop::collection::vec(0u8..12, 3..=3), 2..60),
        k in 1usize..7,
        cosine in any::<bool>()
    ) {
        let vs: Vec<Vec<f32>> = cells
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&c| if c == 11 { f32::NAN } else { f32::from(c % 4) })
                    .collect()
            })
            .collect();
        let metric = if cosine { Metric::Cosine } else { Metric::L2 };
        let idx = index(&vs, metric);
        let rows: Vec<usize> = (0..vs.len()).collect();
        let flat: Vec<f32> = vs.iter().flatten().copied().collect();
        let per_row: Vec<Vec<Neighbor>> = rows
            .iter()
            .map(|&i| seed_sort_reference(&vs, metric, &vs[i], k, Some(i)))
            .collect();
        for (tiled, single) in idx.search(Queries::Rows(&rows), k).iter().zip(&per_row) {
            assert_bit_identical(tiled, single);
        }
        for workers in 1..=3 {
            let tiled = idx.search_with_workers(Queries::Rows(&rows), k, workers);
            for (i, (tiled, single)) in tiled.iter().zip(&per_row).enumerate() {
                assert_bit_identical(tiled, single);
                assert_bit_identical(tiled, &idx.search(Queries::Rows(&[i]), k)[0]);
            }
            // Without the exclusion every finite row finds itself or an
            // earlier duplicate first.
            let tiled = idx.search_with_workers(Queries::Flat(&flat), k, workers);
            for (tiled, query) in tiled.iter().zip(&vs) {
                assert_bit_identical(tiled, &seed_sort_reference(&vs, metric, query, k, None));
            }
        }
    }

    #[test]
    fn embed_all_flat_matches_sequential_at_any_worker_count(
        texts in prop::collection::vec("[a-z ]{0,40}", 1..40),
        workers in 1usize..5
    ) {
        let e = NgramEmbedder::ada_like();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let sequential: Vec<f32> = refs.iter().flat_map(|t| e.embed(t)).collect();
        let parallel = embed_all_flat_with_workers(&e, &refs, workers);
        prop_assert_eq!(parallel, sequential);
    }

    #[test]
    fn fused_distance_tracks_seed_l2(
        a in prop::collection::vec(-10.0f32..10.0, 12..=12),
        b in prop::collection::vec(-10.0f32..10.0, 12..=12)
    ) {
        // The fused rank-key path must agree with the seed's pairwise
        // subtraction formula up to floating-point reassociation.
        let key = Metric::L2.rank_key(
            dot_unrolled(&a, &b),
            dot_unrolled(&a, &a),
            dot_unrolled(&b, &b),
        );
        let fused = Metric::L2.key_to_distance(key);
        let seed = l2_distance(&a, &b);
        prop_assert!(
            (fused - seed).abs() < 1e-2 + seed * 1e-4,
            "fused {fused} vs seed {seed}"
        );
    }

    #[test]
    fn nearest_distances_are_sorted(
        vs in vectors(30, 4),
        query in prop::collection::vec(-10.0f32..10.0, 4..=4)
    ) {
        let hits = one(&index(&vs, Metric::L2), &query, 10);
        for w in hits.windows(2) {
            prop_assert!(w[0].distance <= w[1].distance + 1e-6);
        }
    }

    #[test]
    fn cosine_is_bounded_and_symmetric(
        a in prop::collection::vec(-10.0f32..10.0, 8..=8),
        b in prop::collection::vec(-10.0f32..10.0, 8..=8)
    ) {
        let s = cosine_similarity(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&s));
        prop_assert!((s - cosine_similarity(&b, &a)).abs() < 1e-6);
    }

    #[test]
    fn l2_triangle_inequality(
        a in prop::collection::vec(-10.0f32..10.0, 5..=5),
        b in prop::collection::vec(-10.0f32..10.0, 5..=5),
        c in prop::collection::vec(-10.0f32..10.0, 5..=5)
    ) {
        prop_assert!(
            l2_distance(&a, &c) <= l2_distance(&a, &b) + l2_distance(&b, &c) + 1e-4
        );
    }

    #[test]
    fn embedder_output_is_unit_or_zero(text in ".{0,120}") {
        let e = NgramEmbedder::ada_like();
        let v = e.embed(&text);
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        prop_assert!(
            norm < 1e-6 || (norm - 1.0).abs() < 1e-4,
            "norm {norm} for {text:?}"
        );
    }

    #[test]
    fn embedding_self_similarity_is_max(text in "[a-z ]{3,80}") {
        let e = NgramEmbedder::ada_like();
        let v = e.embed(&text);
        if v.iter().any(|x| *x != 0.0) {
            prop_assert!((cosine_similarity(&v, &v) - 1.0).abs() < 1e-5);
        }
    }
}
