//! Feature-hashing text embedders.

use crate::vector::normalize;

/// Anything that can turn text into a fixed-dimension vector.
pub trait Embedder: Send + Sync {
    /// Output dimensionality.
    fn dimensions(&self) -> usize;
    /// Embed one text.
    fn embed(&self, text: &str) -> Vec<f32>;

    /// Embed one text into a caller-provided slice of exactly
    /// [`Embedder::dimensions`] elements, overwriting its contents.
    ///
    /// The default implementation copies from [`Embedder::embed`];
    /// implementations that can fill in place (like [`NgramEmbedder`])
    /// override it to skip the per-row allocation, which is what lets
    /// [`Embedder::embed_all_flat`] build a corpus-sized buffer with a
    /// single allocation.
    ///
    /// # Panics
    /// Panics if `out.len() != self.dimensions()`.
    fn embed_into(&self, text: &str, out: &mut [f32]) {
        assert_eq!(
            out.len(),
            self.dimensions(),
            "output slice must match the embedder dimensionality"
        );
        out.copy_from_slice(&self.embed(text));
    }

    /// Embed a batch of texts into one flat row-major buffer
    /// (`texts.len() * dimensions` elements), the native layout of
    /// [`crate::VectorStore`] and of [`crate::Queries::Flat`].
    ///
    /// One batch-sized allocation, split across `std::thread::scope`
    /// workers (embedders are `Send + Sync`) that each fill a disjoint row
    /// range in place via [`Embedder::embed_into`] — no per-row `Vec`s to
    /// allocate, repack, and free. Values are identical to embedding the
    /// texts one at a time in order; small batches run inline to skip
    /// thread spawn cost.
    fn embed_all_flat(&self, texts: &[&str]) -> Vec<f32> {
        let workers = std::thread::available_parallelism().map_or(1, usize::from);
        // Below ~16 texts per worker, spawn cost beats the win.
        embed_all_flat_with_workers(self, texts, workers.min(texts.len() / 16))
    }
}

/// The partitioning driver behind the default
/// [`Embedder::embed_all_flat`], with an explicit worker count: one flat
/// row-major buffer is allocated up front and split into `workers`
/// contiguous row ranges, each filled in place on its own
/// `std::thread::scope` worker through [`Embedder::embed_into`]. Output
/// is identical to embedding the texts one at a time. Exposed so the
/// parallel path is testable deterministically on any machine.
pub fn embed_all_flat_with_workers<E: Embedder + ?Sized>(
    embedder: &E,
    texts: &[&str],
    workers: usize,
) -> Vec<f32> {
    let dims = embedder.dimensions();
    if texts.is_empty() || dims == 0 {
        return Vec::new();
    }
    let mut flat = vec![0.0f32; dims * texts.len()];
    let workers = workers.clamp(1, texts.len());
    if workers <= 1 {
        for (text, out) in texts.iter().zip(flat.chunks_mut(dims)) {
            embedder.embed_into(text, out);
        }
        return flat;
    }
    let chunk_rows = texts.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for (texts_chunk, flat_chunk) in texts
            .chunks(chunk_rows)
            .zip(flat.chunks_mut(chunk_rows * dims))
        {
            scope.spawn(move || {
                for (text, out) in texts_chunk.iter().zip(flat_chunk.chunks_mut(dims)) {
                    embedder.embed_into(text, out);
                }
            });
        }
    });
    flat
}

/// Character n-gram + word unigram feature-hash embedder.
///
/// Each lowercase character n-gram and each word is hashed into one of
/// `dimensions` buckets with a sign derived from a second hash (the standard
/// "hashing trick"), then the vector is L2-normalized. Similar strings share
/// most n-grams, so they land close in cosine/L2 space — the property the
/// Table 3 and Table 4 experiments need from `text-embedding-ada-002`.
#[derive(Debug, Clone)]
pub struct NgramEmbedder {
    dimensions: usize,
    ngram: usize,
    include_words: bool,
}

impl NgramEmbedder {
    /// An embedder with the given output dimensionality and n-gram size.
    ///
    /// # Panics
    /// Panics if `dimensions == 0` or `ngram == 0`.
    pub fn new(dimensions: usize, ngram: usize) -> Self {
        assert!(dimensions > 0, "dimensions must be positive");
        assert!(ngram > 0, "ngram must be positive");
        NgramEmbedder {
            dimensions,
            ngram,
            include_words: true,
        }
    }

    /// The configuration used throughout the experiments: 256 dimensions,
    /// trigrams, word features on.
    pub fn ada_like() -> Self {
        NgramEmbedder::new(256, 3)
    }

    /// Disable word-unigram features (pure character n-grams).
    #[must_use]
    pub fn without_words(mut self) -> Self {
        self.include_words = false;
        self
    }

    fn bucket(&self, feature: &[u8]) -> (usize, f32) {
        let h = fnv1a(feature);
        let idx = (h % self.dimensions as u64) as usize;
        // An independent bit decides the sign, which keeps hash collisions
        // from systematically inflating bucket magnitudes.
        let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
        (idx, sign)
    }
}

impl Embedder for NgramEmbedder {
    fn dimensions(&self) -> usize {
        self.dimensions
    }

    fn embed(&self, text: &str) -> Vec<f32> {
        let mut v = vec![0.0f32; self.dimensions];
        self.embed_into(text, &mut v);
        v
    }

    fn embed_into(&self, text: &str, v: &mut [f32]) {
        assert_eq!(
            v.len(),
            self.dimensions,
            "output slice must match the embedder dimensionality"
        );
        v.fill(0.0);
        let lowered = text.to_lowercase();
        // Each n-gram is the bytes between two character boundaries
        // `ngram` characters apart: `ends` runs that far ahead of `starts`.
        let boundaries = || lowered.char_indices().map(|(at, _)| at);
        let ends = boundaries().chain([lowered.len()]).skip(self.ngram);
        for (start, end) in boundaries().zip(ends) {
            let (idx, sign) = self.bucket(&lowered.as_bytes()[start..end]);
            v[idx] += sign;
        }
        if self.include_words {
            for word in lowered.split(|c: char| !c.is_alphanumeric()) {
                if word.is_empty() {
                    continue;
                }
                let (idx, sign) = self.bucket(word.as_bytes());
                v[idx] += 2.0 * sign; // word features weigh more than char n-grams
            }
        }
        normalize(v);
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::{cosine_similarity, l2_distance};

    #[test]
    fn deterministic() {
        let e = NgramEmbedder::ada_like();
        assert_eq!(e.embed("hello world"), e.embed("hello world"));
    }

    #[test]
    fn dimensions_respected() {
        let e = NgramEmbedder::new(64, 3);
        assert_eq!(e.embed("anything").len(), 64);
        assert_eq!(e.dimensions(), 64);
    }

    #[test]
    fn similar_strings_are_closer_than_dissimilar() {
        let e = NgramEmbedder::ada_like();
        let a = e.embed("indexing the positions of continuously moving objects");
        let b = e.embed("indexing the positions of continously moving objects");
        let c = e.embed("a survey of crowdsourced join algorithms for databases");
        assert!(cosine_similarity(&a, &b) > cosine_similarity(&a, &c) + 0.3);
        assert!(l2_distance(&a, &b) < l2_distance(&a, &c));
    }

    #[test]
    fn empty_and_short_texts_embed() {
        let e = NgramEmbedder::ada_like();
        let v = e.embed("");
        assert_eq!(v.len(), 256);
        assert!(v.iter().all(|x| *x == 0.0));
        let v = e.embed("ab");
        assert_eq!(v.len(), 256);
        // "ab" is shorter than the trigram window but is still a word feature.
        assert!(v.iter().any(|x| *x != 0.0));
    }

    #[test]
    fn output_bits_match_the_recorded_vectors() {
        // Recorded from the implementation that rebuilt a `String` per
        // n-gram (before PR 18): ASCII, multi-byte, case-folding that
        // changes byte length, shorter than the window, and empty.
        let cases: [(usize, bool, &str, [u32; 8]); 10] = [
            (
                3,
                true,
                "Chocolate Fudge, 2 scoops",
                [
                    0xbf0e38e4, 0xbf471c72, 0x00000000, 0xbde38e39, 0x3de38e39, 0xbde38e39,
                    0xbe638e39, 0x00000000,
                ],
            ),
            (
                3,
                true,
                "naïve café 東京",
                [
                    0x3e4511a3, 0x3f4511a3, 0x3e4511a3, 0x3ec511a3, 0xbe4511a3, 0x00000000,
                    0x00000000, 0xbec511a3,
                ],
            ),
            (3, true, "ab", [0, 0, 0xbf800000, 0, 0, 0, 0, 0]),
            (3, true, "é", [0, 0xbf800000, 0, 0, 0, 0, 0, 0]),
            (3, true, "", [0; 8]),
            (
                3,
                true,
                "İstanbul ǅ",
                [
                    0xbf279762, 0xbe5f7482, 0x3e5f7482, 0xbe5f7482, 0xbf279762, 0x00000000,
                    0x00000000, 0x00000000,
                ],
            ),
            (
                2,
                false,
                "naïve café 東京",
                [
                    0xbeda514a, 0xbeda514a, 0x00000000, 0x3eda514a, 0xbeda514a, 0x3e5a514a,
                    0xbeda514a, 0xbe5a514a,
                ],
            ),
            (2, false, "ab", [0, 0, 0xbf800000, 0, 0, 0, 0, 0]),
            (2, false, "é", [0; 8]),
            (
                5,
                true,
                "Chocolate Fudge, 2 scoops",
                [
                    0xbf4cf6cb, 0x00000000, 0x00000000, 0xbe23f8a3, 0x3e23f8a3, 0x3ea3f8a3,
                    0xbea3f8a3, 0xbea3f8a3,
                ],
            ),
        ];
        for (ngram, words, text, expected) in cases {
            let e = NgramEmbedder::new(8, ngram);
            let e = if words { e } else { e.without_words() };
            let got: Vec<u32> = e.embed(text).iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, expected, "ngram {ngram} words {words} text {text:?}");
        }
    }

    #[test]
    fn unit_norm_for_nonempty() {
        let e = NgramEmbedder::ada_like();
        let v = e.embed("some record text with several words");
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn case_insensitive() {
        let e = NgramEmbedder::ada_like();
        assert_eq!(e.embed("Chocolate Fudge"), e.embed("chocolate fudge"));
    }

    #[test]
    fn embed_into_matches_embed_and_overwrites() {
        let e = NgramEmbedder::ada_like();
        let mut out = vec![7.0f32; 256]; // stale garbage must be overwritten
        e.embed_into("chocolate fudge", &mut out);
        assert_eq!(out, e.embed("chocolate fudge"));
    }

    #[test]
    #[should_panic(expected = "output slice must match")]
    fn embed_into_wrong_len_panics() {
        NgramEmbedder::ada_like().embed_into("x", &mut [0.0f32; 3]);
    }

    #[test]
    fn embed_all_flat_matches_one_at_a_time_at_any_worker_count() {
        let e = NgramEmbedder::new(32, 3);
        let texts: Vec<String> = (0..37).map(|i| format!("record number {i}")).collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let expected: Vec<f32> = refs.iter().flat_map(|t| e.embed(t)).collect();
        for workers in [0usize, 1, 2, 3, 7, 64] {
            assert_eq!(
                embed_all_flat_with_workers(&e, &refs, workers),
                expected,
                "workers={workers}"
            );
        }
        assert_eq!(e.embed_all_flat(&refs), expected);
        assert_eq!(e.embed_all_flat(&[]), Vec::<f32>::new());
    }

    #[test]
    fn without_words_differs() {
        let with = NgramEmbedder::ada_like();
        let without = NgramEmbedder::ada_like().without_words();
        assert_ne!(with.embed("hello world"), without.embed("hello world"));
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimensions_panics() {
        NgramEmbedder::new(0, 3);
    }
}
