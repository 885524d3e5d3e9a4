//! Golden for the exact blocking scan, recorded at the commit before the
//! explicit AVX2 dot kernels and the `bound` fast path (PR 18) and passing
//! unedited on it: a digest of every self-join neighbour list — stored
//! index and distance *bits* — over real citation embeddings. A failure
//! means a kernel changed its lane arithmetic or the tile loop changed a
//! tie-break; fix the scan, do not re-record the digest.

use crowdprompt::data::{CitationDataset, CitationParams};
use crowdprompt::embed::{BruteForceIndex, Embedder, Metric, NgramEmbedder, VectorStore};

/// FNV-1a over little-endian words.
fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn self_join_neighbours_match_the_recorded_digest() {
    let data = CitationDataset::generate(&CitationParams::small(), 7);
    let texts: Vec<&str> = data
        .mentions
        .iter()
        .take(500)
        .map(|&id| data.world.text(id).expect("a generated mention has text"))
        .collect();
    let embedder = NgramEmbedder::ada_like();
    let store = VectorStore::from_flat(embedder.embed_all_flat(&texts), embedder.dimensions());
    let index = BruteForceIndex::from_store(store, Metric::L2);
    let rows: Vec<usize> = (0..texts.len()).collect();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut hits = 0usize;
    for list in index.search(crowdprompt::embed::Queries::Rows(&rows), 2) {
        fnv(&mut digest, list.len() as u64);
        for n in list {
            fnv(&mut digest, n.index as u64);
            fnv(&mut digest, u64::from(n.distance.to_bits()));
            hits += 1;
        }
    }
    assert_eq!((texts.len(), hits), (120, 240));
    assert_eq!(digest, 0xcab8_03d8_9134_198d, "got {digest:#018x}");
}
