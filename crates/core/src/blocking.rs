//! The shared embedding-blocking layer (paper §3.4): one index abstraction
//! that `resolve`, `join`, `cluster`, and `impute` all route their non-LLM
//! candidate pruning through.
//!
//! A [`BlockingIndex`] embeds a corpus of items once, straight into the
//! flat [`crowdprompt_embed::VectorStore`] layout
//! ([`Embedder::embed_all_flat`]), lets [`KnnIndex::build`] pick the exact
//! scan or the IVF tier per corpus shape, and serves *batched* neighbor
//! queries — operators hand it whole item collections, never one record at
//! a time. A batch reaches the index as exactly one of two shapes, both
//! through the one `search(queries, k)`: indexed items as
//! [`Queries::Rows`] (the stored row *is* the query — no re-embedding, no
//! copy — and is left out of its own answer inside the scan), everything
//! else as texts embedded into one flat buffer and asked as
//! [`Queries::Flat`]. Neighbor lookups for items are memoized (`(item, k)`
//! → hits).

use std::collections::HashMap;

use crowdprompt_embed::{
    dot_unrolled, predict_auto_kind, Embedder, KnnIndex, Metric, Neighbor, NgramEmbedder, Queries,
    VectorStore,
};
use crowdprompt_oracle::world::ItemId;

use crate::error::EngineError;
use crate::exec::Engine;

/// One blocking candidate: an indexed item and its embedding distance
/// from the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockingHit {
    /// The indexed item.
    pub item: ItemId,
    /// Distance from the query under the index metric.
    pub distance: f32,
}

/// An embedding index over a collection of corpus items, serving batched
/// k-nearest-neighbor blocking queries for every operator.
pub struct BlockingIndex {
    items: Vec<ItemId>,
    /// First insertion position of each item (duplicates keep the first,
    /// matching the seed's `Vec::position` lookups).
    pos: HashMap<ItemId, usize>,
    index: KnnIndex,
    embedder: NgramEmbedder,
    cache: parking_lot::Mutex<HashMap<(ItemId, usize), Vec<BlockingHit>>>,
}

impl BlockingIndex {
    /// Build an index over the given items using the engine's corpus texts
    /// and the ada-like n-gram embedder (L2 distance, as in §3.3).
    ///
    /// Texts are embedded through the parallel
    /// [`Embedder::embed_all_flat`] (one corpus-sized buffer, no per-row
    /// allocations) and the index implementation is chosen by
    /// [`KnnIndex::build`] under the engine's recall target
    /// ([`Engine::blocking_recall_target`]), so every blocking consumer —
    /// dedup, join, cluster, impute-knn — picks up approximate blocking
    /// from one engine knob: small or low-dimensional corpora get the exact
    /// brute-force scan regardless of the target, and a target of `None`
    /// (or `>= 1.0`) keeps even million-row corpora exact. A sub-1.0 target
    /// on a large high-dimensional corpus builds the approximate IVF + SQ8
    /// tier tuned for that recall@k.
    pub fn build(engine: &Engine, items: &[ItemId]) -> Result<Self, EngineError> {
        let embedder = NgramEmbedder::ada_like();
        let mut texts = Vec::with_capacity(items.len());
        for &id in items {
            texts.push(
                engine
                    .corpus()
                    .text(id)
                    .ok_or(EngineError::UnknownItem(id))?,
            );
        }
        // The embedder writes straight into the store's flat row-major
        // layout — no per-row vectors to allocate, repack, and free.
        let store = VectorStore::from_flat(embedder.embed_all_flat(&texts), embedder.dimensions());
        let mut pos = HashMap::with_capacity(items.len());
        for (i, &id) in items.iter().enumerate() {
            pos.entry(id).or_insert(i);
        }
        Ok(BlockingIndex {
            items: items.to_vec(),
            pos,
            index: KnnIndex::build(store, Metric::L2, engine.blocking_recall_target()),
            embedder,
            cache: parking_lot::Mutex::new(HashMap::new()),
        })
    }

    /// Which k-NN implementation [`BlockingIndex::build`] would pick
    /// for a corpus of `len` items at the given recall target, without
    /// embedding or building anything — the planner's cost model uses
    /// this to annotate plans and adjust neighbor-call economics. Mirrors
    /// the ada-like embedder shape (256 dims, L2).
    pub fn predicted_index_kind(len: usize, recall_target: Option<f32>) -> &'static str {
        let dims = NgramEmbedder::ada_like().dimensions();
        predict_auto_kind(len, dims, Metric::L2, recall_target.unwrap_or(1.0))
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The indexed items, in insertion order.
    pub fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// Which k-NN implementation backs this index (`"brute_force"` /
    /// `"ivf_sq8"`).
    pub fn index_kind(&self) -> &'static str {
        self.index.kind()
    }

    /// The `k` nearest indexed items to each of `ids` with their
    /// distances, position-aligned with `ids` and memoized per `(id, k)`.
    ///
    /// An indexed id queries with its stored row, itself left out of the
    /// answer ([`Queries::Rows`]); an unindexed id is embedded from its
    /// corpus text like any other query text
    /// ([`BlockingIndex::nearest_texts`]); an id in neither yields no hits.
    /// Repeated ids are scanned once, and both kinds of query go to the
    /// index as one batch each.
    pub fn neighbors_many(
        &self,
        engine: &Engine,
        ids: &[ItemId],
        k: usize,
    ) -> Vec<Vec<BlockingHit>> {
        let mut out: Vec<Option<Vec<BlockingHit>>> = {
            let cache = self.cache.lock();
            ids.iter().map(|id| cache.get(&(*id, k)).cloned()).collect()
        };
        // Gather the queries that still need answering (deduplicating
        // repeated ids so each distinct record is scanned once), split
        // into indexed ids (answered zero-copy off their stored rows)
        // and stranger ids (embedded from corpus text).
        let mut pending: Vec<(ItemId, Vec<usize>)> = Vec::new();
        let mut slot_of: HashMap<ItemId, usize> = HashMap::new();
        for (slot, (&id, res)) in ids.iter().zip(&out).enumerate() {
            if res.is_some() {
                continue;
            }
            match slot_of.get(&id) {
                Some(&p) => pending[p].1.push(slot),
                None => {
                    slot_of.insert(id, pending.len());
                    pending.push((id, vec![slot]));
                }
            }
        }
        let mut member_rows: Vec<usize> = Vec::new();
        let mut member_pending: Vec<usize> = Vec::new();
        let mut stranger_texts: Vec<&str> = Vec::new();
        let mut stranger_pending: Vec<usize> = Vec::new();
        for (p, (id, slots)) in pending.iter().enumerate() {
            if let Some(&row) = self.pos.get(id) {
                member_rows.push(row);
                member_pending.push(p);
            } else if let Some(text) = engine.corpus().text(*id) {
                stranger_texts.push(text);
                stranger_pending.push(p);
            } else {
                // Unknown item: record the empty result.
                self.cache.lock().insert((*id, k), Vec::new());
                for &slot in slots {
                    out[slot] = Some(Vec::new());
                }
            }
        }
        let member_raw = self.index.search(Queries::Rows(&member_rows), k);
        let stranger_hits = self.nearest_texts(&stranger_texts, k);
        let mut cache = self.cache.lock();
        let answered = member_pending
            .iter()
            .zip(member_raw.into_iter().map(|raw| self.to_hits(raw)))
            .chain(stranger_pending.iter().zip(stranger_hits));
        for (&p, hits) in answered {
            let (id, slots) = &pending[p];
            cache.insert((*id, k), hits.clone());
            for &slot in slots {
                out[slot] = Some(hits.clone());
            }
        }
        drop(cache);
        out.into_iter()
            .map(|r| r.expect("every slot answered")) // lint: allow(no-unwrap)
            .collect()
    }

    /// Batched nearest-indexed-items lookup for arbitrary query texts
    /// (the join operator's probe side, and the unindexed ids of
    /// [`BlockingIndex::neighbors_many`]): the texts are embedded in
    /// parallel into one flat buffer and asked as one [`Queries::Flat`]
    /// batch. Not memoized (query texts are not indexed items).
    pub fn nearest_texts(&self, texts: &[&str], k: usize) -> Vec<Vec<BlockingHit>> {
        let queries = self.embedder.embed_all_flat(texts);
        self.index
            .search(Queries::Flat(&queries), k)
            .into_iter()
            .map(|raw| self.to_hits(raw))
            .collect()
    }

    /// Embedding distance between two indexed items (`None` if either is
    /// not indexed). One fused dot product over the stored rows — no
    /// re-embedding, no scan.
    pub fn distance_between(&self, a: ItemId, b: ItemId) -> Option<f32> {
        let &i = self.pos.get(&a)?;
        let &j = self.pos.get(&b)?;
        let (store, metric) = (self.index.store(), self.index.metric());
        let key = metric.rank_key(
            dot_unrolled(store.row(i), store.row(j)),
            store.norm_sq(i),
            store.norm_sq(j),
        );
        Some(metric.key_to_distance(key))
    }

    fn to_hits(&self, raw: Vec<Neighbor>) -> Vec<BlockingHit> {
        raw.into_iter()
            .map(|n| BlockingHit {
                item: self.items[n.index],
                distance: n.distance,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::corpus::Corpus;
    use crowdprompt_oracle::model::{ModelProfile, NoiseProfile};
    use crowdprompt_oracle::sim::SimulatedLlm;
    use crowdprompt_oracle::world::WorldModel;
    use crowdprompt_oracle::LlmClient;
    use std::sync::Arc;

    fn setup(n: usize) -> (Engine, Vec<ItemId>) {
        let mut w = WorldModel::new();
        let ids: Vec<ItemId> = (0..n)
            .map(|i| w.add_item(format!("record number {i:03} about topic {}", i % 5)))
            .collect();
        let corpus = Corpus::from_world(&w, &ids);
        let llm = Arc::new(SimulatedLlm::new(
            ModelProfile::gpt35_like().with_noise(NoiseProfile::perfect()),
            Arc::new(w),
            3,
        ));
        (
            Engine::new(Arc::new(LlmClient::new(llm)), corpus).with_budget(Budget::Unlimited),
            ids,
        )
    }

    #[test]
    fn neighbors_exclude_self_and_sort_ascending() {
        let (engine, ids) = setup(12);
        let index = BlockingIndex::build(&engine, &ids).unwrap();
        assert_eq!(index.len(), 12);
        assert_eq!(index.index_kind(), "brute_force");
        let hits = index.neighbors_many(&engine, &[ids[4]], 5).remove(0);
        assert_eq!(hits.len(), 5);
        assert!(hits.iter().all(|h| h.item != ids[4]));
        for w in hits.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn neighbors_many_matches_one_at_a_time() {
        let (engine, ids) = setup(20);
        let batch_index = BlockingIndex::build(&engine, &ids).unwrap();
        let single_index = BlockingIndex::build(&engine, &ids).unwrap();
        // Repeat some ids to exercise in-batch dedup.
        let mut probe = ids.clone();
        probe.extend_from_slice(&ids[..6]);
        let batch = batch_index.neighbors_many(&engine, &probe, 3);
        for (id, hits) in probe.iter().zip(&batch) {
            let single = single_index.neighbors_many(&engine, &[*id], 3).remove(0);
            assert_eq!(hits, &single, "id {id:?}");
        }
    }

    #[test]
    fn neighbors_are_memoized() {
        let (engine, ids) = setup(8);
        let index = BlockingIndex::build(&engine, &ids).unwrap();
        let first = index.neighbors_many(&engine, &ids[..1], 4);
        assert_eq!(index.cache.lock().len(), 1);
        let second = index.neighbors_many(&engine, &ids[..1], 4);
        assert_eq!(first, second);
        assert_eq!(index.cache.lock().len(), 1);
    }

    #[test]
    fn unknown_item_yields_no_hits() {
        let (engine, ids) = setup(5);
        let index = BlockingIndex::build(&engine, &ids[..4]).unwrap();
        // ids[4] is in the corpus but not indexed: embedded on the fly,
        // and nothing is excluded from its hits. An id in neither the index
        // nor the corpus is deterministically empty.
        let ghost = ItemId(9_999);
        let batch = index.neighbors_many(&engine, &[ids[4], ids[0], ghost], 2);
        assert_eq!(batch[0].len(), 2);
        assert_eq!(batch[1].len(), 2);
        assert!(batch[1].iter().all(|h| h.item != ids[0]));
        assert!(batch[2].is_empty());
    }

    #[test]
    fn distance_between_is_symmetric_and_zero_on_self() {
        let (engine, ids) = setup(6);
        let index = BlockingIndex::build(&engine, &ids).unwrap();
        let d_ab = index.distance_between(ids[0], ids[1]).unwrap();
        let d_ba = index.distance_between(ids[1], ids[0]).unwrap();
        assert_eq!(d_ab, d_ba);
        assert_eq!(index.distance_between(ids[2], ids[2]), Some(0.0));
        assert_eq!(index.distance_between(ids[0], ItemId(9_999)), None);
    }

    #[test]
    fn nearest_texts_maps_to_items() {
        let (engine, ids) = setup(10);
        let index = BlockingIndex::build(&engine, &ids).unwrap();
        let hits = index.nearest_texts(&["record number 003 about topic 3"], 1);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0][0].item, ids[3]);
        assert!(hits[0][0].distance < 0.2);
    }

    #[test]
    fn small_corpora_stay_exact_under_a_recall_target() {
        let (engine, ids) = setup(10);
        let engine = engine.with_blocking_recall_target(0.95);
        let index = BlockingIndex::build(&engine, &ids).unwrap();
        assert_eq!(index.index_kind(), "brute_force");
    }

    #[test]
    fn predicted_index_kind_matches_auto_routing() {
        use crowdprompt_embed::AUTO_IVF_MIN_LEN;
        // Below the IVF floor (or without a sub-1.0 target): exact.
        assert_eq!(
            BlockingIndex::predicted_index_kind(100, Some(0.9)),
            "brute_force"
        );
        assert_eq!(
            BlockingIndex::predicted_index_kind(AUTO_IVF_MIN_LEN, None),
            "brute_force"
        );
        assert_eq!(
            BlockingIndex::predicted_index_kind(AUTO_IVF_MIN_LEN, Some(1.0)),
            "brute_force"
        );
        // At scale with a sub-1.0 target: the approximate tier.
        assert_eq!(
            BlockingIndex::predicted_index_kind(AUTO_IVF_MIN_LEN, Some(0.95)),
            "ivf_sq8"
        );
    }

    #[test]
    fn empty_index_is_empty() {
        let (engine, _) = setup(3);
        let index = BlockingIndex::build(&engine, &[]).unwrap();
        assert!(index.is_empty());
        assert!(index.nearest_texts(&["anything"], 3)[0].is_empty());
    }
}
