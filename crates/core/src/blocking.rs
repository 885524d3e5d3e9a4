//! The shared embedding-blocking layer (paper §3.4): one index abstraction
//! that `resolve`, `join`, `cluster`, and `impute` all route their non-LLM
//! candidate pruning through.
//!
//! A [`BlockingIndex`] embeds a corpus of items once, straight into the
//! flat [`crowdprompt_embed::VectorStore`] layout (via the parallel
//! [`Embedder::embed_all_flat`] — no nested-row intermediate), picks the
//! exact scan or the IVF tier per corpus shape, and serves *batched* neighbor
//! queries — operators hand it whole item collections instead of looping
//! one record at a time. Neighbor lookups for indexed items are memoized
//! (`(item, k)` → hits), and an indexed item's own stored vector is reused
//! as its query (no re-embedding) with the self-hit excluded inside the
//! scan rather than ranked and discarded.

use std::collections::HashMap;

use crowdprompt_embed::{
    dot_unrolled, predict_auto_kind, Embedder, KnnIndex, Metric, NearestNeighbors, Neighbor,
    NgramEmbedder, VectorStore,
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
    metric: Metric,
    recall_target: Option<f32>,
    cache: parking_lot::Mutex<HashMap<(ItemId, usize), Vec<BlockingHit>>>,
}

impl BlockingIndex {
    /// Build an index over the given items using the engine's corpus texts
    /// and the ada-like n-gram embedder (L2 distance, as in §3.3).
    ///
    /// The recall target is inherited from the engine
    /// ([`Engine::blocking_recall_target`]), so every blocking consumer —
    /// dedup, join, cluster, impute-knn — picks up approximate blocking
    /// from one engine knob. See [`BlockingIndex::build_with`].
    pub fn build(engine: &Engine, items: &[ItemId]) -> Result<Self, EngineError> {
        Self::build_with(engine, items, engine.blocking_recall_target())
    }

    /// Build with an explicit recall target, overriding the engine's.
    ///
    /// Texts are embedded through the parallel
    /// [`Embedder::embed_all_flat`] (one corpus-sized buffer, no per-row
    /// allocations) and the index implementation is chosen by
    /// [`KnnIndex::auto_tuned_from_store`]:
    /// small or low-dimensional corpora get the exact brute-force scan
    /// regardless of the target, and a target of `None` (or `>= 1.0`)
    /// keeps even million-row corpora exact. A sub-1.0 target on a large
    /// high-dimensional corpus builds the approximate IVF + SQ8 tier
    /// tuned for that recall@k.
    pub fn build_with(
        engine: &Engine,
        items: &[ItemId],
        recall_target: Option<f32>,
    ) -> Result<Self, EngineError> {
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
        let metric = Metric::L2;
        let mut pos = HashMap::with_capacity(items.len());
        for (i, &id) in items.iter().enumerate() {
            pos.entry(id).or_insert(i);
        }
        let index = match recall_target {
            Some(target) => KnnIndex::auto_tuned_from_store(store, metric, target),
            None => KnnIndex::auto_from_store(store, metric),
        };
        Ok(BlockingIndex {
            items: items.to_vec(),
            pos,
            index,
            embedder,
            metric,
            recall_target,
            cache: parking_lot::Mutex::new(HashMap::new()),
        })
    }

    /// The recall target this index was built with (`None` = exact).
    pub fn recall_target(&self) -> Option<f32> {
        self.recall_target
    }

    /// Which k-NN implementation [`BlockingIndex::build_with`] would pick
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

    /// The `k` nearest indexed items to `id` with their distances,
    /// excluding `id` itself when indexed. Memoized per `(id, k)`.
    ///
    /// An indexed `id` queries with its stored vector (no re-embedding);
    /// an unindexed `id` is embedded from its corpus text, and an unknown
    /// `id` yields no hits.
    pub fn neighbors(&self, engine: &Engine, id: ItemId, k: usize) -> Vec<BlockingHit> {
        if let Some(hit) = self.cache.lock().get(&(id, k)) {
            return hit.clone();
        }
        let hits = if let Some(&p) = self.pos.get(&id) {
            // Indexed item: query straight off its stored row (no
            // re-embedding, no copy), excluding itself inside the scan.
            let raw = self
                .index
                .nearest_rows(&[p], k)
                .pop()
                .expect("one row query"); // lint: allow(no-unwrap)
            self.to_hits(raw)
        } else if let Some(text) = engine.corpus().text(id) {
            self.to_hits(self.index.nearest(&self.embedder.embed(text), k))
        } else {
            Vec::new()
        };
        self.cache.lock().insert((id, k), hits.clone());
        hits
    }

    /// Batched [`BlockingIndex::neighbors`] over many ids: uncached
    /// queries are answered through the tiled batch scans (indexed ids by
    /// [`KnnIndex::nearest_rows`], the rest by
    /// [`BlockingIndex::nearest_texts`], both partitioned across
    /// threads), results land in the memo cache, and the output is
    /// position-aligned with `ids`.
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
        let member_raw = self.index.nearest_rows(&member_rows, k);
        // Strangers are embedded as one parallel batch and scanned as
        // tiles, like any other batch of query texts.
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
    /// [`BlockingIndex::neighbors_many`]): texts are embedded in parallel
    /// and answered through one [`NearestNeighbors::nearest_many`] call.
    /// Not memoized (query texts are not indexed items).
    pub fn nearest_texts(&self, texts: &[&str], k: usize) -> Vec<Vec<BlockingHit>> {
        let queries = self.embedder.embed_all(texts);
        self.index
            .nearest_many(&queries, k)
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
        let store = self.index.store();
        let key = self.metric.rank_key(
            dot_unrolled(store.row(i), store.row(j)),
            store.norm_sq(i),
            store.norm_sq(j),
        );
        Some(self.metric.key_to_distance(key))
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
        let hits = index.neighbors(&engine, ids[4], 5);
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
            assert_eq!(hits, &single_index.neighbors(&engine, *id, 3), "id {id:?}");
        }
    }

    #[test]
    fn neighbors_are_memoized() {
        let (engine, ids) = setup(8);
        let index = BlockingIndex::build(&engine, &ids).unwrap();
        let first = index.neighbors(&engine, ids[0], 4);
        assert_eq!(index.cache.lock().len(), 1);
        let second = index.neighbors(&engine, ids[0], 4);
        assert_eq!(first, second);
        assert_eq!(index.cache.lock().len(), 1);
    }

    #[test]
    fn unknown_item_yields_no_hits() {
        let (engine, ids) = setup(5);
        let index = BlockingIndex::build(&engine, &ids[..4]).unwrap();
        // ids[4] is in the corpus but not indexed: embedded on the fly,
        // and nothing is excluded from its hits.
        assert_eq!(index.neighbors(&engine, ids[4], 2).len(), 2);
        // An id in neither the index nor the corpus: deterministically empty.
        let ghost = ItemId(9_999);
        assert!(index.neighbors(&engine, ghost, 2).is_empty());
        let batch = index.neighbors_many(&engine, &[ids[0], ghost], 2);
        assert_eq!(batch[0], index.neighbors(&engine, ids[0], 2));
        assert!(batch[1].is_empty());
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
    fn recall_target_is_inherited_from_the_engine() {
        let (engine, ids) = setup(10);
        let engine = engine.with_blocking_recall_target(0.95);
        let index = BlockingIndex::build(&engine, &ids).unwrap();
        assert_eq!(index.recall_target(), Some(0.95));
        // Small corpora stay exact regardless of the target.
        assert_eq!(index.index_kind(), "brute_force");
        let exact = BlockingIndex::build_with(&engine, &ids, None).unwrap();
        assert_eq!(exact.recall_target(), None);
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
