//! The shared embedding-blocking layer (paper §3.4): one index abstraction
//! that `resolve`, `join`, `cluster`, and `impute` all route their non-LLM
//! candidate pruning through.
//!
//! A [`BlockingIndex`] embeds a corpus of items once, straight into the
//! flat [`crowdprompt_embed::VectorStore`] layout
//! ([`embed_all_flat_with_workers`]), indexes it with the exact
//! [`BruteForceIndex`], and serves *batched* neighbor
//! queries — operators hand it whole item collections, never one record at
//! a time. A batch reaches the index as exactly one of two shapes, both
//! through the one `search(queries, k)`: indexed items as
//! [`Queries::Rows`] (the stored row *is* the query — no re-embedding, no
//! copy — and is left out of its own answer inside the scan), everything
//! else as texts embedded into one flat buffer and asked as
//! [`Queries::Flat`]. Embeddings and scans split over the building
//! engine's threads (`min(parallelism, cores)`), never more.

use std::collections::HashMap;

use crowdprompt_embed::{
    dot_unrolled, embed_all_flat_with_workers, BruteForceIndex, Embedder, Metric, Neighbor,
    NgramEmbedder, Queries, VectorStore,
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
///
/// ```
/// # use std::sync::Arc;
/// # use crowdprompt_core::{Corpus, Session};
/// # use crowdprompt_oracle::world::WorldModel;
/// # use crowdprompt_oracle::{LlmClient, ModelProfile, SimulatedLlm};
/// # let mut world = WorldModel::new();
/// let texts = ["acme widget co", "acme widget company", "zephyr tea house"];
/// # let items: Vec<_> = texts.iter().map(|t| world.add_item(*t)).collect();
/// # let llm = SimulatedLlm::new(ModelProfile::perfect(), Arc::new(world.clone()), 1);
/// # let session = Session::builder()
/// #     .client(Arc::new(LlmClient::new(Arc::new(llm))))
/// #     .corpus(Corpus::from_world(&world, &items))
/// #     .build();
/// let index = session.blocking_index(&items).unwrap();
///
/// let hits = index.nearest_texts(&["acme widget corp"], 2);
/// assert_eq!(hits[0].len(), 2);
/// assert!(hits[0].iter().all(|h| h.item != items[2]), "the tea house is farthest");
///
/// let near = index.distance_between(items[0], items[1]).unwrap();
/// let far = index.distance_between(items[0], items[2]).unwrap();
/// assert!(near < far);
/// assert!(index.distance_between(items[0], items[0]).unwrap() < 1e-3);
/// ```
pub struct BlockingIndex {
    items: Vec<ItemId>,
    /// First insertion position of each item (duplicates keep the first,
    /// matching the seed's `Vec::position` lookups).
    pos: HashMap<ItemId, usize>,
    index: BruteForceIndex,
    embedder: NgramEmbedder,
    /// Threads an embedding or a scan splits over: the building engine's
    /// [`Engine::threads`].
    workers: usize,
}

impl BlockingIndex {
    /// Build an index over the given items using the engine's corpus texts
    /// and the ada-like n-gram embedder (L2 distance, as in §3.3).
    ///
    /// Texts are embedded on the engine's threads through
    /// [`embed_all_flat_with_workers`] (one corpus-sized buffer, no per-row
    /// allocations) and indexed by the exact [`BruteForceIndex`], which
    /// every blocking consumer — dedup, join, cluster, impute-knn — asks.
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
        let workers = engine.threads();
        let flat = embed_all_flat_with_workers(&embedder, &texts, workers);
        let store = VectorStore::from_flat(flat, embedder.dimensions());
        let mut pos = HashMap::with_capacity(items.len());
        for (i, &id) in items.iter().enumerate() {
            pos.entry(id).or_insert(i);
        }
        Ok(BlockingIndex {
            items: items.to_vec(),
            pos,
            index: BruteForceIndex::from_store(store, Metric::L2),
            embedder,
            workers,
        })
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

    /// The `k` nearest indexed items to each of `ids` with their
    /// distances, position-aligned with `ids`.
    ///
    /// An indexed id queries with its stored row, itself left out of the
    /// answer ([`Queries::Rows`]); an unindexed id is embedded from its
    /// corpus text like any other query text
    /// ([`BlockingIndex::nearest_texts`]); an id in neither yields no hits.
    /// Repeated ids are scanned once, and both kinds of query go to the
    /// index as one batch each, on the engine's threads; a batch of only
    /// indexed ids (what `dedup` sends) embeds nothing and asks no second
    /// batch.
    pub fn neighbors_many(
        &self,
        engine: &Engine,
        ids: &[ItemId],
        k: usize,
    ) -> Vec<Vec<BlockingHit>> {
        // The slots grouped by id: each distinct id is looked up, and
        // scanned, once. Indexed ids are answered zero-copy off their
        // stored rows, the rest are embedded from corpus text, and an id in
        // neither keeps its empty answer.
        let mut by_id: Vec<usize> = (0..ids.len()).collect();
        by_id.sort_unstable_by_key(|&slot| ids[slot]);
        let groups = || by_id.chunk_by(|&a, &b| ids[a] == ids[b]);
        let mut answers = Vec::new();
        let mut member_rows: Vec<usize> = Vec::new();
        let mut member_answers: Vec<usize> = Vec::new();
        let mut stranger_texts: Vec<&str> = Vec::new();
        let mut stranger_answers: Vec<usize> = Vec::new();
        for group in groups() {
            let id = ids[group[0]];
            if let Some(&row) = self.pos.get(&id) {
                member_rows.push(row);
                member_answers.push(answers.len());
            } else if let Some(text) = engine.corpus().text(id) {
                stranger_texts.push(text);
                stranger_answers.push(answers.len());
            }
            answers.push(Vec::new());
        }
        let member_raw =
            self.index
                .search_with_workers(Queries::Rows(&member_rows), k, self.workers);
        let stranger_hits = self.nearest_texts(&stranger_texts, k);
        let answered = member_answers
            .iter()
            .zip(member_raw.into_iter().map(|raw| self.to_hits(raw)))
            .chain(stranger_answers.iter().zip(stranger_hits));
        for (&answer, hits) in answered {
            answers[answer] = hits;
        }
        let mut out = vec![Vec::new(); ids.len()];
        for (group, hits) in groups().zip(answers) {
            if let Some((&last, rest)) = group.split_last() {
                for &slot in rest {
                    out[slot] = hits.clone();
                }
                out[last] = hits;
            }
        }
        out
    }

    /// Batched nearest-indexed-items lookup for arbitrary query texts
    /// (the join operator's probe side, and the unindexed ids of
    /// [`BlockingIndex::neighbors_many`]): the texts are embedded on the
    /// building engine's threads into one flat buffer and asked as one
    /// [`Queries::Flat`] batch. An empty batch returns at once: nothing
    /// is embedded and the index is not asked.
    pub fn nearest_texts(&self, texts: &[&str], k: usize) -> Vec<Vec<BlockingHit>> {
        if texts.is_empty() {
            return Vec::new();
        }
        let queries = embed_all_flat_with_workers(&self.embedder, texts, self.workers);
        self.index
            .search_with_workers(Queries::Flat(&queries), k, self.workers)
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
    fn an_all_member_batch_is_one_batch() {
        let (engine, ids) = setup(20);
        let index = BlockingIndex::build(&engine, &ids).unwrap();
        // No stranger: the answers are the member batch's alone, and the
        // empty stranger batch returns before embedding or asking.
        assert!(index.nearest_texts(&[], 3).is_empty());
        let members = index.neighbors_many(&engine, &ids, 3);
        let rows: Vec<usize> = (0..ids.len()).collect();
        let raw = index
            .index
            .search_with_workers(Queries::Rows(&rows), 3, index.workers);
        let want: Vec<Vec<BlockingHit>> = raw.into_iter().map(|r| index.to_hits(r)).collect();
        assert_eq!(members, want);
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
    fn empty_index_is_empty() {
        let (engine, _) = setup(3);
        let index = BlockingIndex::build(&engine, &[]).unwrap();
        assert!(index.is_empty());
        assert!(index.nearest_texts(&["anything"], 3)[0].is_empty());
    }
}
