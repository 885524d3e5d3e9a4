//! Entity-resolution strategies (paper §3.3, Table 3).

use std::collections::HashMap;

use crowdprompt_oracle::world::ItemId;

use crate::blocking::BlockingIndex;
use crate::consistency::UnionFind;
use crate::error::EngineError;
use crate::exec::Engine;
use crate::ops::bill::{pair_count, Ask, Line};
use crate::ops::judge;
use crate::outcome::{CostMeter, Outcome};

/// How to answer a batch of "are A and B duplicates?" questions.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolveStrategy {
    /// Ask the model one question per pair (the paper's baseline).
    Pairwise,
    /// The paper's internal-consistency strategy: expand each question pair
    /// with its `k` nearest neighbors in embedding space, compare all pairs
    /// within each expanded set, then flip "no" answers to "yes" whenever a
    /// yes-path connects the two questioned records.
    TransitivityAugmented {
        /// Neighbors per questioned record (paper tries 1 and 2).
        k: usize,
    },
}

impl ResolveStrategy {
    /// Human-readable strategy name (used by `EXPLAIN`).
    pub(crate) fn name(&self) -> String {
        match self {
            ResolveStrategy::Pairwise => "pairwise".to_owned(),
            ResolveStrategy::TransitivityAugmented { k } => format!("transitivity-{k}"),
        }
    }

    /// What answering `pairs` questions asks of the model: one question per
    /// pair, or — expanding each pair with `k` neighbors per record — at
    /// most every pair within each expanded set of `2 + 2k` records (shared
    /// comparisons are asked once, so the run usually asks fewer).
    pub(crate) fn bill(&self, pairs: usize) -> Vec<Line> {
        let calls = match *self {
            ResolveStrategy::Pairwise => pairs,
            ResolveStrategy::TransitivityAugmented { k } => pairs * pair_count(2 + 2 * k),
        };
        vec![Line::new(calls, Ask::SameEntity)]
    }
}

/// Answer duplicate questions for the given pairs, one boolean per pair in
/// order. `TransitivityAugmented` expands neighborhoods from a blocking
/// index it builds over `items`; `Pairwise` never reads them.
pub(crate) fn resolve_pairs(
    engine: &Engine,
    items: &[ItemId],
    pairs: &[(ItemId, ItemId)],
    strategy: &ResolveStrategy,
) -> Result<Outcome<Vec<bool>>, EngineError> {
    match strategy {
        ResolveStrategy::Pairwise => pairwise(engine, pairs),
        ResolveStrategy::TransitivityAugmented { k } => {
            let index = BlockingIndex::build(engine, items)?;
            transitivity_augmented(engine, pairs, *k, &index)
        }
    }
}

fn pairwise(
    engine: &Engine,
    pairs: &[(ItemId, ItemId)],
) -> Result<Outcome<Vec<bool>>, EngineError> {
    let mut meter = CostMeter::new();
    let answers = judge::same_entity(engine, pairs, &mut meter)?;
    Ok(meter.into_outcome(answers))
}

fn transitivity_augmented(
    engine: &Engine,
    pairs: &[(ItemId, ItemId)],
    k: usize,
    index: &BlockingIndex,
) -> Result<Outcome<Vec<bool>>, EngineError> {
    let mut meter = CostMeter::new();

    // 1. Build the expanded comparison workload: for each question (A, B),
    //    take S = {A, B} ∪ kNN(A) ∪ kNN(B) and compare all pairs within S.
    //    The neighborhoods of every questioned record come from one batched
    //    index query (the index scans each distinct record once).
    //    Deduplicate comparisons globally — the client cache would dedupe
    //    the LLM calls anyway, but deduping here keeps accounting honest.
    let records: Vec<ItemId> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
    let neighborhoods = index.neighbors_many(engine, &records, k);
    let mut comparisons: Vec<(ItemId, ItemId)> = Vec::new();
    let mut seen: std::collections::HashSet<(ItemId, ItemId)> = std::collections::HashSet::new();
    for (&(a, b), hits) in pairs.iter().zip(neighborhoods.chunks(2)) {
        let mut set: Vec<ItemId> = vec![a, b];
        set.extend(hits.iter().flatten().map(|h| h.item));
        set.sort_unstable();
        set.dedup();
        for i in 0..set.len() {
            for j in (i + 1)..set.len() {
                let key = (set[i], set[j]);
                if seen.insert(key) {
                    comparisons.push(key);
                }
            }
        }
    }

    // 2. Ask the model about every comparison.
    let answers = judge::same_entity(engine, &comparisons, &mut meter)?;

    // 3. Transitive closure over the "yes" edges.
    let mut node_ids: Vec<ItemId> = Vec::new();
    let mut node_of: HashMap<ItemId, usize> = HashMap::new();
    let mut intern = |id: ItemId, node_ids: &mut Vec<ItemId>| -> usize {
        *node_of.entry(id).or_insert_with(|| {
            node_ids.push(id);
            node_ids.len() - 1
        })
    };
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (&(a, b), &yes) in comparisons.iter().zip(&answers) {
        let na = intern(a, &mut node_ids);
        let nb = intern(b, &mut node_ids);
        if yes {
            edges.push((na, nb));
        }
    }
    let mut uf = UnionFind::new(node_ids.len());
    for (a, b) in edges {
        uf.union(a, b);
    }

    // 4. A question pair is a duplicate iff its records are connected.
    let verdicts: Vec<bool> = pairs
        .iter()
        .map(|&(a, b)| match (node_of.get(&a), node_of.get(&b)) {
            (Some(&na), Some(&nb)) => uf.connected(na, nb),
            _ => false,
        })
        .collect();
    Ok(meter.into_outcome(verdicts))
}

/// What [`dedup`] over `n` records asks of the model: one confirmation per
/// blocked candidate pair, symmetric neighborhoods roughly halving the
/// `n × candidates` slots.
pub(crate) fn dedup_bill(n: usize, candidates: usize) -> Vec<Line> {
    let pairs = (n * candidates.max(1)).div_ceil(2);
    vec![Line::new(pairs, Ask::SameEntity)]
}

/// Fully deduplicate a record collection (the paper's §1 motivating
/// workload): block candidate pairs by embedding distance, confirm each
/// candidate with the LLM, and close the confirmed edges transitively into
/// duplicate clusters — CrowdER's machine-prunes / oracle-confirms pattern.
///
/// `candidates` bounds the per-record neighbor expansion; `max_distance`
/// prunes candidates farther than that in embedding space (unit-normalized
/// embeddings put distances in `[0, 2]`).
pub(crate) fn dedup(
    engine: &Engine,
    items: &[ItemId],
    index: &BlockingIndex,
    candidates: usize,
    max_distance: f32,
) -> Result<Outcome<Vec<Vec<ItemId>>>, EngineError> {
    let mut meter = CostMeter::new();
    // 1. Blocking: candidate pairs from each record's neighborhood, via
    //    one batched query over the whole collection (partitioned across
    //    threads inside the index) instead of a per-record loop.
    let neighborhoods = index.neighbors_many(engine, items, candidates);
    let mut pairs: Vec<(ItemId, ItemId)> = Vec::new();
    let mut seen: std::collections::HashSet<(ItemId, ItemId)> = std::collections::HashSet::new();
    for (&id, hits) in items.iter().zip(&neighborhoods) {
        for hit in hits.iter().filter(|h| h.distance <= max_distance) {
            let key = (id.min(hit.item), id.max(hit.item));
            if key.0 != key.1 && seen.insert(key) {
                pairs.push(key);
            }
        }
    }
    // 2. Oracle confirmation.
    let answers = judge::same_entity(engine, &pairs, &mut meter)?;
    // 3. Transitive closure into clusters.
    let pos: HashMap<ItemId, usize> = items.iter().enumerate().map(|(i, id)| (*id, i)).collect();
    let mut uf = UnionFind::new(items.len());
    for (&(a, b), &yes) in pairs.iter().zip(&answers) {
        if yes {
            if let (Some(&na), Some(&nb)) = (pos.get(&a), pos.get(&b)) {
                uf.union(na, nb);
            }
        }
    }
    let clusters: Vec<Vec<ItemId>> = uf
        .groups()
        .into_iter()
        .map(|group| group.into_iter().map(|i| items[i]).collect())
        .collect();
    Ok(meter.into_outcome(clusters))
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

    /// Three-mention clusters with citation-like tiering: the *light*
    /// mention is textually between the canonical and heavy forms, so both
    /// bridge edges are much easier than the direct canonical↔heavy edge.
    fn er_world(n_clusters: usize) -> (WorldModel, Vec<ItemId>, Vec<(ItemId, ItemId, bool)>) {
        let mut w = WorldModel::new();
        let mut mentions = Vec::new();
        let mut clusters: Vec<[ItemId; 3]> = Vec::new();
        const FIRSTS: [&str; 5] = ["Ada", "Grace", "Alan", "Edsger", "Barbara"];
        const LASTS: [&str; 7] = [
            "Abiteboul",
            "Widom",
            "Stonebraker",
            "Kraska",
            "Hellerstein",
            "Madden",
            "Franklin",
        ];
        const TOPICS: [&str; 6] = [
            "sensor stream joins",
            "crowdsourced data cleaning",
            "adaptive view maintenance",
            "approximate top-k ranking",
            "federated schema matching",
            "incremental graph analytics",
        ];
        const VENUES: [(&str, &str); 4] = [
            (
                "Proceedings of the International Conference on Data Engineering",
                "ICDE",
            ),
            (
                "ACM SIGMOD International Conference on Management of Data",
                "SIGMOD",
            ),
            ("Proceedings of the VLDB Endowment", "PVLDB"),
            (
                "International Conference on Extending Database Technology",
                "EDBT",
            ),
        ];
        for c in 0..n_clusters {
            let first = FIRSTS[c % FIRSTS.len()];
            let last = LASTS[c % LASTS.len()];
            let last2 = LASTS[(c * 3 + 1) % LASTS.len()];
            let topic = TOPICS[c % TOPICS.len()];
            let (venue_full, venue_abbr) = VENUES[c % VENUES.len()];
            let year = 1995 + (c * 7) % 16;
            let title = format!("{topic} under workload {c:03}");
            let canonical = w.add_item(format!(
                "{first} {last}, {first} {last2}. {title}. {venue_full}, {year}."
            ));
            let initial = &first[..1];
            let light = w.add_item(format!(
                "{initial}. {last}, {initial}. {last2} - {title}. {venue_abbr} {year}."
            ));
            let heavy = w.add_item(format!(
                "{initial}. {last}, {initial}. {last2} - {topic} {c:03}"
            ));
            for id in [canonical, light, heavy] {
                w.set_cluster(id, c as u64);
                mentions.push(id);
            }
            clusters.push([canonical, light, heavy]);
        }
        let mut pairs = Vec::new();
        for c in 0..n_clusters {
            // Hard positive question: heavy vs canonical.
            pairs.push((clusters[c][2], clusters[c][0], true));
            // Negative question: canonical vs next cluster's canonical.
            pairs.push((clusters[c][0], clusters[(c + 1) % n_clusters][0], false));
        }
        (w, mentions, pairs)
    }

    fn engine_over(w: WorldModel, mentions: &[ItemId], noise: NoiseProfile) -> Engine {
        let corpus = Corpus::from_world(&w, mentions);
        let profile = ModelProfile::gpt35_like().with_noise(noise);
        let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(w), 5));
        Engine::new(Arc::new(LlmClient::new(llm)), corpus).with_budget(Budget::Unlimited)
    }

    #[test]
    fn pairwise_perfect_oracle_is_exact() {
        let (w, mentions, pairs) = er_world(6);
        let engine = engine_over(w, &mentions, NoiseProfile::perfect());
        let questions: Vec<(ItemId, ItemId)> = pairs.iter().map(|(a, b, _)| (*a, *b)).collect();
        let out =
            resolve_pairs(&engine, &mentions, &questions, &ResolveStrategy::Pairwise).unwrap();
        for (verdict, (_, _, gold)) in out.value.iter().zip(&pairs) {
            assert_eq!(verdict, gold);
        }
        assert_eq!(out.calls as usize, questions.len());
    }

    #[test]
    fn transitivity_flips_missed_hard_duplicates() {
        // A recall-tiered noise profile (hard pairs usually missed, easy
        // pairs usually caught, no false positives): the transitive path
        // heavy→light→canonical recovers hard questions the baseline misses.
        let noise = NoiseProfile {
            er_recall_easy: 0.95,
            er_recall_hard: 0.05,
            er_fp_base: 0.0,
            er_fp_similar: 0.0,
            malformed_rate: 0.0,
            ..NoiseProfile::perfect()
        };
        let (w, mentions, pairs) = er_world(40);
        let engine = engine_over(w, &mentions, noise);
        let questions: Vec<(ItemId, ItemId)> = pairs.iter().map(|(a, b, _)| (*a, *b)).collect();

        let baseline =
            resolve_pairs(&engine, &mentions, &questions, &ResolveStrategy::Pairwise).unwrap();
        let baseline_recall = recall(&baseline.value, &pairs);

        let augmented = resolve_pairs(
            &engine,
            &mentions,
            &questions,
            &ResolveStrategy::TransitivityAugmented { k: 2 },
        )
        .unwrap();
        let augmented_recall = recall(&augmented.value, &pairs);

        assert!(
            augmented_recall > baseline_recall + 0.1,
            "augmented {augmented_recall} should clearly beat baseline {baseline_recall}"
        );
        // No false positives in this noise profile, so precision holds.
        for (verdict, (_, _, gold)) in augmented.value.iter().zip(&pairs) {
            if !gold {
                assert!(!verdict, "negative pair should stay negative");
            }
        }
        // Expansion costs more calls than the baseline.
        assert!(augmented.calls > baseline.calls);
    }

    fn recall(verdicts: &[bool], pairs: &[(ItemId, ItemId, bool)]) -> f64 {
        let mut tp = 0usize;
        let mut pos = 0usize;
        for (v, (_, _, gold)) in verdicts.iter().zip(pairs) {
            if *gold {
                pos += 1;
                if *v {
                    tp += 1;
                }
            }
        }
        tp as f64 / pos.max(1) as f64
    }

    #[test]
    fn blocking_index_finds_cluster_neighbors() {
        let (w, mentions, _) = er_world(8);
        let engine = engine_over(w, &mentions, NoiseProfile::perfect());
        let index = BlockingIndex::build(&engine, &mentions).unwrap();
        assert_eq!(index.len(), 24);
        // The bridge (light) mention must be reachable from both ends of a
        // hard question within a small neighbor budget — this is what the
        // transitivity expansion relies on.
        let neighbors = |id: ItemId, k: usize| -> Vec<ItemId> {
            let hits = index.neighbors_many(&engine, &[id], k).remove(0);
            hits.into_iter().map(|h| h.item).collect()
        };
        for c in 0..8 {
            let canonical = mentions[c * 3];
            let light = mentions[c * 3 + 1];
            let heavy = mentions[c * 3 + 2];
            let nn_heavy = neighbors(heavy, 2);
            assert!(
                nn_heavy.contains(&light),
                "cluster {c}: heavy's 2-NN {nn_heavy:?} should include light {light}"
            );
            let nn_canon = neighbors(canonical, 3);
            assert!(
                nn_canon.contains(&light),
                "cluster {c}: canonical's 3-NN {nn_canon:?} should include light {light}"
            );
        }
    }

    #[test]
    fn dedup_recovers_clusters_with_blocking() {
        let (w, mentions, _) = er_world(10);
        let engine = engine_over(w, &mentions, NoiseProfile::perfect());
        let index = BlockingIndex::build(&engine, &mentions).unwrap();
        let out = dedup(&engine, &mentions, &index, 4, 2.0).unwrap();
        // 10 clusters of 3 mentions each.
        assert_eq!(out.value.len(), 10);
        let mut sizes: Vec<usize> = out.value.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert!(sizes.iter().all(|s| *s == 3), "sizes {sizes:?}");
        // Blocking keeps the call count far below all-pairs (30*29/2 = 435).
        assert!(out.calls < 200, "calls {}", out.calls);
        // Every mention appears exactly once.
        let total: usize = out.value.iter().map(Vec::len).sum();
        assert_eq!(total, mentions.len());
    }

    #[test]
    fn dedup_with_tight_blocking_over_segments() {
        let (w, mentions, _) = er_world(4);
        let engine = engine_over(w, &mentions, NoiseProfile::perfect());
        let index = BlockingIndex::build(&engine, &mentions).unwrap();
        // A blocking radius of 0 prunes everything: all singletons.
        let out = dedup(&engine, &mentions, &index, 4, 0.0).unwrap();
        assert_eq!(out.value.len(), mentions.len());
        assert_eq!(out.calls, 0);
    }

    #[test]
    fn empty_pairs_is_free() {
        let (w, mentions, _) = er_world(3);
        let engine = engine_over(w, &mentions, NoiseProfile::perfect());
        let out = resolve_pairs(&engine, &mentions, &[], &ResolveStrategy::Pairwise).unwrap();
        assert!(out.value.is_empty());
        assert_eq!(out.calls, 0);
    }
}
