//! Fuzzy join (§3.4, after CrowdER and Wang et al.'s hybrid human–machine
//! entity resolution): match records across two collections, using a cheap
//! non-LLM proxy to prune the candidate space before spending LLM budget.
//!
//! The naive plan compares all `|L| × |R|` pairs with the LLM. The blocked
//! plan embeds both sides, keeps only candidate pairs whose embedding
//! distance clears a blocking rule (top-`k` neighbors and/or a similarity
//! floor), and asks the LLM about the survivors — the machine-prunes /
//! humans-confirm split of the crowdsourcing literature.

use crowdprompt_oracle::world::ItemId;

use crate::blocking::BlockingIndex;
use crate::error::EngineError;
use crate::exec::Engine;
use crate::ops::bill::{Ask, Line};
use crate::ops::judge;
use crate::outcome::{CostMeter, Outcome};

/// How to join two collections.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinStrategy {
    /// Ask the LLM about every cross pair: `O(|L| × |R|)` calls.
    AllPairs,
    /// Embedding blocking: for each left record, only its `candidates`
    /// nearest right records (by L2 over hashed-n-gram embeddings) within
    /// `max_distance` are sent to the LLM.
    Blocked {
        /// Nearest right-side candidates per left record.
        candidates: usize,
        /// Distance ceiling; pairs farther than this are pruned without an
        /// LLM call. Unit-normalized embeddings put distances in [0, 2].
        max_distance: f32,
    },
}

impl JoinStrategy {
    /// Human-readable strategy name (used by `EXPLAIN` and the optimizer).
    pub fn name(&self) -> String {
        match self {
            JoinStrategy::AllPairs => "all-pairs".to_owned(),
            JoinStrategy::Blocked {
                candidates,
                max_distance,
            } => format!("blocked-{candidates}-{max_distance}"),
        }
    }

    /// What joining `left` × `right` items asks of the model (the blocked
    /// count is an upper bound — the distance ceiling can only prune
    /// further). Only a blocked join draws its pairs from the blocking
    /// index, over the right side.
    pub(crate) fn bill(&self, left: usize, right: usize) -> Vec<Line> {
        vec![match self {
            JoinStrategy::AllPairs => Line::new(left * right, Ask::SameEntity),
            JoinStrategy::Blocked { candidates, .. } => {
                Line::new(left * (*candidates).max(1).min(right), Ask::SameEntity)
            }
        }]
    }
}

/// A matched pair (left item, right item).
pub(crate) type Match = (ItemId, ItemId);

/// Join statistics alongside the matches.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinResult {
    /// Confirmed matches.
    pub matches: Vec<Match>,
    /// Cross pairs considered in total.
    pub candidate_pairs: usize,
    /// Pairs pruned by blocking before any LLM call.
    pub pruned_pairs: usize,
}

/// Join `left` and `right` on entity identity.
pub(crate) fn fuzzy_join(
    engine: &Engine,
    left: &[ItemId],
    right: &[ItemId],
    strategy: &JoinStrategy,
) -> Result<Outcome<JoinResult>, EngineError> {
    let total_pairs = left.len() * right.len();
    let candidate_pairs: Vec<(ItemId, ItemId)> = match strategy {
        JoinStrategy::AllPairs => left
            .iter()
            .flat_map(|l| right.iter().map(move |r| (*l, *r)))
            .collect(),
        JoinStrategy::Blocked {
            candidates,
            max_distance,
        } => blocked_candidates(engine, left, right, *candidates, *max_distance)?,
    };
    let pruned = total_pairs - candidate_pairs.len();

    let mut meter = CostMeter::new();
    let same = judge::same_entity(engine, &candidate_pairs, &mut meter)?;
    let matches = candidate_pairs
        .iter()
        .zip(same)
        .filter_map(|(pair, same)| same.then_some(*pair))
        .collect();
    Ok(meter.into_outcome(JoinResult {
        matches,
        candidate_pairs: candidate_pairs.len(),
        pruned_pairs: pruned,
    }))
}

fn blocked_candidates(
    engine: &Engine,
    left: &[ItemId],
    right: &[ItemId],
    candidates: usize,
    max_distance: f32,
) -> Result<Vec<(ItemId, ItemId)>, EngineError> {
    // Index the build side once (parallel embed, auto-selected index),
    // then answer the whole probe side as one batched query instead of a
    // per-record scan loop.
    let index = BlockingIndex::build(engine, right)?;
    let mut left_texts = Vec::with_capacity(left.len());
    for &l in left {
        left_texts.push(engine.corpus().text(l).ok_or(EngineError::UnknownItem(l))?);
    }
    let neighborhoods = index.nearest_texts(&left_texts, candidates.max(1));
    let mut pairs = Vec::new();
    for (&l, hits) in left.iter().zip(&neighborhoods) {
        for hit in hits.iter().filter(|h| h.distance <= max_distance) {
            pairs.push((l, hit.item));
        }
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crowdprompt_oracle::model::{ModelProfile, NoiseProfile};
    use crowdprompt_oracle::sim::SimulatedLlm;
    use crowdprompt_oracle::world::WorldModel;
    use crowdprompt_oracle::LlmClient;
    use std::sync::Arc;

    /// Two catalogs describing overlapping entities: left/right variants of
    /// the same product share a cluster.
    fn join_world(n: usize) -> (WorldModel, Vec<ItemId>, Vec<ItemId>, Vec<Match>) {
        let mut w = WorldModel::new();
        let mut left = Vec::new();
        let mut right = Vec::new();
        let mut expected = Vec::new();
        for i in 0..n {
            let l = w.add_item(format!("acme widget model {i:03} retail packaging"));
            w.set_cluster(l, i as u64);
            left.push(l);
            // Only even entities appear on the right.
            if i % 2 == 0 {
                let r = w.add_item(format!("ACME Widget {i:03} (model) - boxed"));
                w.set_cluster(r, i as u64);
                right.push(r);
                expected.push((l, r));
            }
        }
        // A right-side record matching nothing on the left.
        let stray = w.add_item("unrelated gizmo deluxe edition");
        w.set_cluster(stray, 10_000);
        right.push(stray);
        (w, left, right, expected)
    }

    fn engine_over(w: &WorldModel, items: &[ItemId], noise: NoiseProfile) -> Engine {
        let profile = ModelProfile::gpt35_like().with_noise(noise);
        let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(w.clone()), 17));
        Engine::new(Arc::new(LlmClient::new(llm)), Corpus::from_world(w, items))
    }

    fn all_items(left: &[ItemId], right: &[ItemId]) -> Vec<ItemId> {
        left.iter().chain(right.iter()).copied().collect()
    }

    #[test]
    fn all_pairs_perfect_oracle_finds_exact_matches() {
        let (w, left, right, expected) = join_world(8);
        let engine = engine_over(&w, &all_items(&left, &right), NoiseProfile::perfect());
        let out = fuzzy_join(&engine, &left, &right, &JoinStrategy::AllPairs).unwrap();
        assert_eq!(out.value.matches, expected);
        assert_eq!(out.value.candidate_pairs, left.len() * right.len());
        assert_eq!(out.value.pruned_pairs, 0);
        assert_eq!(out.calls as usize, left.len() * right.len());
    }

    #[test]
    fn blocking_prunes_most_pairs_and_keeps_matches() {
        let (w, left, right, expected) = join_world(12);
        let engine = engine_over(&w, &all_items(&left, &right), NoiseProfile::perfect());
        let out = fuzzy_join(
            &engine,
            &left,
            &right,
            &JoinStrategy::Blocked {
                candidates: 2,
                max_distance: 1.2,
            },
        )
        .unwrap();
        assert_eq!(out.value.matches, expected, "no true match may be pruned");
        assert!(
            out.value.pruned_pairs * 2 > left.len() * right.len(),
            "blocking should prune most of the cross product: pruned {} of {}",
            out.value.pruned_pairs,
            left.len() * right.len()
        );
        // Cost advantage over the naive plan.
        let naive = fuzzy_join(&engine, &left, &right, &JoinStrategy::AllPairs).unwrap();
        assert!(out.calls < naive.calls / 2);
    }

    #[test]
    fn tight_distance_ceiling_can_sacrifice_recall() {
        let (w, left, right, expected) = join_world(8);
        let engine = engine_over(&w, &all_items(&left, &right), NoiseProfile::perfect());
        let out = fuzzy_join(
            &engine,
            &left,
            &right,
            &JoinStrategy::Blocked {
                candidates: 2,
                max_distance: 0.05, // near-exact embeddings only
            },
        )
        .unwrap();
        assert!(
            out.value.matches.len() <= expected.len(),
            "an over-tight blocking rule prunes true matches"
        );
    }

    #[test]
    fn empty_sides_are_free() {
        let (w, left, right, _) = join_world(3);
        let engine = engine_over(&w, &all_items(&left, &right), NoiseProfile::perfect());
        let out = fuzzy_join(&engine, &[], &right, &JoinStrategy::AllPairs).unwrap();
        assert!(out.value.matches.is_empty());
        assert_eq!(out.calls, 0);
        let out = fuzzy_join(&engine, &left, &[], &JoinStrategy::AllPairs).unwrap();
        assert!(out.value.matches.is_empty());
    }
}
