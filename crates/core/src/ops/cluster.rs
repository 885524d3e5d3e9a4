//! Clustering: a two-stage scheme after Jain et al. (§3.2) — discover
//! groups on a seed batch, then assign the remaining items by comparing
//! against group representatives.
//!
//! Stage 2 routes through the shared [`BlockingIndex`]: representatives
//! are probed nearest-in-embedding-space first, so with a reliable model
//! an item's true group is usually confirmed on the first LLM call
//! instead of after wading through unrelated groups in discovery order.
//! [`cluster`] keeps full recall (every representative remains a
//! fallback); [`cluster_blocked`] additionally prunes the probe list to
//! the `candidates` nearest representatives, trading recall for cost the
//! same way the join and dedup blocking rules do.

use crowdprompt_oracle::task::TaskDescriptor;
use crowdprompt_oracle::world::ItemId;

use crate::blocking::BlockingIndex;
use crate::error::EngineError;
use crate::exec::Engine;
use crate::extract;
use crate::ops::bill::{Ask, Line};
use crate::ops::judge;
use crate::outcome::{CostMeter, Outcome};

/// Cluster `items` into duplicate groups.
///
/// Stage 1 sends the first `seed_size` items to a coarse
/// [`TaskDescriptor::GroupEntities`] task, establishing the grouping scheme.
/// Stage 2 assigns every remaining item by pairwise
/// [`TaskDescriptor::SameEntity`] checks against one representative per
/// group, probed nearest-first in embedding space (first match wins; no
/// match starts a new group).
pub fn cluster(
    engine: &Engine,
    items: &[ItemId],
    seed_size: usize,
) -> Result<Outcome<Vec<Vec<ItemId>>>, EngineError> {
    cluster_impl(engine, items, seed_size, None)
}

/// [`cluster`] with embedding blocking on stage 2: each remaining item is
/// only compared against its `candidates` nearest group representatives
/// (by L2 over hashed-n-gram embeddings); an item matching none of them
/// starts a new group. Caps stage-2 LLM calls per item at `candidates`
/// at the cost of recall when the embedding ranks the true group outside
/// the probe list.
pub fn cluster_blocked(
    engine: &Engine,
    items: &[ItemId],
    seed_size: usize,
    candidates: usize,
) -> Result<Outcome<Vec<Vec<ItemId>>>, EngineError> {
    cluster_impl(engine, items, seed_size, Some(candidates.max(1)))
}

/// What clustering `n` items asks of the model: one grouping prompt over
/// the seed batch, then up to `probe_cap` representative probes (every
/// other seed item's group, assumed pairs, when exhaustive) for each of the
/// rest.
pub(crate) fn bill(n: usize, seed_size: usize, probe_cap: Option<usize>) -> Vec<Line> {
    if n == 0 {
        return Vec::new();
    }
    let seed = seed_size.clamp(1, n);
    let probes = probe_cap.unwrap_or_else(|| (seed / 2).max(1));
    vec![
        Line::new(1, Ask::Group { len: seed }),
        Line::new((n - seed) * probes, Ask::SameEntity).blocked_on(n),
    ]
}

fn cluster_impl(
    engine: &Engine,
    items: &[ItemId],
    seed_size: usize,
    probe_cap: Option<usize>,
) -> Result<Outcome<Vec<Vec<ItemId>>>, EngineError> {
    if items.is_empty() {
        return Ok(Outcome::free(Vec::new()));
    }
    let seed_size = seed_size.clamp(1, items.len());
    let mut meter = CostMeter::new();
    // The blocking index over the full collection: stage 2 ranks group
    // representatives by embedding distance through it. Only built when
    // there *is* a stage 2 (seed-only runs do no embedding work).
    let blocking = if seed_size < items.len() {
        Some(BlockingIndex::build(engine, items)?)
    } else {
        None
    };

    // Stage 1: coarse grouping of the seed batch.
    let seed: Vec<ItemId> = items[..seed_size].to_vec();
    let resp = engine.run(TaskDescriptor::GroupEntities {
        items: seed.clone(),
    })?;
    meter.add(resp.usage, engine.cost_of_response(&resp));
    let parsed = extract::groups(&resp.text);
    let mut groups: Vec<Vec<ItemId>> = Vec::new();
    let mut assigned: std::collections::HashSet<ItemId> = std::collections::HashSet::new();
    for member_texts in parsed {
        let mut group = Vec::new();
        for text in member_texts {
            if let Some(id) = engine.corpus().find_by_text(&text) {
                if seed.contains(&id) && !assigned.contains(&id) {
                    assigned.insert(id);
                    group.push(id);
                }
            }
        }
        if !group.is_empty() {
            groups.push(group);
        }
    }
    // Any seed item the response dropped becomes its own group.
    for &id in &seed {
        if !assigned.contains(&id) {
            groups.push(vec![id]);
        }
    }

    // Stage 2: assign the remainder against representatives, probing the
    // embedding-nearest representative first. Unblocked, every group stays
    // a fallback (identical final grouping to discovery-order probing
    // under a reliable model, fewer calls); blocked, the probe list is
    // truncated to the `probe_cap` nearest.
    for &id in &items[seed_size..] {
        let blocking = blocking
            .as_ref()
            .expect("index built when stage 2 is non-empty"); // lint: allow(no-unwrap)
                                                              // One fused dot per representative, computed once, then sorted.
        let mut order: Vec<(f32, usize)> = groups
            .iter()
            .enumerate()
            .map(|(gi, group)| {
                let d = blocking
                    .distance_between(id, group[0])
                    .unwrap_or(f32::INFINITY);
                (d, gi)
            })
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        if let Some(cap) = probe_cap {
            order.truncate(cap);
        }
        let mut placed = false;
        for (_, gi) in order {
            let representative = groups[gi][0];
            if judge::same_entity(engine, &[(id, representative)], &mut meter)?[0] {
                groups[gi].push(id);
                placed = true;
                break;
            }
        }
        if !placed {
            groups.push(vec![id]);
        }
    }
    Ok(meter.into_outcome(groups))
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

    fn setup(n_clusters: usize, per_cluster: usize) -> (Engine, Vec<ItemId>) {
        let mut w = WorldModel::new();
        let mut ids = Vec::new();
        for c in 0..n_clusters {
            for v in 0..per_cluster {
                let id = w.add_item(format!("product listing {c:02} variant {v}"));
                w.set_cluster(id, c as u64);
                ids.push(id);
            }
        }
        let corpus = Corpus::from_world(&w, &ids);
        let llm = Arc::new(SimulatedLlm::new(
            ModelProfile::gpt35_like().with_noise(NoiseProfile::perfect()),
            Arc::new(w),
            53,
        ));
        (Engine::new(Arc::new(LlmClient::new(llm)), corpus), ids)
    }

    #[test]
    fn perfect_oracle_recovers_clusters() {
        let (engine, ids) = setup(4, 3);
        let out = cluster(&engine, &ids, 6).unwrap();
        assert_eq!(out.value.len(), 4);
        let mut sizes: Vec<usize> = out.value.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![3, 3, 3, 3]);
        // Every item appears exactly once.
        let total: usize = out.value.iter().map(Vec::len).sum();
        assert_eq!(total, ids.len());
    }

    #[test]
    fn all_items_covered_even_with_small_seed() {
        let (engine, ids) = setup(3, 4);
        let out = cluster(&engine, &ids, 1).unwrap();
        let total: usize = out.value.iter().map(Vec::len).sum();
        assert_eq!(total, ids.len());
    }

    #[test]
    fn empty_input() {
        let (engine, _) = setup(1, 2);
        let out = cluster(&engine, &[], 5).unwrap();
        assert!(out.value.is_empty());
        assert_eq!(out.calls, 0);
        let out = cluster_blocked(&engine, &[], 5, 2).unwrap();
        assert!(out.value.is_empty());
    }

    #[test]
    fn nearest_first_probing_confirms_most_items_on_first_call() {
        let (engine, ids) = setup(5, 4);
        let out = cluster(&engine, &ids, 10).unwrap();
        assert_eq!(out.value.len(), 5);
        // 10 remaining items after the seed; probing representatives
        // nearest-first, a perfect oracle should place nearly all of them
        // on the first or second probe instead of wading through all 5
        // groups (worst case 1 + 10·5 calls).
        assert!(
            out.calls <= 1 + 2 * 10,
            "nearest-first probing should cut stage-2 calls: {}",
            out.calls
        );
    }

    #[test]
    fn blocked_cluster_with_tight_cap_recovers_separated_clusters() {
        let (engine, ids) = setup(4, 3);
        let out = cluster_blocked(&engine, &ids, 6, 1).unwrap();
        assert_eq!(out.value.len(), 4);
        let total: usize = out.value.iter().map(Vec::len).sum();
        assert_eq!(total, ids.len());
        // A cap of 1 means at most one stage-2 call per remaining item.
        assert!(out.calls <= 1 + (ids.len() - 6) as u64);
    }
}
