//! Simulation of entity-resolution tasks (paper §3.3).

use rand::Rng;

use crate::model::NoiseProfile;
use crate::sim::similarity::trigram_jaccard;
use crate::world::{ItemId, WorldModel};

/// Simulate "Are A and B the same entity? Yes or No?".
///
/// Calibrated to the paper's baseline observation — high precision, low
/// recall:
/// * For **true duplicates**, P(yes) interpolates between `er_recall_hard`
///   (dissimilar surface forms) and `er_recall_easy` (near-identical
///   strings) as a function of trigram similarity. The paper's validation
///   pairs are deliberately hard, so average recall lands near 0.5.
/// * For **non-duplicates**, P(yes) is a small base rate plus a bump for
///   deceptively similar strings, keeping precision high.
///
/// Returns the answer and its probability (the simulator's stand-in for
/// answer-token logprobs).
pub(crate) fn simulate_same_entity_with_confidence<R: Rng>(
    world: &WorldModel,
    noise: &NoiseProfile,
    left: ItemId,
    right: ItemId,
    rng: &mut R,
) -> (bool, f64) {
    let ta = world.text(left).unwrap_or("");
    let tb = world.text(right).unwrap_or("");
    let sim = trigram_jaccard(ta, tb);
    let p_yes = match world.same_cluster(left, right) {
        Some(true) => {
            // Ease rises with surface similarity: map sim in [0.25, 0.65]
            // onto [0, 1] so near-identical pairs are almost always caught
            // while heavily garbled ones usually are not.
            let ease = ((sim - 0.25) / 0.40).clamp(0.0, 1.0);
            noise.er_recall_hard + (noise.er_recall_easy - noise.er_recall_hard) * ease
        }
        Some(false) | None => {
            let confusable = ((sim - 0.55) / 0.35).clamp(0.0, 1.0);
            noise.er_fp_base + noise.er_fp_similar * confusable
        }
    };
    let p_yes = p_yes.clamp(0.0, 1.0);
    let answer = rng.random_bool(p_yes);
    let base = if answer { p_yes } else { 1.0 - p_yes };
    let confidence = (base + crate::sim::randx::gauss(rng) * 0.08).clamp(0.5, 0.99);
    (answer, confidence)
}

/// Simulate coarse grouping of a batch into duplicate clusters.
///
/// Starts from the true clustering restricted to the batch, then injects
/// merge errors (two clusters fused) and split errors (one cluster broken)
/// with the configured probabilities.
pub(crate) fn simulate_group_entities<R: Rng>(
    world: &WorldModel,
    noise: &NoiseProfile,
    items: &[ItemId],
    rng: &mut R,
) -> Vec<Vec<ItemId>> {
    use std::collections::HashMap;
    // True clusters restricted to the batch (singletons for unclustered).
    let mut by_cluster: HashMap<u64, Vec<ItemId>> = HashMap::new();
    let mut singleton_key = u64::MAX;
    for &id in items {
        match world.cluster(id) {
            Some(c) => by_cluster.entry(c).or_default().push(id),
            None => {
                by_cluster.insert(singleton_key, vec![id]);
                singleton_key -= 1;
            }
        }
    }
    let mut groups: Vec<Vec<ItemId>> = by_cluster.into_values().collect();
    // Deterministic order before random edits.
    groups.sort_by_key(|g| g.iter().min().copied());

    // Merge error: fuse two random groups.
    if groups.len() >= 2 && rng.random_bool(noise.group_merge_error.clamp(0.0, 1.0)) {
        let i = rng.random_range(0..groups.len());
        let mut j = rng.random_range(0..groups.len() - 1);
        if j >= i {
            j += 1;
        }
        let (lo, hi) = (i.min(j), i.max(j));
        let merged = groups.remove(hi);
        groups[lo].extend(merged);
    }
    // Split error: break a multi-item group in two.
    if rng.random_bool(noise.group_split_error.clamp(0.0, 1.0)) {
        if let Some(idx) = groups.iter().position(|g| g.len() >= 2) {
            let group = groups[idx].clone();
            let cut = rng.random_range(1..group.len());
            groups[idx] = group[..cut].to_vec();
            groups.push(group[cut..].to_vec());
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn er_world() -> (WorldModel, Vec<ItemId>) {
        let mut w = WorldModel::new();
        // Cluster 1: an easy near-identical pair.
        let a1 = w.add_item("indexing the positions of continuously moving objects");
        let a2 = w.add_item("indexing the positions of continuously moving object");
        // Cluster 1 also has a hard variant.
        let a3 = w.add_item("position indexing, moving objs (VLDB)");
        // Cluster 2: unrelated.
        let b1 = w.add_item("crowder crowdsourcing entity resolution pvldb");
        for (id, c) in [(a1, 1u64), (a2, 1), (a3, 1), (b1, 2)] {
            w.set_cluster(id, c);
        }
        (w, vec![a1, a2, a3, b1])
    }

    fn rate_yes(world: &WorldModel, noise: &NoiseProfile, l: ItemId, r: ItemId) -> f64 {
        let mut yes = 0;
        for seed in 0..500 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            if simulate_same_entity_with_confidence(world, noise, l, r, &mut rng).0 {
                yes += 1;
            }
        }
        f64::from(yes) / 500.0
    }

    #[test]
    fn easy_duplicates_usually_caught() {
        let (w, ids) = er_world();
        let noise = NoiseProfile::default();
        let p = rate_yes(&w, &noise, ids[0], ids[1]);
        assert!(p > 0.85, "easy dup p(yes) = {p}");
    }

    #[test]
    fn hard_duplicates_often_missed() {
        let (w, ids) = er_world();
        let noise = NoiseProfile::default();
        let p = rate_yes(&w, &noise, ids[0], ids[2]);
        assert!(p < 0.6, "hard dup p(yes) = {p}");
    }

    #[test]
    fn non_duplicates_rarely_matched() {
        let (w, ids) = er_world();
        let noise = NoiseProfile::default();
        let p = rate_yes(&w, &noise, ids[0], ids[3]);
        assert!(p < 0.05, "non-dup p(yes) = {p}");
    }

    #[test]
    fn perfect_noise_is_exact() {
        let (w, ids) = er_world();
        let noise = NoiseProfile::perfect();
        assert_eq!(rate_yes(&w, &noise, ids[0], ids[2]), 1.0);
        assert_eq!(rate_yes(&w, &noise, ids[0], ids[3]), 0.0);
    }

    #[test]
    fn grouping_perfect_recovers_clusters() {
        let (w, ids) = er_world();
        let noise = NoiseProfile::perfect();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let groups = simulate_group_entities(&w, &noise, &ids, &mut rng);
        assert_eq!(groups.len(), 2);
        let sizes: Vec<usize> = {
            let mut s: Vec<usize> = groups.iter().map(Vec::len).collect();
            s.sort_unstable();
            s
        };
        assert_eq!(sizes, vec![1, 3]);
    }

    #[test]
    fn grouping_covers_all_items_even_with_errors() {
        let (w, ids) = er_world();
        let noise = NoiseProfile {
            group_merge_error: 1.0,
            group_split_error: 1.0,
            ..NoiseProfile::default()
        };
        for seed in 0..50 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let groups = simulate_group_entities(&w, &noise, &ids, &mut rng);
            let total: usize = groups.iter().map(Vec::len).sum();
            assert_eq!(total, ids.len());
            assert!(groups.iter().all(|g| !g.is_empty()));
        }
    }
}
