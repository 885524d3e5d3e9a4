//! Simulation of sorting-family tasks: whole-list sorts, pairwise
//! comparisons, and ratings (paper §3.1–3.2).

use rand::Rng;

use crate::model::NoiseProfile;
use crate::sim::gold::quantize;
use crate::sim::mutate::hallucinate;
use crate::sim::similarity::common_prefix_ratio;
use crate::task::SortCriterion;
use crate::world::{ItemId, WorldModel};

/// Simulate a single-prompt "sort this whole list" task: the returned
/// entries, in the order the model "generated" them, before rendering.
/// Entries are raw texts — hallucinated entries have no backing [`ItemId`].
///
/// Mechanisms, each mapping to a behaviour the paper reports:
/// * **Confident placement of salient items.** Items whose surface text
///   clearly signals the criterion (salience ≥ threshold) are placed at
///   their true rank; others get rank jitter proportional to
///   `(1 - salience) * sort_jitter * n` — reproducing "flavors with
///   'chocolate' in the title first, the rest seemingly random".
/// * **Omissions.** Each item is dropped with probability scaled by list
///   length and boosted in the middle third ("lost in the middle").
/// * **Hallucinations.** Mutated near-copies of real entries are inserted.
pub(crate) fn simulate_sort_list<R: Rng>(
    world: &WorldModel,
    noise: &NoiseProfile,
    items: &[ItemId],
    criterion: SortCriterion,
    rng: &mut R,
) -> Vec<String> {
    let n = items.len();
    // True ranks under the criterion.
    let gold = match criterion {
        SortCriterion::LatentScore => world.gold_ranking_by_score(items),
        SortCriterion::Lexicographic => world.gold_ranking_by_key(items),
    };
    let true_rank: std::collections::HashMap<ItemId, usize> = gold
        .iter()
        .enumerate()
        .map(|(rank, id)| (*id, rank))
        .collect();

    // Perturbed rank per item.
    let mut keyed: Vec<(f64, ItemId)> = Vec::with_capacity(n);
    for &id in items {
        let rank = true_rank[&id] as f64;
        let salience = match criterion {
            SortCriterion::LatentScore => world.salience_of(id),
            // Alphabetical ordering is surface-obvious for every item.
            SortCriterion::Lexicographic => 1.0,
        };
        let jitter_scale = if salience >= noise.sort_salience_threshold {
            noise.sort_jitter * 0.05 // confident placement, tiny residual noise
        } else {
            noise.sort_jitter * (1.0 - salience)
        };
        let jitter = crate::sim::randx::gauss(rng) * jitter_scale * n as f64;
        keyed.push((rank + jitter, id));
    }
    keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

    // Omissions, with middle-of-prompt bias computed on *presentation* order.
    let presentation_pos: std::collections::HashMap<ItemId, usize> = items
        .iter()
        .enumerate()
        .map(|(pos, id)| (*id, pos))
        .collect();
    let base_drop = noise.sort_drop_rate * n as f64 / noise.sort_drop_ref_len.max(1) as f64;
    let mut entries: Vec<String> = Vec::with_capacity(n);
    for &(_, id) in &keyed {
        let pos = presentation_pos[&id];
        let in_middle = n >= 3 && pos >= n / 3 && pos < 2 * n / 3;
        let mult = if in_middle {
            noise.sort_middle_bias
        } else {
            1.0
        };
        let p_drop = (base_drop * mult).clamp(0.0, 0.9);
        if rng.random_bool(p_drop) {
            continue;
        }
        entries.push(world.text(id).unwrap_or("<unknown>").to_owned());
    }

    // Hallucinations: insert mutated near-copies at random positions.
    if noise.sort_halluc_rate > 0.0 && !entries.is_empty() {
        let existing: std::collections::HashSet<String> = entries.iter().cloned().collect();
        let expected = noise.sort_halluc_rate * n as f64;
        // Bernoulli per item keeps the count distribution realistic.
        for _ in 0..n {
            if rng.random_bool((expected / n as f64).clamp(0.0, 1.0)) {
                let src = rng.random_range(0..entries.len());
                let ghost = hallucinate(&entries[src], rng);
                if !existing.contains(&ghost) {
                    let at = rng.random_range(0..=entries.len());
                    entries.insert(at, ghost);
                }
            }
        }
    }

    entries
}

/// Simulate a pairwise comparison: does `left` rank before `right`?
///
/// * Latent-score criterion: Thurstone-style — P(correct) rises with the
///   score gap; `position_bias` additively favours answering "yes" (the
///   first-listed item), which the sort-then-insert strategy cancels by
///   asking both orders.
/// * Lexicographic criterion: a base error rate plus a penalty growing with
///   the keys' common-prefix ratio (near-identical words are confusable).
pub(crate) fn simulate_compare<R: Rng>(
    world: &WorldModel,
    noise: &NoiseProfile,
    left: ItemId,
    right: ItemId,
    criterion: SortCriterion,
    rng: &mut R,
) -> bool {
    simulate_compare_with_confidence(world, noise, left, right, criterion, rng).0
}

/// Like [`simulate_compare`] but also returns the model's answer
/// probability — the simulator's stand-in for answer-token logprobs.
pub(crate) fn simulate_compare_with_confidence<R: Rng>(
    world: &WorldModel,
    noise: &NoiseProfile,
    left: ItemId,
    right: ItemId,
    criterion: SortCriterion,
    rng: &mut R,
) -> (bool, f64) {
    let p_yes = match criterion {
        SortCriterion::LatentScore => {
            let sl = world.score(left).unwrap_or(0.5);
            let sr = world.score(right).unwrap_or(0.5);
            let delta = sl - sr;
            (sigmoid(delta / noise.compare_sigma.max(1e-12)) + noise.position_bias).clamp(0.0, 1.0)
        }
        SortCriterion::Lexicographic => {
            let kl = world.sort_key(left).unwrap_or("");
            let kr = world.sort_key(right).unwrap_or("");
            let correct_yes = kl < kr;
            let prefix = common_prefix_ratio(kl, kr);
            let err = (noise.compare_lex_error + noise.compare_lex_prefix_penalty * prefix)
                .clamp(0.0, 0.5);
            let p = if correct_yes { 1.0 - err } else { err };
            (p + noise.position_bias).clamp(0.0, 1.0)
        }
    };
    let answer = rng.random_bool(p_yes);
    let base = if answer { p_yes } else { 1.0 - p_yes };
    // Jitter: real logprob confidences correlate with correctness but are
    // not an oracle for it.
    let confidence = (base + crate::sim::randx::gauss(rng) * 0.08).clamp(0.5, 0.99);
    (answer, confidence)
}

/// Simulate a batched comparison prompt: each pair is judged like
/// [`simulate_compare`] but with the noise scale inflated by
/// `1 + compare_batch_penalty * (batch_size - 1)` — models attend less to
/// each sub-question as prompts grow (§4's batching trade-off).
pub(crate) fn simulate_compare_batch<R: Rng>(
    world: &WorldModel,
    noise: &NoiseProfile,
    pairs: &[(ItemId, ItemId)],
    criterion: SortCriterion,
    rng: &mut R,
) -> Vec<bool> {
    let inflation = 1.0 + noise.compare_batch_penalty * (pairs.len().saturating_sub(1)) as f64;
    let inflated = NoiseProfile {
        compare_sigma: noise.compare_sigma * inflation,
        compare_lex_error: (noise.compare_lex_error * inflation).min(0.5),
        compare_lex_prefix_penalty: (noise.compare_lex_prefix_penalty * inflation).min(0.5),
        ..noise.clone()
    };
    pairs
        .iter()
        .map(|(l, r)| simulate_compare(world, &inflated, *l, *r, criterion, rng))
        .collect()
}

/// Simulate a rating task: quantize the (noised) normalized score.
pub(crate) fn simulate_rate<R: Rng>(
    world: &WorldModel,
    noise: &NoiseProfile,
    item: ItemId,
    scale_min: u8,
    scale_max: u8,
    criterion: SortCriterion,
    rng: &mut R,
) -> u8 {
    let norm = match criterion {
        SortCriterion::LatentScore => world.score(item).unwrap_or(0.5),
        SortCriterion::Lexicographic => {
            let key = world.sort_key(item).unwrap_or("m");
            let first = key.chars().next().unwrap_or('m');
            (first.to_ascii_lowercase() as u32).saturating_sub('a' as u32) as f64 / 25.0
        }
    };
    let noised = crate::sim::randx::gauss_with(rng, norm, noise.rate_sigma);
    quantize(noised, scale_min, scale_max)
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NoiseProfile;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn score_world(n: usize) -> (WorldModel, Vec<ItemId>) {
        let mut w = WorldModel::new();
        let ids: Vec<ItemId> = (0..n)
            .map(|i| {
                let id = w.add_item(format!("item-{i:03}"));
                w.set_score(id, 1.0 - i as f64 / n as f64);
                w.set_salience(id, 1.0);
                id
            })
            .collect();
        (w, ids)
    }

    #[test]
    fn perfect_noise_sorts_exactly() {
        let (w, ids) = score_world(20);
        let noise = NoiseProfile::perfect();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let out = simulate_sort_list(&w, &noise, &ids, SortCriterion::LatentScore, &mut rng);
        let expected: Vec<String> = ids
            .iter()
            .map(|id| w.text(*id).unwrap().to_owned())
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn drop_rate_scales_with_length() {
        let (w, ids) = score_world(100);
        let noise = NoiseProfile {
            sort_drop_rate: 0.05,
            sort_drop_ref_len: 100,
            sort_halluc_rate: 0.0,
            ..NoiseProfile::perfect()
        };
        let mut total = 0usize;
        for seed in 0..50 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let out = simulate_sort_list(&w, &noise, &ids, SortCriterion::LatentScore, &mut rng);
            total += ids.len() - out.len();
        }
        let avg = total as f64 / 50.0;
        // Middle-bias of 1.0 (perfect profile) -> expect ~5 drops per run.
        assert!((2.0..=9.0).contains(&avg), "avg drops {avg}");
    }

    #[test]
    fn hallucinations_are_new_strings() {
        let (w, ids) = score_world(50);
        let noise = NoiseProfile {
            sort_halluc_rate: 0.2,
            ..NoiseProfile::perfect()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let out = simulate_sort_list(&w, &noise, &ids, SortCriterion::LatentScore, &mut rng);
        let originals: std::collections::HashSet<&str> =
            ids.iter().map(|id| w.text(*id).unwrap()).collect();
        let ghosts = out
            .iter()
            .filter(|e| !originals.contains(e.as_str()))
            .count();
        assert!(ghosts > 0, "expected some hallucinations");
    }

    #[test]
    fn compare_favours_larger_gap() {
        let (w, ids) = score_world(10);
        let noise = NoiseProfile::default();
        // Wide gap: item 0 (score 1.0) vs item 9 (score 0.1).
        let mut correct_wide = 0;
        let mut correct_narrow = 0;
        for seed in 0..400 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            if simulate_compare(
                &w,
                &noise,
                ids[0],
                ids[9],
                SortCriterion::LatentScore,
                &mut rng,
            ) {
                correct_wide += 1;
            }
            let mut rng = ChaCha8Rng::seed_from_u64(seed + 10_000);
            if simulate_compare(
                &w,
                &noise,
                ids[4],
                ids[5],
                SortCriterion::LatentScore,
                &mut rng,
            ) {
                correct_narrow += 1;
            }
        }
        assert!(
            correct_wide > 380,
            "wide-gap accuracy too low: {correct_wide}/400"
        );
        assert!(
            correct_narrow < correct_wide,
            "narrow gap should be harder ({correct_narrow} vs {correct_wide})"
        );
        assert!(correct_narrow > 200, "still better than chance");
    }

    #[test]
    fn lexicographic_compare_mostly_correct() {
        let mut w = WorldModel::new();
        let a = w.add_item("apple");
        let z = w.add_item("zebra");
        w.set_sort_key(a, "apple");
        w.set_sort_key(z, "zebra");
        let noise = NoiseProfile::default();
        let mut yes = 0;
        for seed in 0..200 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            if simulate_compare(&w, &noise, a, z, SortCriterion::Lexicographic, &mut rng) {
                yes += 1;
            }
        }
        assert!(yes > 180, "apple<zebra should be easy: {yes}/200");
    }

    #[test]
    fn shared_prefix_increases_error() {
        let mut w = WorldModel::new();
        let a = w.add_item("chair");
        let b = w.add_item("chain");
        w.set_sort_key(a, "chair");
        w.set_sort_key(b, "chain");
        let noise = NoiseProfile {
            compare_lex_error: 0.02,
            compare_lex_prefix_penalty: 0.3,
            position_bias: 0.0,
            ..NoiseProfile::perfect()
        };
        // chain < chair, so asking "chair before chain?" should be "no";
        // count wrong "yes" answers.
        let mut wrong = 0;
        for seed in 0..500 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            if simulate_compare(&w, &noise, a, b, SortCriterion::Lexicographic, &mut rng) {
                wrong += 1;
            }
        }
        // err = 0.02 + 0.3 * 0.8 = 0.26 -> expect ~130 wrong answers.
        assert!((70..=200).contains(&wrong), "wrong={wrong}");
    }

    #[test]
    fn rating_reflects_score_ordering_on_average() {
        let (w, ids) = score_world(10);
        let noise = NoiseProfile::default();
        let avg_rating = |id: ItemId| -> f64 {
            let mut total = 0u32;
            for seed in 0..200 {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                total += u32::from(simulate_rate(
                    &w,
                    &noise,
                    id,
                    1,
                    7,
                    SortCriterion::LatentScore,
                    &mut rng,
                ));
            }
            f64::from(total) / 200.0
        };
        assert!(avg_rating(ids[0]) > avg_rating(ids[9]) + 2.0);
    }

    #[test]
    fn batching_degrades_comparison_accuracy() {
        let (w, ids) = score_world(10);
        let noise = NoiseProfile {
            compare_sigma: 0.2,
            compare_batch_penalty: 0.3,
            position_bias: 0.0,
            ..NoiseProfile::perfect()
        };
        // Single narrow-gap pair vs the same pair inside a 10-pair batch.
        let pair = (ids[4], ids[5]);
        let mut single_correct = 0;
        let mut batched_correct = 0;
        for seed in 0..600 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            if simulate_compare(
                &w,
                &noise,
                pair.0,
                pair.1,
                SortCriterion::LatentScore,
                &mut rng,
            ) {
                single_correct += 1;
            }
            let mut rng = ChaCha8Rng::seed_from_u64(seed + 50_000);
            let pairs: Vec<(ItemId, ItemId)> = (0..10).map(|_| pair).collect();
            let out =
                simulate_compare_batch(&w, &noise, &pairs, SortCriterion::LatentScore, &mut rng);
            if out[0] {
                batched_correct += 1;
            }
        }
        assert!(
            batched_correct < single_correct,
            "batched {batched_correct} should err more than single {single_correct}"
        );
    }

    #[test]
    fn batch_of_one_equals_single() {
        let (w, ids) = score_world(6);
        let noise = NoiseProfile::perfect();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let out = simulate_compare_batch(
            &w,
            &noise,
            &[(ids[0], ids[5])],
            SortCriterion::LatentScore,
            &mut rng,
        );
        assert_eq!(out, vec![true]);
    }

    #[test]
    fn rating_stays_on_scale() {
        let (w, ids) = score_world(5);
        let noise = NoiseProfile {
            rate_sigma: 2.0, // huge noise still must clamp
            ..NoiseProfile::default()
        };
        for seed in 0..100 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let r = simulate_rate(
                &w,
                &noise,
                ids[0],
                1,
                7,
                SortCriterion::LatentScore,
                &mut rng,
            );
            assert!((1..=7).contains(&r));
        }
    }
}
