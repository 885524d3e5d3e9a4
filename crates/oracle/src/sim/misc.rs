//! Simulation of counting, predicate checks, classification, and
//! verification tasks (paper §3.1 and §3.5).

use rand::Rng;

use crate::model::NoiseProfile;
use crate::sim::gold::{answers_match, gold_answer};
use crate::sim::randx::gauss_with;
use crate::task::TaskDescriptor;
use crate::world::{ItemId, WorldModel};

/// Simulate a coarse "eyeball the batch and estimate the count" task.
///
/// The estimate is the true proportion plus Gaussian noise, scaled back to a
/// count and clamped to `[0, n]` — modelling Marcus et al.'s coarse counting.
pub(crate) fn simulate_count_eyeball<R: Rng>(
    world: &WorldModel,
    noise: &NoiseProfile,
    items: &[ItemId],
    predicate: &str,
    rng: &mut R,
) -> usize {
    let n = items.len();
    if n == 0 {
        return 0;
    }
    let true_count = items
        .iter()
        .filter(|id| world.flag(**id, predicate).unwrap_or(false))
        .count();
    let p = true_count as f64 / n as f64;
    let noised = gauss_with(rng, p, noise.eyeball_sigma).clamp(0.0, 1.0);
    (noised * n as f64).round() as usize
}

/// Simulate a fine-grained per-item predicate check, returning the answer
/// and its probability (the simulator's stand-in for answer-token
/// logprobs): the configured per-call accuracy when the answer matches
/// truth, its complement when the call erred.
pub(crate) fn simulate_check_with_confidence<R: Rng>(
    world: &WorldModel,
    noise: &NoiseProfile,
    item: ItemId,
    predicate: &str,
    rng: &mut R,
) -> (bool, f64) {
    let truth = world.flag(item, predicate).unwrap_or(false);
    let acc = noise.check_accuracy.clamp(0.0, 1.0);
    let correct = rng.random_bool(acc);
    let answer = if correct { truth } else { !truth };
    let base = if correct { acc } else { 1.0 - acc };
    // Jitter: confidences correlate with correctness without revealing it.
    let confidence = (base + crate::sim::randx::gauss(rng) * 0.08).clamp(0.5, 0.99);
    (answer, confidence)
}

/// Simulate a classification task: correct with `classify_accuracy`, else a
/// uniformly random *other* label.
pub(crate) fn simulate_classify<R: Rng>(
    world: &WorldModel,
    noise: &NoiseProfile,
    item: ItemId,
    labels: &[String],
    rng: &mut R,
) -> String {
    let gold = world.attr(item, "label").unwrap_or("");
    let correct = rng.random_bool(noise.classify_accuracy.clamp(0.0, 1.0));
    if correct && !gold.is_empty() {
        return gold.to_owned();
    }
    let others: Vec<&String> = labels.iter().filter(|l| l.as_str() != gold).collect();
    if others.is_empty() {
        labels.first().cloned().unwrap_or_else(|| gold.to_owned())
    } else {
        others[rng.random_range(0..others.len())].clone()
    }
}

/// Simulate a verification task: the verifier computes the true verdict on
/// the proposed answer, then reports it correctly with `verify_accuracy`.
///
/// Returns `Some(verdict)` or `None` when the inner task has no canonical
/// gold answer (e.g. whole-list sorts), in which case the simulator
/// abstains — mirroring a model that cannot check what it cannot re-derive.
pub(crate) fn simulate_verify<R: Rng>(
    world: &WorldModel,
    noise: &NoiseProfile,
    original: &TaskDescriptor,
    proposed_answer: &str,
    rng: &mut R,
) -> Option<bool> {
    let gold = gold_answer(world, original)?;
    let true_verdict = answers_match(&gold, proposed_answer);
    Some(if rng.random_bool(noise.verify_accuracy.clamp(0.0, 1.0)) {
        true_verdict
    } else {
        !true_verdict
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::SortCriterion;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn flag_world(n: usize, true_every: usize) -> (WorldModel, Vec<ItemId>) {
        let mut w = WorldModel::new();
        let ids: Vec<ItemId> = (0..n)
            .map(|i| {
                let id = w.add_item(format!("snippet {i}"));
                w.set_flag(id, "positive", i % true_every == 0);
                id
            })
            .collect();
        (w, ids)
    }

    #[test]
    fn eyeball_close_to_truth() {
        let (w, ids) = flag_world(100, 4); // 25 true
        let noise = NoiseProfile::default();
        let mut total = 0usize;
        for seed in 0..100 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            total += simulate_count_eyeball(&w, &noise, &ids, "positive", &mut rng);
        }
        let avg = total as f64 / 100.0;
        assert!((17.0..=33.0).contains(&avg), "avg estimate {avg}");
    }

    #[test]
    fn eyeball_perfect_is_exact() {
        let (w, ids) = flag_world(60, 3); // 20 true
        let noise = NoiseProfile::perfect();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(
            simulate_count_eyeball(&w, &noise, &ids, "positive", &mut rng),
            20
        );
    }

    #[test]
    fn eyeball_empty_batch() {
        let w = WorldModel::new();
        let noise = NoiseProfile::default();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(simulate_count_eyeball(&w, &noise, &[], "p", &mut rng), 0);
    }

    #[test]
    fn check_accuracy_tracks_configuration() {
        let (w, ids) = flag_world(1, 1); // single true item
        let noise = NoiseProfile {
            check_accuracy: 0.8,
            ..NoiseProfile::default()
        };
        let mut correct = 0;
        for seed in 0..1000 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            if simulate_check_with_confidence(&w, &noise, ids[0], "positive", &mut rng).0 {
                correct += 1;
            }
        }
        assert!((750..=850).contains(&correct), "correct={correct}");
    }

    #[test]
    fn classify_returns_candidate_label() {
        let mut w = WorldModel::new();
        let id = w.add_item("review text");
        w.set_attr(id, "label", "positive");
        let labels = vec![
            "positive".to_owned(),
            "negative".to_owned(),
            "neutral".to_owned(),
        ];
        let noise = NoiseProfile::default();
        for seed in 0..100 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let out = simulate_classify(&w, &noise, id, &labels, &mut rng);
            assert!(labels.contains(&out));
        }
    }

    #[test]
    fn verify_agrees_with_gold_when_accurate() {
        let mut w = WorldModel::new();
        let a = w.add_item("a");
        let b = w.add_item("b");
        w.set_score(a, 0.9);
        w.set_score(b, 0.1);
        let inner = TaskDescriptor::Compare {
            left: a,
            right: b,
            criterion: SortCriterion::LatentScore,
        };
        let noise = NoiseProfile {
            verify_accuracy: 1.0,
            ..NoiseProfile::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(
            simulate_verify(&w, &noise, &inner, "yes", &mut rng),
            Some(true)
        );
        assert_eq!(
            simulate_verify(&w, &noise, &inner, "no", &mut rng),
            Some(false)
        );
    }

    #[test]
    fn verify_abstains_without_gold() {
        let w = WorldModel::new();
        let noise = NoiseProfile::default();
        let inner = TaskDescriptor::SortList {
            items: vec![],
            criterion: SortCriterion::LatentScore,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(simulate_verify(&w, &noise, &inner, "x", &mut rng), None);
    }
}
