//! Ground-truth answers for unit tasks, used by the verification simulator.
//!
//! `Verify` tasks ask whether a previously proposed answer is correct. The
//! simulated verifier needs to know the *true* answer to the original task so
//! it can agree or disagree with the configured verifier accuracy.

use crate::task::{SortCriterion, TaskDescriptor};
use crate::world::WorldModel;

/// Compute the canonical gold answer string for an answerable unit task.
///
/// Returns `None` for task kinds without a single canonical answer string
/// (whole-list sorts, grouping) or when the world model lacks the facts.
pub fn gold_answer(world: &WorldModel, task: &TaskDescriptor) -> Option<String> {
    match task {
        TaskDescriptor::Compare {
            left,
            right,
            criterion,
        } => {
            let before = match criterion {
                SortCriterion::LatentScore => world.score(*left)? > world.score(*right)?,
                SortCriterion::Lexicographic => world.sort_key(*left)? < world.sort_key(*right)?,
            };
            Some(yes_no(before))
        }
        TaskDescriptor::SameEntity { left, right } => {
            Some(yes_no(world.same_cluster(*left, *right)?))
        }
        TaskDescriptor::Rate {
            item,
            scale_min,
            scale_max,
            criterion,
        } => {
            let norm = match criterion {
                SortCriterion::LatentScore => world.score(*item)?,
                // Rating on a lexicographic criterion is ill-posed; treat the
                // key's first letter position as a normalized score.
                SortCriterion::Lexicographic => {
                    let key = world.sort_key(*item)?;
                    let first = key.chars().next().unwrap_or('a');
                    (first.to_ascii_lowercase() as u32).saturating_sub('a' as u32) as f64 / 25.0
                }
            };
            Some(quantize(norm, *scale_min, *scale_max).to_string())
        }
        TaskDescriptor::Impute {
            item, attribute, ..
        } => world.attr(*item, attribute).map(str::to_owned),
        TaskDescriptor::CheckPredicate { item, predicate } => {
            Some(yes_no(world.flag(*item, predicate)?))
        }
        TaskDescriptor::Classify { item, .. } => world.attr(*item, "label").map(str::to_owned),
        TaskDescriptor::CountPredicate {
            items, predicate, ..
        } => {
            let mut count = 0usize;
            for it in items {
                if world.flag(*it, predicate)? {
                    count += 1;
                }
            }
            Some(count.to_string())
        }
        // Multi-answer tasks have no single canonical answer string.
        TaskDescriptor::SortList { .. }
        | TaskDescriptor::GroupEntities { .. }
        | TaskDescriptor::CompareBatch { .. }
        | TaskDescriptor::Packed { .. } => None,
        TaskDescriptor::Verify { original, .. } => {
            // The gold answer to "is this proposed answer right?" is itself a
            // yes/no derived from the inner gold answer.
            let inner_gold = gold_answer(world, original)?;
            if let TaskDescriptor::Verify {
                proposed_answer, ..
            } = task
            {
                Some(yes_no(answers_match(&inner_gold, proposed_answer)))
            } else {
                unreachable!("outer match arm guarantees Verify")
            }
        }
    }
}

/// Quantize a normalized score in `[0,1]` onto an inclusive integer scale.
pub(crate) fn quantize(norm: f64, scale_min: u8, scale_max: u8) -> u8 {
    let lo = f64::from(scale_min);
    let hi = f64::from(scale_max);
    let raw = lo + norm.clamp(0.0, 1.0) * (hi - lo);
    (raw.round().clamp(lo, hi)) as u8
}

/// Canonical yes/no rendering.
pub fn yes_no(b: bool) -> String {
    if b { "yes" } else { "no" }.to_owned()
}

/// Loose answer equality: case-insensitive, trimmed.
pub(crate) fn answers_match(gold: &str, proposed: &str) -> bool {
    gold.trim().eq_ignore_ascii_case(proposed.trim())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldModel;

    fn world_with_scores() -> (WorldModel, crate::world::ItemId, crate::world::ItemId) {
        let mut w = WorldModel::new();
        let a = w.add_item("chocolate fudge");
        let b = w.add_item("lemon sorbet");
        w.set_score(a, 0.9);
        w.set_score(b, 0.1);
        (w, a, b)
    }

    #[test]
    fn compare_gold_follows_scores() {
        let (w, a, b) = world_with_scores();
        let t = TaskDescriptor::Compare {
            left: a,
            right: b,
            criterion: SortCriterion::LatentScore,
        };
        assert_eq!(gold_answer(&w, &t), Some("yes".into()));
        let t = TaskDescriptor::Compare {
            left: b,
            right: a,
            criterion: SortCriterion::LatentScore,
        };
        assert_eq!(gold_answer(&w, &t), Some("no".into()));
    }

    #[test]
    fn compare_gold_lexicographic() {
        let mut w = WorldModel::new();
        let a = w.add_item("apple");
        let z = w.add_item("zebra");
        w.set_sort_key(a, "apple");
        w.set_sort_key(z, "zebra");
        let t = TaskDescriptor::Compare {
            left: a,
            right: z,
            criterion: SortCriterion::Lexicographic,
        };
        assert_eq!(gold_answer(&w, &t), Some("yes".into()));
    }

    #[test]
    fn rate_gold_quantizes() {
        let (w, a, _) = world_with_scores();
        let t = TaskDescriptor::Rate {
            item: a,
            scale_min: 1,
            scale_max: 7,
            criterion: SortCriterion::LatentScore,
        };
        // 1 + 0.9 * 6 = 6.4 -> 6
        assert_eq!(gold_answer(&w, &t), Some("6".into()));
    }

    #[test]
    fn quantize_bounds() {
        assert_eq!(quantize(0.0, 1, 7), 1);
        assert_eq!(quantize(1.0, 1, 7), 7);
        assert_eq!(quantize(-5.0, 1, 7), 1);
        assert_eq!(quantize(5.0, 1, 7), 7);
        assert_eq!(quantize(0.5, 1, 7), 4);
    }

    #[test]
    fn verify_gold_checks_inner_answer() {
        let (w, a, b) = world_with_scores();
        let inner = TaskDescriptor::Compare {
            left: a,
            right: b,
            criterion: SortCriterion::LatentScore,
        };
        let v_right = TaskDescriptor::Verify {
            original: Box::new(inner.clone()),
            proposed_answer: "Yes".into(),
        };
        assert_eq!(gold_answer(&w, &v_right), Some("yes".into()));
        let v_wrong = TaskDescriptor::Verify {
            original: Box::new(inner),
            proposed_answer: "no".into(),
        };
        assert_eq!(gold_answer(&w, &v_wrong), Some("no".into()));
    }

    #[test]
    fn missing_facts_yield_none() {
        let mut w = WorldModel::new();
        let a = w.add_item("x");
        let b = w.add_item("y");
        let t = TaskDescriptor::Compare {
            left: a,
            right: b,
            criterion: SortCriterion::LatentScore,
        };
        assert_eq!(gold_answer(&w, &t), None);
    }

    #[test]
    fn count_gold_counts_flags() {
        let mut w = WorldModel::new();
        let ids: Vec<_> = (0..5).map(|i| w.add_item(format!("i{i}"))).collect();
        for (i, id) in ids.iter().enumerate() {
            w.set_flag(*id, "even", i % 2 == 0);
        }
        let t = TaskDescriptor::CountPredicate {
            items: ids,
            predicate: "even".into(),
            mode: crate::task::CountMode::Eyeball,
        };
        assert_eq!(gold_answer(&w, &t), Some("3".into()));
    }

    #[test]
    fn answers_match_is_loose() {
        assert!(answers_match("yes", " Yes "));
        assert!(answers_match("Berkeley", "berkeley"));
        assert!(!answers_match("yes", "no"));
    }
}
