//! Automatic strategy selection (paper §4, "Identifying Best Prompting
//! Strategies Automatically").
//!
//! The toolkit runs every candidate strategy on a small labelled validation
//! sample and measures its accuracy and cost there. Choosing under a budget
//! is the planner's: `Query::calibrate_sort` prices each candidate at full
//! scale by its bill and keeps the most accurate one that fits.

use std::collections::HashSet;

use crowdprompt_metrics::rank::kendall_tau_b_rankings;
use crowdprompt_oracle::task::SortCriterion;
use crowdprompt_oracle::world::ItemId;

use crate::error::EngineError;
use crate::exec::Engine;
use crate::ops::filter::{filter, FilterStrategy};
use crate::ops::sort::{sort, SortStrategy};
use crate::outcome::Outcome;

/// Measured performance of one strategy on the validation sample.
#[derive(Debug, Clone)]
// lint: allow(pub-has-caller) — exposed by `optimize::evaluate_filter_strategies`
pub struct StrategyTrial {
    /// Strategy display name.
    pub name: String,
    /// Quality score in `[-1, 1]` or `[0, 1]` depending on the metric.
    pub accuracy: f64,
    /// Dollar cost of running the strategy on the sample.
    pub sample_cost_usd: f64,
    /// Total tokens on the sample.
    pub sample_tokens: u64,
    /// Calls on the sample.
    pub sample_calls: u64,
}

impl StrategyTrial {
    /// The trial record of one strategy's run on the sample.
    fn of<T>(name: String, accuracy: f64, run: &Outcome<T>) -> Self {
        StrategyTrial {
            name,
            accuracy,
            sample_cost_usd: run.cost_usd,
            sample_tokens: u64::from(run.usage.total()),
            sample_calls: run.calls,
        }
    }
}

/// Run every candidate sort strategy on a labelled validation sample and
/// measure Kendall tau-β against the gold ordering.
pub fn evaluate_sort_strategies(
    engine: &Engine,
    sample: &[ItemId],
    gold: &[ItemId],
    criterion: SortCriterion,
    candidates: &[SortStrategy],
) -> Result<Vec<StrategyTrial>, EngineError> {
    if sample.len() < 2 {
        return Err(EngineError::InvalidInput(
            "validation sample needs at least two items".into(),
        ));
    }
    let mut trials = Vec::with_capacity(candidates.len());
    for strategy in candidates {
        let out = sort(engine, sample, criterion, strategy)?;
        let tau = kendall_tau_b_rankings(&out.value.order, gold).unwrap_or(0.0);
        trials.push(StrategyTrial::of(strategy.name(), tau, &out));
    }
    Ok(trials)
}

/// Run every candidate filter strategy on a labelled validation sample
/// (`gold[i]` says whether `sample[i]` satisfies `predicate`) and measure
/// the share of keep/drop verdicts that match gold — with
/// [`FilterStrategy::Single`] as the only candidate, the model's per-call
/// accuracy on the predicate (§3.5's validation-set estimate).
pub fn evaluate_filter_strategies(
    engine: &Engine,
    sample: &[ItemId],
    gold: &[bool],
    predicate: &str,
    candidates: &[FilterStrategy],
) -> Result<Vec<StrategyTrial>, EngineError> {
    if sample.is_empty() || sample.len() != gold.len() {
        return Err(EngineError::InvalidInput(format!(
            "accuracy estimation needs a non-empty validation set with one gold label per \
             item, got {} items and {} labels",
            sample.len(),
            gold.len()
        )));
    }
    let mut trials = Vec::with_capacity(candidates.len());
    for strategy in candidates {
        let out = filter(engine, sample, predicate, *strategy, engine.pack_width())?;
        let kept: HashSet<ItemId> = out.value.iter().copied().collect();
        let correct = sample
            .iter()
            .zip(gold)
            .filter(|(id, gold)| kept.contains(id) == **gold)
            .count();
        let accuracy = correct as f64 / sample.len() as f64;
        trials.push(StrategyTrial::of(strategy.name(), accuracy, &out));
    }
    Ok(trials)
}

/// The subset of trials not dominated by another trial (higher-or-equal
/// accuracy and strictly lower cost dominates). Returned sorted by cost.
pub fn pareto_frontier(trials: &[StrategyTrial]) -> Vec<StrategyTrial> {
    let mut frontier: Vec<StrategyTrial> = trials
        .iter()
        .filter(|t| {
            !trials.iter().any(|other| {
                other.accuracy >= t.accuracy && other.sample_cost_usd < t.sample_cost_usd
                    || (other.accuracy > t.accuracy && other.sample_cost_usd <= t.sample_cost_usd)
            })
        })
        .cloned()
        .collect();
    frontier.sort_by(|a, b| {
        a.sample_cost_usd
            .partial_cmp(&b.sample_cost_usd)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    frontier
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

    fn trial(name: &str, accuracy: f64, cost: f64) -> StrategyTrial {
        StrategyTrial {
            name: name.into(),
            accuracy,
            sample_cost_usd: cost,
            sample_tokens: 0,
            sample_calls: 0,
        }
    }

    #[test]
    fn pareto_removes_dominated() {
        let trials = vec![
            trial("cheap-bad", 0.4, 1.0),
            trial("dominated", 0.4, 2.0),
            trial("expensive-good", 0.9, 5.0),
        ];
        let frontier = pareto_frontier(&trials);
        let names: Vec<&str> = frontier.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["cheap-bad", "expensive-good"]);
    }

    #[test]
    fn evaluate_runs_each_candidate() {
        let mut w = WorldModel::new();
        let ids: Vec<ItemId> = (0..8)
            .map(|i| {
                let id = w.add_item(format!("thing {i}"));
                w.set_score(id, i as f64 / 8.0);
                w.set_salience(id, 1.0);
                id
            })
            .collect();
        let gold = w.gold_ranking_by_score(&ids);
        let corpus = Corpus::from_world(&w, &ids);
        let llm = Arc::new(SimulatedLlm::new(ModelProfile::perfect(), Arc::new(w), 7));
        let engine = Engine::new(Arc::new(LlmClient::new(llm)), corpus);
        let candidates = vec![
            SortStrategy::SinglePrompt,
            SortStrategy::Pairwise,
            SortStrategy::Rating {
                scale_min: 1,
                scale_max: 7,
            },
        ];
        let trials = evaluate_sort_strategies(
            &engine,
            &ids,
            &gold,
            SortCriterion::LatentScore,
            &candidates,
        )
        .unwrap();
        assert_eq!(trials.len(), 3);
        // Perfect oracle: single-prompt and pairwise hit tau = 1.
        assert!(trials[0].accuracy > 0.99);
        assert!(trials[1].accuracy > 0.99);
        // Pairwise costs the most tokens.
        assert!(trials[1].sample_tokens > trials[0].sample_tokens);
        assert!(trials[1].sample_tokens > trials[2].sample_tokens);
    }

    #[test]
    fn evaluate_rejects_tiny_samples() {
        let w = WorldModel::new();
        let corpus = Corpus::from_world(&w, &[]);
        let llm = Arc::new(SimulatedLlm::new(ModelProfile::perfect(), Arc::new(w), 7));
        let engine = Engine::new(Arc::new(LlmClient::new(llm)), corpus);
        assert!(matches!(
            evaluate_sort_strategies(
                &engine,
                &[],
                &[],
                SortCriterion::LatentScore,
                &[SortStrategy::SinglePrompt]
            ),
            Err(EngineError::InvalidInput(_))
        ));
    }

    fn noisy_engine(check_accuracy: f64) -> (Engine, Vec<ItemId>) {
        let mut w = WorldModel::new();
        let ids: Vec<ItemId> = (0..20)
            .map(|i| {
                let id = w.add_item(format!("item {i}"));
                w.set_flag(id, "p", i % 2 == 0);
                id
            })
            .collect();
        let corpus = Corpus::from_world(&w, &ids);
        let profile = ModelProfile::gpt35_like().with_noise(NoiseProfile {
            check_accuracy,
            malformed_rate: 0.0,
            ..NoiseProfile::perfect()
        });
        let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(w), 61));
        (Engine::new(Arc::new(LlmClient::new(llm)), corpus), ids)
    }

    #[test]
    fn accuracy_estimation_tracks_noise() {
        let (engine, ids) = noisy_engine(0.8);
        let gold: Vec<bool> = (0..ids.len()).map(|i| i % 2 == 0).collect();
        let trials =
            evaluate_filter_strategies(&engine, &ids, &gold, "p", &[FilterStrategy::Single])
                .unwrap();
        let out = &trials[0];
        assert!(
            (0.55..=1.0).contains(&out.accuracy),
            "estimated accuracy {}",
            out.accuracy
        );
        assert_eq!(out.sample_calls as usize, ids.len());
        assert_eq!(out.name, "single");
    }

    #[test]
    fn accuracy_estimation_rejects_empty() {
        let (engine, ids) = noisy_engine(1.0);
        assert!(matches!(
            evaluate_filter_strategies(&engine, &[], &[], "p", &[FilterStrategy::Single]),
            Err(EngineError::InvalidInput(_))
        ));
        assert!(matches!(
            evaluate_filter_strategies(&engine, &ids, &[true], "p", &[FilterStrategy::Single]),
            Err(EngineError::InvalidInput(_))
        ));
    }
}
