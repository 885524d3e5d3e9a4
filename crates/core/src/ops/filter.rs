//! Filtering: keep the items satisfying a predicate.
//!
//! §3.5's quality-control ideas apply directly here: a single per-item check
//! is cheap but noisy; majority voting over repeated samples trades cost for
//! accuracy (CrowdScreen-style).

use crowdprompt_oracle::task::TaskDescriptor;
use crowdprompt_oracle::world::ItemId;

use crate::error::EngineError;
use crate::exec::{Engine, RunSpec, Settle};
use crate::extract;
use crate::outcome::{CostMeter, Outcome};

/// How to filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterStrategy {
    /// One check per item.
    Single,
    /// An odd number of independent samples per item at the given
    /// temperature, majority wins.
    MajorityVote {
        /// Number of samples (should be odd).
        votes: u32,
        /// Sampling temperature for decorrelation (in hundredths, e.g. 70
        /// for 0.7 — kept integral so the strategy stays `Copy + Eq`).
        temperature_pct: u8,
    },
    /// One check per item, escalating to a majority vote only when the
    /// model's answer confidence (its logprob analogue) falls below the
    /// threshold — §3.5's "less confidence from each LLM" signal, spent
    /// only where it matters.
    ConfidenceGated {
        /// Minimum confidence (percent, e.g. 70 for 0.70) to accept the
        /// single answer.
        min_confidence_pct: u8,
        /// Votes for the escalation pass (should be odd).
        votes: u32,
    },
}

impl FilterStrategy {
    /// Default planner selectivity assumption: without a hint, a predicate
    /// is assumed to keep half of its input.
    pub const DEFAULT_SELECTIVITY: f64 = 0.5;

    /// Human-readable strategy name (used by `EXPLAIN` and the optimizer).
    pub fn name(&self) -> String {
        match self {
            FilterStrategy::Single => "single".to_owned(),
            FilterStrategy::MajorityVote { votes, .. } => format!("majority-vote-{votes}"),
            FilterStrategy::ConfidenceGated {
                min_confidence_pct,
                votes,
            } => format!("confidence-gated-{min_confidence_pct}-{votes}"),
        }
    }

    /// Expected LLM calls per input item (planner cost hint). The
    /// confidence gate assumes roughly 30% of items escalate.
    pub fn calls_per_item(&self) -> f64 {
        match self {
            FilterStrategy::Single => 1.0,
            FilterStrategy::MajorityVote { votes, .. } => f64::from((*votes).max(1)),
            FilterStrategy::ConfidenceGated { votes, .. } => 1.0 + 0.3 * f64::from((*votes).max(1)),
        }
    }

    /// Whether this strategy's checks can ride packed multi-item prompts.
    /// The confidence gate cannot: it consumes the per-answer confidence
    /// signal, which a multi-answer response does not carry per item.
    pub fn packable(&self) -> bool {
        !matches!(self, FilterStrategy::ConfidenceGated { .. })
    }

    /// Expected LLM calls to filter `n` items at pack width `pack`
    /// (planner cost hint): packable strategies pay ⌈n/pack⌉ per pass.
    pub fn packed_calls(&self, n: usize, pack: usize) -> u64 {
        let pack = if self.packable() { pack.max(1) } else { 1 };
        match self {
            FilterStrategy::Single => n.div_ceil(pack) as u64,
            FilterStrategy::MajorityVote { votes, .. } => {
                n.div_ceil(pack) as u64 * u64::from((*votes).max(1))
            }
            FilterStrategy::ConfidenceGated { .. } => {
                (n as f64 * self.calls_per_item()).ceil() as u64
            }
        }
    }

    /// How cost scales with item count (`1` = linear), for extrapolation.
    pub fn cost_exponent(&self) -> u32 {
        1
    }
}

/// Filter `items` by `predicate`, returning the ids that pass, in input
/// order. Packs checks into multi-item prompts at the engine's configured
/// [`Engine::pack_width`].
pub fn filter(
    engine: &Engine,
    items: &[ItemId],
    predicate: &str,
    strategy: FilterStrategy,
) -> Result<Outcome<Vec<ItemId>>, EngineError> {
    filter_packed(engine, items, predicate, strategy, engine.pack_width())
}

/// [`filter`] at an explicit pack width (`1` = per-item dispatch). The plan
/// executor calls this with the planner's per-node width choice.
///
/// Under a degrade policy, items whose checks stay broken are quarantined
/// (dropped from the kept set) and noted for the plan layer instead of
/// failing the batch; see [`Engine::settle`].
pub fn filter_packed(
    engine: &Engine,
    items: &[ItemId],
    predicate: &str,
    strategy: FilterStrategy,
    pack: usize,
) -> Result<Outcome<Vec<ItemId>>, EngineError> {
    let pack = if strategy.packable() { pack.max(1) } else { 1 };
    let mut meter = CostMeter::new();
    let mut settle = engine.settle("filter");
    let mut verdict: Vec<Option<bool>> = vec![None; items.len()];
    let check = |id: &ItemId| TaskDescriptor::CheckPredicate {
        item: *id,
        predicate: predicate.to_owned(),
    };
    match strategy {
        FilterStrategy::Single => {
            let tasks = items.iter().map(check).collect();
            let run = engine.run_outcome(RunSpec::packed(tasks, pack))?;
            run.meter_into(&mut meter);
            for (index, answer) in run.answers.into_iter().enumerate() {
                verdict[index] = settle.item(index, answer.and_then(|t| extract::yes_no(&t)))?;
            }
        }
        FilterStrategy::ConfidenceGated {
            min_confidence_pct,
            votes,
        } => {
            let threshold = f64::from(min_confidence_pct) / 100.0;
            let votes = votes.max(1);
            // First pass: one call per item, keeping the confident answers.
            let tasks = items.iter().map(check).collect();
            let run = engine.run_outcome(RunSpec::tasks(tasks))?;
            run.meter_into(&mut meter);
            let mut escalate: Vec<usize> = Vec::new();
            for (index, result) in run.item_results().enumerate() {
                let Some(resp) = settle.item(index, result.map_err(EngineError::clone))? else {
                    continue;
                };
                // A confident, parseable answer settles the item; anything
                // else the policy lets through (low confidence, or garbled
                // text when it degrades) escalates to the vote, which can
                // still save it.
                match settle.item(index, extract::yes_no(&resp.text))? {
                    Some(answer) if resp.confidence.unwrap_or(1.0) >= threshold => {
                        verdict[index] = Some(answer);
                    }
                    _ => escalate.push(index),
                }
            }
            // Escalation pass: majority vote at temperature 1 on the rest,
            // every vote for every escalated item in one pipelined dispatch.
            let specs = escalate
                .iter()
                .flat_map(|&index| (0..votes).map(move |s| (check(&items[index]), 1.0, s)))
                .collect();
            let run = engine.run_outcome(RunSpec::sampled(specs))?;
            run.meter_into(&mut meter);
            let mut ballot = Ballot::new(items.len());
            for (k, answer) in run.answers.into_iter().enumerate() {
                ballot.cast(&mut settle, escalate[k / votes as usize], answer)?;
            }
            for index in escalate {
                verdict[index] = ballot.decide(&mut settle, index);
            }
        }
        FilterStrategy::MajorityVote {
            votes,
            temperature_pct,
        } => {
            let votes = votes.max(1);
            let temperature = f64::from(temperature_pct) / 100.0;
            let mut ballot = Ballot::new(items.len());
            if pack > 1 {
                // One packed pass per vote round: every round packs the
                // whole item set at this round's sample index, so a round
                // costs ⌈n/pack⌉ calls instead of n.
                let tasks: Vec<TaskDescriptor> = items.iter().map(check).collect();
                for s in 0..votes {
                    let round = RunSpec::packed_sampled(tasks.clone(), pack, temperature, s);
                    let run = engine.run_outcome(round)?;
                    run.meter_into(&mut meter);
                    for (index, answer) in run.answers.into_iter().enumerate() {
                        ballot.cast(&mut settle, index, answer)?;
                    }
                }
            } else {
                // All votes for all items go through one pipelined dispatch.
                let specs = items
                    .iter()
                    .flat_map(|id| (0..votes).map(move |s| (check(id), temperature, s)))
                    .collect();
                let run = engine.run_outcome(RunSpec::sampled(specs))?;
                run.meter_into(&mut meter);
                for (k, answer) in run.answers.into_iter().enumerate() {
                    ballot.cast(&mut settle, k / votes as usize, answer)?;
                }
            }
            for (index, slot) in verdict.iter_mut().enumerate() {
                *slot = ballot.decide(&mut settle, index);
            }
        }
    }
    settle.finish(items.len());
    let kept = items
        .iter()
        .zip(verdict)
        .filter_map(|(id, verdict)| (verdict == Some(true)).then_some(*id))
        .collect();
    Ok(meter.into_outcome(kept))
}

/// Yes/no vote tallies by item index.
struct Ballot {
    yes: Vec<u32>,
    counted: Vec<u32>,
}

impl Ballot {
    fn new(items: usize) -> Self {
        Ballot {
            yes: vec![0; items],
            counted: vec![0; items],
        }
    }

    /// Count one vote for the item at `index`; a vote the policy lets fail
    /// is simply not counted, so it harms only its own item.
    fn cast(
        &mut self,
        settle: &mut Settle<'_>,
        index: usize,
        answer: Result<String, EngineError>,
    ) -> Result<(), EngineError> {
        if let Some(yes) = settle.item(index, answer.and_then(|t| extract::yes_no(&t)))? {
            self.counted[index] += 1;
            self.yes[index] += u32::from(yes);
        }
        Ok(())
    }

    /// The majority verdict over the votes that survived, or `None` (the
    /// item stays lost under its last error) when not a single one did.
    fn decide(&self, settle: &mut Settle<'_>, index: usize) -> Option<bool> {
        (self.counted[index] > 0).then(|| {
            settle.recovered(index);
            self.yes[index] * 2 > self.counted[index]
        })
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

    fn setup(n: usize, noise: NoiseProfile) -> (Engine, Vec<ItemId>, Vec<ItemId>) {
        let mut w = WorldModel::new();
        let mut ids = Vec::new();
        let mut expected = Vec::new();
        for i in 0..n {
            let id = w.add_item(format!("snippet {i}"));
            let positive = i % 3 == 0;
            w.set_flag(id, "positive", positive);
            if positive {
                expected.push(id);
            }
            ids.push(id);
        }
        let corpus = Corpus::from_world(&w, &ids);
        let profile = ModelProfile::gpt35_like().with_noise(noise);
        let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(w), 17));
        let engine =
            Engine::new(Arc::new(LlmClient::new(llm)), corpus).with_budget(Budget::Unlimited);
        (engine, ids, expected)
    }

    #[test]
    fn single_perfect_filter_is_exact() {
        let (engine, ids, expected) = setup(30, NoiseProfile::perfect());
        let out = filter(&engine, &ids, "positive", FilterStrategy::Single).unwrap();
        assert_eq!(out.value, expected);
        assert_eq!(out.calls as usize, ids.len());
    }

    #[test]
    fn majority_vote_beats_single_on_noisy_oracle() {
        let noise = NoiseProfile {
            check_accuracy: 0.75,
            ..NoiseProfile::perfect()
        };
        let (engine, ids, expected) = setup(60, noise);
        let expected_set: std::collections::HashSet<ItemId> = expected.iter().copied().collect();
        let accuracy = |kept: &[ItemId]| {
            let kept_set: std::collections::HashSet<ItemId> = kept.iter().copied().collect();
            ids.iter()
                .filter(|id| kept_set.contains(id) == expected_set.contains(id))
                .count() as f64
                / ids.len() as f64
        };
        let single = filter(&engine, &ids, "positive", FilterStrategy::Single).unwrap();
        let voted = filter(
            &engine,
            &ids,
            "positive",
            FilterStrategy::MajorityVote {
                votes: 5,
                temperature_pct: 100,
            },
        )
        .unwrap();
        let a_single = accuracy(&single.value);
        let a_voted = accuracy(&voted.value);
        assert!(
            a_voted >= a_single,
            "vote {a_voted:.3} should not lose to single {a_single:.3}"
        );
        assert!(voted.calls > single.calls, "votes cost more calls");
    }

    #[test]
    fn confidence_gating_escalates_only_uncertain_items() {
        let noise = NoiseProfile {
            check_accuracy: 0.75,
            ..NoiseProfile::perfect()
        };
        let (engine, ids, expected) = setup(60, noise);
        let expected_set: std::collections::HashSet<ItemId> = expected.iter().copied().collect();
        let accuracy = |kept: &[ItemId]| {
            let kept_set: std::collections::HashSet<ItemId> = kept.iter().copied().collect();
            ids.iter()
                .filter(|id| kept_set.contains(id) == expected_set.contains(id))
                .count() as f64
                / ids.len() as f64
        };
        let single = filter(&engine, &ids, "positive", FilterStrategy::Single).unwrap();
        let gated = filter(
            &engine,
            &ids,
            "positive",
            FilterStrategy::ConfidenceGated {
                min_confidence_pct: 65,
                votes: 5,
            },
        )
        .unwrap();
        let full_vote = filter(
            &engine,
            &ids,
            "positive",
            FilterStrategy::MajorityVote {
                votes: 5,
                temperature_pct: 100,
            },
        )
        .unwrap();
        // Gating should improve on a single pass…
        assert!(
            accuracy(&gated.value) >= accuracy(&single.value),
            "gated {:.3} vs single {:.3}",
            accuracy(&gated.value),
            accuracy(&single.value)
        );
        // …at a fraction of the all-items voting cost.
        assert!(
            gated.calls < full_vote.calls,
            "gated {} calls should undercut full voting {}",
            gated.calls,
            full_vote.calls
        );
        assert!(gated.calls > single.calls, "some items escalate");
    }

    #[test]
    fn confidence_gate_with_perfect_model_never_escalates() {
        let (engine, ids, expected) = setup(20, NoiseProfile::perfect());
        // A perfect model's confidence is 1.0 plus ±0.08σ jitter; a 0.65
        // gate sits >4σ below it, so no item can plausibly escalate (a 0.90
        // gate would trip on ~10% of items purely from jitter).
        let out = filter(
            &engine,
            &ids,
            "positive",
            FilterStrategy::ConfidenceGated {
                min_confidence_pct: 65,
                votes: 5,
            },
        )
        .unwrap();
        assert_eq!(out.value, expected);
        assert_eq!(out.calls as usize, ids.len(), "no escalation needed");
    }

    #[test]
    fn empty_input() {
        let (engine, _, _) = setup(3, NoiseProfile::perfect());
        let out = filter(&engine, &[], "positive", FilterStrategy::Single).unwrap();
        assert!(out.value.is_empty());
        assert_eq!(out.calls, 0);
    }
}
