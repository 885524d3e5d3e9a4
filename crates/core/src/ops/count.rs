//! Counting: how many items satisfy a predicate (paper §3.1, after Marcus
//! et al.'s "Counting with the crowd").

use crowdprompt_oracle::task::{CountMode, TaskDescriptor};
use crowdprompt_oracle::world::ItemId;

use crate::error::EngineError;
use crate::exec::{Engine, RunSpec};
use crate::extract;
use crate::ops::bill::{Ask, Line};
use crate::outcome::{CostMeter, Outcome};

/// How to count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountStrategy {
    /// Coarse: split items into batches of `batch_size` and ask the model to
    /// eyeball-estimate each batch's count. O(n / batch) cheap tasks.
    Eyeball {
        /// Items per estimation prompt.
        batch_size: usize,
    },
    /// Fine: check every item individually. O(n) tasks, higher accuracy.
    PerItem,
}

impl CountStrategy {
    /// Human-readable strategy name (used by `EXPLAIN` and the optimizer).
    pub fn name(&self) -> String {
        match self {
            CountStrategy::Eyeball { batch_size } => format!("eyeball-{batch_size}"),
            CountStrategy::PerItem => "per-item".to_owned(),
        }
    }

    /// Whether this strategy's checks can ride packed multi-item prompts.
    /// Eyeball batches are already one-prompt-per-batch; only the per-item
    /// checks benefit from packing.
    pub fn packable(&self) -> bool {
        matches!(self, CountStrategy::PerItem)
    }

    /// What counting `n` items at pack width `pack` asks of the model. An
    /// eyeball prompt never lists more items than reach the node.
    pub(crate) fn bill(&self, n: usize, predicate: &str, pack: usize) -> Vec<Line> {
        vec![match *self {
            CountStrategy::PerItem => {
                Line::new(n.div_ceil(pack.max(1)), Ask::check(predicate)).packed(pack, n)
            }
            CountStrategy::Eyeball { batch_size } => {
                let batch = batch_size.max(1);
                let ask = Ask::EyeballCount {
                    predicate: predicate.to_owned(),
                    len: batch.min(n),
                };
                Line::new(n.div_ceil(batch), ask)
            }
        }]
    }
}

/// Count how many of `items` satisfy `predicate`, packing per-item checks
/// `pack` to a prompt (`1` = per-item dispatch).
///
/// Under a degrade policy only items whose checks completed are counted;
/// the rest are quarantined in the engine's salvage note (an eyeball batch
/// that stays broken quarantines every item it covered), so the returned
/// count is a *lower bound* when the note lists casualties.
pub(crate) fn count(
    engine: &Engine,
    items: &[ItemId],
    predicate: &str,
    strategy: CountStrategy,
    pack: usize,
) -> Result<Outcome<u64>, EngineError> {
    let mut meter = CostMeter::new();
    let mut settle = engine.settle("count");
    let mut total = 0u64;
    match strategy {
        CountStrategy::Eyeball { batch_size } => {
            let batch_size = batch_size.max(1);
            let tasks = items
                .chunks(batch_size)
                .map(|chunk| TaskDescriptor::CountPredicate {
                    items: chunk.to_vec(),
                    predicate: predicate.to_owned(),
                    mode: CountMode::Eyeball,
                })
                .collect();
            let run = engine.run_outcome(RunSpec::tasks(tasks))?;
            run.meter_into(&mut meter);
            let mut start = 0;
            for (answer, chunk) in run.answers.into_iter().zip(items.chunks(batch_size)) {
                let covered = start..start + chunk.len();
                start = covered.end;
                let estimate = answer.and_then(|text| extract::count(&text));
                // Clamp implausible estimates to the batch size.
                if let Some(n) = settle.span(covered, estimate)? {
                    total += n.min(chunk.len() as u64);
                }
            }
        }
        CountStrategy::PerItem => {
            let task_of = |i: usize| TaskDescriptor::CheckPredicate {
                item: items[i],
                predicate: predicate.to_owned(),
            };
            let run = engine.run_built(items.len(), &task_of, pack, None, &extract::yes_no)?;
            run.meter_into(&mut meter);
            for (index, verdict) in run.answers.into_iter().enumerate() {
                total += u64::from(settle.item(index, verdict)? == Some(true));
            }
        }
    }
    settle.finish(items.len());
    Ok(meter.into_outcome(total))
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

    fn setup(n: usize, noise: NoiseProfile) -> (Engine, Vec<ItemId>, u64) {
        let mut w = WorldModel::new();
        let mut ids = Vec::new();
        let mut truth = 0u64;
        for i in 0..n {
            let id = w.add_item(format!("record {i}"));
            let flag = i % 4 == 0;
            w.set_flag(id, "relevant", flag);
            truth += u64::from(flag);
            ids.push(id);
        }
        let corpus = Corpus::from_world(&w, &ids);
        let profile = ModelProfile::gpt35_like().with_noise(noise);
        let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(w), 23));
        let engine =
            Engine::new(Arc::new(LlmClient::new(llm)), corpus).with_budget(Budget::Unlimited);
        (engine, ids, truth)
    }

    #[test]
    fn per_item_perfect_is_exact() {
        let (engine, ids, truth) = setup(40, NoiseProfile::perfect());
        let out = count(&engine, &ids, "relevant", CountStrategy::PerItem, 1).unwrap();
        assert_eq!(out.value, truth);
        assert_eq!(out.calls as usize, ids.len());
    }

    #[test]
    fn eyeball_is_cheaper_but_coarser() {
        let (engine, ids, truth) = setup(80, NoiseProfile::default());
        let coarse = count(
            &engine,
            &ids,
            "relevant",
            CountStrategy::Eyeball { batch_size: 20 },
            1,
        )
        .unwrap();
        let fine = count(&engine, &ids, "relevant", CountStrategy::PerItem, 1).unwrap();
        assert_eq!(coarse.calls, 4);
        assert_eq!(fine.calls, 80);
        assert!(coarse.usage.total() < fine.usage.total());
        // Both should land in a sane band around the truth.
        let band = |v: u64| (v as i64 - truth as i64).unsigned_abs();
        assert!(
            band(coarse.value) <= 15,
            "coarse {} vs {truth}",
            coarse.value
        );
        assert!(band(fine.value) <= 10, "fine {} vs {truth}", fine.value);
    }

    #[test]
    fn eyeball_perfect_is_exact() {
        let (engine, ids, truth) = setup(30, NoiseProfile::perfect());
        let out = count(
            &engine,
            &ids,
            "relevant",
            CountStrategy::Eyeball { batch_size: 10 },
            1,
        )
        .unwrap();
        assert_eq!(out.value, truth);
    }

    #[test]
    fn empty_input_is_zero_and_free() {
        let (engine, _, _) = setup(4, NoiseProfile::perfect());
        let out = count(&engine, &[], "relevant", CountStrategy::PerItem, 1).unwrap();
        assert_eq!(out.value, 0);
        assert_eq!(out.calls, 0);
    }
}
