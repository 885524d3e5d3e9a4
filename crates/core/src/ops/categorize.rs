//! Categorization: assign each item one label from a fixed set.

use crowdprompt_oracle::task::TaskDescriptor;
use crowdprompt_oracle::world::ItemId;

use crate::error::EngineError;
use crate::exec::Engine;
use crate::extract;
use crate::ops::bill::{Ask, Line};
use crate::outcome::{CostMeter, Outcome};

/// Assign each item one of `labels`, returning labels in input order,
/// packing `pack` items to a prompt (`1` = per-item dispatch).
///
/// Under a degrade policy, quarantined items get an empty-string label so
/// the output stays aligned with the input (an empty string can never be a
/// real label — empty label sets are rejected, and [`extract::choice`] only
/// returns members of the set); the casualties land in the engine's
/// salvage note.
pub(crate) fn categorize(
    engine: &Engine,
    items: &[ItemId],
    labels: &[String],
    pack: usize,
) -> Result<Outcome<Vec<String>>, EngineError> {
    if labels.is_empty() {
        return Err(EngineError::InvalidInput(
            "categorize requires at least one label".into(),
        ));
    }
    let assigned = classify(engine, "categorize", items, labels, pack)?;
    let label = |at: Option<usize>| at.map_or_else(String::new, |at| labels[at].clone());
    Ok(assigned.map(|assigned| assigned.into_iter().map(label).collect()))
}

/// Each item's label, as its index in `labels`, under the salvage-note name
/// `op` (`None` where the item was lost): the classification pass shared by
/// [`categorize`] and the plan layer's keep-label node.
pub(crate) fn classify(
    engine: &Engine,
    op: &'static str,
    items: &[ItemId],
    labels: &[String],
    pack: usize,
) -> Result<Outcome<Vec<Option<usize>>>, EngineError> {
    let task_of = |i: usize| TaskDescriptor::Classify {
        item: items[i],
        labels: labels.to_vec(),
    };
    let read = |text: &str| extract::choice_index(text, labels);
    let mut meter = CostMeter::new();
    let mut settle = engine.settle(op);
    let run = engine.run_built(items.len(), &task_of, pack, None, &read)?;
    run.meter_into(&mut meter);
    let mut out = Vec::with_capacity(items.len());
    for (index, label) in run.answers.into_iter().enumerate() {
        out.push(settle.item(index, label)?);
    }
    settle.finish(items.len());
    Ok(meter.into_outcome(out))
}

/// What labelling `n` items at pack width `pack` asks of the model (the
/// categorize and keep-label nodes alike).
pub(crate) fn bill(n: usize, labels: &[String], pack: usize) -> Vec<Line> {
    let ask = Ask::Classify {
        labels: labels.to_vec(),
    };
    vec![Line::new(n.div_ceil(pack.max(1)), ask).packed(pack, n)]
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

    fn setup(noise: NoiseProfile) -> (Engine, Vec<ItemId>, Vec<String>) {
        let labels = vec![
            "positive".to_owned(),
            "negative".to_owned(),
            "neutral".to_owned(),
        ];
        let mut w = WorldModel::new();
        let mut ids = Vec::new();
        for i in 0..30 {
            let id = w.add_item(format!("review {i}"));
            w.set_attr(id, "label", labels[i % 3].clone());
            ids.push(id);
        }
        let corpus = Corpus::from_world(&w, &ids);
        let profile = ModelProfile::gpt35_like().with_noise(noise);
        let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(w), 31));
        (
            Engine::new(Arc::new(LlmClient::new(llm)), corpus),
            ids,
            labels,
        )
    }

    #[test]
    fn perfect_oracle_recovers_labels() {
        let (engine, ids, labels) = setup(NoiseProfile::perfect());
        let out = categorize(&engine, &ids, &labels, 1).unwrap();
        for (i, label) in out.value.iter().enumerate() {
            assert_eq!(label, &labels[i % 3]);
        }
        assert_eq!(out.calls as usize, ids.len());
    }

    #[test]
    fn noisy_oracle_still_emits_valid_labels() {
        let noise = NoiseProfile {
            classify_accuracy: 0.5,
            ..NoiseProfile::default()
        };
        let (engine, ids, labels) = setup(noise);
        let out = categorize(&engine, &ids, &labels, 1).unwrap();
        for label in &out.value {
            assert!(labels.contains(label));
        }
    }

    #[test]
    fn empty_labels_rejected() {
        let (engine, ids, _) = setup(NoiseProfile::perfect());
        assert!(matches!(
            categorize(&engine, &ids, &[], 1),
            Err(EngineError::InvalidInput(_))
        ));
    }
}
