//! Missing-value imputation strategies (paper §3.4, Table 4).

use std::collections::HashMap;

use crowdprompt_oracle::task::TaskDescriptor;
use crowdprompt_oracle::world::ItemId;

use crate::blocking::BlockingIndex;
use crate::error::EngineError;
use crate::exec::{Engine, RunSpec};
use crate::extract;
use crate::ops::bill::{Ask, Line};
use crate::outcome::{CostMeter, Outcome};

/// How to impute.
#[derive(Debug, Clone, PartialEq)]
pub enum ImputeStrategy {
    /// Pure k-NN: impute the mode of the `k` nearest labeled records'
    /// values. Zero LLM calls.
    KnnOnly {
        /// Number of neighbors (paper uses 3).
        k: usize,
    },
    /// Ask the LLM for every record, with `shots` nearest labeled records
    /// included as few-shot examples (paper tries 0 and 3).
    LlmOnly {
        /// Few-shot examples per prompt.
        shots: usize,
    },
    /// The paper's hybrid: use the k-NN value when all `k` neighbors agree
    /// (unanimity), otherwise fall back to the LLM (with `shots` examples).
    Hybrid {
        /// Number of neighbors for the gate and the k-NN value.
        k: usize,
        /// Few-shot examples on the LLM fallback.
        shots: usize,
    },
}

impl ImputeStrategy {
    /// Human-readable strategy name (used by `EXPLAIN` and the optimizer).
    pub fn name(&self) -> String {
        match self {
            ImputeStrategy::KnnOnly { k } => format!("knn-only-{k}"),
            ImputeStrategy::LlmOnly { shots } => format!("llm-only-{shots}"),
            ImputeStrategy::Hybrid { k, shots } => format!("hybrid-{k}-{shots}"),
        }
    }

    /// Whether this strategy's LLM calls can ride packed multi-item
    /// prompts (only the strategies that call the LLM at all).
    pub fn packable(&self) -> bool {
        !matches!(self, ImputeStrategy::KnnOnly { .. })
    }

    /// What imputing `n` records at pack width `pack` asks of the model,
    /// the first `shots` of `labeled` standing in for each prompt's
    /// examples (the hybrid assumes the unanimity gate diverts roughly half
    /// the records).
    pub(crate) fn bill(
        &self,
        n: usize,
        attribute: &str,
        labeled: &[(ItemId, String)],
        pack: usize,
    ) -> Vec<Line> {
        let (asked, shots) = match *self {
            ImputeStrategy::KnnOnly { .. } => return Vec::new(),
            ImputeStrategy::LlmOnly { shots } => (n, shots),
            ImputeStrategy::Hybrid { shots, .. } => (n.div_ceil(2), shots),
        };
        let ask = Ask::Impute {
            attribute: attribute.to_owned(),
            examples: labeled.iter().take(shots).cloned().collect(),
        };
        vec![Line::new(asked.div_ceil(pack.max(1)), ask).packed(pack, n)]
    }
}

/// A labeled reference pool: records whose target-attribute values are
/// known, supporting neighbor lookup by record-text embedding through the
/// shared (memoized, batched) [`BlockingIndex`].
pub struct LabeledPool {
    labels: HashMap<ItemId, String>,
    inner: BlockingIndex,
}

impl LabeledPool {
    /// Build a pool from labeled items, embedding their corpus texts.
    pub fn build(engine: &Engine, labeled: &[(ItemId, String)]) -> Result<Self, EngineError> {
        let items: Vec<ItemId> = labeled.iter().map(|(id, _)| *id).collect();
        let labels = labeled.iter().map(|(id, l)| (*id, l.clone())).collect();
        Ok(LabeledPool {
            labels,
            inner: BlockingIndex::build(engine, &items)?,
        })
    }

    /// The `k` nearest labeled records to each of `ids` (excluding the
    /// record itself when it is part of the pool — leave-one-out), as one
    /// batched, memoized index query.
    fn neighbors_many(&self, engine: &Engine, ids: &[ItemId], k: usize) -> Vec<Vec<ItemId>> {
        let hits = self.inner.neighbors_many(engine, ids, k);
        hits.into_iter()
            .map(|record| record.into_iter().map(|h| h.item).collect())
            .collect()
    }

    /// The label of a pool record.
    pub fn label(&self, id: ItemId) -> Option<&str> {
        self.labels.get(&id).map(String::as_str)
    }

    /// Number of labeled records.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

/// Impute `attribute` for each record in `records`, returning predicted
/// values in input order. LLM calls pack into multi-item prompts at the
/// engine's configured [`Engine::pack_width`].
pub fn impute(
    engine: &Engine,
    records: &[ItemId],
    attribute: &str,
    pool: &LabeledPool,
    strategy: &ImputeStrategy,
) -> Result<Outcome<Vec<String>>, EngineError> {
    impute_packed(
        engine,
        records,
        attribute,
        pool,
        strategy,
        engine.pack_width(),
    )
}

/// [`impute`] at an explicit pack width (`1` = per-record dispatch).
///
/// Under a degrade policy, quarantined records get the empty-string "no
/// answer" placeholder (the k-NN convention) so output stays aligned;
/// casualties land in the engine's salvage note.
pub fn impute_packed(
    engine: &Engine,
    records: &[ItemId],
    attribute: &str,
    pool: &LabeledPool,
    strategy: &ImputeStrategy,
    pack: usize,
) -> Result<Outcome<Vec<String>>, EngineError> {
    let (gate_k, shots) = match strategy {
        ImputeStrategy::KnnOnly { k } => {
            let values = pool
                .neighbors_many(engine, records, *k)
                .iter()
                .map(|neighbors| knn_mode(pool, neighbors, *k).0)
                .collect();
            return Ok(Outcome::free(values));
        }
        ImputeStrategy::LlmOnly { shots } => (None, *shots),
        ImputeStrategy::Hybrid { k, shots } => (Some(*k), *shots),
    };
    // Gate: unanimous k-NN answers are free; the rest go to the LLM.
    let mut values: Vec<Option<String>> = match gate_k {
        Some(k) => pool
            .neighbors_many(engine, records, k)
            .iter()
            .map(|neighbors| {
                let (mode, unanimous) = knn_mode(pool, neighbors, k);
                (unanimous && !mode.is_empty()).then_some(mode)
            })
            .collect(),
        None => vec![None; records.len()],
    };
    let llm_indices: Vec<usize> = (0..records.len())
        .filter(|&i| values[i].is_none())
        .collect();
    let llm_records: Vec<ItemId> = llm_indices.iter().map(|&i| records[i]).collect();
    // Few-shot examples: each record's nearest labeled peers (served from
    // the pool's memo when the gate already asked for the same `k`).
    let examples = match shots {
        0 => vec![Vec::new(); llm_records.len()],
        _ => pool.neighbors_many(engine, &llm_records, shots),
    };
    let tasks = llm_records
        .iter()
        .zip(examples)
        .map(|(&item, peers)| TaskDescriptor::Impute {
            item,
            attribute: attribute.to_owned(),
            examples: peers
                .into_iter()
                .filter_map(|n| pool.label(n).map(|l| (n, l.to_owned())))
                .collect(),
        })
        .collect();
    let mut meter = CostMeter::new();
    let mut settle = engine.settle("impute");
    let run = engine.run_outcome(RunSpec::packed(tasks, pack))?;
    run.meter_into(&mut meter);
    for (answer, &i) in run.answers.into_iter().zip(&llm_indices) {
        let value = answer.and_then(|text| extract::value(&text));
        values[i] = Some(settle.item(i, value)?.unwrap_or_default());
    }
    settle.finish(records.len());
    Ok(meter.into_outcome(values.into_iter().flatten().collect()))
}

/// k-NN imputation from a record's `k` nearest labeled `neighbors`:
/// `(mode of their labels, whether all `k` agree)`.
fn knn_mode(pool: &LabeledPool, neighbors: &[ItemId], k: usize) -> (String, bool) {
    if neighbors.is_empty() {
        return (String::new(), false);
    }
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for n in neighbors {
        if let Some(label) = pool.label(*n) {
            *counts.entry(label).or_default() += 1;
        }
    }
    if counts.is_empty() {
        return (String::new(), false);
    }
    let unanimous = counts.len() == 1 && neighbors.len() == k;
    let mode = counts
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
        .map(|(v, _)| (*v).to_owned())
        .unwrap_or_default();
    (mode, unanimous)
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

    /// Records in two well-separated text clusters with distinct labels,
    /// plus (optionally) ambiguous records between them.
    fn impute_world(
        per_cluster: usize,
        ambiguous: usize,
    ) -> (WorldModel, Vec<ItemId>, HashMap<ItemId, String>) {
        let mut w = WorldModel::new();
        let mut ids = Vec::new();
        let mut gold = HashMap::new();
        for i in 0..per_cluster {
            let id = w.add_item(format!(
                "name is mission taqueria {i}; street is valencia; area is 415"
            ));
            w.set_attr(id, "city", "san francisco");
            gold.insert(id, "san francisco".to_owned());
            ids.push(id);
        }
        for i in 0..per_cluster {
            let id = w.add_item(format!(
                "name is shattuck bistro {i}; street is shattuck; area is 510"
            ));
            w.set_attr(id, "city", "berkeley");
            gold.insert(id, "berkeley".to_owned());
            ids.push(id);
        }
        for i in 0..ambiguous {
            // Texts that straddle the two clusters.
            let id = w.add_item(format!("name is corner diner {i}; street is main"));
            let city = if i % 2 == 0 {
                "san francisco"
            } else {
                "berkeley"
            };
            w.set_attr(id, "city", city);
            gold.insert(id, city.to_owned());
            ids.push(id);
        }
        (w, ids, gold)
    }

    fn engine_over(w: WorldModel, ids: &[ItemId], noise: NoiseProfile) -> Engine {
        let corpus = Corpus::from_world(&w, ids);
        let profile = ModelProfile::claude2_like().with_noise(noise);
        let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(w), 13));
        Engine::new(Arc::new(LlmClient::new(llm)), corpus).with_budget(Budget::Unlimited)
    }

    fn labeled(ids: &[ItemId], gold: &HashMap<ItemId, String>) -> Vec<(ItemId, String)> {
        ids.iter().map(|id| (*id, gold[id].clone())).collect()
    }

    #[test]
    fn knn_only_is_free_and_accurate_on_separated_clusters() {
        let (w, ids, gold) = impute_world(10, 0);
        let engine = engine_over(w, &ids, NoiseProfile::perfect());
        let pool = LabeledPool::build(&engine, &labeled(&ids, &gold)).unwrap();
        let out = impute(
            &engine,
            &ids,
            "city",
            &pool,
            &ImputeStrategy::KnnOnly { k: 3 },
        )
        .unwrap();
        assert_eq!(out.calls, 0);
        assert_eq!(out.cost_usd, 0.0);
        let correct = out
            .value
            .iter()
            .zip(&ids)
            .filter(|(v, id)| *v == &gold[*id])
            .count();
        assert_eq!(
            correct,
            ids.len(),
            "leave-one-out k-NN should be exact here"
        );
    }

    #[test]
    fn llm_only_perfect_oracle_exact() {
        let (w, ids, gold) = impute_world(5, 2);
        let engine = engine_over(w, &ids, NoiseProfile::perfect());
        let pool = LabeledPool::build(&engine, &labeled(&ids, &gold)).unwrap();
        let out = impute(
            &engine,
            &ids,
            "city",
            &pool,
            &ImputeStrategy::LlmOnly { shots: 0 },
        )
        .unwrap();
        assert_eq!(out.calls as usize, ids.len());
        for (v, id) in out.value.iter().zip(&ids) {
            assert_eq!(v, &gold[id]);
        }
    }

    #[test]
    fn hybrid_calls_llm_only_for_ambiguous_records() {
        let (w, ids, gold) = impute_world(10, 6);
        let engine = engine_over(w, &ids, NoiseProfile::perfect());
        let pool = LabeledPool::build(&engine, &labeled(&ids, &gold)).unwrap();
        let out = impute(
            &engine,
            &ids,
            "city",
            &pool,
            &ImputeStrategy::Hybrid { k: 3, shots: 0 },
        )
        .unwrap();
        assert!(
            (out.calls as usize) < ids.len(),
            "gate should divert some records from the LLM: {} of {}",
            out.calls,
            ids.len()
        );
        assert!(out.calls > 0, "ambiguous records should reach the LLM");
        for (v, id) in out.value.iter().zip(&ids) {
            assert_eq!(v, &gold[id]);
        }
    }

    #[test]
    fn hybrid_cheaper_than_llm_only() {
        let (w, ids, gold) = impute_world(12, 4);
        let engine = engine_over(w, &ids, NoiseProfile::default());
        let pool = LabeledPool::build(&engine, &labeled(&ids, &gold)).unwrap();
        let hybrid = impute(
            &engine,
            &ids,
            "city",
            &pool,
            &ImputeStrategy::Hybrid { k: 3, shots: 3 },
        )
        .unwrap();
        let llm_only = impute(
            &engine,
            &ids,
            "city",
            &pool,
            &ImputeStrategy::LlmOnly { shots: 3 },
        )
        .unwrap();
        assert!(hybrid.usage.total() < llm_only.usage.total());
    }

    #[test]
    fn shots_increase_prompt_tokens() {
        let (w, ids, gold) = impute_world(8, 0);
        let engine = engine_over(w, &ids, NoiseProfile::perfect());
        let pool = LabeledPool::build(&engine, &labeled(&ids, &gold)).unwrap();
        let zero = impute(
            &engine,
            &ids,
            "city",
            &pool,
            &ImputeStrategy::LlmOnly { shots: 0 },
        )
        .unwrap();
        let three = impute(
            &engine,
            &ids,
            "city",
            &pool,
            &ImputeStrategy::LlmOnly { shots: 3 },
        )
        .unwrap();
        assert!(three.usage.prompt_tokens > zero.usage.prompt_tokens);
    }

    #[test]
    fn batched_lookups_match_one_record_at_a_time() {
        // Pool members (leave-one-out) and strangers, duplicates in the
        // input, gate and few-shot `k` equal and different, answers from a
        // noisy model: one batched neighbour lookup per `k` must give the
        // values, gate decisions (calls) and prompts (usage) that imputing
        // each record on its own gives.
        let (w, ids, gold) = impute_world(10, 8);
        let pool_ids: Vec<ItemId> = ids.iter().copied().step_by(3).collect();
        let mut records = ids.clone();
        records.extend_from_slice(&ids[..5]);
        for strategy in [
            ImputeStrategy::KnnOnly { k: 3 },
            ImputeStrategy::LlmOnly { shots: 2 },
            ImputeStrategy::Hybrid { k: 3, shots: 3 },
            ImputeStrategy::Hybrid { k: 3, shots: 1 },
        ] {
            let run = |batches: Vec<&[ItemId]>| {
                let engine = engine_over(w.clone(), &ids, NoiseProfile::default());
                let pool = LabeledPool::build(&engine, &labeled(&pool_ids, &gold)).unwrap();
                let mut total = Outcome::free(Vec::new());
                for batch in batches {
                    let out = impute_packed(&engine, batch, "city", &pool, &strategy, 1).unwrap();
                    total.value.extend(out.value);
                    total.calls += out.calls;
                    total.usage += out.usage;
                }
                total
            };
            let batched = run(vec![&records]);
            let single = run(records.chunks(1).collect());
            assert_eq!(batched.value, single.value, "{}", strategy.name());
            assert_eq!(batched.usage, single.usage, "{}", strategy.name());
            assert_eq!(batched.value.len(), records.len());
            assert_eq!(batched.calls, single.calls, "{}", strategy.name());
            if let ImputeStrategy::Hybrid { .. } = strategy {
                assert!(
                    0 < batched.calls && batched.calls < records.len() as u64,
                    "the gate must stop some records and pass others: {}",
                    batched.calls
                );
            }
        }
    }

    #[test]
    fn empty_pool_degrades_gracefully() {
        let (w, ids, _) = impute_world(3, 0);
        let engine = engine_over(w, &ids, NoiseProfile::perfect());
        let pool = LabeledPool::build(&engine, &[]).unwrap();
        assert!(pool.is_empty());
        let out = impute(
            &engine,
            &ids,
            "city",
            &pool,
            &ImputeStrategy::KnnOnly { k: 3 },
        )
        .unwrap();
        assert!(out.value.iter().all(String::is_empty));
    }
}
