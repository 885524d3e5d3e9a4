//! The planner's cost model.
//!
//! Call counts come from strategy metadata ([`SortStrategy::estimated_calls`]
//! and friends); per-call dollar costs come from *rendering* representative
//! tasks over actual corpus items through [`Engine::estimate_task`] — the
//! same render + token-count path budget admission uses — so estimates
//! track real prompt sizes instead of a hard-coded constant. Row counts
//! propagate through selectivity hints (filters default to keeping half).
//!
//! Estimation never dispatches a model call and never touches the budget;
//! render failures (e.g. an unknown item) degrade to a zero estimate and
//! are surfaced at execution time instead.

use std::cell::RefCell;
use std::collections::HashMap;

use crowdprompt_oracle::task::{CountMode, SortCriterion, TaskDescriptor};
use crowdprompt_oracle::world::ItemId;

use crate::exec::Engine;
use crate::ops::count::CountStrategy;
use crate::ops::filter::FilterStrategy;
use crate::ops::max::MaxStrategy;
use crate::ops::sort::SortStrategy;
use crate::ops::topk;
use crate::ops::ImputeStrategy;

use super::{NodeEstimate, PhysicalNode};

/// How many representative items are rendered (and averaged) per per-item
/// task shape.
const SAMPLE_ITEMS: usize = 4;

/// Costs physical nodes against an engine's corpus and pricing.
pub(crate) struct Estimator<'a> {
    engine: &'a Engine,
    source: Vec<ItemId>,
    samples: Vec<ItemId>,
    /// Memoized per-call cost of predicate checks: the same predicate is
    /// probed by the filter-reorder keys and again by the estimate pass,
    /// and each probe renders sample prompts.
    check_costs: RefCell<HashMap<String, f64>>,
}

impl<'a> Estimator<'a> {
    pub(crate) fn new(engine: &'a Engine, source: &[ItemId]) -> Self {
        let stride = (source.len() / SAMPLE_ITEMS).max(1);
        let samples: Vec<ItemId> = source
            .iter()
            .step_by(stride)
            .take(SAMPLE_ITEMS)
            .copied()
            .collect();
        Estimator {
            engine,
            source: source.to_vec(),
            samples,
            check_costs: RefCell::new(HashMap::new()),
        }
    }

    /// Estimated USD per token under the engine's model pricing, probed
    /// from one representative rendered task — the planner's conversion
    /// rate for fitting token-capped budgets with the USD machinery.
    pub(crate) fn usd_per_token(&self) -> f64 {
        let Some(&item) = self.samples.first() else {
            return 0.0;
        };
        match self.engine.estimate_task(TaskDescriptor::CheckPredicate {
            item,
            predicate: "relevant".to_owned(),
        }) {
            Ok((usd, tokens)) if tokens > 0 => usd / tokens as f64,
            _ => 0.0,
        }
    }

    /// Estimated USD for one task; render failures cost zero, and so do
    /// tasks the attached persistent response store would answer — a
    /// store hit dispatches no backend call and charges nothing, so
    /// sampled hits discount the per-item averages they stand in for.
    fn cost_of(&self, task: TaskDescriptor) -> f64 {
        if self.engine.task_served_by_store(task.clone()) {
            return 0.0;
        }
        self.engine.estimate_task(task).map_or(0.0, |(usd, _)| usd)
    }

    /// Average estimated USD of a per-item task over the sample items.
    fn per_item_cost(&self, make: impl Fn(ItemId) -> TaskDescriptor) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let total: f64 = self.samples.iter().map(|&id| self.cost_of(make(id))).sum();
        total / self.samples.len() as f64
    }

    /// A representative item pair (falls back to a self-pair on singleton
    /// sources — rendering still succeeds and prices the prompt shape).
    fn sample_pair(&self) -> Option<(ItemId, ItemId)> {
        let a = *self.samples.first()?;
        let b = self.samples.get(1).copied().unwrap_or(a);
        Some((a, b))
    }

    fn compare_cost(&self, criterion: SortCriterion) -> f64 {
        self.sample_pair().map_or(0.0, |(left, right)| {
            self.cost_of(TaskDescriptor::Compare {
                left,
                right,
                criterion,
            })
        })
    }

    /// Scale on blocking-driven candidate-verification call counts. Exact
    /// blocking sends every candidate slot to the oracle; approximate
    /// (IVF) blocking at recall `r` fills roughly `1 − r` of the slots
    /// with farther rows instead of true neighbors, and those land beyond
    /// the operators' distance cap and are pruned before any LLM call —
    /// so expected verification calls scale by `r` when the corpus shape
    /// predicts the approximate tier.
    fn blocking_call_factor(&self, indexed_len: usize) -> f64 {
        match self.engine.blocking_recall_target() {
            Some(target)
                if target < 1.0
                    && crate::blocking::BlockingIndex::predicted_index_kind(
                        indexed_len,
                        Some(target),
                    ) == "ivf_sq8" =>
            {
                f64::from(target)
            }
            _ => 1.0,
        }
    }

    fn same_entity_cost(&self) -> f64 {
        self.sample_pair().map_or(0.0, |(left, right)| {
            self.cost_of(TaskDescriptor::SameEntity { left, right })
        })
    }

    fn rate_cost(&self, criterion: SortCriterion, scale_max: u8) -> f64 {
        self.per_item_cost(|item| TaskDescriptor::Rate {
            item,
            scale_min: 1,
            scale_max,
            criterion,
        })
    }

    /// Estimated per-call cost of a filter/count predicate check
    /// (memoized per predicate).
    pub(crate) fn check_cost(&self, predicate: &str) -> f64 {
        if let Some(&cost) = self.check_costs.borrow().get(predicate) {
            return cost;
        }
        let cost = self.per_item_cost(|item| TaskDescriptor::CheckPredicate {
            item,
            predicate: predicate.to_owned(),
        });
        self.check_costs
            .borrow_mut()
            .insert(predicate.to_owned(), cost);
        cost
    }

    /// Estimated per-item cost of one filter pass under `strategy` —
    /// the planner's cheapest-first filter ordering key.
    pub(crate) fn filter_item_cost(&self, predicate: &str, strategy: &FilterStrategy) -> f64 {
        strategy.calls_per_item() * self.check_cost(predicate)
    }

    /// A representative packed prompt task for a packable node at width
    /// `b`: the node's point-wise task over the first `b` source items.
    /// Rendering it prices the *shared-prefix* economics for real — the
    /// instruction is counted once and each extra item adds only its text.
    fn representative_pack(&self, node: &PhysicalNode, b: usize) -> Option<TaskDescriptor> {
        let items = &self.source[..b.min(self.source.len())];
        if items.is_empty() {
            return None;
        }
        let tasks: Vec<TaskDescriptor> = match node {
            PhysicalNode::Filter { predicate, .. } | PhysicalNode::Count { predicate, .. } => items
                .iter()
                .map(|&item| TaskDescriptor::CheckPredicate {
                    item,
                    predicate: predicate.clone(),
                })
                .collect(),
            PhysicalNode::Categorize { labels, .. } | PhysicalNode::KeepLabel { labels, .. } => {
                items
                    .iter()
                    .map(|&item| TaskDescriptor::Classify {
                        item,
                        labels: labels.clone(),
                    })
                    .collect()
            }
            PhysicalNode::Impute {
                attribute,
                labeled,
                strategy,
                ..
            } => {
                let shots = match strategy {
                    ImputeStrategy::KnnOnly { .. } => return None,
                    ImputeStrategy::LlmOnly { shots } | ImputeStrategy::Hybrid { shots, .. } => {
                        *shots
                    }
                };
                let examples: Vec<(ItemId, String)> = labeled.iter().take(shots).cloned().collect();
                items
                    .iter()
                    .map(|&item| TaskDescriptor::Impute {
                        item,
                        attribute: attribute.clone(),
                        examples: examples.clone(),
                    })
                    .collect()
            }
            _ => return None,
        };
        Some(TaskDescriptor::Packed { tasks })
    }

    /// Prompt tokens of a representative packed prompt at width `b` — the
    /// planner's context-window fitting probe.
    pub(crate) fn packed_prompt_tokens(&self, node: &PhysicalNode, b: usize) -> Option<u32> {
        let task = self.representative_pack(node, b)?;
        let prompt =
            crate::template::render(&task, self.engine.corpus(), self.engine.render_opts()).ok()?;
        Some(crowdprompt_oracle::tokenizer::count_tokens(&prompt))
    }

    /// Estimated USD of one packed prompt at width `b` for a packable node.
    fn packed_pack_cost(&self, node: &PhysicalNode, b: usize) -> f64 {
        self.representative_pack(node, b)
            .map_or(0.0, |task| self.cost_of(task))
    }

    /// A sort-list prompt over the first `n` source items.
    fn sort_list_cost(&self, n: usize, criterion: SortCriterion) -> f64 {
        let take = n.clamp(2, self.source.len().max(2)).min(self.source.len());
        if take < 2 {
            return 0.0;
        }
        self.cost_of(TaskDescriptor::SortList {
            items: self.source[..take].to_vec(),
            criterion,
        })
    }

    fn sort_cost(&self, strategy: &SortStrategy, n: usize, criterion: SortCriterion) -> f64 {
        if n < 2 {
            return 0.0;
        }
        let all_pairs = (n * (n - 1) / 2) as f64;
        match strategy {
            SortStrategy::SinglePrompt | SortStrategy::SortThenInsert => {
                self.sort_list_cost(n, criterion)
            }
            SortStrategy::Pairwise => all_pairs * self.compare_cost(criterion),
            SortStrategy::PairwiseBatched { batch_size } => {
                let b = (*batch_size).max(1);
                let Some((left, right)) = self.sample_pair() else {
                    return 0.0;
                };
                let batch = self.cost_of(TaskDescriptor::CompareBatch {
                    pairs: vec![(left, right); b.min(n * (n - 1) / 2).max(1)],
                    criterion,
                });
                ((n * (n - 1) / 2).div_ceil(b)) as f64 * batch
            }
            SortStrategy::Rating { scale_max, .. } => {
                n as f64 * self.rate_cost(criterion, *scale_max)
            }
            SortStrategy::BucketThenCompare { buckets } => {
                let b = usize::from((*buckets).max(2));
                let per_bucket = n.div_ceil(b);
                let inner = (b * (per_bucket * per_bucket.saturating_sub(1)) / 2) as f64;
                n as f64 * self.rate_cost(criterion, (*buckets).max(2))
                    + inner * self.compare_cost(criterion)
            }
            SortStrategy::ChunkedMerge { chunk_size } => {
                let chunk = (*chunk_size).max(2);
                let runs = n.div_ceil(chunk);
                let levels = usize::BITS - runs.next_power_of_two().leading_zeros() - 1;
                runs as f64 * self.sort_list_cost(chunk, criterion)
                    + (n as f64) * f64::from(levels) * self.compare_cost(criterion)
            }
        }
    }

    fn count_cost(&self, strategy: &CountStrategy, predicate: &str, n: usize) -> f64 {
        match strategy {
            CountStrategy::PerItem => n as f64 * self.check_cost(predicate),
            CountStrategy::Eyeball { batch_size } => {
                let b = (*batch_size).max(1);
                let take = b.min(self.source.len());
                if take == 0 {
                    return 0.0;
                }
                let batch = self.cost_of(TaskDescriptor::CountPredicate {
                    items: self.source[..take].to_vec(),
                    predicate: predicate.to_owned(),
                    mode: CountMode::Eyeball,
                });
                n.div_ceil(b) as f64 * batch
            }
        }
    }

    fn impute_cost(
        &self,
        strategy: &ImputeStrategy,
        attribute: &str,
        labeled: &[(ItemId, String)],
        n: usize,
    ) -> f64 {
        let shots = match strategy {
            ImputeStrategy::KnnOnly { .. } => return 0.0,
            ImputeStrategy::LlmOnly { shots } | ImputeStrategy::Hybrid { shots, .. } => *shots,
        };
        let examples: Vec<(ItemId, String)> = labeled.iter().take(shots).cloned().collect();
        let per = self.per_item_cost(|item| TaskDescriptor::Impute {
            item,
            attribute: attribute.to_owned(),
            examples: examples.clone(),
        });
        strategy.estimated_calls(n) as f64 * per
    }

    /// Estimate one physical node at an assumed input row count.
    /// Allocation is filled in later by the planner.
    pub(crate) fn node(&self, node: &PhysicalNode, rows_in: usize) -> NodeEstimate {
        let n = rows_in;
        let (calls, cost_usd) = match node {
            PhysicalNode::Filter {
                predicate,
                strategy,
                pack,
                ..
            } => {
                let calls = strategy.packed_calls(n, *pack);
                let per_call = if *pack > 1 && strategy.packable() {
                    self.packed_pack_cost(node, (*pack).min(n.max(1)))
                } else {
                    self.check_cost(predicate)
                };
                (calls, calls as f64 * per_call)
            }
            PhysicalNode::Sort {
                criterion,
                strategy,
            } => (
                strategy.estimated_calls(n),
                self.sort_cost(strategy, n, *criterion),
            ),
            PhysicalNode::Take { .. } => (0, 0.0),
            PhysicalNode::TopK {
                criterion,
                k,
                shortlist_factor,
            } => {
                if *k == 0 || n == 0 {
                    (0, 0.0)
                } else if n <= *k {
                    let pairs = (n * n.saturating_sub(1) / 2) as u64;
                    (pairs, pairs as f64 * self.compare_cost(*criterion))
                } else {
                    let shortlist = topk::shortlist_len(*k, *shortlist_factor, n);
                    let pairs = (shortlist * (shortlist - 1) / 2) as u64;
                    let cost = n as f64 * self.rate_cost(*criterion, topk::SHORTLIST_SCALE_MAX)
                        + pairs as f64 * self.compare_cost(*criterion);
                    (n as u64 + pairs, cost)
                }
            }
            PhysicalNode::Categorize { labels, pack }
            | PhysicalNode::KeepLabel { labels, pack, .. } => {
                if *pack > 1 {
                    let calls = n.div_ceil((*pack).max(1)) as u64;
                    let per_pack = self.packed_pack_cost(node, (*pack).min(n.max(1)));
                    (calls, calls as f64 * per_pack)
                } else {
                    let per = self.per_item_cost(|item| TaskDescriptor::Classify {
                        item,
                        labels: labels.clone(),
                    });
                    (n as u64, n as f64 * per)
                }
            }
            PhysicalNode::Count {
                predicate,
                strategy,
                pack,
            } => {
                if *pack > 1 && strategy.packable() {
                    let calls = strategy.packed_calls(n, *pack);
                    let per_pack = self.packed_pack_cost(node, (*pack).min(n.max(1)));
                    (calls, calls as f64 * per_pack)
                } else {
                    (
                        strategy.estimated_calls(n),
                        self.count_cost(strategy, predicate, n),
                    )
                }
            }
            PhysicalNode::Max {
                criterion,
                strategy,
            } => {
                if n < 2 {
                    (0, 0.0) // degenerate max is answered without the model
                } else {
                    let calls = strategy.estimated_calls(n);
                    let cost = match strategy {
                        MaxStrategy::Tournament => calls as f64 * self.compare_cost(*criterion),
                        MaxStrategy::RateThenPlayoff {
                            buckets,
                            playoff_size,
                        } => {
                            let p = (*playoff_size).max(2).min(n);
                            n as f64 * self.rate_cost(*criterion, (*buckets).max(2))
                                + (p * (p - 1) / 2) as f64 * self.compare_cost(*criterion)
                        }
                    };
                    (calls, cost)
                }
            }
            PhysicalNode::Resolve { candidates, .. } => {
                // Symmetric neighborhoods roughly halve the candidate pairs.
                let pairs = (n * (*candidates).max(1)).div_ceil(2) as u64;
                let pairs = (pairs as f64 * self.blocking_call_factor(n)).round() as u64;
                (pairs, pairs as f64 * self.same_entity_cost())
            }
            PhysicalNode::Cluster {
                seed_size,
                probe_cap,
            } if n > 0 => {
                let seed = (*seed_size).clamp(1, n);
                let probes = probe_cap.unwrap_or_else(|| (seed / 2).max(1));
                let assign = (n.saturating_sub(seed) * probes) as u64;
                let assign = (assign as f64 * self.blocking_call_factor(n)).round() as u64;
                let take = seed.min(self.source.len());
                let seed_cost = if take >= 2 {
                    self.cost_of(TaskDescriptor::GroupEntities {
                        items: self.source[..take].to_vec(),
                    })
                } else {
                    0.0
                };
                (
                    1 + assign,
                    seed_cost + assign as f64 * self.same_entity_cost(),
                )
            }
            PhysicalNode::Cluster { .. } => (0, 0.0), // empty input clusters free
            PhysicalNode::Join { right, strategy } => {
                let calls = strategy.estimated_calls(n, right.len());
                // Only blocked joins route through the blocking index (an
                // all-pairs join never touches it).
                let calls = if matches!(strategy, crate::ops::join::JoinStrategy::Blocked { .. }) {
                    (calls as f64 * self.blocking_call_factor(right.len())).round() as u64
                } else {
                    calls
                };
                (calls, calls as f64 * self.same_entity_cost())
            }
            PhysicalNode::Impute {
                attribute,
                labeled,
                strategy,
                pack,
            } => {
                if *pack > 1 && strategy.packable() {
                    let calls = strategy.packed_calls(n, *pack);
                    let per_pack = self.packed_pack_cost(node, (*pack).min(n.max(1)));
                    (calls, calls as f64 * per_pack)
                } else {
                    (
                        strategy.estimated_calls(n),
                        self.impute_cost(strategy, attribute, labeled, n),
                    )
                }
            }
        };
        NodeEstimate {
            rows_in,
            rows_out: rows_out(node, rows_in),
            calls,
            cost_usd,
            alloc_usd: None,
        }
    }
}

/// Estimated rows leaving a node given `n` rows entering — pure
/// arithmetic over selectivities, no prompt rendering. The lowering pass
/// uses this to track row flow without paying for a full estimate twice.
pub(crate) fn rows_out(node: &PhysicalNode, n: usize) -> usize {
    match node {
        PhysicalNode::Filter { selectivity, .. } => (n as f64 * selectivity).round() as usize,
        PhysicalNode::Take { k } => (*k).min(n),
        PhysicalNode::TopK { k, .. } => {
            if *k == 0 || n == 0 {
                0
            } else if n <= *k {
                n
            } else {
                (*k).min(n)
            }
        }
        PhysicalNode::KeepLabel { labels, .. } => {
            (n as f64 / labels.len().max(1) as f64).round() as usize
        }
        PhysicalNode::Count { .. } | PhysicalNode::Max { .. } => 1,
        PhysicalNode::Sort { .. }
        | PhysicalNode::Categorize { .. }
        | PhysicalNode::Resolve { .. }
        | PhysicalNode::Cluster { .. }
        | PhysicalNode::Join { .. }
        | PhysicalNode::Impute { .. } => n,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crowdprompt_oracle::model::{ModelProfile, NoiseProfile};
    use crowdprompt_oracle::sim::SimulatedLlm;
    use crowdprompt_oracle::world::{ItemId, WorldModel};
    use crowdprompt_oracle::LlmClient;

    use crate::corpus::Corpus;
    use crate::exec::Engine;
    use crate::ops::filter::FilterStrategy;
    use crate::plan::Query;

    /// Where a strategy leaves the estimator nothing to guess — a
    /// sequential filter that cannot run past its lead, a proxy gate whose
    /// zero threshold refers nothing — the estimated calls are the calls a
    /// perfect model's ledger shows, per item and packed.
    #[test]
    fn filter_estimates_without_a_guess_match_a_perfect_models_ledger() {
        let sequential = |max_votes| FilterStrategy::Sequential {
            lead: 3,
            max_votes,
            temperature_pct: 100,
        };
        let proxy = FilterStrategy::ProxyGated {
            train: 20,
            min_confidence_pct: 0,
        };
        let n = 60usize;
        for pack in [1usize, 8] {
            // (strategy, ledger calls on a perfect model, estimate is exact)
            for (strategy, expected, exact) in [
                (sequential(3), 3 * n.div_ceil(pack), true),
                (proxy, 20usize.div_ceil(pack), true),
                // Headroom past the lead is priced; a perfect model leaves
                // it unspent.
                (sequential(9), 3 * n.div_ceil(pack), false),
            ] {
                let mut w = WorldModel::new();
                let ids: Vec<ItemId> = (0..n)
                    .map(|i| {
                        let id = w.add_item(if i % 2 == 0 {
                            format!("win a free prize now, claim your exclusive reward bonus {i}")
                        } else {
                            format!("quarterly maintenance report for facility section {i}")
                        });
                        w.set_flag(id, "spam", i % 2 == 0);
                        id
                    })
                    .collect();
                let corpus = Corpus::from_world(&w, &ids);
                let profile = ModelProfile::gpt35_like().with_noise(NoiseProfile::perfect());
                let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(w), 5));
                let engine =
                    Engine::new(Arc::new(LlmClient::new(llm)), corpus).with_pack_width(pack);
                let plan = Query::over(&ids)
                    .filter_with("spam", strategy)
                    .plan_on(&engine)
                    .unwrap();
                let name = strategy.name();
                assert!(plan.explain().contains(&name), "{}", plan.explain());
                let estimated = plan.estimated_calls();
                assert_eq!(estimated, strategy.packed_calls(n, pack));
                plan.execute_on(&engine).unwrap();
                let observed = engine.client().ledger().calls();
                assert_eq!(observed, expected as u64, "{name} pack {pack}");
                assert!(estimated >= observed, "{name} pack {pack}");
                assert_eq!(estimated == observed, exact, "{name} pack {pack}");
            }
        }
    }
}
