//! The planner's cost model: bill → price → fold.
//!
//! What a node asks of the model is stated once, by its strategy, beside
//! the code that asks it: `PhysicalNode::bill` forwards to the strategy's
//! `bill(rows, …)` in [`crate::ops`] and returns lines of "so many calls of
//! such a prompt shape" (`ops::bill::Ask`). This module knows no strategy. It
//! *prices* a shape by rendering a representative of it over actual corpus
//! items through [`Engine::estimate_task`] — the same render + token-count
//! path budget admission uses, so estimates track real prompt sizes instead
//! of a hard-coded constant — and *folds* the lines: a node's calls are the
//! sum of its lines' calls and its dollars the sum of calls × price, so the
//! two cannot describe different work. Row counts propagate through
//! selectivity hints (filters default to keeping half).
//!
//! Estimation never dispatches a model call and never touches the budget;
//! render failures (e.g. an unknown item) degrade to a zero estimate and
//! are surfaced at execution time instead.

use std::cell::RefCell;

use crowdprompt_oracle::task::{CountMode, TaskDescriptor};
use crowdprompt_oracle::world::ItemId;

use crate::exec::Engine;
use crate::ops::bill::Ask;

use super::{NodeEstimate, PhysicalNode};

/// How many representative items are rendered (and averaged) per per-item
/// prompt shape.
const SAMPLE_ITEMS: usize = 4;

/// Costs physical nodes against an engine's corpus and pricing.
pub(crate) struct Estimator<'a> {
    engine: &'a Engine,
    source: &'a [ItemId],
    samples: Vec<ItemId>,
    /// Memoized price per prompt shape (and pack width): the same shape is
    /// probed by the filter-reorder keys, the packing notes and again by
    /// the estimate pass, and each probe renders sample prompts. A plan
    /// asks a handful of shapes, so a scan beats hashing them.
    prices: RefCell<Vec<(Ask, Option<usize>, f64)>>,
}

impl<'a> Estimator<'a> {
    pub(crate) fn new(engine: &'a Engine, source: &'a [ItemId]) -> Self {
        let stride = (source.len() / SAMPLE_ITEMS).max(1);
        let samples: Vec<ItemId> = source
            .iter()
            .step_by(stride)
            .take(SAMPLE_ITEMS)
            .copied()
            .collect();
        Estimator {
            engine,
            source,
            samples,
            prices: RefCell::new(Vec::new()),
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
    /// sampled hits discount the per-item averages they stand in for. The
    /// store is asked by the task's key before its prompt is rendered, so
    /// a stored task is never rendered.
    fn cost_of(&self, task: TaskDescriptor) -> f64 {
        let Ok(mut request) = self.engine.keyed(Engine::unsampled(task)) else {
            return 0.0;
        };
        let store = self.engine.client().store();
        // lint: allow(one-fingerprint) — a plan-time estimate, no request in flight
        if store.is_some_and(|store| store.contains(request.fingerprint())) {
            return 0.0;
        }
        self.engine
            .render_and_estimate(&mut request)
            .map_or(0.0, |(_, usd)| usd)
    }

    /// A representative item pair (falls back to a self-pair on singleton
    /// sources — rendering still succeeds and prices the prompt shape).
    fn sample_pair(&self) -> Option<(ItemId, ItemId)> {
        let a = *self.samples.first()?;
        let b = self.samples.get(1).copied().unwrap_or(a);
        Some((a, b))
    }

    /// The first `len` source items (fewer when the source is shorter), if
    /// that is at least `at_least` — the items of a representative list
    /// prompt.
    fn head(&self, len: usize, at_least: usize) -> Option<Vec<ItemId>> {
        let take = len.min(self.source.len());
        (take >= at_least).then(|| self.source[..take].to_vec())
    }

    /// The task asking a point-wise shape of one item; `None` for the pair
    /// and list shapes, which no single item stands for.
    fn point_task(ask: &Ask, item: ItemId) -> Option<TaskDescriptor> {
        Some(match ask {
            Ask::Rate {
                criterion,
                scale_max,
            } => TaskDescriptor::Rate {
                item,
                scale_min: 1,
                scale_max: *scale_max,
                criterion: *criterion,
            },
            Ask::Check { predicate } => TaskDescriptor::CheckPredicate {
                item,
                predicate: predicate.clone(),
            },
            Ask::Classify { labels } => TaskDescriptor::Classify {
                item,
                labels: labels.clone(),
            },
            Ask::Impute {
                attribute,
                examples,
            } => TaskDescriptor::Impute {
                item,
                attribute: attribute.clone(),
                examples: examples.clone(),
            },
            _ => return None,
        })
    }

    /// A representative packed prompt at width `b`: the point-wise ask over
    /// the first `b` source items. Rendering it prices the *shared-prefix*
    /// economics for real — the instruction is counted once and each extra
    /// item adds only its text.
    fn representative_pack(&self, ask: &Ask, b: usize) -> Option<TaskDescriptor> {
        let items = self.head(b, 1)?.into_iter();
        let tasks: Option<Vec<_>> = items.map(|item| Self::point_task(ask, item)).collect();
        Some(TaskDescriptor::Packed { tasks: tasks? })
    }

    /// A representative unpacked prompt of a pair or list shape: the first
    /// two sample items, or the head of the source.
    fn representative(&self, ask: &Ask) -> Option<TaskDescriptor> {
        let pair = self.sample_pair();
        match ask {
            Ask::Compare { criterion } => pair.map(|(left, right)| TaskDescriptor::Compare {
                left,
                right,
                criterion: *criterion,
            }),
            Ask::CompareBatch { criterion, pairs } => pair.map(|p| TaskDescriptor::CompareBatch {
                pairs: vec![p; *pairs],
                criterion: *criterion,
            }),
            Ask::SameEntity => pair.map(|(left, right)| TaskDescriptor::SameEntity { left, right }),
            Ask::SortList { criterion, len } => {
                self.head((*len).max(2), 2)
                    .map(|items| TaskDescriptor::SortList {
                        items,
                        criterion: *criterion,
                    })
            }
            Ask::EyeballCount { predicate, len } => {
                self.head(*len, 1)
                    .map(|items| TaskDescriptor::CountPredicate {
                        items,
                        predicate: predicate.clone(),
                        mode: CountMode::Eyeball,
                    })
            }
            Ask::Group { len } => self
                .head(*len, 2)
                .map(|items| TaskDescriptor::GroupEntities { items }),
            Ask::Rate { .. } | Ask::Check { .. } | Ask::Classify { .. } | Ask::Impute { .. } => {
                None
            }
        }
    }

    /// Estimated USD of one call of `ask` (packed `packed` items to the
    /// prompt, if any): a point-wise shape averages over the sample items,
    /// every other shape renders one representative. Memoized per shape.
    pub(crate) fn price(&self, ask: &Ask, packed: Option<usize>) -> f64 {
        let known = |(a, p, _): &&(Ask, Option<usize>, f64)| a == ask && *p == packed;
        if let Some(&(_, _, cost)) = self.prices.borrow().iter().find(known) {
            return cost;
        }
        let cost_of = |task: Option<TaskDescriptor>| task.map_or(0.0, |t| self.cost_of(t));
        let cost = match packed {
            Some(width) => cost_of(self.representative_pack(ask, width)),
            None => {
                let samples = self.samples.iter();
                let per_item: Vec<f64> = samples
                    .filter_map(|&id| Self::point_task(ask, id))
                    .map(|task| self.cost_of(task))
                    .collect();
                if per_item.is_empty() {
                    cost_of(self.representative(ask))
                } else {
                    per_item.iter().sum::<f64>() / per_item.len() as f64
                }
            }
        };
        self.prices.borrow_mut().push((ask.clone(), packed, cost));
        cost
    }

    /// Prompt tokens of the representative packed prompt `node` dispatches
    /// over `rows_in` rows at its pack width — the planner's
    /// context-window fitting probe.
    pub(crate) fn packed_prompt_tokens(&self, node: &PhysicalNode, rows_in: usize) -> Option<u32> {
        let bill = node.bill(rows_in);
        let mut packs = bill
            .iter()
            .filter_map(|line| self.representative_pack(&line.ask, line.packed?));
        let prompt = crate::template::render(
            &packs.next()?,
            self.engine.corpus(),
            self.engine.render_opts(),
        );
        Some(crowdprompt_oracle::tokenizer::count_tokens(&prompt.ok()?))
    }

    /// Estimate one physical node at an assumed input row count: the fold
    /// of its bill. Allocation is filled in later by the planner.
    pub(crate) fn node(&self, node: &PhysicalNode, rows_in: usize) -> NodeEstimate {
        let (mut calls, mut cost_usd) = (0u64, 0.0f64);
        for line in node.bill(rows_in) {
            if line.calls > 0 {
                calls += line.calls;
                cost_usd += line.calls as f64 * self.price(&line.ask, line.packed);
            }
        }
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
        PhysicalNode::ResolvePairs { pairs, .. } => pairs.len(),
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
    use crowdprompt_oracle::task::SortCriterion;
    use crowdprompt_oracle::world::{ItemId, WorldModel};
    use crowdprompt_oracle::LlmClient;

    use crate::corpus::Corpus;
    use crate::exec::Engine;
    use crate::ops::count::CountStrategy;
    use crate::ops::filter::FilterStrategy;
    use crate::ops::impute::ImputeStrategy;
    use crate::ops::join::JoinStrategy;
    use crate::ops::max::MaxStrategy;
    use crate::ops::resolve::ResolveStrategy;
    use crate::ops::sort::SortStrategy;
    use crate::plan::Query;

    const LABELS: [&str; 2] = ["spam", "report"];

    /// `n` source items (alternating spam / report, scored, in duplicate
    /// clusters of two) plus six labelled extras — the join's right side
    /// and the imputation pool.
    fn world(n: usize) -> (WorldModel, Vec<ItemId>, Vec<(ItemId, String)>) {
        let mut w = WorldModel::new();
        let mut add = |i: usize| {
            let id = w.add_item(if i.is_multiple_of(2) {
                format!("win a free prize now, claim your exclusive reward bonus {i}")
            } else {
                format!("quarterly maintenance report for facility section {i}")
            });
            w.set_flag(id, "spam", i.is_multiple_of(2));
            w.set_score(id, i as f64 / (n + 6) as f64);
            w.set_attr(id, "label", LABELS[i % 2].to_owned());
            w.set_cluster(id, (i / 2) as u64);
            id
        };
        let ids: Vec<ItemId> = (0..n).map(&mut add).collect();
        let extras = (n..n + 6).map(|i| (add(i), LABELS[i % 2].to_owned()));
        let extras = extras.collect();
        (w, ids, extras)
    }

    /// Where a strategy leaves the estimator nothing to guess — every pair,
    /// every item, a sequential filter that cannot run past its lead, a
    /// proxy gate whose zero threshold refers nothing — the calls on its
    /// bill are the calls a perfect model's ledger shows, per item and
    /// packed, from no rows to a few dozen.
    #[test]
    fn bills_without_a_guess_match_a_perfect_models_ledger() {
        let score = SortCriterion::LatentScore;
        let sequential = |max_votes| FilterStrategy::Sequential {
            lead: 3,
            max_votes,
            temperature_pct: 100,
        };
        let proxy = FilterStrategy::ProxyGated {
            train: 20,
            min_confidence_pct: 0,
        };
        type Build = Box<dyn Fn(Query, &[ItemId], &[(ItemId, String)]) -> Query>;
        let filter =
            |s: FilterStrategy| -> Build { Box::new(move |q, _, _| q.filter_with("spam", s)) };
        let sort =
            |s: SortStrategy| -> Build { Box::new(move |q, _, _| q.sort_with(score, s.clone())) };
        let max = |s: MaxStrategy| -> Build { Box::new(move |q, _, _| q.max_with(score, s)) };
        let count =
            |s: CountStrategy| -> Build { Box::new(move |q, _, _| q.count_with("spam", s)) };
        let labels = || LABELS.iter().map(|&l| l.to_owned()).collect::<Vec<_>>();
        // Each source item questioned against the next, the last against
        // the first (a lone item against itself).
        let ring = |ids: &[ItemId]| -> Vec<(ItemId, ItemId)> {
            let n = ids.len();
            (0..n).map(|i| (ids[i], ids[(i + 1) % n])).collect()
        };
        // (what, the one-node query, the bill is exact)
        let table: Vec<(&str, Build, bool)> = vec![
            ("filter/single", filter(FilterStrategy::Single), true),
            ("filter/sequential-at-lead", filter(sequential(3)), true),
            ("filter/proxy-refers-nothing", filter(proxy), true),
            // Headroom past the lead is priced; a perfect model leaves it
            // unspent.
            ("filter/sequential-headroom", filter(sequential(9)), false),
            ("sort/pairwise", sort(SortStrategy::Pairwise), true),
            (
                "sort/pairwise-batched",
                sort(SortStrategy::PairwiseBatched { batch_size: 5 }),
                true,
            ),
            (
                "sort/rating",
                sort(SortStrategy::Rating {
                    scale_min: 1,
                    scale_max: 7,
                }),
                true,
            ),
            ("max/tournament", max(MaxStrategy::Tournament), true),
            (
                "max/rate-then-playoff",
                max(MaxStrategy::RateThenPlayoff {
                    buckets: 7,
                    playoff_size: 4,
                }),
                true,
            ),
            ("count/per-item", count(CountStrategy::PerItem), true),
            (
                "count/eyeball",
                count(CountStrategy::Eyeball { batch_size: 10 }),
                true,
            ),
            (
                "impute/llm-only",
                Box::new(|q, _, pool| {
                    q.impute_with("label", pool.to_vec(), ImputeStrategy::LlmOnly { shots: 3 })
                }),
                true,
            ),
            (
                "join/all-pairs",
                Box::new(|q, _, pool| {
                    let right: Vec<ItemId> = pool.iter().map(|(id, _)| *id).collect();
                    q.join_with(&right, JoinStrategy::AllPairs)
                }),
                true,
            ),
            (
                "top-k/shortlist",
                Box::new(move |q, _, _| q.top_k_with(score, 3, 2)),
                true,
            ),
            // An overflowing factor saturates: everything is shortlisted.
            (
                "top-k/everything-shortlisted",
                Box::new(move |q, _, _| q.top_k_with(score, 2, usize::MAX)),
                true,
            ),
            (
                "categorize",
                Box::new(move |q, _, _| q.categorize(labels())),
                true,
            ),
            (
                "resolve-pairs/pairwise",
                Box::new(move |q, ids, _| q.resolve_pairs(ring(ids), ResolveStrategy::Pairwise)),
                true,
            ),
            // Neighborhoods overlap and a record's neighbors may already be
            // in its set: the bill bounds the comparisons from above.
            (
                "resolve-pairs/transitivity",
                Box::new(move |q, ids, _| {
                    q.resolve_pairs(ring(ids), ResolveStrategy::TransitivityAugmented { k: 1 })
                }),
                false,
            ),
        ];
        for (what, build, exact) in &table {
            for pack in [1usize, 8] {
                for n in [0usize, 1, 2, 7, 33] {
                    let (w, ids, pool) = world(n);
                    let all: Vec<ItemId> = ids
                        .iter()
                        .chain(pool.iter().map(|(id, _)| id))
                        .copied()
                        .collect();
                    let corpus = Corpus::from_world(&w, &all);
                    let profile = ModelProfile::gpt35_like().with_noise(NoiseProfile::perfect());
                    let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(w), 5));
                    let engine =
                        Engine::new(Arc::new(LlmClient::new(llm)), corpus).with_pack_width(pack);
                    let plan = build(Query::over(&ids), &ids, &pool)
                        .plan_on(&engine)
                        .unwrap();
                    let at = format!("{what} pack {pack} n {n}");
                    let node = &plan.nodes()[0].node;
                    let billed: u64 = node.bill(n).iter().map(|line| line.calls).sum();
                    assert_eq!(plan.estimated_calls(), billed, "{at}");
                    // Only a max over no items has nothing to return.
                    let run = plan.execute_on(&engine);
                    assert!(run.is_ok() || n == 0, "{at}: {:?}", run.err());
                    let observed = engine.client().ledger().calls();
                    assert!(billed >= observed, "{at}: {billed} < {observed}");
                    // Headroom goes unspent once there are rows to spend it on.
                    assert_eq!(
                        billed == observed,
                        *exact || n == 0,
                        "{at}: {billed} vs {observed}"
                    );
                }
            }
        }
    }
}
