//! The query IR: a chain of physical nodes, each pinned by the caller or
//! left to the planner.
//!
//! A [`Query`] is a source item set plus a linear chain of steps. Each
//! step holds the [`PhysicalNode`] the planner starts from and whether it
//! is pinned. An unpinned method (`filter`, `sort`, `count`, `max`, `join`,
//! `cluster`, `impute`) writes its default strategy; a `_with` method writes
//! the caller's and pins the step, as does every method with no strategy
//! to choose. The planner may re-choose, fuse, downgrade or push blocking
//! into an unpinned step; a pinned step is lowered as written. This is the
//! paper's declarative split: state the operation and the budget, let the
//! system pick the plan.

use crowdprompt_oracle::task::SortCriterion;
use crowdprompt_oracle::world::ItemId;

use crate::error::EngineError;
use crate::exec::Engine;
use crate::ops::count::CountStrategy;
use crate::ops::filter::FilterStrategy;
use crate::ops::impute::ImputeStrategy;
use crate::ops::join::JoinStrategy;
use crate::ops::max::MaxStrategy;
use crate::ops::resolve::ResolveStrategy;
use crate::ops::sort::SortStrategy;

use super::planner;
use super::{PhysicalNode, Plan, PlanOptions};

/// A labelled validation sample for optimizer-style sort-strategy trials:
/// the planner runs every candidate strategy on `sample`, scores each
/// against `gold`, prices each at full scale by its bill, and picks the
/// most accurate one that fits the node's budget allocation — the
/// cheapest when none fits (paper §4).
#[derive(Debug, Clone)]
pub struct SortCalibration {
    /// The validation items (a small subset of the real workload).
    pub sample: Vec<ItemId>,
    /// The gold ordering of `sample`.
    pub gold: Vec<ItemId>,
}

/// One step of a query: a physical node plus whether the caller pinned it
/// (a pinned step is never fused, re-chosen or downgraded).
#[derive(Debug, Clone)]
pub(crate) struct Step {
    pub(crate) node: PhysicalNode,
    pub(crate) pinned: bool,
}

/// A declarative query: a source item set plus a chain of steps, built
/// fluently and handed to the planner.
///
/// ```
/// use std::sync::Arc;
/// use crowdprompt_core::{Corpus, Session};
/// use crowdprompt_oracle::task::SortCriterion;
/// use crowdprompt_oracle::world::WorldModel;
/// use crowdprompt_oracle::{LlmClient, ModelProfile, SimulatedLlm};
///
/// let mut world = WorldModel::new();
/// let items: Vec<_> = (0..8).map(|i| world.add_item(format!("item {i}"))).collect();
/// let corpus = Corpus::from_world(&world, &items);
/// let llm = SimulatedLlm::new(ModelProfile::perfect(), Arc::new(world), 1);
/// let session = Session::builder()
///     .client(Arc::new(LlmClient::new(Arc::new(llm))))
///     .corpus(corpus)
///     .build();
///
/// let query = session
///     .query(&items)
///     .filter("in_policy")
///     .sort(SortCriterion::LatentScore)
///     .take(5);
/// let plan = session.plan(query).unwrap();
/// // The unpinned sort and the take became one top-k node.
/// let names: Vec<_> = plan.nodes().iter().map(|n| n.node.name()).collect();
/// assert_eq!(names, ["filter[in_policy]", "top-k[5]"]);
/// ```
///
/// A `_with` method, and every method with no strategy to choose, pins
/// its step: the planner lowers it as written.
///
/// ```
/// # use std::sync::Arc;
/// # use crowdprompt_core::{Corpus, Session};
/// # use crowdprompt_oracle::world::WorldModel;
/// # use crowdprompt_oracle::{LlmClient, ModelProfile, SimulatedLlm};
/// # let mut world = WorldModel::new();
/// # let items: Vec<_> = (0..8)
/// #     .map(|i| {
/// #         let id = world.add_item(format!("item {i}"));
/// #         world.set_score(id, f64::from(i) / 8.0);
/// #         world.set_attr(id, "label", if i % 2 == 0 { "even" } else { "odd" });
/// #         id
/// #     })
/// #     .collect();
/// # let llm = SimulatedLlm::new(ModelProfile::perfect(), Arc::new(world.clone()), 1);
/// # let session = Session::builder()
/// #     .client(Arc::new(LlmClient::new(Arc::new(llm))))
/// #     .corpus(Corpus::from_world(&world, &items))
/// #     .build();
/// use crowdprompt_core::ops::join::JoinStrategy;
/// use crowdprompt_core::ops::max::MaxStrategy;
/// use crowdprompt_core::plan::NodeEstimate;
/// use crowdprompt_oracle::task::SortCriterion;
///
/// let top_k = session.query(&items).top_k_with(SortCriterion::LatentScore, 3, 2);
/// let plan = session.plan(top_k).unwrap();
/// let top = &plan.nodes()[0];
/// assert_eq!(top.node.name(), "top-k[3]");
/// assert_eq!(top.node.strategy_label(), "rate-shortlist-x2+pairwise");
/// let estimate: &NodeEstimate = &top.estimate;
/// assert_eq!((estimate.rows_in, estimate.rows_out), (8, 3));
/// assert_eq!(plan.execute(&session).unwrap().output.items().unwrap().len(), 3);
///
/// let labels = vec!["even".to_owned(), "odd".to_owned()];
/// let plan = session.plan(session.query(&items).categorize(labels)).unwrap();
/// let run = plan.execute(&session).unwrap();
/// let got = run.output.labels().unwrap();
/// assert_eq!(got.len(), 8);
/// assert!(got.iter().all(|l| l == "even" || l == "odd"));
///
/// let max = session
///     .query(&items)
///     .max_with(SortCriterion::LatentScore, MaxStrategy::Tournament);
/// let plan = session.plan(max).unwrap();
/// assert_eq!(plan.nodes()[0].node.strategy_label(), "tournament");
/// let run = plan.execute(&session).unwrap();
/// assert!(items.contains(&run.output.max_item().unwrap()));
///
/// let (left, right) = items.split_at(4);
/// for (query, label) in [
///     (session.query(&items).cluster_exhaustive(4), "exhaustive-probe"),
///     (session.query(&items).cluster_blocked(4, 3), "blocked-probe-3"),
///     (session.query(left).join_with(right, JoinStrategy::AllPairs), "all-pairs"),
/// ] {
///     assert_eq!(session.plan(query).unwrap().nodes()[0].node.strategy_label(), label);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Query {
    source: Vec<ItemId>,
    steps: Vec<Step>,
    calibration: Option<SortCalibration>,
}

impl Query {
    /// A query over an explicit item set.
    pub fn over(items: &[ItemId]) -> Self {
        Query {
            source: items.to_vec(),
            steps: Vec::new(),
            calibration: None,
        }
    }

    /// Decompose into `(source, steps, calibration)` — the planner consumes
    /// the query by value so the source vector moves into the plan
    /// instead of being copied.
    pub(crate) fn into_parts(self) -> (Vec<ItemId>, Vec<Step>, Option<SortCalibration>) {
        (self.source, self.steps, self.calibration)
    }

    fn push(mut self, node: PhysicalNode, pinned: bool) -> Self {
        self.steps.push(Step { node, pinned });
        self
    }

    /// Keep items satisfying `predicate` with the planner's strategy (today
    /// its default, one check per item).
    #[must_use]
    pub fn filter(self, predicate: impl Into<String>) -> Self {
        self.push(filter_node(predicate.into(), FilterStrategy::Single), false)
    }

    /// Keep items satisfying `predicate` with a pinned strategy.
    #[must_use]
    pub fn filter_with(self, predicate: impl Into<String>, strategy: FilterStrategy) -> Self {
        self.push(filter_node(predicate.into(), strategy), true)
    }

    /// Attach a selectivity hint (expected kept fraction, in `[0, 1]`) to
    /// the most recent filter node. No-op if the last node is not a filter;
    /// a NaN hint fails at plan time.
    #[must_use]
    pub fn hint_selectivity(mut self, kept_fraction: f64) -> Self {
        if let Some(Step {
            node: PhysicalNode::Filter { selectivity, .. },
            ..
        }) = self.steps.last_mut()
        {
            *selectivity = kept_fraction.clamp(0.0, 1.0);
        }
        self
    }

    /// Sort under `criterion`; the planner picks the strategy by the rows
    /// reaching the node (and may fuse a following [`Query::take`] into a
    /// top-k node).
    #[must_use]
    pub fn sort(self, criterion: SortCriterion) -> Self {
        let strategy = SortStrategy::SinglePrompt; // sized by the planner
        self.push(
            PhysicalNode::Sort {
                criterion,
                strategy,
            },
            false,
        )
    }

    /// Sort under `criterion` with a pinned strategy (never fused).
    #[must_use]
    pub fn sort_with(self, criterion: SortCriterion, strategy: SortStrategy) -> Self {
        self.push(
            PhysicalNode::Sort {
                criterion,
                strategy,
            },
            true,
        )
    }

    /// Keep the first `k` items.
    #[must_use]
    pub fn take(self, k: usize) -> Self {
        self.push(PhysicalNode::Take { k }, true)
    }

    /// The best `k` items under `criterion`: a rating pass shortlists
    /// `k × shortlist_factor` items, then exact pairwise ranking orders the
    /// shortlist (an unpinned `sort` + `take(k)` fuses into this node with
    /// a factor of 2).
    #[must_use]
    pub fn top_k_with(self, criterion: SortCriterion, k: usize, shortlist_factor: usize) -> Self {
        let node = PhysicalNode::TopK {
            criterion,
            k,
            shortlist_factor,
        };
        self.push(node, true)
    }

    /// Assign each item one of `labels` (terminal: produces labels).
    #[must_use]
    pub fn categorize(self, labels: Vec<String>) -> Self {
        self.push(PhysicalNode::Categorize { labels, pack: 1 }, true)
    }

    /// Categorize and keep only items labelled `keep`.
    #[must_use]
    pub fn keep_label(self, labels: Vec<String>, keep: impl Into<String>) -> Self {
        let keep = keep.into();
        self.push(
            PhysicalNode::KeepLabel {
                labels,
                keep,
                pack: 1,
            },
            true,
        )
    }

    /// Count items satisfying `predicate` (terminal); planner's strategy.
    #[must_use]
    pub fn count(self, predicate: impl Into<String>) -> Self {
        self.push(count_node(predicate.into(), CountStrategy::PerItem), false)
    }

    /// Count with a pinned strategy (terminal).
    #[must_use]
    pub fn count_with(self, predicate: impl Into<String>, strategy: CountStrategy) -> Self {
        self.push(count_node(predicate.into(), strategy), true)
    }

    /// The maximum item under `criterion` (terminal); planner's strategy.
    #[must_use]
    pub fn max(self, criterion: SortCriterion) -> Self {
        let strategy = MaxStrategy::RateThenPlayoff {
            buckets: 7,
            playoff_size: 4,
        };
        self.push(
            PhysicalNode::Max {
                criterion,
                strategy,
            },
            false,
        )
    }

    /// The maximum item with a pinned strategy (terminal).
    #[must_use]
    pub fn max_with(self, criterion: SortCriterion, strategy: MaxStrategy) -> Self {
        self.push(
            PhysicalNode::Max {
                criterion,
                strategy,
            },
            true,
        )
    }

    /// Deduplicate into entity clusters: embedding blocking (`candidates`
    /// neighbors within `max_distance`), LLM confirmation, transitive
    /// closure (terminal).
    #[must_use]
    pub fn resolve(self, candidates: usize, max_distance: f32) -> Self {
        let node = PhysicalNode::Resolve {
            candidates,
            max_distance,
        };
        self.push(node, true)
    }

    /// Answer "are these two records the same entity?" for each of `pairs`
    /// (terminal: one verdict per pair, in order). A
    /// [`ResolveStrategy::TransitivityAugmented`] node expands each pair
    /// with neighbors from a blocking index over the query's items.
    #[must_use]
    pub fn resolve_pairs(self, pairs: Vec<(ItemId, ItemId)>, strategy: ResolveStrategy) -> Self {
        self.push(PhysicalNode::ResolvePairs { pairs, strategy }, true)
    }

    /// Cluster into duplicate groups (terminal); the planner decides
    /// whether the assignment stage probes blocked or exhaustively.
    #[must_use]
    pub fn cluster(self, seed_size: usize) -> Self {
        let node = PhysicalNode::Cluster {
            seed_size,
            probe_cap: None,
        };
        self.push(node, false)
    }

    /// Cluster with exhaustive representative probing (terminal).
    #[must_use]
    pub fn cluster_exhaustive(self, seed_size: usize) -> Self {
        let node = PhysicalNode::Cluster {
            seed_size,
            probe_cap: None,
        };
        self.push(node, true)
    }

    /// Cluster probing only the `candidates` nearest representatives
    /// (terminal).
    #[must_use]
    pub fn cluster_blocked(self, seed_size: usize, candidates: usize) -> Self {
        let node = PhysicalNode::Cluster {
            seed_size,
            probe_cap: Some(candidates.max(1)),
        };
        self.push(node, true)
    }

    /// Fuzzy-join against `right` (terminal); planner's strategy (blocked).
    #[must_use]
    pub fn join(self, right: &[ItemId]) -> Self {
        let right = right.to_vec();
        self.push(
            PhysicalNode::Join {
                right,
                strategy: JoinStrategy::AllPairs,
            },
            false,
        )
    }

    /// Fuzzy-join with a pinned strategy (terminal).
    #[must_use]
    pub fn join_with(self, right: &[ItemId], strategy: JoinStrategy) -> Self {
        let right = right.to_vec();
        self.push(PhysicalNode::Join { right, strategy }, true)
    }

    /// Impute `attribute` from a labelled pool (terminal); planner's
    /// strategy.
    #[must_use]
    pub fn impute(self, attribute: impl Into<String>, labeled: Vec<(ItemId, String)>) -> Self {
        let strategy = ImputeStrategy::LlmOnly { shots: 3 };
        self.push(impute_node(attribute.into(), labeled, strategy), false)
    }

    /// Impute with a pinned strategy (terminal).
    #[must_use]
    pub fn impute_with(
        self,
        attribute: impl Into<String>,
        labeled: Vec<(ItemId, String)>,
        strategy: ImputeStrategy,
    ) -> Self {
        self.push(impute_node(attribute.into(), labeled, strategy), true)
    }

    /// Attach a labelled validation sample: the planner resolves unpinned
    /// sort nodes by running every candidate strategy on the sample and
    /// keeping the most accurate one whose bill fits the node's budget
    /// allocation (paper §4). The trials spend real budget at plan time.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use crowdprompt_core::{Budget, Corpus, Session};
    /// use crowdprompt_oracle::task::SortCriterion;
    /// use crowdprompt_oracle::world::WorldModel;
    /// use crowdprompt_oracle::{LlmClient, ModelProfile, SimulatedLlm};
    ///
    /// let mut world = WorldModel::new();
    /// let items: Vec<_> = (0..12)
    ///     .map(|i| {
    ///         let id = world.add_item(format!("flavor {i}"));
    ///         world.set_score(id, f64::from(i) / 12.0);
    ///         id
    ///     })
    ///     .collect();
    /// let corpus = Corpus::from_world(&world, &items);
    /// let llm = SimulatedLlm::new(ModelProfile::perfect(), Arc::new(world), 1);
    /// let session = Session::builder()
    ///     .client(Arc::new(LlmClient::new(Arc::new(llm))))
    ///     .corpus(corpus)
    ///     .budget(Budget::usd(1.0))
    ///     .build();
    ///
    /// // Four labelled items, best first: the planner tries each sort
    /// // strategy on them before it commits the budget to all twelve.
    /// let sample = &items[..4];
    /// let gold: Vec<_> = sample.iter().rev().copied().collect();
    /// let query = session
    ///     .query(&items)
    ///     .sort(SortCriterion::LatentScore)
    ///     .calibrate_sort(sample, &gold);
    /// let plan = session.plan(query).unwrap();
    /// assert!(plan.notes().iter().any(|n| n.contains("validation trial")));
    /// assert!(session.engine().budget().spent_tokens() > 0, "trials spend for real");
    /// ```
    #[must_use]
    pub fn calibrate_sort(mut self, sample: &[ItemId], gold: &[ItemId]) -> Self {
        self.calibration = Some(SortCalibration {
            sample: sample.to_vec(),
            gold: gold.to_vec(),
        });
        self
    }

    /// Lower to a physical [`Plan`] with the default rewrite set.
    pub fn plan_on(self, engine: &Engine) -> Result<Plan, EngineError> {
        self.plan_with(engine, PlanOptions::optimized())
    }

    /// Lower to a physical [`Plan`] with explicit planner options.
    pub fn plan_with(self, engine: &Engine, options: PlanOptions) -> Result<Plan, EngineError> {
        planner::plan(engine, self, options)
    }
}

fn filter_node(predicate: String, strategy: FilterStrategy) -> PhysicalNode {
    PhysicalNode::Filter {
        predicate,
        strategy,
        selectivity: FilterStrategy::DEFAULT_SELECTIVITY,
        pack: 1,
    }
}

fn count_node(predicate: String, strategy: CountStrategy) -> PhysicalNode {
    PhysicalNode::Count {
        predicate,
        strategy,
        pack: 1,
    }
}

fn impute_node(
    attribute: String,
    labeled: Vec<(ItemId, String)>,
    strategy: ImputeStrategy,
) -> PhysicalNode {
    PhysicalNode::Impute {
        attribute,
        labeled,
        strategy,
        pack: 1,
    }
}
