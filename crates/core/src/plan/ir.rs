//! The logical plan IR: what the user *wants*, with every *how* optional.
//!
//! A [`Query`] is a linear chain of [`LogicalOp`]s over an item set. Each
//! operator's strategy is optional: `None` delegates the choice to the
//! planner (which may rewrite, reorder, push blocking in, or run
//! validation trials), while an explicit strategy *pins* the node — the
//! planner lowers it verbatim. This is the paper's declarative split:
//! state the operation and the budget, let the system pick the plan.

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
use super::{Plan, PlanOptions};

/// How a cluster node probes group representatives in its assignment stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterProbe {
    /// Planner's choice: blocked probing when the blocking-push-in rewrite
    /// is enabled, exhaustive otherwise.
    Auto,
    /// Every representative stays a fallback (full recall).
    Exhaustive,
    /// Probe only the `n` nearest representatives per item.
    Cap(usize),
}

/// A labelled validation sample for optimizer-style sort-strategy trials:
/// the planner runs every candidate strategy on `sample`, scores each
/// against `gold`, and picks the most accurate one whose extrapolated cost
/// fits the node's budget allocation (paper §4).
#[derive(Debug, Clone)]
pub struct SortCalibration {
    /// The validation items (a small subset of the real workload).
    pub sample: Vec<ItemId>,
    /// The gold ordering of `sample`.
    pub gold: Vec<ItemId>,
}

/// One logical operator. Strategies are `Option`s: `None` means "planner's
/// choice", `Some` pins the node against rewrites.
#[derive(Debug, Clone)]
// lint: allow(pub-has-caller) — exposed by `Query::ops`
pub enum LogicalOp {
    /// Keep items satisfying a predicate.
    Filter {
        /// Named predicate.
        predicate: String,
        /// Pinned strategy, or `None` for planner's choice.
        strategy: Option<FilterStrategy>,
        /// Expected fraction of items kept (planner hint; default 0.5).
        selectivity: Option<f64>,
    },
    /// Order the items under a criterion.
    Sort {
        /// Ordering criterion.
        criterion: SortCriterion,
        /// Pinned strategy, or `None` for planner's choice.
        strategy: Option<SortStrategy>,
    },
    /// Keep the first `k` items.
    Take {
        /// Items to keep.
        k: usize,
    },
    /// The best `k` items under a criterion (already fused).
    TopK {
        /// Ranking criterion.
        criterion: SortCriterion,
        /// Items to return.
        k: usize,
        /// Rating shortlist multiplier for the coarse stage.
        shortlist_factor: usize,
    },
    /// Assign each item one label from a fixed set (terminal: labels out).
    Categorize {
        /// Candidate labels.
        labels: Vec<String>,
    },
    /// Categorize, then keep only the items labelled `keep`.
    KeepLabel {
        /// Candidate labels.
        labels: Vec<String>,
        /// The surviving label.
        keep: String,
    },
    /// Count items satisfying a predicate (terminal).
    Count {
        /// Named predicate.
        predicate: String,
        /// Pinned strategy, or `None` for planner's choice.
        strategy: Option<CountStrategy>,
    },
    /// The maximum item under a criterion (terminal).
    Max {
        /// Ranking criterion.
        criterion: SortCriterion,
        /// Pinned strategy, or `None` for planner's choice.
        strategy: Option<MaxStrategy>,
    },
    /// Deduplicate into entity clusters via embedding blocking plus LLM
    /// confirmation (terminal).
    Resolve {
        /// Nearest-neighbor candidates per record.
        candidates: usize,
        /// Blocking distance ceiling.
        max_distance: f32,
    },
    /// Answer "same entity?" for given record pairs (terminal).
    ResolvePairs {
        /// The questions, one verdict each.
        pairs: Vec<(ItemId, ItemId)>,
        /// The strategy (always pinned).
        strategy: ResolveStrategy,
    },
    /// Two-stage clustering into duplicate groups (terminal).
    Cluster {
        /// Seed batch size for the coarse grouping stage.
        seed_size: usize,
        /// Representative probing mode for the assignment stage.
        probe: ClusterProbe,
    },
    /// Fuzzy-join against another collection (terminal).
    Join {
        /// The right-hand collection.
        right: Vec<ItemId>,
        /// Pinned strategy, or `None` for planner's choice.
        strategy: Option<JoinStrategy>,
    },
    /// Impute a missing attribute from a labelled pool (terminal).
    Impute {
        /// Attribute to fill in.
        attribute: String,
        /// Labelled reference records.
        labeled: Vec<(ItemId, String)>,
        /// Pinned strategy, or `None` for planner's choice.
        strategy: Option<ImputeStrategy>,
    },
}

impl LogicalOp {
    /// Whether the op consumes an item set and produces an item set (and
    /// may therefore be followed by further ops).
    pub(crate) fn produces_items(&self) -> bool {
        matches!(
            self,
            LogicalOp::Filter { .. }
                | LogicalOp::Sort { .. }
                | LogicalOp::Take { .. }
                | LogicalOp::TopK { .. }
                | LogicalOp::KeepLabel { .. }
        )
    }
}

/// A declarative query: a source item set plus a chain of logical
/// operators, built fluently and handed to the planner.
///
/// ```
/// use crowdprompt_core::plan::Query;
/// use crowdprompt_oracle::task::SortCriterion;
/// # use crowdprompt_oracle::world::ItemId;
/// # let items = vec![ItemId(0), ItemId(1)];
/// let query = Query::over(&items)
///     .filter("in_policy")
///     .sort(SortCriterion::LatentScore)
///     .take(5);
/// assert_eq!(query.ops().len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Query {
    source: Vec<ItemId>,
    ops: Vec<LogicalOp>,
    calibration: Option<SortCalibration>,
}

impl Query {
    /// A query over an explicit item set.
    pub fn over(items: &[ItemId]) -> Self {
        Query {
            source: items.to_vec(),
            ops: Vec::new(),
            calibration: None,
        }
    }

    /// The logical operator chain.
    pub fn ops(&self) -> &[LogicalOp] {
        &self.ops
    }

    /// Decompose into `(source, ops, calibration)` — the planner consumes
    /// the query by value so the source vector moves into the plan
    /// instead of being copied.
    pub(crate) fn into_parts(self) -> (Vec<ItemId>, Vec<LogicalOp>, Option<SortCalibration>) {
        (self.source, self.ops, self.calibration)
    }

    /// Keep items satisfying `predicate`; the planner picks the strategy.
    #[must_use]
    pub fn filter(mut self, predicate: impl Into<String>) -> Self {
        self.ops.push(LogicalOp::Filter {
            predicate: predicate.into(),
            strategy: None,
            selectivity: None,
        });
        self
    }

    /// Keep items satisfying `predicate` with a pinned strategy.
    #[must_use]
    pub fn filter_with(mut self, predicate: impl Into<String>, strategy: FilterStrategy) -> Self {
        self.ops.push(LogicalOp::Filter {
            predicate: predicate.into(),
            strategy: Some(strategy),
            selectivity: None,
        });
        self
    }

    /// Attach a selectivity hint (expected kept fraction, in `[0, 1]`) to
    /// the most recent filter node. No-op if the last node is not a filter;
    /// a NaN hint fails at plan time.
    #[must_use]
    pub fn hint_selectivity(mut self, kept_fraction: f64) -> Self {
        if let Some(LogicalOp::Filter { selectivity, .. }) = self.ops.last_mut() {
            *selectivity = Some(kept_fraction.clamp(0.0, 1.0));
        }
        self
    }

    /// Sort under `criterion`; the planner picks the strategy (and may fuse
    /// a following [`Query::take`] into a top-k node).
    #[must_use]
    pub fn sort(mut self, criterion: SortCriterion) -> Self {
        self.ops.push(LogicalOp::Sort {
            criterion,
            strategy: None,
        });
        self
    }

    /// Sort under `criterion` with a pinned strategy (never fused).
    #[must_use]
    pub fn sort_with(mut self, criterion: SortCriterion, strategy: SortStrategy) -> Self {
        self.ops.push(LogicalOp::Sort {
            criterion,
            strategy: Some(strategy),
        });
        self
    }

    /// Keep the first `k` items.
    #[must_use]
    pub fn take(mut self, k: usize) -> Self {
        self.ops.push(LogicalOp::Take { k });
        self
    }

    /// The best `k` items under `criterion`: a rating pass shortlists
    /// `k × shortlist_factor` items, then exact pairwise ranking orders the
    /// shortlist (an unpinned `sort` + `take(k)` fuses into this node with
    /// a factor of 2).
    #[must_use]
    pub fn top_k_with(
        mut self,
        criterion: SortCriterion,
        k: usize,
        shortlist_factor: usize,
    ) -> Self {
        self.ops.push(LogicalOp::TopK {
            criterion,
            k,
            shortlist_factor,
        });
        self
    }

    /// Assign each item one of `labels` (terminal: produces labels).
    #[must_use]
    pub fn categorize(mut self, labels: Vec<String>) -> Self {
        self.ops.push(LogicalOp::Categorize { labels });
        self
    }

    /// Categorize and keep only items labelled `keep`.
    #[must_use]
    pub fn keep_label(mut self, labels: Vec<String>, keep: impl Into<String>) -> Self {
        self.ops.push(LogicalOp::KeepLabel {
            labels,
            keep: keep.into(),
        });
        self
    }

    /// Count items satisfying `predicate` (terminal); planner's strategy.
    #[must_use]
    pub fn count(mut self, predicate: impl Into<String>) -> Self {
        self.ops.push(LogicalOp::Count {
            predicate: predicate.into(),
            strategy: None,
        });
        self
    }

    /// Count with a pinned strategy (terminal).
    #[must_use]
    pub fn count_with(mut self, predicate: impl Into<String>, strategy: CountStrategy) -> Self {
        self.ops.push(LogicalOp::Count {
            predicate: predicate.into(),
            strategy: Some(strategy),
        });
        self
    }

    /// The maximum item under `criterion` (terminal); planner's strategy.
    #[must_use]
    pub fn max(mut self, criterion: SortCriterion) -> Self {
        self.ops.push(LogicalOp::Max {
            criterion,
            strategy: None,
        });
        self
    }

    /// The maximum item with a pinned strategy (terminal).
    #[must_use]
    pub fn max_with(mut self, criterion: SortCriterion, strategy: MaxStrategy) -> Self {
        self.ops.push(LogicalOp::Max {
            criterion,
            strategy: Some(strategy),
        });
        self
    }

    /// Deduplicate into entity clusters: embedding blocking (`candidates`
    /// neighbors within `max_distance`), LLM confirmation, transitive
    /// closure (terminal).
    #[must_use]
    pub fn resolve(mut self, candidates: usize, max_distance: f32) -> Self {
        self.ops.push(LogicalOp::Resolve {
            candidates,
            max_distance,
        });
        self
    }

    /// Answer "are these two records the same entity?" for each of `pairs`
    /// (terminal: one verdict per pair, in order). A
    /// [`ResolveStrategy::TransitivityAugmented`] node expands each pair
    /// with neighbors from a blocking index over the query's items.
    #[must_use]
    pub fn resolve_pairs(
        mut self,
        pairs: Vec<(ItemId, ItemId)>,
        strategy: ResolveStrategy,
    ) -> Self {
        self.ops.push(LogicalOp::ResolvePairs { pairs, strategy });
        self
    }

    /// Cluster into duplicate groups (terminal); the planner decides
    /// whether the assignment stage probes blocked or exhaustively.
    #[must_use]
    pub fn cluster(mut self, seed_size: usize) -> Self {
        self.ops.push(LogicalOp::Cluster {
            seed_size,
            probe: ClusterProbe::Auto,
        });
        self
    }

    /// Cluster with exhaustive representative probing (terminal).
    #[must_use]
    pub fn cluster_exhaustive(mut self, seed_size: usize) -> Self {
        self.ops.push(LogicalOp::Cluster {
            seed_size,
            probe: ClusterProbe::Exhaustive,
        });
        self
    }

    /// Cluster probing only the `candidates` nearest representatives
    /// (terminal).
    #[must_use]
    pub fn cluster_blocked(mut self, seed_size: usize, candidates: usize) -> Self {
        self.ops.push(LogicalOp::Cluster {
            seed_size,
            probe: ClusterProbe::Cap(candidates.max(1)),
        });
        self
    }

    /// Fuzzy-join against `right` (terminal); planner's strategy (blocked).
    #[must_use]
    pub fn join(mut self, right: &[ItemId]) -> Self {
        self.ops.push(LogicalOp::Join {
            right: right.to_vec(),
            strategy: None,
        });
        self
    }

    /// Fuzzy-join with a pinned strategy (terminal).
    #[must_use]
    pub fn join_with(mut self, right: &[ItemId], strategy: JoinStrategy) -> Self {
        self.ops.push(LogicalOp::Join {
            right: right.to_vec(),
            strategy: Some(strategy),
        });
        self
    }

    /// Impute `attribute` from a labelled pool (terminal); planner's
    /// strategy.
    #[must_use]
    pub fn impute(mut self, attribute: impl Into<String>, labeled: Vec<(ItemId, String)>) -> Self {
        self.ops.push(LogicalOp::Impute {
            attribute: attribute.into(),
            labeled,
            strategy: None,
        });
        self
    }

    /// Impute with a pinned strategy (terminal).
    #[must_use]
    pub fn impute_with(
        mut self,
        attribute: impl Into<String>,
        labeled: Vec<(ItemId, String)>,
        strategy: ImputeStrategy,
    ) -> Self {
        self.ops.push(LogicalOp::Impute {
            attribute: attribute.into(),
            labeled,
            strategy: Some(strategy),
        });
        self
    }

    /// Attach a labelled validation sample: the planner resolves unpinned
    /// sort nodes by running every candidate strategy on the sample and
    /// recommending under the node's budget allocation (paper §4). The
    /// trials spend real budget at plan time.
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
