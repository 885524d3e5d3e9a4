//! The plan layer (PR 3): declarative query plans over the operator set.
//!
//! The paper's thesis is that users should state *what* they want and the
//! system should choose *how* — decomposition, proxies, quality control —
//! under a global budget. This module is that front door:
//!
//! * [`ir`] — the [`Query`] builder producing a chain of steps: each is a
//!   [`PhysicalNode`] (the one operator enum) plus whether the caller
//!   pinned it; an unpinned step holds the builder's default strategy.
//! * [`planner`] — rule-based rewrites of the unpinned steps: `sort+take(k)`
//!   fuses into top-k, commutative filters reorder cheapest-first,
//!   embedding blocking is pushed in front of pairwise LLM stages,
//!   unpinned sorts are sized by their rows (optionally chosen via
//!   optimizer-style validation trials), and expensive nodes are
//!   downgraded until the estimate fits the budget.
//! * `estimate` — per-node call/cost estimation: each node's strategy
//!   states its bill (so many calls of such a prompt shape) beside its run
//!   code, the estimator prices a shape by *rendering* a representative of
//!   it (so token estimates track the real corpus, not a constant) and
//!   folds the lines.
//! * [`execute`] — runs the physical nodes through the operator layer and
//!   the engine's pipelined dispatcher, attributing cost per node.
//!
//! [`Plan::explain`] renders the physical plan EXPLAIN-style — per-node
//! strategy, row estimates, call/cost estimates, budget allocation, and
//! the rewrites that fired — before a single LLM call is spent.

mod estimate;
pub mod execute;
pub mod ir;
pub mod planner;

pub use execute::{PlanOutput, PlanRun, StepReport};
pub use ir::{Query, SortCalibration};
pub use planner::PlanOptions;

use crowdprompt_oracle::task::SortCriterion;
use crowdprompt_oracle::world::ItemId;

use crate::budget::Budget;
use crate::error::EngineError;
use crate::exec::Engine;
use crate::ops;
use crate::ops::bill::Line;
use crate::ops::count::CountStrategy;
use crate::ops::filter::FilterStrategy;
use crate::ops::impute::ImputeStrategy;
use crate::ops::join::JoinStrategy;
use crate::ops::max::MaxStrategy;
use crate::ops::resolve::ResolveStrategy;
use crate::ops::sort::SortStrategy;

/// One operator of a query and of its plan: a query step holds the node the
/// planner starts from, a plan the node with every choice resolved.
#[derive(Debug, Clone)]
// lint: allow(pub-has-caller) — exposed by `PlannedNode::node`
pub enum PhysicalNode {
    /// Keep items satisfying the predicate.
    Filter {
        /// Named predicate.
        predicate: String,
        /// Resolved strategy.
        strategy: FilterStrategy,
        /// Selectivity estimate used for row/cost propagation.
        selectivity: f64,
        /// Prompt pack width (`1` = per-item dispatch).
        pack: usize,
    },
    /// Order the items.
    Sort {
        /// Ordering criterion.
        criterion: SortCriterion,
        /// Resolved strategy.
        strategy: SortStrategy,
    },
    /// Keep the first `k` items (free).
    Take {
        /// Items to keep.
        k: usize,
    },
    /// Fused sort+take: rating shortlist, exact ranking of the shortlist.
    TopK {
        /// Ranking criterion.
        criterion: SortCriterion,
        /// Items to return.
        k: usize,
        /// Shortlist multiplier for the coarse rating stage.
        shortlist_factor: usize,
    },
    /// Label every item (terminal).
    Categorize {
        /// Candidate labels.
        labels: Vec<String>,
        /// Prompt pack width (`1` = per-item dispatch).
        pack: usize,
    },
    /// Label every item, keep those labelled `keep`.
    KeepLabel {
        /// Candidate labels.
        labels: Vec<String>,
        /// Surviving label.
        keep: String,
        /// Prompt pack width (`1` = per-item dispatch).
        pack: usize,
    },
    /// Count items satisfying the predicate (terminal).
    Count {
        /// Named predicate.
        predicate: String,
        /// Resolved strategy.
        strategy: CountStrategy,
        /// Prompt pack width (`1` = per-item dispatch).
        pack: usize,
    },
    /// Find the maximum item (terminal).
    Max {
        /// Ranking criterion.
        criterion: SortCriterion,
        /// Resolved strategy.
        strategy: MaxStrategy,
    },
    /// Deduplicate into entity clusters via blocking + confirmation
    /// (terminal).
    Resolve {
        /// Neighbor candidates per record.
        candidates: usize,
        /// Blocking distance ceiling.
        max_distance: f32,
    },
    /// Same-entity verdicts for given pairs (terminal).
    ResolvePairs {
        /// The questions.
        pairs: Vec<(ItemId, ItemId)>,
        /// Resolved strategy.
        strategy: ResolveStrategy,
    },
    /// Two-stage clustering (terminal).
    Cluster {
        /// Seed batch size.
        seed_size: usize,
        /// Representative probe cap (`None` = exhaustive).
        probe_cap: Option<usize>,
    },
    /// Fuzzy join (terminal).
    Join {
        /// Right-hand collection.
        right: Vec<ItemId>,
        /// Resolved strategy.
        strategy: JoinStrategy,
    },
    /// Attribute imputation (terminal).
    Impute {
        /// Attribute to fill.
        attribute: String,
        /// Labelled reference records.
        labeled: Vec<(ItemId, String)>,
        /// Resolved strategy.
        strategy: ImputeStrategy,
        /// Prompt pack width (`1` = per-item dispatch).
        pack: usize,
    },
}

impl PhysicalNode {
    /// Whether the node consumes an item set and produces an item set (and
    /// may therefore be followed by further nodes).
    pub(crate) fn produces_items(&self) -> bool {
        matches!(
            self,
            PhysicalNode::Filter { .. }
                | PhysicalNode::Sort { .. }
                | PhysicalNode::Take { .. }
                | PhysicalNode::TopK { .. }
                | PhysicalNode::KeepLabel { .. }
        )
    }

    /// Step/report display name.
    pub fn name(&self) -> String {
        match self {
            PhysicalNode::Filter { predicate, .. } => format!("filter[{predicate}]"),
            PhysicalNode::Sort { .. } => "sort".to_owned(),
            PhysicalNode::Take { k } => format!("truncate[{k}]"),
            PhysicalNode::TopK { k, .. } => format!("top-k[{k}]"),
            PhysicalNode::Categorize { .. } => "categorize".to_owned(),
            PhysicalNode::KeepLabel { keep, .. } => format!("categorize-keep[{keep}]"),
            PhysicalNode::Count { predicate, .. } => format!("count[{predicate}]"),
            PhysicalNode::Max { .. } => "max".to_owned(),
            PhysicalNode::Resolve { .. } => "dedup".to_owned(),
            PhysicalNode::ResolvePairs { pairs, .. } => format!("resolve-pairs[{}]", pairs.len()),
            PhysicalNode::Cluster { .. } => "cluster".to_owned(),
            PhysicalNode::Join { .. } => "join".to_owned(),
            PhysicalNode::Impute { attribute, .. } => format!("impute[{attribute}]"),
        }
    }

    /// The resolved strategy, rendered for EXPLAIN (a `xpack-B` suffix
    /// marks nodes dispatching packed multi-item prompts).
    pub fn strategy_label(&self) -> String {
        let base = match self {
            PhysicalNode::Filter { strategy, .. } => strategy.name(),
            PhysicalNode::Sort { strategy, .. } => strategy.name(),
            PhysicalNode::Take { .. } => "free".to_owned(),
            PhysicalNode::TopK {
                shortlist_factor, ..
            } => format!("rate-shortlist-x{shortlist_factor}+pairwise"),
            PhysicalNode::Categorize { labels, .. } | PhysicalNode::KeepLabel { labels, .. } => {
                format!("classify-{}", labels.len())
            }
            PhysicalNode::Count { strategy, .. } => strategy.name(),
            PhysicalNode::Max { strategy, .. } => strategy.name(),
            PhysicalNode::Resolve {
                candidates,
                max_distance,
            } => format!("blocked-{candidates}-{max_distance}"),
            PhysicalNode::ResolvePairs { strategy, .. } => strategy.name(),
            PhysicalNode::Cluster { probe_cap, .. } => match probe_cap {
                Some(cap) => format!("blocked-probe-{cap}"),
                None => "exhaustive-probe".to_owned(),
            },
            PhysicalNode::Join { strategy, .. } => strategy.name(),
            PhysicalNode::Impute { strategy, .. } => strategy.name(),
        };
        match self.pack() {
            Some(pack) if pack > 1 => format!("{base} xpack-{pack}"),
            _ => base,
        }
    }

    /// The node's prompt pack width, if it is a point-wise node whose
    /// dispatch can pack: `Some(1)` means per-item dispatch, `Some(B > 1)`
    /// means B items per prompt, `None` means the node never packs (either
    /// by kind, or because its resolved strategy cannot — e.g. a
    /// confidence-gated filter needs per-answer confidence).
    pub fn pack(&self) -> Option<usize> {
        match self {
            PhysicalNode::Filter { strategy, pack, .. } => strategy.packable().then_some(*pack),
            PhysicalNode::Count { strategy, pack, .. } => strategy.packable().then_some(*pack),
            PhysicalNode::Impute { strategy, pack, .. } => strategy.packable().then_some(*pack),
            PhysicalNode::Categorize { pack, .. } | PhysicalNode::KeepLabel { pack, .. } => {
                Some(*pack)
            }
            _ => None,
        }
    }

    /// What running this node over `rows_in` items asks of the model — the
    /// node's strategy states it beside its run code in [`crate::ops`], and
    /// the estimator reads calls and dollars from nothing else.
    pub(crate) fn bill(&self, rows_in: usize) -> Vec<Line> {
        let n = rows_in;
        match self {
            PhysicalNode::Filter {
                predicate,
                strategy,
                pack,
                ..
            } => strategy.bill(n, predicate, *pack),
            PhysicalNode::Sort {
                criterion,
                strategy,
            } => strategy.bill(n, *criterion),
            PhysicalNode::Take { .. } => Vec::new(),
            PhysicalNode::TopK {
                criterion,
                k,
                shortlist_factor,
            } => ops::topk::bill(n, *criterion, *k, *shortlist_factor),
            PhysicalNode::Categorize { labels, pack }
            | PhysicalNode::KeepLabel { labels, pack, .. } => {
                ops::categorize::bill(n, labels, *pack)
            }
            PhysicalNode::Count {
                predicate,
                strategy,
                pack,
            } => strategy.bill(n, predicate, *pack),
            PhysicalNode::Max {
                criterion,
                strategy,
            } => strategy.bill(n, *criterion),
            PhysicalNode::Resolve { candidates, .. } => ops::resolve::dedup_bill(n, *candidates),
            PhysicalNode::ResolvePairs { pairs, strategy } => strategy.bill(pairs.len()),
            PhysicalNode::Cluster {
                seed_size,
                probe_cap,
            } => ops::cluster::bill(n, *seed_size, *probe_cap),
            PhysicalNode::Join { right, strategy } => strategy.bill(n, right.len()),
            PhysicalNode::Impute {
                attribute,
                labeled,
                strategy,
                pack,
            } => strategy.bill(n, attribute, labeled, *pack),
        }
    }

    /// Set the prompt pack width on a packable node (no-op otherwise).
    pub(crate) fn set_pack(&mut self, width: usize) {
        match self {
            PhysicalNode::Filter { pack, .. }
            | PhysicalNode::Count { pack, .. }
            | PhysicalNode::Categorize { pack, .. }
            | PhysicalNode::KeepLabel { pack, .. }
            | PhysicalNode::Impute { pack, .. } => *pack = width.max(1),
            _ => {}
        }
    }
}

/// The planner's cost model output for one physical node.
#[derive(Debug, Clone)]
pub struct NodeEstimate {
    /// Estimated rows entering the node.
    pub rows_in: usize,
    /// Estimated rows leaving the node.
    pub rows_out: usize,
    /// Estimated LLM calls.
    pub calls: u64,
    /// Estimated dollar cost.
    pub cost_usd: f64,
    /// Budget share allocated to this node in USD (the converted USD
    /// equivalent for token-capped budgets; `None` when unlimited).
    pub alloc_usd: Option<f64>,
}

/// A physical node together with its estimate.
#[derive(Debug, Clone)]
// lint: allow(pub-has-caller) — exposed by `Plan::nodes`
pub struct PlannedNode {
    /// The operator.
    pub node: PhysicalNode,
    /// The planner's estimate for it.
    pub estimate: NodeEstimate,
}

/// An executable physical plan: resolved nodes, estimates, budget
/// allocation, and the rewrite trail.
#[derive(Debug, Clone)]
pub struct Plan {
    pub(crate) source: Vec<ItemId>,
    pub(crate) nodes: Vec<PlannedNode>,
    pub(crate) budget: Budget,
    pub(crate) notes: Vec<String>,
}

impl Plan {
    /// The physical nodes with their estimates, in execution order.
    pub fn nodes(&self) -> &[PlannedNode] {
        &self.nodes
    }

    /// The budget the plan was costed against.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Rewrites and choices the planner applied, in order.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Total estimated dollar cost across nodes.
    pub fn estimated_cost_usd(&self) -> f64 {
        self.nodes.iter().map(|n| n.estimate.cost_usd).sum()
    }

    /// Total estimated LLM calls across nodes.
    pub fn estimated_calls(&self) -> u64 {
        self.nodes.iter().map(|n| n.estimate.calls).sum()
    }

    /// Render the physical plan EXPLAIN-style: one line per node with its
    /// strategy, row flow, call/cost estimates, and budget allocation,
    /// followed by the rewrites that fired.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        let budget = match self.budget {
            Budget::Unlimited => "unlimited".to_owned(),
            Budget::Usd(cap) => format!("${cap:.4}"),
            Budget::Tokens(cap) => format!("{cap} tokens"),
        };
        out.push_str(&format!(
            "PHYSICAL PLAN  ({} nodes, budget {budget}, est {} calls ~${:.4})\n",
            self.nodes.len(),
            self.estimated_calls(),
            self.estimated_cost_usd(),
        ));
        for (i, planned) in self.nodes.iter().enumerate() {
            let e = &planned.estimate;
            let alloc = match e.alloc_usd {
                Some(a) => format!("  alloc ${a:.4}"),
                None => String::new(),
            };
            out.push_str(&format!(
                "  {:>2}. {:<24} {:<28} rows {:>5} -> {:<5} est {:>6} calls ~${:.4}{}\n",
                i + 1,
                planned.node.name(),
                planned.node.strategy_label(),
                e.rows_in,
                e.rows_out,
                e.calls,
                e.cost_usd,
                alloc,
            ));
        }
        if !self.notes.is_empty() {
            out.push_str("  rewrites:\n");
            for note in &self.notes {
                out.push_str(&format!("    - {note}\n"));
            }
        }
        out
    }

    /// Execute the plan on an engine, streaming node outputs through the
    /// engine's pipelined dispatcher and attributing cost per node.
    pub fn execute_on(&self, engine: &Engine) -> Result<PlanRun, EngineError> {
        execute::execute(engine, self)
    }

    /// Execute the plan on a session's engine.
    pub fn execute(&self, session: &crate::session::Session) -> Result<PlanRun, EngineError> {
        self.execute_on(session.engine())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget;
    use crate::corpus::Corpus;
    use crate::ops::filter::FilterStrategy as FS;
    use crate::ops::sort::SortStrategy;
    use crowdprompt_oracle::model::ModelProfile;
    use crowdprompt_oracle::sim::SimulatedLlm;
    use crowdprompt_oracle::world::WorldModel;
    use crowdprompt_oracle::LlmClient;
    use std::sync::Arc;

    /// A deterministic engine over n scored items; flags: "even" on half
    /// the items, "third" on every third.
    fn engine(n: usize, budget: budget::Budget) -> (Engine, Vec<ItemId>) {
        let mut w = WorldModel::new();
        let ids: Vec<ItemId> = (0..n)
            .map(|i| {
                let id = w.add_item(format!("catalog record {i:03}"));
                w.set_score(id, i as f64 / n as f64);
                w.set_salience(id, 1.0);
                w.set_flag(id, "even", i % 2 == 0);
                w.set_flag(id, "third", i % 3 == 0);
                id
            })
            .collect();
        let corpus = Corpus::from_world(&w, &ids);
        let llm = Arc::new(SimulatedLlm::new(
            ModelProfile::gpt35_like(),
            Arc::new(w),
            7,
        ));
        let engine = Engine::new(Arc::new(LlmClient::new(llm)), corpus)
            .with_budget(budget)
            .with_seed(3);
        (engine, ids)
    }

    #[test]
    fn fuses_unpinned_sort_take_into_topk() {
        let (engine, ids) = engine(20, budget::Budget::Unlimited);
        let plan = Query::over(&ids)
            .filter("even")
            .sort(SortCriterion::LatentScore)
            .take(3)
            .plan_on(&engine)
            .unwrap();
        let names: Vec<String> = plan.nodes().iter().map(|n| n.node.name()).collect();
        assert_eq!(names, vec!["filter[even]", "top-k[3]"]);
        assert!(plan.notes().iter().any(|n| n.contains("fused sort+take")));
        assert!(plan.explain().contains("top-k[3]"));
    }

    #[test]
    fn pinned_sort_is_never_fused() {
        let (engine, ids) = engine(10, budget::Budget::Unlimited);
        let plan = Query::over(&ids)
            .sort_with(SortCriterion::LatentScore, SortStrategy::SinglePrompt)
            .take(3)
            .plan_on(&engine)
            .unwrap();
        let names: Vec<String> = plan.nodes().iter().map(|n| n.node.name()).collect();
        assert_eq!(names, vec!["sort", "truncate[3]"]);
        assert!(plan.notes().is_empty());
    }

    #[test]
    fn reorders_adjacent_filters_cheapest_first() {
        let (engine, ids) = engine(20, budget::Budget::Unlimited);
        // The majority-vote filter costs 5 calls/item; single costs 1.
        let plan = Query::over(&ids)
            .filter_with(
                "third",
                FS::MajorityVote {
                    votes: 5,
                    temperature_pct: 70,
                },
            )
            .filter_with("even", FS::Single)
            .plan_on(&engine)
            .unwrap();
        let names: Vec<String> = plan.nodes().iter().map(|n| n.node.name()).collect();
        assert_eq!(names, vec!["filter[even]", "filter[third]"]);
        assert!(plan
            .notes()
            .iter()
            .any(|n| n.contains("reordered filters cheapest-first")));
    }

    #[test]
    fn verbatim_lowering_preserves_declared_chain() {
        let (engine, ids) = engine(20, budget::Budget::Unlimited);
        let plan = Query::over(&ids)
            .filter_with(
                "third",
                FS::MajorityVote {
                    votes: 5,
                    temperature_pct: 70,
                },
            )
            .filter_with("even", FS::Single)
            .sort(SortCriterion::LatentScore)
            .take(4)
            .plan_with(&engine, PlanOptions::verbatim())
            .unwrap();
        let names: Vec<String> = plan.nodes().iter().map(|n| n.node.name()).collect();
        assert_eq!(
            names,
            vec!["filter[third]", "filter[even]", "sort", "truncate[4]"]
        );
        assert!(plan.notes().is_empty());
    }

    #[test]
    fn pushes_blocking_into_unpinned_join_and_cluster() {
        let (engine, ids) = engine(12, budget::Budget::Unlimited);
        let (left, right) = ids.split_at(6);
        let plan = Query::over(left).join(right).plan_on(&engine).unwrap();
        assert!(matches!(
            plan.nodes()[0].node,
            PhysicalNode::Join {
                strategy: crate::ops::join::JoinStrategy::Blocked { .. },
                ..
            }
        ));
        assert!(plan.notes().iter().any(|n| n.contains("join")));

        let plan = Query::over(&ids).cluster(4).plan_on(&engine).unwrap();
        assert!(matches!(
            plan.nodes()[0].node,
            PhysicalNode::Cluster {
                probe_cap: Some(4),
                ..
            }
        ));
    }

    #[test]
    fn terminal_node_mid_chain_is_rejected() {
        let (engine, ids) = engine(6, budget::Budget::Unlimited);
        let err = Query::over(&ids)
            .count("even")
            .filter("third")
            .plan_on(&engine)
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidInput(_)));
    }

    #[test]
    fn tight_budget_downgrades_unpinned_nodes() {
        // A per-item count over 40 items cannot fit; the planner must
        // downgrade to eyeball batches and the estimate must shrink.
        let (engine, ids) = engine(40, budget::Budget::usd(0.0004));
        let plan = Query::over(&ids).count("even").plan_on(&engine).unwrap();
        assert!(matches!(
            plan.nodes()[0].node,
            PhysicalNode::Count {
                strategy: crate::ops::count::CountStrategy::Eyeball { .. },
                ..
            }
        ));
        assert!(plan.notes().iter().any(|n| n.contains("downgraded")));
    }

    #[test]
    fn pinned_strategies_survive_tight_budgets() {
        let (engine, ids) = engine(40, budget::Budget::usd(0.0004));
        let plan = Query::over(&ids)
            .count_with("even", crate::ops::count::CountStrategy::PerItem)
            .plan_on(&engine)
            .unwrap();
        assert!(matches!(
            plan.nodes()[0].node,
            PhysicalNode::Count {
                strategy: crate::ops::count::CountStrategy::PerItem,
                ..
            }
        ));
    }

    #[test]
    fn allocations_split_usd_budget_proportionally() {
        let (engine, ids) = engine(20, budget::Budget::usd(1.0));
        let plan = Query::over(&ids)
            .filter("even")
            .top_k_with(SortCriterion::LatentScore, 3, 2)
            .plan_on(&engine)
            .unwrap();
        let allocs: Vec<f64> = plan
            .nodes()
            .iter()
            .map(|n| n.estimate.alloc_usd.expect("usd budget allocates"))
            .collect();
        let total: f64 = allocs.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "allocations sum to the budget");
        assert!(allocs.iter().all(|a| *a > 0.0));
    }

    #[test]
    fn calibration_runs_validation_trials_and_pins_sort() {
        let (engine, ids) = engine(24, budget::Budget::Unlimited);
        // Gold ordering for a small sample: descending score = reverse ids.
        let sample: Vec<ItemId> = ids[..8].to_vec();
        let mut gold = sample.clone();
        gold.reverse();
        let plan = Query::over(&ids)
            .sort(SortCriterion::LatentScore)
            .calibrate_sort(&sample, &gold)
            .plan_on(&engine)
            .unwrap();
        assert!(plan.notes().iter().any(|n| n.contains("validation trial")));
        assert!(engine.budget().spent_tokens() > 0, "trials spend for real");
    }

    #[test]
    fn executed_plan_matches_eager_sequence_bit_for_bit() {
        let build = || engine(30, budget::Budget::Unlimited);
        // Plan path.
        let (planned_engine, ids) = build();
        let run = Query::over(&ids)
            .filter("even")
            .sort(SortCriterion::LatentScore)
            .take(3)
            .plan_on(&planned_engine)
            .unwrap()
            .execute_on(&planned_engine)
            .unwrap();
        // Eager path, hand-sequenced to the same physical operators.
        let (eager_engine, ids2) = build();
        assert_eq!(ids, ids2);
        let kept = crate::ops::filter::filter(&eager_engine, &ids2, "even", FS::Single, 1)
            .unwrap()
            .value;
        let top = crate::ops::topk::top_k(&eager_engine, &kept, SortCriterion::LatentScore, 3, 2)
            .unwrap()
            .value;
        assert_eq!(run.output.items().unwrap(), top);
        assert_eq!(
            planned_engine.budget().spent_tokens(),
            eager_engine.budget().spent_tokens(),
            "identical ledger spend"
        );
        assert_eq!(run.steps.len(), 2);
        assert_eq!(run.steps[0].items_out, kept.len());
    }

    #[test]
    fn explain_estimates_within_2x_of_actual_spend() {
        let (engine, ids) = engine(30, budget::Budget::Unlimited);
        let plan = Query::over(&ids)
            .filter("even")
            .sort(SortCriterion::LatentScore)
            .take(3)
            .plan_on(&engine)
            .unwrap();
        let est = plan.estimated_cost_usd();
        let run = plan.execute_on(&engine).unwrap();
        let actual = run.total_cost_usd();
        assert!(actual > 0.0);
        assert!(
            est <= actual * 2.0 && est >= actual / 2.0,
            "estimate ${est:.6} vs actual ${actual:.6}"
        );
    }

    #[test]
    fn store_hits_discount_estimates_and_are_noted_in_explain() {
        use crowdprompt_oracle::store::{ResponseStore, StoreConfig};
        let path =
            std::env::temp_dir().join(format!("crowdprompt-plan-store-{}.log", std::process::id()));
        let mut lock = path.as_os_str().to_os_string();
        lock.push(".lock");
        let lock = std::path::PathBuf::from(lock);
        std::fs::remove_file(&path).ok();

        let (engine, ids) = engine(12, budget::Budget::Unlimited);
        let store = ResponseStore::open(&path, StoreConfig::default()).unwrap();
        assert!(engine.client().attach_store(Arc::new(store)));

        let cold = Query::over(&ids).filter("even").plan_on(&engine).unwrap();
        assert!(
            cold.notes()
                .iter()
                .any(|n| n.contains("persistent response store")),
            "EXPLAIN must name the attached store: {:?}",
            cold.notes()
        );
        let cold_est = cold.estimated_cost_usd();
        assert!(cold_est > 0.0);
        cold.execute_on(&engine).unwrap();

        // Re-planning the same query now samples fingerprints that are on
        // disk; the estimator prices those hits at $0.
        let warm = Query::over(&ids).filter("even").plan_on(&engine).unwrap();
        assert!(
            warm.estimated_cost_usd() < cold_est / 2.0,
            "warm estimate ${:.6} must discount sampled store hits vs cold ${cold_est:.6}",
            warm.estimated_cost_usd()
        );

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&lock).ok();
    }

    #[test]
    fn selectivity_hint_outranks_raw_cost_in_filter_order() {
        let (engine, ids) = engine(20, budget::Budget::Unlimited);
        // Same per-item cost, but "third" is hinted far more selective:
        // rank = cost/(1-sel) puts it first despite equal cost.
        let plan = Query::over(&ids)
            .filter("even")
            .hint_selectivity(0.9)
            .filter("third")
            .hint_selectivity(0.1)
            .plan_on(&engine)
            .unwrap();
        let names: Vec<String> = plan.nodes().iter().map(|n| n.node.name()).collect();
        assert_eq!(names, vec!["filter[third]", "filter[even]"]);
    }

    #[test]
    fn budget_fit_never_applies_a_downgrade_that_costs_more() {
        // An unpinned sort over 30 items resolves to SinglePrompt (1
        // call); no "downgrade" exists that is cheaper, so under an
        // impossible budget the plan must keep it rather than switch to
        // n rating calls.
        let (engine, ids) = engine(30, budget::Budget::usd(1e-9));
        let plan = Query::over(&ids)
            .sort(SortCriterion::LatentScore)
            .plan_on(&engine)
            .unwrap();
        assert!(matches!(
            plan.nodes()[0].node,
            PhysicalNode::Sort {
                strategy: SortStrategy::SinglePrompt,
                ..
            }
        ));
        assert!(
            !plan.notes().iter().any(|n| n.contains("downgraded")),
            "no cost-increasing downgrade may be recorded: {:?}",
            plan.notes()
        );
    }

    #[test]
    fn calibration_suppresses_topk_fusion() {
        // A calibration sample pins the sort choice to the validation
        // trials; fusing into top-k would silently discard the sample.
        let (engine, ids) = engine(20, budget::Budget::Unlimited);
        let sample: Vec<ItemId> = ids[..6].to_vec();
        let mut gold = sample.clone();
        gold.reverse();
        let plan = Query::over(&ids)
            .sort(SortCriterion::LatentScore)
            .take(3)
            .calibrate_sort(&sample, &gold)
            .plan_on(&engine)
            .unwrap();
        let names: Vec<String> = plan.nodes().iter().map(|n| n.node.name()).collect();
        assert_eq!(names, vec!["sort", "truncate[3]"]);
        assert!(plan.notes().iter().any(|n| n.contains("unfused")));
        assert!(plan.notes().iter().any(|n| n.contains("validation trial")));
    }

    #[test]
    fn count_report_rows_match_the_estimate() {
        let (engine, ids) = engine(12, budget::Budget::Unlimited);
        let plan = Query::over(&ids).count("even").plan_on(&engine).unwrap();
        assert_eq!(plan.nodes()[0].estimate.rows_out, 1);
        let run = plan.execute_on(&engine).unwrap();
        assert_eq!(run.steps[0].items_out, 1, "report agrees with the estimate");
    }

    #[test]
    fn token_capped_budgets_also_downgrade() {
        // ~40 per-item checks cannot fit a 200-token cap; the planner
        // must convert the token cap to a USD equivalent and downgrade
        // exactly as it would for a USD cap.
        let (engine, ids) = engine(40, budget::Budget::tokens(200));
        let plan = Query::over(&ids).count("even").plan_on(&engine).unwrap();
        assert!(matches!(
            plan.nodes()[0].node,
            PhysicalNode::Count {
                strategy: crate::ops::count::CountStrategy::Eyeball { .. },
                ..
            }
        ));
        assert!(plan.nodes()[0].estimate.alloc_usd.is_some());
    }

    #[test]
    fn verbatim_planning_skips_calibration_trials() {
        let (engine, ids) = engine(16, budget::Budget::Unlimited);
        let sample: Vec<ItemId> = ids[..6].to_vec();
        let mut gold = sample.clone();
        gold.reverse();
        let plan = Query::over(&ids)
            .sort(SortCriterion::LatentScore)
            .calibrate_sort(&sample, &gold)
            .plan_with(&engine, PlanOptions::verbatim())
            .unwrap();
        assert!(plan.notes().is_empty());
        assert_eq!(
            engine.budget().spent_tokens(),
            0,
            "verbatim planning must not spend budget on trials"
        );
    }

    #[test]
    fn nan_selectivity_hint_is_rejected_at_plan_time() {
        // Unchecked, a NaN hint estimates every later node at zero rows and
        // allocates it no budget.
        let (engine, ids) = engine(20, budget::Budget::usd(1.0));
        let err = Query::over(&ids)
            .filter("even")
            .hint_selectivity(f64::NAN)
            .sort(SortCriterion::LatentScore)
            .plan_on(&engine)
            .unwrap_err();
        match err {
            EngineError::InvalidInput(msg) => assert!(msg.contains("filter[even]"), "{msg}"),
            other => panic!("expected an input error, got {other:?}"),
        }
    }

    #[test]
    fn empty_labels_rejected_at_plan_time() {
        let (engine, ids) = engine(6, budget::Budget::Unlimited);
        let err = Query::over(&ids)
            .keep_label(Vec::new(), "x")
            .plan_on(&engine)
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidInput(_)));
        assert_eq!(engine.budget().spent_tokens(), 0, "caught before any spend");
        let err = Query::over(&ids)
            .categorize(Vec::new())
            .plan_on(&engine)
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidInput(_)));
    }

    #[test]
    fn pack_width_knob_packs_pointwise_nodes_and_notes_the_delta() {
        let (engine, ids) = engine(40, budget::Budget::Unlimited);
        let engine = engine.with_pack_width(16);
        let plan = Query::over(&ids).filter("even").plan_on(&engine).unwrap();
        assert_eq!(plan.nodes()[0].node.pack(), Some(16));
        assert_eq!(
            plan.nodes()[0].estimate.calls,
            3,
            "40 items at width 16 = 3 packs"
        );
        assert!(plan
            .notes()
            .iter()
            .any(|n| n.contains("packed filter[even] at width 16") && n.contains("vs 40 calls")));
        assert!(plan.explain().contains("xpack-16"));
        // Execution actually dispatches packs: 3 backend calls, not 40.
        plan.execute_on(&engine).unwrap();
        assert_eq!(engine.client().stats().calls(), 3);
    }

    #[test]
    fn planner_caps_pack_width_at_the_context_window() {
        let mut w = WorldModel::new();
        let ids: Vec<ItemId> = (0..64)
            .map(|i| {
                let id = w.add_item(format!(
                    "a deliberately wordy catalog record number {i:03} with plenty of text"
                ));
                w.set_flag(id, "even", i % 2 == 0);
                id
            })
            .collect();
        let corpus = Corpus::from_world(&w, &ids);
        // A 200-token window: a 64-item pack cannot fit, singletons can.
        let profile = crowdprompt_oracle::ModelProfile::perfect().with_context_window(200);
        let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(w), 7));
        let engine = Engine::new(Arc::new(LlmClient::new(llm)), corpus).with_pack_width(64);
        let plan = Query::over(&ids).filter("even").plan_on(&engine).unwrap();
        let pack = plan.nodes()[0].node.pack().unwrap();
        assert!(pack < 64, "width must be capped, got {pack}");
        assert!(plan
            .notes()
            .iter()
            .any(|n| n.contains("capped") && n.contains("context window")));
    }

    #[test]
    fn confidence_gated_filter_never_packs() {
        let (engine, ids) = engine(20, budget::Budget::Unlimited);
        let engine = engine.with_pack_width(8);
        let plan = Query::over(&ids)
            .filter_with(
                "even",
                FS::ConfidenceGated {
                    min_confidence_pct: 65,
                    votes: 5,
                },
            )
            .plan_on(&engine)
            .unwrap();
        assert_eq!(plan.nodes()[0].node.pack(), None);
        assert!(!plan.explain().contains("xpack"));
        assert!(!plan.notes().iter().any(|n| n.contains("packed")));
    }

    #[test]
    fn session_plan_packs_like_the_operator_at_the_knob_width() {
        use crate::session::Session;
        // Same world, same seed: a session's filter node and the operator
        // called at the session's pack width must dispatch identical packed
        // requests.
        let build = || {
            let mut w = WorldModel::new();
            let ids: Vec<ItemId> = (0..24)
                .map(|i| {
                    let id = w.add_item(format!("wrapper item {i}"));
                    w.set_flag(id, "even", i % 2 == 0);
                    id
                })
                .collect();
            let corpus = Corpus::from_world(&w, &ids);
            let llm = Arc::new(SimulatedLlm::new(
                ModelProfile::gpt35_like(),
                Arc::new(w),
                7,
            ));
            (Arc::new(LlmClient::new(llm)), corpus, ids)
        };
        let (client, corpus, ids) = build();
        let session = Session::builder()
            .client(Arc::clone(&client))
            .corpus(corpus.clone())
            .pack_width(8)
            .build();
        let query = session.query(&ids).filter_with("even", FS::Single);
        let via_session = session
            .plan(query)
            .unwrap()
            .execute(&session)
            .unwrap()
            .into_outcome(|out| out.into_items().unwrap());
        let (client2, corpus2, ids2) = build();
        let engine = Engine::new(client2, corpus2);
        let direct = crate::ops::filter::filter(&engine, &ids2, "even", FS::Single, 8).unwrap();
        assert_eq!(via_session.value, direct.value);
        assert_eq!(via_session.calls, direct.calls);
        assert_eq!(via_session.usage, direct.usage);
    }

    #[test]
    fn empty_plan_is_identity() {
        let (engine, ids) = engine(4, budget::Budget::Unlimited);
        let run = Query::over(&ids)
            .plan_on(&engine)
            .unwrap()
            .execute_on(&engine)
            .unwrap();
        assert_eq!(run.output, PlanOutput::Items(ids));
        assert!(run.steps.is_empty());
        assert_eq!(run.total_calls(), 0);
    }
}
