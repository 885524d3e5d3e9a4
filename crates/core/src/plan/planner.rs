//! Rule-based lowering of logical queries to physical plans.
//!
//! Rewrites, in order:
//!
//! 1. **Top-k fusion** — an unpinned `sort` immediately followed by
//!    `take(k)` becomes one top-k node (rating shortlist + exact ranking
//!    of the shortlist) instead of a full sort.
//! 2. **Strategy resolution** — every unpinned strategy is resolved to a
//!    concrete one: accuracy-preferring defaults, or (for sort nodes with
//!    a [`super::SortCalibration`]) optimizer-style validation trials
//!    scored on a labelled sample and recommended under the node's budget
//!    allocation (§4).
//! 3. **Blocking push-in** — unpinned pairwise LLM stages (join, cluster
//!    assignment) get the shared embedding [`crate::BlockingIndex`] in
//!    front of them; dedup is blocked by construction.
//! 4. **Filter reordering** — maximal runs of adjacent filters are
//!    reordered by predicate rank, per-item cost / (1 − selectivity) —
//!    cheapest-first when selectivities are equal. Filters commute:
//!    per-item verdicts are independent of position, so the result set
//!    is unchanged while later, more expensive filters see fewer rows.
//! 5. **Budget fitting** — while the estimated total exceeds the budget,
//!    the most expensive *unpinned* node is downgraded one strategy step
//!    (e.g. per-item count → eyeball batches, LLM imputation → hybrid →
//!    k-NN), keeping only downgrades that actually lower the node's
//!    estimate, until the plan fits or nothing is downgradable.
//!
//! Every fired rewrite is recorded in [`super::Plan::notes`] and shown by
//! `explain()`.

use crate::budget::Budget;
use crate::error::EngineError;
use crate::exec::{router_of, Engine, FailurePolicy};
use crate::ops::bill::Ask;
use crate::ops::count::CountStrategy;
use crate::ops::filter::FilterStrategy;
use crate::ops::join::JoinStrategy;
use crate::ops::max::MaxStrategy;
use crate::ops::sort::SortStrategy;
use crate::ops::ImputeStrategy;
use crate::optimize;

use super::estimate::Estimator;
use super::ir::{ClusterProbe, LogicalOp, Query};
use super::{NodeEstimate, PhysicalNode, Plan, PlannedNode};

/// Which rewrites the planner may apply. [`PlanOptions::verbatim`] lowers
/// the chain exactly as declared (declared step order and pinned strategies
/// are kept).
#[derive(Debug, Clone, Copy)]
pub struct PlanOptions {
    /// Fuse unpinned `sort` + `take(k)` into a top-k node.
    pub fuse_sort_take: bool,
    /// Reorder adjacent filters cheapest-per-item first.
    pub reorder_filters: bool,
    /// Push embedding blocking in front of unpinned pairwise stages.
    pub push_blocking: bool,
    /// Downgrade unpinned strategies until the estimate fits the budget.
    pub fit_budget: bool,
    /// Resolve unpinned sort nodes via validation trials when the query
    /// carries a [`super::SortCalibration`] (the trials spend real budget
    /// at plan time).
    pub run_calibration: bool,
}

impl PlanOptions {
    /// All rewrites enabled (the default for [`Query::plan_on`]).
    pub fn optimized() -> Self {
        PlanOptions {
            fuse_sort_take: true,
            reorder_filters: true,
            push_blocking: true,
            fit_budget: true,
            run_calibration: true,
        }
    }

    /// No rewrites: lower the declared chain verbatim (calibration
    /// trials are skipped too — verbatim planning spends nothing).
    pub fn verbatim() -> Self {
        PlanOptions {
            fuse_sort_take: false,
            reorder_filters: false,
            push_blocking: false,
            fit_budget: false,
            run_calibration: false,
        }
    }
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions::optimized()
    }
}

/// A lowered node plus whether the user pinned its strategy (pinned nodes
/// are never downgraded or re-chosen).
struct Lowered {
    node: PhysicalNode,
    pinned: bool,
}

/// Default sort strategy by input size: one prompt while the list
/// plausibly fits a context window, chunked merge beyond.
fn default_sort_strategy(n: usize) -> SortStrategy {
    if n <= 32 {
        SortStrategy::SinglePrompt
    } else {
        SortStrategy::ChunkedMerge { chunk_size: 16 }
    }
}

/// Candidate sort strategies for validation trials, by input size.
fn sort_candidates(n: usize) -> Vec<SortStrategy> {
    let mut candidates = Vec::new();
    if n <= 12 {
        candidates.push(SortStrategy::Pairwise);
    }
    if n <= 32 {
        candidates.push(SortStrategy::SinglePrompt);
    } else {
        candidates.push(SortStrategy::ChunkedMerge { chunk_size: 16 });
    }
    candidates.push(SortStrategy::Rating {
        scale_min: 1,
        scale_max: 7,
    });
    candidates
}

/// One budget-fitting downgrade step, or `None` when already cheapest.
fn downgrade(node: &PhysicalNode) -> Option<PhysicalNode> {
    match node {
        PhysicalNode::Sort {
            criterion,
            strategy,
        } => {
            let next = match strategy {
                SortStrategy::Pairwise => SortStrategy::SinglePrompt,
                // A single prompt is already the cheapest sort; chunked
                // merge pays per-merge comparisons that ratings avoid.
                SortStrategy::ChunkedMerge { .. } => SortStrategy::Rating {
                    scale_min: 1,
                    scale_max: 7,
                },
                _ => return None,
            };
            Some(PhysicalNode::Sort {
                criterion: *criterion,
                strategy: next,
            })
        }
        PhysicalNode::Count {
            predicate,
            strategy: CountStrategy::PerItem,
            pack,
        } => Some(PhysicalNode::Count {
            predicate: predicate.clone(),
            strategy: CountStrategy::Eyeball { batch_size: 10 },
            pack: *pack,
        }),
        PhysicalNode::Max {
            criterion,
            strategy: MaxStrategy::RateThenPlayoff { .. },
        } => Some(PhysicalNode::Max {
            criterion: *criterion,
            strategy: MaxStrategy::Tournament,
        }),
        PhysicalNode::Impute {
            attribute,
            labeled,
            strategy,
            pack,
        } => {
            let next = match strategy {
                ImputeStrategy::LlmOnly { shots } => ImputeStrategy::Hybrid {
                    k: 3,
                    shots: *shots,
                },
                ImputeStrategy::Hybrid { .. } => ImputeStrategy::KnnOnly { k: 3 },
                ImputeStrategy::KnnOnly { .. } => return None,
            };
            Some(PhysicalNode::Impute {
                attribute: attribute.clone(),
                labeled: labeled.clone(),
                strategy: next,
                pack: *pack,
            })
        }
        _ => None,
    }
}

/// The engine's remaining budget expressed in USD: real dollars for a USD
/// cap, a converted equivalent for a token cap (remaining tokens × the
/// probed per-token rate), infinity when unlimited — so budget fitting
/// and allocation work for token-capped engines too.
fn remaining_usd_equivalent(engine: &Engine, estimator: &Estimator) -> f64 {
    match engine.budget().budget() {
        Budget::Usd(_) => engine.budget().remaining_usd(),
        Budget::Tokens(_) => {
            let rate = estimator.usd_per_token();
            if rate > 0.0 {
                engine.budget().remaining_tokens() as f64 * rate
            } else {
                f64::INFINITY
            }
        }
        Budget::Unlimited => f64::INFINITY,
    }
}

/// Lower a query to a physical [`Plan`].
pub(crate) fn plan(
    engine: &Engine,
    query: Query,
    options: PlanOptions,
) -> Result<Plan, EngineError> {
    let mut notes: Vec<String> = Vec::new();
    // Per-backend pricing note: a roster of more than one backend serves
    // one tier at different price multipliers; estimates below
    // price calls at the router's *reference* (cheapest-eligible) schedule,
    // while execution records actual spend at whichever backend serves each
    // call. Recorded here so EXPLAIN shows which schedule the numbers mean.
    let router = router_of(engine.client());
    let registry = router.registry();
    if registry.len() > 1 {
        let roster: Vec<String> = registry
            .backends()
            .iter()
            .map(|b| format!("'{}'", b.id()))
            .collect();
        notes.push(format!(
            "routing tier '{}' over {} backends ({}); estimates priced at cheapest '{}'",
            registry.tier(),
            registry.len(),
            roster.join(", "),
            router.reference_backend_id(),
        ));
    }
    // Persistent-store note: with a response store attached, calls
    // whose fingerprints are already on disk are served without a
    // backend dispatch and charge nothing, and the estimator prices
    // sampled store hits at $0 — EXPLAIN records the store so the
    // discounted numbers are attributable.
    if let Some(store) = engine.client().store() {
        let semantic = match store.semantic_threshold() {
            Some(t) => format!(", semantic tier at distance <= {t}"),
            None => String::new(),
        };
        notes.push(format!(
            "persistent response store '{}' ({} entries{semantic}); \
             estimates price sampled store hits at $0",
            store.path().display(),
            store.len(),
        ));
    }
    // Execution-semantics notes: degrade mode means the plan can complete
    // with *partial* output (quarantined items land in each step's salvage
    // notes), and a deadline bounds wall-clock — both worth surfacing in
    // EXPLAIN before anyone reads the row estimates as guarantees.
    if let FailurePolicy::Degrade { max_attempts } = engine.failure_policy() {
        notes.push(format!(
            "failure policy: degrade (<= {max_attempts} dispatch attempts/item) — \
             broken items quarantine into step salvage notes instead of failing the plan"
        ));
    }
    if let Some(ms) = engine.deadline_ms() {
        notes.push(format!("deadline: {ms} ms wall-clock per dispatch batch"));
    }
    let (source, ops, calibration) = query.into_parts();
    let ops = &ops;
    // Terminal ops (labels, counts, clusters, …) end the chain, label-based
    // nodes need at least one label, and a pinned filter strategy's fields
    // must be ones a run can honour — caught here, before any budget is
    // spent.
    for (i, op) in ops.iter().enumerate() {
        if i + 1 < ops.len() && !op.produces_items() {
            return Err(EngineError::InvalidInput(format!(
                "plan node {} does not produce an item set and must be last",
                i + 1
            )));
        }
        if let LogicalOp::Categorize { labels } | LogicalOp::KeepLabel { labels, .. } = op {
            if labels.is_empty() {
                return Err(EngineError::InvalidInput(
                    "categorize requires at least one label".into(),
                ));
            }
        }
        if let LogicalOp::Filter {
            strategy: Some(strategy),
            ..
        } = op
        {
            strategy.validate()?;
        }
    }

    // Rewrite 1: fuse unpinned sort + take(k) into top-k.
    let mut fused: Vec<LogicalOp> = Vec::with_capacity(ops.len());
    let mut iter = ops.iter().peekable();
    while let Some(op) = iter.next() {
        if options.fuse_sort_take {
            if let LogicalOp::Sort {
                criterion,
                strategy: None,
            } = op
            {
                if let Some(LogicalOp::Take { k }) = iter.peek() {
                    // A calibration sample pins the *sort* node's choice to
                    // the validation trials; fusing into top-k would
                    // silently discard the sample the user prepared.
                    if options.run_calibration && calibration.is_some() {
                        notes.push(format!(
                            "kept sort+take({k}) unfused: calibration sample supplied"
                        ));
                    } else {
                        notes.push(format!("fused sort+take({k}) into top-k[{k}]"));
                        fused.push(LogicalOp::TopK {
                            criterion: *criterion,
                            k: *k,
                            shortlist_factor: 2,
                        });
                        iter.next();
                        continue;
                    }
                }
            }
        }
        fused.push(op.clone());
    }

    let estimator = Estimator::new(engine, &source);

    // Blocking-consumer annotation: when the engine carries a sub-1.0
    // recall target and the corpus shape would route the shared blocking
    // index to the approximate IVF tier, record it — the estimator scales
    // candidate-verification calls by the same prediction.
    let approx_blocking_note = |notes: &mut Vec<String>, len: usize, what: &str| {
        if let Some(target) = engine.blocking_recall_target() {
            if crate::blocking::BlockingIndex::predicted_index_kind(len, Some(target)) == "ivf_sq8"
            {
                notes.push(format!(
                    "{what} blocking predicted approximate (ivf_sq8, recall target {target})"
                ));
            }
        }
    };

    // Rewrite 2/3: resolve strategies (defaults + blocking push-in),
    // tracking estimated rows so size-dependent defaults see realistic n.
    let mut lowered: Vec<Lowered> = Vec::with_capacity(fused.len());
    let mut rows = source.len();
    for op in &fused {
        let (node, pinned) = match op {
            LogicalOp::Filter {
                predicate,
                strategy,
                selectivity,
            } => (
                PhysicalNode::Filter {
                    predicate: predicate.clone(),
                    strategy: strategy.unwrap_or(FilterStrategy::Single),
                    selectivity: selectivity.unwrap_or(FilterStrategy::DEFAULT_SELECTIVITY),
                    pack: 1,
                },
                strategy.is_some(),
            ),
            LogicalOp::Sort {
                criterion,
                strategy,
            } => (
                PhysicalNode::Sort {
                    criterion: *criterion,
                    strategy: strategy
                        .clone()
                        .unwrap_or_else(|| default_sort_strategy(rows)),
                },
                strategy.is_some(),
            ),
            LogicalOp::Take { k } => (PhysicalNode::Take { k: *k }, true),
            LogicalOp::TopK {
                criterion,
                k,
                shortlist_factor,
            } => (
                PhysicalNode::TopK {
                    criterion: *criterion,
                    k: *k,
                    shortlist_factor: *shortlist_factor,
                },
                true,
            ),
            LogicalOp::Categorize { labels } => (
                PhysicalNode::Categorize {
                    labels: labels.clone(),
                    pack: 1,
                },
                true,
            ),
            LogicalOp::KeepLabel { labels, keep } => (
                PhysicalNode::KeepLabel {
                    labels: labels.clone(),
                    keep: keep.clone(),
                    pack: 1,
                },
                true,
            ),
            LogicalOp::Count {
                predicate,
                strategy,
            } => (
                PhysicalNode::Count {
                    predicate: predicate.clone(),
                    strategy: strategy.unwrap_or(CountStrategy::PerItem),
                    pack: 1,
                },
                strategy.is_some(),
            ),
            LogicalOp::Max {
                criterion,
                strategy,
            } => (
                PhysicalNode::Max {
                    criterion: *criterion,
                    strategy: strategy.unwrap_or(MaxStrategy::RateThenPlayoff {
                        buckets: 7,
                        playoff_size: 4,
                    }),
                },
                strategy.is_some(),
            ),
            LogicalOp::Resolve {
                candidates,
                max_distance,
            } => {
                approx_blocking_note(&mut notes, rows, "resolve");
                (
                    PhysicalNode::Resolve {
                        candidates: *candidates,
                        max_distance: *max_distance,
                    },
                    true,
                )
            }
            LogicalOp::Cluster { seed_size, probe } => {
                approx_blocking_note(&mut notes, rows, "cluster");
                let (probe_cap, pinned) = match probe {
                    ClusterProbe::Exhaustive => (None, true),
                    ClusterProbe::Cap(cap) => (Some(*cap), true),
                    ClusterProbe::Auto => {
                        if options.push_blocking {
                            notes.push(
                                "pushed blocking into cluster assignment (probe cap 4)".to_owned(),
                            );
                            (Some(4), false)
                        } else {
                            (None, false)
                        }
                    }
                };
                (
                    PhysicalNode::Cluster {
                        seed_size: *seed_size,
                        probe_cap,
                    },
                    pinned,
                )
            }
            LogicalOp::Join { right, strategy } => {
                approx_blocking_note(&mut notes, right.len(), "join");
                let (resolved, pinned) = match strategy {
                    Some(s) => (s.clone(), true),
                    None => {
                        if options.push_blocking {
                            notes
                                .push("pushed blocking into join (4 candidates/record)".to_owned());
                            (
                                JoinStrategy::Blocked {
                                    candidates: 4,
                                    max_distance: 2.0,
                                },
                                false,
                            )
                        } else {
                            (JoinStrategy::AllPairs, false)
                        }
                    }
                };
                (
                    PhysicalNode::Join {
                        right: right.clone(),
                        strategy: resolved,
                    },
                    pinned,
                )
            }
            LogicalOp::Impute {
                attribute,
                labeled,
                strategy,
            } => (
                PhysicalNode::Impute {
                    attribute: attribute.clone(),
                    labeled: labeled.clone(),
                    strategy: strategy
                        .clone()
                        .unwrap_or(ImputeStrategy::LlmOnly { shots: 3 }),
                    pack: 1,
                },
                strategy.is_some(),
            ),
        };
        rows = super::estimate::rows_out(&node, rows);
        lowered.push(Lowered { node, pinned });
    }

    // Rewrite 4: reorder maximal runs of adjacent filters cheapest-first.
    if options.reorder_filters {
        let mut i = 0;
        while i < lowered.len() {
            let mut j = i;
            while j < lowered.len() && matches!(lowered[j].node, PhysicalNode::Filter { .. }) {
                j += 1;
            }
            if j - i >= 2 {
                let before: Vec<String> = lowered[i..j].iter().map(|l| l.node.name()).collect();
                // Rank = per-item cost / rows removed per dollar-relevant
                // item, i.e. cost/(1 − selectivity): the classic predicate
                // ordering. With default (equal) selectivities it reduces
                // to cheapest-per-item first. Keys are computed once per
                // filter, not per comparison — each key renders prompts.
                let mut keyed: Vec<(f64, Lowered)> = lowered
                    .splice(i..j, std::iter::empty())
                    .map(|l| {
                        let key = match &l.node {
                            PhysicalNode::Filter {
                                predicate,
                                strategy,
                                selectivity,
                                ..
                            } => {
                                strategy.calls_per_item()
                                    * estimator.price(&Ask::check(predicate), None)
                                    / (1.0 - selectivity).max(1e-6)
                            }
                            _ => 0.0,
                        };
                        (key, l)
                    })
                    .collect();
                keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
                lowered.splice(i..i, keyed.into_iter().map(|(_, l)| l));
                let after: Vec<String> = lowered[i..j].iter().map(|l| l.node.name()).collect();
                if before != after {
                    notes.push(format!(
                        "reordered filters cheapest-first: {} -> {}",
                        before.join(", "),
                        after.join(", ")
                    ));
                }
            }
            i = j.max(i + 1);
        }
    }

    // Rewrite 4b: multi-item prompt packing. When the engine's pack-width
    // knob is set, each point-wise node (filter, per-item count,
    // categorize/keep-label, LLM impute) packs B items per prompt: the
    // planner picks B = min(knob, rows) capped so a representative packed
    // prompt still fits the model's context window, and records the
    // packed-vs-per-item estimate delta. Packing is call-count monotone
    // (⌈n/B⌉ ≤ n for every B ≥ 1), so a larger feasible B never hurts the
    // node's budget fit.
    let knob = engine.pack_width();
    if knob > 1 {
        let mut rows = source.len();
        for l in &mut lowered {
            let rows_in = rows;
            rows = super::estimate::rows_out(&l.node, rows_in);
            if l.node.pack().is_none() {
                continue;
            }
            let per_item = estimator.node(&l.node, rows_in);
            let capped = knob.min(rows_in.max(1));
            let mut width = capped;
            let window = engine.client().model().context_window();
            while width > 1 {
                l.node.set_pack(width);
                match estimator.packed_prompt_tokens(&l.node, rows_in) {
                    Some(tokens) if tokens > window => width /= 2,
                    _ => break,
                }
            }
            l.node.set_pack(width);
            if width < capped {
                notes.push(format!(
                    "pack width for {} capped at {width} (a {capped}-item prompt \
                     overflows the {window}-token context window)",
                    l.node.name(),
                ));
            }
            if width <= 1 {
                continue;
            }
            let packed = estimator.node(&l.node, rows_in);
            notes.push(format!(
                "packed {} at width {width}: est {} calls ~${:.4} vs {} calls \
                 ~${:.4} per-item",
                l.node.name(),
                packed.calls,
                packed.cost_usd,
                per_item.calls,
                per_item.cost_usd,
            ));
        }
    }

    // Estimate pass.
    let mut estimates: Vec<NodeEstimate> = Vec::with_capacity(lowered.len());
    let mut rows = source.len();
    for l in &lowered {
        let est = estimator.node(&l.node, rows);
        rows = est.rows_out;
        estimates.push(est);
    }

    // Rewrite 2b: validation-trial calibration for unpinned sort nodes.
    // Trials are memoized per candidate set: several unpinned sorts in one
    // chain share one trial run instead of re-spending on the same sample.
    if let Some(cal) = calibration.as_ref().filter(|_| options.run_calibration) {
        let mut trials_cache: std::collections::HashMap<String, Vec<optimize::StrategyTrial>> =
            std::collections::HashMap::new();
        for idx in 0..lowered.len() {
            if lowered[idx].pinned {
                continue;
            }
            let PhysicalNode::Sort { criterion, .. } = lowered[idx].node else {
                continue;
            };
            let rows_here = estimates[idx].rows_in;
            let candidates = sort_candidates(rows_here);
            let cache_key: String = candidates
                .iter()
                .map(SortStrategy::name)
                .collect::<Vec<_>>()
                .join(",");
            let trials = match trials_cache.get(&cache_key) {
                Some(trials) => trials.clone(),
                None => {
                    let trials = optimize::evaluate_sort_strategies(
                        engine,
                        &cal.sample,
                        &cal.gold,
                        criterion,
                        &candidates,
                    )?;
                    trials_cache.insert(cache_key, trials.clone());
                    trials
                }
            };
            let others: f64 = estimates
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != idx)
                .map(|(_, e)| e.cost_usd)
                .sum();
            let node_budget = (remaining_usd_equivalent(engine, &estimator) - others).max(0.0);
            if let Some(pick) =
                optimize::recommend(&trials, cal.sample.len(), rows_here, node_budget)
            {
                if let Some(strategy) = candidates.iter().find(|c| c.name() == pick.name) {
                    notes.push(format!(
                        "sort strategy chosen by validation trial: {} (accuracy {:.2}, {} candidates, ${:.4} spent on trials)",
                        pick.name,
                        pick.accuracy,
                        trials.len(),
                        trials.iter().map(|t| t.sample_cost_usd).sum::<f64>(),
                    ));
                    lowered[idx].node = PhysicalNode::Sort {
                        criterion,
                        strategy: strategy.clone(),
                    };
                    lowered[idx].pinned = true; // trials considered the budget
                    estimates[idx] = estimator.node(&lowered[idx].node, rows_here);
                }
            }
        }
    }

    // Rewrite 5: downgrade the most expensive unpinned node until the
    // estimate fits the (remaining) budget. A candidate downgrade is only
    // applied when it actually lowers the node's estimate — otherwise the
    // node is frozen (a "cheaper" strategy class can cost more at this
    // row count, e.g. n ratings vs one chunked-merge level).
    if options.fit_budget {
        let remaining = remaining_usd_equivalent(engine, &estimator);
        if remaining.is_finite() {
            let mut frozen = vec![false; lowered.len()];
            loop {
                let total: f64 = estimates.iter().map(|e| e.cost_usd).sum();
                if total <= remaining {
                    break;
                }
                let candidate = lowered
                    .iter()
                    .enumerate()
                    .filter(|(i, l)| {
                        !l.pinned
                            && !frozen[*i]
                            && estimates[*i].cost_usd > 0.0
                            && downgrade(&l.node).is_some()
                    })
                    .max_by(|(i, _), (j, _)| {
                        estimates[*i].cost_usd.total_cmp(&estimates[*j].cost_usd)
                    })
                    .map(|(i, _)| i);
                let Some(idx) = candidate else { break };
                let next = downgrade(&lowered[idx].node).expect("filtered above"); // lint: allow(no-unwrap)
                let next_estimate = estimator.node(&next, estimates[idx].rows_in);
                if next_estimate.cost_usd >= estimates[idx].cost_usd {
                    frozen[idx] = true;
                    continue;
                }
                notes.push(format!(
                    "downgraded {} to {} to fit budget (est ${:.4} > ${:.4} remaining)",
                    lowered[idx].node.strategy_label(),
                    next.strategy_label(),
                    total,
                    remaining,
                ));
                lowered[idx].node = next;
                estimates[idx] = next_estimate;
            }
        }
    }

    // Budget allocation: split the remaining budget (USD, or the USD
    // equivalent of a token cap) across nodes proportionally to their
    // estimates.
    let remaining = remaining_usd_equivalent(engine, &estimator);
    if remaining.is_finite() {
        let total: f64 = estimates.iter().map(|e| e.cost_usd).sum();
        for est in &mut estimates {
            est.alloc_usd = Some(if total > 0.0 {
                remaining * est.cost_usd / total
            } else {
                0.0
            });
        }
    }

    Ok(Plan {
        source,
        nodes: lowered
            .into_iter()
            .zip(estimates)
            .map(|(l, estimate)| PlannedNode {
                node: l.node,
                estimate,
            })
            .collect(),
        budget: engine.budget().budget(),
        notes,
    })
}
