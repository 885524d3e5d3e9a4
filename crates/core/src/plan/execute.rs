//! Physical plan execution with per-node cost attribution.
//!
//! Each node runs through the operator layer (and therefore the engine's
//! pipelined dispatcher). Every node's spend is recorded as a
//! [`StepReport`], so a plan run can be audited node by node against the
//! planner's estimates.

use crowdprompt_oracle::world::ItemId;
use crowdprompt_oracle::Usage;

use crate::blocking::BlockingIndex;
use crate::error::EngineError;
use crate::exec::{Engine, OpSalvage};
use crate::ops;
use crate::ops::impute::LabeledPool;
use crate::ops::join::JoinResult;
use crate::ops::sort::SortResult;
use crate::outcome::Outcome;

use super::{PhysicalNode, Plan};

/// The typed result of a plan's final node.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOutput {
    /// An item set (the plan ended on a transformation node).
    Items(Vec<ItemId>),
    /// A full sort result (ordering plus omission/hallucination counts).
    Sorted(SortResult),
    /// One label per input item, in input order.
    Labels(Vec<String>),
    /// A count of items satisfying the predicate.
    Count(u64),
    /// The maximum item.
    Max(ItemId),
    /// Duplicate groups (dedup / cluster).
    Groups(Vec<Vec<ItemId>>),
    /// Join matches and pruning statistics.
    Join(JoinResult),
    /// One imputed value per input item, in input order.
    Values(Vec<String>),
}

impl PlanOutput {
    /// The resulting item set, if the plan produced one (a transformation
    /// chain or a sort).
    pub fn items(&self) -> Option<&[ItemId]> {
        match self {
            PlanOutput::Items(v) => Some(v),
            PlanOutput::Sorted(s) => Some(&s.order),
            _ => None,
        }
    }

    /// The resulting item set by value (items or sort order).
    pub fn into_items(self) -> Option<Vec<ItemId>> {
        match self {
            PlanOutput::Items(v) => Some(v),
            PlanOutput::Sorted(s) => Some(s.order),
            _ => None,
        }
    }

    /// The count, for count plans.
    pub fn count(&self) -> Option<u64> {
        match self {
            PlanOutput::Count(n) => Some(*n),
            _ => None,
        }
    }

    /// The maximum item, for max plans.
    pub fn max_item(&self) -> Option<ItemId> {
        match self {
            PlanOutput::Max(id) => Some(*id),
            _ => None,
        }
    }

    /// The duplicate groups, for dedup/cluster plans.
    pub fn groups(&self) -> Option<&[Vec<ItemId>]> {
        match self {
            PlanOutput::Groups(g) => Some(g),
            _ => None,
        }
    }

    /// The per-item labels, for categorize plans.
    pub fn labels(&self) -> Option<&[String]> {
        match self {
            PlanOutput::Labels(l) => Some(l),
            _ => None,
        }
    }

    /// The imputed values, for impute plans.
    pub fn values(&self) -> Option<&[String]> {
        match self {
            PlanOutput::Values(v) => Some(v),
            _ => None,
        }
    }

    /// The join result, for join plans.
    pub fn join_result(&self) -> Option<&JoinResult> {
        match self {
            PlanOutput::Join(j) => Some(j),
            _ => None,
        }
    }
}

/// Cost breakdown for one executed plan node.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Node display name.
    pub name: String,
    /// Items entering the node.
    pub items_in: usize,
    /// Items leaving the node.
    pub items_out: usize,
    /// Token usage of the node.
    pub usage: Usage,
    /// Calls made by the node.
    pub calls: u64,
    /// Dollar cost of the node.
    pub cost_usd: f64,
    /// Salvage notes left by the operators this node ran, when the engine
    /// executed under a degrade [`crate::exec::FailurePolicy`]: how many
    /// items each operator salvaged and exactly which it quarantined.
    /// Empty under fail-fast.
    pub salvage: Vec<OpSalvage>,
}

impl StepReport {
    /// Total items quarantined across this node's salvage notes.
    pub fn quarantined_count(&self) -> usize {
        self.salvage.iter().map(|n| n.quarantined.len()).sum()
    }
}

/// An executed plan: the typed output plus per-node cost attribution.
#[derive(Debug, Clone)]
pub struct PlanRun {
    /// The final node's typed output.
    pub output: PlanOutput,
    /// Per-node spend, in execution order.
    pub steps: Vec<StepReport>,
}

impl PlanRun {
    /// Total dollar cost across nodes.
    pub fn total_cost_usd(&self) -> f64 {
        self.steps.iter().map(|s| s.cost_usd).sum()
    }

    /// Total LLM calls across nodes.
    pub fn total_calls(&self) -> u64 {
        self.steps.iter().map(|s| s.calls).sum()
    }

    /// Total token usage across nodes.
    pub fn total_usage(&self) -> Usage {
        let mut usage = Usage::default();
        for step in &self.steps {
            usage += step.usage;
        }
        usage
    }

    /// Collapse the run into a cost-annotated [`Outcome`] — the shape the
    /// eager operator calls report the same work in.
    pub fn into_outcome<T>(self, value: impl FnOnce(PlanOutput) -> T) -> Outcome<T> {
        let usage = self.total_usage();
        let calls = self.total_calls();
        let cost_usd = self.total_cost_usd();
        Outcome {
            value: value(self.output),
            usage,
            calls,
            cost_usd,
        }
    }
}

fn push_report<T>(
    engine: &Engine,
    steps: &mut Vec<StepReport>,
    name: String,
    items_in: usize,
    items_out: usize,
    out: &Outcome<T>,
) {
    steps.push(StepReport {
        name,
        items_in,
        items_out,
        usage: out.usage,
        calls: out.calls,
        cost_usd: out.cost_usd,
        // Under a degrade policy the operators leave salvage notes on the
        // engine; draining them here attributes each note to the node
        // whose operators produced it.
        salvage: engine.take_salvage(),
    });
}

pub(crate) fn execute(engine: &Engine, plan: &Plan) -> Result<PlanRun, EngineError> {
    let mut items: Vec<ItemId> = plan.source.clone();
    // Discard salvage notes a previous (direct, non-plan) operator call may
    // have left behind, so they are not attributed to this plan's first node.
    let _ = engine.take_salvage();
    let mut steps: Vec<StepReport> = Vec::with_capacity(plan.nodes.len());
    let mut output: Option<PlanOutput> = None;
    let last = plan.nodes.len().saturating_sub(1);
    for (idx, planned) in plan.nodes.iter().enumerate() {
        let node = &planned.node;
        let name = node.name();
        let items_in = items.len();
        match node {
            PhysicalNode::Filter {
                predicate,
                strategy,
                pack,
                ..
            } => {
                let out = ops::filter::filter_packed(engine, &items, predicate, *strategy, *pack)?;
                push_report(engine, &mut steps, name, items_in, out.value.len(), &out);
                items = out.value;
            }
            PhysicalNode::Sort {
                criterion,
                strategy,
            } => {
                let out = ops::sort::sort(engine, &items, *criterion, strategy)?;
                push_report(
                    engine,
                    &mut steps,
                    name,
                    items_in,
                    out.value.order.len(),
                    &out,
                );
                if idx == last {
                    output = Some(PlanOutput::Sorted(out.value));
                } else {
                    items = out.value.order;
                }
            }
            PhysicalNode::Take { k } => {
                items.truncate(*k);
                let free = Outcome::free(());
                push_report(engine, &mut steps, name, items_in, items.len(), &free);
            }
            PhysicalNode::TopK {
                criterion,
                k,
                shortlist_factor,
            } => {
                let out = ops::topk::top_k(engine, &items, *criterion, *k, *shortlist_factor)?;
                push_report(engine, &mut steps, name, items_in, out.value.len(), &out);
                items = out.value;
            }
            PhysicalNode::Categorize { labels, pack } => {
                let out = ops::categorize::categorize_packed(engine, &items, labels, *pack)?;
                push_report(engine, &mut steps, name, items_in, items_in, &out);
                output = Some(PlanOutput::Labels(out.value));
            }
            PhysicalNode::KeepLabel { labels, keep, pack } => {
                // A quarantined item carries the empty placeholder label,
                // which is never `keep`, so it is not kept.
                let assigned =
                    ops::categorize::classify(engine, "keep-label", &items, labels, *pack)?;
                let out = assigned.map(|assigned| -> Vec<ItemId> {
                    let labelled = items.iter().zip(assigned);
                    labelled
                        .filter_map(|(id, label)| (label == *keep).then_some(*id))
                        .collect()
                });
                push_report(engine, &mut steps, name, items_in, out.value.len(), &out);
                items = out.value;
            }
            PhysicalNode::Count {
                predicate,
                strategy,
                pack,
            } => {
                let out = ops::count::count_packed(engine, &items, predicate, *strategy, *pack)?;
                push_report(engine, &mut steps, name, items_in, 1, &out);
                output = Some(PlanOutput::Count(out.value));
            }
            PhysicalNode::Max {
                criterion,
                strategy,
            } => {
                let out = ops::max::find_max(engine, &items, *criterion, *strategy)?;
                push_report(engine, &mut steps, name, items_in, 1, &out);
                output = Some(PlanOutput::Max(out.value));
            }
            PhysicalNode::Resolve {
                candidates,
                max_distance,
            } => {
                let index = BlockingIndex::build(engine, &items)?;
                let out = ops::resolve::dedup(engine, &items, &index, *candidates, *max_distance)?;
                push_report(engine, &mut steps, name, items_in, out.value.len(), &out);
                output = Some(PlanOutput::Groups(out.value));
            }
            PhysicalNode::Cluster {
                seed_size,
                probe_cap,
            } => {
                let out = match probe_cap {
                    Some(cap) => ops::cluster::cluster_blocked(engine, &items, *seed_size, *cap)?,
                    None => ops::cluster::cluster(engine, &items, *seed_size)?,
                };
                push_report(engine, &mut steps, name, items_in, out.value.len(), &out);
                output = Some(PlanOutput::Groups(out.value));
            }
            PhysicalNode::Join { right, strategy } => {
                let out = ops::join::fuzzy_join(engine, &items, right, strategy)?;
                push_report(
                    engine,
                    &mut steps,
                    name,
                    items_in,
                    out.value.matches.len(),
                    &out,
                );
                output = Some(PlanOutput::Join(out.value));
            }
            PhysicalNode::Impute {
                attribute,
                labeled,
                strategy,
                pack,
            } => {
                let pool = LabeledPool::build(engine, labeled)?;
                let out =
                    ops::impute::impute_packed(engine, &items, attribute, &pool, strategy, *pack)?;
                push_report(engine, &mut steps, name, items_in, items_in, &out);
                output = Some(PlanOutput::Values(out.value));
            }
        }
    }
    Ok(PlanRun {
        output: output.unwrap_or(PlanOutput::Items(items)),
        steps,
    })
}
