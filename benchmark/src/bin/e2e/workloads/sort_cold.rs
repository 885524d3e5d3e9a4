//! `sort_cold`: the paper's §2 sentiment sort, latency-bound and cold.
//!
//! Every op builds a fresh routed session over the two-backend roster with
//! `benches/route.rs`'s latency model, sorts the reviews by all-pairs
//! comparison, then asks the same session for the top ten (the planner
//! fuses sort+take into top-k, whose comparisons were all just asked, so
//! they hit the shard cache). Wall clock is backend sleep divided by the
//! overlap the dispatcher achieves; the stack's own CPU hides under it.

use std::path::Path;
use std::sync::Arc;

use crowdprompt_core::ops::sort::SortStrategy;
use crowdprompt_core::{Corpus, Plan, PlanOutput, PlanRun, Query, Session};
use crowdprompt_data::reviews::ReviewsDataset;
use crowdprompt_metrics::rank::kendall_tau_b_rankings;
use crowdprompt_oracle::task::{SortCriterion, TaskDescriptor};
use crowdprompt_oracle::types::LanguageModel;
use crowdprompt_oracle::world::ItemId;

use super::{check_ledgers, client_counts, Counts, OpOut, ProbeCtx, Workload};
use crate::harness::{money_eq, Digest, RunArgs};
use crate::layers::Lookup;
use crate::roster::{self, Hedging, Latency};
use crate::trace;

/// Reviews per op: 72·71/2 = 2 556 distinct comparisons. The flavor pool of
/// the paper's Table 1 has 40 items, i.e. 780 comparisons — too few to time.
const REVIEWS: usize = 72;
/// Reviews generated in set-up, of which the first [`REVIEWS`] are sorted.
/// Generating 72 reviews takes sixty microseconds, a figure that differed by
/// half between two processes running the same code (45 µs and 71 µs: memory
/// layout, not work); a corpus a hundred times the sample makes `setup_s`
/// ten milliseconds of dataset generation, which repeats.
const POOL: usize = 100 * REVIEWS;
const TOP: usize = 10;
const PARALLELISM: usize = 8;

pub struct SortCold;

pub struct State {
    seed: u64,
    traced: bool,
    items: Vec<ItemId>,
    gold: Vec<ItemId>,
    corpus: Corpus,
    model: Arc<dyn LanguageModel>,
    /// The last op's session, kept for the probes.
    last: Option<Session>,
}

pub struct Output {
    session: Session,
    plans: [Plan; 2],
    runs: [PlanRun; 2],
    /// Ledger spend between the two plans.
    spend_after_sort: f64,
}

impl Workload for SortCold {
    // Backend sleep, which does not slow with the machine.
    const REFERENCE_SCALED: bool = false;
    type State = State;
    type Input = ();
    type Output = Output;

    fn setup(args: &RunArgs, _scratch: &Path) -> State {
        // The generator draws review after review from one stream, so the
        // head of the pool is what `generate(REVIEWS, seed)` would give.
        let mut data = ReviewsDataset::generate(args.size(POOL, 12), args.seed);
        data.items.truncate(args.size(REVIEWS, 12));
        let corpus = Corpus::from_world(&data.world, &data.items);
        State {
            seed: args.seed,
            traced: args.trace,
            gold: data.world.gold_ranking_by_score(&data.items),
            items: data.items,
            corpus,
            model: roster::model(Arc::new(data.world), args.seed, args.trace),
            last: None,
        }
    }

    fn prepare(state: &mut State) {
        // Drop the previous op's session outside the timed region.
        state.last = None;
    }

    fn op(state: &mut State, (): ()) -> Output {
        let session = trace::span("try_build", || {
            Session::builder()
                .routing(roster::routing(
                    &state.model,
                    Latency::Route,
                    Hedging::On,
                    state.seed,
                    state.traced,
                ))
                .corpus(state.corpus.clone())
                .parallelism(PARALLELISM)
                .seed(state.seed)
                .criterion("by how positive the sentiment is")
                .try_build()
        })
        .expect("routed session builds");
        let sort =
            Query::over(&state.items).sort_with(SortCriterion::LatentScore, SortStrategy::Pairwise);
        let sort_plan = trace::span("plan", || session.plan(sort)).expect("sort plans");
        let sort_run = trace::span("execute", || sort_plan.execute(&session)).expect("sort runs");
        let spend_after_sort = session.engine().client().ledger().spend_usd();
        let top = Query::over(&state.items)
            .sort(SortCriterion::LatentScore)
            .take(TOP);
        let top_plan = trace::span("plan", || session.plan(top)).expect("top-k plans");
        let top_run = trace::span("execute", || top_plan.execute(&session)).expect("top-k runs");
        Output {
            session,
            plans: [sort_plan, top_plan],
            runs: [sort_run, top_run],
            spend_after_sort,
        }
    }

    fn check(state: &mut State, output: Output) -> OpOut {
        let Output {
            session,
            plans,
            runs,
            spend_after_sort,
        } = output;
        let mut out = OpOut {
            attempted: 1,
            ..OpOut::default()
        };
        let PlanOutput::Sorted(sorted) = &runs[0].output else {
            panic!("a pinned sort plan yields a sort result");
        };
        let top = runs[1].output.items().expect("sort+take yields items");
        let mut digest = Digest::default();
        for id in sorted.order.iter().chain(top) {
            digest.u64(id.0);
        }
        out.digest = digest.finish();
        out.quality = kendall_tau_b_rankings(&sorted.order, &state.gold).unwrap_or(0.0);

        // The all-pairs sort runs on a cold session, so nothing it asked was
        // cached and its meter must equal what the ledger was charged. The
        // top-k that follows re-asks cached comparisons, which the operator
        // meters price but the ledger does not bill.
        if !money_eq(runs[0].total_cost_usd(), spend_after_sort) {
            out.failures.push(format!(
                "sort meter ${:.9} != ledger ${spend_after_sort:.9}",
                runs[0].total_cost_usd()
            ));
        }
        check_ledgers(&session, &mut out.failures);
        if sorted.order.len() != state.items.len() || top.len() != TOP.min(state.items.len()) {
            out.failures.push(format!(
                "sorted {} of {} items, top-k returned {}",
                sorted.order.len(),
                state.items.len(),
                top.len()
            ));
        }
        if plans[1].nodes().len() != 1 {
            out.failures
                .push("sort+take did not fuse into one top-k node".into());
        }

        let ledger = session.engine().client().ledger();
        out.llm_calls = ledger.calls();
        out.usd = ledger.spend_usd();
        let mut counts = Counts::new();
        client_counts(session.engine(), &mut counts);
        counts.insert("items", state.items.len() as f64);
        counts.insert(
            "plan.est_calls",
            plans.iter().map(Plan::estimated_calls).sum::<u64>() as f64,
        );
        let metered = runs.iter().map(PlanRun::total_calls).sum::<u64>() as f64;
        counts.insert("plan.calls", metered);
        // The operators parse every response they meter.
        counts.insert("parsed", metered);
        out.counts = counts;
        state.last = Some(session);
        out
    }

    fn regime(metric: &Lookup<'_>) -> Vec<String> {
        let mut out = Vec::new();
        let busy = metric("op.cpu_s") / metric("op.wall_s");
        if busy > 0.6 {
            out.push(format!(
                "cpu ÷ wall is {busy:.2}, a latency-bound op stays under 0.6"
            ));
        }
        let overlap = metric("exec.overlap");
        if overlap < 4.0 {
            out.push(format!(
                "backend overlap is {overlap:.1}, expected at least 4 of 8 workers"
            ));
        }
        out
    }

    fn probe_ctx(state: &State) -> ProbeCtx<'_> {
        let items = &state.items;
        ProbeCtx {
            engine: state.last.as_ref().expect("an op ran").engine(),
            hedged: true,
            blocking_items: &[],
            blocking_k: 0,
            // Every ordered pair was compared by the last op.
            warm_tasks: items
                .iter()
                .zip(items.iter().skip(1))
                .map(|(a, b)| TaskDescriptor::Compare {
                    left: *a,
                    right: *b,
                    criterion: SortCriterion::LatentScore,
                })
                .collect(),
        }
    }
}
