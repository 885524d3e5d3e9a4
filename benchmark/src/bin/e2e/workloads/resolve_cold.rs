//! `resolve_cold`: citation entity resolution, CPU-bound and cold.
//!
//! Every op builds a fresh session over the same roster at zero latency
//! (unhedged: a hedging router starts a thread per dispatch, which at zero
//! latency buys nothing and times the kernel's scheduler, not the stack),
//! with an empty response store and an empty journal, and resolves the
//! whole mention set: embedding blocking (the largest single layer; it
//! grows quadratically), then one same-entity call per candidate pair. Each
//! call takes the whole miss path — flight claim, router, backend, ledger,
//! store admit, journal append — so both persistence logs are written.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crowdprompt_core::{CacheConfig, Corpus, Plan, PlanRun, Query, ResilienceConfig, Session};
use crowdprompt_data::citations::{CitationDataset, CitationParams};
use crowdprompt_metrics::classify::BinaryConfusion;
use crowdprompt_oracle::task::TaskDescriptor;
use crowdprompt_oracle::types::LanguageModel;
use crowdprompt_oracle::world::ItemId;

use super::{
    check_ledgers, client_counts, file_bytes, remove_log, Counts, OpOut, ProbeCtx, Workload,
};
use crate::harness::{money_eq, Digest, RunArgs};
use crate::layers::Lookup;
use crate::roster::{self, Hedging, Latency};
use crate::trace;

/// Neighbours blocked per mention and the distance ceiling.
const CANDIDATES: usize = 2;
const MAX_DISTANCE: f32 = 1.2;
const PARALLELISM: usize = 2;
/// Mentions resolved. The generator draws each entity's mention count, so
/// the total moves by a few percent with the seed and the quadratic blocking
/// by twice that; a fixed count keeps the amount of work the same on every
/// seed and lets the seed change only its content.
const MENTIONS: usize = 4_000;
/// Blocking must stay a visible share of the op's CPU, or the workload no
/// longer measures `core::blocking` and `embed`.
const MIN_BLOCKING_SHARE: f64 = 0.15;

pub struct ResolveCold;

pub struct State {
    seed: u64,
    traced: bool,
    mentions: Vec<ItemId>,
    /// Labelled validation pairs `(a, b, is_duplicate)`.
    pairs: Vec<(ItemId, ItemId, bool)>,
    corpus: Corpus,
    model: Arc<dyn LanguageModel>,
    store_path: PathBuf,
    journal_path: PathBuf,
    last: Option<(Session, Vec<Vec<ItemId>>)>,
}

pub struct Output {
    session: Session,
    plan: Plan,
    run: PlanRun,
}

impl Workload for ResolveCold {
    // Straight-line CPU work on the engine's two threads. Measured over
    // six sets of six to ten runs: run medians as measured spread 5-20 %,
    // in reference seconds 5-9 %.
    const REFERENCE_SCALED: bool = true;
    type State = State;
    type Input = ();
    type Output = Output;

    fn setup(args: &RunArgs, scratch: &Path) -> State {
        // `paper_scale()` is the size of the DBLP–Scholar validation split
        // the paper resolves: 2 400 entities, ≈4.3 k mentions, of which the
        // first [`MENTIONS`] are resolved.
        let paper = CitationParams::paper_scale();
        let params = CitationParams {
            n_entities: args.size(paper.n_entities, 40),
            n_pairs: args.size(paper.n_pairs, 60),
            ..paper
        };
        let mut data = CitationDataset::generate(&params, args.seed);
        data.mentions.truncate(args.size(MENTIONS, 100));
        let kept: std::collections::HashSet<ItemId> = data.mentions.iter().copied().collect();
        data.pairs
            .retain(|(a, b, _)| kept.contains(a) && kept.contains(b));
        let corpus = Corpus::from_world(&data.world, &data.mentions);
        State {
            seed: args.seed,
            traced: args.trace,
            mentions: data.mentions,
            pairs: data.pairs,
            corpus,
            model: roster::model(Arc::new(data.world), args.seed, args.trace),
            store_path: scratch.join("resolve-store.log"),
            journal_path: scratch.join("resolve-journal.log"),
            last: None,
        }
    }

    fn prepare(state: &mut State) {
        // Release the previous session's store lock, then start from empty
        // files: a cold op finds nothing on disk.
        state.last = None;
        remove_log(&state.store_path);
        remove_log(&state.journal_path);
    }

    fn op(state: &mut State, (): ()) -> Output {
        let session = trace::span("try_build", || {
            Session::builder()
                .routing(roster::routing(
                    &state.model,
                    Latency::Zero,
                    Hedging::Off,
                    state.seed,
                    state.traced,
                ))
                .cache(CacheConfig::new().store_path(&state.store_path))
                .resilience(ResilienceConfig::new().journal_path(&state.journal_path))
                .corpus(state.corpus.clone())
                .parallelism(PARALLELISM)
                .seed(state.seed)
                .try_build()
        })
        .expect("session with store and journal builds");
        let query = Query::over(&state.mentions).resolve(CANDIDATES, MAX_DISTANCE);
        let plan = trace::span("plan", || session.plan(query)).expect("resolve plans");
        let run = trace::span("execute", || plan.execute(&session)).expect("resolve runs");
        Output { session, plan, run }
    }

    fn check(state: &mut State, output: Output) -> OpOut {
        let Output { session, plan, run } = output;
        let mut out = OpOut {
            attempted: 1,
            ..OpOut::default()
        };
        let groups = run.output.groups().expect("resolve yields groups").to_vec();
        let mut digest = Digest::default();
        let mut group_of: HashMap<ItemId, usize> = HashMap::with_capacity(state.mentions.len());
        for (g, group) in groups.iter().enumerate() {
            digest.u64(group.len() as u64);
            for id in group {
                digest.u64(id.0);
                group_of.insert(*id, g);
            }
        }
        out.digest = digest.finish();

        // Pairwise F1 over the dataset's labelled validation pairs.
        let mut matrix = BinaryConfusion::new();
        for (a, b, duplicate) in &state.pairs {
            let same = match (group_of.get(a), group_of.get(b)) {
                (Some(ga), Some(gb)) => ga == gb,
                _ => false,
            };
            matrix.record(same, *duplicate);
        }
        out.quality = matrix.f1().unwrap_or(0.0);

        let client = session.engine().client();
        let ledger = client.ledger();
        let hits = client.stats().cache_hits() + client.stats().store_hits();
        // Operator meters price every response, cached or not; with no hits
        // the meter and the ledger saw exactly the same charges.
        if hits == 0 && !money_eq(run.total_cost_usd(), ledger.spend_usd()) {
            out.failures.push(format!(
                "resolve meter ${:.9} != ledger ${:.9}",
                run.total_cost_usd(),
                ledger.spend_usd()
            ));
        }
        check_ledgers(&session, &mut out.failures);
        if group_of.len() != state.mentions.len() {
            out.failures.push(format!(
                "groups cover {} of {} mentions",
                group_of.len(),
                state.mentions.len()
            ));
        }
        out.llm_calls = ledger.calls();
        out.usd = ledger.spend_usd();

        let mut counts = Counts::new();
        client_counts(session.engine(), &mut counts);
        counts.insert("items", state.mentions.len() as f64);
        counts.insert("plan.est_calls", plan.estimated_calls() as f64);
        counts.insert("plan.calls", run.total_calls() as f64);
        counts.insert("parsed", run.total_calls() as f64);
        counts.insert("journal.file_bytes", file_bytes(&state.journal_path));
        out.counts = counts;
        state.last = Some((session, groups));
        out
    }

    fn finish(state: &mut State) -> Vec<String> {
        // Nothing to check over the run; leave no files behind. The last
        // session stays alive for the probes, the files it holds open do not
        // need their names.
        remove_log(&state.store_path);
        remove_log(&state.journal_path);
        Vec::new()
    }

    fn regime(metric: &Lookup<'_>) -> Vec<String> {
        let mut out = Vec::new();
        let busy = metric("op.cpu_s") / metric("op.wall_s");
        if busy < 0.9 {
            out.push(format!(
                "cpu ÷ wall is {busy:.2}, a CPU-bound op keeps a core busy"
            ));
        }
        let hits = metric("client.cache_hits") + metric("client.store_hits");
        if hits > 0.01 * metric("client.calls") {
            out.push(format!("{hits} cache or store hits: the op is not cold"));
        }
        let blocking = metric("attr.blocking_s") / metric("op.cpu_s");
        if blocking < MIN_BLOCKING_SHARE {
            out.push(format!(
                "blocking is {:.0} % of the op's CPU, expected at least {:.0} %",
                blocking * 100.0,
                MIN_BLOCKING_SHARE * 100.0
            ));
        }
        out
    }

    fn probe_ctx(state: &State) -> ProbeCtx<'_> {
        let (session, groups) = state.last.as_ref().expect("an op ran");
        // Pairs inside a resolved group were asked (or inferred); the ones
        // the op asked are cached on its session.
        let warm_tasks = groups
            .iter()
            .filter(|g| g.len() >= 2)
            .map(|g| TaskDescriptor::SameEntity {
                left: g[0].min(g[1]),
                right: g[0].max(g[1]),
            })
            .collect();
        ProbeCtx {
            engine: session.engine(),
            hedged: false,
            blocking_items: &state.mentions,
            blocking_k: CANDIDATES,
            warm_tasks,
        }
    }
}
