//! `pipeline_warm`: a filter → categorize → impute `Query` over restaurant
//! records, CPU-bound and answered entirely from a warm response store.
//!
//! Set-up runs the pipeline once through zero-latency backends to fill a
//! store file. A timed op then builds a fresh session on that file (opening
//! the store rebuilds its index), plans and executes: zero backend calls,
//! so the stack's own per-request cost — render, fingerprint, token
//! estimate, budget admission, store reads, shard seeding, packed-answer
//! parsing — is the whole wall clock.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crowdprompt_core::{CacheConfig, Corpus, Plan, PlanRun, Query, Session};
use crowdprompt_data::products;
use crowdprompt_oracle::task::TaskDescriptor;
use crowdprompt_oracle::types::LanguageModel;
use crowdprompt_oracle::world::ItemId;

use super::{check_ledgers, client_counts, remove_log, Counts, OpOut, ProbeCtx, Workload};
use crate::harness::{Digest, RunArgs, SplitMix};
use crate::layers::Lookup;
use crate::roster::{self, Hedging, Latency};
use crate::trace;

const RECORDS: usize = 40_000;
/// Labelled records the imputation draws neighbours from. Kept small on
/// purpose: the k-NN over the pool grows with its size, and at 15 k labelled
/// records an op measures `embed` and nothing else.
const POOL: usize = 512;
const PACK_WIDTH: usize = 8;
const PARALLELISM: usize = 2;
const LABELS: [&str; 3] = ["casual", "upscale", "takeout"];
const KEEP: &str = "casual";

pub struct PipelineWarm;

pub struct State {
    seed: u64,
    traced: bool,
    corpus: Corpus,
    model: Arc<dyn LanguageModel>,
    rest: Vec<ItemId>,
    pool: Vec<(ItemId, String)>,
    store_path: PathBuf,
    /// What the fill run produced and was billed.
    fill_digest: u64,
    fill_calls: u64,
    fill_usd: f64,
    /// Imputation accuracy of the fill run's output against gold.
    quality: f64,
    last: Option<Session>,
}

pub struct Output {
    session: Session,
    plan: Plan,
    run: PlanRun,
}

fn labels() -> Vec<String> {
    LABELS.iter().map(|l| (*l).to_owned()).collect()
}

fn pipeline(rest: &[ItemId], pool: &[(ItemId, String)]) -> Query {
    Query::over(rest)
        .filter("ambiguous")
        .keep_label(labels(), KEEP)
        .impute("city", pool.to_vec())
}

fn digest_values(values: &[String]) -> u64 {
    let mut digest = Digest::default();
    for v in values {
        digest.str(v);
    }
    digest.finish()
}

fn session(
    model: &Arc<dyn LanguageModel>,
    corpus: &Corpus,
    store: &Path,
    seed: u64,
    traced: bool,
) -> Session {
    Session::builder()
        .routing(roster::routing(
            model,
            Latency::Zero,
            // No op makes a backend call, and the fill run has no use for a
            // thread per call.
            Hedging::Off,
            seed,
            traced,
        ))
        .cache(CacheConfig::new().store_path(store))
        .corpus(corpus.clone())
        .pack_width(PACK_WIDTH)
        .parallelism(PARALLELISM)
        .seed(seed)
        .try_build()
        .expect("session over the store builds")
}

impl Workload for PipelineWarm {
    // Straight-line CPU work on the engine's two threads. Measured over
    // six sets of four to ten runs: run medians as measured spread 3-15 %,
    // in reference seconds 1-5 %.
    const REFERENCE_SCALED: bool = true;
    type State = State;
    type Input = ();
    type Output = Output;

    fn setup(args: &RunArgs, scratch: &Path) -> State {
        let mut data = products::restaurants(args.size(RECORDS, POOL + 200), args.seed);
        // The generator has no categorical attribute to classify on; add one.
        let mut rng = SplitMix(args.seed ^ 0x006c_6162_656c);
        for id in &data.records {
            data.world
                .set_attr(*id, "label", LABELS[rng.below(LABELS.len())]);
        }
        let corpus = Corpus::from_world(&data.world, &data.records);
        let (pool_ids, rest) = data.records.split_at(POOL);
        let pool: Vec<(ItemId, String)> = pool_ids
            .iter()
            .map(|id| (*id, data.gold_value(*id).to_owned()))
            .collect();
        let rest = rest.to_vec();
        let gold = data.gold;
        let model = roster::model(Arc::new(data.world), args.seed, args.trace);
        let store_path = scratch.join("pipeline-store.log");
        remove_log(&store_path);

        // Fill: the pipeline once, cold, through zero-latency backends. A
        // traced process records it, because the timed ops make no backend
        // call for the wrappers to see.
        trace::begin_op(u64::from(u32::MAX), args.trace);
        let fill = session(&model, &corpus, &store_path, args.seed, args.trace);
        let run = fill
            .plan(pipeline(&rest, &pool))
            .and_then(|plan| plan.execute(&fill))
            .expect("fill run completes");
        trace::begin_op(0, false);
        let values = run.output.values().expect("impute yields values");
        let fill_digest = digest_values(values);
        let ledger = fill.engine().client().ledger();
        let (fill_calls, fill_usd) = (ledger.calls(), ledger.spend_usd());

        // `PlanOutput::Values` carries no item ids, so accuracy needs the
        // items the values belong to: the same chain as two plans, answered
        // from the cache the fill run just warmed.
        let kept = fill
            .plan(
                Query::over(&rest)
                    .filter("ambiguous")
                    .keep_label(labels(), KEEP),
            )
            .and_then(|plan| plan.execute(&fill))
            .expect("filter half re-runs")
            .output
            .into_items()
            .expect("filter half yields items");
        let imputed = fill
            .plan(Query::over(&kept).impute("city", pool.clone()))
            .and_then(|plan| plan.execute(&fill))
            .expect("impute half re-runs");
        let imputed = imputed.output.values().expect("impute yields values");
        assert_eq!(
            digest_values(imputed),
            fill_digest,
            "the chain run as two plans must produce the fill run's values"
        );
        let correct = kept
            .iter()
            .zip(imputed)
            .filter(|(id, value)| gold.get(*id) == Some(*value))
            .count();
        let quality = correct as f64 / kept.len().max(1) as f64;
        drop(fill); // releases the store's writer lock

        State {
            seed: args.seed,
            traced: args.trace,
            corpus,
            model,
            rest,
            pool,
            store_path,
            fill_digest,
            fill_calls,
            fill_usd,
            quality,
            last: None,
        }
    }

    fn setup_cost(state: &State) -> (u64, f64) {
        (state.fill_calls, state.fill_usd)
    }

    fn prepare(state: &mut State) {
        state.last = None; // one writer per store file
    }

    fn op(state: &mut State, (): ()) -> Output {
        let session = trace::span("try_build", || {
            session(
                &state.model,
                &state.corpus,
                &state.store_path,
                state.seed,
                state.traced,
            )
        });
        let query = pipeline(&state.rest, &state.pool);
        let plan = trace::span("plan", || session.plan(query)).expect("pipeline plans");
        let run = trace::span("execute", || plan.execute(&session)).expect("pipeline runs");
        Output { session, plan, run }
    }

    fn check(state: &mut State, output: Output) -> OpOut {
        let Output { session, plan, run } = output;
        let mut out = OpOut {
            attempted: 1,
            quality: state.quality,
            ..OpOut::default()
        };
        out.digest = digest_values(run.output.values().expect("impute yields values"));
        if out.digest != state.fill_digest {
            out.failures.push(format!(
                "warm output {:016x} differs from the fill run's {:016x}",
                out.digest, state.fill_digest
            ));
        }
        let ledger = session.engine().client().ledger();
        if ledger.calls() != 0 {
            out.failures.push(format!(
                "warm op billed {} backend calls, expected 0",
                ledger.calls()
            ));
        }
        check_ledgers(&session, &mut out.failures);
        out.llm_calls = ledger.calls();
        out.usd = ledger.spend_usd();

        let mut counts = Counts::new();
        client_counts(session.engine(), &mut counts);
        counts.insert("items", state.rest.len() as f64);
        counts.insert("plan.est_calls", plan.estimated_calls() as f64);
        counts.insert("plan.calls", run.total_calls() as f64);
        counts.insert("parsed", run.total_calls() as f64);
        out.counts = counts;
        state.last = Some(session);
        out
    }

    fn finish(state: &mut State) -> Vec<String> {
        remove_log(&state.store_path);
        Vec::new()
    }

    fn regime(metric: &Lookup<'_>) -> Vec<String> {
        let (hits, calls) = (metric("client.store_hits"), metric("plan.calls"));
        if hits.to_bits() == calls.to_bits() {
            Vec::new()
        } else {
            vec![format!(
                "{hits} store hits for {calls} plan calls: the store is not warm"
            )]
        }
    }

    fn probe_ctx(state: &State) -> ProbeCtx<'_> {
        ProbeCtx {
            engine: state.last.as_ref().expect("an op ran").engine(),
            hedged: false,
            blocking_items: &[],
            blocking_k: 0,
            warm_tasks: state
                .rest
                .iter()
                .take(4_096)
                .map(|id| TaskDescriptor::CheckPredicate {
                    item: *id,
                    predicate: "ambiguous".into(),
                })
                .collect(),
        }
    }
}
