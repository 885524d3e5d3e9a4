//! The four workloads and the loop that drives any of them: set up several
//! times, run one discarded op, then timed ops for the asked number of
//! seconds, checking every op's output outside the timed region.

pub mod pipeline_warm;
pub mod resolve_cold;
pub mod serve_64t;
pub mod sort_cold;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crowdprompt_core::{Engine, Session};
use crowdprompt_oracle::world::ItemId;

use crate::harness::{self, RunArgs};
use crate::layers::{self, Lookup};
use crate::trace;

/// Layer counters read from the stack's public views after one op.
pub type Counts = BTreeMap<&'static str, f64>;

/// What checking one op's output found.
#[derive(Debug, Default)]
pub struct OpOut {
    /// Digest of the op's answers; equal across the ops of a run.
    pub digest: u64,
    /// Accuracy against the dataset's latent gold.
    pub quality: f64,
    /// Backend calls the client ledger billed during the op.
    pub llm_calls: u64,
    /// Ledger spend during the op.
    pub usd: f64,
    /// Units of work attempted (1 for a `Query` op, submits for serving).
    pub attempted: u64,
    /// Units that failed or were refused.
    pub failed: u64,
    /// Output checks that did not hold, in words.
    pub failures: Vec<String>,
    /// `Server::submit` latency percentiles of the op, where there are any.
    pub submit_us: Option<SubmitLatency>,
    pub counts: Counts,
}

#[derive(Debug, Clone, Copy)]
pub struct SubmitLatency {
    pub p50: f64,
    pub p95: f64,
    /// Reported per layer only: see `SUBMITS` in `serve_64t`.
    pub p99: f64,
    /// Largest ÷ smallest per-tenant median.
    pub tenant_p50_spread: f64,
}

/// What the probes need from a workload once its ops are done.
pub struct ProbeCtx<'a> {
    /// A warm engine over the workload's corpus.
    pub engine: &'a Engine,
    /// Whether the workload's router hedges.
    pub hedged: bool,
    /// The items whose blocking index the workload builds (may be empty).
    pub blocking_items: &'a [ItemId],
    /// Neighbours asked per item.
    pub blocking_k: usize,
    /// Tasks whose answers are cached on `engine`, for the dispatch probe.
    pub warm_tasks: Vec<crowdprompt_oracle::TaskDescriptor>,
}

pub trait Workload {
    /// Whether an op's timings are reported in reference seconds (see
    /// [`harness::Reference`]) or as measured. Each workload says why.
    const REFERENCE_SCALED: bool;
    type State;
    /// An op's input, built outside the timed region.
    type Input;
    /// An op's raw output, checked outside the timed region.
    type Output;

    /// Everything before the first op: timed, reported as `setup_s`.
    fn setup(args: &RunArgs, scratch: &Path) -> Self::State;
    /// Calls and spend billed during set-up (the warm store's fill run).
    fn setup_cost(_state: &Self::State) -> (u64, f64) {
        (0, 0.0)
    }
    fn prepare(state: &mut Self::State) -> Self::Input;
    /// One timed op: one front-door call sequence.
    fn op(state: &mut Self::State, input: Self::Input) -> Self::Output;
    fn check(state: &mut Self::State, output: Self::Output) -> OpOut;
    /// Checks over the whole run, after the last op.
    fn finish(_state: &mut Self::State) -> Vec<String> {
        Vec::new()
    }
    fn probe_ctx(state: &Self::State) -> ProbeCtx<'_>;
    /// Per-layer values only this workload can measure (traced runs).
    fn layer_extras(_state: &mut Self::State) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
    /// What, if anything, puts a traced run outside the regime this workload
    /// exists to measure. `metric` looks up a per-layer metric by name, or
    /// the traced ops' `op.cpu_s` and `op.wall_s`.
    fn regime(metric: &Lookup<'_>) -> Vec<String>;
}

/// One timed op as the driver saw it.
pub struct OpRecord {
    pub index: usize,
    pub traced: bool,
    /// The share of the machine the hypervisor withheld during the op.
    pub stolen_share: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// What turns the op's measured times into the reported ones:
    /// [`harness::Reference::scale`] around the op on a workload that is
    /// `REFERENCE_SCALED`, 1 on the others.
    pub to_reference: f64,
    pub out: OpOut,
}

/// The result of one invocation on one workload.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub digest: u64,
    pub quality: f64,
    pub ops: usize,
    /// End-to-end metrics of an untraced run, per-layer metrics of a traced
    /// one, by name.
    pub metrics: Vec<(String, f64)>,
}

pub fn run(args: &RunArgs, scratch: &Path) -> Option<Report> {
    Some(match args.workload.as_str() {
        "sort_cold" => drive::<sort_cold::SortCold>(args, scratch),
        "resolve_cold" => drive::<resolve_cold::ResolveCold>(args, scratch),
        "pipeline_warm" => drive::<pipeline_warm::PipelineWarm>(args, scratch),
        "serve_64t" => drive::<serve_64t::Serve64t>(args, scratch),
        _ => return None,
    })
}

fn drive<W: Workload>(args: &RunArgs, scratch: &Path) -> Report {
    let (mut state, setup_s) = harness::timed_setups(args, || W::setup(args, scratch));

    // A traced run alternates traced and untraced ops so that one process
    // yields both the spans and what recording them cost, and it keeps part
    // of its time for the probes.
    let (min_ops, seconds) = if args.trace {
        (6, args.seconds * 0.5)
    } else {
        (harness::MIN_OPS, args.seconds)
    };
    let mut records: Vec<OpRecord> = Vec::new();
    let mut reference = W::REFERENCE_SCALED.then(harness::Reference::new);
    let mut began = Instant::now();
    for index in 0.. {
        let traced = args.trace && index % 2 == 1;
        let input = W::prepare(&mut state);
        trace::begin_op(index as u64 + 1, traced);
        let reference_before = reference.as_mut().map(|r| r.sample());
        let watch = harness::StealWatch::start();
        let cpu_before = harness::process_cpu_s();
        let started = Instant::now();
        let output = W::op(&mut state, input);
        let wall_s = started.elapsed().as_secs_f64();
        let cpu_s = harness::process_cpu_s() - cpu_before;
        let stolen_share = watch.stolen_share();
        let disturbed = stolen_share > harness::STEAL_LIMIT;
        let to_reference = match (reference_before, reference.as_mut()) {
            (Some(before), Some(r)) => harness::Reference::scale(before, r.sample()),
            _ => 1.0,
        };
        trace::begin_op(0, false);
        let out = W::check(&mut state, output);
        if !args.quick {
            println!(
                "# op {index}{}: wall {wall_s:.6} s, cpu {cpu_s:.2} s, to reference x{to_reference:.3}{}",
                if traced { " (traced)" } else { "" },
                if disturbed {
                    ", disturbed (CPU stolen by the host)"
                } else {
                    ""
                }
            );
        }
        records.push(OpRecord {
            index,
            traced,
            stolen_share,
            wall_s,
            cpu_s,
            to_reference,
            out,
        });
        if index == 0 {
            // The first op pays for lazy set-up (page faults, allocator
            // growth, thread-local initialisation): its output is checked,
            // its time is not reported, and the clock starts after it.
            began = Instant::now();
            continue;
        }
        // Stop when the time is up and enough undisturbed ops are in hand;
        // a run disturbed throughout stops a quarter later, or at the cap.
        let timed = records.len() - 1;
        let calm = records[1..]
            .iter()
            .filter(|r| r.stolen_share <= harness::STEAL_LIMIT)
            .count();
        let elapsed = began.elapsed().as_secs_f64();
        let done = if args.quick {
            timed >= 2
        } else {
            timed >= harness::MAX_OPS
                || (calm >= min_ops && elapsed >= seconds)
                || (timed >= min_ops && elapsed >= harness::OVERTIME * seconds)
        };
        if done {
            break;
        }
    }

    let mut failures = W::finish(&mut state);
    let digest = records[0].out.digest;
    for r in &mut records {
        if r.out.digest != digest {
            failures.push(format!(
                "op {}: digest {:016x} differs from op 0's {digest:016x}",
                r.index, r.out.digest
            ));
        }
        failures.extend(
            r.out
                .failures
                .drain(..)
                .map(|f| format!("op {}: {f}", r.index)),
        );
    }
    let attempted: u64 = records.iter().map(|r| r.out.attempted).sum();
    let failed: u64 = records.iter().map(|r| r.out.failed).sum::<u64>() + failures.len() as u64;

    records.remove(0); // the discarded first op
                       // Every op of a `Query` workload gives the same answers, and a serving
                       // iteration differs from the next only in its never-seen tenth; the first
                       // timed op's accuracy is the one that repeats exactly for a seed.
    let quality = records[0].out.quality;
    let ops = records.len();
    let metrics = if args.trace {
        let hooks = layers::WorkloadHooks {
            extras: W::layer_extras(&mut state),
            regime: &W::regime,
        };
        layers::per_layer(
            args,
            &records,
            W::probe_ctx(&state),
            scratch,
            hooks,
            &mut failures,
        )
    } else {
        let calm = harness::undisturbed(&records, |r| r.stolen_share, harness::MIN_OPS);
        if calm.len() < ops {
            println!("# {} disturbed ops set aside", ops - calm.len());
        }
        end_to_end(setup_s, W::setup_cost(&state), &records[0], &calm)
    };
    Report {
        attempted,
        failed: failed.min(attempted),
        failures,
        digest,
        quality,
        ops,
        metrics,
    }
}

fn end_to_end(
    setup_s: f64,
    setup_cost: (u64, f64),
    first: &OpRecord,
    records: &[&OpRecord],
) -> Vec<(String, f64)> {
    let column = |f: &dyn Fn(&OpRecord) -> f64| records.iter().map(|r| f(r)).collect::<Vec<f64>>();
    // Each op's timings are scaled by the machine's speed around that op
    // (by 1 on a workload that reports them as measured).
    let wall_s = harness::median(&column(&|r| r.wall_s * r.to_reference));
    // On the `Query` door an op is one front-door call, and a few dozen ops
    // support no percentile above the median: both latency metrics are the
    // median op latency there.
    let submit = |pick: &dyn Fn(&SubmitLatency) -> f64| {
        harness::median(&column(&|r| {
            r.out.submit_us.as_ref().map_or(r.wall_s * 1e6, pick) * r.to_reference
        }))
    };
    vec![
        ("setup_s".into(), setup_s),
        ("wall_s".into(), wall_s),
        (
            "llm_calls".into(),
            setup_cost.0 as f64 + harness::median(&column(&|r| r.out.llm_calls as f64)),
        ),
        (
            "usd".into(),
            setup_cost.1 + harness::median(&column(&|r| r.out.usd)),
        ),
        ("quality".into(), first.out.quality),
        ("peak_rss_mb".into(), harness::peak_rss_mb()),
        ("submit_p50_us".into(), submit(&|s| s.p50)),
        ("submit_p95_us".into(), submit(&|s| s.p95)),
    ]
}

// ---------------------------------------------------------------------------
// Helpers shared by the workloads
// ---------------------------------------------------------------------------

/// The client-side counters every workload reports, read after an op.
pub fn client_counts(engine: &Engine, counts: &mut Counts) {
    let client = engine.client();
    let stats = client.stats();
    counts.insert("client.calls", stats.calls() as f64);
    let cache_hits = stats.cache_hits() as f64;
    counts.insert("client.cache_hits", cache_hits);
    counts.insert("client.coalesced", stats.coalesced() as f64);
    counts.insert("client.store_hits", stats.store_hits() as f64);
    counts.insert("client.retries", stats.retries() as f64);
    counts.insert("client.failures", stats.failures() as f64);
    if let Some(router) = client.router() {
        let stats = router.stats();
        let sum = |f: &dyn Fn(&crowdprompt_oracle::route::BackendStats) -> u64| {
            stats.per_backend.iter().map(f).sum::<u64>() as f64
        };
        counts.insert("route.dispatches", sum(&|b| b.dispatches));
        counts.insert("route.wins", sum(&|b| b.wins));
        counts.insert("route.breaker_trips", sum(&|b| b.breaker_trips));
        counts.insert("route.retries", stats.retries as f64);
        counts.insert("route.hedges_launched", stats.hedges_launched as f64);
        counts.insert("route.hedges_won", stats.hedges_won as f64);
    }
    if let Some(store) = client.store() {
        counts.insert("store.entries", store.len() as f64);
        counts.insert("store.file_bytes", file_bytes(store.path()));
    }
}

pub fn file_bytes(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

/// `ledger == budget` on one session: the client ledger and the session's
/// budget tracker must have recorded the same spend.
pub fn check_ledgers(session: &Session, failures: &mut Vec<String>) {
    let ledger = session.engine().client().ledger().spend_usd();
    let budget = session.spent_usd();
    if !harness::money_eq(ledger, budget) {
        failures.push(format!(
            "client ledger ${ledger:.9} != session budget spend ${budget:.9}"
        ));
    }
}

/// Remove a store or journal file and the store's lock file beside it.
pub fn remove_log(path: &Path) {
    let _ = std::fs::remove_file(path);
    let mut lock = path.as_os_str().to_owned();
    lock.push(".lock");
    let _ = std::fs::remove_file(lock);
}
