//! The execution engine: budget-guarded, pipelined, parallel unit-task
//! dispatch.
//!
//! # One dispatch core
//!
//! Every entry point lowers to the same three steps, and the
//! [`FailurePolicy`] is a value they consult, not a second implementation:
//!
//! ```text
//!  RunSpec ─► prepare ─► pump ───────────────────────────────► BatchOutcome
//!             render,    fair feed ───► caller ── execute ─┐
//!             count,     (jobs point    helper 2 ─ execute ─┼─► the job's
//!             estimate,   into their     ...                │   batch: slots
//!             pick the    batch; claims helper W ─ execute ─┘   in input order
//!             admission   ≤ workers×batch)
//!             mode
//! ```
//!
//! * **prepare** renders each call once, counts its prompt's tokens once
//!   (the count rides on the work item for whoever needs it later — the
//!   estimate here, context fitting in the pack loop) and stamps it with
//!   how it is admitted against the budget: covered by a whole-batch
//!   cumulative check (a per-item batch that cannot fit is refused before
//!   any call), admitted per call at execution time against actual spend
//!   (sampled votes and packs, whose retries cannot be known up front), or
//!   — when the policy degrades — admitted only after a free local hit has
//!   been ruled out.
//! * **pump** is the one worker loop in the crate. It queues the batch on
//!   the engine's lane of a [`FairFeed`] — its own one-lane feed (one-lane
//!   deficit round robin *is* FIFO) or, scoped to a tenant by
//!   [`crate::serve::Server`], that tenant's lane of the server's feed —
//!   and the calling thread works the feed beside up to `parallelism − 1`
//!   helper threads scoped to the call. The batch holds what *any* worker
//!   needs to run one of its jobs (the rendered requests with their
//!   admission, result slots, outstanding count, stop flag, attempt
//!   allowance, ledger, trace) and a job is a three-word handle on one of
//!   its slots, so a worker runs whichever batch's job it drew and a caller
//!   whose last jobs are in flight elsewhere waits on its batch. The
//!   requests are freed with the batch, by the caller that rendered them
//!   once its helpers are joined — not one at a time by whichever worker
//!   drew each, which had helpers returning memory to the caller's
//!   allocator arena while the caller allocated from it. Workers *pull*
//!   small claims, at most `workers × MAX_CLAIM` claimed-but-unfinished;
//!   claim size doubles after a claim that averaged under
//!   `FAST_TASK_MICROS` per job and halves after a slow one. On a serving
//!   stack the feed orders only the work that needs a slot: a batch whose
//!   admission is settled is probed by the thread that rendered it, its
//!   hits are recorded and billed before it is shared, and only its misses
//!   are queued, counted as outstanding and used to size the helpers — a
//!   batch of hits never meets the feed, a job, a lease or the condvar.
//! * **execute** is the one worker body: admit, probe the client once
//!   ([`LlmClient::probe`], the request's one hashing; its key rides into
//!   the call), dispatch with up to the batch's attempt allowance, account.
//!   With one attempt it *is* the fail-fast worker. A job probed at
//!   enqueue carries its key instead and is only re-checked by it. On a
//!   serving stack a call that may reach the backend holds a slot lease; a
//!   hit — at enqueue, at the probe, or at the re-check — takes none.
//!
//! The policy is read at three points in this file — the attempt
//! allowance and stop-on-first-error in `RunShape`, and
//! salvage-before-admission in prepare — plus [`Settle`], the per-item
//! helper operators hand their parse results to.
//!
//! [`Engine::run`] and [`Engine::run_many`] are always strict (callers
//! pattern-match on their `Err`; the ranking and matching operators reach
//! them through `ops::judge`); [`Engine::run_outcome`] obeys the engine's
//! policy.
//!
//! # Packed dispatch
//!
//! [`RunSpec::packed`] is the multi-item prompt path: point-wise tasks
//! sharing one instruction are packed `width` to a prompt
//! ([`TaskDescriptor::Packed`]), cutting the call count to ⌈n/width⌉. A pack
//! whose prompt overflows the context window is split before dispatch; a
//! pack whose response cannot be parsed into one answer per item — or, when
//! the policy degrades, that fails outright — is bisected and retried, one
//! pumped round per level, down to bare singletons that carry the same
//! fingerprint the per-item path issues.
//!
//! # Deadlines and resume
//!
//! [`Engine::with_deadline_ms`] is a wall-clock allowance per run entry,
//! threaded onto every [`CompletionRequest`] so the client and router clip
//! retry backoff and hedge waits against it; under
//! [`FailurePolicy::Degrade`], work not yet dispatched when the deadline
//! passes is quarantined as [`EngineError::DeadlineExceeded`].
//!
//! Crash resume is not the engine's business: a run journal attached to the
//! client ([`LlmClient::attach_journal`]) answers a replayed call with
//! `cached: false` and the original usage and pricing, so it is admitted,
//! charged to the budget and traced by the same code as a paid call.
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crowdprompt_oracle::error::LlmError;
use crowdprompt_oracle::route::{LeaseTable, Router, SlotLease};
use crowdprompt_oracle::task::TaskDescriptor;
use crowdprompt_oracle::tokenizer::count_tokens;
use crowdprompt_oracle::types::{CompletionRequest, CompletionResponse};
use crowdprompt_oracle::{LlmClient, Probe};

use parking_lot::{Condvar, Mutex};

use crate::budget::{Budget, BudgetTracker};
use crate::corpus::Corpus;
use crate::error::EngineError;
use crate::outcome::CostMeter;
use crate::template::{render, RenderOptions};
use crate::trace::{Trace, TraceEvent};

/// Smallest number of jobs a worker claims from the feed at once.
const MIN_CLAIM: usize = 1;
/// Largest number of jobs a worker claims from the feed at once; also bounds
/// the work queue: at most `parallelism × MAX_CLAIM` jobs are claimed ahead
/// of completion.
const MAX_CLAIM: usize = 32;
/// Per-job mean duration (µs) below which a worker's claim is deemed "fast"
/// (cache or coalesced hits) and its next claim doubles.
const FAST_TASK_MICROS: u64 = 200;

/// Next claim size given how the last claim of `claimed` jobs went.
fn adapt_claim(claim: usize, started: Instant, claimed: usize) -> usize {
    let per_task_us = started.elapsed().as_micros() as u64 / claimed as u64;
    if per_task_us < FAST_TASK_MICROS {
        (claim * 2).min(MAX_CLAIM)
    } else {
        (claim / 2).max(MIN_CLAIM)
    }
}

/// The gate of a serving stack: a backend-slot lease table, the generation
/// clock its leases expire by, and their TTL. An engine scoped to a tenant
/// holds a lease around every call that may reach the backend.
pub(crate) struct LeaseGate {
    pub(crate) table: LeaseTable,
    pub(crate) generation: AtomicU64,
    pub(crate) ttl: u64,
}

impl LeaseGate {
    /// The current generation.
    pub(crate) fn now(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Reserve → confirm. With every slot validly held, yield until a
    /// holder releases or a stalled lease expires; a reservation that
    /// expired before its confirm is re-reserved, never used.
    fn acquire(&self) -> HeldLease<'_> {
        loop {
            let Some(lease) = self.table.reserve(self.now(), self.ttl) else {
                parking_lot::blocking_region("gate: waiting for a slot lease");
                std::thread::yield_now();
                continue;
            };
            let held = HeldLease {
                table: &self.table,
                lease,
            };
            if self.table.confirm(&held.lease, self.now(), self.ttl) {
                return held;
            }
        }
    }
}

/// Releases a slot lease on drop, so no exit path of a dispatch (success,
/// error, panic) strands a slot.
struct HeldLease<'a> {
    table: &'a LeaseTable,
    lease: SlotLease,
}

impl Drop for HeldLease<'_> {
    fn drop(&mut self) {
        self.table.release(&self.lease);
    }
}

/// Executes unit tasks for the declarative operators.
///
/// Responsibilities:
/// * render tasks into prompts over the engine's [`Corpus`],
/// * estimate and admit each call against the [`BudgetTracker`],
/// * dispatch through the [`LlmClient`] (its sharded cache and request
///   coalescing, and the router's retries below them), pipelining batches
///   across worker threads,
/// * record actual spend.
pub struct Engine {
    client: Arc<LlmClient>,
    corpus: Arc<Corpus>,
    /// Worst-case serving-price over reference-price ratio across the
    /// client's roster (`1.0` for one backend): budget admission scales
    /// estimates by this so a USD cap holds even when a pricier backend
    /// serves the call.
    admission_price_factor: f64,
    budget: Arc<BudgetTracker>,
    /// Where the pump queues this engine's batches and claims jobs.
    lane: Lane,
    /// Held around every call that may reach the backend, when serving.
    gate: Option<Arc<LeaseGate>>,
    parallelism: usize,
    pack_width: usize,
    blocking_recall_target: Option<f32>,
    temperature: f64,
    seed: u64,
    render_opts: RenderOptions,
    trace: Option<Arc<Trace>>,
    failure_policy: FailurePolicy,
    /// Wall-clock allowance per run entry point; threaded onto every
    /// request so the dispatch stack clips sleeps against it.
    deadline_ms: Option<u64>,
    /// Degraded-run notes [`Settle::finish`] leaves for the plan layer
    /// (drained by [`Engine::take_salvage`] after each plan node executes).
    salvage: Mutex<Vec<OpSalvage>>,
}

/// The router every client dispatches through ([`LlmClient::router`] keeps
/// an `Option` only for the frozen benchmark harness).
pub(crate) fn router_of(client: &LlmClient) -> &Router {
    // lint: allow(no-unwrap) — invariant: every LlmClient constructor builds a router
    client.router().expect("every client routes")
}

impl Engine {
    /// An engine over the given client and corpus with an unlimited budget,
    /// temperature 0 and modest parallelism.
    pub fn new(client: Arc<LlmClient>, corpus: Corpus) -> Self {
        let admission_price_factor = router_of(&client).admission_price_factor();
        Engine {
            client,
            corpus: Arc::new(corpus),
            admission_price_factor,
            budget: Arc::new(BudgetTracker::new(Budget::Unlimited)),
            lane: Lane {
                feed: Arc::new(FairFeed::fifo()),
                index: 0,
            },
            gate: None,
            parallelism: 8,
            pack_width: 1,
            blocking_recall_target: None,
            temperature: 0.0,
            seed: 0,
            render_opts: RenderOptions::default(),
            trace: None,
            failure_policy: FailurePolicy::FailFast,
            deadline_ms: None,
            salvage: Mutex::new(Vec::new()),
        }
    }

    /// Set the budget (builder style).
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = Arc::new(BudgetTracker::new(budget));
        self
    }

    /// This engine scoped to one tenant of a serving stack: the tenant's
    /// ledger as its budget, the tenant's lane of the server's feed as its
    /// feed, the server's lease table as its gate.
    pub(crate) fn scoped(
        &self,
        budget: Arc<BudgetTracker>,
        lane: Lane,
        gate: Arc<LeaseGate>,
    ) -> Engine {
        Engine {
            budget,
            lane,
            gate: Some(gate),
            ..self.fork()
        }
    }

    /// A second handle onto the same stack: everything shared or copied,
    /// except the salvage notes, which belong to one caller.
    pub(crate) fn fork(&self) -> Engine {
        Engine {
            client: Arc::clone(&self.client),
            corpus: Arc::clone(&self.corpus),
            budget: Arc::clone(&self.budget),
            lane: self.lane.clone(),
            gate: self.gate.clone(),
            render_opts: self.render_opts.clone(),
            trace: self.trace.clone(),
            salvage: Mutex::new(Vec::new()),
            ..*self
        }
    }

    /// Set worker parallelism for batch dispatch (builder style).
    #[must_use]
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers.max(1);
        self
    }

    /// Set the prompt pack width (builder style): the maximum number of
    /// point-wise tasks the point-wise operators pack into one multi-item
    /// prompt. `1` (the default) disables packing; the planner may choose a
    /// smaller per-node width when a packed prompt would not fit the model's
    /// context window.
    #[must_use]
    pub fn with_pack_width(mut self, width: usize) -> Self {
        self.pack_width = width.max(1);
        self
    }

    /// Opt blocking into approximate nearest-neighbor search (builder
    /// style): on large high-dimensional corpora, [`BlockingIndex`]
    /// builds an IVF + SQ8 index tuned for this recall@k target instead
    /// of an exact scan. Every blocking consumer (dedup, join, cluster,
    /// impute-knn) inherits the setting. A target `>= 1.0` (and the
    /// `None` default) keeps blocking exact.
    ///
    /// [`BlockingIndex`]: crate::blocking::BlockingIndex
    #[must_use]
    pub fn with_blocking_recall_target(mut self, target: f32) -> Self {
        self.blocking_recall_target = Some(target);
        self
    }

    /// Set the sampling temperature used for calls (builder style).
    #[must_use]
    pub fn with_temperature(mut self, t: f64) -> Self {
        self.temperature = t;
        self
    }

    /// Set the engine seed (drives tie-breaking randomness in operators).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the criterion label used when rendering prompts (builder style).
    #[must_use]
    pub fn with_criterion_label(mut self, label: impl Into<String>) -> Self {
        self.render_opts = RenderOptions::with_criterion(label);
        self
    }

    /// Attach a trace recorder: every completed call is logged (builder
    /// style).
    #[must_use]
    pub fn with_trace(mut self, trace: Arc<Trace>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Set the failure policy (builder style) that [`Engine::run_outcome`]
    /// and, through [`Engine::settle`], the point-wise operators obey. The
    /// default, [`FailurePolicy::FailFast`], stops a batch on its first
    /// hard error; [`FailurePolicy::Degrade`] salvages every completable
    /// item and quarantines the rest.
    #[must_use]
    pub fn with_failure_policy(mut self, policy: FailurePolicy) -> Self {
        self.failure_policy = policy;
        self
    }

    /// Set a wall-clock deadline, in milliseconds, granted to each run
    /// entry point (builder style). The deadline is stamped onto every
    /// request the run issues, so client retries, router backoff, and
    /// hedge waits are all clipped against it and stop once it passes; in
    /// degrade mode, work still undispatched at the deadline is
    /// quarantined rather than started.
    #[must_use]
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// The engine's corpus.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The engine's budget tracker.
    pub fn budget(&self) -> &BudgetTracker {
        &self.budget
    }

    /// The wrapped client.
    pub fn client(&self) -> &Arc<LlmClient> {
        &self.client
    }

    /// The engine seed (operators derive their tie-break RNGs from it).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Current render options.
    pub fn render_opts(&self) -> &RenderOptions {
        &self.render_opts
    }

    /// The configured prompt pack width (`1` = packing disabled).
    pub fn pack_width(&self) -> usize {
        self.pack_width
    }

    /// The blocking recall target (`None` = exact blocking; see
    /// [`Engine::with_blocking_recall_target`]).
    pub fn blocking_recall_target(&self) -> Option<f32> {
        self.blocking_recall_target
    }

    /// The engine's failure policy.
    pub fn failure_policy(&self) -> FailurePolicy {
        self.failure_policy
    }

    /// The per-run wall-clock allowance, if any.
    pub fn deadline_ms(&self) -> Option<u64> {
        self.deadline_ms
    }

    /// Drain the degraded-run notes accumulated since the last call. The
    /// plan executor drains after each node; direct engine users may
    /// inspect the notes themselves.
    pub fn take_salvage(&self) -> Vec<OpSalvage> {
        std::mem::take(&mut *self.salvage.lock())
    }

    /// This run's wall-clock deadline, anchored now.
    pub(crate) fn run_deadline(&self) -> Option<Instant> {
        self.deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms)) // lint: allow(clock) — run deadline anchor
    }

    /// Dollar cost of a usage under the engine's *reference* model pricing
    /// (the cheapest backend's schedule). Estimates
    /// price against this; actual responses are priced by
    /// [`Engine::cost_of_response`].
    pub fn cost_of(&self, usage: crowdprompt_oracle::Usage) -> f64 {
        self.client.model().pricing().cost_usd(usage)
    }

    /// Dollar cost of a completed response, priced at the schedule of the
    /// backend that served it ([`CompletionResponse::pricing`]). With
    /// multi-backend routing this is what keeps operator cost meters, the
    /// budget tracker, and the client ledger mutually consistent; for a
    /// single-backend client it equals `cost_of(response.usage)`.
    pub fn cost_of_response(&self, response: &CompletionResponse) -> f64 {
        response.pricing.cost_usd(response.usage)
    }

    fn estimate_completion_tokens(task: &TaskDescriptor) -> u32 {
        match task {
            TaskDescriptor::SortList { items, .. } => (items.len() as u32) * 8 + 16,
            TaskDescriptor::CompareBatch { pairs, .. } => (pairs.len() as u32) * 4 + 8,
            TaskDescriptor::GroupEntities { items } => (items.len() as u32) * 8 + 16,
            TaskDescriptor::Packed { tasks } => (tasks.len() as u32) * 6 + 8,
            _ => 24,
        }
    }

    /// Render a task and estimate its usage — the prompt's token count, the
    /// one place this file counts tokens, and a completion allowance — and
    /// its cost, without budget admission.
    pub(crate) fn render_and_estimate(
        &self,
        task: TaskDescriptor,
    ) -> Result<(CompletionRequest, crowdprompt_oracle::Usage, f64), EngineError> {
        let prompt = render(&task, &self.corpus, &self.render_opts)?;
        let est_usage = crowdprompt_oracle::Usage {
            prompt_tokens: count_tokens(&prompt),
            completion_tokens: Self::estimate_completion_tokens(&task),
        };
        let est_usd = self.cost_of(est_usage);
        Ok((
            CompletionRequest::new(prompt, task).with_temperature(self.temperature),
            est_usage,
            est_usd,
        ))
    }

    /// Estimate one task's `(usd, total tokens)` cost by rendering its
    /// prompt over the corpus — no budget admission, no model call. The
    /// planner uses this to cost physical plan nodes from representative
    /// tasks before anything is dispatched.
    pub fn estimate_task(&self, task: TaskDescriptor) -> Result<(f64, u64), EngineError> {
        let (_, est_usage, est_usd) = self.render_and_estimate(task)?;
        Ok((est_usd, u64::from(est_usage.total())))
    }

    /// Whether `task` would be answered by the attached persistent
    /// response store's exact tier: renders the request exactly as
    /// dispatch would and probes the store's fingerprint index. `false`
    /// when no store is attached or the task does not render. The
    /// planner's cost model uses this to price predicted store hits at
    /// zero — a store hit dispatches no backend call and charges nothing.
    pub fn task_served_by_store(&self, task: TaskDescriptor) -> bool {
        let Some(store) = self.client.store() else {
            return false;
        };
        let Ok(prompt) = render(&task, &self.corpus, &self.render_opts) else {
            return false;
        };
        let request = CompletionRequest::new(prompt, task).with_temperature(self.temperature);
        // lint: allow(one-fingerprint) — a plan-time estimate, no request in flight
        store.contains(request.fingerprint())
    }

    /// The USD amount a call is *admitted* at: the reference-priced
    /// estimate scaled by the routing layer's worst-case price factor, so
    /// a `Budget::Usd` cap holds even when the priciest backend serves a
    /// call estimated at the cheapest schedule. `1×` for single-backend
    /// clients — admission then equals the estimate exactly as before.
    pub(crate) fn admission_usd(&self, est_usd: f64) -> f64 {
        est_usd * self.admission_price_factor
    }

    /// Admit one estimated call against `ledger` at its conservative
    /// admission price; `Err` carries the refused amount.
    fn admit_estimate(
        &self,
        ledger: &BudgetTracker,
        est_usd: f64,
        est_tokens: u64,
    ) -> Result<(), EngineError> {
        let admit_usd = self.admission_usd(est_usd);
        if !ledger.admit(admit_usd, est_tokens) {
            return Err(EngineError::BudgetExceeded {
                needed_usd: admit_usd,
                remaining_usd: ledger.remaining_usd(),
            });
        }
        Ok(())
    }

    /// Execute one unit task at the engine's temperature (sample 0): a
    /// one-task [`Engine::run_many`].
    pub fn run(&self, task: TaskDescriptor) -> Result<CompletionResponse, EngineError> {
        let mut responses = self.run_many(vec![task])?;
        Ok(responses.pop().expect("one response per task")) // lint: allow(no-unwrap)
    }

    /// Execute a batch of unit tasks through the pipelined dispatcher,
    /// preserving order. Always strict, whatever the engine's policy: the
    /// first hard error fails the batch (transient errors are already
    /// retried inside the client), and the whole batch is admitted against
    /// the budget *cumulatively* before any call — the i-th task must fit
    /// after the estimated spend of tasks 0..i, so a batch that would blow
    /// through the budget is refused whole.
    pub fn run_many(
        &self,
        tasks: Vec<TaskDescriptor>,
    ) -> Result<Vec<CompletionResponse>, EngineError> {
        let calls = tasks.into_iter().map(|task| self.unsampled(task)).collect();
        // A stop-on-error pump returns `Err` before any item can be one.
        Ok(self
            .run_items(calls, Admit::Batch, FailurePolicy::FailFast)?
            .responses)
    }

    /// Execute `spec` under the engine's [`FailurePolicy`] and normalize to
    /// a [`BatchOutcome`]: per-item answers in input order, the responses to
    /// meter, and the quarantined remainder.
    ///
    /// Under [`FailurePolicy::FailFast`] the first hard error (lowest input
    /// index among the failures observed) is returned as `Err`, with the
    /// admission timing of the strict entry points: whole-batch cumulative
    /// pre-admission for [`RunSpec::tasks`], per call at execution for
    /// sampled and packed specs. Under [`FailurePolicy::Degrade`] every item
    /// runs to completion or quarantine and `Err` is reserved for the caller
    /// bug of packing incompatible tasks; cache hits are salvaged even
    /// after the budget or the deadline is exhausted, since they cost
    /// nothing to serve.
    pub fn run_outcome(&self, spec: RunSpec) -> Result<BatchOutcome, EngineError> {
        let policy = self.failure_policy;
        let (tasks, width, sampling) = match spec {
            RunSpec::Many { tasks } => (tasks, 1, None),
            RunSpec::Packed {
                tasks,
                width,
                sampling,
            } => (tasks, width, sampling),
            RunSpec::Sampled { specs } => return self.run_items(specs, Admit::PerCall, policy),
        };
        let (temperature, sample_index) = sampling.unwrap_or((self.temperature, 0));
        if width > 1 {
            return self.run_packs(&tasks, width, temperature, sample_index, policy);
        }
        // Packed at width <= 1 *is* the per-item path (and per-item tasks
        // need not be packable).
        let admit = match sampling {
            None => Admit::Batch,
            Some(_) => Admit::PerCall,
        };
        let calls = tasks
            .into_iter()
            .map(|task| (task, temperature, sample_index))
            .collect();
        self.run_items(calls, admit, policy)
    }

    /// Begin settling one operator run's per-item parse results under the
    /// engine's failure policy (see [`Settle`]).
    pub fn settle(&self, op: &'static str) -> Settle<'_> {
        Settle {
            engine: self,
            op,
            lost: (self.failure_policy != FailurePolicy::FailFast).then(BTreeMap::new),
        }
    }

    /// One call per item: prepare, pump, normalize.
    fn run_items(
        &self,
        calls: Vec<Call>,
        admit: Admit,
        policy: FailurePolicy,
    ) -> Result<BatchOutcome, EngineError> {
        let work = self.prepare(calls, admit, self.run_deadline(), policy);
        let mut outcome = BatchOutcome::default();
        for (index, item) in self.pump(work, self.shape(policy))?.into_iter().enumerate() {
            match item {
                Ok(response) => {
                    outcome.answers.push(Ok(response.text.clone()));
                    outcome.responses.push(response);
                }
                Err(errors) => {
                    outcome.answers.push(Err(condemning(&errors)));
                    outcome.quarantined.push(Quarantine { index, errors });
                }
            }
        }
        Ok(outcome)
    }

    /// The one pack → context-split → bisect loop. Each level is one pumped
    /// round, so bisection costs O(log width) rounds, not O(n) sequential
    /// calls. Render errors, dispatch failures and unparseable responses
    /// all narrow the same way — a pack splits in half, an irreducible
    /// single is quarantined — so every healthy item packed next to a broken
    /// one still completes; a fail-fast pump returns its first error before
    /// any of that is reached.
    fn run_packs(
        &self,
        tasks: &[TaskDescriptor],
        width: usize,
        temperature: f64,
        sample_index: u32,
        policy: FailurePolicy,
    ) -> Result<BatchOutcome, EngineError> {
        if let Some(first) = tasks.first() {
            if tasks
                .iter()
                .any(|t| !t.packable() || !first.pack_compatible(t))
            {
                return Err(EngineError::InvalidInput(
                    "packed dispatch requires point-wise tasks sharing one instruction \
                     (same predicate / label set / attribute)"
                        .into(),
                ));
            }
        }
        fn bisect(pack: &Range<usize>, next: &mut Vec<Range<usize>>) {
            let mid = pack.start + pack.len() / 2;
            next.push(pack.start..mid);
            next.push(mid..pack.end);
        }
        let n = tasks.len();
        let deadline = self.run_deadline();
        let window = self.client.model().context_window();
        let mut answers: Vec<Option<Result<String, EngineError>>> = vec![None; n];
        let mut outcome = BatchOutcome::default();
        // Pending packs, as index ranges into `tasks`.
        let mut pending: Vec<Range<usize>> = (0..n)
            .step_by(width)
            .map(|start| start..(start + width).min(n))
            .collect();
        while !pending.is_empty() {
            let calls = pending
                .iter()
                .map(|pack| {
                    let task = match &tasks[pack.clone()] {
                        [single] => single.clone(),
                        many => TaskDescriptor::Packed {
                            tasks: many.to_vec(),
                        },
                    };
                    (task, temperature, sample_index)
                })
                .collect();
            let prepared = self.prepare(calls, Admit::PerCall, deadline, policy);
            let mut next: Vec<Range<usize>> = Vec::new();
            let mut round: Vec<Range<usize>> = Vec::new();
            let mut work = Vec::new();
            for (pack, prepared) in pending.into_iter().zip(prepared) {
                // Context fitting: a pack whose rendered prompt overflows
                // the window (by the count its render took) splits without
                // wasting a call on it.
                let oversize =
                    pack.len() > 1 && prepared.as_ref().is_ok_and(|w| w.prompt_tokens > window);
                if oversize {
                    bisect(&pack, &mut next);
                } else {
                    round.push(pack);
                    work.push(prepared);
                }
            }
            for (pack, item) in round.into_iter().zip(self.pump(work, self.shape(policy))?) {
                match item {
                    Ok(response) => {
                        if pack.len() == 1 {
                            answers[pack.start] = Some(Ok(response.text.clone()));
                        } else {
                            match crate::extract::packed_answers(&response.text, pack.len()) {
                                Ok(lines) => {
                                    for (slot, line) in answers[pack.clone()].iter_mut().zip(lines)
                                    {
                                        *slot = Some(Ok(line));
                                    }
                                }
                                Err(_) => bisect(&pack, &mut next),
                            }
                        }
                        outcome.responses.push(response);
                    }
                    Err(_) if pack.len() > 1 => bisect(&pack, &mut next),
                    Err(errors) => {
                        answers[pack.start] = Some(Err(condemning(&errors)));
                        outcome.quarantined.push(Quarantine {
                            index: pack.start,
                            errors,
                        });
                    }
                }
            }
            pending = next;
        }
        outcome.quarantined.sort_by_key(|q| q.index);
        outcome.answers = answers
            .into_iter()
            .map(|a| a.expect("every slot answered, bisected, or quarantined")) // lint: allow(no-unwrap)
            .collect();
        Ok(outcome)
    }

    /// Render one call into dispatcher work stamped with its admission
    /// mode; nothing is checked against a budget here.
    pub(crate) fn render_call(
        &self,
        (task, temperature, sample_index): Call,
        mode: Admit,
        deadline: Option<Instant>,
    ) -> Result<Work, EngineError> {
        let (mut request, est_usage, est_usd) = self.render_and_estimate(task)?;
        request.temperature = temperature;
        request.sample_index = sample_index;
        request.deadline = deadline;
        Ok(Work {
            request,
            prompt_tokens: est_usage.prompt_tokens,
            key: None,
            admission: Admission {
                mode,
                est_usd,
                est_tokens: u64::from(est_usage.total()),
            },
        })
    }

    /// `task` as a call at the engine's temperature, sample 0.
    pub(crate) fn unsampled(&self, task: TaskDescriptor) -> Call {
        (task, self.temperature, 0)
    }

    /// Render each call once into dispatcher work and stamp it with how it
    /// is admitted against the budget. A call that does not render, or that
    /// the cumulative batch check refuses, becomes a pre-failed item.
    fn prepare(
        &self,
        calls: Vec<Call>,
        admit: Admit,
        deadline: Option<Instant>,
        policy: FailurePolicy,
    ) -> Vec<Result<Work, EngineError>> {
        // Policy point: a degrading run serves free local hits *before* it
        // asks for budget or checks the deadline, so its admission moves
        // behind the probe, whatever the spec's strict timing would be.
        let mode = match policy {
            FailurePolicy::FailFast => admit,
            FailurePolicy::Degrade { .. } => Admit::AfterSalvage,
        };
        let (mut pending_usd, mut pending_tokens) = (0.0f64, 0u64);
        calls
            .into_iter()
            .map(|call| {
                let work = self.render_call(call, mode, deadline)?;
                if mode == Admit::Batch {
                    let admit_usd = self.admission_usd(work.admission.est_usd);
                    let est_tokens = work.admission.est_tokens;
                    if !self
                        .budget
                        .admit(pending_usd + admit_usd, pending_tokens + est_tokens)
                    {
                        return Err(EngineError::BudgetExceeded {
                            needed_usd: admit_usd,
                            remaining_usd: self.budget.remaining_usd(),
                        });
                    }
                    pending_usd += admit_usd;
                    pending_tokens += est_tokens;
                }
                Ok(work)
            })
            .collect()
    }

    /// The run shape a failure policy asks for — policy points: how often
    /// one item is attempted, and whether one item's failure ends the batch.
    fn shape(&self, policy: FailurePolicy) -> RunShape {
        let (attempts, stop_on_error) = match policy {
            FailurePolicy::FailFast => (1, true),
            FailurePolicy::Degrade { max_attempts } => (max_attempts.max(1), false),
        };
        RunShape {
            attempts,
            stop_on_error,
            workers: self.parallelism,
        }
    }

    /// The one worker loop: queue the batch on this engine's lane, work the
    /// feed from the calling thread beside `shape.workers − 1` helpers until
    /// the batch is done, and return per-item results in input order. `Err`
    /// — the failure with the lowest input index among those observed —
    /// only when the shape stops on the first error; then a pre-failed item
    /// fails the batch before anything is queued.
    pub(crate) fn pump(
        &self,
        items: Vec<Result<Work, EngineError>>,
        shape: RunShape,
    ) -> Result<Vec<ItemResult>, EngineError> {
        if shape.stop_on_error {
            if let Some(e) = items.iter().find_map(|item| item.as_ref().err()) {
                return Err(e.clone());
            }
        }
        let (batch, queued) = self.enqueue(items, shape);
        // Never spawn more workers than queued jobs: a 1-job dispatch runs
        // on the calling thread alone, and a batch answered at enqueue is
        // already done.
        if queued > 0 {
            let helpers = shape.workers.clamp(1, queued) - 1;
            std::thread::scope(|scope| {
                for _ in 0..helpers {
                    scope.spawn(|| self.work(&batch));
                }
                self.work(&batch);
                // What is left of the batch is in flight on other workers.
                batch.wait_done();
            });
        }
        // Every helper has been joined and has dropped its handles: this
        // thread, which rendered the requests, frees them when `batch` goes
        // out of scope. (On a shared feed another engine's worker may still
        // be letting go of the handle it recorded last; then it frees.)
        let results = std::mem::take(&mut batch.slots.lock().results);
        if shape.stop_on_error {
            if let Some(errors) = results.iter().find_map(|r| r.as_ref()?.as_ref().err()) {
                return Err(condemning(errors));
            }
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("a batch that was not stopped ran every job")) // lint: allow(no-unwrap)
            .collect())
    }

    /// Build the batch that owns `items`' requests and queue one handle per
    /// request that still needs a worker on this engine's lane; returns the
    /// batch and how many were queued. A pre-failed item is recorded in its
    /// slot here, and so — on a serving stack, for a request whose admission
    /// is already settled — is a cache hit: the thread that rendered the
    /// batch probes each such request once, bills and records the hits
    /// while the batch is still its own (no lock), and leaves the key on
    /// the misses for the worker that draws them.
    fn enqueue(
        &self,
        items: Vec<Result<Work, EngineError>>,
        shape: RunShape,
    ) -> (Arc<Batch>, usize) {
        let books = Books {
            ledger: Arc::clone(&self.budget),
            trace: self.trace.clone(),
        };
        let serving = self.gate.is_some();
        let mut results = Vec::with_capacity(items.len());
        let mut queued = Vec::new();
        let work: Vec<Option<Work>> = items
            .into_iter()
            .enumerate()
            .map(|(slot, item)| {
                let (work, result) = match item {
                    Ok(mut work) => {
                        let settled = serving && work.admission.mode == Admit::Batch;
                        let hit = match settled.then(|| self.client.probe(&work.request)) {
                            Some(Probe::Hit(hit)) => {
                                books.account(&work.request, &hit);
                                Some(Ok(hit))
                            }
                            Some(Probe::Miss(key)) => {
                                work.key = key;
                                None
                            }
                            None => None,
                        };
                        if hit.is_none() {
                            queued.push(slot);
                        }
                        (Some(work), hit)
                    }
                    Err(e) => (None, Some(Err(vec![e]))),
                };
                results.push(result);
                work
            })
            .collect();
        let batch = Arc::new(Batch {
            slots: Mutex::new(Slots {
                results,
                outstanding: queued.len(),
            }),
            done: Condvar::new(),
            stopped: AtomicBool::new(false),
            attempts: shape.attempts,
            stop_on_error: shape.stop_on_error,
            books,
            work,
        });
        let queued_jobs = queued.len();
        if queued_jobs > 0 {
            let jobs = queued
                .into_iter()
                .map(|slot| Job {
                    batch: Arc::clone(&batch),
                    slot,
                    recorded: false,
                })
                .collect();
            self.lane.feed.push_lane(self.lane.index, jobs);
        }
        (batch, queued_jobs)
    }

    /// One worker of a pump call: claim jobs off the feed — any batch's —
    /// and run each into the batch it points to, until `own` is done or the
    /// feed is empty.
    fn work(&self, own: &Batch) {
        let mut claim = MIN_CLAIM;
        let mut local = Vec::new();
        while !own.is_done() {
            self.lane.feed.claim_into(claim, &mut local);
            if local.is_empty() {
                return;
            }
            let started = Instant::now(); // lint: allow(clock) — dispatch latency sample
            let claimed = local.len();
            for job in local.drain(..) {
                let batch = &job.batch;
                // A stopped batch's queued jobs are drained as skipped by
                // whoever claims them.
                let result = (!batch.stopped.load(Ordering::Relaxed)).then(|| {
                    let result = self.execute(&job);
                    if batch.stop_on_error && result.is_err() {
                        batch.stopped.store(true, Ordering::Relaxed);
                    }
                    result
                });
                job.finish(result);
            }
            claim = adapt_claim(claim, started, claimed);
        }
    }

    /// The one worker body: admit against the job's ledger, probe the
    /// client once, then dispatch under the probe's key with up to the
    /// batch's attempt allowance (each attempt still carries the client's
    /// own retries). Returns the response or the full error chain, one entry
    /// per failed attempt, that exhausted the item.
    fn execute(&self, job: &Job) -> ItemResult {
        /// Cap on the pause between engine-level attempts, so one poison
        /// item honoring a long server hint cannot stall its worker.
        const MAX_ATTEMPT_PAUSE_MS: u64 = 250;
        /// Floor on that pause: a zero/absent hint (e.g. `CircuitOpen`
        /// with an already-admissible probe whose half-open slot another
        /// worker just claimed) must not let the loop spin through its
        /// whole attempt allowance before the fault has wall-clock time
        /// to clear.
        const MIN_ATTEMPT_PAUSE_MS: u64 = 5;
        let batch = &*job.batch;
        let Work {
            request,
            admission,
            key,
            ..
        } = job.work();
        let served = |hit: CompletionResponse| {
            batch.books.account(request, &hit);
            Ok(hit)
        };
        // A cache hit costs nothing to serve, so a salvaging run takes it
        // even when the budget or the deadline is already spent.
        let salvage = admission.mode == Admit::AfterSalvage;
        let key = match *key {
            // Probed where the batch was rendered, and queued since: someone
            // else's call may have answered the key meanwhile, and a hit
            // must not take a lease. Whoever answered it filled the shard,
            // so the key alone finds it; nothing is hashed again.
            Some(key) => match self.client.probe_key(key) {
                Some(hit) => return served(hit),
                None => Some(key),
            },
            None => {
                let admit = || {
                    self.admit_estimate(
                        &batch.books.ledger,
                        admission.est_usd,
                        admission.est_tokens,
                    )
                    .map_err(|e| vec![e])
                };
                if admission.mode == Admit::PerCall {
                    admit()?;
                }
                let key = match self.client.probe(request) {
                    Probe::Hit(hit) => return served(hit),
                    Probe::Miss(key) => key,
                };
                if salvage {
                    admit()?;
                }
                key
            }
        };
        let mut errors: Vec<EngineError> = Vec::new();
        loop {
            if let (true, Some(deadline)) = (salvage, request.deadline) {
                // lint: allow(clock) — deadline check between attempts
                if Instant::now() >= deadline {
                    errors.push(EngineError::DeadlineExceeded);
                    return Err(errors);
                }
            }
            let e = match self.dispatch(request, key) {
                Ok(response) => return served(response),
                Err(e) => e,
            };
            let retryable = e.is_retryable()
                || matches!(
                    e,
                    LlmError::CircuitOpen { .. } | LlmError::RetriesExhausted { .. }
                );
            let hint = e.retry_hint_ms();
            errors.push(EngineError::Llm(e));
            if !retryable || errors.len() >= batch.attempts as usize {
                return Err(errors);
            }
            // Honor server/breaker hints between attempts, bounded below
            // by the spin floor and above by both the pause cap and the
            // remaining deadline.
            let mut wait = Duration::from_millis(
                hint.unwrap_or(MIN_ATTEMPT_PAUSE_MS)
                    .clamp(MIN_ATTEMPT_PAUSE_MS, MAX_ATTEMPT_PAUSE_MS),
            );
            if let Some(deadline) = request.deadline {
                // lint: allow(clock) — remaining-deadline clamp
                wait = wait.min(deadline.saturating_duration_since(Instant::now()));
            }
            if !wait.is_zero() {
                parking_lot::blocking_region("engine retry pause");
                std::thread::sleep(wait);
            }
        }
    }

    /// Complete a probed miss through the gate slot: a call that may reach
    /// the backend holds a slot lease when the engine is serving —
    /// [`Engine::execute`] has already served local hits, so they take
    /// none. (A coalesced joiner does hold one while it waits: it
    /// represents a pending backend call.)
    fn dispatch(
        &self,
        request: &CompletionRequest,
        key: Option<u64>,
    ) -> Result<CompletionResponse, LlmError> {
        let _lease = self.gate.as_deref().map(LeaseGate::acquire);
        self.client.complete_keyed(request, key)
    }
}

/// One `(task, temperature, sample_index)` call.
pub(crate) type Call = (TaskDescriptor, f64, u32);

/// One item's dispatch result: the response, or the error chain (one entry
/// per failed attempt, oldest first) that exhausted it.
pub(crate) type ItemResult = Result<CompletionResponse, Vec<EngineError>>;

/// The error that finally condemned an item: the last of its chain.
pub(crate) fn condemning(errors: &[EngineError]) -> EngineError {
    errors.last().cloned().expect("non-empty error chain") // lint: allow(no-unwrap)
}

/// When a unit of work is admitted against the budget — admission timing
/// carried as data on the work item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admit {
    /// With its whole batch, before anything is queued: the cumulative
    /// check in [`Engine::prepare`], or the serve door's check of the
    /// tenant's ledger. Nothing left to do in the worker.
    Batch,
    /// Per call at execution time, against actual spend so far and
    /// *before* any cache probe — a hit is refused too once the budget is
    /// gone, as the sequential loops these batches replace did.
    PerCall,
    /// Per call, but only after a free local hit has been ruled out, and
    /// together with the deadline: work still undispatched when either
    /// runs out is quarantined instead of started.
    AfterSalvage,
}

/// An admission mode with the estimate it admits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Admission {
    mode: Admit,
    pub(crate) est_usd: f64,
    pub(crate) est_tokens: u64,
}

/// One unit of dispatcher work: a request rendered once, its prompt's token
/// count as that render took it, the key it missed the cache under if it
/// was probed at enqueue, and how to admit it.
pub(crate) struct Work {
    request: CompletionRequest,
    prompt_tokens: u32,
    /// `Some` once [`Engine::enqueue`] has probed the request and missed:
    /// its fingerprint, which the worker re-checks and dispatches under
    /// without hashing again. `None`: the worker probes.
    key: Option<u64>,
    pub(crate) admission: Admission,
}

/// How one pump call runs its batch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunShape {
    /// Engine-level dispatch attempts per item.
    pub(crate) attempts: u32,
    /// Whether one item's failure ends the batch.
    pub(crate) stop_on_error: bool,
    /// Threads working the feed, the caller included.
    pub(crate) workers: usize,
}

/// An engine's place in a feed: the lane the pump pushes its batches to.
/// Claims come off the whole feed.
#[derive(Clone)]
pub(crate) struct Lane {
    pub(crate) feed: Arc<FairFeed<Job>>,
    pub(crate) index: usize,
}

/// One queued unit of work: a handle on a slot of the batch that holds its
/// request and takes its result. Three words, so the feed moves handles and
/// a worker that drops one frees nothing it did not allocate.
pub(crate) struct Job {
    batch: Arc<Batch>,
    slot: usize,
    recorded: bool,
}

impl Job {
    /// The request this job runs, borrowed from its batch.
    fn work(&self) -> &Work {
        let work = self.batch.work[self.slot].as_ref();
        work.expect("only slots holding work are queued") // lint: allow(no-unwrap)
    }

    fn finish(mut self, result: Option<ItemResult>) {
        self.recorded = true;
        self.batch.record(self.slot, result);
    }
}

impl Drop for Job {
    /// A job dropped unrecorded was claimed by a worker that then panicked
    /// (a backend is caller-supplied code). Fail its slot — with the error
    /// the client publishes to the joiners of a panicked leader — so a
    /// caller waiting on the batch wakes instead of hanging.
    fn drop(&mut self) {
        if !self.recorded {
            let abandoned = EngineError::Llm(LlmError::ServiceUnavailable);
            self.batch.record(self.slot, Some(Err(vec![abandoned])));
        }
    }
}

/// What the jobs of one pump call share: the rendered requests they run
/// (owned here, so they are freed together by whoever lets go of the batch
/// last — the pump's caller, who rendered them), the result slots and
/// outstanding count that caller waits on, the run shape's per-item half,
/// and the books they bill.
struct Batch {
    /// One per item, in input order; `None` where the item was pre-failed.
    /// Read-only once queued: workers borrow `work[slot]`.
    work: Vec<Option<Work>>,
    slots: Mutex<Slots>,
    done: Condvar,
    /// Set by the first failure of a stop-on-error batch.
    stopped: AtomicBool,
    attempts: u32,
    stop_on_error: bool,
    books: Books,
}

struct Slots {
    /// One per item, in input order; `None` until recorded, and for good
    /// when the job was skipped because its batch had stopped. Pre-failed
    /// items and hits found at enqueue are recorded before any job exists.
    results: Vec<Option<ItemResult>>,
    /// Queued jobs not yet recorded.
    outstanding: usize,
}

/// Where a batch's served responses are billed: the ledger and trace of the
/// engine that rendered it, whichever engine's worker serves them.
struct Books {
    ledger: Arc<BudgetTracker>,
    trace: Option<Arc<Trace>>,
}

impl Batch {
    fn record(&self, slot: usize, result: Option<ItemResult>) {
        let mut slots = self.slots.lock();
        debug_assert!(slots.results[slot].is_none(), "slot recorded twice");
        slots.results[slot] = result;
        slots.outstanding -= 1;
        if slots.outstanding == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.slots.lock().outstanding == 0
    }

    /// Block until every slot is recorded or skipped (the worker recording
    /// the last one notifies).
    fn wait_done(&self) {
        let mut slots = self.slots.lock();
        while slots.outstanding > 0 {
            self.done.wait(&mut slots);
        }
    }
}

impl Books {
    /// Bill a served response to the ledger and trace; cache hits and
    /// coalesced joins are free.
    fn account(&self, request: &CompletionRequest, response: &CompletionResponse) {
        let cost_usd = if response.cached {
            0.0
        } else {
            response.pricing.cost_usd(response.usage)
        };
        if !response.cached {
            self.ledger
                .record(cost_usd, u64::from(response.usage.total()));
        }
        if let Some(trace) = &self.trace {
            trace.record(TraceEvent {
                kind: request.task.kind(),
                usage: response.usage,
                cost_usd,
                cached: response.cached,
            });
        }
    }
}

/// How the engine treats hard per-item failures in a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Stop the whole batch on the first hard error (the classic
    /// semantics, and the default — every pre-existing path is
    /// bit-identical under it).
    #[default]
    FailFast,
    /// Salvage everything salvageable: run each item independently,
    /// quarantine the ones that stay broken, and never fail the batch.
    Degrade {
        /// Engine-level dispatch attempts per item before quarantine.
        /// Each attempt still carries the client's own internal retries,
        /// so this is the *outer* loop: re-asking after the client gave
        /// up, with server/breaker hints honored in between. Clamped to
        /// at least 1.
        max_attempts: u32,
    },
}

impl FailurePolicy {
    /// A degrade policy with a modest default attempt allowance.
    pub const fn degrade() -> Self {
        FailurePolicy::Degrade { max_attempts: 3 }
    }
}

/// One quarantined batch item: the work could not be completed and was
/// set aside so the rest of the batch could proceed.
#[derive(Debug, Clone)]
pub struct Quarantine {
    /// Index of the item in the batch handed to the engine.
    pub index: usize,
    /// The full error chain, one entry per failed attempt, oldest first.
    /// The last entry is what finally condemned the item.
    pub errors: Vec<EngineError>,
}

/// A batch execution specification for [`Engine::run_outcome`].
///
/// Construct via [`RunSpec::tasks`] (one call per task),
/// [`RunSpec::sampled`] (explicit temperature / sample index per call), or
/// [`RunSpec::packed`] / [`RunSpec::packed_sampled`] (multi-item prompts,
/// falling back to per-item at width ≤ 1). Operators pass the spec straight
/// through, so the per-item-vs-packed branch lives in the engine once.
#[derive(Debug, Clone)]
pub enum RunSpec {
    /// One call per task at the engine's temperature (sample 0).
    Many {
        /// The unit tasks, in output order.
        tasks: Vec<TaskDescriptor>,
    },
    /// One call per `(task, temperature, sample_index)` spec — the voting
    /// fan-out shape of a per-item poll round (`ops::filter`).
    Sampled {
        /// The call specs, in output order.
        specs: Vec<(TaskDescriptor, f64, u32)>,
    },
    /// Packed multi-item prompts of up to `width` tasks per call. All
    /// tasks must be packable and mutually pack-compatible when
    /// `width > 1`; `width <= 1` runs the plain per-item path (no
    /// packability requirement).
    Packed {
        /// The unit tasks, in output order.
        tasks: Vec<TaskDescriptor>,
        /// Maximum tasks per packed prompt.
        width: usize,
        /// The `(temperature, sample_index)` every call is issued at —
        /// one vote round; `None` is the engine's temperature, sample 0.
        sampling: Option<(f64, u32)>,
    },
}

impl RunSpec {
    /// One call per task at the engine's temperature.
    pub fn tasks(tasks: Vec<TaskDescriptor>) -> Self {
        RunSpec::Many { tasks }
    }

    /// One call per `(task, temperature, sample_index)` spec.
    pub fn sampled(specs: Vec<(TaskDescriptor, f64, u32)>) -> Self {
        RunSpec::Sampled { specs }
    }

    /// Packed prompts of up to `width` tasks; per-item when `width <= 1`.
    pub fn packed(tasks: Vec<TaskDescriptor>, width: usize) -> Self {
        RunSpec::Packed {
            tasks,
            width,
            sampling: None,
        }
    }

    /// [`RunSpec::packed`] with every call issued at an explicit
    /// temperature and sample index (one packed vote round).
    pub fn packed_sampled(
        tasks: Vec<TaskDescriptor>,
        width: usize,
        temperature: f64,
        sample_index: u32,
    ) -> Self {
        RunSpec::Packed {
            tasks,
            width,
            sampling: Some((temperature, sample_index)),
        }
    }
}

/// The result of [`Engine::run_outcome`]: whatever the spec shape, one
/// answer string (or condemning error) per input item, plus the responses
/// to meter and the quarantined remainder.
///
/// `responses` carries exactly the completions an operator should meter:
/// for per-item specs the successful responses in input order, for packed
/// specs every dispatched completion (packs, bisection retries, singleton
/// fallbacks) in dispatch order.
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// One answer per input item, in input order; `Err` holds the final
    /// error that condemned a quarantined item.
    pub answers: Vec<Result<String, EngineError>>,
    /// The completions to meter for cost attribution (see type docs).
    pub responses: Vec<CompletionResponse>,
    /// Quarantined input indices with their full error chains, in index
    /// order.
    pub quarantined: Vec<Quarantine>,
}

impl BatchOutcome {
    /// Number of items that completed.
    pub fn ok_count(&self) -> usize {
        self.answers.len() - self.quarantined.len()
    }

    /// Whether every item completed (nothing quarantined).
    pub fn is_complete(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// Each item's own response (or condemning error), in input order —
    /// for callers that need more than the answer text, such as a
    /// confidence gate. Only a per-item spec ([`RunSpec::tasks`],
    /// [`RunSpec::sampled`], packed at width ≤ 1) has one response per
    /// completed item; an item answered out of a shared pack has none.
    pub fn item_results(
        &self,
    ) -> impl Iterator<Item = Result<&CompletionResponse, &EngineError>> + '_ {
        debug_assert_eq!(self.responses.len(), self.ok_count(), "per-item spec");
        let mut responses = self.responses.iter();
        self.answers.iter().map(move |answer| match answer {
            Ok(_) => Ok(responses.next().expect("one response per completed item")), // lint: allow(no-unwrap)
            Err(e) => Err(e),
        })
    }

    /// Meter every completion this batch dispatched.
    pub fn meter_into(&self, meter: &mut CostMeter) {
        for response in &self.responses {
            meter.add(response.usage, response.pricing.cost_usd(response.usage));
        }
    }
}

/// A note an operator leaves for the plan layer after salvaging a
/// degraded run: how much survived and exactly what was lost. The plan
/// executor drains these into the step report of the node that ran.
#[derive(Debug, Clone)]
pub struct OpSalvage {
    /// The operator (or sub-strategy) that degraded, e.g. `"filter"`.
    pub op: &'static str,
    /// Items that completed normally.
    pub salvaged: usize,
    /// Quarantined input indices with the final error that condemned
    /// each, in index order.
    pub quarantined: Vec<(usize, String)>,
}

/// Settles one operator run's per-item results under the engine's
/// [`FailurePolicy`] — the single place outside the dispatch core that
/// reads it, so operators are written once. Under
/// [`FailurePolicy::FailFast`] the first `Err` handed in is returned and no
/// note is left; under [`FailurePolicy::Degrade`] the item is recorded as
/// lost, the operator carries on without it, and [`Settle::finish`] leaves
/// the [`OpSalvage`] note for the plan layer.
pub struct Settle<'e> {
    engine: &'e Engine,
    op: &'static str,
    /// Lost items by index with the last error seen for each; `None` when
    /// the policy fails fast.
    lost: Option<BTreeMap<usize, String>>,
}

impl Settle<'_> {
    /// Settle the item at `index`: its value, or `None` once it is lost.
    pub fn item<T>(
        &mut self,
        index: usize,
        result: Result<T, EngineError>,
    ) -> Result<Option<T>, EngineError> {
        self.span(index..index + 1, result)
    }

    /// Settle one result that stands for every item in `indices` (a batch
    /// prompt): an `Err` loses them all.
    pub fn span<T>(
        &mut self,
        indices: Range<usize>,
        result: Result<T, EngineError>,
    ) -> Result<Option<T>, EngineError> {
        match (result, &mut self.lost) {
            (Ok(value), _) => Ok(Some(value)),
            (Err(e), None) => Err(e),
            (Err(e), Some(lost)) => {
                let message = e.to_string();
                lost.extend(indices.map(|index| (index, message.clone())));
                Ok(None)
            }
        }
    }

    /// A later pass (an escalation vote, a surviving sample) produced a
    /// verdict for an item an earlier result lost.
    pub fn recovered(&mut self, index: usize) {
        if let Some(lost) = &mut self.lost {
            lost.remove(&index);
        }
    }

    /// Finish an operator run over `total` items.
    pub fn finish(self, total: usize) {
        if let Some(lost) = self.lost {
            self.engine.salvage.lock().push(OpSalvage {
                op: self.op,
                salvaged: total - lost.len(),
                quarantined: lost.into_iter().collect(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Weighted fair-share claim ordering: the pump's feed
// ---------------------------------------------------------------------------

/// One tenant's queue and deficit counter inside a [`FairFeed`].
#[derive(Debug)]
struct TenantQueue<T> {
    key: String,
    weight: f64,
    deficit: f64,
    queue: VecDeque<T>,
}

#[derive(Debug)]
struct FeedState<T> {
    queues: Vec<TenantQueue<T>>,
    /// Round-robin position of the queue currently being served.
    cursor: usize,
    /// Whether the cursor's queue has received its arrival top-up for
    /// this visit (deficit replenishes once per arrival, not per claim).
    topped_up: bool,
    /// Total queued items across all tenants.
    len: usize,
}

/// A pull-based dispatch feed with **weighted fair-share claim ordering**.
///
/// FIFO is exactly right when every queued item belongs to the same
/// caller. A multi-tenant server cannot use FIFO — one tenant submitting a
/// large batch first would monopolize every worker — so this feed keys
/// queued work by tenant and orders claims by **deficit round robin**:
///
/// * each tenant carries a deficit counter (in units of work items);
/// * a claim visits tenant queues in round-robin order; visiting a
///   non-empty queue tops the tenant's deficit up by its *weight*;
/// * a tenant serves items while its deficit covers them (cost 1 each),
///   so over any sustained busy period tenants complete work in
///   proportion to their weights;
/// * a queue that runs empty forfeits its deficit — an idle tenant cannot
///   bank credit and later burst past its share.
///
/// With one registered tenant the order *is* FIFO, which is how an
/// [`Engine`] that serves a single caller uses it.
///
/// `claim` is non-blocking (the engine's workers interleave feed claims
/// with batch-completion waits); all ordering state lives behind one
/// mutex, held only for the queue manipulation itself.
#[derive(Debug)]
pub struct FairFeed<T> {
    state: Mutex<FeedState<T>>,
}

impl<T> Default for FairFeed<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FeedState<T> {
    fn push(&mut self, lane: usize, items: impl IntoIterator<Item = T>) {
        let queue = &mut self.queues[lane].queue;
        let before = queue.len();
        queue.extend(items);
        self.len += queue.len() - before;
    }

    /// The next item in deficit-round-robin order.
    fn next(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let n = self.queues.len();
        loop {
            let q = &mut self.queues[self.cursor];
            let claimed = if q.queue.is_empty() {
                // Forfeit unused credit: fairness is over *busy* tenants.
                q.deficit = 0.0;
                None
            } else {
                if !self.topped_up {
                    // Arrival top-up, once per visit. A tiny weight may
                    // need several round-robin passes to afford an item;
                    // the loop terminates because every pass adds
                    // weight > 0 to some non-empty queue.
                    q.deficit += q.weight;
                }
                if q.deficit >= 1.0 {
                    q.deficit -= 1.0;
                    q.queue.pop_front()
                } else {
                    None
                }
            };
            self.topped_up = true;
            match claimed {
                Some(item) => {
                    self.len -= 1;
                    return Some(item);
                }
                None => {
                    self.cursor = (self.cursor + 1) % n;
                    self.topped_up = false;
                }
            }
        }
    }
}

impl<T> FairFeed<T> {
    /// An empty feed with no tenants.
    pub fn new() -> Self {
        FairFeed {
            state: Mutex::new(FeedState {
                queues: Vec::new(),
                cursor: 0,
                topped_up: false,
                len: 0,
            }),
        }
    }

    /// A feed with one lane, index 0.
    fn fifo() -> Self {
        let feed = Self::new();
        feed.register("", 1.0);
        feed
    }

    /// Register a tenant queue with the given fair-share weight (clamped
    /// to at least `1e-3`). Returns `false` (leaving the existing queue
    /// untouched) if the key is already registered.
    pub fn register(&self, key: &str, weight: f64) -> bool {
        self.register_lane(key, weight).is_some()
    }

    /// [`FairFeed::register`], returning the new queue's lane index for
    /// [`FairFeed::push_lane`].
    pub(crate) fn register_lane(&self, key: &str, weight: f64) -> Option<usize> {
        let mut state = self.state.lock();
        if state.queues.iter().any(|q| q.key == key) {
            return None;
        }
        state.queues.push(TenantQueue {
            key: key.to_owned(),
            weight: if weight.is_finite() {
                weight.max(1e-3)
            } else {
                1.0
            },
            deficit: 0.0,
            queue: VecDeque::new(),
        });
        Some(state.queues.len() - 1)
    }

    /// Queue an item for `key`. Returns `false` if the key was never
    /// registered (the item is dropped — admission must precede push).
    pub fn push(&self, key: &str, item: T) -> bool {
        let mut state = self.state.lock();
        match state.queues.iter().position(|q| q.key == key) {
            Some(lane) => {
                state.push(lane, [item]);
                true
            }
            None => false,
        }
    }

    /// Queue a whole batch on a registered lane under one lock.
    pub(crate) fn push_lane(&self, lane: usize, items: Vec<T>) {
        self.state.lock().push(lane, items);
    }

    /// Claim the next item in deficit-round-robin order, or `None` when
    /// every queue is empty.
    pub fn claim(&self) -> Option<T> {
        self.state.lock().next()
    }

    /// Claim up to `max` items, in the order `max` calls of
    /// [`FairFeed::claim`] would, under one lock.
    pub(crate) fn claim_into(&self, max: usize, out: &mut Vec<T>) {
        let mut state = self.state.lock();
        out.extend(std::iter::from_fn(|| state.next()).take(max));
    }

    /// Total queued items across all tenants.
    pub fn len(&self) -> usize {
        self.state.lock().len
    }

    /// Whether no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Items currently queued for `key` (0 for unknown keys).
    pub fn queued_for(&self, key: &str) -> usize {
        self.state
            .lock()
            .queues
            .iter()
            .find(|q| q.key == key)
            .map_or(0, |q| q.queue.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdprompt_oracle::model::ModelProfile;
    use crowdprompt_oracle::sim::SimulatedLlm;
    use crowdprompt_oracle::world::WorldModel;

    fn engine_with(n: usize, budget: Budget) -> (Engine, Vec<crowdprompt_oracle::ItemId>) {
        let mut w = WorldModel::new();
        let ids: Vec<_> = (0..n)
            .map(|i| {
                let id = w.add_item(format!("item number {i}"));
                w.set_flag(id, "p", i % 2 == 0);
                w.set_score(id, i as f64 / n as f64);
                id
            })
            .collect();
        let corpus = Corpus::from_world(&w, &ids);
        let llm = Arc::new(SimulatedLlm::new(
            ModelProfile::gpt35_like(),
            Arc::new(w),
            7,
        ));
        let client = Arc::new(LlmClient::new(llm));
        (Engine::new(client, corpus).with_budget(budget), ids)
    }

    fn check_task(id: crowdprompt_oracle::ItemId) -> TaskDescriptor {
        TaskDescriptor::CheckPredicate {
            item: id,
            predicate: "p".into(),
        }
    }

    #[test]
    fn run_records_budget_spend() {
        let (engine, ids) = engine_with(4, Budget::Unlimited);
        let resp = engine.run(check_task(ids[0])).unwrap();
        assert!(resp.usage.prompt_tokens > 0);
        assert!(engine.budget().spent_tokens() > 0);
        assert!(engine.budget().spent_usd() > 0.0);
    }

    #[test]
    fn budget_refuses_before_dispatch() {
        let (engine, ids) = engine_with(4, Budget::tokens(5));
        match engine.run(check_task(ids[0])) {
            Err(EngineError::BudgetExceeded { .. }) => {}
            other => panic!("expected budget refusal, got {other:?}"),
        }
        // Nothing was spent.
        assert_eq!(engine.budget().spent_tokens(), 0);
    }

    #[test]
    fn run_many_preserves_order_and_spends() {
        let (engine, ids) = engine_with(10, Budget::Unlimited);
        let tasks: Vec<_> = ids.iter().map(|id| check_task(*id)).collect();
        let out = engine.run_many(tasks).unwrap();
        assert_eq!(out.len(), 10);
        assert!(engine.budget().spent_tokens() > 0);
    }

    #[test]
    fn unknown_item_rejected_at_render() {
        let (engine, _) = engine_with(2, Budget::Unlimited);
        let err = engine
            .run(check_task(crowdprompt_oracle::ItemId(999)))
            .unwrap_err();
        assert!(matches!(err, EngineError::UnknownItem(_)));
    }

    #[test]
    fn budget_exhausts_mid_batch() {
        // A tight USD budget: some calls admitted, later ones refused.
        let (engine, ids) = engine_with(30, Budget::usd(0.0002));
        let tasks: Vec<_> = ids.iter().map(|id| check_task(*id)).collect();
        let result = engine.run_many(tasks);
        assert!(
            matches!(result, Err(EngineError::BudgetExceeded { .. })),
            "expected exhaustion, got {result:?}"
        );
    }

    /// The responses of a sampled spec on a healthy engine.
    fn sampled(engine: &Engine, specs: Vec<Call>) -> Vec<CompletionResponse> {
        engine
            .run_outcome(RunSpec::sampled(specs))
            .unwrap()
            .responses
    }

    #[test]
    fn sampled_runs_decorrelate() {
        let (engine, ids) = engine_with(2, Budget::Unlimited);
        // Near-tie comparison at temperature 1 should not always agree.
        let task = TaskDescriptor::Compare {
            left: ids[0],
            right: ids[1],
            criterion: crowdprompt_oracle::task::SortCriterion::LatentScore,
        };
        let answers: std::collections::HashSet<String> = (0..32)
            .map(|i| {
                sampled(&engine, vec![(task.clone(), 1.0, i)])
                    .remove(0)
                    .text
            })
            .collect();
        assert!(answers.len() > 1, "expected varied samples");
    }

    #[test]
    fn sampled_batch_matches_sequential_sampled() {
        let (engine, ids) = engine_with(4, Budget::Unlimited);
        let specs: Vec<_> = (0..16)
            .map(|s| (check_task(ids[(s % 4) as usize]), 1.0, s))
            .collect();
        let batched = sampled(&engine, specs.clone());
        let sequential: Vec<_> = specs
            .into_iter()
            .map(|spec| sampled(&engine, vec![spec]).remove(0))
            .collect();
        for (b, s) in batched.iter().zip(sequential.iter()) {
            assert_eq!(b.text, s.text, "same request, same simulator draw");
        }
    }

    #[test]
    fn adaptive_claims_cover_duplicate_heavy_batches() {
        // 512 tasks over 4 distinct fingerprints: nearly all cache or
        // coalesced hits, which drives claim sizes to `MAX_CLAIM`; the
        // result must still be complete and ordered.
        let (engine, ids) = engine_with(4, Budget::Unlimited);
        let tasks: Vec<_> = (0..512).map(|i| check_task(ids[i % 4])).collect();
        let out = engine.run_many(tasks).unwrap();
        assert_eq!(out.len(), 512);
        let stats = engine.client().stats();
        assert_eq!(stats.calls(), 4, "one backend call per distinct task");
        assert_eq!(stats.calls() + stats.cache_hits() + stats.coalesced(), 512);
    }

    #[test]
    fn run_packed_answers_match_per_item_path() {
        use crowdprompt_oracle::model::NoiseProfile;
        // Answer accuracy 1.0 (verdicts are world truth on both paths) with
        // heavy formatting noise, so the equality below tests the packing
        // mechanics — chunking, parsing, reassembly — not model noise.
        let mut w = WorldModel::new();
        let ids: Vec<_> = (0..40)
            .map(|i| {
                let id = w.add_item(format!("item number {i}"));
                w.set_flag(id, "p", i % 2 == 0);
                id
            })
            .collect();
        let corpus = Corpus::from_world(&w, &ids);
        let profile = ModelProfile::perfect().with_noise(NoiseProfile {
            chatter_level: 0.9,
            malformed_rate: 0.3,
            ..NoiseProfile::perfect()
        });
        let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(w), 7));
        let engine = Engine::new(Arc::new(LlmClient::new(llm)), corpus);
        let tasks: Vec<_> = ids.iter().map(|id| check_task(*id)).collect();
        let per_item = engine.run_many(tasks.clone()).unwrap();
        let packed = engine.run_outcome(RunSpec::packed(tasks, 8)).unwrap();
        assert_eq!(packed.answers.len(), 40);
        assert_eq!(packed.responses.len(), 5, "40 items at width 8 = 5 packs");
        for (answer, resp) in packed.answers.iter().zip(per_item.iter()) {
            assert_eq!(
                crate::extract::yes_no(answer.as_ref().unwrap()).unwrap(),
                crate::extract::yes_no(&resp.text).unwrap(),
            );
        }
    }

    #[test]
    fn run_packed_slashes_backend_calls() {
        let (engine, ids) = engine_with(64, Budget::Unlimited);
        let tasks: Vec<_> = ids.iter().map(|id| check_task(*id)).collect();
        engine.run_outcome(RunSpec::packed(tasks, 16)).unwrap();
        assert_eq!(engine.client().stats().calls(), 4, "64 items / width 16");
    }

    #[test]
    fn run_packed_bisects_unparseable_packs_down_to_singletons() {
        use crowdprompt_oracle::model::NoiseProfile;
        let mut w = WorldModel::new();
        let ids: Vec<_> = (0..16)
            .map(|i| {
                let id = w.add_item(format!("bisect item {i}"));
                w.set_flag(id, "p", i % 2 == 0);
                id
            })
            .collect();
        let corpus = Corpus::from_world(&w, &ids);
        // Every multi-item pack comes back with a broken answer list.
        let profile = ModelProfile::perfect().with_noise(NoiseProfile {
            packed_dropout_rate: 1.0,
            ..NoiseProfile::perfect()
        });
        let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(w), 7));
        let engine = Engine::new(Arc::new(LlmClient::new(llm)), corpus);
        let tasks: Vec<_> = ids.iter().map(|id| check_task(*id)).collect();
        let run = engine
            .run_outcome(RunSpec::packed(tasks.clone(), 16))
            .unwrap();
        // Final answers come from singleton fallbacks and must match the
        // per-item path exactly (the singletons *are* per-item requests, so
        // they coalesce with a fresh per-item run through the cache).
        let per_item = engine.run_many(tasks).unwrap();
        for (answer, resp) in run.answers.iter().zip(per_item.iter()) {
            assert_eq!(answer.as_ref().unwrap(), &resp.text);
        }
        // Bisection tree over 16 items: 1 + 2 + 4 + 8 failed packs plus 16
        // singletons = 31 dispatches.
        assert_eq!(run.responses.len(), 31);
    }

    #[test]
    fn run_packed_splits_oversize_packs_before_dispatch() {
        let mut w = WorldModel::new();
        let ids: Vec<_> = (0..8)
            .map(|i| {
                let id = w.add_item(format!(
                    "a deliberately long record text number {i} with many words in it"
                ));
                w.set_flag(id, "p", true);
                id
            })
            .collect();
        let corpus = Corpus::from_world(&w, &ids);
        // A window too small for an 8-pack but big enough for singletons.
        let profile = ModelProfile::perfect().with_context_window(60);
        let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(w), 7));
        let engine = Engine::new(Arc::new(LlmClient::new(llm)), corpus);
        let tasks: Vec<_> = ids.iter().map(|id| check_task(*id)).collect();
        let run = engine.run_outcome(RunSpec::packed(tasks, 8)).unwrap();
        assert_eq!(run.answers.len(), 8);
        assert!(
            run.responses.len() > 1,
            "the 8-pack cannot fit a 60-token window and must split"
        );
    }

    #[test]
    fn run_packed_rejects_incompatible_tasks() {
        let (engine, ids) = engine_with(4, Budget::Unlimited);
        let mixed = vec![
            check_task(ids[0]),
            TaskDescriptor::CheckPredicate {
                item: ids[1],
                predicate: "other".into(),
            },
        ];
        assert!(matches!(
            engine.run_outcome(RunSpec::packed(mixed, 2)),
            Err(EngineError::InvalidInput(_))
        ));
        let unpackable = vec![TaskDescriptor::Compare {
            left: ids[0],
            right: ids[1],
            criterion: crowdprompt_oracle::task::SortCriterion::LatentScore,
        }];
        assert!(matches!(
            engine.run_outcome(RunSpec::packed(unpackable, 2)),
            Err(EngineError::InvalidInput(_))
        ));
        assert!(engine
            .run_outcome(RunSpec::packed(Vec::new(), 4))
            .unwrap()
            .answers
            .is_empty());
    }

    #[test]
    #[should_panic]
    fn a_panicking_backend_fails_the_run_instead_of_hanging() {
        use crowdprompt_oracle::pricing::Pricing;
        use crowdprompt_oracle::types::LanguageModel;

        /// Panics on item 3; everything else answers.
        struct Landmine(SimulatedLlm);
        impl LanguageModel for Landmine {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn context_window(&self) -> u32 {
                self.0.context_window()
            }
            fn pricing(&self) -> Pricing {
                self.0.pricing()
            }
            fn complete(
                &self,
                request: &CompletionRequest,
            ) -> Result<CompletionResponse, LlmError> {
                assert!(!request.prompt.contains("item number 3"), "landmine");
                self.0.complete(request)
            }
        }

        let mut w = WorldModel::new();
        let ids: Vec<_> = (0..8)
            .map(|i| w.add_item(format!("item number {i}")))
            .collect();
        let corpus = Corpus::from_world(&w, &ids);
        let llm = Landmine(SimulatedLlm::new(
            ModelProfile::gpt35_like(),
            Arc::new(w),
            7,
        ));
        let engine =
            Engine::new(Arc::new(LlmClient::new(Arc::new(llm))), corpus).with_parallelism(4);
        // Whichever worker draws item 3 unwinds with its claim; the caller
        // must come back (and re-raise) rather than wait on slots nobody
        // will fill.
        let _ = engine.run_outcome(RunSpec::tasks(
            ids.iter().map(|id| check_task(*id)).collect(),
        ));
    }

    /// A shape that runs every item whatever happens to its neighbours, on
    /// the calling thread alone.
    const EVERY_ITEM: RunShape = RunShape {
        attempts: 1,
        stop_on_error: false,
        workers: 1,
    };

    /// `tasks` rendered for a per-call-admitted batch, unknown items
    /// pre-failed.
    fn rendered(engine: &Engine, tasks: Vec<TaskDescriptor>) -> Vec<Result<Work, EngineError>> {
        let calls = tasks.into_iter().map(|t| engine.unsampled(t)).collect();
        engine.prepare(calls, Admit::PerCall, None, FailurePolicy::FailFast)
    }

    #[test]
    fn a_job_is_a_three_word_handle() {
        assert!(std::mem::size_of::<Job>() <= 32);
    }

    #[test]
    fn a_pre_failed_item_is_recorded_at_enqueue_and_stops_a_strict_batch_before_any_call() {
        let (engine, ids) = engine_with(3, Budget::Unlimited);
        let tasks = || {
            vec![
                check_task(ids[0]),
                check_task(crowdprompt_oracle::ItemId(999)),
                check_task(ids[2]),
            ]
        };
        let (batch, queued) = engine.enqueue(rendered(&engine, tasks()), EVERY_ITEM);
        {
            let slots = batch.slots.lock();
            assert!(matches!(
                slots.results[1].as_ref().unwrap().as_ref().unwrap_err()[..],
                [EngineError::UnknownItem(_)]
            ));
            assert!(slots.results[0].is_none() && slots.results[2].is_none());
            assert_eq!(
                slots.outstanding, 2,
                "only the rendered items are waited on"
            );
        }
        assert_eq!(queued, 2);
        assert_eq!(engine.lane.feed.len(), 2, "and only they are queued");
        engine.work(&batch);
        assert!(batch.is_done());

        // A stop-on-error pump refuses the same batch whole: nothing
        // queued, nothing called.
        let (strict, _) = engine_with(3, Budget::Unlimited);
        let shape = strict.shape(FailurePolicy::FailFast);
        let refused = strict.pump(rendered(&strict, tasks()), shape);
        assert!(matches!(refused, Err(EngineError::UnknownItem(_))));
        assert!(strict.lane.feed.is_empty());
        assert_eq!(strict.client().stats().calls(), 0);
    }

    #[test]
    fn a_job_drawn_by_another_engines_worker_reads_its_own_batchs_request() {
        // Every item's prompt has its own length, so the prompt tokens a
        // response reports say which request was run.
        let mut w = WorldModel::new();
        let ids: Vec<_> = (0..8)
            .map(|i| w.add_item("word ".repeat(3 * i + 1)))
            .collect();
        let corpus = Corpus::from_world(&w, &ids);
        let llm = SimulatedLlm::new(ModelProfile::perfect(), Arc::new(w), 7);
        let base = Engine::new(Arc::new(LlmClient::new(Arc::new(llm))), corpus);
        let feed = Arc::new(FairFeed::new());
        let on_lane = |key: &str| Engine {
            lane: Lane {
                feed: Arc::clone(&feed),
                index: feed.register_lane(key, 1.0).unwrap(),
            },
            ..base.fork()
        };
        let (a, b) = (on_lane("a"), on_lane("b"));
        let tasks =
            |ids: &[crowdprompt_oracle::ItemId]| ids.iter().map(|id| check_task(*id)).collect();
        let (batch_a, _) = a.enqueue(rendered(&a, tasks(&ids[..4])), EVERY_ITEM);
        let (batch_b, _) = b.enqueue(rendered(&b, tasks(&ids[4..])), EVERY_ITEM);
        // B's worker drains the round-robin feed until B's batch is done,
        // running A's jobs — same slot numbers, other requests — on the way.
        b.work(&batch_b);
        assert!(batch_b.is_done());
        assert!(
            batch_a.slots.lock().outstanding < 4,
            "b's worker ran some of a's jobs"
        );
        a.work(&batch_a);
        for batch in [&batch_a, &batch_b] {
            let slots = batch.slots.lock();
            for (work, result) in batch.work.iter().zip(&slots.results) {
                let work = work.as_ref().unwrap();
                let response = result.as_ref().unwrap().as_ref().unwrap();
                assert_eq!(response.usage.prompt_tokens, work.prompt_tokens);
            }
        }
        let tokens_of = |batch: &Batch| -> Vec<u32> {
            batch
                .work
                .iter()
                .flatten()
                .map(|w| w.prompt_tokens)
                .collect()
        };
        assert!(tokens_of(&batch_a)
            .iter()
            .all(|t| !tokens_of(&batch_b).contains(t)));
    }

    #[test]
    fn a_worker_that_dies_holding_a_job_fails_that_slot_and_the_batch_is_freed_once() {
        let (engine, ids) = engine_with(4, Budget::Unlimited);
        let tasks = ids.iter().map(|id| check_task(*id)).collect();
        let (batch, _) = engine.enqueue(rendered(&engine, tasks), EVERY_ITEM);
        let alive = Arc::downgrade(&batch);
        let feed = Arc::clone(&engine.lane.feed);
        let died = std::thread::spawn(move || {
            let job = feed.claim().unwrap();
            panic!("backend blew up under slot {}", job.slot);
        })
        .join();
        assert!(died.is_err());
        {
            let slots = batch.slots.lock();
            assert!(matches!(
                slots.results[0].as_ref().unwrap().as_ref().unwrap_err()[..],
                [EngineError::Llm(LlmError::ServiceUnavailable)]
            ));
            assert!(slots.results[1..].iter().all(Option::is_none));
            assert_eq!(slots.outstanding, 3);
        }
        // The dead job's request is still the batch's, with the rest.
        assert!(batch.work.iter().all(Option::is_some));
        engine.work(&batch);
        batch.wait_done();
        assert!(batch.slots.lock().results[1..]
            .iter()
            .all(|r| matches!(r, Some(Ok(_)))));
        // Every handle is gone; the caller's is the last, and letting go of
        // it frees the requests.
        assert_eq!(Arc::strong_count(&batch), 1);
        drop(batch);
        assert!(alive.upgrade().is_none());
    }

    #[test]
    fn fair_feed_equal_weights_interleave() {
        let feed: FairFeed<(usize, usize)> = FairFeed::new();
        assert!(feed.register("a", 1.0));
        assert!(feed.register("b", 1.0));
        assert!(!feed.register("a", 2.0), "no silent re-register");
        for i in 0..8 {
            feed.push("a", (0, i));
        }
        for i in 0..8 {
            feed.push("b", (1, i));
        }
        assert_eq!(feed.len(), 16);
        // Under equal weights, any prefix of the drain order is within one
        // item of a perfect alternation.
        let mut counts = [0usize; 2];
        for step in 1..=16 {
            let (tenant, _) = feed.claim().unwrap();
            counts[tenant] += 1;
            let diff = counts[0].abs_diff(counts[1]);
            assert!(
                diff <= 1,
                "step {step}: counts {counts:?} drifted past one item"
            );
        }
        assert!(feed.claim().is_none());
        assert!(feed.is_empty());
    }

    #[test]
    fn fair_feed_weighted_shares_track_weights() {
        let feed: FairFeed<usize> = FairFeed::new();
        feed.register("heavy", 3.0);
        feed.register("light", 1.0);
        for i in 0..60 {
            feed.push("heavy", i);
            if i < 20 {
                feed.push("light", i);
            }
        }
        // Drain the first 40 claims: heavy should get ~3x light's service
        // (measured by queue-depth deltas — 60 heavy / 20 light pushed).
        for _ in 0..40 {
            feed.claim().unwrap();
        }
        let heavy = 60 - feed.queued_for("heavy");
        let light = 20 - feed.queued_for("light");
        assert_eq!(heavy + light, 40);
        assert!(
            (28..=32).contains(&heavy),
            "3:1 weights should serve ~30 of 40 claims to heavy, got {heavy}"
        );
    }

    #[test]
    fn fair_feed_idle_tenant_banks_no_credit() {
        let feed: FairFeed<usize> = FairFeed::new();
        feed.register("idle", 5.0);
        feed.register("busy", 1.0);
        // The idle tenant's queue is visited (and would top up) repeatedly
        // while busy drains alone...
        for i in 0..10 {
            feed.push("busy", i);
        }
        for _ in 0..10 {
            feed.claim().unwrap();
        }
        // ...but when idle finally shows up alongside fresh busy work, it
        // gets its weighted share going forward, not a stored burst beyond
        // one visit's top-up.
        for i in 0..12 {
            feed.push("idle", i);
            feed.push("busy", i);
        }
        let mut idle_served = 0usize;
        for _ in 0..12 {
            feed.claim().unwrap();
            idle_served = 12 - feed.queued_for("idle");
        }
        // Weight 5 vs 1 bounds idle to ~10 of the first 12 claims; banked
        // credit from the idle period would let it take all 12.
        assert!(
            idle_served <= 11,
            "idle tenant must not bank credit while empty, served {idle_served}"
        );
        assert!(feed.push("busy", 99));
        assert!(!feed.push("unknown", 0), "unregistered key is refused");
    }

    #[test]
    fn run_outcome_matches_strict_entry_points() {
        let (engine, ids) = engine_with(12, Budget::Unlimited);
        let tasks: Vec<_> = ids.iter().map(|id| check_task(*id)).collect();

        // Per-item spec vs run_many: same answers, and the metered
        // responses are exactly the per-item responses.
        let strict = engine.run_many(tasks.clone()).unwrap();
        let unified = engine.run_outcome(RunSpec::tasks(tasks.clone())).unwrap();
        assert!(unified.is_complete());
        assert_eq!(unified.ok_count(), 12);
        assert_eq!(unified.responses.len(), 12);
        for ((answer, result), response) in unified
            .answers
            .iter()
            .zip(unified.item_results())
            .zip(&strict)
        {
            assert_eq!(answer.as_ref().unwrap(), &response.text);
            assert_eq!(result.unwrap().text, response.text);
        }

        // Packed spec: one answer per item out of fewer calls.
        let packed = engine
            .run_outcome(RunSpec::packed(tasks.clone(), 4))
            .unwrap();
        assert_eq!(packed.answers.len(), 12);
        assert!(packed.is_complete());
        assert!(packed.responses.len() < 12);

        // Width <= 1 routes through the per-item path even for tasks that
        // could not be packed.
        let single = engine.run_outcome(RunSpec::packed(tasks, 1)).unwrap();
        assert_eq!(single.answers.len(), 12);
        assert!(single.is_complete());

        // Incompatible packs stay a caller bug.
        let mixed = vec![
            check_task(ids[0]),
            TaskDescriptor::Impute {
                item: ids[1],
                attribute: "x".into(),
                examples: Vec::new(),
            },
        ];
        assert!(engine.run_outcome(RunSpec::packed(mixed, 4)).is_err());
    }
}
