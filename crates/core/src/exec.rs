//! The execution engine: budget-guarded, pipelined, parallel unit-task
//! dispatch.
//!
//! # One dispatch core
//!
//! Every entry point lowers to the same three steps, and the
//! [`FailurePolicy`] is a value they consult, not a second implementation:
//!
//! ```text
//!  calls ─► round ─────► pump ───────────────────────────────► BatchOutcome
//!           build, key, fair feed ───► caller ── execute ─┐
//!           probe; then (jobs point    helper 2 ─ execute ─┼─► the job's
//!           render,      into their     ...                │   batch: slots
//!           count,       batch; claims helper W ─ execute ─┘   in input order
//!           estimate,    ≤ workers×batch)
//!           admit the
//!           misses
//! ```
//!
//! * **round** (`Engine::run_packs`, the one round loop) takes every
//!   `Query`-door run: [`Engine::run_many`], [`Engine::run_outcome`] and
//!   the sampled vote rounds as rounds of width one (each item its own
//!   pack), the packed door at its width. Each pack's call is built from a
//!   per-index builder and keyed by its *task key* (`Engine::task_key`:
//!   the task's fingerprint, the fingerprints of the item texts its prompt
//!   names, the render options and a digest of the templates — never the
//!   prompt), in contiguous shares on the caller and the pump's render
//!   helpers when the round is large enough to pay for them (no per-item
//!   task list is held on the caller). The participant that keys a call
//!   probes it once, by that key (`Engine::settle_hit`, the one settle
//!   rule): a hit is billed, traced and placed in its slot there, free and
//!   never rendered, its request dropped on the thread that allocated it.
//!   Only a miss is rendered, its prompt's tokens counted once (the count
//!   rides on the work item for whoever needs it later — the estimate
//!   here, context fitting in the pack loop), estimated and stamped with
//!   how it is admitted against the budget; it is queued with its key. A
//!   miss admitted per call is admitted there, at its estimate, and
//!   pre-fails its item if refused. The caller then walks the
//!   round in input order: it admits a round that is admitted whole (a
//!   per-item run's misses, cumulatively — the i-th miss must fit after
//!   the estimated spend of the misses before it, hits are free) or
//!   refuses it before any call, refuses a packed round that mixes
//!   instructions, and splits the oversize packs, before anything is
//!   queued. Once the round is answered, each pack's response is split
//!   into borrowed lines and every line read into the operator's typed
//!   answer in the same shares; a single's answer is read on the caller.
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
//!   requests are freed with the batch by whoever lets go of it last —
//!   the caller, once its helpers are joined — not one at a time by
//!   whichever worker drew each, which had helpers returning memory to the
//!   caller's allocator arena while the caller allocated from it. Workers
//!   *pull* small claims, at most `workers × MAX_CLAIM`
//!   claimed-but-unfinished; claim size doubles after a claim that averaged
//!   under `FAST_TASK_MICROS` per job and halves after a slow one. On both
//!   doors the feed orders only the work that needs a slot: a round's hits
//!   are settled where they are keyed, before any render, and the serve door's batch,
//!   rendered and admitted by [`crate::serve::Server::submit`], is probed
//!   by the submitting thread before it is shared. Only misses are queued,
//!   counted as outstanding and used to size the helpers — a batch of hits
//!   never meets the feed, a job, a lease or the condvar.
//! * **execute** is the one worker body: admit, re-check the key the probe
//!   before queueing left ([`LlmClient::probe_key`], no hashing: another
//!   call may have answered it meanwhile), dispatch under that key with up
//!   to the batch's attempt allowance, account. With one attempt it *is*
//!   the fail-fast worker. On a serving stack a call that may reach the
//!   backend holds a slot lease; a hit — at render, at the serve door's
//!   probe, or at the re-check — takes none.
//!
//! The policy is read at three points in this file — the attempt
//! allowance and stop-on-first-error in `RunShape`, and
//! salvage-before-admission in `admission_mode` — plus `Settle`, the
//! per-item helper operators hand their parse results to.
//!
//! [`Engine::run`] and [`Engine::run_many`] are always strict (callers
//! pattern-match on their `Err`; the ranking and matching operators reach
//! them through `ops::judge`); [`Engine::run_outcome`] obeys the engine's
//! policy.
//!
//! # Packed dispatch
//!
//! The crate-private `Engine::run_built` is the one multi-item prompt
//! door: the operators hand it a per-index task builder and a reader that
//! turns one answer's text into their typed answer, and point-wise tasks
//! sharing one instruction are packed `width` to a prompt
//! ([`TaskDescriptor::Packed`]), cutting the call count to ⌈n/width⌉. A pack
//! whose prompt overflows the context window is split before dispatch; a
//! pack whose response does not split into one line per item — or, when
//! the policy degrades, that fails outright — is bisected and retried, one
//! pumped round per level, down to bare singletons that carry the same
//! fingerprint a round of width one issues. Each line is read where it lies,
//! borrowed from the pack's response, so the operator settles typed
//! answers and no line is copied out.
//!
//! # Retry pauses and resume
//!
//! Under [`FailurePolicy::Degrade`] an item whose call fails retryably is
//! tried again, up to `max_attempts` engine attempts, after a pause that
//! honours the failure's `Retry-After` hint clamped to [5, 250] ms. This
//! pause is the one place a hint is read: the router below retries at once,
//! on another backend.
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
use crowdprompt_oracle::hash;
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
use crate::template::{render, template_digest, walk_items, RenderOptions};
use crate::trace::{Trace, TraceEvent};

/// Smallest number of jobs a worker claims from the feed at once.
const MIN_CLAIM: usize = 1;
/// Largest number of jobs a worker claims from the feed at once; also bounds
/// the work queue: at most `parallelism × MAX_CLAIM` jobs are claimed ahead
/// of completion.
const MAX_CLAIM: usize = 32;
/// Packs a participant must hold before a packed round's build and render,
/// or its answers' parse, is shared out: a share is then hundreds of
/// microseconds of work against a thread start of tens, and bisect rounds
/// and small runs stay on the caller.
const PACKS_PER_SHARE: usize = 64;
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
    seed: u64,
    render_opts: RenderOptions,
    /// The render options' and the templates' part of every task key
    /// ([`Engine::task_key`]), fixed with the options.
    render_key: u64,
    trace: Option<Arc<Trace>>,
    failure_policy: FailurePolicy,
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
    /// An engine over the given client and corpus with an unlimited budget
    /// and modest parallelism. Calls run at temperature 0 unless a vote
    /// round samples.
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
            seed: 0,
            render_key: render_key(&RenderOptions::default()),
            render_opts: RenderOptions::default(),
            trace: None,
            failure_policy: FailurePolicy::FailFast,
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
        self.render_key = render_key(&self.render_opts);
        self
    }

    /// Attach a trace recorder: every completed call is logged (builder
    /// style).
    #[must_use]
    pub(crate) fn with_trace(mut self, trace: Arc<Trace>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Set the failure policy (builder style) that [`Engine::run_outcome`]
    /// and, through `Engine::settle`, the point-wise operators obey. The
    /// default, [`FailurePolicy::FailFast`], stops a batch on its first
    /// hard error; [`FailurePolicy::Degrade`] salvages every completable
    /// item and quarantines the rest.
    #[must_use]
    pub fn with_failure_policy(mut self, policy: FailurePolicy) -> Self {
        self.failure_policy = policy;
        self
    }

    /// The engine's corpus.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The threads a batch on this engine may split over: its
    /// parallelism, at most the machine's cores.
    pub(crate) fn threads(&self) -> usize {
        self.parallelism.min(cores())
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

    /// The engine's failure policy.
    pub fn failure_policy(&self) -> FailurePolicy {
        self.failure_policy
    }

    /// Drain the degraded-run notes accumulated since the last call. The
    /// plan executor drains after each node; direct engine users may
    /// inspect the notes themselves.
    pub(crate) fn take_salvage(&self) -> Vec<OpSalvage> {
        std::mem::take(&mut *self.salvage.lock())
    }

    /// Dollar cost of a usage under the engine's *reference* model pricing
    /// (the cheapest backend's schedule). Estimates
    /// price against this; actual responses are priced by
    /// [`Engine::cost_of_response`].
    pub(crate) fn cost_of(&self, usage: crowdprompt_oracle::Usage) -> f64 {
        self.client.model().pricing().cost_usd(usage)
    }

    /// Dollar cost of a completed response, priced at the schedule of the
    /// backend that served it ([`CompletionResponse::pricing`]). With
    /// multi-backend routing this is what keeps operator cost meters, the
    /// budget tracker, and the client ledger mutually consistent; for a
    /// single-backend client it equals `cost_of(response.usage)`.
    pub(crate) fn cost_of_response(&self, response: &CompletionResponse) -> f64 {
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

    /// The task key of `task`: the content half of the key its request is
    /// cached, stored and journaled under
    /// ([`CompletionRequest::task_key`]), computed from what its prompt is
    /// rendered from and never from the prompt, so a cache hit is settled
    /// before its prompt exists. It folds the task's
    /// [`TaskDescriptor::fingerprint`], the render options' and the
    /// templates' digest ([`Engine::render_key`]), and the fingerprint of
    /// each item text the prompt holds, taken when the text entered the
    /// corpus, in the order the renderer reads them ([`walk_items`]). It
    /// fails exactly where [`render`] fails, with the same error: the
    /// first item the corpus lacks, or the packed renderer's refusal. The
    /// one place this crate computes a key.
    fn task_key(&self, task: &TaskDescriptor) -> Result<u64, EngineError> {
        let mut key = hash::combine(task.fingerprint(), self.render_key);
        walk_items(task, &mut |id| {
            let text = self
                .corpus
                .text_key(id)
                .ok_or(EngineError::UnknownItem(id))?;
            key = hash::combine(key, text);
            Ok(())
        })?;
        Ok(key)
    }

    /// `call` as a request keyed by its task key ([`Engine::task_key`]),
    /// its prompt not yet rendered (empty, no allocation): all a probe
    /// reads. Only a miss is then rendered ([`Engine::render_work`]).
    pub(crate) fn keyed(
        &self,
        (task, temperature, sample_index): Call,
    ) -> Result<CompletionRequest, EngineError> {
        let task_key = Some(self.task_key(&task)?);
        Ok(CompletionRequest {
            temperature,
            sample_index,
            task_key,
            ..CompletionRequest::new(String::new(), task)
        })
    }

    /// Render a keyed request's prompt and estimate its usage — the
    /// prompt's token count, the one place this file counts tokens, and a
    /// completion allowance — and its cost, without budget admission.
    pub(crate) fn render_and_estimate(
        &self,
        request: &mut CompletionRequest,
    ) -> Result<(crowdprompt_oracle::Usage, f64), EngineError> {
        request.prompt = render(&request.task, &self.corpus, &self.render_opts)?;
        #[cfg(debug_assertions)]
        one_prompt_per_task_key(request);
        let est_usage = crowdprompt_oracle::Usage {
            prompt_tokens: count_tokens(&request.prompt),
            completion_tokens: Self::estimate_completion_tokens(&request.task),
        };
        Ok((est_usage, self.cost_of(est_usage)))
    }

    /// Estimate one task's `(usd, total tokens)` cost by rendering its
    /// prompt over the corpus — no budget admission, no model call. The
    /// planner uses this to cost physical plan nodes from representative
    /// tasks before anything is dispatched.
    pub(crate) fn estimate_task(&self, task: TaskDescriptor) -> Result<(f64, u64), EngineError> {
        let mut request = self.keyed(Engine::unsampled(task))?;
        let (est_usage, est_usd) = self.render_and_estimate(&mut request)?;
        Ok((est_usd, u64::from(est_usage.total())))
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

    /// Execute one unit task at temperature 0: a one-task
    /// [`Engine::run_many`].
    pub fn run(&self, task: TaskDescriptor) -> Result<CompletionResponse, EngineError> {
        let mut responses = self.run_many(vec![task])?;
        Ok(responses.pop().expect("one response per task")) // lint: allow(no-unwrap)
    }

    /// Execute a batch of unit tasks as one round of width one, preserving
    /// order. Always strict, whatever the engine's policy: the first hard
    /// error fails the batch (transient errors are already retried inside
    /// the client), and the batch's misses are admitted against the budget
    /// *cumulatively* before any call — the i-th miss must fit after the
    /// estimated spend of the misses before it, so a batch whose misses
    /// would blow through the budget is refused whole. A cache hit is
    /// settled where it is keyed, never rendered, and costs nothing, so it
    /// is not counted.
    pub fn run_many(
        &self,
        tasks: Vec<TaskDescriptor>,
    ) -> Result<Vec<CompletionResponse>, EngineError> {
        let calls = tasks.into_iter().map(Engine::unsampled);
        // A stop-on-error round returns `Err` before any item can be one,
        // and the responses are all a caller gets: no answer is read.
        let unread = |_: &str| Ok(());
        Ok(self
            .run_calls(calls, Admit::Batch, FailurePolicy::FailFast, &unread)?
            .responses)
    }

    /// Execute `spec`, one call per task at temperature 0, as one round of
    /// width one under the engine's [`FailurePolicy`], and normalize to a
    /// [`BatchOutcome`]: per-item answers in input order, the responses to
    /// meter, and the quarantined remainder.
    ///
    /// Under [`FailurePolicy::FailFast`] the first hard error (lowest input
    /// index among the failures observed) is returned as `Err`, after the
    /// batch's misses were admitted cumulatively before any call, as
    /// [`Engine::run_many`] admits them. Under [`FailurePolicy::Degrade`]
    /// every item runs to completion or quarantine; cache hits are salvaged
    /// even after the budget is exhausted, since they cost nothing to serve.
    pub fn run_outcome(&self, spec: RunSpec) -> Result<BatchOutcome, EngineError> {
        let calls = spec.tasks.into_iter().map(Engine::unsampled);
        let owned = |text: &str| Ok(text.to_owned());
        self.run_calls(calls, Admit::Batch, self.failure_policy, &owned)
    }

    /// One call per `(task, temperature, sample_index)`, each admitted per
    /// call, under the engine's policy, each answer read by `read`: a
    /// per-item vote round's fan-out (`ops::filter`).
    pub(crate) fn run_sampled<A: Send>(
        &self,
        calls: Vec<Call>,
        read: &Reader<'_, A>,
    ) -> Result<BatchOutcome<A>, EngineError> {
        self.run_calls(calls, Admit::PerCall, self.failure_policy, read)
    }

    /// The one packed door (or, with `sampling`, one packed vote round),
    /// over `n` tasks that the caller does not hold: task `i` is
    /// `task_of(i)`, built by the pump participant that renders it (alone,
    /// or in its pack), and its answer is what `read` makes of its text. At
    /// width ≤ 1 without `sampling` the round is admitted whole, as
    /// [`Engine::run_outcome`] admits it; otherwise per call.
    pub(crate) fn run_built<A: Send>(
        &self,
        n: usize,
        task_of: &(dyn Fn(usize) -> TaskDescriptor + Sync),
        width: usize,
        sampling: Option<(f64, u32)>,
        read: &Reader<'_, A>,
    ) -> Result<BatchOutcome<A>, EngineError> {
        let (temperature, sample_index) = sampling.unwrap_or((0.0, 0));
        let width = width.max(1);
        let admit = match (width, sampling) {
            (1, None) => Admit::Batch,
            _ => Admit::PerCall,
        };
        let call_of = |i: usize| (task_of(i), temperature, sample_index);
        self.run_packs(n, &call_of, width, admit, self.failure_policy, read)
    }

    /// `calls` as one round of width one: each call is moved out of its
    /// slot as the round renders it, never cloned (the round's builder is
    /// a shared `Fn`, hence a lock per slot, never contended).
    fn run_calls<A: Send>(
        &self,
        calls: impl IntoIterator<Item = Call>,
        admit: Admit,
        policy: FailurePolicy,
        read: &Reader<'_, A>,
    ) -> Result<BatchOutcome<A>, EngineError> {
        let calls: Vec<Mutex<Option<Call>>> = calls
            .into_iter()
            .map(|call| Mutex::new(Some(call)))
            .collect();
        let call_of = |i: usize| {
            let call = calls[i].lock().take();
            call.expect("a round of width one builds each call once") // lint: allow(no-unwrap)
        };
        self.run_packs(calls.len(), &call_of, 1, admit, policy, read)
    }

    /// Begin settling one operator run's per-item parse results under the
    /// engine's failure policy (see [`Settle`]).
    pub(crate) fn settle(&self, op: &'static str) -> Settle<'_> {
        Settle {
            engine: self,
            op,
            lost: (self.failure_policy != FailurePolicy::FailFast).then(BTreeMap::new),
        }
    }

    /// The one round loop: pack → context-split → bisect over `n` calls,
    /// call `i` built by `call_of(i)` and its answer read by `read`, `width`
    /// to a pack. Width one is a per-item run: one call per item, each item
    /// its own pack. Each level is one pumped round, so bisection costs
    /// O(log width) rounds, not O(n) sequential calls. A round's packs are
    /// built, rendered and probed, and its packs' answers split into lines
    /// borrowed from each response and read, in the pump's shares
    /// ([`in_shares`]); the caller admits, fits packs to the context window,
    /// reads a single's answer, places typed answers and records
    /// bisections, in input order. Render errors, dispatch failures and
    /// unparseable responses all narrow the same way — a pack splits in
    /// half, an irreducible single is quarantined — so every healthy item
    /// packed next to a broken one still completes; a fail-fast pump
    /// returns its first error before any of that is reached.
    ///
    /// At width > 1 every pack is checked against the first call as it is
    /// built, and a round's every pack is keyed before any is queued, so a
    /// builder that mixes instructions is refused with
    /// [`EngineError::InvalidInput`] before any call, whatever the policy;
    /// a packed run's calls share one sampling, so a pack is asked at its
    /// first call's. A run of width one may mix task kinds.
    ///
    /// A pack is probed by its task key before it is rendered, so a hit is
    /// settled before its prompt exists, with two consequences that held
    /// otherwise while the render came first. A hit is free under
    /// [`Admit::PerCall`] too: a packed or sampled round whose budget cannot
    /// cover a hit's estimate is served that hit (the estimate used to be
    /// admitted first, the hit pre-failed and the round refused). And a
    /// stored answer is served for a pack whose prompt now overflows the
    /// model's context window, as from a store filled under a larger
    /// window: only a miss is fitted to the window (the pack used to be
    /// split and its halves paid for again).
    fn run_packs<A: Send>(
        &self,
        n: usize,
        call_of: &(dyn Fn(usize) -> Call + Sync),
        width: usize,
        admit: Admit,
        policy: FailurePolicy,
        read: &Reader<'_, A>,
    ) -> Result<BatchOutcome<A>, EngineError> {
        fn bisect(pack: &Range<usize>, next: &mut Vec<Range<usize>>) {
            let mid = pack.start + pack.len() / 2;
            next.push(pack.start..mid);
            next.push(mid..pack.end);
        }
        let mut outcome = BatchOutcome::default();
        if n == 0 {
            return Ok(outcome);
        }
        // What every pack of a packed run is checked against, built once;
        // where item 0 is packed, it is cloned from here rather than built
        // again.
        let first = (width > 1).then(|| call_of(0));
        let build = |i: usize| match (i, &first) {
            (0, Some(first)) => first.clone(),
            _ => call_of(i),
        };
        let window = self.client.model().context_window();
        let mut answers: Vec<Option<Result<A, EngineError>>> =
            std::iter::repeat_with(|| None).take(n).collect();
        // Pending packs, as index ranges over the calls.
        let mut pending: Vec<Range<usize>> = (0..n)
            .step_by(width)
            .map(|start| start..(start + width).min(n))
            .collect();
        let mode = admission_mode(admit, policy);
        let books = self.books();
        // A pack whose rendered prompt overflows the window (by the count
        // its render took) is split, never asked.
        let oversize = |width: usize, work: &Work| width > 1 && work.prompt_tokens > window;
        // A round of width one is rendered and read on the caller alone:
        // its calls are small and many, and rendered by helpers they raised
        // `sort_cold`'s peak RSS (ARCHITECTURE.md).
        let shares = if width > 1 { self.parallelism } else { 1 };
        while !pending.is_empty() {
            // Each pack's calls — built here — its check, render, count and
            // estimate, and the probe that settles a hit, on whichever of the
            // pump's participants holds it.
            let render = |i: usize| {
                let pack = pending[i].clone();
                let width = pack.len();
                let call = match &first {
                    Some((_, temperature, sample_index)) if width > 1 => (
                        TaskDescriptor::Packed {
                            tasks: pack.map(|i| build(i).0).collect(),
                        },
                        *temperature,
                        *sample_index,
                    ),
                    _ => build(pack.start),
                };
                if let Some((first, ..)) = &first {
                    let fits = match &call.0 {
                        TaskDescriptor::Packed { tasks } => {
                            tasks.iter().all(|task| packs_with(first, task))
                        }
                        single => packs_with(first, single),
                    };
                    if !fits {
                        return Err(mixed_packs());
                    }
                }
                // Probed by its task key before its prompt exists: a hit
                // is settled and never rendered.
                let request = self.keyed(call)?;
                let key = match self.settle_hit(&books, &request) {
                    Probe::Hit(hit) => return Ok(Rendered::Settled(hit)),
                    Probe::Miss(key) => key,
                };
                let mut work = self.render_work(request, mode)?;
                work.key = key;
                // An oversize pack is split by `keep`, never asked, so it is
                // not admitted; a call admitted per call is admitted here,
                // at its estimate, and pre-fails its item if refused.
                if mode == Admit::PerCall && !oversize(width, &work) {
                    let Admission {
                        est_usd,
                        est_tokens,
                        ..
                    } = work.admission;
                    self.admit_estimate(&books.ledger, est_usd, est_tokens)?;
                }
                Ok(Rendered::Work(work))
            };
            let mut next: Vec<Range<usize>> = Vec::new();
            let mut round: Vec<Range<usize>> = Vec::new();
            // The estimate a round admitted whole has let through so far.
            let (mut admitted_usd, mut admitted_tokens) = (0.0f64, 0u64);
            // On the caller in input order: refuse a mixed packed round —
            // only the check above and the packed renderer's own packing
            // contract raise `InvalidInput` at render — or, admitted whole,
            // one with a pre-failed call or more misses than the budget
            // covers; fit the rest to the context window: an oversize pack
            // splits without wasting a call.
            let mut keep = |i: usize, prepared: &Prepared| {
                let pack = pending[i].clone();
                match prepared {
                    Err(refused)
                        if mode == Admit::Batch
                            || (width > 1 && matches!(refused, EngineError::InvalidInput(_))) =>
                    {
                        return Err(refused.clone());
                    }
                    Ok(Rendered::Work(work)) if oversize(pack.len(), work) => {
                        bisect(&pack, &mut next);
                        return Ok(false);
                    }
                    // The i-th miss must fit after the estimated spend of
                    // the misses before it; a hit settled at render is free.
                    Ok(Rendered::Work(work)) if mode == Admit::Batch => {
                        let admit_usd = self.admission_usd(work.admission.est_usd);
                        admitted_usd += admit_usd;
                        admitted_tokens += work.admission.est_tokens;
                        if !self.budget.admit(admitted_usd, admitted_tokens) {
                            return Err(EngineError::BudgetExceeded {
                                needed_usd: admit_usd,
                                remaining_usd: self.budget.remaining_usd(),
                            });
                        }
                    }
                    _ => {}
                }
                round.push(pack);
                Ok(true)
            };
            let intake = Intake::Shares {
                count: pending.len(),
                shares,
                render: &render,
                keep: &mut keep,
            };
            let results = self.pump(intake, self.shape(policy))?;
            // Each answered pack's answers, read in the same shares: its
            // lines borrowed from its response; `None` for a single (read
            // below), a failure or a list of another length. A round of
            // width one holds only singles, so it builds no parse list.
            let parse = |i: usize| {
                let width = round[i].len();
                if width == 1 {
                    return None;
                }
                let text = &results[i].as_ref().ok()?.text;
                let mut lines = crate::extract::list_items(text);
                let answers: Vec<_> = lines.by_ref().take(width).map(read).collect();
                (answers.len() == width && lines.next().is_none()).then_some(answers)
            };
            let parsed = if width > 1 {
                in_shares(round.len(), shares, &parse)
            } else {
                Vec::new()
            };
            let mut parsed = parsed.into_iter();
            for (pack, item) in round.into_iter().zip(results) {
                let typed = parsed.next().flatten();
                match item {
                    Ok(response) => {
                        if pack.len() == 1 {
                            answers[pack.start] = Some(read(&response.text));
                        } else if let Some(typed) = typed {
                            for (slot, answer) in answers[pack.clone()].iter_mut().zip(typed) {
                                *slot = Some(answer);
                            }
                        } else {
                            bisect(&pack, &mut next);
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
    /// mode, not yet probed: the serve door's render, of every task before
    /// any cache is asked. Nothing is checked against a budget here.
    pub(crate) fn render_call(&self, call: Call, mode: Admit) -> Result<Work, EngineError> {
        self.render_work(self.keyed(call)?, mode)
    }

    /// Render a keyed request into dispatcher work stamped with its
    /// admission mode; nothing is checked against a budget here.
    fn render_work(
        &self,
        mut request: CompletionRequest,
        mode: Admit,
    ) -> Result<Work, EngineError> {
        let (est_usage, est_usd) = self.render_and_estimate(&mut request)?;
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

    /// `task` as a call at temperature 0, sample 0.
    pub(crate) fn unsampled(task: TaskDescriptor) -> Call {
        (task, 0.0, 0)
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

    /// The one worker loop: queue the batch's misses on this engine's lane,
    /// work the feed from the calling thread beside up to
    /// `shape.workers − 1` helpers until the batch is done, and return
    /// per-item results in input order. `Err`
    /// — the failure with the lowest input index among those observed —
    /// only when the shape stops on the first error; then a pre-failed item
    /// fails the batch before anything is queued.
    ///
    /// A round ([`Intake::Shares`]) is keyed, probed and its misses
    /// rendered here first, by [`in_shares`] on up to its `shares`
    /// participants, which settle its hits as they go; then the caller keeps or drops each item in
    /// input order, or refuses the round before anything is queued. The
    /// serve door's batch ([`Intake::Rendered`]) is settled on the calling
    /// thread. Either way every queued request has been probed.
    pub(crate) fn pump(
        &self,
        intake: Intake<'_>,
        shape: RunShape,
    ) -> Result<Vec<ItemResult>, EngineError> {
        let items = match intake {
            Intake::Rendered(items) => self.probe_rendered(items),
            Intake::Shares {
                count,
                shares,
                render,
                keep,
            } => {
                let rendered = in_shares(count, shares, render);
                rendered
                    .into_iter()
                    .enumerate()
                    .map(|(i, item)| Ok(keep(i, &item)?.then_some(item)))
                    .filter_map(Result::transpose)
                    .collect::<Result<_, EngineError>>()?
            }
        };
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

    /// Where this engine's served responses are billed.
    fn books(&self) -> Books {
        Books {
            ledger: Arc::clone(&self.budget),
            trace: self.trace.clone(),
        }
    }

    /// The one settle rule for a call not yet queued: probe the client
    /// once, by the key its request carries (its task key, so a request
    /// whose prompt is not rendered yet is probed as well as one whose
    /// prompt is), and settle a hit here — billed and traced to `books` as
    /// a worker would. The hit comes back as [`Probe::Hit`], its request
    /// left for the caller to drop on this thread; a [`Probe::Miss`]
    /// carries the key the call missed under, for the worker that draws it
    /// to re-check and dispatch under. A hit is free, so nothing is
    /// admitted here: a round admits a miss once it is rendered and
    /// estimated, the serve door its whole batch before any probe.
    fn settle_hit(&self, books: &Books, request: &CompletionRequest) -> Probe {
        let probe = self.client.probe(request);
        if let Probe::Hit(hit) = &probe {
            books.account(request, hit);
        }
        probe
    }

    /// The serve door's work, settled on the submitting thread before it
    /// is shared ([`Engine::settle_hit`] on each rendered call).
    fn probe_rendered(&self, items: Vec<Prepared>) -> Vec<Prepared> {
        let books = self.books();
        items
            .into_iter()
            .map(|item| match item {
                Ok(Rendered::Work(mut work)) => match self.settle_hit(&books, &work.request) {
                    Probe::Hit(hit) => Ok(Rendered::Settled(hit)),
                    Probe::Miss(key) => {
                        work.key = key;
                        Ok(Rendered::Work(work))
                    }
                },
                item => item,
            })
            .collect()
    }

    /// Build the batch that owns `items`' requests and queue one handle per
    /// request that still needs a worker on this engine's lane; returns the
    /// batch and how many were queued. A pre-failed item, and a hit settled
    /// before it was queued, is recorded in its slot here, while the batch
    /// is still this thread's (no lock). A miss carries its key to the
    /// worker.
    fn enqueue(&self, items: Vec<Prepared>, shape: RunShape) -> (Arc<Batch>, usize) {
        let books = self.books();
        let mut results = Vec::with_capacity(items.len());
        let mut queued = Vec::new();
        let work: Vec<Option<Work>> = items
            .into_iter()
            .enumerate()
            .map(|(slot, item)| {
                let (work, result) = match item {
                    Ok(Rendered::Work(work)) => {
                        queued.push(slot);
                        (Some(work), None)
                    }
                    Ok(Rendered::Settled(hit)) => (None, Some(Ok(hit))),
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

    /// The one worker body: admit against the job's ledger (per call before
    /// the re-check, when salvaging after it), re-check the key the probe
    /// before queueing left, then dispatch under that key with up to the
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
        let admit = || {
            self.admit_estimate(&batch.books.ledger, admission.est_usd, admission.est_tokens)
                .map_err(|e| vec![e])
        };
        if admission.mode == Admit::PerCall {
            admit()?;
        }
        // Probed before it was queued, and queued since: someone else's
        // call may have answered the key meanwhile, and a hit must not take
        // a lease. Whoever answered it filled the shard, so the key alone
        // finds it; nothing is hashed again. A request without a key is one
        // the cache does not apply to.
        if let Some(hit) = key.and_then(|key| self.client.probe_key(key)) {
            return served(hit);
        }
        // A cache hit costs nothing to serve, so a salvaging run takes it
        // even when the budget is already spent, and asks only for a miss.
        if admission.mode == Admit::AfterSalvage {
            admit()?;
        }
        let mut errors: Vec<EngineError> = Vec::new();
        loop {
            let e = match self.dispatch(request, *key) {
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
            // by the spin floor and above by the pause cap.
            let wait = Duration::from_millis(
                hint.unwrap_or(MIN_ATTEMPT_PAUSE_MS)
                    .clamp(MIN_ATTEMPT_PAUSE_MS, MAX_ATTEMPT_PAUSE_MS),
            );
            parking_lot::blocking_region("engine retry pause");
            std::thread::sleep(wait);
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
    /// With its whole batch, before anything is queued. A round of width
    /// one ([`Engine::run_many`], [`Engine::run_outcome`]) checks its
    /// misses cumulatively, in input order, as the caller keeps them: the
    /// i-th miss must fit after the estimated spend of the misses before
    /// it, and one that does not refuses the round before any call. A hit
    /// settled where it was keyed is free and not counted, so a warm
    /// batch is served under a budget its estimate would overrun (until the
    /// per-item path joined the round loop, every call counted, hits
    /// included). The serve door checks its whole batch, hits included,
    /// against the tenant's ledger before any cache is asked. Nothing left
    /// to do in the worker.
    Batch,
    /// Per call, against actual spend so far. A round probes each call by
    /// its task key before it renders it, and a hit is settled free
    /// without admission: a round whose budget cannot cover a hit's
    /// estimate is served that hit. (Until the probe moved ahead of the
    /// render, the estimate was admitted first, so a hit was refused once
    /// the budget was gone, the item pre-failed and the round refused.) A
    /// miss is admitted where it is rendered, at its estimate, against the
    /// spend at render, not after the misses ahead of it in the round. A
    /// miss refused there pre-fails its item, which — since only a
    /// fail-fast run admits per call — refuses the round before any call.
    /// The worker admits a miss again, at execution time, before it
    /// re-checks and dispatches it.
    PerCall,
    /// Per call, but only after a free local hit has been ruled out: work
    /// still undispatched when the budget runs out is quarantined instead
    /// of started.
    AfterSalvage,
}

/// The admission mode a spec's `admit` runs under `policy`. Policy point: a
/// degrading run serves free local hits *before* it asks for budget, so
/// its admission moves behind the probe, whatever the spec's strict timing
/// would be.
fn admission_mode(admit: Admit, policy: FailurePolicy) -> Admit {
    match policy {
        FailurePolicy::FailFast => admit,
        FailurePolicy::Degrade { .. } => Admit::AfterSalvage,
    }
}

/// What a pump call queues.
pub(crate) enum Intake<'a> {
    /// The serve door's batch ([`crate::serve::Server::submit`], its one
    /// caller): work it rendered and admitted, in input order, not yet
    /// probed. The pump settles each call on the calling thread
    /// ([`Engine::settle_hit`]) before it is shared.
    Rendered(Vec<Prepared>),
    /// A round (of packs, or of single calls at width one): `count` calls,
    /// call `i` keyed, probed and, on a miss, rendered by `render(i)` on
    /// whichever of the pump's participants holds it in shares — a hit
    /// settled there ([`Engine::settle_hit`]) comes back as
    /// [`Rendered::Settled`] — and then handed, in input order on the
    /// caller, to `keep`, which says whether it is kept. A kept hit goes to
    /// its slot and only kept work is queued. A round refused after render
    /// (by `keep`, or a fail-fast pre-failure) has still counted and traced
    /// its hits, which cost nothing.
    Shares {
        count: usize,
        /// The most participants the render may split over.
        shares: usize,
        render: &'a (dyn Fn(usize) -> Prepared + Sync),
        keep: &'a mut dyn FnMut(usize, &Prepared) -> Result<bool, EngineError>,
    },
}

/// One call as a pump batch takes it: rendered, or settled, or the error
/// that pre-fails it.
pub(crate) type Prepared = Result<Rendered, EngineError>;

/// A call through the render step: its work, or the hit it settled.
pub(crate) enum Rendered {
    /// Still to be answered: queued for a worker.
    Work(Work),
    /// A hit [`Engine::settle_hit`] answered where the call was keyed:
    /// already billed and traced, its request already dropped.
    Settled(CompletionResponse),
}

/// What an operator makes of one answer's text: its typed answer, or why
/// the text holds none.
pub(crate) type Reader<'r, A> = dyn Fn(&str) -> Result<A, EngineError> + Sync + 'r;

/// The machine's core count, read once per process: the read is a
/// system call and tens of microseconds on some hosts.
fn cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// How many participants split `count` items of shared work among at
/// most `workers`: one per [`PACKS_PER_SHARE`] items, never more than the
/// machine has cores.
fn participants(count: usize, workers: usize) -> usize {
    match workers.min(count / PACKS_PER_SHARE) {
        0 | 1 => 1,
        wanted => wanted.min(cores()),
    }
}

/// `each(i)` for every `i` in `0..count`, in input order: computed in
/// contiguous shares on the caller and up to `workers − 1` scoped helpers
/// ([`participants`]), on the caller alone when the work is too small to
/// pay for a thread. A packed round's render and its answers' reads both
/// run here.
fn in_shares<T: Send>(count: usize, workers: usize, each: &(dyn Fn(usize) -> T + Sync)) -> Vec<T> {
    let participants = participants(count, workers);
    if participants <= 1 {
        return (0..count).map(each).collect();
    }
    let share = count.div_ceil(participants);
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (share..count)
            .step_by(share)
            .map(|start| {
                let end = (start + share).min(count);
                scope.spawn(move || (start..end).map(each).collect::<Vec<_>>())
            })
            .collect();
        let mut out = Vec::with_capacity(count);
        out.extend((0..share).map(each));
        for helper in helpers {
            let part = helper
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            out.extend(part);
        }
        out
    })
}

/// The render options' and the templates' part of a task key: fixed with
/// the options, so computed once per engine.
fn render_key(opts: &RenderOptions) -> u64 {
    hash::combine(template_digest(), opts.key())
}

/// Debug builds: a task key names one prompt. Every render of a keyed
/// request records its prompt's hash under its task key for the rest of
/// the process, and a key met again with another prompt — a key that
/// misses an input the prompt is rendered from, which would serve one
/// prompt's stored answer for another — panics.
#[cfg(debug_assertions)]
fn one_prompt_per_task_key(request: &CompletionRequest) {
    static SEEN: Mutex<BTreeMap<u64, u64>> = Mutex::new(BTreeMap::new());
    let Some(task_key) = request.task_key else {
        return;
    };
    let prompt = hash::prompt_hash(request.prompt.as_bytes());
    let mut seen = SEEN.lock();
    match seen.get(&task_key) {
        Some(&first) => assert_eq!(
            first, prompt,
            "task key {task_key:#x} names two prompts; this one:\n{}",
            request.prompt
        ),
        None => {
            seen.insert(task_key, prompt);
        }
    }
}

/// Whether `task` may share a packed prompt with `first`.
fn packs_with(first: &TaskDescriptor, task: &TaskDescriptor) -> bool {
    task.packable() && first.pack_compatible(task)
}

/// The refusal of a packed run whose tasks do not share one instruction.
fn mixed_packs() -> EngineError {
    EngineError::InvalidInput(
        "packed dispatch requires point-wise tasks sharing one instruction \
         (same predicate / label set / attribute)"
            .into(),
    )
}

/// An admission mode with the estimate it admits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Admission {
    mode: Admit,
    pub(crate) est_usd: f64,
    pub(crate) est_tokens: u64,
}

/// One unit of dispatcher work: a request keyed by its task key and
/// rendered once, its prompt's token count as that render took it, the key
/// it missed the cache under once it was probed, and how to admit it.
pub(crate) struct Work {
    request: CompletionRequest,
    prompt_tokens: u32,
    /// What [`Engine::settle_hit`], which probes every queued request,
    /// missed under: `Some` for a cacheable one, its request key, which
    /// the worker re-checks and dispatches under without hashing again;
    /// `None` for one the cache does not apply to.
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
/// last — the pump's caller, or a worker of a shared feed still dropping
/// its last handle), the result slots and outstanding count that caller
/// waits on, the run shape's per-item half, and the books they bill.
struct Batch {
    /// One per item, in input order; `None` where the item was pre-failed
    /// or settled as a hit before it was queued.
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
    /// items and hits settled before queueing are recorded before any job
    /// exists.
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
    ///
    /// ```
    /// use crowdprompt_core::FailurePolicy;
    ///
    /// assert_eq!(FailurePolicy::degrade(), FailurePolicy::Degrade { max_attempts: 3 });
    /// ```
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

/// A batch for [`Engine::run_outcome`]: the unit tasks, one call each at
/// temperature 0, in output order.
#[derive(Debug, Clone)]
pub struct RunSpec {
    tasks: Vec<TaskDescriptor>,
}

impl RunSpec {
    /// One call per task at temperature 0.
    pub fn tasks(tasks: Vec<TaskDescriptor>) -> Self {
        RunSpec { tasks }
    }
}

/// The result of an engine round ([`Engine::run_outcome`] or a packed
/// one): one answer per input item — the answer's text from
/// [`Engine::run_outcome`], what the operator's reader made of it from a
/// round inside the crate — or the error that condemned it, plus the
/// responses to meter and the quarantined remainder.
///
/// `responses` carries exactly the completions an operator should meter:
/// for a per-item round the successful responses in input order, for a
/// packed one every dispatched completion (packs, bisection retries,
/// singleton fallbacks) in dispatch order.
#[derive(Debug, Clone)]
pub struct BatchOutcome<A = String> {
    /// One answer per input item, in input order; `Err` holds the final
    /// error that condemned a quarantined item, or why a completed item's
    /// text held no answer.
    pub answers: Vec<Result<A, EngineError>>,
    /// The completions to meter for cost attribution (see type docs).
    pub responses: Vec<CompletionResponse>,
    /// Quarantined input indices with their full error chains, in index
    /// order.
    pub quarantined: Vec<Quarantine>,
}

impl<A> Default for BatchOutcome<A> {
    fn default() -> Self {
        BatchOutcome {
            answers: Vec::new(),
            responses: Vec::new(),
            quarantined: Vec::new(),
        }
    }
}

impl<A> BatchOutcome<A> {
    /// Number of items that completed.
    pub fn ok_count(&self) -> usize {
        self.answers.len() - self.quarantined.len()
    }

    /// Whether every item completed (nothing quarantined).
    pub fn is_complete(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// Meter every completion this batch dispatched.
    pub(crate) fn meter_into(&self, meter: &mut CostMeter) {
        for response in &self.responses {
            meter.add(response.usage, response.pricing.cost_usd(response.usage));
        }
    }
}

impl BatchOutcome {
    /// Each item's own response (or condemning error), in input order —
    /// for callers that need more than the answer text, such as a
    /// confidence gate. Only a per-item round (width ≤ 1) has one response
    /// per completed item; an item answered out of a shared pack has none.
    pub(crate) fn item_results(
        &self,
    ) -> impl Iterator<Item = Result<&CompletionResponse, &EngineError>> + '_ {
        debug_assert_eq!(self.responses.len(), self.ok_count(), "per-item spec");
        let mut responses = self.responses.iter();
        self.answers.iter().map(move |answer| match answer {
            Ok(_) => Ok(responses.next().expect("one response per completed item")), // lint: allow(no-unwrap)
            Err(e) => Err(e),
        })
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
pub(crate) struct Settle<'e> {
    engine: &'e Engine,
    op: &'static str,
    /// Lost items by index with the last error seen for each; `None` when
    /// the policy fails fast.
    lost: Option<BTreeMap<usize, String>>,
}

impl Settle<'_> {
    /// Settle the item at `index`: its value, or `None` once it is lost.
    pub(crate) fn item<T>(
        &mut self,
        index: usize,
        result: Result<T, EngineError>,
    ) -> Result<Option<T>, EngineError> {
        self.span(index..index + 1, result)
    }

    /// Settle one result that stands for every item in `indices` (a batch
    /// prompt): an `Err` loses them all.
    pub(crate) fn span<T>(
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
    pub(crate) fn recovered(&mut self, index: usize) {
        if let Some(lost) = &mut self.lost {
            lost.remove(&index);
        }
    }

    /// Finish an operator run over `total` items.
    pub(crate) fn finish(self, total: usize) {
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
    #[cfg(test)]
    pub(crate) fn queued_for(&self, key: &str) -> usize {
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
    use crowdprompt_oracle::model::{ModelProfile, NoiseProfile};
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

    /// A packed round over a task list, through the one packed door, each
    /// answer read as its text.
    fn packed(
        engine: &Engine,
        tasks: &[TaskDescriptor],
        width: usize,
    ) -> Result<BatchOutcome, EngineError> {
        let owned = |text: &str| Ok(text.to_owned());
        engine.run_built(tasks.len(), &|i| tasks[i].clone(), width, None, &owned)
    }

    /// A reader that keeps nothing of an answer.
    fn unread(_: &str) -> Result<(), EngineError> {
        Ok(())
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

    #[test]
    fn a_degraded_item_pauses_for_the_rate_limit_hint_between_attempts() {
        // Every call is a 429 with a 50 ms hint. The router retries it at
        // once, so the engine's pause between its own attempts is the one
        // place the hint is honoured.
        let mut w = WorldModel::new();
        let id = w.add_item("item");
        let corpus = Corpus::from_world(&w, &[id]);
        let profile = ModelProfile::perfect().with_noise(NoiseProfile {
            rate_limit_prob: 1.0,
            ..NoiseProfile::perfect()
        });
        let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(w), 1));
        let engine = Engine::new(Arc::new(LlmClient::new(llm)), corpus)
            .with_failure_policy(FailurePolicy::Degrade { max_attempts: 3 });

        let started = Instant::now();
        let outcome = engine
            .run_outcome(RunSpec::tasks(vec![check_task(id)]))
            .unwrap();
        let elapsed = started.elapsed();
        assert_eq!(outcome.ok_count(), 0);
        assert_eq!(outcome.quarantined.len(), 1);
        assert_eq!(outcome.quarantined[0].errors.len(), 3);
        assert!(
            elapsed >= Duration::from_millis(100),
            "two pauses of the 50 ms hint, elapsed {elapsed:?}"
        );

        // Fail-fast allows one engine attempt: no pause, a one-entry chain.
        let shape = RunShape {
            stop_on_error: false,
            ..engine.shape(FailurePolicy::FailFast)
        };
        let results = engine
            .pump(
                Intake::Rendered(rendered(&engine, vec![check_task(id)])),
                shape,
            )
            .unwrap();
        assert!(matches!(
            results[0].as_ref().unwrap_err()[..],
            [EngineError::Llm(LlmError::RetriesExhausted { .. })]
        ));
    }

    /// The responses of a sampled round on a healthy engine.
    fn sampled(engine: &Engine, specs: Vec<Call>) -> Vec<CompletionResponse> {
        engine.run_sampled(specs, &unread).unwrap().responses
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
        let packed = packed(&engine, &tasks, 8).unwrap();
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
        packed(&engine, &tasks, 16).unwrap();
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
        let run = packed(&engine, &tasks, 16).unwrap();
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
        let run = packed(&engine, &tasks, 8).unwrap();
        assert_eq!(run.answers.len(), 8);
        assert!(
            run.responses.len() > 1,
            "the 8-pack cannot fit a 60-token window and must split"
        );
    }

    #[test]
    fn a_packed_round_builds_each_task_once_and_again_only_where_it_bisects() {
        use std::sync::atomic::AtomicUsize;
        let (engine, ids) = engine_with(16, Budget::Unlimited);
        let engine = engine.with_failure_policy(FailurePolicy::degrade());
        let built: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
        // Item 5 is not in the corpus: its pack (4..8) fails to render and
        // bisects into 4..6 and 6..8, and 4..6 into the two singles.
        let task_of = |i: usize| {
            built[i].fetch_add(1, Ordering::Relaxed);
            check_task(match i {
                5 => crowdprompt_oracle::ItemId(999_999),
                i => ids[i],
            })
        };
        let run = engine.run_built(16, &task_of, 4, None, &unread).unwrap();
        let quarantined: Vec<usize> = run.quarantined.iter().map(|q| q.index).collect();
        assert_eq!(quarantined, vec![5]);
        let built: Vec<usize> = built.iter().map(|n| n.load(Ordering::Relaxed)).collect();
        assert_eq!(built, [1, 1, 1, 1, 3, 3, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn a_builder_that_mixes_instructions_is_refused_before_any_call() {
        let (engine, ids) = engine_with(64, Budget::Unlimited);
        let compare = TaskDescriptor::Compare {
            left: ids[0],
            right: ids[1],
            criterion: crowdprompt_oracle::task::SortCriterion::LatentScore,
        };
        // A foreign predicate, and an unpackable task, each in a late pack
        // (other packs of the round are fine); and an unpackable first task.
        let other = |i: usize| match i {
            50 => TaskDescriptor::CheckPredicate {
                item: ids[i],
                predicate: "other".into(),
            },
            i => check_task(ids[i]),
        };
        let unpackable = |i: usize| match i {
            63 => compare.clone(),
            i => check_task(ids[i]),
        };
        let unpackable_first = |i: usize| match i {
            0 => compare.clone(),
            i => check_task(ids[i]),
        };
        let builders: [&(dyn Fn(usize) -> TaskDescriptor + Sync); 3] =
            [&other, &unpackable, &unpackable_first];
        for policy in [FailurePolicy::FailFast, FailurePolicy::degrade()] {
            let engine = engine.fork().with_failure_policy(policy);
            for task_of in builders {
                assert!(matches!(
                    engine.run_built(64, task_of, 8, None, &unread),
                    Err(EngineError::InvalidInput(_))
                ));
            }
        }
        // An empty round has nothing to refuse.
        assert!(packed(&engine, &[], 4).unwrap().answers.is_empty());
        assert_eq!(engine.client().stats().calls(), 0);
        assert_eq!(engine.client().ledger().calls(), 0);
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

    /// `tasks` rendered as the serve door renders them, admitted with their
    /// batch, unknown items pre-failed: what [`Intake::Rendered`] takes.
    fn rendered(engine: &Engine, tasks: Vec<TaskDescriptor>) -> Vec<Prepared> {
        let work = |task| engine.render_call(Engine::unsampled(task), Admit::Batch);
        tasks
            .into_iter()
            .map(|task| work(task).map(Rendered::Work))
            .collect()
    }

    /// The same, probed, as the pump hands them to `enqueue`.
    fn probed(engine: &Engine, tasks: Vec<TaskDescriptor>) -> Vec<Prepared> {
        engine.probe_rendered(rendered(engine, tasks))
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
        let (batch, queued) = engine.enqueue(probed(&engine, tasks()), EVERY_ITEM);
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
        let refused = strict.pump(Intake::Rendered(rendered(&strict, tasks())), shape);
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
        let (batch_a, _) = a.enqueue(probed(&a, tasks(&ids[..4])), EVERY_ITEM);
        let (batch_b, _) = b.enqueue(probed(&b, tasks(&ids[4..])), EVERY_ITEM);
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
        let (batch, _) = engine.enqueue(probed(&engine, tasks), EVERY_ITEM);
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

        // Packed: one answer per item out of fewer calls.
        let four = packed(&engine, &tasks, 4).unwrap();
        assert_eq!(four.answers.len(), 12);
        assert!(four.is_complete());
        assert!(four.responses.len() < 12);

        // Width <= 1 routes through the per-item path even for tasks that
        // could not be packed.
        let single = packed(&engine, &tasks, 1).unwrap();
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
        assert!(packed(&engine, &mixed, 4).is_err());
    }

    /// A packed run large enough that its first round is rendered in shares
    /// on two participants (160 packs of 8), holding an item the corpus does
    /// not know (pack 12, the first share) and a pack of long records that
    /// overflows the context window whole but fits split (pack 125, the
    /// second share), answers, quarantines, spends and calls exactly as the
    /// same run on one worker.
    #[test]
    fn a_packed_round_rendered_in_shares_matches_one_worker() {
        const N: usize = 1_280;
        let run = |workers: usize| {
            let mut w = WorldModel::new();
            let ids: Vec<crowdprompt_oracle::ItemId> = (0..N)
                .map(|i| {
                    let text = if (1_000..1_008).contains(&i) {
                        format!("long record {i} {}", "lorem ipsum dolor ".repeat(40))
                    } else {
                        format!("catalog record {i:04} vendor {}", i % 7)
                    };
                    let id = w.add_item(text);
                    w.set_flag(id, "active", i % 3 == 0);
                    id
                })
                .collect();
            let corpus = Corpus::from_world(&w, &ids);
            let profile = ModelProfile::perfect()
                .with_noise(NoiseProfile {
                    chatter_level: 0.9,
                    malformed_rate: 0.3,
                    packed_dropout_rate: 0.0,
                    ..NoiseProfile::perfect()
                })
                .with_context_window(1_000);
            let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(w), 42));
            let engine = Engine::new(Arc::new(LlmClient::new(llm)), corpus)
                .with_budget(Budget::Unlimited)
                .with_parallelism(workers)
                .with_failure_policy(FailurePolicy::Degrade { max_attempts: 2 });
            let mut tasks: Vec<TaskDescriptor> = ids
                .iter()
                .map(|&item| TaskDescriptor::CheckPredicate {
                    item,
                    predicate: "active".to_owned(),
                })
                .collect();
            tasks[100] = TaskDescriptor::CheckPredicate {
                item: crowdprompt_oracle::ItemId(999_999),
                predicate: "active".to_owned(),
            };
            let outcome = packed(&engine, &tasks, 8).unwrap();
            let ledger = engine.client().ledger();
            let quarantined: Vec<usize> = outcome.quarantined.iter().map(|q| q.index).collect();
            let spend = (
                ledger.calls(),
                ledger.total_tokens(),
                ledger.spend_usd().to_bits(),
                engine.budget().spent_usd().to_bits(),
            );
            (outcome.answers, quarantined, spend)
        };
        let one = run(1);
        assert_eq!(one.1, vec![100], "the unknown item alone is quarantined");
        assert!(one.0.iter().filter(|a| a.is_ok()).count() == N - 1);
        // 158 whole packs; the long pack splits in two before any call; the
        // unknown item's pack is asked as a 4-, a 2- and a 1-item pack beside
        // the halves that hold it.
        assert_eq!(one.2 .0, 158 + 2 + 3);
        assert_eq!(run(2), one);
    }

    /// What a packed round over 1 024 items at width 4, whose every other
    /// pack an earlier round answered, bills, meters, counts and traces —
    /// at one worker and at two (its 256 packs then render in two shares),
    /// under both policies. Recorded while every pack of a round, hit or
    /// not, was queued and probed by the worker that drew it.
    #[test]
    fn a_half_hit_packed_round_bills_counts_and_traces_as_recorded() {
        const N: usize = 1_024;
        /// The client ledger's calls, tokens and dollars, the budget's
        /// dollars, the meter's calls, tokens and dollars. Dollars are read
        /// in picodollars: two workers sum the same misses in either order,
        /// which can move a sum's last bit.
        const BILLS: (u64, u64, u64, u64, u64, u64, u64) = (
            136,
            10_356,
            16_536_000_000,
            16_536_000_000,
            266,
            20_301,
            32_406_000_000,
        );
        /// The client's calls, cache hits, coalesced joins and store hits.
        const COUNTS: (u64, u64, u64, u64) = (136, 130, 0, 0);
        /// The trace's one kind: its name, calls, cached calls, tokens and
        /// picodollars.
        const TRACED: (&str, u64, u64, u64, u64) = ("packed", 266, 130, 20_301, 16_536_000_000);
        let pico = |usd: f64| (usd * 1e12).round() as u64;
        for workers in [1, 2] {
            for policy in [FailurePolicy::FailFast, FailurePolicy::degrade()] {
                let (engine, ids) = engine_with(N, Budget::Unlimited);
                let engine = engine.with_parallelism(workers).with_failure_policy(policy);
                let tasks: Vec<_> = ids.iter().map(|id| check_task(*id)).collect();
                let warm: Vec<_> = tasks.chunks(4).step_by(2).flatten().cloned().collect();
                packed(&engine, &warm, 4).unwrap();
                let client = Arc::clone(engine.client());
                let ledger = client.ledger();
                let (calls, tokens, usd) =
                    (ledger.calls(), ledger.total_tokens(), ledger.spend_usd());
                let stats = |s: &crowdprompt_oracle::ClientStats| {
                    (s.calls(), s.cache_hits(), s.coalesced(), s.store_hits())
                };
                let before = stats(client.stats());

                let trace = Arc::new(Trace::new());
                let measured = engine
                    .fork()
                    .with_budget(Budget::usd(1.0))
                    .with_trace(Arc::clone(&trace));
                let outcome = packed(&measured, &tasks, 4).unwrap();
                assert!(outcome.is_complete());
                let mut meter = CostMeter::new();
                outcome.meter_into(&mut meter);
                let bills = (
                    ledger.calls() - calls,
                    ledger.total_tokens() - tokens,
                    pico(ledger.spend_usd() - usd),
                    pico(measured.budget().spent_usd()),
                    meter.calls,
                    u64::from(meter.usage.total()),
                    pico(meter.cost_usd),
                );
                let after = stats(client.stats());
                let counts = (
                    after.0 - before.0,
                    after.1 - before.1,
                    after.2 - before.2,
                    after.3 - before.3,
                );
                let summary = trace.summary();
                assert_eq!(summary.by_kind.len(), 1);
                let (kind, totals) = summary.by_kind.iter().next().unwrap();
                let traced = (
                    *kind,
                    totals.calls,
                    totals.cached,
                    totals.tokens,
                    pico(totals.cost_usd),
                );
                let at = format!("{workers} workers, {policy:?}");
                assert_eq!(bills, BILLS, "{at}");
                assert_eq!(counts, COUNTS, "{at}");
                assert_eq!(traced, TRACED, "{at}");
            }
        }
    }

    /// What a response says, less whether it was cached.
    fn said(responses: &[CompletionResponse]) -> Vec<(String, u32, u32, Option<u64>)> {
        responses
            .iter()
            .map(|r| {
                let usage = (r.usage.prompt_tokens, r.usage.completion_tokens);
                (
                    r.text.clone(),
                    usage.0,
                    usage.1,
                    r.confidence.map(f64::to_bits),
                )
            })
            .collect()
    }

    /// A packed round whose every pack (and every bisected half) an earlier
    /// round answered queues nothing, so no worker runs: another lane's
    /// jobs on the same feed, which the first claim of any worker would
    /// take, stay queued. It answers exactly as its cold run did, at one
    /// worker and at two (its 128 packs then render in two shares).
    #[test]
    fn an_all_hit_packed_round_queues_no_job_and_answers_as_cold() {
        const N: usize = 1_024;
        let (base, ids) = engine_with(N, Budget::Unlimited);
        let tasks: Vec<_> = ids.iter().map(|id| check_task(*id)).collect();
        let cold = packed(&base, &tasks, 8).unwrap();
        assert!(cold.is_complete());
        for workers in [1, 2] {
            let feed = Arc::new(FairFeed::new());
            let on_lane = |key: &str| Engine {
                lane: Lane {
                    feed: Arc::clone(&feed),
                    index: feed.register_lane(key, 1.0).unwrap(),
                },
                ..base.fork().with_parallelism(workers)
            };
            let (other, warm) = (on_lane("other"), on_lane("warm"));
            // Four per-item misses, new at each width: the queue's jobs
            // are probed before they are queued.
            let singles = tasks[4 * workers..4 * workers + 4].to_vec();
            let (queued, _) = other.enqueue(probed(&other, singles), EVERY_ITEM);
            let before = base.client().stats().cache_hits();
            let run = packed(&warm, &tasks, 8).unwrap();
            assert_eq!(feed.len(), 4, "{workers} workers: nothing was claimed");
            assert_eq!(queued.slots.lock().outstanding, 4);
            assert_eq!(run.answers, cold.answers, "{workers} workers");
            assert_eq!(said(&run.responses), said(&cold.responses));
            assert!(run.responses.iter().all(|r| r.cached));
            let hits = base.client().stats().cache_hits() - before;
            assert_eq!(hits, cold.responses.len() as u64);
            other.work(&queued);
        }
        assert_eq!(
            base.client().stats().calls(),
            cold.responses.len() as u64 + 8
        );
    }

    /// A warm per-item `run_many` under a dollar budget below the summed
    /// admission estimate of its tasks, every one of which an earlier run
    /// answered: the whole-batch check counts misses only, and a hit
    /// settled where it is rendered is free, so the batch is admitted and
    /// served from the cache. (Recorded while the check counted every
    /// call, hits included, and refused this batch before any probe.)
    #[test]
    fn a_warm_per_item_batch_below_its_summed_estimate_is_admitted_as_pinned() {
        let (engine, ids) = engine_with(8, Budget::Unlimited);
        let tasks: Vec<_> = ids.iter().map(|id| check_task(*id)).collect();
        let cold = engine.run_many(tasks.clone()).unwrap();
        let estimate: f64 = tasks
            .iter()
            .map(|task| engine.admission_usd(engine.estimate_task(task.clone()).unwrap().0))
            .sum();
        let tight = engine.fork().with_budget(Budget::usd(estimate / 2.0));
        let hits = engine.client().stats().cache_hits();
        let warm = tight.run_many(tasks).unwrap();
        assert!(warm.iter().all(|r| r.cached));
        assert_eq!(said(&warm), said(&cold));
        assert_eq!(engine.client().stats().cache_hits() - hits, 8);
        assert_eq!(tight.budget().spent_usd(), 0.0);
        assert_eq!(engine.client().stats().calls(), cold.len() as u64);
    }

    /// A fail-fast sampled round at one worker whose third call (a long
    /// record) alone is past a token budget the others fit: the long call
    /// is refused where it is rendered and pre-fails the round before any
    /// call, and the two warm calls, settled where they were rendered, are
    /// traced as hits. (Recorded while a call refused at render was queued
    /// unprobed: the cold short call before it was paid, the worker refused
    /// the long one and stopped the round before the warm call after it,
    /// and one hit was traced.)
    #[test]
    fn a_fail_fast_sampled_round_with_a_call_refused_at_render_runs_as_pinned() {
        let mut w = WorldModel::new();
        let ids: Vec<_> = (0..4)
            .map(|i| {
                let text = match i {
                    2 => format!("long record {}", "lorem ipsum dolor ".repeat(40)),
                    i => format!("short record {i}"),
                };
                let id = w.add_item(text);
                w.set_flag(id, "p", true);
                id
            })
            .collect();
        let corpus = Corpus::from_world(&w, &ids);
        let llm = Arc::new(SimulatedLlm::new(ModelProfile::perfect(), Arc::new(w), 7));
        let engine = Engine::new(Arc::new(LlmClient::new(llm)), corpus).with_parallelism(1);
        let call = |i: usize| Engine::unsampled(check_task(ids[i]));
        engine.run_sampled(vec![call(0), call(3)], &unread).unwrap();
        let tokens = |i: usize| engine.estimate_task(check_task(ids[i])).unwrap().1;
        assert!(tokens(1) * 3 < tokens(2), "the long record's call is long");
        let trace = Arc::new(Trace::new());
        let tight = engine
            .fork()
            .with_budget(Budget::tokens(tokens(2) - 1))
            .with_trace(Arc::clone(&trace));
        let calls = engine.client().stats().calls();
        let paid = engine.client().ledger().total_tokens();
        let round = tight.run_sampled(vec![call(0), call(1), call(2), call(3)], &unread);
        assert!(
            matches!(round, Err(EngineError::BudgetExceeded { .. })),
            "{round:?}"
        );
        assert_eq!(engine.client().stats().calls(), calls, "no call");
        assert_eq!(engine.client().ledger().total_tokens(), paid);
        assert_eq!(tight.budget().spent_tokens(), 0);
        let summary = trace.summary();
        let totals = &summary.by_kind["check_predicate"];
        assert_eq!((totals.calls, totals.cached), (2, 2));
    }

    /// A warm packed round, admitted per call, under a dollar budget below
    /// one pack's admission estimate, every pack of which an earlier round
    /// answered: each pack is probed by its task key before it is rendered
    /// or admitted, and a hit is free, so the round is served from the
    /// cache and spends nothing. (Recorded while each pack's estimate was
    /// admitted before its probe: the first hit was pre-failed and the
    /// round refused before any call or probe.)
    #[test]
    fn a_warm_packed_round_whose_budget_cannot_cover_a_hits_estimate_runs_as_pinned() {
        let (engine, ids) = engine_with(64, Budget::Unlimited);
        let tasks: Vec<_> = ids.iter().map(|id| check_task(*id)).collect();
        let cold = packed(&engine, &tasks, 8).unwrap();
        assert!(cold.is_complete());
        let pack = TaskDescriptor::Packed {
            tasks: tasks[..8].to_vec(),
        };
        let one_pack = engine.admission_usd(engine.estimate_task(pack).unwrap().0);
        let tight = engine.fork().with_budget(Budget::usd(one_pack / 2.0));
        let (calls, hits) = (
            engine.client().stats().calls(),
            engine.client().stats().cache_hits(),
        );
        let warm = packed(&tight, &tasks, 8).unwrap();
        assert_eq!(warm.answers, cold.answers);
        assert!(warm.responses.iter().all(|r| r.cached));
        assert_eq!(engine.client().stats().calls(), calls, "no call");
        assert_eq!(engine.client().stats().cache_hits(), hits + 8, "8 hits");
        assert_eq!(tight.budget().spent_usd(), 0.0);
    }

    /// A packed round over a store filled by the same round under a larger
    /// context window: every 8-pack's answer is stored, and although its
    /// prompt overflows this model's window, a pack is probed before it is
    /// rendered or fitted to the window, so the stored answers are served
    /// and nothing is asked. (Recorded while a pack was fitted to the
    /// window before its probe: each was split, and its halves, down to
    /// singles, were asked and paid for, 16 calls.)
    #[test]
    fn a_stored_pack_whose_prompt_overflows_the_window_runs_as_pinned() {
        use crowdprompt_oracle::store::{ResponseStore, StoreConfig};
        let path = std::env::temp_dir().join(format!(
            "crowdprompt-exec-overflow-store-{}.log",
            std::process::id()
        ));
        let mut lock = path.as_os_str().to_os_string();
        lock.push(".lock");
        std::fs::remove_file(&path).ok();
        let store = Arc::new(ResponseStore::open(&path, StoreConfig::default()).unwrap());
        let mut w = WorldModel::new();
        let ids: Vec<_> = (0..16)
            .map(|i| {
                let id = w.add_item(format!(
                    "a deliberately long record text number {i} with many words in it"
                ));
                w.set_flag(id, "p", i % 2 == 0);
                id
            })
            .collect();
        let corpus = Corpus::from_world(&w, &ids);
        let world = Arc::new(w);
        let engine_at = |window: u32| {
            let profile = ModelProfile::perfect().with_context_window(window);
            let llm = Arc::new(SimulatedLlm::new(profile, Arc::clone(&world), 7));
            let client = Arc::new(LlmClient::new(llm));
            assert!(client.attach_store(Arc::clone(&store)));
            Engine::new(client, corpus.clone()).with_parallelism(1)
        };
        let tasks: Vec<_> = ids.iter().map(|id| check_task(*id)).collect();
        // A single says "Yes." where a pack's line says "Yes".
        let yes = |text: &str| Ok(text.starts_with("Yes"));
        let packed = |engine: &Engine| {
            engine
                .run_built(16, &|i| tasks[i].clone(), 8, None, &yes)
                .unwrap()
        };
        let wide = engine_at(100_000);
        let filled = packed(&wide);
        assert_eq!(filled.responses.len(), 2, "two 8-packs fill the store");
        assert_eq!(store.len(), 2);
        // A window that fits a single and no 8-pack.
        let narrow = engine_at(60);
        let run = packed(&narrow);
        assert!(run.is_complete());
        assert_eq!(run.answers, filled.answers);
        let stats = narrow.client().stats();
        assert_eq!(stats.store_hits(), 2, "both stored packs are served");
        assert_eq!(stats.calls(), 0, "nothing is asked");
        assert_eq!(narrow.client().ledger().calls(), 0, "or paid for");
        drop((wide, narrow, store));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&lock).ok();
    }

    /// A warm packed round under a dollar budget with nothing left, at one
    /// worker and at two: every pack is a hit, probed before it is
    /// admitted, and served free, failing fast as degrading. (Failing fast
    /// it was refused while a pack was admitted before its probe.) And a
    /// cold round failing fast is still refused by the worker once its
    /// misses have spent the budget: the key a miss was probed under does
    /// not let it skip admission.
    #[test]
    fn a_warm_packed_round_with_no_budget_left_is_served_and_a_cold_one_is_refused() {
        const N: usize = 1_024;
        let (base, ids) = engine_with(N, Budget::Unlimited);
        let tasks: Vec<_> = ids.iter().map(|id| check_task(*id)).collect();
        let cold = packed(&base, &tasks, 8).unwrap();
        let spent = base.budget().spent_usd();
        for workers in [1, 2] {
            let broke = base
                .fork()
                .with_parallelism(workers)
                .with_budget(Budget::usd(0.0));
            let degrading = broke.fork().with_failure_policy(FailurePolicy::degrade());
            for engine in [&broke, &degrading] {
                let served = packed(engine, &tasks, 8).unwrap();
                assert!(served.is_complete());
                assert_eq!(served.answers, cold.answers, "{workers} workers");
            }
            assert_eq!(broke.budget().spent_usd(), 0.0);
        }
        assert_eq!(base.client().stats().calls(), cold.responses.len() as u64);

        // Cold, with room for a tenth of the round's spend.
        let (fresh, _) = engine_with(N, Budget::usd(spent / 10.0));
        let tight = fresh.with_parallelism(2);
        let refused = packed(&tight, &tasks, 8);
        assert!(matches!(refused, Err(EngineError::BudgetExceeded { .. })));
        let calls = tight.client().ledger().calls();
        assert!(calls > 0 && calls < N as u64 / 8 / 5, "{calls} calls");
    }
}
