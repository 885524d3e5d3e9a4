//! Failure-aware routing across heterogeneous backends.
//!
//! The [`Router`] dispatches one model tier's traffic over a
//! [`BackendRegistry`], below the [`crate::LlmClient`]'s cache/coalescing
//! layer. Every client owns one — [`crate::LlmClient::new`] over a
//! one-backend roster — so the retry loop below is the only transport retry
//! loop in the crate (repolint's `one-retry` rule keeps it that way).
//! That layering is what makes the accounting invariants structural: a
//! request that is retried across backends, or hedged onto two backends at
//! once, still surfaces exactly one [`CompletionResponse`] to the client —
//! so the ledger and budget charge exactly one call, priced at the *serving*
//! backend's schedule (carried in [`CompletionResponse::pricing`]).
//!
//! Policy, per call:
//!
//! 1. **Selection** — among backends whose circuit breaker admits traffic,
//!    pick by `(full, straggles, load, rate, registration order)`: a
//!    backend with a free advertised slot before one at or over them, a
//!    backend whose recent median latency is under the hedge floor before
//!    one at or past it (hedging routers only: the floor is the operator's
//!    one statement of what a straggler is), then least-loaded (in-flight ÷
//!    slots), cheapest pricing, registration order. With hedging off the
//!    first two never decide and the key is `(load, rate, order)`.
//! 2. **Hedging** (optional) — the primary runs on the caller's thread
//!    while the router's one helper thread holds a deadline for it: the
//!    p9x-based delay `max(hedge floor, observed p⟨percentile⟩ latency)`.
//!    A call that answers in time costs no thread. Only when the deadline
//!    passes with the primary still out does the helper duplicate the
//!    request onto the next-best backend, on a thread of the twin's own;
//!    first success wins and the loser is cancelled through its
//!    [`CancelToken`].
//! 3. **Retry with backoff** — a transient failure (429 / 5xx / timeout)
//!    marks the backend avoided for this request and retries on the next
//!    best, up to `max_retries` extra attempts. The sleep between attempts
//!    comes from [`crate::retry::retry_delay`]: a linear ramp floored by
//!    the server's `Retry-After` hint, de-synchronized by deterministic
//!    seeded jitter, and clipped to the request's deadline (an expired
//!    deadline stops retrying outright).
//! 4. **Circuit breaker** — consecutive transient failures open a
//!    per-backend breaker for a cooldown; a half-open probe readmits it.
//!
//! Determinism: answers come from the shared underlying model, so *which*
//! backend serves a request never changes the response text — routing
//! affects latency, spend, and failure handling only. Single-backend
//! registries are result-identical to calling the model directly.

use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::backend::{Backend, BackendRegistry, CancelToken};
use crate::error::LlmError;
use crate::pricing::Pricing;
use crate::types::{CompletionRequest, CompletionResponse, LanguageModel};

/// Hedged-request configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// Floor on the hedge delay: never duplicate a request earlier than
    /// this after dispatching the primary.
    pub after: Duration,
    /// Latency percentile (in `[0, 1]`) of the primary backend's recent
    /// calls used as the adaptive hedge trigger; the effective delay is
    /// `max(after, p⟨percentile⟩)`.
    pub percentile: f64,
}

impl HedgeConfig {
    /// Hedge after `max(after, observed p90)` — the classic tail-taming
    /// configuration.
    pub fn after(after: Duration) -> Self {
        HedgeConfig {
            after,
            percentile: 0.9,
        }
    }
}

/// Per-backend circuit-breaker configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive transient failures that open the breaker.
    pub failure_threshold: u32,
    /// How long an open breaker rejects traffic before admitting one
    /// half-open probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            cooldown: Duration::from_millis(250),
        }
    }
}

/// The router's dispatch policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutePolicy {
    /// Extra attempts (beyond the first) on transient failure; each retry
    /// prefers a backend that has not yet failed this request.
    pub max_retries: u32,
    /// Base linear backoff per retry in milliseconds (`0` = no sleeping,
    /// keeping simulated experiments fast while preserving retry logic).
    pub backoff_ms: u64,
    /// Hedged-request configuration; `None` disables hedging.
    pub hedge: Option<HedgeConfig>,
    /// Circuit-breaker configuration shared by all backends.
    pub breaker: BreakerConfig,
}

impl Default for RoutePolicy {
    fn default() -> Self {
        RoutePolicy {
            max_retries: 3,
            backoff_ms: 0,
            hedge: None,
            breaker: BreakerConfig::default(),
        }
    }
}

/// A breaker's answer to "may this backend take traffic right now?".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Eligibility {
    /// Breaker closed: dispatch freely.
    Closed,
    /// Breaker open but cooled down: one probe may be claimed.
    Probe,
    /// Breaker open (or its probe already claimed): no traffic.
    Blocked,
}

/// Circuit-breaker state machine for one backend.
#[derive(Debug, Default)]
struct BreakerState {
    consecutive_failures: u32,
    /// `Some(t)` while open: no traffic before `t`, one probe after.
    open_until: Option<Instant>,
    /// A half-open probe is in flight; further traffic waits on its fate.
    probing: bool,
}

/// How many recent call latencies feed the p9x hedge trigger.
const LATENCY_WINDOW: usize = 64;
/// Minimum samples before the adaptive trigger overrides the floor.
const LATENCY_MIN_SAMPLES: usize = 8;

/// Router-side state for one backend: load, breaker, latency history, and
/// behaviour counters.
struct BackendState {
    backend: Arc<dyn Backend>,
    in_flight: AtomicUsize,
    dispatches: AtomicU64,
    wins: AtomicU64,
    transient_failures: AtomicU64,
    breaker_trips: AtomicU64,
    breaker: Mutex<BreakerState>,
    latencies_us: Mutex<VecDeque<u64>>,
}

impl BackendState {
    fn new(backend: Arc<dyn Backend>) -> Self {
        BackendState {
            backend,
            in_flight: AtomicUsize::new(0),
            dispatches: AtomicU64::new(0),
            wins: AtomicU64::new(0),
            transient_failures: AtomicU64::new(0),
            breaker_trips: AtomicU64::new(0),
            breaker: Mutex::new(BreakerState::default()),
            latencies_us: Mutex::new(VecDeque::with_capacity(LATENCY_WINDOW)),
        }
    }

    /// Whether the breaker could admit traffic now — a pure check with no
    /// side effects, safe to call on backends that merely *lose* a
    /// selection. `Probe` means a cooled-down open breaker whose half-open
    /// slot must still be claimed via
    /// [`BackendState::try_claim_probe`] before dispatching.
    fn eligibility(&self, now: Instant) -> Eligibility {
        let state = self.breaker.lock();
        match state.open_until {
            None => Eligibility::Closed,
            Some(t) if now < t => Eligibility::Blocked,
            Some(_) => {
                if state.probing {
                    Eligibility::Blocked
                } else {
                    Eligibility::Probe
                }
            }
        }
    }

    /// Claim the half-open probe slot, if (still) available. Only the
    /// backend actually being dispatched may claim it — claiming on mere
    /// consideration would strand `probing = true` with no call in flight
    /// to ever clear it, permanently starving the backend.
    fn try_claim_probe(&self, now: Instant) -> bool {
        let mut state = self.breaker.lock();
        match state.open_until {
            Some(t) if now >= t && !state.probing => {
                state.probing = true;
                true
            }
            _ => false,
        }
    }

    fn on_success(&self, latency: Duration) {
        {
            let mut state = self.breaker.lock();
            state.consecutive_failures = 0;
            state.open_until = None;
            state.probing = false;
        }
        let mut window = self.latencies_us.lock();
        if window.len() == LATENCY_WINDOW {
            window.pop_front();
        }
        window.push_back(latency.as_micros() as u64);
    }

    fn on_transient_failure(&self, config: &BreakerConfig) {
        self.transient_failures.fetch_add(1, Ordering::Relaxed);
        let mut state = self.breaker.lock();
        state.consecutive_failures = state.consecutive_failures.saturating_add(1);
        // Trip only on a transition: a failed half-open probe re-opens, a
        // closed breaker opens at the threshold. A failure landing on an
        // already-open breaker (a call in flight when it opened) is neither
        // a new opening nor a reason to push the cooldown out.
        let trips = match state.open_until {
            Some(_) => state.probing,
            None => state.consecutive_failures >= config.failure_threshold.max(1),
        };
        if trips {
            state.open_until = Some(Instant::now() + config.cooldown); // lint: allow(clock) — breaker cooldown anchor
            state.probing = false;
            self.breaker_trips.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Release the half-open probe slot (if held) without closing or
    /// re-opening the breaker: for outcomes that prove nothing about
    /// backend *health* — a cancelled hedge loser, a request-level hard
    /// error (which would fail on any backend), or a panicking backend.
    /// Without this, a probe ending in any such outcome would strand
    /// `probing = true` and starve the backend forever.
    fn release_probe(&self) {
        let mut state = self.breaker.lock();
        state.probing = false;
    }

    fn is_open(&self, now: Instant) -> bool {
        let state = self.breaker.lock();
        state.open_until.is_some_and(|t| now < t)
    }

    /// Observed latency percentile over the recent window, if enough
    /// samples have accumulated.
    fn latency_percentile(&self, percentile: f64) -> Option<Duration> {
        let mut sorted = [0u64; LATENCY_WINDOW];
        let len = {
            let window = self.latencies_us.lock();
            if window.len() < LATENCY_MIN_SAMPLES {
                return None;
            }
            for (slot, us) in sorted.iter_mut().zip(window.iter()) {
                *slot = *us;
            }
            window.len()
        };
        let sorted = &mut sorted[..len];
        sorted.sort_unstable();
        let rank = ((len - 1) as f64 * percentile.clamp(0.0, 1.0)).round() as usize;
        Some(Duration::from_micros(sorted[rank]))
    }

    /// Whether this backend's typical call is a straggler by the router's
    /// own definition: its window median is at or past the hedge floor.
    /// Unknown (too few samples) is not straggling, so a cold router
    /// explores every backend as the load key alone would.
    fn straggles(&self, floor: Duration) -> bool {
        self.latency_percentile(0.5)
            .is_some_and(|median| median >= floor)
    }

    /// Execute one attempt on this backend, maintaining load, breaker, and
    /// latency state on every exit path.
    fn execute(
        &self,
        breaker: &BreakerConfig,
        request: &CompletionRequest,
        cancel: &CancelToken,
    ) -> Result<CompletionResponse, LlmError> {
        /// Unwind-safe bookkeeping: decrements in-flight load and releases
        /// any held probe slot even if the backend panics, so a panicking
        /// custom [`Backend`] can neither skew least-loaded selection nor
        /// strand a half-open breaker.
        struct AttemptGuard<'a>(&'a BackendState);
        impl Drop for AttemptGuard<'_> {
            fn drop(&mut self) {
                self.0.in_flight.fetch_sub(1, Ordering::AcqRel);
                if std::thread::panicking() {
                    self.0.release_probe();
                }
            }
        }
        self.dispatches.fetch_add(1, Ordering::Relaxed);
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        let _guard = AttemptGuard(self);
        let started = Instant::now(); // lint: allow(clock) — attempt latency sample
        let result = self.backend.complete(request, cancel);
        match &result {
            Ok(_) => self.on_success(started.elapsed()),
            Err(LlmError::Cancelled) => self.release_probe(),
            Err(e) if e.is_retryable() => self.on_transient_failure(breaker),
            // Hard errors (context overflow, invalid request) would fail on
            // any backend; they say nothing about this backend's health —
            // but a probe attempt must still give its slot back.
            Err(_) => self.release_probe(),
        }
        result
    }
}

/// Counters describing one backend's routing history (snapshot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendStats {
    /// The backend's id.
    pub id: String,
    /// Attempts dispatched to this backend (including hedges and losers).
    pub dispatches: u64,
    /// Responses this backend served back to callers (hedge winners and
    /// direct successes).
    pub wins: u64,
    /// Transient failures (429 / 5xx / timeout) observed.
    pub transient_failures: u64,
    /// Times this backend's circuit breaker opened.
    pub breaker_trips: u64,
    /// Whether the breaker is currently open.
    pub open: bool,
}

/// Router behaviour counters (snapshot; see [`Router::stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterStats {
    /// Cross-backend retry attempts performed (beyond first attempts).
    pub retries: u64,
    /// Hedge duplicates actually launched (stragglers past the delay).
    pub hedges_launched: u64,
    /// Hedges where the duplicate answered before the straggling primary.
    pub hedges_won: u64,
    /// Per-backend counters, in registration order.
    pub per_backend: Vec<BackendStats>,
}

/// `(full, straggles, load, rate)`: what [`Core::select`] minimises, ties
/// going to the backend registered first.
type SelectionKey = (bool, bool, f64, f64);

/// What a router shares with its hedge helper and with the twins that
/// helper launches: the policy, every backend's state, and the hedge
/// counters.
struct Core {
    policy: RoutePolicy,
    states: Vec<BackendState>,
    hedges_launched: AtomicU64,
    hedges_won: AtomicU64,
}

impl Core {
    /// Best breaker-admitted backend not in `avoid`, by `(full, straggles,
    /// load, rate, registration order)`.
    ///
    /// `full` — at or over its advertised slots — comes first because an
    /// over-slot call is a 429 and five of those open the breaker; whatever
    /// its class, a backend with a slot free is the better choice.
    /// `straggles` is [`BackendState::straggles`] against the hedge floor
    /// and always `false` on a router that does not hedge, where `full` is
    /// implied by `load` and the key is `(load, rate, order)`.
    ///
    /// Eligibility checks are side-effect free; the half-open probe slot of
    /// an open-but-cooled breaker is claimed only for the backend actually
    /// chosen (a losing candidate keeps its probe available for later).
    fn select(&self, avoid: &[bool]) -> Option<usize> {
        let straggle_floor = self.policy.hedge.map(|hedge| hedge.after);
        // Lost probe races are excluded locally and selection retried, so
        // the loop terminates after at most `states.len()` rounds.
        let mut race_lost = vec![false; self.states.len()];
        loop {
            let now = Instant::now(); // lint: allow(clock) — selection loop tick
            let mut best: Option<(SelectionKey, usize, Eligibility)> = None;
            for (i, state) in self.states.iter().enumerate() {
                if avoid[i] || race_lost[i] {
                    continue;
                }
                let eligibility = state.eligibility(now);
                if eligibility == Eligibility::Blocked {
                    continue;
                }
                let slots = state.backend.slots();
                let capacity = if slots == 0 { 1_000_000 } else { slots };
                let in_flight = state.in_flight.load(Ordering::Relaxed);
                let pricing = state.backend.pricing();
                let key = (
                    slots > 0 && in_flight >= slots,
                    straggle_floor.is_some_and(|floor| state.straggles(floor)),
                    in_flight as f64 / capacity as f64,
                    pricing.usd_per_1k_input + pricing.usd_per_1k_output,
                );
                if best.as_ref().is_none_or(|(best_key, _, _)| key < *best_key) {
                    best = Some((key, i, eligibility));
                }
            }
            let (_, index, eligibility) = best?;
            if eligibility == Eligibility::Closed || self.states[index].try_claim_probe(now) {
                return Some(index);
            }
            // Another thread won this backend's probe between the check and
            // the claim; drop it from this round and re-select.
            race_lost[index] = true;
        }
    }

    /// The effective hedge delay for a primary backend: the adaptive p9x
    /// trigger once history exists, floored by the configured delay.
    fn hedge_delay(&self, primary: usize, config: &HedgeConfig) -> Duration {
        match self.states[primary].latency_percentile(config.percentile) {
            Some(observed) if observed > config.after => observed,
            _ => config.after,
        }
    }

    /// One attempt of a hedged dispatch on backend `index`. A backend that
    /// panics is an unavailable one: the unwind stops here, so the caller's
    /// thread survives its inline primary and a twin always has an outcome
    /// to publish ([`BackendState::execute`]'s guard has already given back
    /// the in-flight count and any probe).
    fn attempt(
        &self,
        index: usize,
        request: &CompletionRequest,
        cancel: &CancelToken,
    ) -> Result<CompletionResponse, LlmError> {
        catch_unwind(AssertUnwindSafe(|| {
            self.states[index].execute(&self.policy.breaker, request, cancel)
        }))
        .unwrap_or(Err(LlmError::ServiceUnavailable))
    }
}

/// One hedged dispatch, shared by the three threads that can touch it: the
/// caller, which runs the primary inline; the router's helper, which
/// launches the twin if the deadline passes first; and the twin.
struct HedgedCall {
    request: CompletionRequest,
    /// Backends a twin must not use: the retry loop's avoided set plus the
    /// primary itself.
    avoid: Vec<bool>,
    cancel_primary: CancelToken,
    slot: Mutex<HedgeSlot>,
    /// Notified when the twin publishes its outcome into `slot`.
    published: Condvar,
}

/// The hand-off state of a [`HedgedCall`], under its lock.
#[derive(Default)]
struct HedgeSlot {
    /// The caller's primary has returned. From here on the helper launches
    /// nothing, and a twin that succeeds has nobody left to cancel.
    primary_reported: bool,
    twin: Twin,
}

#[derive(Default)]
enum Twin {
    /// No twin (yet): the deadline has not passed, or no backend was left
    /// to hedge onto, or the caller has already taken the outcome.
    #[default]
    NotLaunched,
    Running {
        cancel: CancelToken,
    },
    Done {
        index: usize,
        result: Result<CompletionResponse, LlmError>,
    },
}

impl HedgedCall {
    /// The helper's half: the deadline passed. If the primary is still out,
    /// duplicate the request onto the next-best backend on a thread of its
    /// own. The twin publishes its outcome into the slot and, if it
    /// succeeded first, cancels the primary — which is what returns the
    /// caller's inline call at once instead of at the straggler's leisure.
    fn launch_twin(self: Arc<Self>, core: &Arc<Core>) {
        let mut slot = self.slot.lock();
        if slot.primary_reported {
            return;
        }
        // No other backend to hedge onto: the caller just keeps waiting.
        let Some(index) = core.select(&self.avoid) else {
            return;
        };
        core.hedges_launched.fetch_add(1, Ordering::Relaxed);
        let cancel = CancelToken::new();
        let twin = {
            let (core, call, cancel) = (Arc::clone(core), Arc::clone(&self), cancel.clone());
            move || {
                let result = core.attempt(index, &call.request, &cancel);
                let mut slot = call.slot.lock();
                if result.is_ok() && !slot.primary_reported {
                    call.cancel_primary.cancel();
                }
                slot.twin = Twin::Done { index, result };
                drop(slot);
                call.published.notify_all();
            }
        };
        // Detached: a losing twin keeps running until its token stops it,
        // without holding up the winner's return. Marked running only once
        // the thread exists, so a caller never waits on a twin that is not
        // there; the twin itself cannot publish before this lock is let go.
        std::thread::spawn(twin);
        slot.twin = Twin::Running { cancel };
    }
}

/// The deadlines of a router's in-flight hedged dispatches, and the one
/// helper thread that sleeps until the earliest of them.
///
/// The helper is started by the first hedged dispatch (a router that never
/// hedges never has one), parks while nothing is armed, never runs a
/// backend call itself, and is stopped and joined when the router drops.
#[derive(Default)]
struct Hedger {
    shared: Arc<HedgerShared>,
}

#[derive(Default)]
struct HedgerShared {
    state: Mutex<HedgerState>,
    /// Wakes the helper: an earlier deadline was armed, or the router is
    /// going away.
    wake: Condvar,
}

#[derive(Default)]
struct HedgerState {
    /// Armed calls by `(deadline, arming order)`.
    armed: BTreeMap<Ticket, Arc<HedgedCall>>,
    next_ticket: u64,
    /// The deadline the helper is sleeping towards; `None` while it is
    /// parked with nothing armed. An arming thread skips the wake-up when
    /// its own deadline is no earlier.
    wake_at: Option<Instant>,
    helper: Option<JoinHandle<()>>,
    closed: bool,
}

type Ticket = (Instant, u64);

impl Hedger {
    /// Have the helper call [`HedgedCall::launch_twin`] at `deadline`
    /// unless [`Hedger::disarm`]ed first.
    fn arm(&self, core: &Arc<Core>, deadline: Instant, call: Arc<HedgedCall>) -> Ticket {
        let mut state = self.shared.state.lock();
        let ticket = (deadline, state.next_ticket);
        state.next_ticket += 1;
        state.armed.insert(ticket, call);
        if state.helper.is_none() {
            state.helper = Some(Self::start_helper(
                Arc::clone(&self.shared),
                Arc::clone(core),
            ));
        } else if state.wake_at.is_none_or(|at| deadline < at) {
            self.shared.wake.notify_one();
        }
        ticket
    }

    fn disarm(&self, ticket: Ticket) {
        self.shared.state.lock().armed.remove(&ticket);
    }

    fn start_helper(shared: Arc<HedgerShared>, core: Arc<Core>) -> JoinHandle<()> {
        std::thread::spawn(move || loop {
            let due = {
                let mut state = shared.state.lock();
                loop {
                    if state.closed {
                        return;
                    }
                    let now = Instant::now(); // lint: allow(clock) — hedge deadline check
                    match state.armed.first_key_value().map(|(ticket, _)| ticket.0) {
                        Some(deadline) if deadline <= now => break state.armed.pop_first(),
                        Some(deadline) => {
                            state.wake_at = Some(deadline);
                            shared.wake.wait_for(&mut state, deadline - now);
                        }
                        None => {
                            state.wake_at = None;
                            shared.wake.wait(&mut state);
                        }
                    }
                }
            };
            if let Some((_, call)) = due {
                call.launch_twin(&core);
            }
        })
    }
}

impl Drop for Hedger {
    fn drop(&mut self) {
        let helper = {
            let mut state = self.shared.state.lock();
            state.closed = true;
            state.helper.take()
        };
        self.shared.wake.notify_one();
        if let Some(helper) = helper {
            // The helper runs no backend code, so this is prompt; a panic
            // in it has already been reported by the panic hook.
            let _ = helper.join();
        }
    }
}

/// A failure-aware, optionally hedging dispatcher over a backend registry.
///
/// Implements [`LanguageModel`] — it is what [`crate::LlmClient::model`]
/// hands out — and every [`crate::LlmClient`] dispatches through one: the
/// client's cache, coalescing, ledger, and budget accounting all operate on
/// the single response the router returns per logical request.
pub struct Router {
    registry: BackendRegistry,
    core: Arc<Core>,
    tier: String,
    reference_pricing: Pricing,
    min_context: u32,
    retries: AtomicU64,
    hedger: Hedger,
}

impl Router {
    /// Build a router over `registry` with the given policy.
    pub fn new(registry: BackendRegistry, policy: RoutePolicy) -> Self {
        let states = registry
            .backends()
            .iter()
            .map(|b| BackendState::new(Arc::clone(b)))
            .collect();
        let cheapest = registry.cheapest();
        Router {
            tier: registry.tier().to_owned(),
            reference_pricing: registry.backends()[cheapest].pricing(),
            min_context: registry.min_context_window(),
            registry,
            core: Arc::new(Core {
                policy,
                states,
                hedges_launched: AtomicU64::new(0),
                hedges_won: AtomicU64::new(0),
            }),
            retries: AtomicU64::new(0),
            hedger: Hedger::default(),
        }
    }

    /// The backend registry this router dispatches over.
    pub fn registry(&self) -> &BackendRegistry {
        &self.registry
    }

    /// The dispatch policy.
    pub fn policy(&self) -> &RoutePolicy {
        &self.core.policy
    }

    /// The cheapest backend's id — the reference schedule behind
    /// [`LanguageModel::pricing`], which planner estimates price against.
    pub fn reference_backend_id(&self) -> &str {
        self.registry.backends()[self.registry.cheapest()].id()
    }

    /// Worst-case ratio between any backend's schedule and the reference
    /// (cheapest) schedule, `>= 1.0`. Budget *admission* scales estimates
    /// by this, so a USD cap holds even when the priciest backend ends up
    /// serving a call that was estimated at reference pricing; plan
    /// estimates stay at the optimistic reference schedule. `1.0` for
    /// single-backend registries, uniform pricing, or a free reference
    /// schedule (where estimates are $0 regardless).
    pub fn admission_price_factor(&self) -> f64 {
        let rate = |p: Pricing| p.usd_per_1k_input + p.usd_per_1k_output;
        let reference = rate(self.reference_pricing);
        if reference <= 0.0 {
            return 1.0;
        }
        self.registry
            .backends()
            .iter()
            .map(|b| rate(b.pricing()) / reference)
            .fold(1.0, f64::max)
    }

    /// Retry attempts so far: what [`crate::ClientStats::retries`] mirrors,
    /// without building a whole [`RouterStats`] snapshot.
    pub(crate) fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Snapshot the router's behaviour counters.
    pub fn stats(&self) -> RouterStats {
        let now = Instant::now(); // lint: allow(clock) — stats snapshot anchor
        RouterStats {
            retries: self.retries(),
            hedges_launched: self.core.hedges_launched.load(Ordering::Relaxed),
            hedges_won: self.core.hedges_won.load(Ordering::Relaxed),
            per_backend: self
                .core
                .states
                .iter()
                .map(|s| BackendStats {
                    id: s.backend.id().to_owned(),
                    dispatches: s.dispatches.load(Ordering::Relaxed),
                    wins: s.wins.load(Ordering::Relaxed),
                    transient_failures: s.transient_failures.load(Ordering::Relaxed),
                    breaker_trips: s.breaker_trips.load(Ordering::Relaxed),
                    open: s.is_open(now),
                })
                .collect(),
        }
    }

    /// Dispatch with hedging: run the primary here, on the caller's thread,
    /// with a deadline armed on the helper; a primary that straggles past
    /// it gets a twin on the next-best backend. First success wins, the
    /// loser is cancelled, and exactly one outcome is returned.
    ///
    /// A secondary that *failed* is marked in `avoid`, so the caller's
    /// retry loop skips both halves of a fully-failed hedge rather than
    /// re-selecting the backend that just failed this request.
    fn dispatch_hedged(
        &self,
        primary: usize,
        request: CompletionRequest,
        config: &HedgeConfig,
        avoid: &mut [bool],
    ) -> Result<CompletionResponse, LlmError> {
        let core = &self.core;
        let mut twin_avoid = avoid.to_vec();
        twin_avoid[primary] = true;
        let call = Arc::new(HedgedCall {
            request,
            avoid: twin_avoid,
            cancel_primary: CancelToken::new(),
            slot: Mutex::default(),
            published: Condvar::new(),
        });
        let deadline = Instant::now() + core.hedge_delay(primary, config); // lint: allow(clock) — hedge deadline anchor
        let ticket = self.hedger.arm(core, deadline, Arc::clone(&call));
        // The primary, and below it the wait for a launched twin, stall for
        // backend-scale time; no shim lock may span either (enforced by the
        // lock_diagnostics build).
        parking_lot::blocking_region("hedged dispatch wait");
        let primary_result = core.attempt(primary, &call.request, &call.cancel_primary);
        self.hedger.disarm(ticket);

        let mut slot = call.slot.lock();
        slot.primary_reported = true;
        if primary_result.is_err() {
            // A twin that is out may still save the request. One that was
            // never launched will not be: `primary_reported` stops the
            // helper, so a primary failing inside the delay returns now.
            while matches!(slot.twin, Twin::Running { .. }) {
                call.published.wait(&mut slot);
            }
        }
        let win = |index: usize, response| {
            core.states[index].wins.fetch_add(1, Ordering::Relaxed);
            Ok(response)
        };
        match (primary_result, std::mem::take(&mut slot.twin)) {
            // The twin published a success before the primary reported (and
            // cancelled it): first success wins, whatever the primary then
            // came back with. The discarded outcome never reaches the
            // caller — or the ledger.
            (
                _,
                Twin::Done {
                    index,
                    result: Ok(response),
                },
            ) => {
                core.hedges_won.fetch_add(1, Ordering::Relaxed);
                win(index, response)
            }
            (Ok(response), twin) => {
                if let Twin::Running { cancel } = twin {
                    cancel.cancel();
                }
                win(primary, response)
            }
            // Both attempts failed. Prefer a non-retryable error: it is
            // request-level and deterministic, and surfacing a transient
            // twin instead would send the caller's retry loop chasing a
            // request that can only hard-fail.
            (
                Err(error),
                Twin::Done {
                    index,
                    result: Err(twin_error),
                },
            ) => {
                avoid[index] = true;
                Err(if error.is_retryable() && !twin_error.is_retryable() {
                    twin_error
                } else {
                    error
                })
            }
            (Err(error), _) => Err(error),
        }
    }

    /// Milliseconds until the earliest breaker would admit a half-open
    /// probe: `0` if any backend's breaker is closed or already cooled
    /// down, else the shortest remaining cooldown. Feeds
    /// [`LlmError::CircuitOpen::retry_in_ms`] so callers can schedule a
    /// retry for when it can actually succeed.
    fn earliest_probe_in_ms(&self, now: Instant) -> u64 {
        self.core
            .states
            .iter()
            .map(|s| {
                let state = s.breaker.lock();
                match state.open_until {
                    Some(t) => t.saturating_duration_since(now).as_millis() as u64,
                    None => 0,
                }
            })
            .min()
            .unwrap_or(0)
    }

    /// Dispatch without hedging: one inline attempt, no thread spawn.
    fn dispatch_direct(
        &self,
        index: usize,
        request: &CompletionRequest,
    ) -> Result<CompletionResponse, LlmError> {
        let state = &self.core.states[index];
        let result = state.execute(&self.core.policy.breaker, request, &CancelToken::new());
        if result.is_ok() {
            state.wins.fetch_add(1, Ordering::Relaxed);
        }
        result
    }
}

impl LanguageModel for Router {
    fn name(&self) -> &str {
        &self.tier
    }

    fn context_window(&self) -> u32 {
        self.min_context
    }

    /// The tier's *reference* pricing — the cheapest backend's schedule.
    /// Estimates (budget admission, planner costing) price against this;
    /// actual spend is recorded from each response's own
    /// [`CompletionResponse::pricing`].
    fn pricing(&self) -> Pricing {
        self.reference_pricing
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
        let core = &self.core;
        let max_attempts = core.policy.max_retries.saturating_add(1);
        let mut attempt = 0u32;
        let mut avoid = vec![false; core.states.len()];
        loop {
            let primary = match core.select(&avoid) {
                Some(index) => index,
                None => {
                    // Everything admitted has already failed this request:
                    // lift the avoidance and try whoever the breakers still
                    // allow. If nothing is admitted at all, the tier is down.
                    if avoid.iter().any(|&a| a) {
                        avoid.iter_mut().for_each(|a| *a = false);
                    }
                    match core.select(&avoid) {
                        Some(index) => index,
                        None => {
                            return Err(LlmError::CircuitOpen {
                                model: self.tier.clone(),
                                retry_in_ms: self.earliest_probe_in_ms(Instant::now()), // lint: allow(clock) — probe ETA estimate
                            });
                        }
                    }
                }
            };
            // Re-roll the backend's transport fate per attempt, the way a
            // real retry hits a different server moment. `attempt` is in no
            // fingerprint, so caching and answer draws are unaffected.
            let mut attempt_request = request.clone();
            attempt_request.attempt = attempt;
            let result = match &core.policy.hedge {
                Some(config) => self.dispatch_hedged(primary, attempt_request, config, &mut avoid),
                None => self.dispatch_direct(primary, &attempt_request),
            };
            match result {
                Ok(response) => return Ok(response),
                Err(error) if error.is_retryable() => {
                    attempt += 1;
                    if attempt >= max_attempts {
                        return Err(LlmError::RetriesExhausted {
                            attempts: max_attempts,
                            last: Box::new(error),
                        });
                    }
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    avoid[primary] = true;
                    match crate::retry::retry_delay(
                        core.policy.backoff_ms,
                        attempt,
                        error.retry_hint_ms(),
                        request.fingerprint(),
                        request.deadline,
                        Instant::now(), // lint: allow(clock) — retry backoff anchor
                    ) {
                        Some(delay) => {
                            if !delay.is_zero() {
                                parking_lot::blocking_region("router retry backoff sleep");
                                std::thread::sleep(delay);
                            }
                        }
                        // Deadline passed mid-request: stop chasing this
                        // call and report how far we got.
                        None => {
                            return Err(LlmError::RetriesExhausted {
                                attempts: attempt,
                                last: Box::new(error),
                            })
                        }
                    }
                }
                Err(error) => return Err(error),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Quota leases on backend slots (PR 10 serving layer)
// ---------------------------------------------------------------------------

/// A reserved backend slot, handed out by [`LeaseTable::reserve`].
///
/// A lease moves through three stages, mirroring the reserve/confirm/release
/// discipline of a contended resource pool:
///
/// 1. **Reserved** — the slot is held tentatively, with a generation-based
///    expiry. An unconfirmed reservation that outlives its TTL is reclaimed
///    by the next [`LeaseTable::reserve`] sweep, so a tenant that crashes
///    between admission and dispatch never strands capacity.
/// 2. **Confirmed** — [`LeaseTable::confirm`] re-validates the lease right
///    before dispatch and renews its expiry; a lease that was already
///    reclaimed fails confirmation instead of double-occupying the slot.
/// 3. **Released** — [`LeaseTable::release`] frees the slot explicitly. A
///    confirmed lease that is never released (stalled dispatch) still falls
///    back to expiry-based reclamation.
///
/// The "time source" is a caller-supplied generation counter, never the wall
/// clock, so expiry is deterministic and testable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotLease {
    /// Index of the slot this lease occupies.
    slot: usize,
    /// Monotonic token distinguishing this grant from later grants of the
    /// same slot (an expired lease's token no longer matches the table).
    token: u64,
}

impl SlotLease {
    /// The slot index this lease occupies (stable across confirm/renew).
    pub fn slot(&self) -> usize {
        self.slot
    }
}

/// Per-slot bookkeeping inside a [`LeaseTable`].
#[derive(Debug, Clone, Copy)]
enum SlotState {
    Free,
    /// Held by the lease with this token; reclaimable once `expires_gen` is
    /// in the past. `confirmed` only affects accounting (a confirmed lease
    /// represents real in-flight work, a reservation is merely a promise).
    Held {
        token: u64,
        expires_gen: u64,
        confirmed: bool,
    },
}

/// A fixed-capacity table of backend-slot leases with generation-based
/// expiry.
///
/// The serving layer sizes one of these from the roster's advertised
/// concurrency (see [`Router::total_slots`]) and makes every dispatch pass
/// through reserve → confirm → release. `reserve` returning `None` is the
/// load-shedding signal: the roster is saturated and the caller should
/// surface a retry-after hint instead of queueing unboundedly.
///
/// All operations take the current generation as an argument; the table
/// itself never reads a clock.
#[derive(Debug)]
pub struct LeaseTable {
    slots: Mutex<Vec<SlotState>>,
    next_token: AtomicU64,
}

impl LeaseTable {
    /// Build a table with `capacity` slots (minimum 1).
    pub fn new(capacity: usize) -> Self {
        LeaseTable {
            slots: Mutex::new(vec![SlotState::Free; capacity.max(1)]),
            next_token: AtomicU64::new(1),
        }
    }

    /// Total number of slots (free or held).
    pub fn capacity(&self) -> usize {
        self.slots.lock().len()
    }

    /// Reserve a slot, expiring at `now_gen + ttl_generations` unless
    /// confirmed or renewed first. Expired leases (unconfirmed *or*
    /// confirmed) are swept and reused before reporting saturation.
    /// Returns `None` when every slot is validly held — the caller should
    /// shed load rather than wait.
    pub fn reserve(&self, now_gen: u64, ttl_generations: u64) -> Option<SlotLease> {
        let mut slots = self.slots.lock();
        let index = slots.iter().position(|s| match s {
            SlotState::Free => true,
            SlotState::Held { expires_gen, .. } => *expires_gen <= now_gen,
        })?;
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        slots[index] = SlotState::Held {
            token,
            expires_gen: now_gen.saturating_add(ttl_generations.max(1)),
            confirmed: false,
        };
        Some(SlotLease { slot: index, token })
    }

    /// Confirm a reservation immediately before dispatch, renewing its
    /// expiry to `now_gen + ttl_generations`. Returns `false` if the lease
    /// already expired and was (or may be) reclaimed — the caller must
    /// re-reserve rather than dispatch on a slot someone else now holds.
    pub fn confirm(&self, lease: &SlotLease, now_gen: u64, ttl_generations: u64) -> bool {
        let mut slots = self.slots.lock();
        match slots.get_mut(lease.slot) {
            Some(SlotState::Held {
                token,
                expires_gen,
                confirmed,
            }) if *token == lease.token && *expires_gen > now_gen => {
                *expires_gen = now_gen.saturating_add(ttl_generations.max(1));
                *confirmed = true;
                true
            }
            _ => false,
        }
    }

    /// Release a lease, freeing its slot. Releasing an expired or already
    /// reclaimed lease is a harmless no-op (the slot belongs to its next
    /// holder), so release is safe to call from cleanup paths
    /// unconditionally.
    pub fn release(&self, lease: &SlotLease) {
        let mut slots = self.slots.lock();
        if let Some(slot) = slots.get_mut(lease.slot) {
            if matches!(slot, SlotState::Held { token, .. } if *token == lease.token) {
                *slot = SlotState::Free;
            }
        }
    }

    /// Number of slots validly held (reserved or confirmed) at `now_gen`.
    pub fn in_use(&self, now_gen: u64) -> usize {
        self.slots
            .lock()
            .iter()
            .filter(|s| matches!(s, SlotState::Held { expires_gen, .. } if *expires_gen > now_gen))
            .count()
    }

    /// Generations until the earliest currently-held lease expires, or
    /// `None` when no slot is validly held. A saturated caller can use
    /// this as a retry-after hint: by then at least one slot is
    /// reclaimable even if its holder crashed.
    pub fn earliest_release_in(&self, now_gen: u64) -> Option<u64> {
        self.slots
            .lock()
            .iter()
            .filter_map(|s| match s {
                SlotState::Held { expires_gen, .. } if *expires_gen > now_gen => {
                    Some(*expires_gen - now_gen)
                }
                _ => None,
            })
            .min()
    }

    /// Number of slots holding *confirmed* (dispatch-backed) leases at
    /// `now_gen`.
    pub fn confirmed_in_use(&self, now_gen: u64) -> usize {
        self.slots
            .lock()
            .iter()
            .filter(|s| {
                matches!(
                    s,
                    SlotState::Held {
                        expires_gen,
                        confirmed: true,
                        ..
                    } if *expires_gen > now_gen
                )
            })
            .count()
    }
}

impl Router {
    /// Total advertised concurrency across the roster: the sum of every
    /// backend's [`Backend::slots`]. Backends advertising `0` (unbounded)
    /// contribute a nominal 16 slots so the serving layer's lease table
    /// stays finite. Minimum 1.
    pub fn total_slots(&self) -> usize {
        let total: usize = self
            .registry
            .backends()
            .iter()
            .map(|b| {
                let slots = b.slots();
                if slots == 0 {
                    16
                } else {
                    slots
                }
            })
            .sum();
        total.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{LatencyProfile, SimBackend};
    use crate::model::{ModelProfile, NoiseProfile};
    use crate::sim::SimulatedLlm;
    use crate::task::TaskDescriptor;
    use crate::world::{ItemId, WorldModel};

    fn shared_model(n: usize, seed: u64) -> (Arc<dyn LanguageModel>, Vec<ItemId>) {
        let mut w = WorldModel::new();
        let ids = (0..n)
            .map(|i| {
                let id = w.add_item(format!("routed item {i}"));
                w.set_flag(id, "p", i % 2 == 0);
                id
            })
            .collect();
        (
            Arc::new(SimulatedLlm::new(
                ModelProfile::gpt35_like(),
                Arc::new(w),
                seed,
            )),
            ids,
        )
    }

    fn check(id: ItemId) -> CompletionRequest {
        CompletionRequest::new(
            format!("Does item {} satisfy p?", id.0),
            TaskDescriptor::CheckPredicate {
                item: id,
                predicate: "p".into(),
            },
        )
    }

    #[test]
    fn single_backend_routing_is_result_identical() {
        let (model, ids) = shared_model(6, 11);
        let router = Router::new(
            BackendRegistry::single(Arc::clone(&model)),
            RoutePolicy::default(),
        );
        for id in &ids {
            let direct = model.complete(&check(*id)).unwrap();
            let routed = router.complete(&check(*id)).unwrap();
            assert_eq!(direct, routed);
        }
        assert_eq!(router.stats().per_backend[0].wins, ids.len() as u64);
    }

    #[test]
    fn selection_prefers_cheapest_on_equal_load() {
        let (model, ids) = shared_model(4, 2);
        let backends: Vec<Arc<dyn Backend>> = vec![
            Arc::new(SimBackend::new("pricey", Arc::clone(&model)).with_price_multiplier(3.0)),
            Arc::new(SimBackend::new("cheap", Arc::clone(&model)).with_price_multiplier(0.5)),
        ];
        let router = Router::new(
            BackendRegistry::new(backends).unwrap(),
            RoutePolicy::default(),
        );
        for id in &ids {
            router.complete(&check(*id)).unwrap();
        }
        let stats = router.stats();
        assert_eq!(
            stats.per_backend[1].wins,
            ids.len() as u64,
            "cheap serves all"
        );
        assert_eq!(stats.per_backend[0].wins, 0);
        // And the router's reference pricing is the cheap schedule.
        assert_eq!(router.reference_backend_id(), "cheap");
        let base = model.pricing();
        assert!((router.pricing().usd_per_1k_input - base.usd_per_1k_input * 0.5).abs() < 1e-12);
    }

    #[test]
    fn transient_failure_retries_on_another_backend() {
        let (model, ids) = shared_model(2, 3);
        let backends: Vec<Arc<dyn Backend>> = vec![
            // Cheap but always down; selection tries it first.
            Arc::new(
                SimBackend::new("down", Arc::clone(&model))
                    .with_price_multiplier(0.1)
                    .with_transport_noise(NoiseProfile {
                        unavailable_prob: 1.0,
                        ..NoiseProfile::perfect()
                    })
                    .with_seed(7),
            ),
            Arc::new(SimBackend::new("up", Arc::clone(&model))),
        ];
        let router = Router::new(
            BackendRegistry::new(backends).unwrap(),
            RoutePolicy {
                max_retries: 2,
                ..RoutePolicy::default()
            },
        );
        let response = router.complete(&check(ids[0])).unwrap();
        assert_eq!(response.text, model.complete(&check(ids[0])).unwrap().text);
        let stats = router.stats();
        assert_eq!(stats.retries, 1, "one failover retry");
        assert_eq!(stats.per_backend[0].transient_failures, 1);
        assert_eq!(stats.per_backend[1].wins, 1);
    }

    #[test]
    fn retries_exhausted_when_every_backend_fails() {
        let (model, ids) = shared_model(1, 4);
        let backends: Vec<Arc<dyn Backend>> = vec![Arc::new(
            SimBackend::new("down", model)
                .with_transport_noise(NoiseProfile {
                    rate_limit_prob: 1.0,
                    ..NoiseProfile::perfect()
                })
                .with_seed(1),
        )];
        let router = Router::new(
            BackendRegistry::new(backends).unwrap(),
            RoutePolicy {
                max_retries: 2,
                breaker: BreakerConfig {
                    failure_threshold: 100,
                    cooldown: Duration::from_millis(1),
                },
                ..RoutePolicy::default()
            },
        );
        match router.complete(&check(ids[0])) {
            Err(LlmError::RetriesExhausted { attempts, last }) => {
                assert_eq!(attempts, 3);
                assert!(matches!(*last, LlmError::RateLimited { .. }));
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn retry_sleep_honors_the_rate_limit_hint() {
        let (model, ids) = shared_model(1, 21);
        let backends: Vec<Arc<dyn Backend>> = vec![Arc::new(
            SimBackend::new("throttled", model)
                .with_transport_noise(NoiseProfile {
                    rate_limit_prob: 1.0, // every call is a 429 with retry_after_ms = 50
                    ..NoiseProfile::perfect()
                })
                .with_seed(8),
        )];
        let router = Router::new(
            BackendRegistry::new(backends).unwrap(),
            RoutePolicy {
                max_retries: 2,
                backoff_ms: 1, // linear ramp alone would sleep ~3 ms total
                breaker: BreakerConfig {
                    failure_threshold: 100,
                    cooldown: Duration::from_millis(1),
                },
                ..RoutePolicy::default()
            },
        );
        let started = Instant::now();
        assert!(matches!(
            router.complete(&check(ids[0])),
            Err(LlmError::RetriesExhausted { .. })
        ));
        // Two retry sleeps, each floored by the 50 ms server hint.
        assert!(
            started.elapsed() >= Duration::from_millis(100),
            "retry sleeps must honor the Retry-After hint, elapsed {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn expired_deadline_stops_router_retries() {
        let (model, ids) = shared_model(1, 22);
        let backends: Vec<Arc<dyn Backend>> = vec![Arc::new(
            SimBackend::new("down", model)
                .with_transport_noise(NoiseProfile {
                    unavailable_prob: 1.0,
                    ..NoiseProfile::perfect()
                })
                .with_seed(9),
        )];
        let router = Router::new(
            BackendRegistry::new(backends).unwrap(),
            RoutePolicy {
                max_retries: 5,
                breaker: BreakerConfig {
                    failure_threshold: 100,
                    cooldown: Duration::from_millis(1),
                },
                ..RoutePolicy::default()
            },
        );
        let request = check(ids[0]).with_deadline(Some(Instant::now()));
        match router.complete(&request) {
            Err(LlmError::RetriesExhausted { attempts, .. }) => {
                assert_eq!(attempts, 1, "an expired deadline permits no retries");
            }
            other => panic!("expected deadline-capped exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_reprobes() {
        let (model, ids) = shared_model(8, 5);
        let backends: Vec<Arc<dyn Backend>> = vec![
            Arc::new(
                SimBackend::new("flaky", Arc::clone(&model))
                    .with_price_multiplier(0.1)
                    .with_transport_noise(NoiseProfile {
                        unavailable_prob: 1.0,
                        ..NoiseProfile::perfect()
                    })
                    .with_seed(2),
            ),
            Arc::new(SimBackend::new("steady", model)),
        ];
        let router = Router::new(
            BackendRegistry::new(backends).unwrap(),
            RoutePolicy {
                max_retries: 1,
                breaker: BreakerConfig {
                    failure_threshold: 2,
                    cooldown: Duration::from_secs(3600),
                },
                ..RoutePolicy::default()
            },
        );
        for id in &ids {
            router.complete(&check(*id)).unwrap();
        }
        let stats = router.stats();
        assert!(stats.per_backend[0].open, "flaky breaker must be open");
        assert_eq!(stats.per_backend[0].breaker_trips, 1);
        assert_eq!(
            stats.per_backend[0].transient_failures, 2,
            "after the trip, traffic no longer reaches the flaky backend"
        );
        assert_eq!(stats.per_backend[1].wins, ids.len() as u64);
    }

    #[test]
    fn failures_landing_on_an_open_breaker_do_not_trip_it_again() {
        const CALLS: usize = 8;
        /// Fails every call, but only once all of them are in flight — so
        /// most failures land after the breaker has already opened.
        struct ParkedOutage {
            parked: std::sync::Barrier,
        }
        impl Backend for ParkedOutage {
            fn id(&self) -> &str {
                "parked"
            }
            fn tier(&self) -> &str {
                "sim-gpt-3.5-turbo"
            }
            fn context_window(&self) -> u32 {
                4096
            }
            fn pricing(&self) -> Pricing {
                Pricing::free()
            }
            fn slots(&self) -> usize {
                0
            }
            fn complete(
                &self,
                _request: &CompletionRequest,
                _cancel: &CancelToken,
            ) -> Result<CompletionResponse, LlmError> {
                self.parked.wait();
                Err(LlmError::ServiceUnavailable)
            }
        }
        let (_, ids) = shared_model(CALLS, 23);
        let router = Router::new(
            BackendRegistry::new(vec![Arc::new(ParkedOutage {
                parked: std::sync::Barrier::new(CALLS),
            }) as Arc<dyn Backend>])
            .unwrap(),
            RoutePolicy {
                max_retries: 0,
                breaker: BreakerConfig {
                    failure_threshold: 5,
                    cooldown: Duration::from_secs(3600),
                },
                ..RoutePolicy::default()
            },
        );
        std::thread::scope(|scope| {
            for id in &ids {
                let router = &router;
                scope.spawn(move || assert!(router.complete(&check(*id)).is_err()));
            }
        });
        let stats = router.stats();
        assert_eq!(stats.per_backend[0].transient_failures, CALLS as u64);
        assert!(stats.per_backend[0].open);
        assert_eq!(stats.per_backend[0].breaker_trips, 1, "one opening");
    }

    #[test]
    fn losing_selection_does_not_consume_the_half_open_probe() {
        let (model, ids) = shared_model(4, 14);
        let down = |id: &str, mult: f64, seed: u64| -> Arc<dyn Backend> {
            Arc::new(
                SimBackend::new(id, Arc::clone(&model))
                    .with_price_multiplier(mult)
                    .with_transport_noise(NoiseProfile {
                        unavailable_prob: 1.0,
                        ..NoiseProfile::perfect()
                    })
                    .with_seed(seed),
            )
        };
        let router = Router::new(
            BackendRegistry::new(vec![
                down("down-cheap", 0.5, 31),
                down("down-pricey", 2.0, 32),
            ])
            .unwrap(),
            RoutePolicy {
                max_retries: 1,
                breaker: BreakerConfig {
                    failure_threshold: 1,
                    cooldown: Duration::from_millis(20),
                },
                ..RoutePolicy::default()
            },
        );
        // Round 1 trips both breakers (cheap first, then the retry).
        assert!(matches!(
            router.complete(&check(ids[0])),
            Err(LlmError::RetriesExhausted { .. })
        ));
        std::thread::sleep(Duration::from_millis(40));
        // Round 2: both are probe-ready. The cheap backend wins selection
        // and burns its probe; the retry must then probe the pricey one —
        // merely *losing* round 2's first selection must not have consumed
        // its half-open slot (that would starve it forever and turn this
        // into CircuitOpen).
        assert!(matches!(
            router.complete(&check(ids[1])),
            Err(LlmError::RetriesExhausted { .. })
        ));
        let stats = router.stats();
        assert_eq!(stats.per_backend[0].dispatches, 2, "cheap: initial + probe");
        assert_eq!(
            stats.per_backend[1].dispatches, 2,
            "pricey: initial + probe"
        );
    }

    #[test]
    fn failed_hedge_secondary_is_avoided_on_retry() {
        let (model, ids) = shared_model(1, 15);
        let backends: Vec<Arc<dyn Backend>> = vec![
            // Cheapest: hangs ~30 ms, then times out.
            Arc::new(
                SimBackend::new("slow-broken", Arc::clone(&model))
                    .with_price_multiplier(0.3)
                    .with_latency(LatencyProfile::fixed(30_000))
                    .with_transport_noise(NoiseProfile {
                        timeout_prob: 1.0,
                        ..NoiseProfile::perfect()
                    })
                    .with_seed(41),
            ),
            // Mid-price: fails instantly — the hedge target.
            Arc::new(
                SimBackend::new("fast-broken", Arc::clone(&model))
                    .with_price_multiplier(0.6)
                    .with_transport_noise(NoiseProfile {
                        unavailable_prob: 1.0,
                        ..NoiseProfile::perfect()
                    })
                    .with_seed(42),
            ),
            Arc::new(SimBackend::new("healthy", Arc::clone(&model))),
        ];
        let router = Router::new(
            BackendRegistry::new(backends).unwrap(),
            RoutePolicy {
                max_retries: 3,
                hedge: Some(HedgeConfig::after(Duration::from_millis(2))),
                ..RoutePolicy::default()
            },
        );
        let response = router.complete(&check(ids[0])).unwrap();
        assert_eq!(response.text, model.complete(&check(ids[0])).unwrap().text);
        let stats = router.stats();
        // The hedge secondary failed once during the hedged attempt; the
        // retry must skip it (it already failed this request), not pick it
        // again as the next-cheapest primary.
        assert_eq!(
            stats.per_backend[1].dispatches, 1,
            "failed hedge secondary must not be re-selected on retry"
        );
        assert_eq!(
            stats.per_backend[2].wins, 1,
            "retry lands on the healthy backend"
        );
    }

    #[test]
    fn panicking_backend_surfaces_error_not_deadlock_under_hedging() {
        struct PanicBackend {
            tier: String,
        }
        impl Backend for PanicBackend {
            fn id(&self) -> &str {
                "panics"
            }
            fn tier(&self) -> &str {
                &self.tier
            }
            fn context_window(&self) -> u32 {
                4096
            }
            fn pricing(&self) -> Pricing {
                Pricing::free()
            }
            fn slots(&self) -> usize {
                0
            }
            fn complete(
                &self,
                _request: &CompletionRequest,
                _cancel: &CancelToken,
            ) -> Result<CompletionResponse, LlmError> {
                panic!("custom backend exploded");
            }
        }
        let (_, ids) = shared_model(1, 16);
        let router = Router::new(
            BackendRegistry::new(vec![Arc::new(PanicBackend {
                tier: "sim-gpt-3.5-turbo".into(),
            }) as Arc<dyn Backend>])
            .unwrap(),
            RoutePolicy {
                max_retries: 0,
                hedge: Some(HedgeConfig::after(Duration::from_millis(1))),
                ..RoutePolicy::default()
            },
        );
        // The attempt thread dies without reporting; the hedged dispatch
        // must observe the disconnect and return an error rather than
        // blocking on the channel forever.
        let result = router.complete(&check(ids[0]));
        assert!(
            result.is_err(),
            "panicked backend yields an error, not a hang"
        );
    }

    #[test]
    fn all_breakers_open_fails_fast_with_circuit_open() {
        let (model, ids) = shared_model(4, 6);
        let backends: Vec<Arc<dyn Backend>> = vec![Arc::new(
            SimBackend::new("down", model)
                .with_transport_noise(NoiseProfile {
                    unavailable_prob: 1.0,
                    ..NoiseProfile::perfect()
                })
                .with_seed(3),
        )];
        let router = Router::new(
            BackendRegistry::new(backends).unwrap(),
            RoutePolicy {
                max_retries: 3,
                breaker: BreakerConfig {
                    failure_threshold: 1,
                    cooldown: Duration::from_secs(3600),
                },
                ..RoutePolicy::default()
            },
        );
        // First call trips the breaker (first failure opens at threshold 1).
        assert!(router.complete(&check(ids[0])).is_err());
        match router.complete(&check(ids[1])) {
            Err(LlmError::CircuitOpen { model, retry_in_ms }) => {
                assert_eq!(model, "sim-gpt-3.5-turbo");
                // The 1-hour cooldown just started; the probe hint must
                // point (well) into it rather than inviting a blind retry.
                assert!(
                    retry_in_ms > 3_000_000,
                    "probe hint should reflect the cooldown, got {retry_in_ms}"
                );
            }
            other => panic!("expected circuit-open fail-fast, got {other:?}"),
        }
        assert_eq!(
            router.stats().per_backend[0].dispatches,
            1,
            "the circuit-open call never reached the backend"
        );
    }

    #[test]
    fn hedge_duplicates_straggler_and_winner_returns_first() {
        let (model, ids) = shared_model(1, 7);
        let backends: Vec<Arc<dyn Backend>> = vec![
            // Primary (cheapest) is extremely slow.
            Arc::new(
                SimBackend::new("slow", Arc::clone(&model))
                    .with_price_multiplier(0.5)
                    .with_latency(LatencyProfile::fixed(2_000_000)),
            ),
            Arc::new(SimBackend::new("fast", Arc::clone(&model))),
        ];
        let router = Router::new(
            BackendRegistry::new(backends).unwrap(),
            RoutePolicy {
                hedge: Some(HedgeConfig::after(Duration::from_millis(2))),
                ..RoutePolicy::default()
            },
        );
        let started = Instant::now();
        let response = router.complete(&check(ids[0])).unwrap();
        assert!(
            started.elapsed() < Duration::from_millis(1_000),
            "hedge must beat the 2 s straggler"
        );
        assert_eq!(response.text, model.complete(&check(ids[0])).unwrap().text);
        let stats = router.stats();
        assert_eq!(stats.hedges_launched, 1);
        assert_eq!(stats.hedges_won, 1);
        assert_eq!(stats.per_backend[1].wins, 1);
        assert_eq!(stats.per_backend[0].wins, 0);
    }

    #[test]
    fn fast_primary_never_hedges() {
        let (model, ids) = shared_model(8, 8);
        let backends: Vec<Arc<dyn Backend>> = vec![
            Arc::new(SimBackend::new("fast", Arc::clone(&model)).with_price_multiplier(0.5)),
            Arc::new(SimBackend::new("other", model)),
        ];
        let router = Router::new(
            BackendRegistry::new(backends).unwrap(),
            RoutePolicy {
                hedge: Some(HedgeConfig::after(Duration::from_millis(50))),
                ..RoutePolicy::default()
            },
        );
        for id in &ids {
            router.complete(&check(*id)).unwrap();
        }
        let stats = router.stats();
        assert_eq!(stats.hedges_launched, 0, "fast answers beat the delay");
        assert_eq!(stats.per_backend[0].wins, ids.len() as u64);
    }

    #[test]
    fn hedged_failure_falls_back_to_the_other_result() {
        let (model, ids) = shared_model(1, 9);
        let backends: Vec<Arc<dyn Backend>> = vec![
            // Primary: slow AND returns a transient error after its sleep.
            Arc::new(
                SimBackend::new("slow-broken", Arc::clone(&model))
                    .with_price_multiplier(0.5)
                    .with_latency(LatencyProfile::fixed(30_000))
                    .with_transport_noise(NoiseProfile {
                        timeout_prob: 1.0,
                        ..NoiseProfile::perfect()
                    })
                    .with_seed(4),
            ),
            Arc::new(SimBackend::new("fast", Arc::clone(&model))),
        ];
        let router = Router::new(
            BackendRegistry::new(backends).unwrap(),
            RoutePolicy {
                hedge: Some(HedgeConfig::after(Duration::from_millis(2))),
                ..RoutePolicy::default()
            },
        );
        let response = router.complete(&check(ids[0])).unwrap();
        assert_eq!(response.text, model.complete(&check(ids[0])).unwrap().text);
        assert_eq!(router.stats().hedges_won, 1);
    }

    #[test]
    fn adaptive_hedge_delay_tracks_observed_percentile() {
        let (model, ids) = shared_model(32, 10);
        let backends: Vec<Arc<dyn Backend>> = vec![
            Arc::new(
                SimBackend::new("primary", Arc::clone(&model))
                    .with_price_multiplier(0.5)
                    .with_latency(LatencyProfile::fixed(3_000)),
            ),
            Arc::new(SimBackend::new("other", model)),
        ];
        // Warm without hedging (a cancelled straggler records no latency,
        // so an always-winning hedge would starve the window of samples).
        let router = Router::new(
            BackendRegistry::new(backends).unwrap(),
            RoutePolicy::default(),
        );
        // Before any history, the delay is the (far too low) floor; once
        // the latency window fills with ~3 ms observations, the adaptive
        // p90 trigger takes over.
        let floor = HedgeConfig::after(Duration::from_micros(100));
        assert_eq!(
            router.core.hedge_delay(0, &floor),
            Duration::from_micros(100)
        );
        for id in &ids {
            router.complete(&check(*id)).unwrap();
        }
        assert!(
            router.core.hedge_delay(0, &floor) >= Duration::from_millis(2),
            "observed p90 must override the floor"
        );
    }

    // -- selection: the straggler class and free-slot-first ---------------

    const FLOOR: Duration = Duration::from_millis(3);

    fn hedged(backends: Vec<Arc<dyn Backend>>) -> Router {
        Router::new(
            BackendRegistry::new(backends).unwrap(),
            RoutePolicy {
                hedge: Some(HedgeConfig::after(FLOOR)),
                ..RoutePolicy::default()
            },
        )
    }

    /// Feed backend `index`'s latency window as `n` answered calls would.
    fn observe(router: &Router, index: usize, latency: Duration, n: usize) {
        for _ in 0..n {
            router.core.states[index].on_success(latency);
        }
    }

    fn occupy(router: &Router, in_flight: [usize; 2]) {
        for (state, n) in router.core.states.iter().zip(in_flight) {
            state.in_flight.store(n, Ordering::Relaxed);
        }
    }

    #[test]
    fn primaries_go_to_the_backend_under_the_hedge_floor() {
        let (model, ids) = shared_model(80, 31);
        // The slow backend is the cheaper one: load and price alone would
        // make it every serial call's primary.
        let router = hedged(vec![
            Arc::new(
                SimBackend::new("slow", Arc::clone(&model))
                    .with_price_multiplier(0.5)
                    .with_latency(LatencyProfile::fixed(6_000)),
            ),
            Arc::new(
                SimBackend::new("fast", Arc::clone(&model))
                    .with_latency(LatencyProfile::fixed(1_000)),
            ),
        ]);
        assert_eq!(router.core.select(&[false; 2]), Some(0), "cold: cheapest");
        observe(&router, 0, Duration::from_millis(6), LATENCY_MIN_SAMPLES);
        observe(&router, 1, Duration::from_millis(1), LATENCY_MIN_SAMPLES);
        assert_eq!(
            router.core.select(&[false; 2]),
            Some(1),
            "warm: not the straggler"
        );

        let (serial, parallel) = ids.split_at(40);
        for id in serial {
            router.complete(&check(*id)).unwrap();
        }
        std::thread::scope(|scope| {
            for chunk in parallel.chunks(10) {
                let router = &router;
                scope.spawn(move || {
                    for id in chunk {
                        router.complete(&check(*id)).unwrap();
                    }
                });
            }
        });
        let stats = router.stats();
        let [slow, fast] = &stats.per_backend[..] else {
            panic!("two backends");
        };
        // Every primary went to the fast backend. The slow one is still in
        // the roster — it is where a twin or a retry goes — and saw nothing
        // else (a twin only launches here if the scheduler stalls a 1 ms
        // call past the 3 ms deadline).
        assert_eq!(fast.dispatches, ids.len() as u64 + stats.retries);
        assert_eq!(slow.dispatches, stats.hedges_launched);
        assert_eq!(fast.wins + slow.wins, ids.len() as u64);
        assert_eq!(slow.breaker_trips + fast.breaker_trips, 0);
    }

    #[test]
    fn a_backend_at_its_slots_ranks_behind_a_straggler_with_one_free() {
        const SLOTS: usize = 3;
        /// Holds every admitted call until the gate opens, and counts the
        /// over-slot arrivals a real provider would answer with a 429.
        struct Gated {
            id: &'static str,
            inner: Arc<dyn LanguageModel>,
            open: Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
            in_flight: AtomicUsize,
            admitted: AtomicUsize,
            over_slot: AtomicUsize,
        }
        impl Backend for Gated {
            fn id(&self) -> &str {
                self.id
            }
            fn tier(&self) -> &str {
                self.inner.name()
            }
            fn context_window(&self) -> u32 {
                self.inner.context_window()
            }
            fn pricing(&self) -> Pricing {
                self.inner.pricing()
            }
            fn slots(&self) -> usize {
                SLOTS
            }
            fn complete(
                &self,
                request: &CompletionRequest,
                _cancel: &CancelToken,
            ) -> Result<CompletionResponse, LlmError> {
                let concurrent = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                let result = if concurrent > SLOTS {
                    self.over_slot.fetch_add(1, Ordering::SeqCst);
                    Err(LlmError::RateLimited { retry_after_ms: 10 })
                } else {
                    self.admitted.fetch_add(1, Ordering::SeqCst);
                    let (lock, opened) = &*self.open;
                    let mut open = lock.lock().unwrap();
                    while !*open {
                        open = opened.wait(open).unwrap();
                    }
                    drop(open);
                    self.inner.complete(request)
                };
                self.in_flight.fetch_sub(1, Ordering::SeqCst);
                result
            }
        }

        let (model, ids) = shared_model(2 * SLOTS, 32);
        let open = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let gated = |id| {
            Arc::new(Gated {
                id,
                inner: Arc::clone(&model),
                open: Arc::clone(&open),
                in_flight: AtomicUsize::new(0),
                admitted: AtomicUsize::new(0),
                over_slot: AtomicUsize::new(0),
            })
        };
        let (fast, slow) = (gated("fast"), gated("slow"));
        let router = hedged(vec![
            Arc::clone(&fast) as Arc<dyn Backend>,
            Arc::clone(&slow) as Arc<dyn Backend>,
        ]);
        // Classes without real sleeps: `fast` has a 1 ms median under the
        // floor, `slow` a 10 s one past it — and both a 10 s p90, so no
        // hedge deadline passes while the gate is shut.
        let long = Duration::from_secs(10);
        observe(&router, 0, Duration::from_millis(1), 6);
        observe(&router, 0, long, 4);
        observe(&router, 1, long, 10);
        assert!(!router.core.states[0].straggles(FLOOR));
        assert!(router.core.states[1].straggles(FLOOR));

        // 2 x SLOTS calls in flight at once, arriving one at a time so each
        // selection sees the ones before it. A call that is refused (or
        // lost) stops the arrivals; the gate opens either way, so a failure
        // is an assertion below and not a hang.
        let parked = |backend: &Gated| backend.admitted.load(Ordering::SeqCst);
        let refused = |backend: &Gated| backend.over_slot.load(Ordering::SeqCst);
        std::thread::scope(|scope| {
            let patience = Instant::now() + Duration::from_secs(20);
            'arrivals: for (arrived, id) in ids.iter().enumerate() {
                let router = &router;
                scope.spawn(move || router.complete(&check(*id)).unwrap());
                while parked(&fast) + parked(&slow) <= arrived {
                    if refused(&fast) + refused(&slow) > 0 || Instant::now() > patience {
                        break 'arrivals;
                    }
                    std::thread::yield_now();
                }
            }
            *open.0.lock().unwrap() = true;
            open.1.notify_all();
        });
        let stats = router.stats();
        // The first SLOTS calls fill the fast backend; the rest go to the
        // straggler, which has slots free, instead of a 429 on the fast one.
        for (backend, stats) in [&fast, &slow].into_iter().zip(&stats.per_backend) {
            assert_eq!(refused(backend), 0, "{}: over-slot arrivals", stats.id);
            assert_eq!(parked(backend), SLOTS, "{}: calls admitted", stats.id);
            assert_eq!(stats.wins, SLOTS as u64);
            assert_eq!((stats.transient_failures, stats.breaker_trips), (0, 0));
        }
        assert_eq!((stats.retries, stats.hedges_launched), (0, 0));
    }

    #[test]
    fn a_spiked_backend_rejoins_once_its_median_is_back_under_the_floor() {
        use crate::backend::{FaultKind, FaultSchedule, FaultWindow};
        const SPIKED_CALLS: u64 = 12;
        // Far more requests than a quiet machine needs (about 25): a stalled
        // 0.4 ms answer is one more slow sample to outnumber.
        let (model, ids) = shared_model(400, 33);
        // `spiky`: cheap, 0.4 ms — but its first twelve arrivals take 10 ms.
        // `laggard`: a constant 20 ms, so it loses every race it is in and is
        // never measured; it is only here to be hedged away from.
        let router = hedged(vec![
            Arc::new(
                SimBackend::new("spiky", Arc::clone(&model))
                    .with_price_multiplier(0.5)
                    .with_latency(LatencyProfile::fixed(400))
                    .with_fault_schedule(FaultSchedule::new(vec![FaultWindow::new(
                        0,
                        SPIKED_CALLS,
                        FaultKind::LatencySpike { mult: 25.0 },
                    )])),
            ),
            Arc::new(
                SimBackend::new("laggard", Arc::clone(&model))
                    .with_latency(LatencyProfile::fixed(20_000)),
            ),
        ]);
        let preferred = || router.core.select(&[false; 2]);
        let mut demoted_at = None;
        let mut rejoined_at = None;
        for (call, id) in ids.iter().enumerate() {
            router.complete(&check(*id)).unwrap();
            match (demoted_at, preferred()) {
                (None, Some(1)) => demoted_at = Some(call),
                (Some(_), Some(0)) => {
                    rejoined_at = Some(call);
                    break;
                }
                _ => {}
            }
        }
        // Eight 10 ms answers put `spiky` in the straggler class; from then
        // on it is measured only as the laggard's twin, and once those
        // answers (0.4 ms after the window ends) outnumber the spiked ones
        // its median is under the floor and it is the primary again.
        let demoted_at = demoted_at.expect("the spiked backend was never demoted");
        let rejoined_at = rejoined_at.expect("the recovered backend never rejoined");
        assert!(
            demoted_at + 1 >= LATENCY_MIN_SAMPLES,
            "demoted on {demoted_at}"
        );
        assert!(rejoined_at > demoted_at + SPIKED_CALLS as usize - LATENCY_MIN_SAMPLES);
        assert!(!router.core.states[0].straggles(FLOOR));
    }

    #[test]
    fn where_the_class_cannot_decide_a_hedged_router_selects_as_an_unhedged_one() {
        let (model, _) = shared_model(1, 34);
        let roster = || -> Vec<Arc<dyn Backend>> {
            vec![
                Arc::new(SimBackend::new("first", Arc::clone(&model)).with_slots(2)),
                Arc::new(
                    SimBackend::new("cheaper", Arc::clone(&model))
                        .with_slots(3)
                        .with_price_multiplier(0.5),
                ),
            ]
        };
        let unhedged = Router::new(
            BackendRegistry::new(roster()).unwrap(),
            RoutePolicy::default(),
        );
        let slow = Duration::from_millis(50);
        // Cold: one sample short of a class on either backend, however slow.
        let cold = hedged(roster());
        observe(&cold, 0, slow, LATENCY_MIN_SAMPLES - 1);
        observe(&cold, 1, slow, LATENCY_MIN_SAMPLES - 1);
        // Both past the floor: the class is a tie.
        let both_straggle = hedged(roster());
        observe(&both_straggle, 0, slow, LATENCY_WINDOW);
        observe(&both_straggle, 1, slow * 2, LATENCY_WINDOW);
        // An unhedged router has no floor: a slow window changes nothing.
        observe(&unhedged, 0, slow, LATENCY_WINDOW);

        for first in 0..=3 {
            for cheaper in 0..=4 {
                for avoid in [[false, false], [true, false], [false, true]] {
                    occupy(&unhedged, [first, cheaper]);
                    let expected = unhedged.core.select(&avoid);
                    for (label, router) in [("cold", &cold), ("both straggle", &both_straggle)] {
                        occupy(router, [first, cheaper]);
                        assert_eq!(
                            router.core.select(&avoid),
                            expected,
                            "{label}: in flight {first}/2 and {cheaper}/3, avoid {avoid:?}"
                        );
                    }
                }
            }
        }

        // A lone backend is selected whatever its class or load.
        let lone = hedged(vec![Arc::new(
            SimBackend::new("only", Arc::clone(&model)).with_slots(1),
        )]);
        observe(&lone, 0, slow, LATENCY_WINDOW);
        lone.core.states[0].in_flight.store(1, Ordering::Relaxed);
        assert_eq!(lone.core.select(&[false]), Some(0));
    }

    #[test]
    fn lease_reserve_to_capacity_then_shed() {
        let table = LeaseTable::new(2);
        let a = table.reserve(0, 10).unwrap();
        let b = table.reserve(0, 10).unwrap();
        assert_ne!(a.slot(), b.slot());
        assert!(table.reserve(0, 10).is_none(), "saturated table must shed");
        assert_eq!(table.in_use(0), 2);
        table.release(&a);
        assert!(table.reserve(0, 10).is_some());
    }

    #[test]
    fn lease_unconfirmed_reservation_expires_and_is_reclaimed() {
        let table = LeaseTable::new(1);
        let stale = table.reserve(0, 5).unwrap();
        // Generation 5: the reservation's TTL has elapsed without a confirm.
        let fresh = table.reserve(5, 5).unwrap();
        assert_eq!(stale.slot(), fresh.slot(), "expired slot is reused");
        assert!(
            !table.confirm(&stale, 5, 5),
            "a reclaimed lease must fail confirmation"
        );
        assert!(table.confirm(&fresh, 5, 5));
        // Releasing the stale lease must not free the fresh holder's slot.
        table.release(&stale);
        assert_eq!(table.in_use(5), 1);
    }

    #[test]
    fn lease_confirm_renews_expiry() {
        let table = LeaseTable::new(1);
        let lease = table.reserve(0, 5).unwrap();
        assert!(table.confirm(&lease, 4, 5), "confirm within TTL succeeds");
        // Without the renewal the lease would expire at gen 5; confirm at
        // gen 4 pushed expiry to gen 9.
        assert_eq!(table.in_use(8), 1);
        assert!(table.reserve(8, 5).is_none());
        // A confirmed-but-stalled lease still expires eventually.
        assert_eq!(table.in_use(9), 0);
        assert!(table.reserve(9, 5).is_some());
    }

    #[test]
    fn lease_release_is_idempotent() {
        let table = LeaseTable::new(1);
        let lease = table.reserve(0, 5).unwrap();
        table.release(&lease);
        table.release(&lease);
        assert_eq!(table.in_use(0), 0);
        let next = table.reserve(0, 5).unwrap();
        table.release(&lease); // stale double-release must not evict `next`
        assert!(table.confirm(&next, 0, 5));
        assert_eq!(table.confirmed_in_use(0), 1);
    }

    #[test]
    fn router_total_slots_sums_roster() {
        let (model, _) = shared_model(4, 77);
        let backends: Vec<Arc<dyn Backend>> = vec![
            Arc::new(SimBackend::new("a", Arc::clone(&model)).with_slots(4)),
            Arc::new(SimBackend::new("b", Arc::clone(&model)).with_slots(2)),
            Arc::new(SimBackend::new("c", model)), // unbounded -> nominal 16
        ];
        let router = Router::new(
            BackendRegistry::new(backends).unwrap(),
            RoutePolicy::default(),
        );
        assert_eq!(router.total_slots(), 22);
    }
}
