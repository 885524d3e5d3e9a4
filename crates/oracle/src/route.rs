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
//!    pick the least-loaded (in-flight ÷ advertised slots), tie-broken by
//!    cheapest pricing, then registration order.
//! 2. **Hedging** (optional) — if the primary has not answered within a
//!    p9x-based delay (`max(hedge floor, observed p⟨percentile⟩ latency)`),
//!    duplicate the request onto the next-best backend; first success wins
//!    and the loser is cancelled through its [`CancelToken`].
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

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
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
        let window = self.latencies_us.lock();
        if window.len() < LATENCY_MIN_SAMPLES {
            return None;
        }
        let mut sorted: Vec<u64> = window.iter().copied().collect();
        sorted.sort_unstable();
        let rank = ((sorted.len() - 1) as f64 * percentile.clamp(0.0, 1.0)).round() as usize;
        Some(Duration::from_micros(sorted[rank]))
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

/// A failure-aware, optionally hedging dispatcher over a backend registry.
///
/// Implements [`LanguageModel`] — it is what [`crate::LlmClient::model`]
/// hands out — and every [`crate::LlmClient`] dispatches through one: the
/// client's cache, coalescing, ledger, and budget accounting all operate on
/// the single response the router returns per logical request.
pub struct Router {
    registry: BackendRegistry,
    policy: RoutePolicy,
    states: Vec<Arc<BackendState>>,
    tier: String,
    reference_pricing: Pricing,
    min_context: u32,
    retries: AtomicU64,
    hedges_launched: AtomicU64,
    hedges_won: AtomicU64,
}

impl Router {
    /// Build a router over `registry` with the given policy.
    pub fn new(registry: BackendRegistry, policy: RoutePolicy) -> Self {
        let states = registry
            .backends()
            .iter()
            .map(|b| Arc::new(BackendState::new(Arc::clone(b))))
            .collect();
        let cheapest = registry.cheapest();
        Router {
            tier: registry.tier().to_owned(),
            reference_pricing: registry.backends()[cheapest].pricing(),
            min_context: registry.min_context_window(),
            registry,
            policy,
            states,
            retries: AtomicU64::new(0),
            hedges_launched: AtomicU64::new(0),
            hedges_won: AtomicU64::new(0),
        }
    }

    /// The backend registry this router dispatches over.
    pub fn registry(&self) -> &BackendRegistry {
        &self.registry
    }

    /// The dispatch policy.
    pub fn policy(&self) -> &RoutePolicy {
        &self.policy
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
            hedges_launched: self.hedges_launched.load(Ordering::Relaxed),
            hedges_won: self.hedges_won.load(Ordering::Relaxed),
            per_backend: self
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

    /// Least-loaded / cheapest-eligible selection among breaker-admitted
    /// backends not in `avoid`.
    ///
    /// Eligibility checks are side-effect free; the half-open probe slot of
    /// an open-but-cooled breaker is claimed only for the backend actually
    /// chosen (a losing candidate keeps its probe available for later).
    fn select(&self, avoid: &[bool]) -> Option<usize> {
        // Lost probe races are excluded locally and selection retried, so
        // the loop terminates after at most `states.len()` rounds.
        let mut race_lost = vec![false; self.states.len()];
        loop {
            let now = Instant::now(); // lint: allow(clock) — selection loop tick
            let mut best: Option<(f64, f64, usize, Eligibility)> = None;
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
                let load = state.in_flight.load(Ordering::Relaxed) as f64 / capacity as f64;
                let pricing = state.backend.pricing();
                let rate = pricing.usd_per_1k_input + pricing.usd_per_1k_output;
                let better = match &best {
                    None => true,
                    Some((bl, br, _, _)) => load < *bl || (load == *bl && rate < *br),
                };
                if better {
                    best = Some((load, rate, i, eligibility));
                }
            }
            let (_, _, index, eligibility) = best?;
            if eligibility == Eligibility::Closed || self.states[index].try_claim_probe(now) {
                return Some(index);
            }
            // Another thread won this backend's probe between the check and
            // the claim; drop it from this round and re-select.
            race_lost[index] = true;
        }
    }

    /// Spawn one attempt on backend `index`, reporting into `tx`. The
    /// thread is detached: a hedge loser keeps running (until its cancel
    /// token stops it) without blocking the winner's return, and its
    /// breaker/latency bookkeeping still lands via [`BackendState`].
    fn spawn_attempt(
        &self,
        index: usize,
        request: CompletionRequest,
        tx: mpsc::Sender<(usize, Result<CompletionResponse, LlmError>)>,
        cancel: CancelToken,
    ) {
        let state = Arc::clone(&self.states[index]);
        let breaker = self.policy.breaker;
        std::thread::spawn(move || {
            let result = state.execute(&breaker, &request, &cancel);
            let _ = tx.send((index, result));
        });
    }

    /// The effective hedge delay for a primary backend: the adaptive p9x
    /// trigger once history exists, floored by the configured delay.
    fn hedge_delay(&self, primary: usize, config: &HedgeConfig) -> Duration {
        match self.states[primary].latency_percentile(config.percentile) {
            Some(observed) if observed > config.after => observed,
            _ => config.after,
        }
    }

    /// Dispatch with hedging: launch the primary, duplicate onto the
    /// next-best backend if the primary straggles past the hedge delay,
    /// first success wins, loser cancelled.
    ///
    /// A secondary that *failed* is marked in `avoid`, so the caller's
    /// retry loop skips both halves of a fully-failed hedge rather than
    /// re-selecting the backend that just failed this request.
    fn dispatch_hedged(
        &self,
        primary: usize,
        request: &CompletionRequest,
        config: &HedgeConfig,
        avoid: &mut [bool],
    ) -> Result<CompletionResponse, LlmError> {
        let (tx, rx) = mpsc::channel();
        let cancel_primary = CancelToken::new();
        // Every wait below stalls for backend-scale time; no shim lock may
        // span it (enforced by the lock_diagnostics build).
        parking_lot::blocking_region("hedged dispatch wait");
        self.spawn_attempt(primary, request.clone(), tx.clone(), cancel_primary.clone());
        match rx.recv_timeout(self.hedge_delay(primary, config)) {
            Ok((index, result)) => {
                if result.is_ok() {
                    self.states[index].wins.fetch_add(1, Ordering::Relaxed);
                }
                return result;
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                unreachable!("attempt thread always sends before exiting")
            }
        }
        // The primary is a straggler. Hedge onto the next-best distinct
        // backend, if any; otherwise just keep waiting.
        let mut avoid_primary = avoid.to_vec();
        avoid_primary[primary] = true;
        let Some(secondary) = self.select(&avoid_primary) else {
            // Dropping our sender means a panicking custom backend (its
            // thread dies without reporting) surfaces as a disconnect
            // instead of deadlocking this recv forever.
            drop(tx);
            let Ok((index, result)) = rx.recv() else {
                return Err(LlmError::ServiceUnavailable);
            };
            if result.is_ok() {
                self.states[index].wins.fetch_add(1, Ordering::Relaxed);
            }
            return result;
        };
        self.hedges_launched.fetch_add(1, Ordering::Relaxed);
        let cancel_secondary = CancelToken::new();
        self.spawn_attempt(
            secondary,
            request.clone(),
            tx.clone(),
            cancel_secondary.clone(),
        );
        // As above: only the attempt threads hold senders now, so if every
        // remaining attempt panics the recv below disconnects rather than
        // hanging the caller.
        drop(tx);
        let mut first_error: Option<LlmError> = None;
        for remaining in (0..2u32).rev() {
            let Ok((index, result)) = rx.recv() else {
                return Err(first_error.unwrap_or(LlmError::ServiceUnavailable));
            };
            match result {
                Ok(response) => {
                    // First success wins; the twin is cancelled and its
                    // eventual (discarded) result never reaches the caller
                    // — or the ledger.
                    if index == primary {
                        cancel_secondary.cancel();
                    } else {
                        cancel_primary.cancel();
                        self.hedges_won.fetch_add(1, Ordering::Relaxed);
                    }
                    self.states[index].wins.fetch_add(1, Ordering::Relaxed);
                    return Ok(response);
                }
                Err(error) => {
                    if index != primary {
                        avoid[index] = true;
                    }
                    if remaining == 0 {
                        // Both attempts failed. Prefer a non-retryable
                        // error: it is request-level and deterministic, and
                        // surfacing a transient twin instead would send the
                        // caller's retry loop chasing a request that can
                        // only hard-fail.
                        return Err(match first_error {
                            Some(first) if !error.is_retryable() && first.is_retryable() => error,
                            Some(first) => first,
                            None => error,
                        });
                    }
                    first_error = Some(error);
                }
            }
        }
        unreachable!("loop returns on the second result")
    }

    /// Milliseconds until the earliest breaker would admit a half-open
    /// probe: `0` if any backend's breaker is closed or already cooled
    /// down, else the shortest remaining cooldown. Feeds
    /// [`LlmError::CircuitOpen::retry_in_ms`] so callers can schedule a
    /// retry for when it can actually succeed.
    fn earliest_probe_in_ms(&self, now: Instant) -> u64 {
        self.states
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
        let state = &self.states[index];
        let result = state.execute(&self.policy.breaker, request, &CancelToken::new());
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
        let max_attempts = self.policy.max_retries.saturating_add(1);
        let mut attempt = 0u32;
        let mut avoid = vec![false; self.states.len()];
        loop {
            let primary = match self.select(&avoid) {
                Some(index) => index,
                None => {
                    // Everything admitted has already failed this request:
                    // lift the avoidance and try whoever the breakers still
                    // allow. If nothing is admitted at all, the tier is down.
                    if avoid.iter().any(|&a| a) {
                        avoid.iter_mut().for_each(|a| *a = false);
                    }
                    match self.select(&avoid) {
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
            // real retry hits a different server moment; temperature-0
            // fingerprints ignore the sample index, so caching and answer
            // draws are unaffected.
            let mut attempt_request = request.clone();
            attempt_request.sample_index = request.sample_index.wrapping_add(attempt);
            let result = match &self.policy.hedge {
                Some(config) => self.dispatch_hedged(primary, &attempt_request, config, &mut avoid),
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
                        self.policy.backoff_ms,
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
        assert_eq!(router.hedge_delay(0, &floor), Duration::from_micros(100));
        for id in &ids {
            router.complete(&check(*id)).unwrap();
        }
        assert!(
            router.hedge_delay(0, &floor) >= Duration::from_millis(2),
            "observed p90 must override the floor"
        );
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
