//! Heterogeneous serving backends for one model tier.
//!
//! A production deployment of the paper's engine does not talk to "an LLM" —
//! it talks to several *backends* serving the same model: different
//! providers, regions, or reserved-capacity pools, each with its own latency
//! distribution, price multiplier, concurrency slots, and failure behaviour.
//! This module gives the simulator that shape:
//!
//! * [`Backend`] — the trait the router dispatches through: identity, tier,
//!   pricing, advertised slots, and a cancellable `complete`.
//! * [`SimBackend`] — wraps any [`LanguageModel`] (typically one shared
//!   [`crate::SimulatedLlm`], so every backend returns *identical answers*)
//!   with a transport layer: seeded latency injection with stragglers,
//!   slot-based rate limiting, transient-error/timeout injection, and a
//!   price multiplier applied to the inner model's billing schedule.
//! * [`BackendRegistry`] — a validated, ordered set of backends serving one
//!   tier, consumed by [`crate::route::Router`].
//!
//! Determinism: every latency and failure draw is a pure function of
//! `(backend seed, request fingerprint, sample index + attempt)`, so reruns reproduce
//! the same stragglers and the same transient failures — which is what makes
//! the routing layer's behaviour testable.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::error::LlmError;
use crate::hash;
use crate::model::NoiseProfile;
use crate::pricing::Pricing;
use crate::types::{CompletionRequest, CompletionResponse, LanguageModel};

/// Cooperative cancellation handle for an in-flight backend call.
///
/// Hedged dispatch hands every launched attempt its own token; when one
/// attempt wins, the loser's token is cancelled and a well-behaved backend
/// abandons its remaining work (the [`SimBackend`] latency sleep parks on
/// the token and is woken by [`CancelToken::cancel`]) and returns
/// [`LlmError::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<CancelState>);

/// The flag is what [`CancelToken::is_cancelled`] reads; the lock and
/// condvar exist so a sleeper can park until the flag is set instead of
/// polling it.
#[derive(Debug, Default)]
struct CancelState {
    cancelled: AtomicBool,
    parked: Mutex<()>,
    wake: Condvar,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Signal cancellation to the call holding this token, waking it if it
    /// is parked in a cancellable sleep.
    pub fn cancel(&self) {
        self.0.cancelled.store(true, Ordering::Release);
        // Taking the lock orders this store against a sleeper's check: it
        // either sees the flag before parking or is parked and notified.
        let _parked = self.0.parked.lock();
        self.0.wake.notify_all();
    }

    /// Whether cancellation has been signalled.
    pub fn is_cancelled(&self) -> bool {
        self.0.cancelled.load(Ordering::Acquire)
    }

    /// Sleep for `total` or until cancelled, whichever is first; returns
    /// `false` if cancelled.
    fn sleep(&self, total: Duration) -> bool {
        if total.is_zero() {
            return !self.is_cancelled();
        }
        let deadline = Instant::now() + total; // lint: allow(clock) — sleep deadline anchor
        let mut parked = self.0.parked.lock();
        loop {
            if self.is_cancelled() {
                return false;
            }
            let now = Instant::now(); // lint: allow(clock) — remaining sleep after a wake-up
            if now >= deadline {
                return true;
            }
            self.0.wake.wait_for(&mut parked, deadline - now);
        }
    }
}

/// Latency model of a simulated backend: a base per-call cost with
/// multiplicative jitter, plus an occasional straggler tail — the regime of
/// a real chat-completion API, where p50 and p99 differ by an order of
/// magnitude.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyProfile {
    /// Typical per-call latency, in microseconds.
    pub base_us: u64,
    /// Uniform multiplicative jitter around the base, as a fraction (e.g.
    /// `0.2` draws latencies in `[0.8, 1.2] × base`).
    pub jitter: f64,
    /// Probability a call is a straggler.
    pub tail_prob: f64,
    /// Straggler latency multiplier (applied to the jittered base).
    pub tail_mult: f64,
}

impl LatencyProfile {
    /// No injected latency at all (unit tests, parity baselines).
    pub const fn zero() -> Self {
        LatencyProfile {
            base_us: 0,
            jitter: 0.0,
            tail_prob: 0.0,
            tail_mult: 1.0,
        }
    }

    /// A fixed per-call latency with no jitter and no tail.
    pub const fn fixed(base_us: u64) -> Self {
        LatencyProfile {
            base_us,
            jitter: 0.0,
            tail_prob: 0.0,
            tail_mult: 1.0,
        }
    }

    /// A latency profile with a straggler tail: `tail_prob` of calls take
    /// `tail_mult × base_us`.
    pub const fn with_tail(base_us: u64, tail_prob: f64, tail_mult: f64) -> Self {
        LatencyProfile {
            base_us,
            jitter: 0.0,
            tail_prob,
            tail_mult,
        }
    }

    /// Draw this profile's latency for one `(request, attempt)` coordinate.
    fn draw(&self, rng: &mut TransportRng) -> Duration {
        if self.base_us == 0 {
            return Duration::ZERO;
        }
        let mut us = self.base_us as f64;
        if self.jitter > 0.0 {
            us *= 1.0 + self.jitter * (rng.get().random::<f64>() * 2.0 - 1.0);
        }
        if rng.roll(self.tail_prob) {
            us *= self.tail_mult.max(1.0);
        }
        Duration::from_micros(us.max(0.0) as u64)
    }
}

/// The fault regime a scripted window imposes on a backend.
///
/// Unlike the i.i.d. per-call draws of a [`NoiseProfile`], scripted faults
/// are *correlated*: every call inside the window suffers the same fate.
/// That is the failure shape that actually breaks batch pipelines — a
/// provider region going dark for minutes, a tenant-wide rate-limit storm,
/// a congested path inflating every latency — and the shape chaos tests
/// need to carve deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Every call in the window fails with [`LlmError::ServiceUnavailable`].
    Outage,
    /// Every call in the window is rejected with [`LlmError::RateLimited`]
    /// carrying this `Retry-After` hint.
    RateLimitStorm {
        /// The hint each rejected call carries, in milliseconds.
        retry_after_ms: u64,
    },
    /// Every call in the window serves normally but with its drawn latency
    /// multiplied (a congested path; multipliers below 1 are clamped to 1).
    LatencySpike {
        /// Latency multiplier applied to the profile's drawn latency.
        mult: f64,
    },
}

/// One scripted fault window: calls with arrival ordinal in
/// `[from_call, to_call)` on the owning backend suffer `kind`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// First affected call ordinal (0-based arrival count, inclusive).
    pub from_call: u64,
    /// First unaffected call ordinal (exclusive).
    pub to_call: u64,
    /// What happens to calls inside the window.
    pub kind: FaultKind,
}

impl FaultWindow {
    /// A window covering call ordinals `[from_call, to_call)`.
    pub const fn new(from_call: u64, to_call: u64, kind: FaultKind) -> Self {
        FaultWindow {
            from_call,
            to_call,
            kind,
        }
    }

    fn contains(&self, call: u64) -> bool {
        call >= self.from_call && call < self.to_call
    }
}

/// A deterministic scripted fault schedule over a backend's call arrivals.
///
/// The backend counts arrivals (its "call ordinal"); each call is checked
/// against the windows in order and the first match decides its fate. With
/// serial dispatch the ordinal is exactly the arrival index, making chaos
/// scenarios like "backend A dead for calls 100..200" fully reproducible.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    windows: Vec<FaultWindow>,
}

impl FaultSchedule {
    /// A schedule from explicit windows (first matching window wins).
    pub fn new(windows: Vec<FaultWindow>) -> Self {
        FaultSchedule { windows }
    }

    /// The schedule's windows, in priority order.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// Whether the schedule has no windows at all.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The fault (if any) governing the call with this arrival ordinal.
    fn fault_for(&self, call: u64) -> Option<FaultKind> {
        self.windows
            .iter()
            .find(|w| w.contains(call))
            .map(|w| w.kind)
    }
}

/// One serving backend for a model tier.
///
/// Object safe; the router holds `Arc<dyn Backend>`. Implementations must
/// be cheap to call concurrently — the router runs a call on its caller's
/// thread and a hedged duplicate on a thread of its own.
pub trait Backend: Send + Sync {
    /// Stable backend identifier, unique within a registry (e.g.
    /// `"us-east"`, `"provider-b"`).
    fn id(&self) -> &str;
    /// The model tier this backend serves (the underlying model name).
    /// Backends in one registry must agree on this.
    fn tier(&self) -> &str;
    /// The backend's context window (the tier minimum is what the engine
    /// sees through the router).
    fn context_window(&self) -> u32;
    /// This backend's billing schedule (the tier pricing with any
    /// per-backend multiplier already applied).
    fn pricing(&self) -> Pricing;
    /// Advertised concurrency slots (`0` = unbounded). The router's
    /// least-loaded selection normalizes in-flight load by this.
    fn slots(&self) -> usize;
    /// Execute one completion. `cancel` is cooperative: an implementation
    /// should abandon work and return [`LlmError::Cancelled`] promptly once
    /// the token fires, but is free to ignore it.
    fn complete(
        &self,
        request: &CompletionRequest,
        cancel: &CancelToken,
    ) -> Result<CompletionResponse, LlmError>;
}

/// A simulated serving backend over any [`LanguageModel`].
///
/// Layers transport behaviour on top of the wrapped model:
///
/// * **Latency** — seeded draws from a [`LatencyProfile`], slept as one
///   timed wait on the call's [`CancelToken`], so a hedged loser wakes the
///   moment it is cancelled.
/// * **Slots** — at most [`Backend::slots`] calls in flight; excess calls
///   fail immediately with [`LlmError::RateLimited`] (a provider 429).
/// * **Transient failures** — `rate_limit_prob` / `unavailable_prob` /
///   `timeout_prob` draws from a [`NoiseProfile`]'s transport fields, keyed
///   by the backend seed so two backends over the same model fail
///   independently. Timeouts burn the full straggler latency before
///   failing.
/// * **Pricing** — the inner model's schedule scaled by a price
///   multiplier; responses carry the scaled schedule in
///   [`CompletionResponse::pricing`].
///
/// Answers (and token usage) come from the inner model unchanged, so
/// backends sharing one simulator return bit-identical completions.
pub struct SimBackend {
    id: String,
    inner: Arc<dyn LanguageModel>,
    latency: LatencyProfile,
    price_multiplier: f64,
    slots: usize,
    transport: NoiseProfile,
    seed: u64,
    schedule: FaultSchedule,
    in_flight: AtomicUsize,
    calls_seen: AtomicU64,
}

impl SimBackend {
    /// A transparent backend over `model`: zero latency, multiplier 1,
    /// unbounded slots, no injected failures. Routing through a registry of
    /// exactly one such backend is bit-identical to calling `model`
    /// directly.
    pub fn new(id: impl Into<String>, model: Arc<dyn LanguageModel>) -> Self {
        SimBackend {
            id: id.into(),
            inner: model,
            latency: LatencyProfile::zero(),
            price_multiplier: 1.0,
            slots: 0,
            transport: NoiseProfile::perfect(),
            seed: 0,
            schedule: FaultSchedule::default(),
            in_flight: AtomicUsize::new(0),
            calls_seen: AtomicU64::new(0),
        }
    }

    /// Set the latency profile (builder style).
    #[must_use]
    pub fn with_latency(mut self, latency: LatencyProfile) -> Self {
        self.latency = latency;
        self
    }

    /// Set the price multiplier applied to the inner model's schedule
    /// (builder style).
    #[must_use]
    pub fn with_price_multiplier(mut self, multiplier: f64) -> Self {
        self.price_multiplier = multiplier.max(0.0);
        self
    }

    /// Set advertised concurrency slots; `0` = unbounded (builder style).
    #[must_use]
    pub fn with_slots(mut self, slots: usize) -> Self {
        self.slots = slots;
        self
    }

    /// Set the transport-failure profile (builder style). Only the
    /// transport fields — `rate_limit_prob`, `unavailable_prob`,
    /// `timeout_prob` — are consulted; answer noise stays with the inner
    /// model.
    #[must_use]
    pub fn with_transport_noise(mut self, noise: NoiseProfile) -> Self {
        self.transport = noise;
        self
    }

    /// Set the seed driving this backend's latency and failure draws
    /// (builder style). Distinct seeds make backends fail independently.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set a scripted fault schedule keyed by call arrival ordinal
    /// (builder style). Scripted windows are checked before the i.i.d.
    /// transport draws, so a schedule composes with (and overrides inside
    /// its windows) any configured [`NoiseProfile`].
    #[must_use]
    pub fn with_fault_schedule(mut self, schedule: FaultSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Calls that have arrived at this backend so far (its fault-schedule
    /// clock). Chaos and resume tests assert against this to prove work
    /// did — or did not — reach the backend.
    pub fn calls_seen(&self) -> u64 {
        self.calls_seen.load(Ordering::Acquire)
    }

    fn transport_rng<'a>(&self, request: &'a CompletionRequest, tag: &'a str) -> TransportRng<'a> {
        TransportRng {
            seed: self.seed,
            request,
            tag,
            rng: None,
        }
    }
}

/// One call's transport draws, seeded by the first draw that reads them: a
/// transparent backend (fixed latency, perfect transport) reads none, and
/// should not hash the whole prompt into a seed nothing consumes.
struct TransportRng<'a> {
    seed: u64,
    request: &'a CompletionRequest,
    tag: &'a str,
    rng: Option<ChaCha8Rng>,
}

impl TransportRng<'_> {
    fn get(&mut self) -> &mut ChaCha8Rng {
        self.rng.get_or_insert_with(|| {
            // Folds the sample index in explicitly (temperature-0
            // fingerprints exclude it) advanced by the attempt (which no
            // fingerprint includes), so each routing attempt re-rolls its
            // transport fate and never its answer.
            let key = hash::combine(
                self.seed,
                hash::combine(
                    self.request.fingerprint(),
                    hash::combine(hash::fnv1a_str(self.tag), self.request.transport_draw()),
                ),
            );
            ChaCha8Rng::seed_from_u64(key)
        })
    }

    /// One Bernoulli draw; a non-positive probability draws nothing.
    fn roll(&mut self, prob: f64) -> bool {
        prob > 0.0 && self.get().random_bool(prob.clamp(0.0, 1.0))
    }
}

/// RAII in-flight slot: decrements on every exit path.
struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Backend for SimBackend {
    fn id(&self) -> &str {
        &self.id
    }

    fn tier(&self) -> &str {
        self.inner.name()
    }

    fn context_window(&self) -> u32 {
        self.inner.context_window()
    }

    fn pricing(&self) -> Pricing {
        let base = self.inner.pricing();
        Pricing::new(
            base.usd_per_1k_input * self.price_multiplier,
            base.usd_per_1k_output * self.price_multiplier,
        )
    }

    fn slots(&self) -> usize {
        self.slots
    }

    fn complete(
        &self,
        request: &CompletionRequest,
        cancel: &CancelToken,
    ) -> Result<CompletionResponse, LlmError> {
        // Every arrival ticks the fault-schedule clock, including calls a
        // full backend is about to 429 — an outage window covers *arrivals*.
        let call = self.calls_seen.fetch_add(1, Ordering::AcqRel);
        // Slot admission: a full backend answers 429 immediately, like a
        // provider rejecting over-limit traffic at the edge.
        let concurrent = self.in_flight.fetch_add(1, Ordering::AcqRel) + 1;
        let _guard = InFlightGuard(&self.in_flight);
        if self.slots > 0 && concurrent > self.slots {
            return Err(LlmError::RateLimited { retry_after_ms: 10 });
        }

        // Scripted faults trump the i.i.d. transport draws inside their
        // windows: the schedule is the experiment, the noise is background.
        let mut latency_mult = 1.0;
        match self.schedule.fault_for(call) {
            Some(FaultKind::Outage) => return Err(LlmError::ServiceUnavailable),
            Some(FaultKind::RateLimitStorm { retry_after_ms }) => {
                return Err(LlmError::RateLimited { retry_after_ms })
            }
            Some(FaultKind::LatencySpike { mult }) => latency_mult = mult.max(1.0),
            None => {}
        }

        let mut rng = self.transport_rng(request, "backend-transport");
        let latency = self.latency.draw(&mut rng).mul_f64(latency_mult);

        // Timeouts hang for a full straggler duration (base × tail_mult,
        // or the drawn latency if that came out longer) before failing —
        // the expensive failure mode hedging is designed around.
        if rng.roll(self.transport.timeout_prob) {
            let straggler = Duration::from_micros(
                (self.latency.base_us as f64 * self.latency.tail_mult.max(1.0)) as u64,
            );
            let hang = latency.max(straggler);
            if !cancel.sleep(hang) {
                return Err(LlmError::Cancelled);
            }
            return Err(LlmError::Timeout {
                elapsed_ms: hang.as_millis() as u64,
            });
        }
        // Fast-fail transient errors (the provider rejects before serving).
        if rng.roll(self.transport.rate_limit_prob) {
            return Err(LlmError::RateLimited { retry_after_ms: 50 });
        }
        if rng.roll(self.transport.unavailable_prob) {
            return Err(LlmError::ServiceUnavailable);
        }

        if !cancel.sleep(latency) {
            return Err(LlmError::Cancelled);
        }
        let mut response = self.inner.complete(request)?;
        response.pricing = self.pricing();
        Ok(response)
    }
}

/// A validated, ordered set of backends serving one model tier.
#[derive(Clone)]
pub struct BackendRegistry {
    backends: Vec<Arc<dyn Backend>>,
    tier: String,
}

impl BackendRegistry {
    /// Build a registry. Fails with [`LlmError::InvalidRequest`] when the
    /// set is empty, two backends share an id, or the backends disagree on
    /// the model tier they serve.
    pub fn new(backends: Vec<Arc<dyn Backend>>) -> Result<Self, LlmError> {
        let Some(first) = backends.first() else {
            return Err(LlmError::InvalidRequest(
                "backend registry requires at least one backend".into(),
            ));
        };
        let tier = first.tier().to_owned();
        for (i, backend) in backends.iter().enumerate() {
            if backend.tier() != tier {
                return Err(LlmError::InvalidRequest(format!(
                    "backend '{}' serves tier '{}' but the registry serves '{}'",
                    backend.id(),
                    backend.tier(),
                    tier
                )));
            }
            if backends[..i].iter().any(|b| b.id() == backend.id()) {
                return Err(LlmError::InvalidRequest(format!(
                    "duplicate backend id '{}'",
                    backend.id()
                )));
            }
        }
        Ok(BackendRegistry { backends, tier })
    }

    /// A registry of exactly one transparent backend over `model` — the
    /// parity configuration whose routed results are bit-identical to
    /// calling `model` directly.
    pub fn single(model: Arc<dyn LanguageModel>) -> Self {
        let backend: Arc<dyn Backend> = Arc::new(SimBackend::new("default", model));
        // lint: allow(no-unwrap) — invariant: one-element roster passes validation
        BackendRegistry::new(vec![backend]).expect("one transparent backend is always valid")
    }

    /// The model tier every backend in this registry serves.
    pub fn tier(&self) -> &str {
        &self.tier
    }

    /// Number of backends.
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// Whether the registry is empty (never true for a constructed one).
    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// The backends, in registration order.
    pub fn backends(&self) -> &[Arc<dyn Backend>] {
        &self.backends
    }

    /// Look up a backend by id.
    pub fn by_id(&self, id: &str) -> Option<&Arc<dyn Backend>> {
        self.backends.iter().find(|b| b.id() == id)
    }

    /// The smallest context window across backends — the conservative
    /// window the engine plans prompts against.
    pub fn min_context_window(&self) -> u32 {
        self.backends
            .iter()
            .map(|b| b.context_window())
            .min()
            .unwrap_or(0)
    }

    /// Index of the cheapest backend (by summed per-1k rates) — the
    /// reference pricing for planner estimates.
    pub fn cheapest(&self) -> usize {
        let rate = |p: Pricing| p.usd_per_1k_input + p.usd_per_1k_output;
        self.backends
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| rate(a.pricing()).total_cmp(&rate(b.pricing())))
            .map_or(0, |(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelProfile;
    use crate::sim::SimulatedLlm;
    use crate::task::TaskDescriptor;
    use crate::world::WorldModel;

    fn sim_model(seed: u64) -> Arc<dyn LanguageModel> {
        let mut w = WorldModel::new();
        let id = w.add_item("item zero");
        w.set_flag(id, "p", true);
        Arc::new(SimulatedLlm::new(
            ModelProfile::gpt35_like(),
            Arc::new(w),
            seed,
        ))
    }

    fn req() -> CompletionRequest {
        CompletionRequest::new(
            "Does item 0 satisfy p?",
            TaskDescriptor::CheckPredicate {
                item: crate::world::ItemId(0),
                predicate: "p".into(),
            },
        )
    }

    #[test]
    fn transparent_backend_matches_model() {
        let model = sim_model(3);
        let direct = model.complete(&req()).unwrap();
        let backend = SimBackend::new("a", Arc::clone(&model));
        let routed = backend.complete(&req(), &CancelToken::new()).unwrap();
        assert_eq!(direct, routed);
        assert_eq!(routed.pricing, model.pricing());
    }

    #[test]
    fn price_multiplier_scales_response_pricing() {
        let model = sim_model(3);
        let backend = SimBackend::new("b", Arc::clone(&model)).with_price_multiplier(2.5);
        let resp = backend.complete(&req(), &CancelToken::new()).unwrap();
        let base = model.pricing();
        assert!((resp.pricing.usd_per_1k_input - base.usd_per_1k_input * 2.5).abs() < 1e-12);
        assert!((resp.pricing.usd_per_1k_output - base.usd_per_1k_output * 2.5).abs() < 1e-12);
    }

    #[test]
    fn latency_draw_is_deterministic_per_request() {
        let profile = LatencyProfile {
            base_us: 1000,
            jitter: 0.3,
            tail_prob: 0.1,
            tail_mult: 10.0,
        };
        let backend = SimBackend::new("c", sim_model(1))
            .with_latency(LatencyProfile::zero())
            .with_seed(9);
        let a = profile.draw(&mut backend.transport_rng(&req(), "latency"));
        let b = profile.draw(&mut backend.transport_rng(&req(), "latency"));
        assert_eq!(a, b, "same coordinates draw the same latency");
    }

    #[test]
    fn transient_failures_injected_per_backend_seed() {
        let model = sim_model(2);
        let flaky = SimBackend::new("flaky", Arc::clone(&model))
            .with_transport_noise(NoiseProfile {
                unavailable_prob: 1.0,
                ..NoiseProfile::perfect()
            })
            .with_seed(4);
        let steady = SimBackend::new("steady", model).with_seed(5);
        assert!(matches!(
            flaky.complete(&req(), &CancelToken::new()),
            Err(LlmError::ServiceUnavailable)
        ));
        assert!(steady.complete(&req(), &CancelToken::new()).is_ok());
    }

    #[test]
    fn timeout_burns_latency_then_fails_retryably() {
        let backend = SimBackend::new("t", sim_model(2))
            .with_latency(LatencyProfile::fixed(500))
            .with_transport_noise(NoiseProfile {
                timeout_prob: 1.0,
                ..NoiseProfile::perfect()
            });
        let started = Instant::now();
        let err = backend.complete(&req(), &CancelToken::new()).unwrap_err();
        assert!(err.is_retryable());
        assert!(matches!(err, LlmError::Timeout { .. }));
        assert!(started.elapsed() >= Duration::from_micros(500));
    }

    #[test]
    fn timeout_hang_is_one_straggler_duration() {
        // base 1 ms, tail 10x: a timeout must hang ~10 ms (one straggler),
        // not tail_mult x an already-tailed draw (which would be 100 ms).
        let backend = SimBackend::new("tt", sim_model(2))
            .with_latency(LatencyProfile::with_tail(1_000, 1.0, 10.0))
            .with_transport_noise(NoiseProfile {
                timeout_prob: 1.0,
                ..NoiseProfile::perfect()
            });
        let started = Instant::now();
        let err = backend.complete(&req(), &CancelToken::new()).unwrap_err();
        let elapsed = started.elapsed();
        assert!(matches!(err, LlmError::Timeout { .. }));
        assert!(
            elapsed >= Duration::from_millis(10),
            "hangs a full straggler"
        );
        assert!(
            elapsed < Duration::from_millis(60),
            "must not compound the tail multiplier: {elapsed:?}"
        );
    }

    #[test]
    fn cancellation_aborts_latency_sleep() {
        let backend = Arc::new(
            SimBackend::new("slow", sim_model(2)).with_latency(LatencyProfile::fixed(1_000_000)),
        );
        let cancel = CancelToken::new();
        let handle = {
            let backend = Arc::clone(&backend);
            let cancel = cancel.clone();
            std::thread::spawn(move || backend.complete(&req(), &cancel))
        };
        std::thread::sleep(Duration::from_millis(2));
        let started = Instant::now();
        cancel.cancel();
        let result = handle.join().unwrap();
        assert!(matches!(result, Err(LlmError::Cancelled)));
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "cancel must cut the 1 s sleep short"
        );
    }

    #[test]
    fn slots_reject_excess_concurrency() {
        let backend = Arc::new(
            SimBackend::new("small", sim_model(2))
                .with_latency(LatencyProfile::fixed(200_000))
                .with_slots(1),
        );
        let first = {
            let backend = Arc::clone(&backend);
            std::thread::spawn(move || backend.complete(&req(), &CancelToken::new()))
        };
        // Wait until the first call occupies the slot.
        while backend.in_flight.load(Ordering::Acquire) == 0 {
            std::thread::sleep(Duration::from_micros(100));
        }
        let second = backend.complete(&req(), &CancelToken::new());
        assert!(matches!(second, Err(LlmError::RateLimited { .. })));
        assert!(first.join().unwrap().is_ok());
        // Slot released: a fresh call succeeds.
        assert!(backend.complete(&req(), &CancelToken::new()).is_ok());
    }

    #[test]
    fn fault_schedule_windows_apply_by_call_ordinal() {
        let backend = SimBackend::new("scripted", sim_model(2)).with_fault_schedule(
            FaultSchedule::new(vec![FaultWindow::new(1, 3, FaultKind::Outage)]),
        );
        let cancel = CancelToken::new();
        assert!(backend.complete(&req(), &cancel).is_ok(), "call 0 is clean");
        assert!(matches!(
            backend.complete(&req(), &cancel),
            Err(LlmError::ServiceUnavailable)
        ));
        assert!(matches!(
            backend.complete(&req(), &cancel),
            Err(LlmError::ServiceUnavailable)
        ));
        assert!(
            backend.complete(&req(), &cancel).is_ok(),
            "call 3 is past the window"
        );
        assert_eq!(backend.calls_seen(), 4);
    }

    #[test]
    fn rate_limit_storm_carries_its_hint() {
        let backend =
            SimBackend::new("stormy", sim_model(2)).with_fault_schedule(FaultSchedule::new(vec![
                FaultWindow::new(0, 1, FaultKind::RateLimitStorm { retry_after_ms: 77 }),
            ]));
        match backend.complete(&req(), &CancelToken::new()) {
            Err(LlmError::RateLimited { retry_after_ms }) => assert_eq!(retry_after_ms, 77),
            other => panic!("expected storm 429, got {other:?}"),
        }
    }

    #[test]
    fn latency_spike_inflates_the_drawn_latency() {
        let backend = SimBackend::new("spiky", sim_model(2))
            .with_latency(LatencyProfile::fixed(500))
            .with_fault_schedule(FaultSchedule::new(vec![FaultWindow::new(
                0,
                1,
                FaultKind::LatencySpike { mult: 20.0 },
            )]));
        let started = Instant::now();
        backend.complete(&req(), &CancelToken::new()).unwrap();
        assert!(
            started.elapsed() >= Duration::from_millis(10),
            "spiked call must sleep 20 x 500 us"
        );
        // The next call is outside the window: back to the plain 500 us.
        let started = Instant::now();
        backend.complete(&req(), &CancelToken::new()).unwrap();
        assert!(started.elapsed() < Duration::from_millis(10));
    }

    #[test]
    fn registry_validation() {
        let model = sim_model(1);
        assert!(BackendRegistry::new(Vec::new()).is_err());
        let dup: Vec<Arc<dyn Backend>> = vec![
            Arc::new(SimBackend::new("x", Arc::clone(&model))),
            Arc::new(SimBackend::new("x", Arc::clone(&model))),
        ];
        assert!(BackendRegistry::new(dup).is_err());
        let other_tier: Arc<dyn LanguageModel> = {
            let mut w = WorldModel::new();
            w.add_item("y");
            Arc::new(SimulatedLlm::new(ModelProfile::perfect(), Arc::new(w), 1))
        };
        let mixed: Vec<Arc<dyn Backend>> = vec![
            Arc::new(SimBackend::new("a", Arc::clone(&model))),
            Arc::new(SimBackend::new("b", other_tier)),
        ];
        assert!(BackendRegistry::new(mixed).is_err());
        let ok = BackendRegistry::single(model);
        assert_eq!(ok.len(), 1);
        assert_eq!(ok.tier(), "sim-gpt-3.5-turbo");
    }

    #[test]
    fn registry_cheapest_and_window() {
        let model = sim_model(1);
        let backends: Vec<Arc<dyn Backend>> = vec![
            Arc::new(SimBackend::new("pricey", Arc::clone(&model)).with_price_multiplier(2.0)),
            Arc::new(SimBackend::new("cheap", Arc::clone(&model)).with_price_multiplier(0.5)),
        ];
        let registry = BackendRegistry::new(backends).unwrap();
        assert_eq!(registry.cheapest(), 1);
        assert_eq!(registry.min_context_window(), model.context_window());
        assert!(registry.by_id("pricey").is_some());
        assert!(registry.by_id("absent").is_none());
    }
}
