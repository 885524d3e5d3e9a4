//! Multi-tenant serving front end: admission control, fair-share
//! scheduling, and leased backend-slot quotas over one shared engine.
//!
//! Every layer below this one optimizes a single session at a time. A
//! [`Server`] runs many concurrent tenant workloads against one shared
//! [`Engine`]/router stack. It owns *admission* and nothing else; the work
//! runs on the engine's one worker loop, through a handle that scopes the
//! shared engine to a tenant:
//!
//! 1. **Admission control** — each submit is checked against the tenant's
//!    token-bucket rate limit and USD/token budget *before* any work is
//!    queued. A zero-budget tenant is rejected with no backend call billed;
//!    a bucket overdraft sheds load with [`ServeError::RetryAfter`] and a
//!    computed hint instead of queueing unboundedly.
//! 2. **Weighted fair-share scheduling** — the handle's feed is the
//!    tenant's lane of one [`FairFeed`], claimed in deficit-round-robin
//!    order, so tenants complete work in proportion to their
//!    [`TenantSpec::with_weight`]s regardless of who submitted first or most.
//!    The share is over the work that needs a backend slot: a task whose
//!    answer is already cached is answered by the thread that submitted it,
//!    before the batch is queued, and never enters the feed.
//! 3. **Leased slot quotas** — the handle's gate is the server's
//!    [`LeaseTable`]: a call that may reach the backend holds a slot lease,
//!    reserve → confirm (revalidated immediately before the call) →
//!    release, with generation-based expiry, so a crashed or stalled
//!    dispatch can never strand a slot. A cache or store hit holds none —
//!    whether it is found when the batch is queued or, for a key another
//!    tenant's call filled while the task waited in the feed, by the worker
//!    that draws it.
//!
//! [`Server::submit`] takes unit tasks through the whole admission sequence
//! (its docs give the order). [`Server::engine_for`] hands out the tenant
//! handle itself, so a [`crate::plan::Query`] or an operator runs under the
//! tenant's ledger, fair share and leases; the rate limit and the backlog
//! bound are `submit`-door checks and do not apply to it.
//!
//! # Time
//!
//! The server never reads a clock. Rate-limit refill and lease expiry are
//! driven by an explicit **generation counter** ([`Server::generation`],
//! [`Server::advance_generation`]), so admission decisions are
//! deterministic and testable: a test advances generations; a deployment
//! wires the counter to whatever tick it likes.
//!
//! # Threading model
//!
//! The server has no threads and no loop of its own. An admitted
//! [`Server::submit`] is one call of the engine's pump with the caller as
//! the only worker: it answers the batch's cache hits where it stands,
//! queues the misses on the tenant's lane and works the shared feed — any
//! tenant's jobs, which is what makes the claim ordering fair — until its
//! own batch is done, waiting on the batch when the rest of it is in
//! flight on other threads. A submit with no miss is done before it would
//! queue anything, and does not work the feed at all. N concurrently
//! submitting tenants are N cooperating workers and nothing is spawned; an
//! [`Server::engine_for`] handle adds the engine's usual helper threads,
//! scoped to each pump call and sized by its misses.
//!
//! ```no_run
//! use crowdprompt_core::serve::{ServerBuilder, TenantSpec};
//! use crowdprompt_core::{Budget, Engine};
//! # fn demo(engine: Engine, tasks: Vec<crowdprompt_oracle::TaskDescriptor>) {
//! let server = ServerBuilder::new()
//!     .engine(engine)
//!     .tenant(
//!         TenantSpec::new("acme")
//!             .with_weight(2.0)
//!             .with_budget(Budget::usd(5.0))
//!             .with_rate_limit(64.0, 8.0),
//!     )
//!     .tenant(TenantSpec::new("initech"))
//!     .try_build()
//!     .expect("valid server config");
//! let run = server.submit("acme", tasks).expect("admitted");
//! assert!(run.ok_count() <= run.results.len());
//! # }
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crowdprompt_oracle::route::LeaseTable;
use crowdprompt_oracle::task::TaskDescriptor;
use crowdprompt_oracle::types::CompletionResponse;
use parking_lot::{Mutex, RwLock};

use crate::budget::{Budget, BudgetTracker, LedgerSnapshot};
use crate::error::EngineError;
use crate::exec::{
    condemning, router_of, Admit, Engine, FairFeed, Intake, Job, Lane, LeaseGate, Rendered,
    RunShape,
};

/// Default burst capacity of a tenant's token bucket, in requests.
const DEFAULT_BUCKET_CAPACITY: f64 = 256.0;
/// Default refill rate of a tenant's token bucket, in requests per
/// generation.
const DEFAULT_BUCKET_REFILL: f64 = 64.0;
/// Lease TTL, in generations: how long a reserved or confirmed slot
/// survives without renewal before the table reclaims it.
const DEFAULT_LEASE_TTL: u64 = 8;
/// Default backlog bound, as a multiple of the lease-table capacity.
const DEFAULT_BACKLOG_FACTOR: usize = 8;

/// A serving-layer error: admission refusals and configuration bugs.
///
/// Per-item *execution* failures never surface here — they come back as
/// `Err` slots inside [`TenantRun::results`], exactly like the engine's
/// degrade-mode outcomes.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The tenant id was never registered with the server.
    UnknownTenant(String),
    /// Load was shed: the tenant's token bucket cannot cover the batch, or
    /// the server's backlog is at its bound. Retry after the given number
    /// of generations — computed from the bucket's refill rate or the
    /// earliest lease expiry, whichever applies.
    RetryAfter {
        /// Generations until the refused work can plausibly be admitted.
        generations: u64,
    },
    /// The tenant's budget cannot cover the batch's estimated cost. A
    /// zero-budget tenant is refused here before any backend call is made
    /// or billed.
    BudgetExhausted {
        /// Estimated (admission-priced) USD the batch needs.
        needed_usd: f64,
        /// USD remaining in the tenant's ledger.
        remaining_usd: f64,
    },
    /// Invalid configuration or a task that failed to render at admission.
    Invalid(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownTenant(id) => write!(f, "unknown tenant: {id}"),
            ServeError::RetryAfter { generations } => {
                write!(f, "load shed: retry after {generations} generation(s)")
            }
            ServeError::BudgetExhausted {
                needed_usd,
                remaining_usd,
            } => write!(
                f,
                "tenant budget exhausted: needs ~${needed_usd:.6}, ${remaining_usd:.6} remaining"
            ),
            ServeError::Invalid(msg) => write!(f, "invalid serving request: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Per-tenant serving configuration: identity, fair-share weight, budget,
/// and token-bucket rate limit.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    id: String,
    weight: f64,
    budget: Budget,
    bucket_capacity: f64,
    refill_per_generation: f64,
}

impl TenantSpec {
    /// A tenant with weight 1, an unlimited budget, and a generous default
    /// rate limit.
    pub fn new(id: impl Into<String>) -> Self {
        TenantSpec {
            id: id.into(),
            weight: 1.0,
            budget: Budget::Unlimited,
            bucket_capacity: DEFAULT_BUCKET_CAPACITY,
            refill_per_generation: DEFAULT_BUCKET_REFILL,
        }
    }

    /// Fair-share weight (relative service rate under contention). Must be
    /// positive and finite: registering the tenant fails on anything else.
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Budget enforced at admission against this tenant's private ledger.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Token-bucket rate limit: at most `capacity` queued requests in a
    /// burst, refilling at `refill_per_generation` requests per generation.
    pub fn with_rate_limit(mut self, capacity: f64, refill_per_generation: f64) -> Self {
        self.bucket_capacity = capacity;
        self.refill_per_generation = refill_per_generation;
        self
    }

    /// The tenant's id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The tenant's admission budget.
    pub fn budget(&self) -> Budget {
        self.budget
    }
}

/// A generation-clocked token bucket (never reads the wall clock).
#[derive(Debug)]
struct TokenBucket {
    capacity: f64,
    refill: f64,
    level: f64,
    last_gen: u64,
}

impl TokenBucket {
    fn new(capacity: f64, refill: f64) -> Self {
        let capacity = capacity.max(1.0);
        TokenBucket {
            capacity,
            refill: refill.max(1e-6),
            level: capacity, // full bucket: a fresh tenant can burst
            last_gen: 0,
        }
    }

    /// Take `n <= capacity` tokens at `now_gen`, refilling for the
    /// generations elapsed since the last call. `Err` carries the number of
    /// generations after which the same take would succeed.
    fn try_take(&mut self, now_gen: u64, n: f64) -> Result<(), u64> {
        let elapsed = now_gen.saturating_sub(self.last_gen);
        self.level = (self.level + elapsed as f64 * self.refill).min(self.capacity);
        self.last_gen = now_gen;
        if self.level >= n {
            self.level -= n;
            return Ok(());
        }
        Err((((n - self.level) / self.refill).ceil() as u64).max(1))
    }
}

/// Server-side state for one tenant.
struct TenantState {
    spec: TenantSpec,
    bucket: Mutex<TokenBucket>,
    ledger: Arc<BudgetTracker>,
    /// The shared engine scoped to this tenant: `ledger` as its budget, the
    /// tenant's lane as its feed, the server's lease table as its gate.
    engine: Engine,
    /// Tasks completed successfully through [`Server::submit`].
    completed: AtomicU64,
    /// Submits refused at admission.
    shed: AtomicU64,
}

/// The server's tenants: found by id on every submit, listed in
/// registration order.
#[derive(Default)]
struct Tenants {
    by_id: HashMap<String, Arc<TenantState>>,
    in_order: Vec<Arc<TenantState>>,
}

/// A point-in-time view of one tenant's serving counters (see
/// [`Server::stats`]).
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// The tenant's id.
    pub id: String,
    /// The tenant's fair-share weight.
    pub weight: f64,
    /// Tasks completed successfully through [`Server::submit`] (work run
    /// on an [`Server::engine_for`] handle shows in the ledger only).
    pub completed: u64,
    /// Submits refused at admission.
    pub shed: u64,
    /// The tenant's ledger: actual spend and budget.
    pub ledger: LedgerSnapshot,
}

/// The result of one admitted [`Server::submit`]: per-task results in
/// input order. Execution failures occupy their slots as `Err`; admission
/// failures never get this far (see [`ServeError`]).
#[derive(Debug)]
pub struct TenantRun {
    /// One result per submitted task, in input order.
    pub results: Vec<Result<CompletionResponse, EngineError>>,
}

impl TenantRun {
    /// Number of tasks that completed successfully.
    pub fn ok_count(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }

    /// Whether every task completed.
    pub fn is_complete(&self) -> bool {
        self.results.iter().all(|r| r.is_ok())
    }
}

/// Builder for a [`Server`]. See the [module docs](self) for the flow.
#[derive(Default)]
pub struct ServerBuilder {
    engine: Option<Engine>,
    tenants: Vec<TenantSpec>,
    slots: Option<usize>,
    max_backlog: Option<usize>,
}

impl ServerBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        ServerBuilder {
            engine: None,
            tenants: Vec::new(),
            slots: None,
            max_backlog: None,
        }
    }

    /// The shared engine every tenant's work executes on. Typically built
    /// once via `SessionBuilder` and handed over with
    /// [`crate::session::Session::serve`].
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Register a tenant.
    pub fn tenant(mut self, spec: TenantSpec) -> Self {
        self.tenants.push(spec);
        self
    }

    /// Backend-slot quota (lease-table capacity). Default: the roster's
    /// advertised concurrency, `Router::total_slots()` (16 for the
    /// one-backend roster behind `LlmClient::new`).
    pub fn slots(mut self, slots: usize) -> Self {
        self.slots = Some(slots.max(1));
        self
    }

    /// Backlog bound: admission sheds load once this many items are
    /// queued. Default `8 × slots`.
    pub fn max_backlog(mut self, items: usize) -> Self {
        self.max_backlog = Some(items.max(1));
        self
    }

    /// Validate and build the server.
    pub fn try_build(self) -> Result<Server, ServeError> {
        let engine = self
            .engine
            .ok_or_else(|| ServeError::Invalid("ServerBuilder requires an engine".into()))?;
        if self.tenants.is_empty() {
            return Err(ServeError::Invalid(
                "ServerBuilder requires at least one tenant".into(),
            ));
        }
        // Served spend is billed to tenant ledgers only, so a cap on the
        // shared engine would never be checked: refuse it instead.
        if engine.budget().budget() != Budget::Unlimited {
            return Err(ServeError::Invalid(
                "serve: the engine's own budget is not enforced on the serve door; \
                 give each tenant a budget"
                    .into(),
            ));
        }
        // Default the slot quota to the roster's advertised concurrency.
        let slots = self
            .slots
            .unwrap_or_else(|| router_of(engine.client()).total_slots());
        let server = Server {
            engine,
            tenants: RwLock::new(Tenants::default()),
            feed: Arc::new(FairFeed::new()),
            gate: Arc::new(LeaseGate {
                table: LeaseTable::new(slots),
                generation: AtomicU64::new(0),
                ttl: DEFAULT_LEASE_TTL,
            }),
            max_backlog: self
                .max_backlog
                .unwrap_or(slots.saturating_mul(DEFAULT_BACKLOG_FACTOR).max(1)),
        };
        for spec in self.tenants {
            server.attach_tenant(spec)?;
        }
        Ok(server)
    }
}

/// A multi-tenant serving front end over one shared [`Engine`].
///
/// Built by [`ServerBuilder`]; see the [module docs](self) for the two
/// doors and the threading model.
pub struct Server {
    engine: Engine,
    tenants: RwLock<Tenants>,
    /// One lane per tenant; every tenant handle's pump queues and claims
    /// here.
    feed: Arc<FairFeed<Job>>,
    /// The lease table, the generation clock and the lease TTL; every
    /// tenant handle's gate.
    gate: Arc<LeaseGate>,
    max_backlog: usize,
}

impl Server {
    /// Register a tenant after build (a `Session` attaching to a running
    /// server lands here). Fails on duplicate ids or non-positive weights.
    pub(crate) fn attach_tenant(&self, spec: TenantSpec) -> Result<(), ServeError> {
        if spec.id.is_empty() {
            return Err(ServeError::Invalid("tenant id must be non-empty".into()));
        }
        if !(spec.weight.is_finite() && spec.weight > 0.0) {
            return Err(ServeError::Invalid(format!(
                "tenant {:?}: weight must be positive and finite",
                spec.id
            )));
        }
        let Some(index) = self.feed.register_lane(&spec.id, spec.weight) else {
            return Err(ServeError::Invalid(format!(
                "tenant {:?} is already registered",
                spec.id
            )));
        };
        let ledger = Arc::new(BudgetTracker::new(spec.budget));
        let lane = Lane {
            feed: Arc::clone(&self.feed),
            index,
        };
        let tenant = Arc::new(TenantState {
            bucket: Mutex::new(TokenBucket::new(
                spec.bucket_capacity,
                spec.refill_per_generation,
            )),
            engine: self
                .engine
                .scoped(Arc::clone(&ledger), lane, Arc::clone(&self.gate)),
            ledger,
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            spec,
        });
        let mut tenants = self.tenants.write();
        tenants
            .by_id
            .insert(tenant.spec.id.clone(), Arc::clone(&tenant));
        tenants.in_order.push(tenant);
        Ok(())
    }

    /// The shared engine, unscoped: a run on it bypasses admission, fair
    /// share, leases and every tenant ledger.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The shared engine scoped to `tenant_id`: whatever runs on it — a
    /// plan, an operator, a batch — is admitted against the tenant's
    /// ledger, claimed in the tenant's fair share beside every `submit`,
    /// and holds a slot lease around each call that may reach the backend.
    /// The tenant's rate limit and the backlog bound are checks of the
    /// [`Server::submit`] door and do not apply here. Each call returns a
    /// fresh handle (salvage notes are per handle) onto the one ledger.
    ///
    /// ```no_run
    /// # use crowdprompt_core::{Query, Server};
    /// # fn demo(server: &Server, tickets: &[crowdprompt_oracle::ItemId]) {
    /// let acme = server.engine_for("acme").expect("registered tenant");
    /// let plan = Query::over(tickets).filter("urgent").plan_on(&acme).expect("plans");
    /// let run = plan.execute_on(&acme).expect("within acme's budget");
    /// # let _ = run;
    /// # }
    /// ```
    pub fn engine_for(&self, tenant_id: &str) -> Result<Engine, ServeError> {
        self.tenant(tenant_id)
            .map(|tenant| tenant.engine.fork())
            .ok_or_else(|| ServeError::UnknownTenant(tenant_id.to_owned()))
    }

    /// The current generation.
    pub fn generation(&self) -> u64 {
        self.gate.now()
    }

    /// Advance the generation counter by `n`, refilling token buckets and
    /// aging leases, and return the new generation. The server never
    /// advances this itself.
    ///
    /// ```no_run
    /// # fn demo(server: &crowdprompt_core::Server) {
    /// let now = server.generation();
    /// assert_eq!(server.advance_generation(2), now + 2);
    /// # }
    /// ```
    pub fn advance_generation(&self, n: u64) -> u64 {
        self.gate.generation.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Backend-slot leases currently held (reserved or confirmed).
    pub fn leases_in_use(&self) -> usize {
        self.gate.table.in_use(self.generation())
    }

    /// Per-tenant serving counters and ledgers, in registration order.
    pub fn stats(&self) -> Vec<TenantStats> {
        self.tenants
            .read()
            .in_order
            .iter()
            .map(|t| TenantStats {
                id: t.spec.id.clone(),
                weight: t.spec.weight,
                completed: t.completed.load(Ordering::Relaxed),
                shed: t.shed.load(Ordering::Relaxed),
                ledger: LedgerSnapshot {
                    spent_usd: t.ledger.spent_usd(),
                    spent_tokens: t.ledger.spent_tokens(),
                    budget: t.ledger.budget(),
                },
            })
            .collect()
    }

    /// One tenant's ledger (actual spend + budget), if registered.
    pub fn ledger(&self, tenant_id: &str) -> Option<Arc<BudgetTracker>> {
        self.tenant(tenant_id).map(|t| Arc::clone(&t.ledger))
    }

    fn tenant(&self, id: &str) -> Option<Arc<TenantState>> {
        self.tenants.read().by_id.get(id).map(Arc::clone)
    }

    /// Submit a batch for `tenant_id`: admit, then one pump call on the
    /// tenant's engine handle with the calling thread as its only worker.
    /// That thread answers the batch's cache hits itself, before anything
    /// is queued; only the misses enter the tenant's lane of the feed and
    /// wait for a slot, so the tenant's fair share is a share of the work
    /// that needs the backend, and a submit with no miss returns without
    /// having queued, claimed or leased anything — whatever other tenants'
    /// misses are waiting for.
    ///
    /// Admission is all-or-nothing per batch, in this order:
    ///
    /// 1. unknown tenants are refused ([`ServeError::UnknownTenant`]);
    /// 2. tasks that fail to render are refused ([`ServeError::Invalid`])
    ///    — nothing is billed;
    /// 3. a batch larger than the backlog bound can never be queued
    ///    ([`ServeError::Invalid`]); one that does not fit beside what is
    ///    queued now sheds load ([`ServeError::RetryAfter`] hinted by the
    ///    earliest lease expiry). The bound counts the batch's tasks, hits
    ///    included: admission runs before any cache is asked;
    /// 4. the tenant's ledger must cover the batch's estimated cost at
    ///    admission pricing ([`ServeError::BudgetExhausted`]);
    /// 5. a batch larger than the tenant's bucket capacity can never be
    ///    taken ([`ServeError::Invalid`]); otherwise the bucket is charged
    ///    one token per task ([`ServeError::RetryAfter`] hinted by the
    ///    bucket refill rate).
    ///
    /// A refused submit performs no backend call, records no spend, and
    /// counts one shed. Once admitted, each task runs once (no engine-level
    /// retry) and one task's failure does not stop the others: execution
    /// failures come back as `Err` slots of the [`TenantRun`].
    pub fn submit(
        &self,
        tenant_id: &str,
        tasks: Vec<TaskDescriptor>,
    ) -> Result<TenantRun, ServeError> {
        let tenant = self
            .tenant(tenant_id)
            .ok_or_else(|| ServeError::UnknownTenant(tenant_id.to_owned()))?;
        let n = tasks.len();
        if n == 0 {
            return Ok(TenantRun {
                results: Vec::new(),
            });
        }
        let engine = &tenant.engine;
        let refuse = |error: ServeError| {
            tenant.shed.fetch_add(1, Ordering::Relaxed);
            error
        };

        // Render and estimate everything first: a batch with an unrenderable
        // task is refused whole, before any quota is consumed.
        let mut work = Vec::with_capacity(n);
        let (mut batch_usd, mut batch_tokens) = (0.0f64, 0u64);
        for task in tasks {
            let item = engine
                .render_call(Engine::unsampled(task), Admit::Batch)
                .map_err(|e| refuse(ServeError::Invalid(e.to_string())))?;
            batch_usd += engine.admission_usd(item.admission.est_usd);
            batch_tokens += item.admission.est_tokens;
            work.push(Ok(Rendered::Work(item)));
        }

        // Backlog bound: saturation sheds load instead of queueing without
        // limit. The hint is when the earliest held lease must release.
        if n > self.max_backlog {
            return Err(refuse(ServeError::Invalid(format!(
                "a batch of {n} tasks can never fit max_backlog {}",
                self.max_backlog
            ))));
        }
        if self.feed.len() + n > self.max_backlog {
            let hint = self
                .gate
                .table
                .earliest_release_in(self.generation())
                .unwrap_or(1);
            return Err(refuse(ServeError::RetryAfter { generations: hint }));
        }

        // Budget admission against the tenant's private ledger, cumulative
        // over the whole batch, hits included: no cache has been asked yet
        // (`Engine::run_many` admits only the misses its render found).
        if !tenant.ledger.admit(batch_usd, batch_tokens) {
            return Err(refuse(ServeError::BudgetExhausted {
                needed_usd: batch_usd,
                remaining_usd: tenant.ledger.remaining_usd(),
            }));
        }

        // Rate limit: one bucket token per task, refilled per generation.
        {
            let mut bucket = tenant.bucket.lock();
            if n as f64 > bucket.capacity {
                let capacity = bucket.capacity;
                drop(bucket);
                return Err(refuse(ServeError::Invalid(format!(
                    "a batch of {n} tasks can never fit tenant {tenant_id:?}'s \
                     rate-limit capacity {capacity}"
                ))));
            }
            if let Err(generations) = bucket.try_take(self.generation(), n as f64) {
                drop(bucket);
                return Err(refuse(ServeError::RetryAfter { generations }));
            }
        }

        // Admitted. Serve's run shape: concurrent submitters are each
        // other's pool, so nothing is spawned per submit.
        let shape = RunShape {
            attempts: 1,
            stop_on_error: false,
            workers: 1,
        };
        let results: Vec<_> = engine
            .pump(Intake::Rendered(work), shape)
            // A batch-level `Err` is the stop-on-error outcome, which this
            // shape never asks for.
            .map_err(|e| ServeError::Invalid(e.to_string()))?
            .into_iter()
            .map(|item| item.map_err(|errors| condemning(&errors)))
            .collect();
        let completed = results.iter().filter(|r| r.is_ok()).count();
        tenant
            .completed
            .fetch_add(completed as u64, Ordering::Relaxed);
        Ok(TenantRun { results })
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("tenants", &self.tenants.read().in_order.len())
            .field("slots", &self.gate.table.capacity())
            .field("lease_ttl", &self.gate.ttl)
            .field("max_backlog", &self.max_backlog)
            .field("generation", &self.generation())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crowdprompt_oracle::error::LlmError;
    use crowdprompt_oracle::model::ModelProfile;
    use crowdprompt_oracle::pricing::Pricing;
    use crowdprompt_oracle::sim::SimulatedLlm;
    use crowdprompt_oracle::types::{CompletionRequest, LanguageModel};
    use crowdprompt_oracle::world::WorldModel;
    use crowdprompt_oracle::{ItemId, LlmClient};
    use parking_lot::Condvar;
    use proptest::prelude::*;
    use std::time::Duration;

    fn engine(n: usize) -> (Engine, Vec<ItemId>) {
        let (engine, ids, _) = probed_engine(n, None);
        (engine, ids)
    }

    /// How long one side of a [`Rendezvous`] waits for the other.
    const RENDEZVOUS_DEADLINE: Duration = Duration::from_secs(30);

    /// A reusable meeting point of two threads, like a `Barrier` of two,
    /// that panics, naming itself, when the other side has not come within
    /// [`RENDEZVOUS_DEADLINE`]: a test whose submit panicked before its call
    /// reached the backend, or whose assertion failed while the backend was
    /// parked, fails instead of waiting forever.
    struct Rendezvous {
        name: &'static str,
        /// Meetings completed, and whether one side is waiting for the next.
        state: Mutex<(u64, bool)>,
        met: Condvar,
    }

    impl Rendezvous {
        fn new(name: &'static str) -> Self {
            Rendezvous {
                name,
                state: Mutex::new((0, false)),
                met: Condvar::new(),
            }
        }

        fn wait(&self) {
            let mut state = self.state.lock();
            let meeting = state.0;
            if state.1 {
                *state = (meeting + 1, false);
                self.met.notify_all();
                return;
            }
            state.1 = true;
            while state.0 == meeting {
                if self
                    .met
                    .wait_for(&mut state, RENDEZVOUS_DEADLINE)
                    .timed_out()
                    && state.0 == meeting
                {
                    state.1 = false;
                    drop(state);
                    panic!(
                        "rendezvous `{}`: the other side did not come within {RENDEZVOUS_DEADLINE:?}",
                        self.name
                    );
                }
            }
        }
    }

    /// What a [`Probe`] does to the calls for item 0.
    #[derive(Clone, Copy)]
    enum OnItem0 {
        /// Meet `entered`, then stay in the backend until `release`.
        Park,
        /// Meet `entered`, then fail with a non-retryable error.
        Fail,
    }

    /// The simulator behind a counter of calls in flight, with one item's
    /// calls parked or failed on cue.
    struct Probe {
        inner: SimulatedLlm,
        current: AtomicU64,
        peak: AtomicU64,
        on_item0: Option<OnItem0>,
        entered: Rendezvous,
        release: Rendezvous,
        /// The item whose calls panic; none while `u64::MAX`.
        mined: AtomicU64,
    }

    impl LanguageModel for Probe {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn context_window(&self) -> u32 {
            self.inner.context_window()
        }
        fn pricing(&self) -> Pricing {
            self.inner.pricing()
        }
        fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
            let now = self.current.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            let mined = ItemId(self.mined.load(Ordering::SeqCst));
            assert!(
                !matches!(&request.task, TaskDescriptor::CheckPredicate { item, .. } if *item == mined),
                "the backend blew up under a mined item"
            );
            let out = match self.on_item0 {
                Some(action) if request.prompt.contains("serve item 0") => {
                    self.entered.wait();
                    match action {
                        OnItem0::Park => {
                            self.release.wait();
                            self.inner.complete(request)
                        }
                        OnItem0::Fail => Err(LlmError::InvalidRequest("poisoned".into())),
                    }
                }
                _ => {
                    // Long enough in flight for an unguarded overlap to show.
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    self.inner.complete(request)
                }
            };
            self.current.fetch_sub(1, Ordering::SeqCst);
            out
        }
    }

    fn probed_engine(n: usize, on_item0: Option<OnItem0>) -> (Engine, Vec<ItemId>, Arc<Probe>) {
        let mut w = WorldModel::new();
        let ids: Vec<_> = (0..n)
            .map(|i| {
                let id = w.add_item(format!("serve item {i}"));
                w.set_flag(id, "p", i % 2 == 0);
                id
            })
            .collect();
        let corpus = Corpus::from_world(&w, &ids);
        let probe = Arc::new(Probe {
            inner: SimulatedLlm::new(ModelProfile::gpt35_like(), Arc::new(w), 7),
            current: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            on_item0,
            entered: Rendezvous::new("entered"),
            release: Rendezvous::new("release"),
            mined: AtomicU64::new(u64::MAX),
        });
        let client = Arc::new(LlmClient::new(Arc::clone(&probe) as Arc<dyn LanguageModel>));
        (Engine::new(client, corpus).with_parallelism(4), ids, probe)
    }

    fn check(id: ItemId) -> TaskDescriptor {
        TaskDescriptor::CheckPredicate {
            item: id,
            predicate: "p".into(),
        }
    }

    fn distinct_checks(ids: &[ItemId]) -> Vec<TaskDescriptor> {
        ids.iter().map(|id| check(*id)).collect()
    }

    #[test]
    fn builder_requires_engine_and_tenants() {
        match ServerBuilder::new().try_build() {
            Err(ServeError::Invalid(msg)) => assert!(msg.contains("engine"), "{msg}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        let (eng, _) = engine(2);
        match ServerBuilder::new().engine(eng).try_build() {
            Err(ServeError::Invalid(msg)) => assert!(msg.contains("tenant"), "{msg}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        // Tenant ledgers are the only budgets: a capped engine is refused.
        let (eng, _) = engine(2);
        match ServerBuilder::new()
            .engine(eng.with_budget(Budget::usd(0.0)))
            .tenant(TenantSpec::new("a"))
            .try_build()
        {
            Err(ServeError::Invalid(msg)) => {
                assert!(msg.contains("give each tenant a budget"), "{msg}")
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn submit_executes_and_bills_the_tenant() {
        let (eng, ids) = engine(8);
        let server = ServerBuilder::new()
            .engine(eng)
            .tenant(TenantSpec::new("a").with_budget(Budget::usd(1.0)))
            .try_build()
            .unwrap();
        let run = server.submit("a", distinct_checks(&ids)).unwrap();
        assert!(run.is_complete());
        assert_eq!(run.results.len(), 8);
        let meter: f64 = run
            .results
            .iter()
            .map(|r| {
                let resp = r.as_ref().unwrap(); // lint: allow(no-unwrap)
                if resp.cached {
                    0.0
                } else {
                    server.engine().cost_of_response(resp)
                }
            })
            .sum();
        let ledger = server.ledger("a").unwrap();
        assert!(meter > 0.0);
        assert!((meter - ledger.spent_usd()).abs() < 1e-9, "meter == ledger");
        let stats = server.stats();
        assert_eq!(stats[0].completed, 8);
        assert_eq!(stats[0].shed, 0);
        assert!((stats[0].ledger.spent_usd - meter).abs() < 1e-9);
        assert_eq!(server.leases_in_use(), 0, "no lease outlives its dispatch");
    }

    #[test]
    fn unknown_tenant_is_refused() {
        let (eng, ids) = engine(2);
        let server = ServerBuilder::new()
            .engine(eng)
            .tenant(TenantSpec::new("a"))
            .try_build()
            .unwrap();
        match server.submit("ghost", distinct_checks(&ids)) {
            Err(ServeError::UnknownTenant(id)) => assert_eq!(id, "ghost"),
            other => panic!("expected UnknownTenant, got {other:?}"),
        }
    }

    #[test]
    fn zero_budget_tenant_is_refused_before_any_call() {
        let (eng, ids) = engine(4);
        let server = ServerBuilder::new()
            .engine(eng)
            .tenant(TenantSpec::new("broke").with_budget(Budget::usd(0.0)))
            .try_build()
            .unwrap();
        let calls_before = server.engine().client().stats().calls();
        match server.submit("broke", distinct_checks(&ids)) {
            Err(ServeError::BudgetExhausted { needed_usd, .. }) => assert!(needed_usd > 0.0),
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        assert_eq!(
            server.engine().client().stats().calls(),
            calls_before,
            "a refused submit must not reach the backend"
        );
        let ledger = server.ledger("broke").unwrap();
        assert_eq!(ledger.spent_usd(), 0.0);
        assert_eq!(server.stats()[0].shed, 1);
    }

    #[test]
    fn bucket_overdraft_sheds_with_a_retry_hint() {
        let (eng, ids) = engine(8);
        let server = ServerBuilder::new()
            .engine(eng)
            .tenant(TenantSpec::new("bursty").with_rate_limit(4.0, 2.0))
            .try_build()
            .unwrap();
        // First 4 fit the burst capacity.
        let run = server.submit("bursty", distinct_checks(&ids[..4])).unwrap();
        assert!(run.is_complete());
        // The bucket is now empty; 4 more must shed with a computed hint:
        // 4 tokens at 2/generation = 2 generations.
        match server.submit("bursty", distinct_checks(&ids[4..])) {
            Err(ServeError::RetryAfter { generations }) => assert_eq!(generations, 2),
            other => panic!("expected RetryAfter, got {other:?}"),
        }
        // Advancing the generation refills the bucket and the same batch
        // is admitted.
        server.advance_generation(2);
        let run = server.submit("bursty", distinct_checks(&ids[4..])).unwrap();
        assert!(run.is_complete());
        // A batch over the bucket's capacity can never be taken, however
        // long the caller waits: refused as invalid, not as "retry".
        server.advance_generation(64);
        match server.submit("bursty", distinct_checks(&ids)) {
            Err(ServeError::Invalid(msg)) => assert!(msg.contains("capacity 4"), "{msg}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        assert_eq!(server.stats()[0].shed, 2);
    }

    #[test]
    fn backlog_bound_sheds_load() {
        let (eng, ids, probe) = probed_engine(4, Some(OnItem0::Park));
        let server = ServerBuilder::new()
            .engine(eng)
            .tenant(TenantSpec::new("a"))
            .slots(1)
            .max_backlog(2)
            .try_build()
            .unwrap();
        // A batch over the bound can never be queued: invalid, not "retry".
        match server.submit("a", distinct_checks(&ids)) {
            Err(ServeError::Invalid(msg)) => assert!(msg.contains("max_backlog 2"), "{msg}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        std::thread::scope(|scope| {
            let first = scope.spawn(|| server.submit("a", distinct_checks(&ids[..2])));
            // Item 0 is parked in the backend under the only lease and
            // item 1 is queued behind it: a transient backlog of one.
            probe.entered.wait();
            assert_eq!(server.feed.len(), 1);
            match server.submit("a", distinct_checks(&ids[2..])) {
                Err(ServeError::RetryAfter { generations }) => {
                    assert_eq!(generations, DEFAULT_LEASE_TTL, "the held lease's expiry")
                }
                other => panic!("expected RetryAfter, got {other:?}"),
            }
            probe.release.wait();
            assert!(first.join().unwrap().unwrap().is_complete());
        });
        // The backlog drained: the same batch is admitted.
        let run = server.submit("a", distinct_checks(&ids[2..])).unwrap();
        assert!(run.is_complete());
        assert_eq!(server.stats()[0].shed, 2);
    }

    #[test]
    fn leases_cap_calls_in_flight_across_both_doors() {
        let (eng, ids, probe) = probed_engine(40, None);
        let server = ServerBuilder::new()
            .engine(eng.with_parallelism(8))
            .tenant(TenantSpec::new("a"))
            .tenant(TenantSpec::new("b"))
            .slots(2)
            .max_backlog(64)
            .try_build()
            .unwrap();
        let server = &server;
        std::thread::scope(|scope| {
            for chunk in ids[..24].chunks(3) {
                scope.spawn(move || {
                    assert!(server
                        .submit("a", distinct_checks(chunk))
                        .unwrap()
                        .is_complete())
                });
            }
            let handle = server.engine_for("b").unwrap();
            let tasks = distinct_checks(&ids[24..]);
            scope.spawn(move || assert_eq!(handle.run_many(tasks).unwrap().len(), 16));
        });
        assert_eq!(server.engine().client().stats().calls(), 40);
        assert!(
            probe.peak.load(Ordering::SeqCst) <= 2,
            "2 slots must cap in-flight calls at 2, saw {}",
            probe.peak.load(Ordering::SeqCst)
        );
        assert_eq!(server.leases_in_use(), 0);
    }

    #[test]
    fn a_hit_takes_no_lease() {
        let (eng, ids, probe) = probed_engine(4, Some(OnItem0::Park));
        let server = ServerBuilder::new()
            .engine(eng)
            .tenant(TenantSpec::new("a"))
            .slots(1)
            .try_build()
            .unwrap();
        let hot = distinct_checks(&ids[1..]);
        assert!(server.submit("a", hot.clone()).unwrap().is_complete());
        std::thread::scope(|scope| {
            let miss = scope.spawn(|| server.submit("a", distinct_checks(&ids[..1])));
            probe.entered.wait();
            assert_eq!(
                server.leases_in_use(),
                1,
                "the parked miss holds the only slot"
            );
            // Were a hit to wait for a lease, this would never return.
            let run = server.submit("a", hot).unwrap();
            assert!(run.results.iter().all(|r| r.as_ref().unwrap().cached));
            probe.release.wait();
            assert!(miss.join().unwrap().unwrap().is_complete());
        });
        assert_eq!(server.leases_in_use(), 0);
    }

    /// Tenant b's first miss parked in the backend under the only lease and
    /// two more of b's misses queued behind it; `body` gets the server and
    /// sixteen tasks tenant a has already warmed.
    fn while_b_holds_the_only_slot(body: impl FnOnce(&Server, Vec<TaskDescriptor>)) {
        let (eng, ids, probe) = probed_engine(19, Some(OnItem0::Park));
        let server = ServerBuilder::new()
            .engine(eng)
            .tenant(TenantSpec::new("a"))
            .tenant(TenantSpec::new("b"))
            .slots(1)
            .max_backlog(64)
            .try_build()
            .unwrap();
        let hot = distinct_checks(&ids[3..]);
        assert!(server.submit("a", hot.clone()).unwrap().is_complete());
        std::thread::scope(|scope| {
            let misses = scope.spawn(|| server.submit("b", distinct_checks(&ids[..3])));
            probe.entered.wait();
            assert_eq!(server.leases_in_use(), 1);
            assert_eq!(server.feed.queued_for("b"), 2);
            body(&server, hot);
            probe.release.wait();
            assert!(misses.join().unwrap().unwrap().is_complete());
        });
        assert_eq!(server.leases_in_use(), 0);
    }

    #[test]
    fn a_submit_of_hits_returns_while_another_tenants_misses_wait_for_the_only_slot() {
        while_b_holds_the_only_slot(|server, hot| {
            // Were a's submitter to work the feed it would draw one of b's
            // misses, wait for the slot b's parked call holds, and never
            // get here.
            let run = server.submit("a", hot).unwrap();
            assert_eq!(run.results.len(), 16);
            assert!(run.results.iter().all(|r| r.as_ref().unwrap().cached));
        });
    }

    #[test]
    fn a_submit_with_no_miss_leaves_the_feed_and_the_lease_table_untouched() {
        while_b_holds_the_only_slot(|server, hot| {
            let client = server.engine().client();
            let (calls, hits) = (client.stats().calls(), client.stats().cache_hits());
            assert!(server.submit("a", hot).unwrap().is_complete());
            // Nothing of a's was queued and nothing of b's was claimed; the
            // one lease is still b's.
            assert_eq!(server.feed.queued_for("a"), 0);
            assert_eq!(server.feed.queued_for("b"), 2);
            assert_eq!(server.leases_in_use(), 1);
            assert_eq!(client.stats().calls(), calls);
            assert_eq!(client.stats().cache_hits(), hits + 16, "one probe a task");
            assert_eq!(server.stats()[0].completed, 32);
        });
    }

    #[test]
    fn a_key_filled_between_probe_and_dispatch_is_served_without_a_lease() {
        let (eng, ids, probe) = probed_engine(2, Some(OnItem0::Park));
        let server = ServerBuilder::new()
            .engine(eng)
            .tenant(TenantSpec::new("a"))
            .slots(1)
            .try_build()
            .unwrap();
        // Item 1's request, as `submit` renders it.
        let engine = server.engine();
        let mut filled = engine.keyed(Engine::unsampled(check(ids[1]))).unwrap();
        engine.render_and_estimate(&mut filled).unwrap();
        std::thread::scope(|scope| {
            let run = scope.spawn(|| server.submit("a", distinct_checks(&ids)));
            // Item 0 is parked under the only lease; item 1 was probed, missed
            // and is queued behind it with its key.
            probe.entered.wait();
            assert_eq!(server.feed.len(), 1);
            // Someone else's call answers item 1 meanwhile ...
            let theirs = server.engine().client().complete(&filled).unwrap();
            // ... and the slot goes away for good: the parked call's lease
            // expires and is held here until the submit is back.
            let now = server.advance_generation(DEFAULT_LEASE_TTL);
            let held = server.gate.table.reserve(now, DEFAULT_LEASE_TTL).unwrap();
            assert!(server.gate.table.confirm(&held, now, DEFAULT_LEASE_TTL));
            probe.release.wait();
            // A worker that took item 1 to the gate would wait there forever.
            let run = run.join().unwrap().unwrap();
            let served = run.results[1].as_ref().unwrap();
            assert!(served.cached);
            assert_eq!(served.text, theirs.text);
            assert!(!run.results[0].as_ref().unwrap().cached);
            server.gate.table.release(&held);
        });
        assert_eq!(server.engine().client().stats().calls(), 2);
        assert_eq!(server.engine().client().stats().cache_hits(), 1);
        assert_eq!(server.leases_in_use(), 0);
    }

    #[test]
    fn a_worker_that_dies_on_a_miss_fails_that_slot_and_keeps_the_recorded_hits() {
        let (eng, ids, probe) = probed_engine(6, Some(OnItem0::Park));
        let server = ServerBuilder::new()
            .engine(eng)
            // Heavy enough that a's lane still has credit for its second
            // miss when b's submitter comes to claim, wherever the warm-up
            // left the round robin.
            .tenant(TenantSpec::new("a").with_weight(8.0))
            .tenant(TenantSpec::new("b"))
            .slots(2)
            .try_build()
            .unwrap();
        assert!(server
            .submit("a", distinct_checks(&ids[3..]))
            .unwrap()
            .is_complete());
        probe.mined.store(ids[1].0, Ordering::SeqCst);
        // hit, parked miss, hit, mined miss, hit.
        let tasks = [3, 0, 4, 1, 5].map(|i| check(ids[i])).to_vec();
        let run = std::thread::scope(|scope| {
            let run = scope.spawn(|| server.submit("a", tasks));
            // a's submitter recorded the three hits, queued the two misses
            // and is parked in the backend with the first.
            probe.entered.wait();
            assert_eq!(server.feed.queued_for("a"), 1);
            // b's submitter draws a's queued miss before its own, and dies
            // in the backend with it.
            let died = scope
                .spawn(|| server.submit("b", distinct_checks(&ids[2..3])))
                .join();
            assert!(died.is_err());
            assert_eq!(server.feed.queued_for("a"), 0);
            probe.release.wait();
            run.join().unwrap().unwrap()
        });
        for hit in [0, 2, 4] {
            assert!(run.results[hit].as_ref().unwrap().cached);
        }
        assert!(!run.results[1].as_ref().unwrap().cached);
        assert!(matches!(
            run.results[3],
            Err(EngineError::Llm(LlmError::ServiceUnavailable))
        ));
        assert_eq!(server.stats()[0].completed, 3 + 4);
        assert_eq!(
            server.leases_in_use(),
            0,
            "the dead worker's lease came back"
        );
    }

    proptest! {
        /// Batches sharing a feed stay isolated: a fail-fast error inside
        /// one tenant's handle run stops that batch only — whatever of it
        /// was still queued is drained, not left behind — while another
        /// tenant's concurrent submit gets every slot back.
        #[test]
        fn a_stopped_batch_leaves_nothing_queued_and_stops_no_other(
            n in 1usize..48,
            at in 0usize..48,
            m in 1usize..12,
        ) {
            let (eng, ids, probe) = probed_engine(n + m, Some(OnItem0::Fail));
            let server = ServerBuilder::new()
                .engine(eng)
                .tenant(TenantSpec::new("a"))
                .tenant(TenantSpec::new("b"))
                .max_backlog(64)
                .try_build()
                .unwrap();
            // Tenant a's batch, with the poisoned item 0 somewhere in it.
            let mut a_tasks = distinct_checks(&ids[1..n]);
            a_tasks.insert(at % n, check(ids[0]));
            let b_tasks = distinct_checks(&ids[n..]);
            let handle = server.engine_for("a").unwrap();
            let (a_run, b_run) = std::thread::scope(|scope| {
                let a = scope.spawn(|| handle.run_many(a_tasks));
                // Submit once the poisoned call is in the backend.
                probe.entered.wait();
                let b_run = server.submit("b", b_tasks);
                (a.join().unwrap(), b_run)
            });
            prop_assert!(
                matches!(a_run, Err(EngineError::Llm(LlmError::InvalidRequest(_)))),
                "expected the poison to fail the batch, got {a_run:?}"
            );
            let b_run = b_run.expect("b admitted");
            prop_assert_eq!(b_run.results.len(), m);
            prop_assert!(b_run.is_complete());
            prop_assert_eq!(server.feed.queued_for("a"), 0);
            prop_assert_eq!(server.feed.len(), 0);
            prop_assert_eq!(server.leases_in_use(), 0);
        }
    }

    #[test]
    fn concurrent_tenants_all_complete_and_bill_separately() {
        let (eng, ids) = engine(32);
        let server = ServerBuilder::new()
            .engine(eng)
            .tenant(TenantSpec::new("t0").with_weight(1.0))
            .tenant(TenantSpec::new("t1").with_weight(2.0))
            .tenant(TenantSpec::new("t2").with_weight(4.0))
            .slots(4)
            .try_build()
            .unwrap();
        let server = &server;
        std::thread::scope(|scope| {
            for (t, chunk) in ids.chunks(8).take(3).enumerate() {
                scope.spawn(move || {
                    let run = server
                        .submit(&format!("t{t}"), distinct_checks(chunk))
                        .unwrap();
                    assert!(run.is_complete());
                });
            }
        });
        let stats = server.stats();
        for s in &stats {
            assert_eq!(s.completed, 8, "tenant {} completed", s.id);
            assert!(s.ledger.spent_usd > 0.0);
        }
        // Distinct items per tenant: every tenant paid for its own work.
        let client_total = server.engine().client().ledger().spend_usd();
        let tenant_total: f64 = stats.iter().map(|s| s.ledger.spent_usd).sum();
        assert!(
            (client_total - tenant_total).abs() < 1e-9,
            "sum of tenant ledgers ({tenant_total}) == client ledger ({client_total})"
        );
        assert_eq!(server.leases_in_use(), 0);
    }

    #[test]
    fn attach_tenant_rejects_duplicates_and_bad_weights() {
        let (eng, _) = engine(2);
        let server = ServerBuilder::new()
            .engine(eng)
            .tenant(TenantSpec::new("a"))
            .try_build()
            .unwrap();
        assert!(matches!(
            server.attach_tenant(TenantSpec::new("a")),
            Err(ServeError::Invalid(_))
        ));
        assert!(matches!(
            server.attach_tenant(TenantSpec::new("b").with_weight(0.0)),
            Err(ServeError::Invalid(_))
        ));
        assert!(server.attach_tenant(TenantSpec::new("b")).is_ok());
        assert_eq!(server.stats().len(), 2);
    }
}
