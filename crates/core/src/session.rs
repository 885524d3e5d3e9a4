//! The user-facing declarative API.
//!
//! A [`Session`] bundles a model client, a corpus, a budget, and execution
//! settings. The paper's data processing primitives — sort, resolve,
//! impute, filter, count, categorize, max, top-k, join, cluster — are
//! [`Query`] nodes: [`Session::plan`] lowers a query against the session's
//! engine and [`Plan::execute`] runs it, reporting cost per node. A node
//! given a strategy (`sort_with`, `filter_with`, …) runs that strategy. Every
//! call runs at temperature 0, as in the paper's case studies; only a voting
//! [`crate::ops::filter::FilterStrategy`] samples, at the temperature it
//! names.

use std::sync::Arc;
use std::time::Duration;

use crowdprompt_oracle::backend::{Backend, BackendRegistry};
use crowdprompt_oracle::route::{HedgeConfig, RoutePolicy};
use crowdprompt_oracle::store::{ResponseStore, StoreConfig};
use crowdprompt_oracle::world::ItemId;
use crowdprompt_oracle::LlmClient;

use crate::budget::Budget;
use crate::corpus::Corpus;
use crate::error::EngineError;
use crate::exec::{Engine, FailurePolicy};
use crate::plan::{Plan, Query};
use crate::trace::Trace;

/// Routing-layer configuration: which backends serve the session and
/// whether the router hedges across them.
///
/// Pass to [`SessionBuilder::routing`]. The group is self-consistent by
/// construction — the hedging knob lives next to the backend roster it
/// requires, and `try_build` reports violations under the `routing:`
/// prefix. A routed session retries a transient failure up to
/// [`RoutePolicy::default`]'s three times, each on a backend that has not
/// failed the request yet.
///
/// ```
/// use crowdprompt_core::session::RoutingConfig;
/// use std::time::Duration;
///
/// let routing = RoutingConfig::new().hedge_after(Duration::from_millis(5));
/// # let _ = routing;
/// ```
#[derive(Clone, Default)]
pub struct RoutingConfig {
    backends: Vec<Arc<dyn Backend>>,
    hedge_after: Option<Duration>,
}

impl std::fmt::Debug for RoutingConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoutingConfig")
            .field("backends", &self.backends.len())
            .field("hedge_after", &self.hedge_after)
            .finish()
    }
}

impl RoutingConfig {
    /// An empty routing group: no backends, no hedging.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Route the session across a set of heterogeneous backends serving one
    /// model tier, instead of a single client. The session builds a routed
    /// [`LlmClient`] over them: least-loaded/cheapest-eligible selection,
    /// retry across backends, a per-backend circuit breaker,
    /// and (with [`RoutingConfig::hedge_after`]) hedged requests. A
    /// registry of exactly one transparent backend is result-identical to
    /// passing the model as a plain client.
    ///
    /// Mutually exclusive with [`SessionBuilder::client`].
    #[must_use]
    pub fn backends(mut self, backends: Vec<Arc<dyn Backend>>) -> Self {
        self.backends = backends;
        self
    }

    /// Enable hedged requests: a call that has not answered within
    /// `max(delay, observed p90 of the serving backend)` is duplicated onto
    /// the next-best backend; the first success wins and the loser is
    /// cancelled without being charged. Requires
    /// [`RoutingConfig::backends`].
    #[must_use]
    pub fn hedge_after(mut self, delay: Duration) -> Self {
        self.hedge_after = Some(delay);
        self
    }
}

/// Resilience configuration: what happens when calls fail, and where a
/// crashed run resumes from.
///
/// Pass to [`SessionBuilder::resilience`]. Violations surface from
/// `try_build` under the `resilience:` prefix.
///
/// ```
/// use crowdprompt_core::session::ResilienceConfig;
/// use crowdprompt_core::FailurePolicy;
///
/// let resilience = ResilienceConfig::new()
///     .failure_policy(FailurePolicy::Degrade { max_attempts: 40 });
/// # let _ = resilience;
/// ```
#[derive(Debug, Clone, Default)]
pub struct ResilienceConfig {
    failure_policy: Option<FailurePolicy>,
    journal_path: Option<std::path::PathBuf>,
}

impl ResilienceConfig {
    /// An empty resilience group: fail-fast, no journal.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the failure policy (default [`FailurePolicy::FailFast`]).
    /// Under [`FailurePolicy::Degrade`], point-wise operators salvage
    /// every completable item and quarantine the rest instead of failing
    /// the whole operation; step reports and EXPLAIN notes carry the
    /// salvage counts.
    #[must_use]
    pub fn failure_policy(mut self, policy: FailurePolicy) -> Self {
        self.failure_policy = Some(policy);
        self
    }

    /// Journal every paid completion to the file at `path`, and replay any
    /// completions already journaled there — attach the same path again
    /// after a crash and the session resumes where the last one stopped,
    /// with results and accounting bit-identical to an uninterrupted run.
    ///
    /// The journal is a [`ResponseStore`] the session opens as its single
    /// writer and attaches to the client's replay slot
    /// ([`LlmClient::attach_journal`]); it must be a different file from
    /// [`CacheConfig::store_path`] (the writer lock refuses the second
    /// open). The lock dies with its process, so a killed run leaves
    /// nothing to clean up. The journal and its lock live until the
    /// *client* drops, and a shared client takes one journal: a second
    /// session over it with a `journal_path` of its own is refused.
    #[must_use]
    pub fn journal_path(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.journal_path = Some(path.into());
        self
    }
}

/// Cache configuration: the persistent response store.
///
/// Pass to [`SessionBuilder::cache`]; `try_build` reports a store that
/// cannot be opened under the `cache:` prefix.
///
/// ```
/// use crowdprompt_core::session::CacheConfig;
///
/// let cache = CacheConfig::new().store_path("/tmp/responses.log");
/// # let _ = cache;
/// ```
#[derive(Debug, Clone, Default)]
pub struct CacheConfig {
    store_path: Option<std::path::PathBuf>,
}

impl CacheConfig {
    /// An empty cache group: in-memory client cache only.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Layer a persistent, crash-safe response store at `path` under the
    /// client's in-memory cache. Temperature-0 completions paid for by
    /// *any* process that used this store are served from disk on a miss —
    /// zero backend calls, zero spend (hits charge exactly like in-memory
    /// cache hits) — and fresh completions are admitted for future
    /// processes. The session becomes the store's single writer for the
    /// lifetime of its client: another
    /// [`crowdprompt_oracle::store::ResponseStore::open`] of the same file
    /// is refused until that client drops.
    ///
    /// Unlike [`ResilienceConfig::journal_path`] — which replays *this
    /// run's* paid calls with their original charges for bit-identical
    /// resume — the store is a cross-run cache: hits are free.
    #[must_use]
    pub fn store_path(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.store_path = Some(path.into());
        self
    }
}

/// Builder for [`Session`].
///
/// Cross-cutting concerns are grouped: routing ([`SessionBuilder::routing`]),
/// resilience ([`SessionBuilder::resilience`]), and caching
/// ([`SessionBuilder::cache`]) each take a small config struct, so related
/// knobs are set — and validated — together.
pub struct SessionBuilder {
    client: Option<Arc<LlmClient>>,
    routing: RoutingConfig,
    corpus: Corpus,
    budget: Budget,
    parallelism: usize,
    pack_width: usize,
    seed: u64,
    criterion_label: String,
    trace: bool,
    resilience: ResilienceConfig,
    cache: CacheConfig,
}

impl SessionBuilder {
    /// Set the model client (required unless a backend roster is supplied
    /// via [`SessionBuilder::routing`] instead).
    #[must_use]
    pub fn client(mut self, client: Arc<LlmClient>) -> Self {
        self.client = Some(client);
        self
    }

    /// Set the routing group: backend roster and hedging.
    /// Replaces any previously set routing group.
    #[must_use]
    pub fn routing(mut self, config: RoutingConfig) -> Self {
        self.routing = config;
        self
    }

    /// Set the resilience group: failure policy and crash journal.
    /// Replaces any previously set resilience group.
    #[must_use]
    pub fn resilience(mut self, config: ResilienceConfig) -> Self {
        self.resilience = config;
        self
    }

    /// Set the cache group: the persistent response store.
    /// Replaces any previously set cache group.
    #[must_use]
    pub fn cache(mut self, config: CacheConfig) -> Self {
        self.cache = config;
        self
    }

    /// Set the corpus of item texts (required for most operations).
    #[must_use]
    pub fn corpus(mut self, corpus: Corpus) -> Self {
        self.corpus = corpus;
        self
    }

    /// Set the session budget (default unlimited).
    #[must_use]
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Set dispatch parallelism (default 8).
    #[must_use]
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers;
        self
    }

    /// Set the prompt pack width (default 1 = off): point-wise operators
    /// (filter, per-item count, categorize, LLM impute) pack up to this
    /// many items into one multi-item prompt, cutting backend calls to
    /// ⌈n/width⌉ per pass. The planner may choose a smaller per-node width
    /// when a packed prompt would overflow the model's context window, and
    /// unparseable packed responses are bisected and retried down to the
    /// per-item path — results are unaffected, only call counts change.
    #[must_use]
    pub fn pack_width(mut self, width: usize) -> Self {
        self.pack_width = width;
        self
    }

    /// Set the seed driving operator tie-breaking.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the human-readable criterion label for score-based operations
    /// (e.g. `"by how chocolatey they are"`).
    #[must_use]
    pub fn criterion(mut self, label: impl Into<String>) -> Self {
        self.criterion_label = label.into();
        self
    }

    /// Enable execution tracing (builder style); read it back with
    /// [`Session::trace`].
    #[must_use]
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Build the session, surfacing configuration errors as values —
    /// the library-friendly form of [`SessionBuilder::build`].
    pub fn try_build(self) -> Result<Session, EngineError> {
        let client = match (self.client, self.routing.backends.is_empty()) {
            (Some(_), false) => {
                return Err(EngineError::InvalidInput(
                    "routing: SessionBuilder takes either a client or backends, not both".into(),
                ))
            }
            (Some(client), true) => {
                if self.routing.hedge_after.is_some() {
                    return Err(EngineError::InvalidInput(
                        "routing: hedge_after configures the routing layer; \
                         it requires backends(...)"
                            .into(),
                    ));
                }
                client
            }
            (None, false) => {
                let registry = BackendRegistry::new(self.routing.backends)?;
                let policy = RoutePolicy {
                    hedge: self.routing.hedge_after.map(HedgeConfig::after),
                    ..RoutePolicy::default()
                };
                Arc::new(LlmClient::routed(registry, policy))
            }
            (None, true) => {
                return Err(EngineError::InvalidInput(
                    "routing: SessionBuilder requires a client (or backends)".into(),
                ))
            }
        };
        if let Some(path) = &self.cache.store_path {
            let store = ResponseStore::open(path, StoreConfig::default()).map_err(|e| {
                EngineError::InvalidInput(format!(
                    "cache: cannot open response store at {}: {e}",
                    path.display()
                ))
            })?;
            if !client.attach_store(Arc::new(store)) {
                return Err(EngineError::InvalidInput(
                    "cache: client already has a response store attached".into(),
                ));
            }
        }
        if let Some(path) = self.resilience.journal_path {
            let journal = ResponseStore::open(&path, StoreConfig::default()).map_err(|e| {
                EngineError::InvalidInput(format!(
                    "resilience: cannot open journal at {}: {e}",
                    path.display()
                ))
            })?;
            if !client.attach_journal(Arc::new(journal)) {
                return Err(EngineError::InvalidInput(
                    "resilience: client already has a journal attached".into(),
                ));
            }
        }
        let mut engine = Engine::new(client, self.corpus)
            .with_budget(self.budget)
            .with_parallelism(self.parallelism)
            .with_pack_width(self.pack_width)
            .with_seed(self.seed)
            .with_criterion_label(self.criterion_label);
        if let Some(policy) = self.resilience.failure_policy {
            engine = engine.with_failure_policy(policy);
        }
        let trace = if self.trace {
            let trace = Arc::new(Trace::new());
            engine = engine.with_trace(Arc::clone(&trace));
            Some(trace)
        } else {
            None
        };
        Ok(Session { engine, trace })
    }

    /// Build the session.
    ///
    /// # Panics
    /// Panics if no client was provided; use [`SessionBuilder::try_build`]
    /// to handle that as an error instead.
    pub fn build(self) -> Session {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// A configured declarative-prompt-engineering session.
///
/// ```
/// use std::sync::Arc;
/// use crowdprompt_core::ops::sort::SortStrategy;
/// use crowdprompt_core::{Budget, Corpus, Session};
/// use crowdprompt_oracle::task::SortCriterion;
/// use crowdprompt_oracle::world::WorldModel;
/// use crowdprompt_oracle::{LlmClient, ModelProfile, SimulatedLlm};
///
/// // Three items with latent scores; the simulator plays the LLM.
/// let mut world = WorldModel::new();
/// let items: Vec<_> = (0..3)
///     .map(|i| {
///         let id = world.add_item(format!("snippet {i}"));
///         world.set_score(id, f64::from(i) / 3.0);
///         id
///     })
///     .collect();
/// let corpus = Corpus::from_world(&world, &items);
/// let llm = SimulatedLlm::new(ModelProfile::perfect(), Arc::new(world), 1);
///
/// let session = Session::builder()
///     .client(Arc::new(LlmClient::new(Arc::new(llm))))
///     .corpus(corpus)
///     .budget(Budget::usd(0.10))
///     .criterion("by quality")
///     .build();
/// let query = session
///     .query(&items)
///     .sort_with(SortCriterion::LatentScore, SortStrategy::Pairwise);
/// let run = session.plan(query).unwrap().execute(&session).unwrap();
/// assert_eq!(run.output.items().unwrap()[0], items[2]); // highest score first
/// ```
pub struct Session {
    engine: Engine,
    trace: Option<Arc<Trace>>,
}

impl Session {
    /// Start building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder {
            client: None,
            routing: RoutingConfig::default(),
            corpus: Corpus::new(),
            budget: Budget::Unlimited,
            parallelism: 8,
            pack_width: 1,
            seed: 0,
            criterion_label: "by the given criterion".to_owned(),
            trace: false,
            resilience: ResilienceConfig::default(),
            cache: CacheConfig::default(),
        }
    }

    /// Promote this session into a multi-tenant server: the session's
    /// configured engine — client, corpus, pack width, failure policy,
    /// everything but a budget — becomes the shared serving stack, and
    /// tenants are attached on the returned [`crate::serve::ServerBuilder`].
    /// Served spend is billed to tenant ledgers only, so a session built
    /// with a [`SessionBuilder::budget`] is refused by
    /// [`crate::serve::ServerBuilder::try_build`]: give each tenant its
    /// budget ([`crate::serve::TenantSpec::with_budget`]) instead.
    ///
    /// Consumes the session: once serving, all access goes through
    /// admission control, so the single-user front door must close.
    #[must_use]
    pub fn serve(self) -> crate::serve::ServerBuilder {
        crate::serve::ServerBuilder::new().engine(self.engine)
    }

    /// The underlying engine (for advanced composition).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Total spend so far.
    pub fn spent_usd(&self) -> f64 {
        self.engine.budget().spent_usd()
    }

    /// The execution trace, if tracing was enabled at build time.
    pub fn trace(&self) -> Option<&Arc<Trace>> {
        self.trace.as_ref()
    }

    /// Start a declarative query over `items` — the plan layer's front
    /// door. Build the chain, then [`Session::plan`] it to see the chosen
    /// physical plan (`explain()`) before executing.
    pub fn query(&self, items: &[ItemId]) -> Query {
        Query::over(items)
    }

    /// Lower a query to a physical plan against this session's engine,
    /// budget, and corpus (applying the planner's default rewrites).
    pub fn plan(&self, query: Query) -> Result<Plan, EngineError> {
        query.plan_on(&self.engine)
    }

    /// Build the shared embedding-blocking index over items — the index a
    /// resolve, cluster, join or impute node builds over its own items —
    /// for batched neighbor queries of custom blocking rules.
    pub fn blocking_index(&self, items: &[ItemId]) -> Result<crate::BlockingIndex, EngineError> {
        crate::BlockingIndex::build(&self.engine, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::count::CountStrategy;
    use crate::ops::filter::FilterStrategy;
    use crate::ops::max::MaxStrategy;
    use crate::ops::sort::SortStrategy;
    use crate::outcome::Outcome;
    use crate::plan::PlanRun;
    use crowdprompt_oracle::model::ModelProfile;
    use crowdprompt_oracle::sim::SimulatedLlm;
    use crowdprompt_oracle::task::SortCriterion;
    use crowdprompt_oracle::world::WorldModel;

    fn run(s: &Session, query: Query) -> PlanRun {
        s.plan(query).unwrap().execute(s).unwrap()
    }

    fn items(s: &Session, query: Query) -> Outcome<Vec<ItemId>> {
        run(s, query).into_outcome(|out| out.into_items().unwrap())
    }

    fn session() -> (Session, Vec<ItemId>) {
        session_with(Budget::usd(10.0))
    }

    fn session_with(budget: Budget) -> (Session, Vec<ItemId>) {
        let mut w = WorldModel::new();
        let ids: Vec<ItemId> = (0..10)
            .map(|i| {
                let id = w.add_item(format!("entry {i}"));
                w.set_score(id, i as f64 / 10.0);
                w.set_salience(id, 1.0);
                w.set_flag(id, "big", i >= 5);
                id
            })
            .collect();
        let corpus = Corpus::from_world(&w, &ids);
        let llm = Arc::new(SimulatedLlm::new(ModelProfile::perfect(), Arc::new(w), 1));
        let client = Arc::new(LlmClient::new(llm));
        let s = Session::builder()
            .client(client)
            .corpus(corpus)
            .budget(budget)
            .seed(5)
            .criterion("by size")
            .build();
        (s, ids)
    }

    #[test]
    fn session_sort_and_spend_tracking() {
        let (s, ids) = session();
        assert_eq!(s.spent_usd(), 0.0);
        let out = items(
            &s,
            s.query(&ids)
                .sort_with(SortCriterion::LatentScore, SortStrategy::SinglePrompt),
        );
        assert_eq!(out.value[0], ids[9]);
        // Perfect model is free; spend stays 0 but calls happened.
        assert_eq!(out.calls, 1);
    }

    #[test]
    fn session_filter_count_roundtrip() {
        let (s, ids) = session();
        let kept = items(&s, s.query(&ids).filter_with("big", FilterStrategy::Single));
        assert_eq!(kept.value.len(), 5);
        let n = run(&s, s.query(&ids).count_with("big", CountStrategy::PerItem))
            .into_outcome(|out| out.count().unwrap());
        assert_eq!(n.value, 5);
    }

    #[test]
    fn session_max_and_topk_agree() {
        let (s, ids) = session();
        let max = run(
            &s,
            s.query(&ids)
                .max_with(SortCriterion::LatentScore, MaxStrategy::Tournament),
        )
        .into_outcome(|out| out.max_item().unwrap());
        let top = items(
            &s,
            s.query(&ids).top_k_with(SortCriterion::LatentScore, 3, 2),
        );
        assert_eq!(max.value, top.value[0]);
    }

    /// A degraded run's salvage note lands in the step report of the node
    /// whose operator left it.
    #[test]
    fn degraded_filter_reports_its_quarantine_in_its_step() {
        let mut w = WorldModel::new();
        let ids: Vec<ItemId> = (0..6)
            .map(|i| {
                let id = w.add_item(if i == 4 {
                    format!("oversize record {i} {}", "lorem ipsum ".repeat(200))
                } else {
                    format!("record {i}")
                });
                w.set_flag(id, "active", i % 2 == 0);
                id
            })
            .collect();
        let corpus = Corpus::from_world(&w, &ids);
        // Item 4 overflows the context window: a hard dispatch failure.
        let profile = ModelProfile::perfect().with_context_window(200);
        let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(w), 3));
        let s = Session::builder()
            .client(Arc::new(LlmClient::new(llm)))
            .corpus(corpus)
            .resilience(ResilienceConfig::new().failure_policy(FailurePolicy::degrade()))
            .try_build()
            .unwrap();
        let mut run = run(
            &s,
            s.query(&ids).filter_with("active", FilterStrategy::Single),
        );
        let notes = std::mem::take(&mut run.steps[0].salvage);
        let kept = run.into_outcome(|out| out.into_items().unwrap());
        assert_eq!(kept.value, vec![ids[0], ids[2]], "item 4 is quarantined");
        assert_eq!(notes.len(), 1, "{notes:?}");
        assert_eq!((notes[0].op, notes[0].salvaged), ("filter", 5));
        let lost: Vec<usize> = notes[0].quarantined.iter().map(|(i, _)| *i).collect();
        assert_eq!(lost, vec![4]);
    }

    #[test]
    #[should_panic(expected = "requires a client")]
    fn builder_requires_client() {
        let _ = Session::builder().build();
    }

    #[test]
    fn try_build_surfaces_missing_client_as_error() {
        match Session::builder().try_build() {
            Err(EngineError::InvalidInput(msg)) => {
                assert!(msg.contains("requires a client"));
            }
            Ok(_) => panic!("clientless builder must not produce a session"),
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn try_build_succeeds_with_client() {
        let w = WorldModel::new();
        let llm = Arc::new(SimulatedLlm::new(ModelProfile::perfect(), Arc::new(w), 1));
        let session = Session::builder()
            .client(Arc::new(LlmClient::new(llm)))
            .try_build()
            .expect("client provided");
        assert_eq!(session.spent_usd(), 0.0);
    }

    #[test]
    fn config_group_errors_name_the_group() {
        let mk_client = || {
            let w = WorldModel::new();
            let llm = Arc::new(SimulatedLlm::new(ModelProfile::perfect(), Arc::new(w), 1));
            Arc::new(LlmClient::new(llm))
        };
        let unopenable = std::env::temp_dir()
            .join(format!("crowdprompt-no-such-dir-{}", std::process::id()))
            .join("store.log");
        match Session::builder()
            .client(mk_client())
            .cache(CacheConfig::new().store_path(&unopenable))
            .try_build()
        {
            Err(EngineError::InvalidInput(msg)) => {
                assert!(msg.starts_with("cache:"), "group not named in: {msg}");
            }
            Ok(_) => panic!("a store in a missing directory must not build"),
            Err(other) => panic!("expected cache group error, got {other:?}"),
        }
        match Session::builder()
            .client(mk_client())
            .routing(RoutingConfig::new().hedge_after(Duration::from_millis(5)))
            .try_build()
        {
            Err(EngineError::InvalidInput(msg)) => {
                assert!(msg.starts_with("routing:"), "group not named in: {msg}");
            }
            Ok(_) => panic!("hedge knob without backends must not build"),
            Err(other) => panic!("expected routing group error, got {other:?}"),
        }
        match Session::builder().try_build() {
            Err(EngineError::InvalidInput(msg)) => {
                assert!(msg.starts_with("routing:"), "group not named in: {msg}");
            }
            Ok(_) => panic!("clientless builder must not build"),
            Err(other) => panic!("expected routing group error, got {other:?}"),
        }
    }

    #[test]
    fn session_serve_promotes_the_engine_into_a_server() {
        // Tenant ledgers are the only budgets on the serve door: a session
        // cap would be silently ignored there, so it is refused at build.
        let (capped, _) = session_with(Budget::usd(0.0));
        match capped
            .serve()
            .tenant(crate::serve::TenantSpec::new("alice"))
            .try_build()
        {
            Err(crate::serve::ServeError::Invalid(msg)) => {
                assert!(msg.starts_with("serve:"), "{msg}");
                assert!(msg.contains("give each tenant a budget"), "{msg}");
            }
            other => panic!("a capped session must not promote, got {other:?}"),
        }
        let (s, ids) = session_with(Budget::Unlimited);
        let server = s
            .serve()
            .tenant(crate::serve::TenantSpec::new("alice"))
            .try_build()
            .expect("session promotes to a server");
        let run = server
            .submit(
                "alice",
                vec![crowdprompt_oracle::TaskDescriptor::CheckPredicate {
                    item: ids[7],
                    predicate: "big".into(),
                }],
            )
            .expect("tenant batch runs on the session's engine");
        assert!(run.is_complete());
    }

    #[test]
    fn store_path_warm_starts_a_fresh_session_without_new_calls() {
        let path = std::env::temp_dir().join(format!(
            "crowdprompt-session-store-{}.log",
            std::process::id()
        ));
        let mut lock = path.as_os_str().to_os_string();
        lock.push(".lock");
        let lock = std::path::PathBuf::from(lock);
        std::fs::remove_file(&path).ok();

        let build = || {
            let mut w = WorldModel::new();
            let ids: Vec<ItemId> = (0..8)
                .map(|i| {
                    let id = w.add_item(format!("entry {i}"));
                    w.set_flag(id, "big", i >= 4);
                    id
                })
                .collect();
            let corpus = Corpus::from_world(&w, &ids);
            let llm = Arc::new(SimulatedLlm::new(ModelProfile::perfect(), Arc::new(w), 1));
            let s = Session::builder()
                .client(Arc::new(LlmClient::new(llm)))
                .corpus(corpus)
                .cache(CacheConfig::new().store_path(&path))
                .try_build()
                .expect("store session builds");
            (s, ids)
        };

        let (cold, ids) = build();
        let cold_kept = items(
            &cold,
            Query::over(&ids).filter_with("big", FilterStrategy::Single),
        );
        assert!(cold.engine().client().stats().calls() > 0);
        drop(cold); // releases the writer lock

        let (warm, ids) = build();
        let warm_kept = items(
            &warm,
            Query::over(&ids).filter_with("big", FilterStrategy::Single),
        );
        assert_eq!(
            warm.engine().client().stats().calls(),
            0,
            "warm session must be served entirely from the persistent store"
        );
        assert!(warm.engine().client().stats().store_hits() > 0);
        assert_eq!(cold_kept.value, warm_kept.value);

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&lock).ok();
    }

    #[test]
    fn tracing_records_per_kind_breakdown() {
        let mut w = WorldModel::new();
        let ids: Vec<ItemId> = (0..6)
            .map(|i| {
                let id = w.add_item(format!("t{i}"));
                w.set_score(id, i as f64 / 6.0);
                w.set_flag(id, "f", i % 2 == 0);
                id
            })
            .collect();
        let corpus = Corpus::from_world(&w, &ids);
        let llm = Arc::new(SimulatedLlm::new(ModelProfile::perfect(), Arc::new(w), 2));
        let s = Session::builder()
            .client(Arc::new(LlmClient::new(llm)))
            .corpus(corpus)
            .tracing(true)
            .build();
        run(
            &s,
            s.query(&ids)
                .sort_with(SortCriterion::LatentScore, SortStrategy::Pairwise),
        );
        run(&s, s.query(&ids).filter_with("f", FilterStrategy::Single));
        let summary = s.trace().expect("tracing enabled").summary();
        assert_eq!(summary.by_kind["compare"].calls, 15);
        assert_eq!(summary.by_kind["check_predicate"].calls, 6);
        assert!(summary.render().contains("compare"));
    }
}
