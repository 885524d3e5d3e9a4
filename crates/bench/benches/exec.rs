//! Micro-benchmarks for the sharded, coalescing client and the pipelined
//! executor — the PR-1 tentpole.
//!
//! `seed_mutex` benches run against a faithful replica of the seed client
//! (one global `Mutex<HashMap>` cache, no coalescing) so the sharding and
//! coalescing wins are measured against the real baseline, not a strawman.
//!
//! Run with `CRITERION_JSON=BENCH_exec.json cargo bench --bench exec` to
//! record a JSON-lines baseline.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::collections::HashMap;
use std::sync::Arc;

use crowdprompt_core::{Budget, Corpus, Engine};
use crowdprompt_oracle::task::TaskDescriptor;
use crowdprompt_oracle::types::{CompletionRequest, CompletionResponse, LanguageModel};
use crowdprompt_oracle::world::{ItemId, WorldModel};
use crowdprompt_oracle::{LlmClient, LlmError, ModelProfile, SimulatedLlm};
use parking_lot::Mutex;

/// Replica of the seed `LlmClient` hot path: one global mutex around the
/// whole response cache, no in-flight coalescing.
struct SeedMutexClient {
    model: Arc<dyn LanguageModel>,
    cache: Mutex<HashMap<u64, CompletionResponse>>,
}

impl SeedMutexClient {
    fn new(model: Arc<dyn LanguageModel>) -> Self {
        SeedMutexClient {
            model,
            cache: Mutex::new(HashMap::new()),
        }
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
        let key = request.fingerprint();
        if let Some(mut hit) = self.cache.lock().get(&key).cloned() {
            hit.cached = true;
            return Ok(hit);
        }
        let resp = self.model.complete(request)?;
        self.cache.lock().insert(key, resp.clone());
        Ok(resp)
    }
}

fn world_with(n: usize) -> (Arc<WorldModel>, Vec<ItemId>) {
    let mut w = WorldModel::new();
    let ids = (0..n)
        .map(|i| {
            let id = w.add_item(format!("benchmark item number {i}"));
            w.set_flag(id, "p", i % 2 == 0);
            id
        })
        .collect();
    (Arc::new(w), ids)
}

fn requests_over(ids: &[ItemId]) -> Vec<CompletionRequest> {
    ids.iter()
        .map(|id| {
            CompletionRequest::new(
                format!("Does item {} satisfy p?", id.0),
                TaskDescriptor::CheckPredicate {
                    item: *id,
                    predicate: "p".into(),
                },
            )
        })
        .collect()
}

const KEYS: usize = 64;
const BURST_KEYS: usize = 16;
const OPS_PER_THREAD: usize = 1_000;

/// `threads` workers each issue `OPS_PER_THREAD` requests over `KEYS`
/// distinct fingerprints — the duplicate-heavy shape concurrent strategies
/// (cascades, sequential asking) produce.
fn hammer<C: Sync>(
    client: &C,
    requests: &[CompletionRequest],
    threads: usize,
    f: impl Fn(&C, &CompletionRequest) + Sync,
) {
    std::thread::scope(|scope| {
        for t in 0..threads {
            let f = &f;
            scope.spawn(move || {
                for i in 0..OPS_PER_THREAD {
                    f(client, &requests[(i * 31 + t * 7) % KEYS]);
                }
            });
        }
    });
}

/// Hot-cache throughput: every request is already cached, so the measured
/// work is pure cache-lookup synchronization — the seed's global mutex vs
/// the N-way sharded `RwLock`.
fn bench_hot_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("client_hot_cache");
    let (world, ids) = world_with(KEYS);
    let requests = requests_over(&ids);

    for threads in [8usize, 16, 32] {
        let llm = Arc::new(SimulatedLlm::new(
            ModelProfile::perfect(),
            Arc::clone(&world),
            7,
        ));
        let seed = SeedMutexClient::new(llm.clone() as Arc<dyn LanguageModel>);
        for r in &requests {
            seed.complete(r).unwrap();
        }
        group.bench_with_input(
            BenchmarkId::new("seed_mutex", threads),
            &threads,
            |b, &t| b.iter(|| hammer(&seed, &requests, t, |c, r| drop(c.complete(r).unwrap()))),
        );

        let sharded = LlmClient::new(llm as Arc<dyn LanguageModel>);
        for r in &requests {
            sharded.complete(r).unwrap();
        }
        group.bench_with_input(BenchmarkId::new("sharded", threads), &threads, |b, &t| {
            b.iter(|| hammer(&sharded, &requests, t, |c, r| drop(c.complete(r).unwrap())))
        });
    }
    group.finish();
}

/// A backend with per-call latency and bounded concurrency — the shape of a
/// real chat-completion API (network RTT plus provider rate limits). Excess
/// concurrent callers queue, so duplicated backend work directly costs wall
/// time.
struct LatencyLimitedModel {
    inner: SimulatedLlm,
    latency: std::time::Duration,
    slots: parking_lot::Mutex<usize>,
    available: parking_lot::Condvar,
}

impl LatencyLimitedModel {
    fn new(inner: SimulatedLlm, latency_us: u64, max_concurrent: usize) -> Self {
        LatencyLimitedModel {
            inner,
            latency: std::time::Duration::from_micros(latency_us),
            slots: parking_lot::Mutex::new(max_concurrent),
            available: parking_lot::Condvar::new(),
        }
    }
}

impl LanguageModel for LatencyLimitedModel {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn context_window(&self) -> u32 {
        self.inner.context_window()
    }
    fn pricing(&self) -> crowdprompt_oracle::Pricing {
        self.inner.pricing()
    }
    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
        let mut slots = self.slots.lock();
        while *slots == 0 {
            self.available.wait(&mut slots);
        }
        *slots -= 1;
        drop(slots);
        std::thread::sleep(self.latency);
        let out = self.inner.complete(request);
        *self.slots.lock() += 1;
        self.available.notify_one();
        out
    }
}

/// Cold-burst throughput — the headline tentpole number: a fresh cache per
/// iteration, 16 threads racing on the same `BURST_KEYS` requests against a
/// latency- and capacity-limited backend (500 µs per call, 2 concurrent
/// slots — the regime of a provider rate limit). The seed client dispatches
/// one backend call per concurrent miss — up to 16 per key — and queues on
/// the backend's capacity; the sharded client coalesces each key into a
/// single call, so duplicate traffic never reaches the rate limit.
fn bench_cold_burst(c: &mut Criterion) {
    let mut group = c.benchmark_group("client_cold_burst_16t");
    let (world, ids) = world_with(KEYS);
    let requests = requests_over(&ids);
    let llm: Arc<dyn LanguageModel> = Arc::new(LatencyLimitedModel::new(
        SimulatedLlm::new(ModelProfile::gpt35_like(), world, 7),
        500,
        2,
    ));

    group.bench_function("seed_mutex", |b| {
        b.iter_batched(
            || SeedMutexClient::new(Arc::clone(&llm)),
            |client| burst(&client, &requests, |c, r| drop(c.complete(r).unwrap())),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("sharded_coalescing", |b| {
        b.iter_batched(
            || LlmClient::new(Arc::clone(&llm)),
            |client| burst(&client, &requests, |c, r| drop(c.complete(r).unwrap())),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// Round-synchronized duplicate bursts: in each round all 16 threads issue
/// the *same* temperature-0 request simultaneously — the shape concurrent
/// strategies (cascades, sequential asking, repeated sub-plans) produce when
/// they fan the same unit task out at the same moment.
fn burst<C: Sync>(
    client: &C,
    requests: &[CompletionRequest],
    f: impl Fn(&C, &CompletionRequest) + Sync,
) {
    let barrier = std::sync::Barrier::new(16);
    std::thread::scope(|scope| {
        for _ in 0..16 {
            let f = &f;
            let barrier = &barrier;
            scope.spawn(move || {
                for request in requests.iter().take(BURST_KEYS) {
                    barrier.wait();
                    f(client, request);
                }
            });
        }
    });
}

/// Engine-level pipelined dispatch over a duplicate-heavy batch (adaptive
/// claim sizing).
fn bench_engine_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_run_many_dup_heavy");
    let (world, ids) = world_with(KEYS);

    let tasks: Vec<TaskDescriptor> = (0..4096)
        .map(|i| TaskDescriptor::CheckPredicate {
            item: ids[i % KEYS],
            predicate: "p".into(),
        })
        .collect();

    let llm = Arc::new(SimulatedLlm::new(
        ModelProfile::perfect(),
        Arc::clone(&world),
        7,
    ));
    let corpus = Corpus::from_world(&world, &ids);
    let adaptive = Engine::new(Arc::new(LlmClient::new(llm)), corpus)
        .with_budget(Budget::Unlimited)
        .with_parallelism(16);
    group.bench_function("adaptive_claims", |b| {
        b.iter(|| adaptive.run_many(tasks.clone()).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hot_cache,
    bench_cold_burst,
    bench_engine_pipeline
);
criterion_main!(benches);
