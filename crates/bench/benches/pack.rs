//! Packed-prompt benchmarks — the PR-4 tentpole.
//!
//! A 4096-item filter burst against a latency- and capacity-limited backend
//! (500 µs per call, 4 concurrent slots — the regime of a provider rate
//! limit), per-item dispatch vs packed multi-item prompts. Packing at width
//! B divides the backend call count by B, so under a rate limit the
//! wall-clock follows: 4096 calls at 4-way concurrency is ~512 ms of pure
//! backend time, 256 packed calls is ~32 ms.
//!
//! Besides the timed groups, the bench prints the measured backend call
//! counts (`backend_calls_*`), asserts packing cuts them at least 4×, and
//! asserts the packed result is bit-identical to the per-item result — if
//! packing ever changed answers, the bench fails rather than report a
//! meaningless speedup. The end-to-end harness never runs against a
//! rate-limited backend, so this is the only measurement of that regime.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::sync::Arc;

use crowdprompt_core::ops::filter::{filter, FilterStrategy};
use crowdprompt_core::{Budget, Corpus, Engine};
use crowdprompt_oracle::types::{CompletionRequest, CompletionResponse, LanguageModel};
use crowdprompt_oracle::world::{ItemId, WorldModel};
use crowdprompt_oracle::{LlmClient, LlmError, ModelProfile, SimulatedLlm};

const ITEMS: usize = 4096;
const PACK: usize = 16;
const LATENCY_US: u64 = 500;
const BACKEND_SLOTS: usize = 4;

/// A backend with per-call latency and bounded concurrency — the shape of a
/// real chat-completion API (network RTT plus provider rate limits).
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

/// 4096 distinct records (no duplicate fingerprints, so the cache and
/// coalescer cannot collapse the per-item burst — call counts are real).
fn burst_world() -> (Arc<WorldModel>, Vec<ItemId>) {
    let mut w = WorldModel::new();
    let ids = (0..ITEMS)
        .map(|i| {
            let id = w.add_item(format!(
                "support ticket {i}: customer reports issue {}",
                i % 97
            ));
            w.set_flag(id, "relevant", i % 3 == 0);
            id
        })
        .collect();
    (Arc::new(w), ids)
}

fn engine_over(
    world: &Arc<WorldModel>,
    ids: &[ItemId],
    llm: Arc<dyn LanguageModel>,
    pack: usize,
) -> Engine {
    Engine::new(
        Arc::new(LlmClient::new(llm)),
        Corpus::from_world(world, ids),
    )
    .with_budget(Budget::Unlimited)
    .with_parallelism(16)
    .with_pack_width(pack)
}

/// Wall-clock of the 4096-item filter burst at each dispatch width, against
/// the rate-limited backend. Fresh engine (and cache) per iteration.
fn bench_filter_burst(c: &mut Criterion) {
    let mut group = c.benchmark_group("filter_pack_4096");
    let (world, ids) = burst_world();
    let llm: Arc<dyn LanguageModel> = Arc::new(LatencyLimitedModel::new(
        SimulatedLlm::new(ModelProfile::perfect(), Arc::clone(&world), 7),
        LATENCY_US,
        BACKEND_SLOTS,
    ));

    for (label, pack) in [("per_item", 1), ("packed_w8", 8), ("packed_w16", PACK)] {
        let world = Arc::clone(&world);
        let ids = ids.clone();
        let llm = Arc::clone(&llm);
        group.bench_function(label, |b| {
            b.iter_batched(
                || engine_over(&world, &ids, Arc::clone(&llm), pack),
                |engine| filter(&engine, &ids, "relevant", FilterStrategy::Single).unwrap(),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();

    // Backend-call accounting and the equivalence gate, on the raw (no
    // latency) simulator: call counts are identical, and the run is fast.
    let fast: Arc<dyn LanguageModel> = Arc::new(SimulatedLlm::new(
        ModelProfile::perfect(),
        Arc::clone(&world),
        7,
    ));
    let per_item_engine = engine_over(&world, &ids, Arc::clone(&fast), 1);
    let per_item = filter(&per_item_engine, &ids, "relevant", FilterStrategy::Single).unwrap();
    let per_item_calls = per_item_engine.client().stats().calls();

    let packed_engine = engine_over(&world, &ids, fast, PACK);
    let packed = filter(&packed_engine, &ids, "relevant", FilterStrategy::Single).unwrap();
    let packed_calls = packed_engine.client().stats().calls();

    assert_eq!(
        per_item.value, packed.value,
        "packed filter must be bit-identical to the per-item path"
    );
    assert!(
        packed_calls * 4 <= per_item_calls,
        "packing must cut backend calls at least 4x: {packed_calls} vs {per_item_calls}"
    );
    println!(
        "bench: filter_pack_4096/backend_calls per_item {per_item_calls} packed_w16 {packed_calls}"
    );
}

criterion_group!(benches, bench_filter_burst);
criterion_main!(benches);
