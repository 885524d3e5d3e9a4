//! Multi-backend routing benchmark: the per-call latency tail a caller sees
//! with and without hedging.
//!
//! Scenario: one model tier served by two heterogeneous backends over the
//! same simulator (so answers are bit-identical however traffic routes):
//!
//! * `fast-flaky` — 1.5 ms per call, but 8% of calls straggle at 25× (~37
//!   ms) and 2% fail transiently; 0.8× price.
//! * `slow-steady` — a constant 9 ms, never fails; 1.0× price.
//!
//! Unhedged routing sends everything to the cheap fast backend and eats the
//! straggler tail: p99 ≈ the 37 ms straggler. Hedged routing duplicates any
//! call that has not answered within ~3 ms onto the steady backend, so a
//! straggler completes at ~hedge delay + 9 ms instead — the classic
//! tail-at-scale trade of a few duplicate calls for an order-of-magnitude
//! p99 win.
//!
//! The bench measures the per-call latency distribution directly, prints
//! p50/p99, and asserts in-bench that (a) the hedged tail beats the
//! unhedged one by ≥2×, and (b) routed results — hedged or not — are
//! bit-identical to the one-backend `LlmClient::new`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crowdprompt_oracle::backend::{Backend, BackendRegistry, LatencyProfile, SimBackend};
use crowdprompt_oracle::model::NoiseProfile;
use crowdprompt_oracle::route::{HedgeConfig, RoutePolicy};
use crowdprompt_oracle::task::TaskDescriptor;
use crowdprompt_oracle::types::{CompletionRequest, LanguageModel};
use crowdprompt_oracle::world::{ItemId, WorldModel};
use crowdprompt_oracle::{LlmClient, ModelProfile, SimulatedLlm};

const ITEMS: usize = 300;
const FAST_BASE_US: u64 = 1_500;
const FAST_TAIL_PROB: f64 = 0.08;
const FAST_TAIL_MULT: f64 = 25.0;
const SLOW_BASE_US: u64 = 9_000;
const HEDGE_AFTER: Duration = Duration::from_millis(3);

fn burst_world() -> (Arc<WorldModel>, Vec<ItemId>) {
    let mut w = WorldModel::new();
    let ids = (0..ITEMS)
        .map(|i| {
            let id = w.add_item(format!("inbound request {i}: classify priority {}", i % 13));
            w.set_flag(id, "urgent", i % 3 == 0);
            id
        })
        .collect();
    (Arc::new(w), ids)
}

fn shared_model(world: &Arc<WorldModel>) -> Arc<dyn LanguageModel> {
    Arc::new(SimulatedLlm::new(
        ModelProfile::perfect(),
        Arc::clone(world),
        7,
    ))
}

/// The two-backend registry: fast-flaky (cheap) + slow-steady.
fn registry(model: &Arc<dyn LanguageModel>) -> BackendRegistry {
    let fast: Arc<dyn Backend> = Arc::new(
        SimBackend::new("fast-flaky", Arc::clone(model))
            .with_latency(LatencyProfile::with_tail(
                FAST_BASE_US,
                FAST_TAIL_PROB,
                FAST_TAIL_MULT,
            ))
            .with_price_multiplier(0.8)
            .with_transport_noise(NoiseProfile {
                unavailable_prob: 0.02,
                ..NoiseProfile::perfect()
            })
            .with_seed(11),
    );
    let slow: Arc<dyn Backend> = Arc::new(
        SimBackend::new("slow-steady", Arc::clone(model))
            .with_latency(LatencyProfile::fixed(SLOW_BASE_US))
            .with_seed(12),
    );
    BackendRegistry::new(vec![fast, slow]).expect("two distinct same-tier backends")
}

fn policy(hedged: bool) -> RoutePolicy {
    RoutePolicy {
        max_retries: 3,
        hedge: hedged.then(|| HedgeConfig::after(HEDGE_AFTER)),
        ..RoutePolicy::default()
    }
}

fn routed_client(model: &Arc<dyn LanguageModel>, hedged: bool) -> Arc<LlmClient> {
    Arc::new(LlmClient::routed(registry(model), policy(hedged)))
}

fn check_request(id: ItemId) -> CompletionRequest {
    CompletionRequest::new(
        format!("Is request {} urgent? Answer Yes or No.", id.0),
        TaskDescriptor::CheckPredicate {
            item: id,
            predicate: "urgent".into(),
        },
    )
}

fn percentile_ns(sorted: &[u64], p: f64) -> u64 {
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank]
}

/// Median of the samples at or above the `p` percentile — a tail statistic
/// the in-bench assertion can use without single-sample sensitivity: one
/// noisy-neighbor scheduler spike moves a lone p99 observation, but not the
/// median of the worst 5%.
fn tail_median_ns(sorted: &[u64], p: f64) -> u64 {
    let from = ((sorted.len() - 1) as f64 * p).round() as usize;
    let tail = &sorted[from..];
    tail[tail.len() / 2]
}

/// Per-call latency distribution, measured directly: every item issued once
/// (all fingerprints distinct, so neither cache nor coalescer can hide the
/// backend), cold client per configuration.
fn bench_tail_latency(_c: &mut Criterion) {
    let (world, ids) = burst_world();
    let model = shared_model(&world);

    // Reference answers from the one-backend roster.
    let plain = LlmClient::new(Arc::clone(&model));
    let reference: Vec<String> = ids
        .iter()
        .map(|id| plain.complete(&check_request(*id)).unwrap().text)
        .collect();

    let mut tails = [0u64; 2];
    for (slot, (label, hedged)) in [("unhedged", false), ("hedged", true)].iter().enumerate() {
        let client = routed_client(&model, *hedged);
        let mut latencies: Vec<u64> = Vec::with_capacity(ids.len());
        let mut texts: Vec<String> = Vec::with_capacity(ids.len());
        for id in &ids {
            let request = check_request(*id);
            let started = Instant::now();
            let response = client.complete(&request).expect("routing absorbs failures");
            latencies.push(started.elapsed().as_nanos() as u64);
            texts.push(response.text);
        }
        assert_eq!(
            texts, reference,
            "routed results must be bit-identical to the one-backend roster"
        );
        latencies.sort_unstable();
        let p50 = percentile_ns(&latencies, 0.50);
        let p99 = percentile_ns(&latencies, 0.99);
        println!("bench: route_tail/{label:<8} p50 {p50:>12} ns   p99 {p99:>12} ns");
        tails[slot] = tail_median_ns(&latencies, 0.95);
        if *hedged {
            let router = client.router().expect("routed client");
            let stats = router.stats();
            assert!(
                stats.hedges_launched > 0,
                "stragglers must trigger hedges (launched {})",
                stats.hedges_launched
            );
        }
    }
    // The >=2x tail-latency gate, asserted over the median of each run's
    // worst 5% (robust on noisy shared CI runners, where a lone p99
    // observation can absorb a scheduler spike).
    assert!(
        tails[1] * 2 <= tails[0],
        "hedged tail latency must beat unhedged by >=2x: {} vs {} ns (worst-5% medians)",
        tails[1],
        tails[0]
    );
}

criterion_group!(benches, bench_tail_latency);
criterion_main!(benches);
