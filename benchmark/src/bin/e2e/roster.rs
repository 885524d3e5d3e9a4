//! The simulated serving roster every workload dispatches to: the model and
//! the two backends of `crates/bench/benches/route.rs`, with or without that
//! bench's latency model, wrapped for tracing in a traced process.

use std::sync::Arc;
use std::time::Duration;

use crowdprompt_core::RoutingConfig;
use crowdprompt_oracle::backend::{Backend, LatencyProfile, SimBackend};
use crowdprompt_oracle::model::{ModelProfile, NoiseProfile};
use crowdprompt_oracle::types::LanguageModel;
use crowdprompt_oracle::world::WorldModel;
use crowdprompt_oracle::SimulatedLlm;

use crate::trace::{TracedBackend, TracedModel};

/// Hedge a call that has not answered after this long (route.rs's value).
const HEDGE_AFTER: Duration = Duration::from_millis(3);
/// Advertised concurrency of each backend.
const SLOTS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Latency {
    /// `fast-flaky` 1.5 ms with 8 % stragglers at 25×, `slow-steady` 9 ms:
    /// wall clock is backend sleep divided by achieved overlap.
    Route,
    /// No sleep anywhere: wall clock is the stack's own CPU.
    Zero,
}

/// The noisy, priced gpt-3.5-like simulator over `world`: priced so the
/// ledgers have something to agree on, noisy so `quality` can move.
pub fn model(world: Arc<WorldModel>, seed: u64, traced: bool) -> Arc<dyn LanguageModel> {
    let sim: Arc<dyn LanguageModel> =
        Arc::new(SimulatedLlm::new(ModelProfile::gpt35_like(), world, seed));
    if traced {
        TracedModel::wrap(sim)
    } else {
        sim
    }
}

/// Whether the router hedges a call that has not answered after
/// [`HEDGE_AFTER`]. A hedging router dispatches every call from a thread of
/// its own, which at zero latency is most of a call's cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hedging {
    On,
    Off,
}

/// A fresh routing group over `model`. Fresh backends carry fresh breaker
/// state and call counters, which is what makes an op *cold*.
pub fn routing(
    model: &Arc<dyn LanguageModel>,
    latency: Latency,
    hedging: Hedging,
    seed: u64,
    traced: bool,
) -> RoutingConfig {
    let (fast, slow) = match latency {
        Latency::Route => (
            LatencyProfile::with_tail(1_500, 0.08, 25.0),
            LatencyProfile::fixed(9_000),
        ),
        Latency::Zero => (LatencyProfile::zero(), LatencyProfile::zero()),
    };
    let fast_flaky = SimBackend::new("fast-flaky", Arc::clone(model))
        .with_latency(fast)
        .with_price_multiplier(0.8)
        .with_slots(SLOTS)
        .with_transport_noise(NoiseProfile {
            unavailable_prob: 0.02,
            ..NoiseProfile::perfect()
        })
        .with_seed(seed.wrapping_add(11));
    let slow_steady = SimBackend::new("slow-steady", Arc::clone(model))
        .with_latency(slow)
        .with_slots(SLOTS)
        .with_seed(seed.wrapping_add(12));
    let mut backends: Vec<Arc<dyn Backend>> = vec![Arc::new(fast_flaky), Arc::new(slow_steady)];
    if traced {
        backends = backends.into_iter().map(TracedBackend::wrap).collect();
    }
    let routing = RoutingConfig::new().backends(backends);
    match hedging {
        Hedging::On => routing.hedge_after(HEDGE_AFTER),
        Hedging::Off => routing,
    }
}
