//! `oracle::route`: `Router::complete` over two replay backends, so what is
//! timed is selection, breaker and load bookkeeping and — if the workload's
//! router hedges — the hedging set-up for a backend that answers at once.

use std::sync::Arc;
use std::time::Duration;

use crowdprompt_oracle::backend::{Backend, BackendRegistry};
use crowdprompt_oracle::route::{HedgeConfig, RoutePolicy, Router};
use crowdprompt_oracle::types::LanguageModel;

use super::{ns_per_item, ProbeInput, Replay};

pub fn probe(input: &ProbeInput<'_>) -> f64 {
    let backends: Vec<Arc<dyn Backend>> = vec![
        Replay::new("replay-a", input.captures),
        Replay::new("replay-b", input.captures),
    ];
    let registry = BackendRegistry::new(backends).expect("two distinct replay backends");
    let router = Router::new(
        registry,
        RoutePolicy {
            hedge: input
                .ctx
                .hedged
                .then(|| HedgeConfig::after(Duration::from_millis(3))),
            ..RoutePolicy::default()
        },
    );
    ns_per_item(input.captures, |(request, _)| {
        std::hint::black_box(router.complete(request).expect("replay backends answer"));
    })
}
