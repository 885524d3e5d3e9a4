//! Multi-backend routing: one model tier served by a fast-but-flaky and a
//! slow-but-steady backend, with hedged requests taming the latency tail.
//!
//! Run with `cargo run --example routed_backends`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crowdprompt::oracle::model::NoiseProfile;
use crowdprompt::oracle::WorldModel;
use crowdprompt::prelude::*;

fn build_session(
    world: &WorldModel,
    items: &[crowdprompt::oracle::ItemId],
    hedged: bool,
) -> Session {
    let model: Arc<dyn LanguageModel> = Arc::new(SimulatedLlm::new(
        ModelProfile::gpt35_like(),
        Arc::new(world.clone()),
        7,
    ));
    // Two backends over ONE simulator: identical answers, different
    // latency/price/reliability — which backend serves a call can never
    // change a result, only how fast and at what price it arrives.
    let fast: Arc<dyn Backend> = Arc::new(
        SimBackend::new("fast-flaky", Arc::clone(&model))
            // 1.5 ms typical, 8% of calls straggle at 25x (~37 ms).
            .with_latency(LatencyProfile::with_tail(1_500, 0.08, 25.0))
            .with_price_multiplier(0.8)
            .with_transport_noise(NoiseProfile {
                unavailable_prob: 0.02,
                ..NoiseProfile::perfect()
            })
            .with_seed(1),
    );
    let slow: Arc<dyn Backend> = Arc::new(
        SimBackend::new("slow-steady", Arc::clone(&model))
            .with_latency(LatencyProfile::fixed(9_000))
            .with_seed(2),
    );
    let mut routing = RoutingConfig::new().backends(vec![fast, slow]);
    if hedged {
        routing = routing.hedge_after(Duration::from_millis(3));
    }
    Session::builder()
        .routing(routing)
        .corpus(Corpus::from_world(world, items))
        .budget(Budget::usd(0.50))
        .criterion("by urgency")
        .build()
}

fn main() {
    let mut world = WorldModel::new();
    let items: Vec<_> = (0..96)
        .map(|i| {
            let id = world.add_item(format!("support ticket {i}: customer issue {}", i % 11));
            world.set_flag(id, "urgent", i % 3 == 0);
            id
        })
        .collect();

    // The same 96-ticket triage, unhedged vs hedged.
    let mut baseline = Vec::new();
    for hedged in [false, true] {
        let session = build_session(&world, &items, hedged);
        let started = Instant::now();
        let query = session
            .query(&items)
            .filter_with("urgent", FilterStrategy::Single);
        let kept = session
            .plan(query)
            .and_then(|plan| plan.execute(&session))
            .expect("routing absorbs transient failures")
            .into_outcome(|out| out.into_items().expect("a filter keeps items"));
        let wall = started.elapsed();
        if baseline.is_empty() {
            baseline = kept.value.clone();
        } else {
            assert_eq!(baseline, kept.value, "hedging never changes results");
        }

        let client = session.engine().client();
        let stats = client.router().expect("routed session").stats();
        println!(
            "{:10} {:>7.1} ms wall | {} calls billed, ${:.6} | hedges {} (won {}) | retries {}",
            if hedged { "hedged" } else { "unhedged" },
            wall.as_secs_f64() * 1e3,
            client.ledger().calls(),
            client.ledger().spend_usd(),
            stats.hedges_launched,
            stats.hedges_won,
            stats.retries,
        );
        for backend in &stats.per_backend {
            println!(
                "    {:12} dispatches {:>3}, wins {:>3}, transient failures {}",
                backend.id, backend.dispatches, backend.wins, backend.transient_failures
            );
        }
        // The accounting invariant: meter == ledger == budget.
        assert!((kept.cost_usd - client.ledger().spend_usd()).abs() < 1e-9);
        assert!((kept.cost_usd - session.engine().budget().spent_usd()).abs() < 1e-9);
    }

    // EXPLAIN shows the roster and the reference schedule estimates use.
    let session = build_session(&world, &items, true);
    let plan = session
        .plan(session.query(&items).filter("urgent"))
        .unwrap();
    println!("\n{}", plan.explain());
}
