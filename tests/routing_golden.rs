//! Golden: which backend an **unhedged** router hands each request to.
//!
//! 400 requests go serially through a two-backend zero-latency roster —
//! once healthy (bar the cheap backend's seeded 5 % transient failures),
//! once across a scripted outage whose breaker re-probes at once, once with
//! the cheap backend's breaker tripped for good — and the serving backend of
//! every request plus the final [`RouterStats`] are compared with rows
//! recorded before selection learned about stragglers and free slots. With
//! hedging off that key must reduce to the old `(load, rate, order)`, so a
//! failure here means an unhedged router now chooses differently: fix
//! `Router::select`, do not re-record the rows.

use std::sync::Arc;
use std::time::Duration;

use crowdprompt::oracle::backend::{
    Backend, BackendRegistry, FaultKind, FaultSchedule, FaultWindow, SimBackend,
};
use crowdprompt::oracle::model::NoiseProfile;
use crowdprompt::oracle::route::{BreakerConfig, RoutePolicy, Router};
use crowdprompt::oracle::{
    CompletionRequest, ItemId, LanguageModel, ModelProfile, SimulatedLlm, TaskDescriptor,
    WorldModel,
};

const REQUESTS: usize = 400;

fn model() -> (Arc<dyn LanguageModel>, Vec<ItemId>) {
    let mut world = WorldModel::new();
    let items = (0..REQUESTS)
        .map(|i| {
            let id = world.add_item(format!("golden routed record {i}"));
            world.set_flag(id, "keep", i % 3 == 0);
            id
        })
        .collect();
    let sim = SimulatedLlm::new(ModelProfile::gpt35_like(), Arc::new(world), 23);
    (Arc::new(sim), items)
}

fn request(id: ItemId) -> CompletionRequest {
    CompletionRequest::new(
        format!("Should record {} be kept? Answer Yes or No.", id.0),
        TaskDescriptor::CheckPredicate {
            item: id,
            predicate: "keep".into(),
        },
    )
}

/// The roster: `cheap` (0.5×, registered first, 5 % seeded 503s, the given
/// scripted faults) and `steady` (1.0×, never fails).
fn router(model: &Arc<dyn LanguageModel>, faults: Vec<FaultWindow>, cooldown: Duration) -> Router {
    let cheap = SimBackend::new("cheap", Arc::clone(model))
        .with_price_multiplier(0.5)
        .with_transport_noise(NoiseProfile {
            unavailable_prob: 0.05,
            ..NoiseProfile::perfect()
        })
        .with_fault_schedule(FaultSchedule::new(faults))
        .with_seed(7);
    let steady = SimBackend::new("steady", Arc::clone(model)).with_seed(8);
    let backends: Vec<Arc<dyn Backend>> = vec![Arc::new(cheap), Arc::new(steady)];
    Router::new(
        BackendRegistry::new(backends).expect("two distinct same-tier backends"),
        RoutePolicy {
            max_retries: 3,
            backoff_ms: 0,
            hedge: None,
            breaker: BreakerConfig {
                failure_threshold: 5,
                cooldown,
            },
        },
    )
}

/// `"c*3,s*1"`: run-length form of one serving backend initial per request.
fn run_lengths(served: &str) -> String {
    let mut runs: Vec<(char, usize)> = Vec::new();
    for c in served.chars() {
        match runs.last_mut() {
            Some((last, n)) if *last == c => *n += 1,
            _ => runs.push((c, 1)),
        }
    }
    runs.iter()
        .map(|(c, n)| format!("{c}*{n}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// Dispatch every request serially; return who served each and the stats.
fn drive(router: &Router, items: &[ItemId]) -> (String, String) {
    let mut served = String::new();
    let mut wins = vec![0u64; 2];
    for id in items {
        let result = router.complete(&request(*id));
        let stats = router.stats();
        let now: Vec<u64> = stats.per_backend.iter().map(|b| b.wins).collect();
        served.push(match (result.is_ok(), now[0] - wins[0], now[1] - wins[1]) {
            (true, 1, 0) => 'c',
            (true, 0, 1) => 's',
            (false, 0, 0) => 'x',
            other => panic!("one request, one serving backend: {other:?}"),
        });
        wins = now;
    }
    let stats = router.stats();
    let per_backend = stats
        .per_backend
        .iter()
        .map(|b| {
            format!(
                "{}: dispatches {} wins {} transient {} trips {} open {}",
                b.id, b.dispatches, b.wins, b.transient_failures, b.breaker_trips, b.open
            )
        })
        .collect::<Vec<_>>()
        .join("; ");
    (
        run_lengths(&served),
        format!(
            "retries {} hedges {}/{}; {per_backend}",
            stats.retries, stats.hedges_launched, stats.hedges_won
        ),
    )
}

#[test]
fn unhedged_selection_matches_the_recorded_rows() {
    let (model, items) = model();
    let never_reprobe = Duration::from_secs(3600);

    // Healthy: the cheap backend serves unless its own 503 sends the retry
    // to the steady one.
    let healthy = router(&model, Vec::new(), never_reprobe);
    // A scripted outage over the cheap backend's arrivals 100..160 with a
    // breaker that cools down at once: it trips after five, then every
    // request probes it, fails over, and re-trips until the window ends.
    let outage = router(
        &model,
        vec![FaultWindow::new(100, 160, FaultKind::Outage)],
        Duration::ZERO,
    );
    // One breaker tripped for good by an outage over the first arrivals:
    // everything after goes to the steady backend.
    let tripped = router(
        &model,
        vec![FaultWindow::new(0, 5, FaultKind::Outage)],
        never_reprobe,
    );

    let got: Vec<(String, String)> = [&healthy, &outage, &tripped]
        .iter()
        .map(|router| drive(router, &items))
        .collect();
    let recorded: Vec<(String, String)> = RECORDED
        .iter()
        .map(|(served, stats)| (served.to_string(), stats.to_string()))
        .collect();
    assert!(
        got == recorded,
        "an unhedged router chose differently; this tree's rows (healthy, outage, tripped):\n{got:#?}"
    );
}

/// `(serving backend per request, final stats)` for the healthy, outage and
/// tripped rosters, recorded at the commit before the selection key grew.
const RECORDED: [(&str, &str); 3] = [
    (
        "c*1,s*1,c*3,s*1,c*13,s*1,c*8,s*1,c*1,s*1,c*27,s*1,c*28,s*1,c*33,s*1,c*9,s*1,c*4,s*1,c*8,s*1,c*30,s*1,c*8,s*1,c*3,s*1,c*10,s*1,c*16,s*1,c*50,s*1,c*42,s*1,c*7,s*1,c*8,s*1,c*3,s*1,c*2,s*1,c*20,s*1,c*43",
        "retries 23 hedges 0/0; cheap: dispatches 400 wins 377 transient 23 trips 0 open false; steady: dispatches 23 wins 23 transient 0 trips 0 open false",
    ),
    (
        "c*1,s*1,c*3,s*1,c*13,s*1,c*8,s*1,c*1,s*1,c*27,s*1,c*28,s*1,c*12,s*60,c*16,s*1,c*8,s*1,c*3,s*1,c*10,s*1,c*16,s*1,c*50,s*1,c*42,s*1,c*7,s*1,c*8,s*1,c*3,s*1,c*2,s*1,c*20,s*1,c*43",
        "retries 79 hedges 0/0; cheap: dispatches 400 wins 321 transient 79 trips 56 open false; steady: dispatches 79 wins 79 transient 0 trips 0 open false",
    ),
    (
        "s*400",
        "retries 5 hedges 0/0; cheap: dispatches 5 wins 0 transient 5 trips 1 open true; steady: dispatches 400 wins 400 transient 0 trips 0 open false",
    ),
];
