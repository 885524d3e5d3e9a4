//! A router's hedge helper lives and dies with the router.
//!
//! Thread counts are per process, so this is the only test in its binary:
//! nothing else here starts or ends a thread while it counts.
#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use crowdprompt::oracle::route::{HedgeConfig, Router};
use crowdprompt::oracle::TaskDescriptor;
use crowdprompt::prelude::*;

fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|count| count.trim().parse().ok())
        .expect("a Threads: line")
}

/// 200 routers are built, hedge one call each (deadline passes, helper
/// launches a twin, the twin wins and cancels the inline primary) and are
/// dropped: the helper is joined by the drop and the detached twin ends on
/// its own, so the process is back to the threads it started with — not 200
/// parked helpers richer.
#[test]
fn dropped_routers_leave_no_threads_behind() {
    let mut world = crowdprompt::oracle::WorldModel::new();
    let item = world.add_item("the one routed record");
    world.set_flag(item, "keep", true);
    let model: Arc<dyn LanguageModel> = Arc::new(SimulatedLlm::new(
        ModelProfile::gpt35_like(),
        Arc::new(world),
        3,
    ));
    let request = CompletionRequest::new(
        "Should the record be kept? Answer Yes or No.",
        TaskDescriptor::CheckPredicate {
            item,
            predicate: "keep".into(),
        },
    );

    let before = process_threads();
    for _ in 0..200 {
        let backends: Vec<Arc<dyn Backend>> = vec![
            // Cheapest, so the primary; a second a call, so always hedged.
            Arc::new(
                SimBackend::new("slow", Arc::clone(&model))
                    .with_price_multiplier(0.5)
                    .with_latency(LatencyProfile::fixed(1_000_000)),
            ),
            Arc::new(SimBackend::new("fast", Arc::clone(&model))),
        ];
        let router = Router::new(
            BackendRegistry::new(backends).unwrap(),
            RoutePolicy {
                hedge: Some(HedgeConfig::after(Duration::from_millis(1))),
                ..RoutePolicy::default()
            },
        );
        router.complete(&request).unwrap();
        let stats = router.stats();
        assert_eq!((stats.hedges_launched, stats.hedges_won), (1, 1));
        assert!(
            process_threads() > before,
            "a router that has hedged keeps its helper while it lives"
        );
    }
    // The last twins published before their callers returned; all that is
    // left of them is the thread's own exit.
    let patience = Instant::now() + Duration::from_secs(10);
    while process_threads() > before && Instant::now() < patience {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(process_threads(), before);
}
