//! Negative tests for the shim's lock diagnostics: prove every detector in
//! `parking_lot::diagnostics` actually fires on the bug shape it exists to
//! catch. Compiled (and run by the CI `lint-and-diagnostics` job) only under
//! `RUSTFLAGS="--cfg lock_diagnostics"`; in the default build this file is
//! empty.
//!
//! Each test builds the smallest program with the target defect — a
//! deliberately inverted lock pair, a cycle through three locks, a
//! re-entrant acquire, a guard held across a blocking boundary — and
//! asserts the detector reports it, while the well-ordered twin stays
//! silent.
#![cfg(lock_diagnostics)]

use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use parking_lot::diagnostics::{expect_violations, findings, FindingKind};
use parking_lot::{blocking_region, Condvar, Mutex, RwLock};

#[test]
fn inverted_lock_pair_reports_order_inversion() {
    let a = Mutex::new(0u32);
    let b = Mutex::new(0u32);
    // Establish the order a -> b...
    {
        let _ga = a.lock();
        let _gb = b.lock();
    }
    // ...then deliberately invert it. The diagnostic fires at acquisition
    // time, even though nothing deadlocks in this single-threaded run.
    let (_, findings) = expect_violations(|| {
        let _gb = b.lock();
        let _ga = a.lock();
    });
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].kind, FindingKind::OrderInversion);
    assert!(
        findings[0].message.contains("error[lock-order-inversion]"),
        "message: {}",
        findings[0].message
    );
    // Both the inverting acquisition and the first-observed opposite order
    // are cited, so the report is actionable without a debugger.
    assert!(findings[0].message.contains("--> "));
    assert!(findings[0]
        .message
        .contains("opposite order first observed"));
}

#[test]
fn three_lock_cycle_reports_order_cycle() {
    let a = Mutex::new(());
    let b = Mutex::new(());
    let c = Mutex::new(());
    {
        let _ga = a.lock();
        let _gb = b.lock();
    }
    {
        let _gb = b.lock();
        let _gc = c.lock();
    }
    let (_, findings) = expect_violations(|| {
        let _gc = c.lock();
        let _ga = a.lock(); // closes c -> a -> b -> c
    });
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].kind, FindingKind::OrderCycle);
    assert!(findings[0].message.contains("error[lock-order-cycle]"));
}

#[test]
fn mixed_mutex_rwlock_inversion_is_detected() {
    let m = Mutex::new(());
    let rw = RwLock::new(());
    {
        let _gm = m.lock();
        let _gr = rw.read();
    }
    let (_, findings) = expect_violations(|| {
        let _gw = rw.write();
        let _gm = m.lock();
    });
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].kind, FindingKind::OrderInversion);
    assert!(findings[0].message.contains("rwlock"));
}

#[test]
fn self_reacquire_panics_before_the_deadlock() {
    let m = Arc::new(Mutex::new(0u32));
    // SelfReacquire must panic even under expect_violations: returning
    // would relock and genuinely hang the test binary.
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let (_, _) = expect_violations(|| {
            let _g1 = m.lock();
            let _g2 = m.lock();
        });
    }));
    let err = result.expect_err("reacquisition must panic, not hang");
    let message = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "<non-string panic>".into());
    assert!(
        message.contains("error[lock-self-reacquire]"),
        "panic message: {message}"
    );
}

#[test]
fn guard_held_across_blocking_region_is_reported() {
    let m = Mutex::new(());
    let (_, findings) = expect_violations(|| {
        let _g = m.lock();
        blocking_region("backend dispatch (test)");
    });
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].kind, FindingKind::HeldAcrossBlocking);
    assert!(findings[0].message.contains("backend dispatch (test)"));
}

#[test]
fn second_guard_held_across_condvar_wait_is_reported() {
    let outer = Mutex::new(());
    let pair = Arc::new((Mutex::new(false), Condvar::new()));
    // A helper thread flips the flag so the wait returns; the finding is
    // about the *outer* guard surviving the park, not the wait itself.
    let waker = {
        let pair = Arc::clone(&pair);
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            *pair.0.lock() = true;
            pair.1.notify_all();
        })
    };
    let (_, findings) = expect_violations(|| {
        let _outer = outer.lock();
        let mut ready = pair.0.lock();
        while !*ready {
            pair.1.wait(&mut ready);
        }
    });
    waker.join().expect("waker thread");
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].kind, FindingKind::HeldAcrossBlocking);
    assert!(findings[0].message.contains("Condvar::wait"));
}

#[test]
fn well_ordered_nesting_stays_silent() {
    let a = Mutex::new(());
    let b = RwLock::new(());
    let (_, findings) = expect_violations(|| {
        // Consistent a -> b order, guards dropped before any blocking
        // boundary: the discipline the whole repo is linted to.
        for _ in 0..3 {
            let _ga = a.lock();
            let _gb = b.read();
        }
        drop(a.lock());
        blocking_region("backend dispatch (clean)");
    });
    assert!(findings.is_empty(), "false positives: {findings:?}");
}

/// The hedged dispatch path under the detectors: the caller's inline primary
/// (a marked blocking region), its wait on the slot for a twin that is out,
/// the helper's park between deadlines and the cancellable sleeps all run
/// with no other shim lock held, and the slot, queue, breaker and
/// latency-window locks nest in one order on all three threads.
#[test]
fn hedged_dispatch_holds_no_lock_across_a_backend_call_or_a_slot_wait() {
    use crowdprompt::oracle::model::NoiseProfile;
    use crowdprompt::oracle::route::{BreakerConfig, HedgeConfig, Router};
    use crowdprompt::oracle::{TaskDescriptor, WorldModel};
    use crowdprompt::prelude::*;
    use std::time::Duration;

    let mut world = WorldModel::new();
    let items: Vec<_> = (0..24)
        .map(|i| {
            let id = world.add_item(format!("hedged record {i}"));
            world.set_flag(id, "keep", i % 2 == 0);
            id
        })
        .collect();
    let model: Arc<dyn LanguageModel> = Arc::new(SimulatedLlm::new(
        ModelProfile::gpt35_like(),
        Arc::new(world),
        5,
    ));
    // Every call's deadline (1 ms) passes before its cheap primary reports
    // (2 ms), so every call gets a twin (5 ms). Half the primaries then
    // answer — and cancel a twin parked in its cancellable sleep — and half
    // time out, leaving the caller waiting on the slot for the twin.
    let backends: Vec<Arc<dyn Backend>> = vec![
        Arc::new(
            SimBackend::new("flaky", Arc::clone(&model))
                .with_price_multiplier(0.5)
                .with_latency(LatencyProfile::fixed(2_000))
                .with_transport_noise(NoiseProfile {
                    timeout_prob: 0.5,
                    ..NoiseProfile::perfect()
                })
                .with_seed(1),
        ),
        Arc::new(
            SimBackend::new("steady", Arc::clone(&model))
                .with_latency(LatencyProfile::fixed(5_000)),
        ),
    ];
    let (stats, on_this_thread) = expect_violations(|| {
        let router = Router::new(
            BackendRegistry::new(backends).unwrap(),
            RoutePolicy {
                hedge: Some(HedgeConfig::after(Duration::from_millis(1))),
                // Never opens: the flaky backend stays every call's primary.
                breaker: BreakerConfig {
                    failure_threshold: u32::MAX,
                    cooldown: Duration::ZERO,
                },
                ..RoutePolicy::default()
            },
        );
        std::thread::scope(|scope| {
            for chunk in items.chunks(8) {
                let router = &router;
                scope.spawn(move || {
                    for item in chunk {
                        let request = CompletionRequest::new(
                            format!("Should record {} be kept?", item.0),
                            TaskDescriptor::CheckPredicate {
                                item: *item,
                                predicate: "keep".into(),
                            },
                        );
                        router.complete(&request).expect("the twin answers");
                    }
                });
            }
        });
        router.stats()
        // Dropping the router here joins the helper under the detectors too.
    });
    let flaky = &stats.per_backend[0];
    assert!(
        stats.hedges_won > 0 && flaky.wins > 0 && flaky.transient_failures > 0,
        "both ways out of a hedged call were taken: {stats:?}"
    );
    assert!(on_this_thread.is_empty(), "findings: {on_this_thread:?}");
    // Worker, helper and twin threads report into the process-wide list
    // (which the negative tests beside this one fill with findings about
    // their own locks, never the router's).
    let elsewhere: Vec<_> = findings()
        .into_iter()
        .filter(|finding| finding.message.contains("crates/oracle/src"))
        .collect();
    assert!(elsewhere.is_empty(), "findings: {elsewhere:?}");
}
