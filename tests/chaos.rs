//! Chaos suite (PR 7): randomized scripted fault schedules × failure
//! policies, end to end through the routing layer.
//!
//! Each property draws a random [`FaultSchedule`] (outages, rate-limit
//! storms, latency spikes at random call ordinals) and asserts the
//! invariants that must hold under *any* interleaving:
//!
//! * **Convergence** — every submitted task ends in exactly one bucket:
//!   a completed response or a quarantine entry carrying its error chain.
//! * **Money conservation** — the operator's meter (summed per-response
//!   cost), the client's cost ledger, and the budget tracker agree on
//!   total spend; nobody is billed for a call that never completed.
//! * **Maximal salvage** — with a healthy standby backend in the fleet,
//!   degrade mode quarantines nothing and every answer is correct, no
//!   matter what the schedule does to the flaky backend.
//!
//! The suite asserts *invariants*, not exact outcomes: which items
//! quarantine under a given schedule depends on scheduling races, and
//! pinning it would make the tests flaky rather than strong.

use std::sync::Arc;

use crowdprompt::oracle::model::NoiseProfile;
use crowdprompt::oracle::route::BreakerConfig;
use crowdprompt::oracle::task::TaskDescriptor;
use crowdprompt::oracle::world::{ItemId, WorldModel};
use crowdprompt::prelude::*;
use proptest::prelude::*;

/// Absolute slack for comparing the three spend representations: the
/// ledger rounds each call to whole nanodollars and the two f64 meters sum
/// in different orders, so they agree to well under a micro-dollar at this
/// suite's call counts — but not to the bit.
const MONEY_TOL: f64 = 1e-6;

fn keep_world(n: usize) -> (WorldModel, Vec<ItemId>) {
    let mut w = WorldModel::new();
    let items = (0..n)
        .map(|i| {
            let id = w.add_item(format!("chaos record {i}"));
            w.set_flag(id, "keep", i % 2 == 0);
            id
        })
        .collect();
    (w, items)
}

/// Draw a random fault schedule: 1–3 windows over the first ~70 call
/// ordinals, each an outage, a rate-limit storm with a small Retry-After
/// hint, or a latency spike (harmless here — `SimBackend` defaults to zero
/// latency, which keeps the suite fast while still exercising the branch).
fn random_schedule(seed: u64) -> FaultSchedule {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let windows = (0..1 + next() % 3)
        .map(|_| {
            let from = next() % 40;
            let len = 1 + next() % 30;
            let kind = match next() % 3 {
                0 => FaultKind::Outage,
                1 => FaultKind::RateLimitStorm {
                    retry_after_ms: 1 + next() % 15,
                },
                _ => FaultKind::LatencySpike {
                    mult: 2.0 + (next() % 10) as f64,
                },
            };
            FaultWindow::new(from, from + len, kind)
        })
        .collect();
    FaultSchedule::new(windows)
}

fn perfect_sim(w: &WorldModel, seed: u64) -> Arc<dyn LanguageModel> {
    Arc::new(SimulatedLlm::new(
        ModelProfile::gpt35_like().with_noise(NoiseProfile::perfect()),
        Arc::new(w.clone()),
        seed,
    ))
}

/// One routed session over the given backends. `parallelism(1)` keeps the
/// budget's f64 summation order deterministic enough for tight money
/// comparisons; the invariants themselves do not depend on it.
fn routed_session(
    w: &WorldModel,
    items: &[ItemId],
    backends: Vec<Arc<dyn Backend>>,
    policy: Option<FailurePolicy>,
) -> Session {
    let client = Arc::new(LlmClient::routed(
        BackendRegistry::new(backends).unwrap(),
        RoutePolicy {
            max_retries: 2,
            breaker: BreakerConfig {
                failure_threshold: 4,
                cooldown: std::time::Duration::from_millis(5),
            },
            ..RoutePolicy::default()
        },
    ));
    let mut builder = Session::builder()
        .client(client)
        .corpus(Corpus::from_world(w, items))
        .criterion("by index")
        .parallelism(1);
    if let Some(policy) = policy {
        builder = builder.resilience(ResilienceConfig::new().failure_policy(policy));
    }
    builder.build()
}

fn check_tasks(items: &[ItemId]) -> Vec<TaskDescriptor> {
    items
        .iter()
        .map(|&item| TaskDescriptor::CheckPredicate {
            item,
            predicate: "keep".to_owned(),
        })
        .collect()
}

/// Assert the three spend representations agree: operator meter (summed
/// per-response cost), client ledger, budget tracker.
fn assert_money_conserved(session: &Session, meter: f64) {
    let budget = session.spent_usd();
    let ledger = session.engine().client().ledger().spend_usd();
    assert!(
        (budget - ledger).abs() <= MONEY_TOL,
        "budget {budget} != ledger {ledger}"
    );
    assert!(
        (meter - budget).abs() <= MONEY_TOL,
        "meter {meter} != budget {budget}"
    );
}

proptest! {
    /// Degrade mode under an arbitrary schedule: every task converges to
    /// exactly one bucket, quarantine entries carry their evidence, and
    /// the money books balance on whatever was salvaged.
    #[test]
    fn degrade_partitions_every_task_and_conserves_money(
        (n, max_attempts) in (6usize..16, 2u32..6),
        seed in 0u64..1_000_000,
    ) {
        let (w, items) = keep_world(n);
        let backend: Arc<dyn Backend> = Arc::new(
            SimBackend::new("flaky", perfect_sim(&w, seed))
                .with_fault_schedule(random_schedule(seed)),
        );
        let session = routed_session(
            &w,
            &items,
            vec![backend],
            Some(FailurePolicy::Degrade { max_attempts }),
        );
        let outcome = session
            .engine()
            .run_outcome(RunSpec::tasks(check_tasks(&items)))
            .expect("a degrading run never fails the batch");

        // Convergence: one result per task, and the quarantine list is
        // exactly the Err positions, in order, with evidence attached.
        prop_assert_eq!(outcome.answers.len(), n);
        prop_assert_eq!(outcome.ok_count() + outcome.quarantined.len(), n);
        let err_indices: Vec<usize> = outcome
            .answers
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.is_err().then_some(i))
            .collect();
        let quarantine_indices: Vec<usize> =
            outcome.quarantined.iter().map(|q| q.index).collect();
        prop_assert_eq!(&quarantine_indices, &err_indices);
        for q in &outcome.quarantined {
            prop_assert!(!q.errors.is_empty(), "quarantine without evidence");
            prop_assert!(
                q.errors.len() <= max_attempts as usize,
                "item {} burned {} attempts against an allowance of {max_attempts}",
                q.index,
                q.errors.len()
            );
        }

        // Money: only salvaged responses are billed, and all three books
        // agree. Tasks are unique and failures are never cached, so each
        // success is exactly one paid call.
        let meter: f64 = outcome
            .responses
            .iter()
            .map(|r| r.pricing.cost_usd(r.usage))
            .sum();
        assert_money_conserved(&session, meter);
        let ledger = session.engine().client().ledger();
        prop_assert_eq!(ledger.calls(), outcome.ok_count() as u64);
    }

    /// Fail-fast under an arbitrary schedule: the batch either completes
    /// whole or errors, and either way nobody is billed for work the
    /// client never finished — budget and ledger agree to the end.
    #[test]
    fn failfast_completes_or_errors_with_books_balanced(
        n in 6usize..16,
        seed in 0u64..1_000_000,
    ) {
        let (w, items) = keep_world(n);
        let backend: Arc<dyn Backend> = Arc::new(
            SimBackend::new("flaky", perfect_sim(&w, seed))
                .with_fault_schedule(random_schedule(seed)),
        );
        let session = routed_session(&w, &items, vec![backend], None);
        match session.engine().run_many(check_tasks(&items)) {
            Ok(responses) => {
                prop_assert_eq!(responses.len(), n);
                let meter: f64 = responses
                    .iter()
                    .map(|r| r.pricing.cost_usd(r.usage))
                    .sum();
                assert_money_conserved(&session, meter);
                prop_assert_eq!(
                    session.engine().client().ledger().calls(),
                    n as u64
                );
            }
            Err(_) => {
                // Aborted mid-batch: completed calls were charged to both
                // books identically; nothing was charged for the failure.
                let budget = session.spent_usd();
                let ledger = session.engine().client().ledger().spend_usd();
                prop_assert!(
                    (budget - ledger).abs() <= MONEY_TOL,
                    "after abort: budget {budget} != ledger {ledger}"
                );
            }
        }
    }

    /// Maximal salvage: with a healthy standby in the fleet, degrade mode
    /// quarantines nothing and every answer is correct — whatever the
    /// schedule does to the flaky backend, cross-backend retries find the
    /// healthy one.
    #[test]
    fn healthy_standby_salvages_every_item(
        n in 6usize..16,
        seed in 0u64..1_000_000,
    ) {
        let (w, items) = keep_world(n);
        let llm = perfect_sim(&w, seed);
        let flaky: Arc<dyn Backend> = Arc::new(
            SimBackend::new("flaky", Arc::clone(&llm))
                .with_fault_schedule(random_schedule(seed)),
        );
        let steady: Arc<dyn Backend> = Arc::new(SimBackend::new("steady", llm));
        let session = routed_session(
            &w,
            &items,
            vec![flaky, steady],
            Some(FailurePolicy::Degrade { max_attempts: 8 }),
        );

        let run = session
            .plan(session.query(&items).filter("keep"))
            .unwrap()
            .execute(&session)
            .unwrap();
        let expected: Vec<ItemId> = items.iter().copied().step_by(2).collect();
        prop_assert_eq!(run.output.items().unwrap(), expected.as_slice());
        prop_assert_eq!(run.steps.len(), 1);
        prop_assert_eq!(
            run.steps[0].quarantined_count(),
            0,
            "a healthy standby must make salvage total: {:?}",
            &run.steps[0].salvage
        );
        prop_assert!(!run.steps[0].salvage.is_empty(), "degrade mode leaves a note");

        // The books balance across the two-backend fleet too.
        let budget = session.spent_usd();
        let ledger = session.engine().client().ledger().spend_usd();
        prop_assert!(
            (budget - ledger).abs() <= MONEY_TOL,
            "budget {budget} != ledger {ledger}"
        );
    }
}
