//! Property tests for the multi-tenant serving layer (PR 10).
//!
//! Three contracts under test, over randomized tenants and workloads:
//!
//! * **Fair shares converge to weights.** The deficit-round-robin feed's
//!   claim ordering, drained while every tenant stays backlogged, hands
//!   each tenant a share of service proportional to its weight — exact per
//!   complete round with integer weights, within one round's quantum at
//!   any cut point.
//! * **Admission protects the ledgers.** A zero-budget tenant is refused
//!   at admission: no backend call is made, nothing is billed to any
//!   ledger. Admitted work bills exactly the tenant that submitted it, and
//!   the per-tenant ledgers partition the shared client ledger to the
//!   cent: meter == ledger == budget.
//! * **A tenant's engine handle is an engine.** A `Query` run through
//!   `Server::engine_for` gives the answer a standalone session with the
//!   tenant's budget gives, bit for bit, billed to the tenant's ledger and
//!   with no lease left held; a zero-budget tenant's `Query` is refused
//!   before any backend call. That holds for the voted and proxy-gated
//!   filter strategies too, and a cascade over two tenants' handles bills
//!   each tier to its own tenant.

use std::sync::Arc;

use crowdprompt::core::{
    Budget, Corpus, EngineError, FairFeed, Query, ServeError, Session, TenantSpec,
};
use crowdprompt::oracle::model::NoiseProfile;
use crowdprompt::oracle::task::TaskDescriptor;
use crowdprompt::oracle::world::{ItemId, WorldModel};
use crowdprompt::oracle::{LlmClient, ModelProfile, SimulatedLlm};
use proptest::prelude::*;

fn flag_world(n: usize) -> (WorldModel, Vec<ItemId>) {
    let mut w = WorldModel::new();
    let items = (0..n)
        .map(|i| {
            let id = w.add_item(format!("serving record {i}"));
            w.set_flag(id, "hot", i % 2 == 0);
            w.set_attr(id, "label", if i % 3 == 0 { "bulk" } else { "retail" });
            w.set_attr(id, "city", if i % 4 < 2 { "oakland" } else { "fresno" });
            id
        })
        .collect();
    (w, items)
}

/// A server over a *priced* simulated model (so admission estimates are
/// non-zero and budget refusals have teeth) with perfect noise (so every
/// admitted task completes).
fn server_over(
    w: &WorldModel,
    items: &[ItemId],
    seed: u64,
    tenants: Vec<TenantSpec>,
) -> crowdprompt::core::Server {
    let mut builder = session_over(w, items, seed, Budget::Unlimited).serve();
    for spec in tenants {
        builder = builder.tenant(spec);
    }
    builder.try_build().expect("serving stack must build")
}

/// A session over a fresh client on the same priced, perfect-noise model.
fn session_over(w: &WorldModel, items: &[ItemId], seed: u64, budget: Budget) -> Session {
    let llm = SimulatedLlm::new(
        ModelProfile::gpt35_like().with_noise(NoiseProfile::perfect()),
        Arc::new(w.clone()),
        seed,
    );
    Session::builder()
        .client(Arc::new(LlmClient::new(Arc::new(llm))))
        .corpus(Corpus::from_world(w, items))
        .budget(budget)
        .build()
}

/// filter → categorize-and-keep → impute, the paper's multi-step pipeline.
fn pipeline(items: &[ItemId]) -> Query {
    let (pool, rest) = items.split_at(items.len() / 3);
    let labeled = pool
        .iter()
        .map(|id| {
            (
                *id,
                if id.0 % 4 < 2 { "oakland" } else { "fresno" }.to_owned(),
            )
        })
        .collect();
    Query::over(rest)
        .filter("hot")
        .keep_label(vec!["bulk".to_owned(), "retail".to_owned()], "retail")
        .impute("city", labeled)
}

fn check_tasks(items: &[ItemId]) -> Vec<TaskDescriptor> {
    items
        .iter()
        .map(|id| TaskDescriptor::CheckPredicate {
            item: *id,
            predicate: "hot".to_owned(),
        })
        .collect()
}

proptest! {
    /// Random integer weight vectors; every tenant's queue stays backlogged
    /// through the measured window. Claims over whole DRR rounds split
    /// *exactly* proportionally to weight; at an arbitrary cut point each
    /// tenant is within one round's quantum (its own weight) of its
    /// proportional share.
    #[test]
    fn fair_share_claims_converge_to_weights(
        weights in prop::collection::vec(1u32..9, 2..6),
        rounds in 2u32..8,
    ) {
        let feed: FairFeed<usize> = FairFeed::new();
        let total_weight: u32 = weights.iter().sum();
        for (tenant, &w) in weights.iter().enumerate() {
            prop_assert!(feed.register(&format!("t{tenant}"), f64::from(w)));
        }
        // Backlog everyone past what the window can drain.
        let window = (rounds * total_weight) as usize;
        for (tenant, _) in weights.iter().enumerate() {
            for item in 0..window {
                prop_assert!(feed.push(&format!("t{tenant}"), tenant * window + item));
            }
        }

        let mut counts = vec![0usize; weights.len()];
        for _ in 0..window {
            let item = feed.claim().expect("backlogged feed has work");
            counts[item / window] += 1;
        }

        for (tenant, &w) in weights.iter().enumerate() {
            let exact = (rounds * w) as usize; // whole rounds: exact share
            prop_assert!(
                counts[tenant].abs_diff(exact) <= w as usize,
                "tenant {tenant} (weight {w}) claimed {} of {window}, expected ~{exact} \
                 (weights {weights:?})",
                counts[tenant],
            );
        }
        // Shares over the window sum to the window: nothing lost, nothing
        // double-claimed.
        prop_assert_eq!(counts.iter().sum::<usize>(), window);
    }

    /// A zero-budget tenant is refused at admission: the shared client
    /// never dispatches, no ledger is touched, and the refusal is
    /// `BudgetExhausted` (not a rate-limit shed). A solvent tenant on the
    /// same server is unaffected before and after the refusal.
    #[test]
    fn zero_budget_tenant_is_refused_with_nothing_billed(
        n in 1usize..12,
        seed in 0u64..1_000_000,
    ) {
        let (w, items) = flag_world(n);
        let server = server_over(
            &w,
            &items,
            seed,
            vec![
                TenantSpec::new("broke").with_budget(Budget::usd(0.0)),
                TenantSpec::new("solvent"),
            ],
        );

        match server.submit("broke", check_tasks(&items)) {
            Err(ServeError::BudgetExhausted { needed_usd, remaining_usd }) => {
                prop_assert!(needed_usd > 0.0, "a priced batch must estimate > $0");
                prop_assert!(remaining_usd <= 0.0 + f64::EPSILON);
            }
            other => prop_assert!(false, "expected BudgetExhausted, got {other:?}"),
        }
        let client = server.engine().client();
        prop_assert_eq!(client.stats().calls(), 0, "refusal must precede any backend call");
        let broke = server.ledger("broke").expect("registered tenant");
        prop_assert_eq!(broke.spent_usd(), 0.0);
        prop_assert_eq!(broke.spent_tokens(), 0);

        // The refusal leaves the server fully serviceable for others.
        let run = server
            .submit("solvent", check_tasks(&items))
            .expect("solvent tenant admitted");
        prop_assert!(run.is_complete());
        prop_assert_eq!(run.results.len(), n);
        prop_assert_eq!(broke.spent_usd(), 0.0, "another tenant's work billed to broke");

        let stats = server.stats();
        let broke_stats = stats.iter().find(|s| s.id == "broke").expect("broke listed");
        prop_assert_eq!(broke_stats.completed, 0);
        prop_assert_eq!(broke_stats.shed, 1);
    }

    /// Sequential batches from random tenants, with unlimited or finite
    /// budgets: every paid completion lands on exactly the submitting
    /// tenant's ledger, each tenant's metered responses equal its ledger,
    /// a finite budget is spend + remaining, and the tenant ledgers
    /// partition the shared client ledger — meter == ledger == budget.
    #[test]
    fn tenant_ledgers_partition_the_client_ledger(
        batches in prop::collection::vec((0usize..3, 1usize..10), 1..8),
        seed in 0u64..1_000_000,
        finite in any::<bool>(),
    ) {
        let (w, items) = flag_world(12);
        let ids = ["a", "b", "c"];
        // Far above what eight batches of ten checks cost, so every
        // tenant admits.
        let budget = if finite { Budget::usd(1.0) } else { Budget::Unlimited };
        let server = server_over(
            &w,
            &items,
            seed,
            ids.iter().map(|id| TenantSpec::new(*id).with_budget(budget)).collect(),
        );

        let mut meters = [0.0f64; 3];
        for (round, &(tenant, len)) in batches.iter().enumerate() {
            // Distinct items per round so the shared cache cannot collapse
            // later batches into free hits (free hits are fine, but paid
            // work exercises the billing invariant harder).
            let slice: Vec<ItemId> = (0..len).map(|k| items[(round + k) % items.len()]).collect();
            let run = server
                .submit(ids[tenant], check_tasks(&slice))
                .expect("solvent tenants admit");
            prop_assert!(run.is_complete());
            meters[tenant] += run
                .results
                .iter()
                .flatten()
                .filter(|r| !r.cached)
                .map(|r| r.pricing.cost_usd(r.usage))
                .sum::<f64>();
        }

        for (id, meter) in ids.iter().zip(meters) {
            let ledger = server.ledger(id).expect("registered");
            prop_assert!(
                (meter - ledger.spent_usd()).abs() < 1e-9,
                "tenant {id}: meter {meter} != ledger {}",
                ledger.spent_usd()
            );
            if finite {
                // What remains saturates at zero, so spend + remaining
                // reconstructs the $1 budget exactly when spend stays within it.
                prop_assert!(
                    ledger.spent_usd() < 1.0 + 1e-9,
                    "tenant {id}: spend {} overran the $1 budget",
                    ledger.spent_usd()
                );
            }
        }
        let client = server.engine().client();
        let tenant_total: f64 = ids
            .iter()
            .map(|id| server.ledger(id).expect("registered").spent_usd())
            .sum();
        let client_total = client.ledger().spend_usd();
        prop_assert!(
            (tenant_total - client_total).abs() < 1e-9,
            "tenant ledgers ({tenant_total}) must partition the client ledger ({client_total})"
        );
        prop_assert_eq!(server.leases_in_use(), 0, "every lease released after drain");
    }

    /// A `Query` through a tenant's engine handle is the `Query` on a
    /// standalone session with the tenant's budget — same values, same
    /// calls, same spend — billed to the tenant alone, with every lease
    /// back in the table; and a zero-budget tenant's `Query` is refused
    /// with no backend call made.
    #[test]
    fn a_query_through_engine_for_matches_a_standalone_session(
        n in 12usize..40,
        seed in 0u64..1_000_000,
    ) {
        let (w, items) = flag_world(n);
        let budget = Budget::usd(0.5);
        let server = server_over(
            &w,
            &items,
            seed,
            vec![
                TenantSpec::new("a").with_budget(budget),
                TenantSpec::new("broke").with_budget(Budget::usd(0.0)),
            ],
        );
        let client = server.engine().client();

        let broke = server.engine_for("broke").expect("registered tenant");
        let refused = pipeline(&items)
            .plan_on(&broke)
            .and_then(|plan| plan.execute_on(&broke));
        prop_assert!(
            matches!(refused, Err(EngineError::BudgetExceeded { .. })),
            "expected BudgetExceeded, got {refused:?}"
        );
        prop_assert_eq!(client.stats().calls(), 0, "refusal must precede any backend call");

        let handle = server.engine_for("a").expect("registered tenant");
        let served = pipeline(&items)
            .plan_on(&handle)
            .and_then(|plan| plan.execute_on(&handle))
            .expect("within the tenant's budget");
        let alone = session_over(&w, &items, seed, budget);
        let direct = pipeline(&items)
            .plan_on(alone.engine())
            .and_then(|plan| plan.execute_on(alone.engine()))
            .expect("within the session's budget");

        prop_assert_eq!(
            served.output.values().expect("impute yields values"),
            direct.output.values().expect("impute yields values")
        );
        prop_assert!(served.total_calls() > 0, "the pipeline must reach the backend");
        prop_assert_eq!(served.total_calls(), direct.total_calls());
        prop_assert_eq!(served.total_usage(), direct.total_usage());
        prop_assert!((served.total_cost_usd() - direct.total_cost_usd()).abs() < 1e-12);

        let ledger = server.ledger("a").expect("registered tenant");
        prop_assert!(
            (ledger.spent_usd() - client.ledger().spend_usd()).abs() < 1e-9,
            "tenant ledger ({}) must equal the client ledger's delta ({})",
            ledger.spent_usd(),
            client.ledger().spend_usd()
        );
        prop_assert!((ledger.spent_usd() - alone.spent_usd()).abs() < 1e-9);
        prop_assert_eq!(server.ledger("broke").expect("registered").spent_usd(), 0.0);
        prop_assert_eq!(server.leases_in_use(), 0, "every lease released after the run");
    }
}

/// The voted and proxy-gated filter strategies are plan nodes like any
/// other, so a tenant's engine handle runs them under the tenant's ledger:
/// billed to that tenant alone, no lease left held, and refused before any
/// backend call when the tenant has no budget.
#[test]
fn voted_and_proxy_filters_through_engine_for_bill_only_their_tenant() {
    use crowdprompt::core::ops::filter::FilterStrategy;
    let strategies = [
        FilterStrategy::Sequential {
            lead: 2,
            max_votes: 5,
            temperature_pct: 100,
        },
        FilterStrategy::ProxyGated {
            train: 8,
            min_confidence_pct: 5,
        },
    ];
    for strategy in strategies {
        let (w, items) = flag_world(24);
        let server = server_over(
            &w,
            &items,
            7,
            vec![
                TenantSpec::new("a").with_budget(Budget::usd(0.5)),
                TenantSpec::new("b").with_budget(Budget::usd(0.5)),
                TenantSpec::new("broke").with_budget(Budget::usd(0.0)),
            ],
        );
        let client = server.engine().client();
        let run_as = |tenant: &str| {
            let handle = server.engine_for(tenant).expect("registered tenant");
            Query::over(&items)
                .filter_with("hot", strategy)
                .plan_on(&handle)
                .and_then(|plan| plan.execute_on(&handle))
        };

        let refused = run_as("broke");
        assert!(
            matches!(refused, Err(EngineError::BudgetExceeded { .. })),
            "{strategy:?}: expected BudgetExceeded, got {refused:?}"
        );
        assert_eq!(client.stats().calls(), 0, "refusal precedes any call");

        let served = run_as("a").expect("within the tenant's budget");
        assert!(served.total_calls() > 0, "{strategy:?} reaches the backend");
        let spent = |tenant: &str| server.ledger(tenant).expect("registered").spent_usd();
        assert!(
            (spent("a") - client.ledger().spend_usd()).abs() < 1e-9,
            "{strategy:?}: tenant ledger ({}) must equal the client ledger's delta ({})",
            spent("a"),
            client.ledger().spend_usd()
        );
        assert!((spent("a") - served.total_cost_usd()).abs() < 1e-9);
        assert_eq!(spent("b"), 0.0);
        assert_eq!(spent("broke"), 0.0);
        assert_eq!(server.leases_in_use(), 0, "every lease released");
    }
}

/// A cascade polls engines its caller owns, so over two tenants' handles
/// each tier's votes are billed to that tier's tenant — and a tier 0 whose
/// tenant has no budget refuses the whole cascade before any call (the
/// private per-tier engines this replaced spent freely past a $0 cap).
#[test]
fn a_cascade_over_two_tenants_bills_each_tier_to_its_own_tenant() {
    use crowdprompt::core::cascade::{run_cascade, CascadeTier};
    let (w, items) = flag_world(30);
    // A noisy model, so a unanimity margin sends most items up a tier.
    let noise = NoiseProfile {
        check_accuracy: 0.6,
        malformed_rate: 0.0,
        ..NoiseProfile::perfect()
    };
    let session = || {
        let profile = ModelProfile::gpt35_like().with_noise(noise.clone());
        let llm = SimulatedLlm::new(profile, Arc::new(w.clone()), 11);
        Session::builder()
            .client(Arc::new(LlmClient::new(Arc::new(llm))))
            .corpus(Corpus::from_world(&w, &items))
            .build()
    };
    let server = session()
        .serve()
        .tenant(TenantSpec::new("cheap").with_budget(Budget::usd(0.5)))
        .tenant(TenantSpec::new("strong").with_budget(Budget::usd(0.5)))
        .tenant(TenantSpec::new("broke").with_budget(Budget::usd(0.0)))
        .try_build()
        .expect("serving stack must build");
    let client = server.engine().client();
    let handle = |tenant: &str| server.engine_for(tenant).expect("registered tenant");
    let spent = |tenant: &str| server.ledger(tenant).expect("registered").spent_usd();
    let tiers = |first, second| {
        [
            CascadeTier {
                engine: first,
                votes: 3,
                temperature_pct: 100,
            },
            CascadeTier {
                engine: second,
                votes: 5,
                temperature_pct: 90,
            },
        ]
    };
    let (cheap, strong, broke) = (handle("cheap"), handle("strong"), handle("broke"));

    let refused = run_cascade(&tiers(&broke, &strong), check_tasks(&items), 1.0);
    assert!(
        matches!(refused, Err(EngineError::BudgetExceeded { .. })),
        "expected BudgetExceeded, got {refused:?}"
    );
    assert_eq!(client.stats().calls(), 0, "refused whole, before any call");

    let out = run_cascade(&tiers(&cheap, &strong), check_tasks(&items), 1.0)
        .expect("within both tenants' budgets");
    let escalated = out.value.iter().filter(|v| v.deepest_tier == 1).count();
    assert!(escalated > 0 && escalated < items.len(), "{escalated}");
    // Tier 0 polled everything, tier 1 only what escalated.
    assert_eq!(out.calls as usize, 3 * items.len() + 5 * escalated);
    // Tier 0's tenant paid for exactly its three votes per item — what a
    // three-vote filter costs a standalone session on the same model.
    let tier0_votes = crowdprompt::core::ops::filter::FilterStrategy::MajorityVote {
        votes: 3,
        temperature_pct: 100,
    };
    let alone = session();
    let plan = alone.plan(alone.query(&items).filter_with("hot", tier0_votes));
    let alone = plan.unwrap().execute(&alone).unwrap();
    assert!((spent("cheap") - alone.total_cost_usd()).abs() < 1e-9);
    assert!(spent("strong") > 0.0);
    assert!((spent("cheap") + spent("strong") - out.cost_usd).abs() < 1e-9);
    assert!((out.cost_usd - client.ledger().spend_usd()).abs() < 1e-9);
    assert_eq!(spent("broke"), 0.0);
    assert_eq!(server.leases_in_use(), 0, "every lease released");
}
