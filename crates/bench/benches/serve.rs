//! Serving-layer benchmarks — the PR-10 multi-tenant front end.
//!
//! Three questions, each answered with a timed group or a recorded counter
//! plus in-bench assertions on the invariants the serving property suite
//! tests:
//!
//! * **What do equal weights guarantee at scale?** A 64-tenant workload
//!   drained through the deficit-round-robin feed, cut mid-round: the
//!   p99-over-median ratio of per-tenant claims must stay ≤ 2× (DRR with
//!   equal integer weights keeps it within one quantum, ~1.03×).
//! * **Can a saturating tenant starve another?** A 2048-item backlog next
//!   to a 16-item one, equal weights: the light tenant drains within
//!   ~2× its own length in claims, and in the end-to-end threaded run the
//!   small batch completes while the hog's work is still outstanding.
//! * **Does billing partition?** After a concurrent 64-tenant run, each
//!   tenant's metered response costs equal its private ledger, the tenant
//!   ledgers sum to the shared client ledger, and spend + remaining
//!   reconstructs each tenant's budget — meter == ledger == budget.
//!
//! Run with `CRITERION_JSON=BENCH_serve.json cargo bench --bench serve`
//! to record the JSON baseline.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::io::Write as _;
use std::sync::Arc;

use crowdprompt_core::{Budget, Corpus, Engine, FairFeed, Server, ServerBuilder, TenantSpec};
use crowdprompt_oracle::model::NoiseProfile;
use crowdprompt_oracle::task::TaskDescriptor;
use crowdprompt_oracle::types::CompletionResponse;
use crowdprompt_oracle::world::{ItemId, WorldModel};
use crowdprompt_oracle::{LlmClient, ModelProfile, SimulatedLlm};

/// Tenants in the fan-out workloads.
const TENANTS: usize = 64;
/// Tasks per tenant in the concurrent workload.
const PER_TENANT: usize = 4;

fn serve_world(n: usize) -> (Arc<WorldModel>, Vec<ItemId>) {
    let mut w = WorldModel::new();
    let ids = (0..n)
        .map(|i| {
            let id = w.add_item(format!("tenant request {i}: classify priority {}", i % 5));
            w.set_flag(id, "urgent", i % 3 == 0);
            id
        })
        .collect();
    (Arc::new(w), ids)
}

/// A fresh cold-cache engine over a *priced* perfect-noise simulated model,
/// so every dispatch is billed and every admitted task completes.
fn fresh_engine(world: &Arc<WorldModel>, ids: &[ItemId]) -> Engine {
    let llm = Arc::new(SimulatedLlm::new(
        ModelProfile::gpt35_like().with_noise(NoiseProfile::perfect()),
        Arc::clone(world),
        11,
    ));
    // Parallelism 1: `submit` runs the engine's one pump with its caller as
    // the only worker.
    Engine::new(
        Arc::new(LlmClient::new(llm)),
        Corpus::from_world(world, ids),
    )
    .with_parallelism(1)
}

fn check_tasks(ids: &[ItemId]) -> Vec<TaskDescriptor> {
    ids.iter()
        .map(|id| TaskDescriptor::CheckPredicate {
            item: *id,
            predicate: "urgent".into(),
        })
        .collect()
}

/// Sum of actual (non-cached) response costs — the "meter" leg of the
/// meter == ledger == budget invariant.
fn metered_usd(results: &[Result<CompletionResponse, crowdprompt_core::EngineError>]) -> f64 {
    results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .filter(|r| !r.cached)
        .map(|r| r.pricing.cost_usd(r.usage))
        .sum()
}

/// Append an extra JSON line (same file the criterion shim writes) for
/// non-timing measurements like fairness ratios and completion counters.
fn record_ns(name: &str, ns: u64) {
    println!("bench: {name:<48} {ns:>14} ns (recorded)");
    if let Ok(path) = std::env::var("CRITERION_JSON") {
        let line = format!("{{\"name\":\"{name}\",\"ns\":{ns}}}\n");
        let _ = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
    }
}

/// Build a 64-tenant equal-weight feed with `backlog` items per tenant.
/// Items are tagged `tenant * stride + ordinal` so a claim identifies its
/// tenant by integer division.
fn backlogged_feed(backlog: usize, stride: usize) -> FairFeed<usize> {
    let feed = FairFeed::new();
    for tenant in 0..TENANTS {
        assert!(feed.register(&format!("t{tenant}"), 1.0));
        for item in 0..backlog {
            assert!(feed.push(&format!("t{tenant}"), tenant * stride + item));
        }
    }
    feed
}

/// DRR claim cost at 64-tenant scale, plus the recorded fairness ratio.
fn bench_fairness(c: &mut Criterion) {
    let window = TENANTS * 32;

    let mut group = c.benchmark_group("serve_fairness");
    group.bench_function("claim_drain_64x32", |b| {
        b.iter_batched(
            || backlogged_feed(32, 32),
            |feed| {
                for _ in 0..window {
                    feed.claim().expect("backlogged feed has work");
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();

    // Fairness at an arbitrary cut point: drain a window that is NOT a
    // whole number of rounds (the honest case) and compare the p99
    // per-tenant claim count against the median.
    let cut = window + 17;
    let feed = backlogged_feed(40, 40);
    let mut counts = vec![0u64; TENANTS];
    for _ in 0..cut {
        let item = feed.claim().expect("backlogged feed has work");
        counts[item / 40] += 1;
    }
    counts.sort_unstable();
    let p99 = counts[TENANTS - 1];
    let median = counts[TENANTS / 2];
    let ratio_x1000 = p99 * 1000 / median.max(1);
    assert!(
        ratio_x1000 <= 2000,
        "equal-weight p99/median claim ratio must stay <= 2x, got {p99}/{median}"
    );
    record_ns("serve_fairness/p99_over_median_x1000", ratio_x1000);

    // Starvation at the feed level: a 2048-item hog next to a 16-item
    // light tenant, equal weights. DRR alternates, so the light backlog
    // drains within ~2x its own length regardless of the hog's depth.
    let feed: FairFeed<usize> = FairFeed::new();
    assert!(feed.register("hog", 1.0));
    assert!(feed.register("light", 1.0));
    for i in 0..2048 {
        assert!(feed.push("hog", i));
    }
    for i in 0..16 {
        assert!(feed.push("light", 10_000 + i));
    }
    let mut claims = 0u64;
    let mut light_seen = 0;
    while light_seen < 16 {
        let item = feed.claim().expect("feed has work");
        claims += 1;
        if item >= 10_000 {
            light_seen += 1;
        }
    }
    assert!(
        claims <= 48,
        "light tenant must drain within ~2x its backlog, took {claims} claims"
    );
    record_ns("serve_fairness/claims_to_drain_light_of_2048", claims);
}

/// A 64-tenant server over one shared engine, each tenant owning a
/// distinct item slice (so the shared cache cannot collapse paid work),
/// each on a finite budget so the billing invariant has a third leg.
fn tenant_server(world: &Arc<WorldModel>, ids: &[ItemId]) -> Server {
    let mut builder = ServerBuilder::new()
        .engine(fresh_engine(world, ids))
        .max_backlog(TENANTS * PER_TENANT * 4);
    for tenant in 0..TENANTS {
        builder =
            builder.tenant(TenantSpec::new(format!("t{tenant}")).with_budget(Budget::usd(1.0)));
    }
    builder.try_build().expect("64-tenant server builds")
}

/// Concurrent 64-tenant throughput, then the billing-partition audit.
fn bench_concurrent(c: &mut Criterion) {
    let (world, ids) = serve_world(TENANTS * PER_TENANT);

    let mut group = c.benchmark_group("serve_concurrent");
    group.bench_function("tenants_64x4", |b| {
        b.iter_batched(
            || tenant_server(&world, &ids),
            |server| {
                std::thread::scope(|scope| {
                    for tenant in 0..TENANTS {
                        let server = &server;
                        let slice = &ids[tenant * PER_TENANT..(tenant + 1) * PER_TENANT];
                        scope.spawn(move || {
                            let run = server
                                .submit(&format!("t{tenant}"), check_tasks(slice))
                                .expect("solvent in-quota tenant admits");
                            assert!(run.is_complete());
                        });
                    }
                });
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();

    // Billing partition, audited once on a fresh run: per tenant the
    // metered response costs equal the private ledger, spend + remaining
    // reconstructs the budget, and the tenant ledgers sum to the shared
    // client ledger. Every lease is back in the table afterwards.
    let server = tenant_server(&world, &ids);
    let mut completed = 0u64;
    let mut tenant_total = 0.0f64;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(TENANTS);
        for tenant in 0..TENANTS {
            let server = &server;
            let slice = &ids[tenant * PER_TENANT..(tenant + 1) * PER_TENANT];
            handles.push(scope.spawn(move || {
                let run = server
                    .submit(&format!("t{tenant}"), check_tasks(slice))
                    .expect("solvent in-quota tenant admits");
                (tenant, metered_usd(&run.results), run.ok_count() as u64)
            }));
        }
        for handle in handles {
            let (tenant, meter, ok) = handle.join().expect("tenant thread");
            completed += ok;
            let ledger = server
                .ledger(&format!("t{tenant}"))
                .expect("registered tenant");
            assert!(
                (meter - ledger.spent_usd()).abs() < 1e-9,
                "tenant t{tenant}: meter {meter} != ledger {}",
                ledger.spent_usd()
            );
            assert!(
                (ledger.spent_usd() + ledger.remaining_usd() - 1.0).abs() < 1e-9,
                "tenant t{tenant}: spend + remaining must reconstruct the $1 budget"
            );
            tenant_total += ledger.spent_usd();
        }
    });
    let client_total = server.engine().client().ledger().spend_usd();
    assert!(
        (tenant_total - client_total).abs() < 1e-9,
        "tenant ledgers ({tenant_total}) must partition the client ledger ({client_total})"
    );
    assert_eq!(
        server.leases_in_use(),
        0,
        "every lease released after drain"
    );
    record_ns("serve_concurrent/completed_of_256", completed);

    // End-to-end starvation check: a hog submitting a 256-task batch and a
    // light tenant submitting 8 tasks concurrently. Fair claiming plus
    // cooperative driving means the light batch completes even while the
    // hog's backlog is outstanding — both finish, nothing is starved.
    let (world, ids) = serve_world(256 + 8);
    let server = ServerBuilder::new()
        .engine(fresh_engine(&world, &ids))
        .max_backlog(4096)
        .tenant(TenantSpec::new("hog").with_rate_limit(512.0, 64.0))
        .tenant(TenantSpec::new("light"))
        .try_build()
        .expect("hog/light server builds");
    std::thread::scope(|scope| {
        let hog = scope.spawn(|| {
            server
                .submit("hog", check_tasks(&ids[..256]))
                .expect("hog admits")
        });
        let light = scope.spawn(|| {
            server
                .submit("light", check_tasks(&ids[256..]))
                .expect("light admits")
        });
        let hog_run = hog.join().expect("hog thread");
        let light_run = light.join().expect("light thread");
        assert!(hog_run.is_complete() && light_run.is_complete());
        record_ns(
            "serve_starvation/hog_completed_of_256",
            hog_run.ok_count() as u64,
        );
        record_ns(
            "serve_starvation/light_completed_of_8",
            light_run.ok_count() as u64,
        );
    });
    assert_eq!(
        server.leases_in_use(),
        0,
        "every lease released after drain"
    );
}

criterion_group!(benches, bench_fairness, bench_concurrent);
criterion_main!(benches);
