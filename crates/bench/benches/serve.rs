//! Serving-layer benchmarks — fairness and starvation on the multi-tenant
//! front end, two regimes the end-to-end harness's `serve_64t` does not
//! drive: a feed drained while every tenant stays backlogged, and one
//! tenant's backlog dwarfing another's.
//!
//! * **What do equal weights guarantee at scale?** A 64-tenant workload
//!   drained through the deficit-round-robin feed, cut mid-round: the
//!   p99-over-median ratio of per-tenant claims must stay ≤ 2× (DRR with
//!   equal integer weights keeps it within one quantum, ~1.03×).
//! * **Can a saturating tenant starve another?** A 2048-item backlog next
//!   to a 16-item one, equal weights: the light tenant drains within
//!   ~2× its own length in claims, and in the end-to-end threaded run the
//!   small batch completes while the hog's work is still outstanding.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::sync::Arc;

use crowdprompt_core::{Corpus, Engine, FairFeed, ServerBuilder, TenantSpec};
use crowdprompt_oracle::model::NoiseProfile;
use crowdprompt_oracle::task::TaskDescriptor;
use crowdprompt_oracle::world::{ItemId, WorldModel};
use crowdprompt_oracle::{LlmClient, ModelProfile, SimulatedLlm};

/// Tenants in the fan-out workload.
const TENANTS: usize = 64;

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

/// Print a counter the bench asserts on.
fn report(name: &str, value: u64) {
    println!("bench: {name:<48} {value:>14}");
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

/// DRR claim cost at 64-tenant scale, plus the fairness ratio it keeps.
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
    report("serve_fairness/p99_over_median_x1000", ratio_x1000);

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
    report("serve_fairness/claims_to_drain_light_of_2048", claims);
}

/// End-to-end starvation check: a hog submitting a 256-task batch and a
/// light tenant submitting 8 tasks concurrently. Fair claiming plus
/// cooperative driving means the light batch completes even while the
/// hog's backlog is outstanding — both finish, nothing is starved.
fn bench_starvation(_c: &mut Criterion) {
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
        report(
            "serve_starvation/hog_completed_of_256",
            hog_run.ok_count() as u64,
        );
        report(
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

criterion_group!(benches, bench_fairness, bench_starvation);
criterion_main!(benches);
