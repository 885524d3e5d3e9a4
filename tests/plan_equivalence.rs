//! Plan equivalence: every operator runs through one door, `Query`, and
//! that door must behave the same however it is entered. For each
//! operator × strategy a one-node query is planned and executed twice:
//!
//! * through a [`Session`] — `session.plan(session.query(..)..)` then
//!   `Plan::execute` (the "plan" side);
//! * directly on a bare [`Engine`] built with the same settings —
//!   `Query::plan_on` then `Plan::execute_on` (the "eager" side, the
//!   lowest-level way left to run an operator).
//!
//! Both sides must produce bit-identical results and identical ledger
//! spend under a fixed seed — the simulator is deterministic, so this is
//! checkable exactly.
//!
//! Each comparison runs on two *fresh* stacks built from the same world
//! and simulator seed, so neither side can borrow the other's cache.

use std::sync::Arc;

use crowdprompt::core::{Corpus, Engine};
use crowdprompt::oracle::world::{ItemId, WorldModel};
use crowdprompt::prelude::*;

/// A world exercising every operator: latent scores, two flags, a label
/// attribute, a city attribute, and near-duplicate cluster structure.
fn world(n: usize) -> (WorldModel, Vec<ItemId>) {
    let mut w = WorldModel::new();
    let ids: Vec<ItemId> = (0..n)
        .map(|i| {
            let id = w.add_item(format!(
                "vendor record {:02} lot {} unit variant {}",
                i / 3,
                i / 3,
                i % 3
            ));
            w.set_score(id, (i as f64 * 1.37).sin().abs());
            w.set_salience(id, 1.0);
            w.set_flag(id, "active", i % 2 == 0);
            w.set_attr(id, "label", if i % 3 == 0 { "bulk" } else { "retail" });
            w.set_attr(id, "city", if i % 2 == 0 { "oakland" } else { "fresno" });
            w.set_cluster(id, (i / 3) as u64);
            id
        })
        .collect();
    (w, ids)
}

fn client(w: &WorldModel) -> Arc<LlmClient> {
    let llm = SimulatedLlm::new(ModelProfile::gpt35_like(), Arc::new(w.clone()), 29);
    Arc::new(LlmClient::new(Arc::new(llm)))
}

/// A fresh engine over a clone of the world — identical simulator stream.
fn engine(w: &WorldModel, ids: &[ItemId]) -> Engine {
    Engine::new(client(w), Corpus::from_world(w, ids))
        .with_budget(Budget::Unlimited)
        .with_seed(5)
        .with_criterion_label("by importance")
}

/// A fresh session configured like [`engine`].
fn session(w: &WorldModel, ids: &[ItemId]) -> Session {
    Session::builder()
        .client(client(w))
        .corpus(Corpus::from_world(w, ids))
        .budget(Budget::Unlimited)
        .seed(5)
        .criterion("by importance")
        .try_build()
        .expect("client configured")
}

/// Assert two engines spent identically (token ledger + USD ledger).
fn assert_ledgers_match(plan_engine: &Engine, eager_engine: &Engine, what: &str) {
    assert_eq!(
        plan_engine.budget().spent_tokens(),
        eager_engine.budget().spent_tokens(),
        "{what}: token ledgers diverge"
    );
    let a = plan_engine.budget().spent_usd();
    let b = eager_engine.budget().spent_usd();
    assert!(
        (a - b).abs() < 1e-12,
        "{what}: usd ledgers diverge {a} vs {b}"
    );
}

fn assert_accounting_match<T: PartialEq + std::fmt::Debug>(
    plan: &Outcome<T>,
    eager: &Outcome<T>,
    what: &str,
) {
    assert_eq!(plan.value, eager.value, "{what}: values diverge");
    assert_eq!(plan.usage, eager.usage, "{what}: usage diverges");
    assert_eq!(plan.calls, eager.calls, "{what}: calls diverge");
    assert!(
        (plan.cost_usd - eager.cost_usd).abs() < 1e-12,
        "{what}: cost diverges"
    );
}

/// Run `query` through a fresh session and on a fresh bare engine, and
/// assert both sides agree in values, accounting and ledger spend.
fn assert_doors_agree<T: PartialEq + std::fmt::Debug>(
    w: &WorldModel,
    ids: &[ItemId],
    query: Query,
    value: impl Fn(PlanOutput) -> T,
    what: &str,
) {
    let s = session(w, ids);
    let plan_out = s
        .plan(query.clone())
        .unwrap()
        .execute(&s)
        .unwrap()
        .into_outcome(&value);
    let eager = engine(w, ids);
    let eager_out = query
        .plan_on(&eager)
        .unwrap()
        .execute_on(&eager)
        .unwrap()
        .into_outcome(&value);
    assert_accounting_match(&plan_out, &eager_out, what);
    assert_ledgers_match(s.engine(), &eager, what);
}

#[test]
fn sort_plan_matches_eager() {
    let (w, ids) = world(18);
    for strategy in [
        SortStrategy::SinglePrompt,
        SortStrategy::Pairwise,
        SortStrategy::Rating {
            scale_min: 1,
            scale_max: 7,
        },
        SortStrategy::ChunkedMerge { chunk_size: 6 },
    ] {
        let what = format!("sort/{}", strategy.name());
        assert_doors_agree(
            &w,
            &ids,
            Query::over(&ids).sort_with(SortCriterion::LatentScore, strategy),
            |out| match out {
                PlanOutput::Sorted(s) => s,
                other => panic!("expected sort output, got {other:?}"),
            },
            &what,
        );
    }
}

#[test]
fn filter_plan_matches_eager() {
    let (w, ids) = world(24);
    for strategy in [
        FilterStrategy::Single,
        FilterStrategy::MajorityVote {
            votes: 3,
            temperature_pct: 80,
        },
        FilterStrategy::ConfidenceGated {
            min_confidence_pct: 65,
            votes: 3,
        },
        FilterStrategy::Sequential {
            lead: 2,
            max_votes: 5,
            temperature_pct: 80,
        },
        FilterStrategy::ProxyGated {
            train: 8,
            min_confidence_pct: 5,
        },
        FilterStrategy::Verified { max_rounds: 3 },
    ] {
        let what = format!("filter/{}", strategy.name());
        assert_doors_agree(
            &w,
            &ids,
            Query::over(&ids).filter_with("active", strategy),
            |out| out.into_items().unwrap(),
            &what,
        );
    }
}

#[test]
fn count_plan_matches_eager() {
    let (w, ids) = world(30);
    for strategy in [
        CountStrategy::PerItem,
        CountStrategy::Eyeball { batch_size: 8 },
    ] {
        let what = format!("count/{}", strategy.name());
        assert_doors_agree(
            &w,
            &ids,
            Query::over(&ids).count_with("active", strategy),
            |out| out.count().unwrap(),
            &what,
        );
    }
}

#[test]
fn categorize_plan_matches_eager() {
    let (w, ids) = world(21);
    let labels = vec!["bulk".to_owned(), "retail".to_owned()];
    assert_doors_agree(
        &w,
        &ids,
        Query::over(&ids).categorize(labels),
        |out| match out {
            PlanOutput::Labels(l) => l,
            other => panic!("expected labels, got {other:?}"),
        },
        "categorize",
    );
}

#[test]
fn max_plan_matches_eager() {
    let (w, ids) = world(16);
    for strategy in [
        MaxStrategy::Tournament,
        MaxStrategy::RateThenPlayoff {
            buckets: 7,
            playoff_size: 4,
        },
    ] {
        let what = format!("max/{}", strategy.name());
        assert_doors_agree(
            &w,
            &ids,
            Query::over(&ids).max_with(SortCriterion::LatentScore, strategy),
            |out| out.max_item().unwrap(),
            &what,
        );
    }
}

#[test]
fn top_k_plan_matches_eager() {
    let (w, ids) = world(20);
    assert_doors_agree(
        &w,
        &ids,
        Query::over(&ids).top_k_with(SortCriterion::LatentScore, 4, 2),
        |out| out.into_items().unwrap(),
        "top-k",
    );
}

#[test]
fn join_plan_matches_eager() {
    let (w, ids) = world(24);
    let (left, right) = ids.split_at(12);
    for strategy in [
        JoinStrategy::AllPairs,
        JoinStrategy::Blocked {
            candidates: 3,
            max_distance: 1.5,
        },
    ] {
        let what = format!("join/{}", strategy.name());
        assert_doors_agree(
            &w,
            &ids,
            Query::over(left).join_with(right, strategy),
            |out| match out {
                PlanOutput::Join(j) => j,
                other => panic!("expected join output, got {other:?}"),
            },
            &what,
        );
    }
}

#[test]
fn cluster_plan_matches_eager() {
    let (w, ids) = world(18);
    let groups = |out: PlanOutput| match out {
        PlanOutput::Groups(g) => g,
        other => panic!("expected groups, got {other:?}"),
    };
    // Exhaustive probing.
    assert_doors_agree(
        &w,
        &ids,
        Query::over(&ids).cluster_exhaustive(6),
        groups,
        "cluster",
    );
    // Blocked probing.
    assert_doors_agree(
        &w,
        &ids,
        Query::over(&ids).cluster_blocked(6, 2),
        groups,
        "cluster-blocked",
    );
}

#[test]
fn dedup_plan_matches_eager() {
    let (w, ids) = world(18);
    assert_doors_agree(
        &w,
        &ids,
        Query::over(&ids).resolve(3, 1.5),
        |out| match out {
            PlanOutput::Groups(g) => g,
            other => panic!("expected groups, got {other:?}"),
        },
        "dedup",
    );
    // Pairwise questions over the same records, with and without the
    // blocking index the node builds over its own items.
    let pairs: Vec<(ItemId, ItemId)> = ids.windows(2).step_by(2).map(|p| (p[0], p[1])).collect();
    for strategy in [
        ResolveStrategy::Pairwise,
        ResolveStrategy::TransitivityAugmented { k: 2 },
    ] {
        let what = format!("resolve-pairs/{strategy:?}");
        assert_doors_agree(
            &w,
            &ids,
            Query::over(&ids).resolve_pairs(pairs.clone(), strategy),
            |out| match out {
                PlanOutput::Verdicts(v) => v,
                other => panic!("expected verdicts, got {other:?}"),
            },
            &what,
        );
    }
}

#[test]
fn impute_plan_matches_eager() {
    let (w, ids) = world(20);
    let labeled: Vec<(ItemId, String)> = ids
        .iter()
        .map(|id| {
            (
                *id,
                if id.0 % 2 == 0 { "oakland" } else { "fresno" }.to_owned(),
            )
        })
        .collect();
    for strategy in [
        ImputeStrategy::KnnOnly { k: 3 },
        ImputeStrategy::LlmOnly { shots: 2 },
        ImputeStrategy::Hybrid { k: 3, shots: 2 },
    ] {
        let what = format!("impute/{}", strategy.name());
        assert_doors_agree(
            &w,
            &ids,
            Query::over(&ids).impute_with("city", labeled.clone(), strategy),
            |out| match out {
                PlanOutput::Values(v) => v,
                other => panic!("expected values, got {other:?}"),
            },
            &what,
        );
    }
}

#[test]
fn session_wrappers_report_plan_identical_outcomes() {
    // A session is a thin wrapper over its engine: `Session::query` and
    // `Session::plan` must lower to the same plan a bare engine gets, and
    // the session's spend must be the run's reported spend.
    let (w, ids) = world(20);
    let s1 = session(&w, &ids);
    let plan1 = s1
        .plan(s1.query(&ids).filter_with("active", FilterStrategy::Single))
        .unwrap();
    let bare = engine(&w, &ids);
    let plan2 = Query::over(&ids)
        .filter_with("active", FilterStrategy::Single)
        .plan_on(&bare)
        .unwrap();
    assert_eq!(plan1.explain(), plan2.explain());
    let via_session = plan1
        .execute(&s1)
        .unwrap()
        .into_outcome(|out| out.into_items().unwrap());
    let via_plan = plan2
        .execute_on(&bare)
        .unwrap()
        .into_outcome(|out| out.into_items().unwrap());
    assert_eq!(via_session.value, via_plan.value);
    assert_eq!(via_session.calls, via_plan.calls);
    // Spent USD is an f64 accumulated by concurrent pipeline workers, so
    // the summation order (and thus the last few ulps) varies per run —
    // compare with an epsilon, not bit equality.
    assert!(
        (s1.spent_usd() - bare.budget().spent_usd()).abs() < 1e-12,
        "spend differs: {} vs {}",
        s1.spent_usd(),
        bare.budget().spent_usd()
    );
    assert!(
        (s1.spent_usd() - via_session.cost_usd).abs() < 1e-12,
        "session spend {} differs from the run's reported cost {}",
        s1.spent_usd(),
        via_session.cost_usd
    );
}
