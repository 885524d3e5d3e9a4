//! Plan/eager equivalence: for every operator, a single-node plan must
//! produce bit-identical results and identical ledger spend to the
//! corresponding eager formulation (the `Session` method / direct operator
//! call) under a fixed seed — the simulator is deterministic, so this is
//! checkable exactly.
//!
//! Each comparison runs on two *fresh* engines built from the same world
//! and simulator seed, so neither path can borrow the other's cache.

use std::sync::Arc;

use crowdprompt::core::ops;
use crowdprompt::core::ops::cluster::{cluster, cluster_blocked};
use crowdprompt::core::ops::impute::LabeledPool;
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

/// A fresh engine over a clone of the world — identical simulator stream.
fn engine(w: &WorldModel, ids: &[ItemId]) -> Engine {
    let llm = SimulatedLlm::new(ModelProfile::gpt35_like(), Arc::new(w.clone()), 29);
    Engine::new(
        Arc::new(LlmClient::new(Arc::new(llm))),
        Corpus::from_world(w, ids),
    )
    .with_budget(Budget::Unlimited)
    .with_seed(5)
    .with_criterion_label("by importance")
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
        let planned = engine(&w, &ids);
        let run = Query::over(&ids)
            .sort_with(SortCriterion::LatentScore, strategy.clone())
            .plan_on(&planned)
            .unwrap()
            .execute_on(&planned)
            .unwrap();
        let plan_out = run.into_outcome(|out| match out {
            PlanOutput::Sorted(s) => s,
            other => panic!("expected sort output, got {other:?}"),
        });
        let eager = engine(&w, &ids);
        let eager_out =
            ops::sort::sort(&eager, &ids, SortCriterion::LatentScore, &strategy).unwrap();
        let what = format!("sort/{}", strategy.name());
        assert_accounting_match(&plan_out, &eager_out, &what);
        assert_ledgers_match(&planned, &eager, &what);
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
        let planned = engine(&w, &ids);
        let run = Query::over(&ids)
            .filter_with("active", strategy)
            .plan_on(&planned)
            .unwrap()
            .execute_on(&planned)
            .unwrap();
        let plan_out = run.into_outcome(|out| out.into_items().unwrap());
        let eager = engine(&w, &ids);
        let eager_out = ops::filter::filter(&eager, &ids, "active", strategy).unwrap();
        let what = format!("filter/{}", strategy.name());
        assert_accounting_match(&plan_out, &eager_out, &what);
        assert_ledgers_match(&planned, &eager, &what);
    }
}

#[test]
fn count_plan_matches_eager() {
    let (w, ids) = world(30);
    for strategy in [
        CountStrategy::PerItem,
        CountStrategy::Eyeball { batch_size: 8 },
    ] {
        let planned = engine(&w, &ids);
        let run = Query::over(&ids)
            .count_with("active", strategy)
            .plan_on(&planned)
            .unwrap()
            .execute_on(&planned)
            .unwrap();
        let plan_out = run.into_outcome(|out| out.count().unwrap());
        let eager = engine(&w, &ids);
        let eager_out = ops::count::count(&eager, &ids, "active", strategy).unwrap();
        let what = format!("count/{}", strategy.name());
        assert_accounting_match(&plan_out, &eager_out, &what);
        assert_ledgers_match(&planned, &eager, &what);
    }
}

#[test]
fn categorize_plan_matches_eager() {
    let (w, ids) = world(21);
    let labels = vec!["bulk".to_owned(), "retail".to_owned()];
    let planned = engine(&w, &ids);
    let run = Query::over(&ids)
        .categorize(labels.clone())
        .plan_on(&planned)
        .unwrap()
        .execute_on(&planned)
        .unwrap();
    let plan_out = run.into_outcome(|out| match out {
        PlanOutput::Labels(l) => l,
        other => panic!("expected labels, got {other:?}"),
    });
    let eager = engine(&w, &ids);
    let eager_out = ops::categorize::categorize(&eager, &ids, &labels).unwrap();
    assert_accounting_match(&plan_out, &eager_out, "categorize");
    assert_ledgers_match(&planned, &eager, "categorize");
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
        let planned = engine(&w, &ids);
        let run = Query::over(&ids)
            .max_with(SortCriterion::LatentScore, strategy)
            .plan_on(&planned)
            .unwrap()
            .execute_on(&planned)
            .unwrap();
        let plan_out = run.into_outcome(|out| out.max_item().unwrap());
        let eager = engine(&w, &ids);
        let eager_out =
            ops::max::find_max(&eager, &ids, SortCriterion::LatentScore, strategy).unwrap();
        let what = format!("max/{}", strategy.name());
        assert_accounting_match(&plan_out, &eager_out, &what);
        assert_ledgers_match(&planned, &eager, &what);
    }
}

#[test]
fn top_k_plan_matches_eager() {
    let (w, ids) = world(20);
    let planned = engine(&w, &ids);
    let run = Query::over(&ids)
        .top_k_with(SortCriterion::LatentScore, 4, 2)
        .plan_on(&planned)
        .unwrap()
        .execute_on(&planned)
        .unwrap();
    let plan_out = run.into_outcome(|out| out.into_items().unwrap());
    let eager = engine(&w, &ids);
    let eager_out = ops::topk::top_k(&eager, &ids, SortCriterion::LatentScore, 4, 2).unwrap();
    assert_accounting_match(&plan_out, &eager_out, "top-k");
    assert_ledgers_match(&planned, &eager, "top-k");
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
        let planned = engine(&w, &ids);
        let run = Query::over(left)
            .join_with(right, strategy.clone())
            .plan_on(&planned)
            .unwrap()
            .execute_on(&planned)
            .unwrap();
        let plan_out = run.into_outcome(|out| match out {
            PlanOutput::Join(j) => j,
            other => panic!("expected join output, got {other:?}"),
        });
        let eager = engine(&w, &ids);
        let eager_out = ops::join::fuzzy_join(&eager, left, right, &strategy).unwrap();
        let what = format!("join/{}", strategy.name());
        assert_accounting_match(&plan_out, &eager_out, &what);
        assert_ledgers_match(&planned, &eager, &what);
    }
}

#[test]
fn cluster_plan_matches_eager() {
    let (w, ids) = world(18);
    // Exhaustive probing.
    let planned = engine(&w, &ids);
    let run = Query::over(&ids)
        .cluster_exhaustive(6)
        .plan_on(&planned)
        .unwrap()
        .execute_on(&planned)
        .unwrap();
    let plan_out = run.into_outcome(|out| match out {
        PlanOutput::Groups(g) => g,
        other => panic!("expected groups, got {other:?}"),
    });
    let eager = engine(&w, &ids);
    let eager_out = cluster(&eager, &ids, 6).unwrap();
    assert_accounting_match(&plan_out, &eager_out, "cluster");
    assert_ledgers_match(&planned, &eager, "cluster");

    // Blocked probing.
    let planned = engine(&w, &ids);
    let run = Query::over(&ids)
        .cluster_blocked(6, 2)
        .plan_on(&planned)
        .unwrap()
        .execute_on(&planned)
        .unwrap();
    let plan_out = run.into_outcome(|out| match out {
        PlanOutput::Groups(g) => g,
        other => panic!("expected groups, got {other:?}"),
    });
    let eager = engine(&w, &ids);
    let eager_out = cluster_blocked(&eager, &ids, 6, 2).unwrap();
    assert_accounting_match(&plan_out, &eager_out, "cluster-blocked");
    assert_ledgers_match(&planned, &eager, "cluster-blocked");
}

#[test]
fn dedup_plan_matches_eager() {
    let (w, ids) = world(18);
    let planned = engine(&w, &ids);
    let run = Query::over(&ids)
        .resolve(3, 1.5)
        .plan_on(&planned)
        .unwrap()
        .execute_on(&planned)
        .unwrap();
    let plan_out = run.into_outcome(|out| match out {
        PlanOutput::Groups(g) => g,
        other => panic!("expected groups, got {other:?}"),
    });
    let eager = engine(&w, &ids);
    let index = BlockingIndex::build(&eager, &ids).unwrap();
    let eager_out = ops::resolve::dedup(&eager, &ids, &index, 3, 1.5).unwrap();
    assert_accounting_match(&plan_out, &eager_out, "dedup");
    assert_ledgers_match(&planned, &eager, "dedup");
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
        let planned = engine(&w, &ids);
        let run = Query::over(&ids)
            .impute_with("city", labeled.clone(), strategy.clone())
            .plan_on(&planned)
            .unwrap()
            .execute_on(&planned)
            .unwrap();
        let plan_out = run.into_outcome(|out| match out {
            PlanOutput::Values(v) => v,
            other => panic!("expected values, got {other:?}"),
        });
        let eager = engine(&w, &ids);
        let pool = LabeledPool::build(&eager, &labeled).unwrap();
        let eager_out = ops::impute::impute(&eager, &ids, "city", &pool, &strategy).unwrap();
        let what = format!("impute/{}", strategy.name());
        assert_accounting_match(&plan_out, &eager_out, &what);
        assert_ledgers_match(&planned, &eager, &what);
    }
}

#[test]
fn session_wrappers_report_plan_identical_outcomes() {
    // The Session operator methods are themselves single-node plan
    // wrappers; spot-check that a session call and an explicit plan agree
    // bit-for-bit on fresh engines.
    let (w, ids) = world(20);
    let session = |w: &WorldModel| {
        Session::builder()
            .client(Arc::new(LlmClient::new(Arc::new(SimulatedLlm::new(
                ModelProfile::gpt35_like(),
                Arc::new(w.clone()),
                29,
            )))))
            .corpus(Corpus::from_world(w, &ids))
            .budget(Budget::Unlimited)
            .seed(5)
            .criterion("by importance")
            .try_build()
            .expect("client configured")
    };
    let s1 = session(&w);
    let via_session = s1.filter(&ids, "active", FilterStrategy::Single).unwrap();
    let s2 = session(&w);
    let plan = s2
        .plan(s2.query(&ids).filter_with("active", FilterStrategy::Single))
        .unwrap();
    let via_plan = plan
        .execute(&s2)
        .unwrap()
        .into_outcome(|out| out.into_items().unwrap());
    assert_eq!(via_session.value, via_plan.value);
    assert_eq!(via_session.calls, via_plan.calls);
    // Spent USD is an f64 accumulated by concurrent pipeline workers, so
    // the summation order (and thus the last few ulps) varies per run —
    // compare with an epsilon, not bit equality.
    assert!(
        (s1.spent_usd() - s2.spent_usd()).abs() < 1e-12,
        "spend differs: {} vs {}",
        s1.spent_usd(),
        s2.spent_usd()
    );
}
