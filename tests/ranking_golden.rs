//! Golden outcomes for every operator × strategy on a *noisy* seeded
//! simulator, with the input order different from the id order.
//!
//! The perfect-oracle unit tests cannot see a flipped pair or a reordered
//! bucket — a noiseless comparator answers the same either way round. The
//! simulator's positional bias and the request fingerprint both depend on
//! which item a prompt lists first and on the order tasks are issued in, so
//! these rows pin exactly that: every strategy's value, call count, token
//! usage and cost, each on a fresh engine so no case borrows another's
//! cache. Recorded once; a refactor of the operators must leave every row
//! as it is.

use std::fmt::Debug;
use std::sync::Arc;

use crowdprompt::core::Engine;
use crowdprompt::oracle::world::{ItemId, WorldModel};
use crowdprompt::prelude::*;

const N: usize = 17;

/// Scores, sort keys, near-duplicate clusters of three, a flag, a label
/// and a city, so every operator has something to do on the one world.
fn world() -> (WorldModel, Vec<ItemId>) {
    let mut w = WorldModel::new();
    let ids: Vec<ItemId> = (0..N)
        .map(|i| {
            let text = format!(
                "vendor record {:02} lot {} unit variant {}",
                i / 3,
                i / 3,
                i % 3
            );
            let id = w.add_item(text.clone());
            w.set_score(id, (i as f64 * 1.37).sin().abs());
            w.set_salience(id, 1.0);
            w.set_sort_key(id, text);
            w.set_cluster(id, (i / 3) as u64);
            w.set_flag(id, "active", i % 2 == 0);
            w.set_attr(id, "label", if i % 3 == 0 { "bulk" } else { "retail" });
            w.set_attr(id, "city", city(id));
            id
        })
        .collect();
    (w, ids)
}

fn city(id: ItemId) -> &'static str {
    if id.0.is_multiple_of(2) {
        "oakland"
    } else {
        "fresno"
    }
}

/// The presented order: a fixed permutation that is not the id order.
fn presented(ids: &[ItemId]) -> Vec<ItemId> {
    (0..ids.len())
        .map(|i| ids[(i * 7 + 3) % ids.len()])
        .collect()
}

/// A fresh noisy engine: default comparison/rating/ER noise and positional
/// bias, list sorts that drop items (so `SortThenInsert` and `ChunkedMerge`
/// have omissions to repair), no malformed answers (every case completes).
fn engine(w: &WorldModel, ids: &[ItemId]) -> Engine {
    let mut profile = ModelProfile::gpt35_like();
    profile.noise.sort_drop_rate = 0.2;
    profile.noise.sort_drop_ref_len = 20;
    profile.noise.malformed_rate = 0.0;
    let llm = SimulatedLlm::new(profile, Arc::new(w.clone()), 29);
    Engine::new(
        Arc::new(LlmClient::new(Arc::new(llm))),
        Corpus::from_world(w, ids),
    )
    .with_budget(Budget::Unlimited)
    .with_seed(5)
}

/// One row: name, value (as `Debug`), calls, prompt tokens, completion
/// tokens, cost — as recorded, and as a run produces it.
type Row = (&'static str, &'static str, u64, u32, u32, f64);
type Produced = (String, String, u64, u32, u32, f64);

fn ids_of(items: &[ItemId]) -> Vec<u64> {
    items.iter().map(|id| id.0).collect()
}

fn groups_of(groups: &[Vec<ItemId>]) -> Vec<Vec<u64>> {
    groups.iter().map(|g| ids_of(g)).collect()
}

fn pairs_of(pairs: &[(ItemId, ItemId)]) -> Vec<(u64, u64)> {
    pairs.iter().map(|(a, b)| (a.0, b.0)).collect()
}

struct Recorder {
    world: WorldModel,
    ids: Vec<ItemId>,
    rows: Vec<Produced>,
}

impl Recorder {
    /// Plan and run the query `build` makes over the presented items on a
    /// fresh engine, and record its outcome under `name`.
    fn case<V: Debug>(
        &mut self,
        name: &str,
        build: impl FnOnce(&[ItemId]) -> Query,
        show: impl FnOnce(PlanOutput) -> V,
    ) {
        let engine = engine(&self.world, &self.ids);
        let query = build(&presented(&self.ids));
        let run = query
            .plan_on(&engine)
            .and_then(|plan| plan.execute_on(&engine));
        let out = run
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .into_outcome(show);
        self.rows.push((
            name.to_owned(),
            format!("{:?}", out.value),
            out.calls,
            out.usage.prompt_tokens,
            out.usage.completion_tokens,
            out.cost_usd,
        ));
    }
}

fn record() -> Vec<Produced> {
    let (world, ids) = world();
    let mut r = Recorder {
        world,
        ids,
        rows: Vec::new(),
    };
    let show_sort = |out: PlanOutput| match out {
        PlanOutput::Sorted(s) => (ids_of(&s.order), s.missing, s.hallucinated),
        other => panic!("a sort node returns its sort result, got {other:?}"),
    };
    let show_items = |out: PlanOutput| ids_of(out.items().unwrap());
    let show_groups = |out: PlanOutput| groups_of(out.groups().unwrap());

    for criterion in [SortCriterion::LatentScore, SortCriterion::Lexicographic] {
        for strategy in [
            SortStrategy::SinglePrompt,
            SortStrategy::Pairwise,
            SortStrategy::PairwiseBatched { batch_size: 5 },
            SortStrategy::Rating {
                scale_min: 1,
                scale_max: 7,
            },
            SortStrategy::SortThenInsert,
            SortStrategy::BucketThenCompare { buckets: 4 },
            SortStrategy::ChunkedMerge { chunk_size: 6 },
        ] {
            r.case(
                &format!("sort/{}/{criterion:?}", strategy.name()),
                |items| Query::over(items).sort_with(criterion, strategy.clone()),
                show_sort,
            );
        }
        for strategy in [
            MaxStrategy::Tournament,
            MaxStrategy::RateThenPlayoff {
                buckets: 5,
                playoff_size: 4,
            },
        ] {
            r.case(
                &format!("max/{}/{criterion:?}", strategy.name()),
                |items| Query::over(items).max_with(criterion, strategy),
                |out| out.max_item().unwrap().0,
            );
        }
        // Both top-k branches: everything qualifies (n <= k, ranked exactly)
        // and the rated shortlist.
        r.case(
            &format!("top_k/all/{criterion:?}"),
            |items| Query::over(&items[..6]).top_k_with(criterion, 20, 2),
            show_items,
        );
        r.case(
            &format!("top_k/shortlist/{criterion:?}"),
            |items| Query::over(items).top_k_with(criterion, 3, 2),
            show_items,
        );
    }

    // Question pairs for the resolver: a mix of true duplicates, near
    // misses in the next cluster, and far pairs, each in presented order.
    // A transitive node expands them from a blocking index over the items.
    let questions = |items: &[ItemId]| -> Vec<(ItemId, ItemId)> {
        (0..items.len())
            .map(|i| (items[i], items[(i * 5 + 1) % items.len()]))
            .filter(|(a, b)| a != b)
            .collect()
    };
    for (name, strategy) in [
        ("resolve/pairwise", ResolveStrategy::Pairwise),
        (
            "resolve/transitivity-2",
            ResolveStrategy::TransitivityAugmented { k: 2 },
        ),
    ] {
        r.case(
            name,
            |items| Query::over(items).resolve_pairs(questions(items), strategy),
            |out| out.verdicts().unwrap().to_vec(),
        );
    }
    r.case(
        "dedup",
        |items| Query::over(items).resolve(3, 1.5),
        show_groups,
    );
    let show_join = |out: PlanOutput| match out {
        PlanOutput::Join(j) => (pairs_of(&j.matches), j.candidate_pairs, j.pruned_pairs),
        other => panic!("a join node returns its join result, got {other:?}"),
    };
    for strategy in [
        JoinStrategy::AllPairs,
        JoinStrategy::Blocked {
            candidates: 3,
            max_distance: 1.5,
        },
    ] {
        r.case(
            &format!("join/{}", strategy.name()),
            |items| Query::over(&items[..8]).join_with(&items[8..], strategy.clone()),
            show_join,
        );
    }
    r.case(
        "cluster",
        |items| Query::over(items).cluster_exhaustive(6),
        show_groups,
    );
    r.case(
        "cluster_blocked",
        |items| Query::over(items).cluster_blocked(6, 2),
        show_groups,
    );

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
        r.case(
            &format!("filter/{}", strategy.name()),
            |items| Query::over(items).filter_with("active", strategy),
            show_items,
        );
    }
    for strategy in [
        CountStrategy::PerItem,
        CountStrategy::Eyeball { batch_size: 8 },
    ] {
        r.case(
            &format!("count/{}", strategy.name()),
            |items| Query::over(items).count_with("active", strategy),
            |out| out.count().unwrap(),
        );
    }
    let labels = vec!["bulk".to_owned(), "retail".to_owned()];
    r.case(
        "categorize",
        |items| Query::over(items).categorize(labels),
        |out| out.labels().unwrap().to_vec(),
    );
    // The pool labels every presented record: k-NN answers leave one out.
    let labeled = |items: &[ItemId]| -> Vec<(ItemId, String)> {
        items.iter().map(|&id| (id, city(id).to_owned())).collect()
    };
    for strategy in [
        ImputeStrategy::KnnOnly { k: 3 },
        ImputeStrategy::LlmOnly { shots: 2 },
        ImputeStrategy::Hybrid { k: 3, shots: 2 },
    ] {
        r.case(
            &format!("impute/{}", strategy.name()),
            |items| Query::over(items).impute_with("city", labeled(items), strategy.clone()),
            |out| out.values().unwrap().to_vec(),
        );
    }
    r.rows
}

/// The rated-shortlist `top_k` sums the same per-response costs as every
/// other row, but the parent grouped them (ratings, then the shortlist
/// ranking's own subtotal); a single running sum may round the last bits
/// differently. Every other row is bit-exact.
fn cost_matches(name: &str, got: f64, want: f64) -> bool {
    if name.starts_with("top_k/shortlist/") {
        (got - want).abs() <= want.abs() * 1e-12
    } else {
        got.to_bits() == want.to_bits()
    }
}

#[test]
fn ranking_and_matching_operators_match_the_recorded_outcomes() {
    let rows = record();
    let listing: String = rows
        .iter()
        .map(|(name, value, calls, prompt, completion, cost)| {
            format!("    ({name:?}, {value:?}, {calls}, {prompt}, {completion}, {cost:?}),\n")
        })
        .collect();
    assert_eq!(
        rows.len(),
        GOLDEN.len(),
        "row count differs; actual rows:\n{listing}"
    );
    for (got, want) in rows.iter().zip(GOLDEN) {
        let (name, value, calls, prompt, completion, cost) = got;
        assert_eq!(
            (name.as_str(), value.as_str(), *calls, *prompt, *completion),
            (want.0, want.1, want.2, want.3, want.4),
            "{name} diverged; actual rows:\n{listing}"
        );
        assert!(
            cost_matches(name, *cost, want.5),
            "{name}: cost {cost:?} vs recorded {:?}",
            want.5
        );
    }
}

/// Recorded at the commit before `ops::judge` existed (PR 16's tree).
const GOLDEN: &[Row] = &[
    ("sort/single-prompt/LatentScore", "([15, 8, 16, 1, 10, 3, 12, 13, 11, 5, 14, 4, 2, 9, 6, 7, 0], 4, 0)", 1, 207, 135, 0.0005805000000000001),
    ("sort/pairwise/LatentScore", "([10, 15, 1, 6, 8, 3, 12, 13, 4, 5, 2, 11, 9, 7, 14, 16, 0], 0, 0)", 136, 7208, 1356, 0.013524000000000012),
    ("sort/pairwise-batched-5/LatentScore", "([10, 15, 3, 6, 1, 13, 4, 8, 11, 5, 12, 2, 9, 14, 7, 16, 0], 0, 0)", 28, 4552, 486, 0.007799999999999998),
    ("sort/rating-1-7/LatentScore", "([5, 6, 8, 4, 12, 13, 15, 1, 3, 7, 10, 11, 14, 16, 0, 2, 9], 0, 0)", 17, 731, 77, 0.0012504999999999999),
    ("sort/sort-then-insert/LatentScore", "([15, 8, 1, 10, 3, 6, 12, 13, 4, 11, 5, 14, 2, 9, 16, 7, 0], 4, 0)", 117, 6355, 1323, 0.012178500000000004),
    ("sort/bucket-then-compare-4/LatentScore", "([15, 6, 1, 8, 10, 13, 3, 4, 5, 11, 7, 12, 2, 9, 0, 14, 16], 0, 0)", 52, 2586, 448, 0.004774999999999997),
    ("sort/chunked-merge-6/LatentScore", "([6, 8, 10, 15, 13, 3, 1, 12, 2, 4, 9, 11, 5, 14, 16, 7, 0], 0, 0)", 27, 1538, 406, 0.003119),
    ("max/tournament/LatentScore", "15", 16, 848, 149, 0.0015699999999999998),
    ("max/rate-then-playoff-5-4/LatentScore", "6", 23, 1049, 181, 0.0019354999999999995),
    ("top_k/all/LatentScore", "[10, 3, 4, 7, 0, 14]", 15, 795, 161, 0.0015145),
    ("top_k/shortlist/LatentScore", "[8, 6, 12]", 32, 1526, 224, 0.002737),
    ("sort/single-prompt/Lexicographic", "([0, 1, 4, 2, 3, 6, 7, 5, 8, 9, 12, 10, 13, 14, 11, 15, 16], 4, 0)", 1, 207, 141, 0.0005924999999999999),
    ("sort/pairwise/Lexicographic", "([1, 0, 2, 3, 4, 7, 6, 5, 8, 9, 11, 10, 12, 13, 14, 15, 16], 0, 0)", 136, 7072, 1377, 0.013362000000000006),
    ("sort/pairwise-batched-5/Lexicographic", "([0, 1, 2, 3, 4, 8, 6, 7, 5, 11, 9, 10, 12, 13, 14, 15, 16], 0, 0)", 28, 4552, 492, 0.007811999999999996),
    ("sort/rating-1-7/Lexicographic", "([6, 10, 1, 2, 7, 13, 4, 11, 12, 15, 16, 0, 3, 5, 8, 9, 14], 0, 0)", 17, 731, 69, 0.0012344999999999997),
    ("sort/sort-then-insert/Lexicographic", "([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16], 4, 0)", 117, 6239, 1314, 0.011986500000000006),
    ("sort/bucket-then-compare-4/Lexicographic", "([1, 0, 2, 3, 5, 9, 10, 13, 15, 7, 4, 6, 11, 8, 12, 14, 16], 0, 0)", 81, 4059, 732, 0.007552499999999991),
    ("sort/chunked-merge-6/Lexicographic", "([1, 3, 4, 6, 7, 5, 8, 9, 10, 11, 12, 13, 14, 0, 15, 16, 2], 3, 0)", 29, 1618, 424, 0.0032749999999999997),
    ("max/tournament/Lexicographic", "1", 16, 832, 166, 0.0015799999999999998),
    ("max/rate-then-playoff-5-4/Lexicographic", "0", 23, 1043, 162, 0.0018884999999999993),
    ("top_k/all/Lexicographic", "[0, 3, 7, 4, 10, 14]", 15, 780, 156, 0.0014820000000000002),
    ("top_k/shortlist/Lexicographic", "[1, 2, 6]", 32, 1511, 206, 0.0026784999999999995),
    ("resolve/pairwise", "[false, true, false, false, false, false, true, false, false, true, false, false, false, false, false, false]", 16, 928, 117, 0.0016259999999999998),
    ("resolve/transitivity-2", "[true, true, true, true, true, true, true, true, true, true, true, true, true, true, true, true]", 115, 6670, 1129, 0.012263000000000013),
    ("dedup", "[[3, 4, 5], [10, 11, 9], [0, 7, 1, 8, 2, 6], [14, 12, 13], [15, 16]]", 30, 1740, 260, 0.003129999999999999),
    ("join/all-pairs", "([(3, 5), (10, 9), (10, 16), (10, 13), (0, 2), (7, 8), (7, 6), (14, 9), (14, 13), (4, 5), (11, 9), (1, 5), (1, 2)], 72, 0)", 72, 4176, 728, 0.007720000000000001),
    ("join/blocked-3-1.5", "([(3, 5), (10, 9), (10, 13), (0, 2), (7, 8), (7, 6), (14, 13), (4, 5), (11, 9), (1, 2), (1, 5)], 24, 48)", 24, 1392, 224, 0.002535999999999999),
    ("cluster", "[[0, 1, 2], [3, 4, 5], [7, 8, 6], [10, 11, 9], [14, 12, 13], [15, 16]]", 16, 977, 229, 0.0019234999999999999),
    ("cluster_blocked", "[[0, 1, 2], [3, 4, 5], [7, 8, 6], [10, 11, 9], [14, 12, 13], [15, 16]]", 13, 803, 199, 0.0016025),
    // Recorded through the operators' direct entry functions, before `Query`
    // became the only way to run one.
    ("filter/single", "[10, 0, 14, 4, 8, 12, 2, 16, 6]", 17, 510, 202, 0.001169),
    ("filter/majority-vote-3", "[10, 0, 14, 4, 8, 12, 2, 16, 6]", 51, 1530, 504, 0.003302999999999998),
    ("filter/confidence-gated-65-3", "[10, 0, 14, 4, 8, 12, 2, 16, 6]", 17, 510, 202, 0.001169),
    ("filter/sequential-2-of-5", "[10, 0, 14, 4, 8, 12, 2, 16, 6]", 40, 1200, 367, 0.002533999999999999),
    ("filter/proxy-gated-8-5", "[10, 0, 14, 4, 12, 2, 16, 6, 13]", 14, 420, 166, 0.0009619999999999999),
    ("filter/verified-3", "[10, 0, 14, 4, 8, 12, 2, 16, 6]", 38, 1776, 426, 0.003516),
    ("count/per-item", "9", 17, 510, 202, 0.001169),
    ("count/eyeball-8", "10", 3, 246, 16, 0.000401),
    ("categorize", "[\"bulk\", \"retail\", \"bulk\", \"retail\", \"retail\", \"retail\", \"retail\", \"retail\", \"retail\", \"bulk\", \"retail\", \"bulk\", \"retail\", \"bulk\", \"retail\", \"bulk\", \"retail\"]", 17, 680, 85, 0.00119),
    ("impute/knn-only-3", "[\"fresno\", \"fresno\", \"oakland\", \"oakland\", \"oakland\", \"fresno\", \"oakland\", \"oakland\", \"oakland\", \"oakland\", \"fresno\", \"oakland\", \"oakland\", \"oakland\", \"fresno\", \"oakland\", \"oakland\"]", 0, 0, 0, 0.0),
    ("impute/llm-only-2", "[\"fresno\", \"oakland\", \"oakland\", \"oakland\", \"oakland\", \"fresno\", \"fresno\", \"fresno\", \"oakland\", \"fresno\", \"fresno\", \"oakland\", \"oakland\", \"fresno\", \"oakland\", \"fresno\", \"fresno\"]", 17, 972, 113, 0.0016839999999999997),
    ("impute/hybrid-3-2", "[\"fresno\", \"oakland\", \"oakland\", \"oakland\", \"oakland\", \"fresno\", \"fresno\", \"fresno\", \"oakland\", \"fresno\", \"fresno\", \"oakland\", \"oakland\", \"fresno\", \"oakland\", \"fresno\", \"oakland\"]", 16, 914, 109, 0.0015889999999999997),
];
