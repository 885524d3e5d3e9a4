//! Golden rows for what the planner makes of every `Query` builder method.
//!
//! Each builder method, pinned and unpinned, plus the edge cases the
//! planner guards (a NaN hint, empty labels, a terminal node mid-chain, the
//! empty query, sorts sized by their input, calibration with and without a
//! following `take`), is planned optimized and verbatim, at pack widths 1
//! and 8, under an unlimited, a tight USD and a token budget. A row per
//! plan records its `explain()` text, the `{:?}` of every physical node and
//! the tokens planning spent (calibration trials spend for real), or the
//! planning error. A last section plans unpinned cluster and join nodes and
//! a transitivity resolve-pairs node at scale (70 000 rows), pinning their
//! blocking push-in notes and exact bills.
//!
//! Recorded in `tests/golden/plan.txt` before the logical IR was folded
//! into the physical one; a refactor of the planner must leave every line as
//! it is. Lines starting with `#` in the recording are comments. A failing
//! run leaves the rows this tree produces in the temp directory and says
//! where.

use std::fmt::Write as _;
use std::sync::Arc;

use crowdprompt::oracle::world::{ItemId, WorldModel};
use crowdprompt::prelude::*;

const N: usize = 200;
const LABELS: [&str; 3] = ["hardware", "grocery", "apparel"];

/// Scores, flags, labels and duplicate clusters of four, with texts of
/// uneven length.
fn world() -> (WorldModel, Vec<ItemId>) {
    let mut w = WorldModel::new();
    let ids = (0..N)
        .map(|i| {
            let text = format!(
                "catalog record {:03} bin {} {}",
                i / 4,
                i % 4,
                "extra detail ".repeat(i % 5)
            );
            let id = w.add_item(text);
            w.set_score(id, (i as f64 * 0.73).sin().abs());
            w.set_salience(id, 1.0);
            w.set_flag(id, "even", i % 2 == 0);
            w.set_flag(id, "third", i % 3 == 0);
            w.set_attr(id, "label", LABELS[i % 3].to_owned());
            w.set_cluster(id, (i / 4) as u64);
            id
        })
        .collect();
    (w, ids)
}

fn labels() -> Vec<String> {
    LABELS.iter().map(|&l| l.to_owned()).collect()
}

fn labeled(ids: &[ItemId]) -> Vec<(ItemId, String)> {
    (150..162)
        .map(|i| (ids[i], LABELS[i % 3].to_owned()))
        .collect()
}

fn session(w: &WorldModel, ids: &[ItemId], pack: usize, budget: Budget) -> Session {
    let llm = SimulatedLlm::new(ModelProfile::gpt35_like(), Arc::new(w.clone()), 23);
    Session::builder()
        .client(Arc::new(LlmClient::new(Arc::new(llm))))
        .corpus(Corpus::from_world(w, ids))
        .parallelism(1)
        .pack_width(pack)
        .budget(budget)
        .seed(9)
        .try_build()
        .expect("golden session builds")
}

type Build = Box<dyn Fn(Query) -> Query>;

/// One case: a name, how many leading items of the world it runs over, and
/// the chain built on `Query::over` of them.
fn cases(ids: &[ItemId]) -> Vec<(&'static str, usize, Build)> {
    let score = SortCriterion::LatentScore;
    let rating = SortStrategy::Rating {
        scale_min: 1,
        scale_max: 7,
    };
    let sample: Vec<ItemId> = ids[..6].to_vec();
    let gold: Vec<ItemId> = sample.iter().rev().copied().collect();
    let right: Vec<ItemId> = ids[100..130].to_vec();
    let pairs: Vec<(ItemId, ItemId)> = vec![(ids[0], ids[1]), (ids[2], ids[9]), (ids[4], ids[7])];
    let pool = labeled(ids);
    let mut v: Vec<(&'static str, usize, Build)> = vec![
        ("empty", 12, Box::new(|q| q)),
        ("filter", 40, Box::new(|q| q.filter("even"))),
        (
            "filter_with/majority",
            40,
            Box::new(|q| {
                q.filter_with(
                    "even",
                    FilterStrategy::MajorityVote {
                        votes: 5,
                        temperature_pct: 70,
                    },
                )
            }),
        ),
        (
            "filter_with/invalid-sequential",
            40,
            Box::new(|q| {
                q.filter_with(
                    "even",
                    FilterStrategy::Sequential {
                        lead: 0,
                        max_votes: 3,
                        temperature_pct: 100,
                    },
                )
            }),
        ),
        (
            "filter/hint",
            40,
            Box::new(|q| q.filter("even").hint_selectivity(0.25)),
        ),
        (
            "filter/nan-hint",
            40,
            Box::new(move |q| q.filter("even").hint_selectivity(f64::NAN).sort(score)),
        ),
        (
            "filters/reorder",
            40,
            Box::new(|q| {
                q.filter_with(
                    "third",
                    FilterStrategy::MajorityVote {
                        votes: 3,
                        temperature_pct: 70,
                    },
                )
                .filter("even")
                .hint_selectivity(0.9)
                .filter("third")
            }),
        ),
        ("sort/10", 10, Box::new(move |q| q.sort(score))),
        ("sort/200", 200, Box::new(move |q| q.sort(score))),
        (
            "sort/after-filter",
            200,
            Box::new(move |q| q.filter("even").hint_selectivity(0.1).sort(score)),
        ),
        (
            "sort_with/rating",
            30,
            Box::new(move |q| q.sort_with(score, rating.clone())),
        ),
        (
            "sort_with/chunked",
            60,
            Box::new(move |q| q.sort_with(score, SortStrategy::ChunkedMerge { chunk_size: 16 })),
        ),
        ("take", 20, Box::new(|q| q.take(4))),
        ("sort+take", 40, Box::new(move |q| q.sort(score).take(5))),
        (
            "sort_with+take",
            40,
            Box::new(move |q| q.sort_with(score, SortStrategy::SinglePrompt).take(5)),
        ),
        (
            "top_k_with",
            40,
            Box::new(move |q| q.top_k_with(score, 4, 3)),
        ),
        ("categorize", 40, Box::new(|q| q.categorize(labels()))),
        (
            "categorize/empty-labels",
            40,
            Box::new(|q| q.categorize(Vec::new())),
        ),
        (
            "keep_label",
            40,
            Box::new(|q| q.keep_label(labels(), "grocery")),
        ),
        (
            "keep_label/empty-labels",
            40,
            Box::new(|q| q.keep_label(Vec::new(), "grocery")),
        ),
        ("count", 40, Box::new(|q| q.count("even"))),
        (
            "count_with/eyeball",
            40,
            Box::new(|q| q.count_with("even", CountStrategy::Eyeball { batch_size: 10 })),
        ),
        ("max", 40, Box::new(move |q| q.max(score))),
        (
            "max_with/tournament",
            40,
            Box::new(move |q| q.max_with(score, MaxStrategy::Tournament)),
        ),
        ("resolve", 40, Box::new(|q| q.resolve(3, 1.5))),
        (
            "resolve_pairs/pairwise",
            40,
            Box::new({
                let pairs = pairs.clone();
                move |q| q.resolve_pairs(pairs.clone(), ResolveStrategy::Pairwise)
            }),
        ),
        (
            "resolve_pairs/transitivity",
            40,
            Box::new(move |q| {
                q.resolve_pairs(
                    pairs.clone(),
                    ResolveStrategy::TransitivityAugmented { k: 1 },
                )
            }),
        ),
        ("cluster", 40, Box::new(|q| q.cluster(8))),
        (
            "cluster_exhaustive",
            40,
            Box::new(|q| q.cluster_exhaustive(8)),
        ),
        ("cluster_blocked", 40, Box::new(|q| q.cluster_blocked(8, 0))),
        (
            "join",
            40,
            Box::new({
                let right = right.clone();
                move |q| q.join(&right)
            }),
        ),
        (
            "join_with/all-pairs",
            40,
            Box::new(move |q| q.join_with(&right, JoinStrategy::AllPairs)),
        ),
        (
            "impute",
            40,
            Box::new({
                let pool = pool.clone();
                move |q| q.impute("label", pool.clone())
            }),
        ),
        (
            "impute_with/knn",
            40,
            Box::new({
                let pool = pool.clone();
                move |q| q.impute_with("label", pool.clone(), ImputeStrategy::KnnOnly { k: 3 })
            }),
        ),
        (
            "terminal-mid-chain",
            40,
            Box::new(|q| q.count("even").filter("third")),
        ),
        (
            "pipeline",
            200,
            Box::new(move |q| {
                q.filter("even")
                    .keep_label(labels(), "grocery")
                    .impute("label", pool.clone())
            }),
        ),
    ];
    let (s, g) = (sample.clone(), gold.clone());
    v.push((
        "sort+calibrate",
        40,
        Box::new(move |q| q.sort(score).calibrate_sort(&s, &g)),
    ));
    v.push((
        "sort+take+calibrate",
        40,
        Box::new(move |q| q.sort(score).take(5).calibrate_sort(&sample, &gold)),
    ));
    v
}

/// A node's `{:?}`, or its length and FNV-1a when it would not fit a line.
fn debug_text(text: String) -> String {
    if text.len() <= 400 {
        return text;
    }
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("<{} bytes, fnv1a {hash:#018x}>", text.len())
}

/// The explain text and node `{:?}`s of a plan, or the planning error, and
/// what planning spent.
fn plan_lines(out: &mut String, tag: &str, planned: Result<Plan, EngineError>, spent: u64) {
    match planned {
        Ok(plan) => {
            for line in plan.explain().lines() {
                writeln!(out, "{tag} | explain | {line}").unwrap();
            }
            for p in plan.nodes() {
                writeln!(
                    out,
                    "{tag} | node | {}",
                    debug_text(format!("{:?}", p.node))
                )
                .unwrap();
            }
        }
        Err(e) => writeln!(out, "{tag} | error | {e}").unwrap(),
    }
    writeln!(out, "{tag} | spent {spent} tokens").unwrap();
}

fn record() -> String {
    let (w, ids) = world();
    let mut out = String::new();
    let budgets = [
        ("unlimited", Budget::Unlimited),
        ("usd-0.002", Budget::usd(0.002)),
        ("tokens-3000", Budget::tokens(3_000)),
    ];

    // Section A: every builder case × mode × pack width × budget, each on a
    // fresh session so trial spend never carries over.
    for (name, rows, build) in cases(&ids) {
        for optimized in [true, false] {
            for pack in [1usize, 8] {
                for (bname, budget) in budgets {
                    let s = session(&w, &ids, pack, budget);
                    let query = build(Query::over(&ids[..rows]));
                    let planned = if optimized {
                        s.plan(query)
                    } else {
                        query.plan_with(s.engine(), PlanOptions::verbatim())
                    };
                    let mode = if optimized { "optimized" } else { "verbatim" };
                    let spent = s.engine().budget().spent_tokens();
                    plan_lines(
                        &mut out,
                        &format!("{name} | {mode} pack{pack} {bname}"),
                        planned,
                        spent,
                    );
                }
            }
        }
    }

    // Section B: blocking consumers at scale (70 000 rows): the bills
    // stay exact, and each notes only its own push-in.
    {
        let mut big = WorldModel::new();
        let many: Vec<ItemId> = (0..70_000).map(|i| big.add_item(format!("r{i}"))).collect();
        let llm = SimulatedLlm::new(ModelProfile::gpt35_like(), Arc::new(big.clone()), 17);
        let s = Session::builder()
            .client(Arc::new(LlmClient::new(Arc::new(llm))))
            .corpus(Corpus::from_world(&big, &many))
            .try_build()
            .unwrap();
        let right = many[..66_000].to_vec();
        let pairs = vec![(many[0], many[1]), (many[5], many[9])];
        let cases: Vec<(&str, Query)> = vec![
            ("cluster", Query::over(&many).cluster(8)),
            ("join", Query::over(&many[..300]).join(&right)),
            (
                "resolve_pairs/transitivity",
                Query::over(&many)
                    .resolve_pairs(pairs, ResolveStrategy::TransitivityAugmented { k: 2 }),
            ),
        ];
        for (name, query) in cases {
            let planned = s.plan(query);
            let spent = s.engine().budget().spent_tokens();
            plan_lines(
                &mut out,
                &format!("at-scale | {name} | optimized"),
                planned,
                spent,
            );
        }
    }
    out
}

fn significant(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect()
}

#[test]
fn plans_match_the_recorded_rows() {
    let actual = record();
    let golden = include_str!("golden/plan.txt");
    let (got, want) = (significant(&actual), significant(golden));
    if got != want {
        let dump = std::env::temp_dir().join("crowdprompt-plan-golden.actual.txt");
        std::fs::write(&dump, &actual).unwrap();
        let row = got.iter().zip(&want).position(|(g, w)| g != w);
        let row = row.unwrap_or(got.len().min(want.len()));
        panic!(
            "plans diverged from tests/golden/plan.txt at row {row} ({} rows vs {} recorded; \
             this tree's rows are in {}):\n  got  {:?}\n  want {:?}",
            got.len(),
            want.len(),
            dump.display(),
            got.get(row),
            want.get(row),
        );
    }
}
