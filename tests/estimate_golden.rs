//! Golden rows for the planner's cost model.
//!
//! One fixed world, every `PhysicalNode` kind × every strategy variant,
//! under free (`perfect`) and `gpt35_like` pricing, with and without a warm
//! response store, at pack widths 1 and 8, over 0 / 1 / 2 / 7 / 33 / 200
//! input rows: each row pins `(calls, cost_usd.to_bits(), rows_out)` of the
//! node's `NodeEstimate`. Further sections pin the same nodes *behind* a
//! filter (so the rows reaching the node differ from the source the
//! estimator samples), the blocking-recall discount at IVF scale, the
//! budget split and downgrade chain under a tight `Budget::usd`, and the
//! full EXPLAIN text of two pipelines.
//!
//! Recorded in `tests/golden/estimate.txt` at the commit before the
//! estimator was folded onto `bill()` + `price()`; a refactor of the cost
//! model must leave every line as it is. Lines starting with `#` in the
//! recording are comments (an intended change says so there). A failing run
//! leaves the rows this tree produces in the temp directory and says where.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use crowdprompt::core::plan::NodeEstimate;
use crowdprompt::oracle::world::{ItemId, WorldModel};
use crowdprompt::prelude::*;

const N: usize = 200;
const ROWS: [usize; 6] = [0, 1, 2, 7, 33, 200];
const LABELS: [&str; 3] = ["hardware", "grocery", "apparel"];

/// Scores, sort keys, flags, labels and duplicate clusters of four, with
/// texts of uneven length so per-item averages are not one number.
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
            let id = w.add_item(text.clone());
            w.set_score(id, (i as f64 * 0.73).sin().abs());
            w.set_salience(id, 1.0);
            w.set_sort_key(id, text);
            w.set_flag(id, "even", i % 2 == 0);
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
    (150..170)
        .map(|i| (ids[i], LABELS[i % 3].to_owned()))
        .collect()
}

fn store_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "crowdprompt-estimate-golden-{}-{tag}.log",
        std::process::id()
    ))
}

fn cleanup(path: &PathBuf) {
    std::fs::remove_file(path).ok();
    let mut lock = path.as_os_str().to_os_string();
    lock.push(".lock");
    std::fs::remove_file(PathBuf::from(lock)).ok();
}

fn session(
    w: &WorldModel,
    ids: &[ItemId],
    profile: ModelProfile,
    pack: usize,
    store: Option<&PathBuf>,
    budget: Budget,
) -> Session {
    let llm = SimulatedLlm::new(profile, Arc::new(w.clone()), 17);
    let mut builder = Session::builder()
        .client(Arc::new(LlmClient::new(Arc::new(llm))))
        .corpus(Corpus::from_world(w, ids))
        .parallelism(1)
        .pack_width(pack)
        .budget(budget)
        .seed(5);
    if let Some(path) = store {
        builder = builder.cache(CacheConfig::new().store_path(path));
    }
    builder.try_build().expect("golden session builds")
}

/// Fill a store with answers the estimator's representative prompts will
/// find: per-item and width-8 packed checks, labels and imputations over
/// the head of the world, plus a few pair and list prompts.
fn warm(w: &WorldModel, ids: &[ItemId], profile: &ModelProfile, path: &PathBuf) {
    for pack in [1, 8] {
        let s = session(w, ids, profile.clone(), pack, Some(path), Budget::Unlimited);
        let head = &ids[..40];
        s.filter(head, "even", FilterStrategy::Single).unwrap();
        s.categorize(head, &labels()).unwrap();
        let pool = s.labeled_pool(&labeled(ids)).unwrap();
        s.impute(head, "label", &pool, &ImputeStrategy::LlmOnly { shots: 3 })
            .unwrap();
        if pack == 1 {
            let criterion = SortCriterion::LatentScore;
            s.sort(&ids[..7], criterion, &SortStrategy::SinglePrompt)
                .unwrap();
            s.sort(&ids[..2], criterion, &SortStrategy::Pairwise)
                .unwrap();
            s.sort(
                &ids[..12],
                criterion,
                &SortStrategy::Rating {
                    scale_min: 1,
                    scale_max: 7,
                },
            )
            .unwrap();
            s.count(
                &ids[..10],
                "even",
                CountStrategy::Eyeball { batch_size: 10 },
            )
            .unwrap();
        }
    }
}

type Build = Box<dyn Fn(Query) -> Query>;

/// Every physical node kind × every strategy variant, as a one-op query.
fn variants(ids: &[ItemId]) -> Vec<(String, Build)> {
    let mut v: Vec<(String, Build)> = Vec::new();
    let score = SortCriterion::LatentScore;
    for strategy in [
        FilterStrategy::Single,
        FilterStrategy::MajorityVote {
            votes: 5,
            temperature_pct: 70,
        },
        FilterStrategy::ConfidenceGated {
            min_confidence_pct: 70,
            votes: 3,
        },
        FilterStrategy::Sequential {
            lead: 3,
            max_votes: 9,
            temperature_pct: 100,
        },
        FilterStrategy::ProxyGated {
            train: 20,
            min_confidence_pct: 60,
        },
        FilterStrategy::ProxyGated {
            train: 20,
            min_confidence_pct: 0,
        },
        FilterStrategy::Verified { max_rounds: 3 },
    ] {
        v.push((
            format!("filter/{}", strategy.name()),
            Box::new(move |q| q.filter_with("even", strategy)),
        ));
    }
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
        SortStrategy::ChunkedMerge { chunk_size: 16 },
    ] {
        for criterion in [score, SortCriterion::Lexicographic] {
            let strategy = strategy.clone();
            v.push((
                format!("sort/{}/{criterion:?}", strategy.name()),
                Box::new(move |q| q.sort_with(criterion, strategy.clone())),
            ));
        }
    }
    v.push(("take/3".into(), Box::new(|q| q.take(3))));
    for (k, factor) in [(0, 2), (3, 2), (50, 2), (3, usize::MAX)] {
        v.push((
            format!("top_k/{k}/x{factor}"),
            Box::new(move |q| q.top_k_with(score, k, factor)),
        ));
    }
    v.push(("categorize".into(), Box::new(|q| q.categorize(labels()))));
    v.push((
        "keep_label".into(),
        Box::new(|q| q.keep_label(labels(), "grocery")),
    ));
    for strategy in [
        CountStrategy::PerItem,
        CountStrategy::Eyeball { batch_size: 10 },
    ] {
        v.push((
            format!("count/{}", strategy.name()),
            Box::new(move |q| q.count_with("even", strategy)),
        ));
    }
    for strategy in [
        MaxStrategy::Tournament,
        MaxStrategy::RateThenPlayoff {
            buckets: 7,
            playoff_size: 4,
        },
    ] {
        v.push((
            format!("max/{}", strategy.name()),
            Box::new(move |q| q.max_with(score, strategy)),
        ));
    }
    v.push(("resolve/4".into(), Box::new(|q| q.resolve(4, 1.5))));
    v.push((
        "cluster/exhaustive-8".into(),
        Box::new(|q| q.cluster_exhaustive(8)),
    ));
    v.push((
        "cluster/blocked-8-2".into(),
        Box::new(|q| q.cluster_blocked(8, 2)),
    ));
    for (name, right) in [("12", ids[180..192].to_vec()), ("0", Vec::new())] {
        for strategy in [
            JoinStrategy::AllPairs,
            JoinStrategy::Blocked {
                candidates: 4,
                max_distance: 2.0,
            },
        ] {
            let right = right.clone();
            v.push((
                format!("join/{}/right-{name}", strategy.name()),
                Box::new(move |q| q.join_with(&right, strategy.clone())),
            ));
        }
    }
    let examples = labeled(ids);
    for strategy in [
        ImputeStrategy::KnnOnly { k: 3 },
        ImputeStrategy::LlmOnly { shots: 3 },
        ImputeStrategy::LlmOnly { shots: 0 },
        ImputeStrategy::Hybrid { k: 3, shots: 3 },
    ] {
        let examples = examples.clone();
        v.push((
            format!("impute/{}", strategy.name()),
            Box::new(move |q| q.impute_with("label", examples.clone(), strategy.clone())),
        ));
    }
    v
}

fn triple(e: &NodeEstimate) -> String {
    format!(
        "{}:{},{:#018x},{}",
        e.rows_in,
        e.calls,
        e.cost_usd.to_bits(),
        e.rows_out
    )
}

fn opt_bits(v: Option<f64>) -> String {
    v.map_or("-".to_owned(), |a| format!("{:#018x}", a.to_bits()))
}

/// Nodes, estimates, allocation and rewrite notes of one plan.
fn plan_lines(out: &mut String, tag: &str, plan: &Plan) {
    for p in plan.nodes() {
        writeln!(
            out,
            "{tag} | {} | {} | {} alloc {}",
            p.node.name(),
            p.node.strategy_label(),
            triple(&p.estimate),
            opt_bits(p.estimate.alloc_usd),
        )
        .unwrap();
    }
    for note in plan.notes() {
        writeln!(out, "{tag} | note | {note}").unwrap();
    }
}

fn record() -> String {
    let (w, ids) = world();
    let mut out = String::new();
    let profiles = [
        ("perfect", ModelProfile::perfect()),
        ("gpt35", ModelProfile::gpt35_like()),
    ];

    // Section A: every variant alone, source = the first `rows` items.
    for (pname, profile) in &profiles {
        for warm_store in [false, true] {
            let path = store_path(&format!("{pname}-matrix"));
            cleanup(&path);
            if warm_store {
                warm(&w, &ids, profile, &path);
            }
            for pack in [1usize, 8] {
                let store = warm_store.then_some(&path);
                let s = session(&w, &ids, profile.clone(), pack, store, Budget::Unlimited);
                let config = format!(
                    "{pname}/{}/pack{pack}",
                    if warm_store { "warm" } else { "cold" }
                );
                for (name, build) in variants(&ids) {
                    let cells: Vec<String> = ROWS
                        .iter()
                        .map(|&rows| {
                            let plan = build(Query::over(&ids[..rows]))
                                .plan_with(s.engine(), PlanOptions::verbatim())
                                .unwrap_or_else(|e| panic!("{config} {name} at {rows}: {e}"));
                            triple(&plan.nodes()[0].estimate)
                        })
                        .collect();
                    writeln!(out, "alone | {config} | {name} | {}", cells.join(" ")).unwrap();
                }
            }
            cleanup(&path);
        }
    }

    // Section B: every variant behind a filter that keeps 7 of the 200
    // source rows — the estimator samples the source, the node sees 7.
    {
        let sessions = [1usize, 8].map(|pack| {
            let profile = ModelProfile::gpt35_like();
            (
                pack,
                session(&w, &ids, profile, pack, None, Budget::Unlimited),
            )
        });
        for (name, build) in variants(&ids) {
            let cells: Vec<String> = sessions
                .iter()
                .map(|(pack, s)| {
                    let plan = build(Query::over(&ids).filter("even").hint_selectivity(0.035))
                        .plan_with(s.engine(), PlanOptions::verbatim())
                        .unwrap();
                    format!("pack{pack}={}", triple(&plan.nodes()[1].estimate))
                })
                .collect();
            writeln!(
                out,
                "behind-filter | gpt35/cold | {name} | {}",
                cells.join(" ")
            )
            .unwrap();
        }
    }

    // Section C: the blocking-recall discount, which only applies where the
    // shared index would route to the approximate tier (>= 65 536 rows).
    {
        let mut big = WorldModel::new();
        let many: Vec<ItemId> = (0..70_000).map(|i| big.add_item(format!("r{i}"))).collect();
        let llm = SimulatedLlm::new(ModelProfile::gpt35_like(), Arc::new(big.clone()), 17);
        let s = Session::builder()
            .client(Arc::new(LlmClient::new(Arc::new(llm))))
            .corpus(Corpus::from_world(&big, &many))
            .blocking_recall_target(0.9)
            .try_build()
            .unwrap();
        let right = many[..66_000].to_vec();
        let cases: Vec<(&str, Build)> = vec![
            ("resolve/4", Box::new(|q| q.resolve(4, 1.5))),
            ("cluster/blocked-8-2", Box::new(|q| q.cluster_blocked(8, 2))),
            (
                "cluster/exhaustive-8",
                Box::new(|q| q.cluster_exhaustive(8)),
            ),
            (
                "join/blocked",
                Box::new({
                    let right = right.clone();
                    move |q| {
                        q.join_with(
                            &right,
                            JoinStrategy::Blocked {
                                candidates: 4,
                                max_distance: 2.0,
                            },
                        )
                    }
                }),
            ),
            (
                "join/all-pairs",
                Box::new(move |q| q.join_with(&right, JoinStrategy::AllPairs)),
            ),
        ];
        for (name, build) in cases {
            for rows in [70_000usize, 300] {
                let plan = build(Query::over(&many[..rows]))
                    .plan_with(s.engine(), PlanOptions::verbatim())
                    .unwrap();
                plan_lines(
                    &mut out,
                    &format!("approx-blocking | {name} at {rows}"),
                    &plan,
                );
            }
        }
    }

    // Section D: budget split and downgrade chain under tight USD caps.
    for (tag, cap) in [("loose", 5.0), ("tight", 0.02), ("tighter", 0.004)] {
        let s = session(
            &w,
            &ids,
            ModelProfile::gpt35_like(),
            1,
            None,
            Budget::usd(cap),
        );
        let score = SortCriterion::LatentScore;
        let queries: Vec<(&str, Query)> = vec![
            (
                "filter-sort-impute",
                Query::over(&ids)
                    .filter("even")
                    .sort(score)
                    .impute("label", labeled(&ids)),
            ),
            (
                "filter-count",
                Query::over(&ids).filter("even").count("even"),
            ),
            ("filter-max", Query::over(&ids).filter("even").max(score)),
            (
                "filters-sort-take",
                Query::over(&ids)
                    .filter_with(
                        "even",
                        FilterStrategy::MajorityVote {
                            votes: 3,
                            temperature_pct: 70,
                        },
                    )
                    .filter("even")
                    .sort(score)
                    .take(5),
            ),
        ];
        for (name, query) in queries {
            let plan = query.plan_on(s.engine()).unwrap();
            plan_lines(&mut out, &format!("budget | {tag} {name}"), &plan);
        }
    }

    // Section E: full EXPLAIN text of the two canonical pipelines.
    for pack in [1usize, 8] {
        let s = session(
            &w,
            &ids,
            ModelProfile::gpt35_like(),
            pack,
            None,
            Budget::usd(1.0),
        );
        let pipeline = Query::over(&ids)
            .filter("even")
            .keep_label(labels(), "grocery")
            .impute("label", labeled(&ids));
        let ranked = Query::over(&ids).sort(SortCriterion::LatentScore).take(5);
        let labelled = Query::over(&ids).filter("even").categorize(labels());
        for (name, query) in [
            ("filter-categorize-impute", pipeline),
            ("sort-take", ranked),
            ("filter-categorize", labelled),
        ] {
            let plan = query.plan_on(s.engine()).unwrap();
            for line in plan.explain().lines() {
                writeln!(out, "explain | pack{pack} {name} | {line}").unwrap();
            }
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
fn estimates_match_the_recorded_rows() {
    let actual = record();
    let golden = include_str!("golden/estimate.txt");
    let (got, want) = (significant(&actual), significant(golden));
    if got != want {
        let dump = std::env::temp_dir().join("crowdprompt-estimate-golden.actual.txt");
        std::fs::write(&dump, &actual).unwrap();
        let row = got.iter().zip(&want).position(|(g, w)| g != w);
        let row = row.unwrap_or(got.len().min(want.len()));
        panic!(
            "estimates diverged from tests/golden/estimate.txt at row {row} ({} rows vs {} \
             recorded; this tree's rows are in {}):\n  got  {:?}\n  want {:?}",
            got.len(),
            want.len(),
            dump.display(),
            got.get(row),
            want.get(row),
        );
    }
}
