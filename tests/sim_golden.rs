//! Golden for the simulated model, recorded at the commit before
//! `trigram_jaccard` moved from hash sets to sorted packed codes and
//! `SimulatedLlm::complete` started hashing its prompt once, and passing
//! unedited on it: the text, confidence bits, usage and finish reason of
//! every answer to a fixed set of requests under
//! `ModelProfile::gpt35_like()`.
//!
//! The task-kind and backend-transport rows were recorded later, while the
//! simulator's seeds were still the request's cache key, before the two
//! were split: every seed is a function of the whole request, so a row
//! that passes unedited says the seed did not move for that shape.
//!
//! Every accuracy number in the repo is a statement about this simulator,
//! so a failure here means an answer moved — a similarity bit, a seed
//! derivation or an RNG draw order. Fix `crates/oracle/src/sim`, do not
//! re-record. A failing case prints every row it rendered.

use std::sync::Arc;

use crowdprompt::data::{CitationDataset, CitationParams};
use crowdprompt::oracle::hash::fnv1a;
use crowdprompt::oracle::sim::similarity::trigram_jaccard;
use crowdprompt::oracle::{
    Backend, CancelToken, CompletionRequest, CountMode, ItemId, LanguageModel, ModelProfile,
    NoiseProfile, SimBackend, SimulatedLlm, SortCriterion, TaskDescriptor, WorldModel,
};

/// `(rows, FNV-1a of the rendered rows)` for the 64 citation pairs.
const CITATION_PAIRS: (usize, u64) = (64, 0x453bd3a09e654fc3);
/// The same for the hand-written pairs (similarity bits included).
const HAND_PAIRS: (usize, u64) = (18, 0x40364eb1436f5a23);
/// The same for the packed check, classify and impute requests.
const PACKED: (usize, u64) = (4, 0x745a8f32423a6cf1);
/// The same for single requests under transport noise, over four attempts.
const TRANSPORT: (usize, u64) = (32, 0xe35e65fd9929eb8c);
/// The same for one request of every other task kind, a capped one and a
/// sampled one.
const TASK_KINDS: (usize, u64) = (15, 0xd7be12f3498244db);
/// The same for a noisy `SimBackend`'s transport faults, over four attempts.
const BACKEND_TRANSPORT: (usize, u64) = (32, 0x27d2f1c121cbf387);

const SEED: u64 = 17;

/// One answer, rendered: text, confidence bits, usage, finish reason — or
/// the error.
fn row(llm: &SimulatedLlm, request: &CompletionRequest) -> String {
    match llm.complete(request) {
        Ok(r) => format!(
            "{:?}\t{}\t{}+{}\t{:?}",
            r.text,
            r.confidence
                .map_or_else(|| "-".to_owned(), |c| format!("{:016x}", c.to_bits())),
            r.usage.prompt_tokens,
            r.usage.completion_tokens,
            r.finish_reason,
        ),
        Err(e) => format!("error: {e:?}"),
    }
}

fn same_entity(world: &WorldModel, left: ItemId, right: ItemId) -> CompletionRequest {
    CompletionRequest::new(
        format!(
            "Are Citation A and Citation B the same? Yes or No?\nCitation A: {}\nCitation B: {}\nAnswer:",
            world.text(left).unwrap_or(""),
            world.text(right).unwrap_or(""),
        ),
        TaskDescriptor::SameEntity { left, right },
    )
}

fn check_digest(name: &str, rows: &[String], expected: (usize, u64)) {
    let joined = rows.join("\n");
    let got = (rows.len(), fnv1a(joined.as_bytes()));
    assert_eq!(
        got, expected,
        "{name}: got ({}, {:#018x}); rows:\n{joined}",
        got.0, got.1
    );
}

#[test]
fn citation_pairs_answer_as_recorded() {
    let data = CitationDataset::generate(&CitationParams::small(), 5);
    let world = Arc::new(data.world.clone());
    let llm = SimulatedLlm::new(ModelProfile::gpt35_like(), Arc::clone(&world), SEED);
    let rows: Vec<String> = data
        .pairs
        .iter()
        .take(64)
        .map(|&(a, b, _)| row(&llm, &same_entity(&world, a, b)))
        .collect();
    check_digest("citation pairs", &rows, CITATION_PAIRS);
}

/// Pairs whose lowercasing or length is out of the ordinary: multi-byte
/// text, a fold that changes length (`İ` lowercases to two chars), a
/// word-final `Σ` (lowercased by context), mixed ASCII and multi-byte,
/// texts under three characters and identical texts. The flag says
/// whether the pair is one entity.
const PAIRS: &[(&str, &str, bool)] = &[
    (
        "caf\u{e9} cr\u{e8}me br\u{fb}l\u{e9}e \u{2014} 12\u{20ac}",
        "cafe creme brulee - 12 EUR",
        true,
    ),
    (
        "caf\u{e9} cr\u{e8}me br\u{fb}l\u{e9}e \u{2014} 12\u{20ac}",
        "CAF\u{c9} CR\u{c8}ME BR\u{db}L\u{c9}E \u{2014} 12\u{20ac}",
        true,
    ),
    (
        "\u{130}STANBUL \u{dc}N\u{130}VERS\u{130}TES\u{130}",
        "istanbul \u{fc}niversitesi",
        true,
    ),
    ("\u{130}i\u{130}", "i\u{307}ii\u{307}", false),
    (
        "\u{39f}\u{394}\u{3a5}\u{3a3}\u{3a3}\u{395}\u{391}\u{3a3} \u{39f} \u{39c}\u{395}\u{393}\u{391}\u{3a3}",
        "\u{3bf}\u{3b4}\u{3c5}\u{3c3}\u{3c3}\u{3b5}\u{3b1}\u{3c2} \u{3bf} \u{3bc}\u{3b5}\u{3b3}\u{3b1}\u{3c2}",
        true,
    ),
    ("\u{3a3}\u{3a3}\u{3a3}", "\u{3c3}\u{3c3}\u{3c2}", false),
    ("Stra\u{df}e 12, M\u{fc}nchen", "STRASSE 12, MUENCHEN", true),
    ("ab", "ab", true),
    ("ab", "AB", true),
    ("x", "xyz", false),
    ("", "", false),
    ("", "abc", false),
    ("\u{20ac}", "\u{20ac}\u{20ac}", false),
    (
        "indexing the positions of continuously moving objects",
        "indexing the positions of continuously moving objects",
        true,
    ),
    (
        "indexing the positions of continuously moving objects",
        "Indexing The Positions Of Continuously Moving Objects",
        true,
    ),
    (
        "crowder crowdsourcing entity resolution pvldb",
        "crowdsourcing entity resolution crowder, PVLDB 2012",
        false,
    ),
    ("aaaaaaa", "aaaa", true),
    ("\u{1f980}\u{1f980}\u{1f980}\u{1f980}", "\u{1f980}\u{1f980}\u{1f980}", false),
];

#[test]
fn hand_written_pairs_answer_as_recorded() {
    let mut w = WorldModel::new();
    let ids: Vec<(ItemId, ItemId)> = PAIRS
        .iter()
        .enumerate()
        .map(|(i, (a, b, same))| {
            let (left, right) = (w.add_item(*a), w.add_item(*b));
            w.set_cluster(left, 2 * i as u64);
            w.set_cluster(right, 2 * i as u64 + u64::from(!same));
            (left, right)
        })
        .collect();
    let world = Arc::new(w);
    let llm = SimulatedLlm::new(ModelProfile::gpt35_like(), Arc::clone(&world), SEED);
    let rows: Vec<String> = PAIRS
        .iter()
        .zip(&ids)
        .map(|((a, b, _), &(left, right))| {
            format!(
                "{:016x}\t{}",
                trigram_jaccard(a, b).to_bits(),
                row(&llm, &same_entity(&world, left, right))
            )
        })
        .collect();
    check_digest("hand-written pairs", &rows, HAND_PAIRS);
}

#[test]
fn packed_requests_answer_as_recorded() {
    const CITIES: [&str; 4] = ["Berkeley", "San Francisco", "Palo Alto", "Los Angeles"];
    const LABELS: [&str; 3] = ["californian", "french bistro", "seafood"];
    let mut w = WorldModel::new();
    let ids: Vec<ItemId> = (0..12)
        .map(|i| {
            let id = w.add_item(format!(
                "name: restaurant {i}; address: {} {} St.",
                100 + 7 * i,
                CITIES[i % 4]
            ));
            w.set_flag(id, "p", i % 3 != 0);
            w.set_attr(id, "label", LABELS[i % 3]);
            w.set_attr(id, "city", CITIES[(i * 5) % 4]);
            id
        })
        .collect();
    let world = Arc::new(w);
    let llm = SimulatedLlm::new(ModelProfile::gpt35_like(), Arc::clone(&world), SEED);
    let prompt = |kind: &str| {
        let mut p = format!("Answer one line per record ({kind}).\n");
        for (i, id) in ids.iter().enumerate() {
            p.push_str(&format!("{}. {}\n", i + 1, world.text(*id).unwrap_or("")));
        }
        p
    };
    let check = TaskDescriptor::packed(
        ids.iter()
            .map(|&item| TaskDescriptor::CheckPredicate {
                item,
                predicate: "p".into(),
            })
            .collect(),
    )
    .unwrap();
    let classify = TaskDescriptor::packed(
        ids.iter()
            .map(|&item| TaskDescriptor::Classify {
                item,
                labels: LABELS.iter().map(|l| (*l).to_owned()).collect(),
            })
            .collect(),
    )
    .unwrap();
    let examples: Vec<(ItemId, String)> = ids[..2]
        .iter()
        .map(|&id| (id, world.attr(id, "city").unwrap_or("").to_owned()))
        .collect();
    let impute = TaskDescriptor::packed(
        ids[2..]
            .iter()
            .map(|&item| TaskDescriptor::Impute {
                item,
                attribute: "city".into(),
                examples: examples.clone(),
            })
            .collect(),
    )
    .unwrap();
    let requests = [
        CompletionRequest::new(prompt("check"), check.clone()),
        CompletionRequest {
            temperature: 0.7,
            sample_index: 3,
            ..CompletionRequest::new(prompt("check"), check)
        },
        CompletionRequest::new(prompt("classify"), classify),
        CompletionRequest::new(prompt("impute"), impute),
    ];
    let rows: Vec<String> = requests.iter().map(|r| row(&llm, r)).collect();
    check_digest("packed", &rows, PACKED);
}

#[test]
fn transport_faults_fall_as_recorded() {
    let data = CitationDataset::generate(&CitationParams::small(), 5);
    let world = Arc::new(data.world.clone());
    let profile = ModelProfile::gpt35_like().with_noise(NoiseProfile {
        rate_limit_prob: 0.3,
        unavailable_prob: 0.2,
        timeout_prob: 0.1,
        ..NoiseProfile::default()
    });
    let llm = SimulatedLlm::new(profile, Arc::clone(&world), SEED);
    let rows: Vec<String> = data
        .pairs
        .iter()
        .take(8)
        .flat_map(|&(a, b, _)| {
            let request = same_entity(&world, a, b);
            (0..4)
                .map(|attempt| {
                    let mut retry = request.clone();
                    retry.attempt = attempt;
                    row(&llm, &retry)
                })
                .collect::<Vec<_>>()
        })
        .collect();
    check_digest("transport", &rows, TRANSPORT);
}

/// Twelve menu items with every fact a task kind reads: a score, a sort
/// key, a cluster, a flag and two attributes.
fn menu_world() -> Arc<WorldModel> {
    const DISHES: [&str; 12] = [
        "dark chocolate torte",
        "lemon tart",
        "caf\u{e9} mocha cake",
        "vanilla panna cotta",
        "chocolate chip cookie",
        "strawberry sorbet",
        "triple chocolate brownie",
        "cr\u{e8}me br\u{fb}l\u{e9}e",
        "mint chocolate gelato",
        "apple crumble",
        "chocolate fondant \u{2014} 12\u{20ac}",
        "rice pudding",
    ];
    let mut w = WorldModel::new();
    for (i, dish) in DISHES.iter().enumerate() {
        let id = w.add_item(format!("dessert: {dish}; price: {} USD", 4 + i % 5));
        w.set_score(id, ((i * 7) % 12) as f64 / 11.0);
        w.set_sort_key(id, *dish);
        w.set_cluster(id, (i / 2) as u64);
        w.set_flag(id, "chocolate", dish.contains("chocolate"));
        w.set_attr(id, "label", ["cake", "frozen", "pastry"][i % 3]);
        w.set_attr(id, "origin", ["France", "Italy", "USA"][(i * 5) % 3]);
    }
    Arc::new(w)
}

/// A prompt naming `task`'s kind and listing every item it touches.
fn listing(world: &WorldModel, task: &TaskDescriptor) -> String {
    let mut p = format!("Task: {}.\n", task.kind());
    for (i, id) in task.items().iter().enumerate() {
        p.push_str(&format!("{}. {}\n", i + 1, world.text(*id).unwrap_or("")));
    }
    p.push_str("Answer:");
    p
}

/// One request of every kind the other goldens leave out, each answered
/// under its own prompt, plus one capped at eight tokens and a sort drawn
/// as sample 3 at temperature 0.7.
fn task_kind_requests(world: &WorldModel) -> Vec<CompletionRequest> {
    let ids: Vec<ItemId> = (0..12).map(ItemId).collect();
    let score = SortCriterion::LatentScore;
    let compare = TaskDescriptor::Compare {
        left: ids[2],
        right: ids[6],
        criterion: score,
    };
    let tasks = vec![
        compare.clone(),
        TaskDescriptor::Compare {
            left: ids[9],
            right: ids[1],
            criterion: SortCriterion::Lexicographic,
        },
        TaskDescriptor::CompareBatch {
            pairs: vec![(ids[0], ids[3]), (ids[4], ids[8]), (ids[10], ids[5])],
            criterion: score,
        },
        TaskDescriptor::Rate {
            item: ids[7],
            scale_min: 1,
            scale_max: 7,
            criterion: score,
        },
        TaskDescriptor::SortList {
            items: ids[..8].to_vec(),
            criterion: score,
        },
        TaskDescriptor::SortList {
            items: ids[4..].to_vec(),
            criterion: SortCriterion::Lexicographic,
        },
        TaskDescriptor::GroupEntities {
            items: ids[..6].to_vec(),
        },
        TaskDescriptor::CountPredicate {
            items: ids.clone(),
            predicate: "chocolate".into(),
            mode: CountMode::Eyeball,
        },
        TaskDescriptor::CountPredicate {
            items: ids[3..9].to_vec(),
            predicate: "chocolate".into(),
            mode: CountMode::PerItem,
        },
        TaskDescriptor::CheckPredicate {
            item: ids[8],
            predicate: "chocolate".into(),
        },
        TaskDescriptor::Classify {
            item: ids[5],
            labels: vec!["cake".into(), "frozen".into(), "pastry".into()],
        },
        TaskDescriptor::Impute {
            item: ids[11],
            attribute: "origin".into(),
            examples: vec![(ids[0], "France".into()), (ids[1], "Italy".into())],
        },
        TaskDescriptor::Verify {
            original: Box::new(compare.clone()),
            proposed_answer: "Yes".into(),
        },
    ];
    let mut requests: Vec<CompletionRequest> = tasks
        .into_iter()
        .map(|task| CompletionRequest::new(listing(world, &task), task))
        .collect();
    let sort = TaskDescriptor::SortList {
        items: ids.clone(),
        criterion: score,
    };
    requests.push(CompletionRequest::new(listing(world, &sort), sort).with_max_tokens(8));
    let sampled = TaskDescriptor::SortList {
        items: ids[..8].to_vec(),
        criterion: score,
    };
    requests.push(CompletionRequest {
        temperature: 0.7,
        sample_index: 3,
        ..CompletionRequest::new(listing(world, &sampled), sampled)
    });
    requests
}

#[test]
fn every_task_kind_answers_as_recorded() {
    let world = menu_world();
    let llm = SimulatedLlm::new(ModelProfile::gpt35_like(), Arc::clone(&world), SEED);
    let rows: Vec<String> = task_kind_requests(&world)
        .iter()
        .map(|r| format!("{}\t{}", r.task.kind(), row(&llm, r)))
        .collect();
    check_digest("task kinds", &rows, TASK_KINDS);
}

#[test]
fn backend_transport_faults_fall_as_recorded() {
    let world = menu_world();
    let llm = SimulatedLlm::new(ModelProfile::gpt35_like(), Arc::clone(&world), SEED);
    let backend = SimBackend::new("noisy", Arc::new(llm))
        .with_transport_noise(NoiseProfile {
            rate_limit_prob: 0.3,
            unavailable_prob: 0.2,
            timeout_prob: 0.1,
            ..NoiseProfile::default()
        })
        .with_seed(SEED);
    let cancel = CancelToken::new();
    let rows: Vec<String> = task_kind_requests(&world)
        .iter()
        .take(8)
        .flat_map(|request| {
            (0..4)
                .map(|attempt| {
                    let mut retry = request.clone();
                    retry.attempt = attempt;
                    match backend.complete(&retry, &cancel) {
                        Ok(r) => format!("{:?}", r.text),
                        Err(e) => format!("error: {e:?}"),
                    }
                })
                .collect::<Vec<_>>()
        })
        .collect();
    check_digest("backend transport", &rows, BACKEND_TRANSPORT);
}
