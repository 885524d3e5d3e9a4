//! Soundness of the task key, the content half of the key an engine's
//! requests are cached, stored and journaled under: it is computed from
//! the task, the item texts its prompt names, the render options and the
//! templates, never from the prompt, so a cache hit is settled before its
//! prompt is rendered. If two calls with different prompts ever shared a
//! key, one prompt's stored answer would be served for the other.
//!
//! The property test renders random tasks of every kind (nested packs and
//! verifications included) over random corpora, under two criterion labels
//! and after a one-byte edit of one text, and reads each call's task key,
//! prompt and request key where the backend receives them. Equal task keys
//! must name equal prompts and equal request keys, and the key must fail
//! exactly where `render` fails, with the same error.
//!
//! The known-answer test pins a few task keys: they are persisted in every
//! store and journal an engine writes, so they must come out the same in
//! every codegen, and a change to any input — a template's wording
//! included — moves them and turns every stored answer into a miss.

use std::sync::Arc;

use crowdprompt::core::template::{render, RenderOptions};
use crowdprompt::core::{Corpus, Engine, EngineError};
use crowdprompt::oracle::task::{CountMode, SortCriterion, TaskDescriptor};
use crowdprompt::oracle::types::LanguageModel;
use crowdprompt::oracle::{
    CompletionRequest, CompletionResponse, FinishReason, ItemId, LlmClient, LlmError, Pricing,
    Usage,
};
use parking_lot::Mutex;
use proptest::prelude::*;

/// What a backend saw of one call: its task key, prompt and request key.
type Seen = (u64, String, u64);

/// A model that answers "Yes" and keeps what it was asked.
#[derive(Default)]
struct Capture {
    seen: Mutex<Vec<Seen>>,
}

impl LanguageModel for Capture {
    fn name(&self) -> &str {
        "capture"
    }
    fn context_window(&self) -> u32 {
        u32::MAX
    }
    fn pricing(&self) -> Pricing {
        Pricing::free()
    }
    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
        let task_key = request
            .task_key
            .expect("an engine's request carries its task key");
        self.seen
            .lock()
            .push((task_key, request.prompt.clone(), request.fingerprint()));
        Ok(CompletionResponse {
            text: "Yes".into(),
            usage: Usage::default(),
            finish_reason: FinishReason::Stop,
            model: "capture".into(),
            cached: false,
            pricing: Pricing::free(),
            confidence: None,
        })
    }
}

/// One engine's corpus and criterion label, over a model that keeps every
/// call (no cache, so every call reaches it).
struct Setup {
    corpus: Corpus,
    label: String,
}

impl Setup {
    /// What the engine asked for `task`: the backend's view of its one
    /// call, or the error that refused it.
    fn ask(&self, task: &TaskDescriptor) -> Result<Seen, EngineError> {
        let capture = Arc::new(Capture::default());
        let client = LlmClient::new(Arc::clone(&capture) as Arc<dyn LanguageModel>).without_cache();
        let engine = Engine::new(Arc::new(client), self.corpus.clone())
            .with_criterion_label(self.label.clone())
            .with_parallelism(1);
        engine.run_many(vec![task.clone()])?;
        let mut seen = capture.seen.lock();
        assert_eq!(seen.len(), 1, "one call for {task:?}");
        Ok(seen.pop().expect("one call"))
    }

    fn render(&self, task: &TaskDescriptor) -> Result<String, EngineError> {
        render(
            task,
            &self.corpus,
            &RenderOptions::with_criterion(&self.label),
        )
    }
}

/// SplitMix64: the draws of one proptest case.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }
}

/// Words the texts are made of: ASCII, multi-byte, punctuation, a tab.
const WORDS: [&str; 12] = [
    "name:",
    "Zuni",
    "caf\u{e9}",
    "Market",
    "St.;",
    "1658",
    "\u{2014}",
    "sorbet",
    "lemon",
    "a",
    "tab\tbed",
    "SIGMOD",
];

/// A corpus of `n` texts, ids `0..n`.
fn corpus(draws: &mut Draws, n: usize) -> Vec<String> {
    (0..n)
        .map(|_| {
            let words = 1 + draws.below(5);
            (0..words)
                .map(|_| draws.pick(&WORDS))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

/// `texts` with one character of one text replaced by an ASCII letter it
/// is not.
fn edited(draws: &mut Draws, texts: &[String]) -> Vec<String> {
    let mut texts = texts.to_vec();
    let at = draws.below(texts.len());
    let chars: Vec<char> = texts[at].chars().collect();
    let i = draws.below(chars.len());
    let with = if chars[i] == 'q' { 'x' } else { 'q' };
    texts[at] = chars
        .iter()
        .enumerate()
        .map(|(j, &c)| if j == i { with } else { c })
        .collect();
    texts
}

fn corpus_of(texts: &[String]) -> Corpus {
    let mut corpus = Corpus::new();
    for (i, text) in texts.iter().enumerate() {
        corpus.insert(ItemId(i as u64), text.as_str());
    }
    corpus
}

/// A random task over ids `0..=n` (id `n` is in no corpus).
fn task(draws: &mut Draws, n: usize, depth: usize) -> TaskDescriptor {
    let mut id = |draws: &mut Draws| {
        // One pick in sixteen names the missing item.
        ItemId(if draws.below(16) == 0 {
            n
        } else {
            draws.below(n)
        } as u64)
    };
    let criterion = |draws: &mut Draws| {
        if draws.below(2) == 0 {
            SortCriterion::LatentScore
        } else {
            SortCriterion::Lexicographic
        }
    };
    let kinds = if depth < 2 { 12 } else { 10 };
    match draws.below(kinds) {
        0 => TaskDescriptor::SortList {
            items: (0..1 + draws.below(4)).map(|_| id(draws)).collect(),
            criterion: criterion(draws),
        },
        1 => TaskDescriptor::CompareBatch {
            pairs: (0..1 + draws.below(3))
                .map(|_| (id(draws), id(draws)))
                .collect(),
            criterion: criterion(draws),
        },
        2 => TaskDescriptor::Compare {
            left: id(draws),
            right: id(draws),
            criterion: criterion(draws),
        },
        3 => TaskDescriptor::Rate {
            item: id(draws),
            scale_min: 1 + draws.below(2) as u8,
            scale_max: 5 + draws.below(6) as u8,
            criterion: criterion(draws),
        },
        4 => TaskDescriptor::SameEntity {
            left: id(draws),
            right: id(draws),
        },
        5 => TaskDescriptor::GroupEntities {
            items: (0..1 + draws.below(4)).map(|_| id(draws)).collect(),
        },
        6 => TaskDescriptor::CountPredicate {
            items: (0..1 + draws.below(4)).map(|_| id(draws)).collect(),
            predicate: draws.pick(&["serves dessert", "is open"]).into(),
            mode: if draws.below(2) == 0 {
                CountMode::Eyeball
            } else {
                CountMode::PerItem
            },
        },
        7..=9 => packable(draws, &mut id),
        10 => TaskDescriptor::Verify {
            original: Box::new(task(draws, n, depth + 1)),
            proposed_answer: draws.pick(&["Yes", "1. No\n2. Yes", "paris"]).into(),
        },
        _ => TaskDescriptor::Packed {
            // Mostly point-wise sub-tasks of one kind; now and then an
            // empty pack, a mixed one, or one holding a task no pack can.
            tasks: (0..draws.below(5))
                .map(|_| match draws.below(8) {
                    0 => task(draws, n, depth + 1),
                    _ => packable(draws, &mut id),
                })
                .collect(),
        },
    }
}

/// A random check, classify or impute task.
fn packable(draws: &mut Draws, id: &mut dyn FnMut(&mut Draws) -> ItemId) -> TaskDescriptor {
    match draws.below(3) {
        0 => TaskDescriptor::CheckPredicate {
            item: id(draws),
            predicate: draws.pick(&["is sweet", "is sour"]).into(),
        },
        1 => TaskDescriptor::Classify {
            item: id(draws),
            labels: match draws.below(2) {
                0 => vec!["casual".into(), "fine".into()],
                _ => vec!["casual".into(), "caf\u{e9}".into(), "fine".into()],
            },
        },
        _ => TaskDescriptor::Impute {
            item: id(draws),
            attribute: draws.pick(&["city", "type"]).into(),
            examples: (0..draws.below(3))
                .map(|_| (id(draws), draws.pick(&["berkeley", "paris"]).to_owned()))
                .collect(),
        },
    }
}

proptest! {
    #[test]
    fn equal_task_keys_name_equal_prompts_and_fail_where_render_fails(seed in any::<u64>()) {
        let mut draws = Draws(seed);
        let n = 3 + draws.below(6);
        let texts = corpus(&mut draws, n);
        let edit = edited(&mut draws, &texts);
        let setups = [
            Setup { corpus: corpus_of(&texts), label: "by taste".into() },
            Setup { corpus: corpus_of(&edit), label: "by taste".into() },
            Setup { corpus: corpus_of(&texts), label: "by tasta".into() },
            Setup { corpus: corpus_of(&edit), label: "by tasta".into() },
        ];
        let tasks: Vec<TaskDescriptor> = (0..12).map(|_| task(&mut draws, n, 0)).collect();
        let mut seen: Vec<Seen> = Vec::new();
        for setup in &setups {
            for task in &tasks {
                match (setup.ask(task), setup.render(task)) {
                    (Ok(call), Ok(prompt)) => {
                        prop_assert_eq!(&call.1, &prompt);
                        seen.push(call);
                    }
                    (Err(asked), Err(rendered)) => prop_assert_eq!(asked, rendered),
                    (asked, rendered) => {
                        prop_assert!(false, "{task:?}: asked {asked:?}, rendered {rendered:?}");
                    }
                }
            }
        }
        for (i, a) in seen.iter().enumerate() {
            for b in &seen[i + 1..] {
                if a.0 == b.0 {
                    prop_assert_eq!(&a.1, &b.1, "one task key, two prompts");
                    prop_assert_eq!(a.2, b.2);
                }
            }
        }
    }
}

/// The texts and tasks of the known-answer test.
fn pinned_setup(label: &str) -> Setup {
    let texts = [
        "name: Zuni Cafe; address: 1658 Market St.; phone: 415-552-2522",
        "caf\u{e9} cr\u{e8}me br\u{fb}l\u{e9}e",
        "lemon sorbet",
    ];
    let mut corpus = Corpus::new();
    for (i, text) in texts.iter().enumerate() {
        corpus.insert(ItemId(i as u64), *text);
    }
    Setup {
        corpus,
        label: label.into(),
    }
}

fn pinned_tasks() -> Vec<TaskDescriptor> {
    let check = |item: u64| TaskDescriptor::CheckPredicate {
        item: ItemId(item),
        predicate: "is a sit-down restaurant".into(),
    };
    vec![
        check(0),
        TaskDescriptor::SortList {
            items: vec![ItemId(2), ItemId(1), ItemId(0)],
            criterion: SortCriterion::LatentScore,
        },
        TaskDescriptor::Impute {
            item: ItemId(0),
            attribute: "city".into(),
            examples: vec![(ItemId(1), "paris".into())],
        },
        TaskDescriptor::Packed {
            tasks: vec![check(0), check(1), check(2)],
        },
    ]
}

/// `(criterion label, task key of each pinned task)`, recorded when the
/// task key was introduced.
const PINNED: [(&str, [u64; 4]); 2] = [
    (
        "by how chocolatey they are",
        [
            0x6a5e76707d2337ef,
            0xbe6de82b07a22d9d,
            0x2bacf0850aa14632,
            0xf5afdf208521a06c,
        ],
    ),
    (
        "in stock order",
        [
            0x0c3aea9f3e0fe9b9,
            0x9f391d18553bcedf,
            0xd82292ac0b9217e3,
            0x2c59f1c4102a9e35,
        ],
    ),
];

#[test]
fn task_keys_are_pinned() {
    let got: Vec<(&str, Vec<u64>)> = PINNED
        .iter()
        .map(|&(label, _)| {
            let setup = pinned_setup(label);
            let keys = pinned_tasks()
                .iter()
                .map(|task| setup.ask(task).expect("every pinned task renders").0)
                .collect();
            (label, keys)
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(label, keys)| {
            let keys: Vec<String> = keys.iter().map(|k| format!("{k:#018x}")).collect();
            format!("    ({label:?}, [{}]),\n", keys.join(", "))
        })
        .collect();
    for ((label, keys), (want_label, want)) in got.iter().zip(PINNED) {
        assert_eq!(*label, want_label);
        assert_eq!(
            keys.as_slice(),
            want.as_slice(),
            "this tree's keys:\n{table}"
        );
    }
}
