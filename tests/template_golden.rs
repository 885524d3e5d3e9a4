//! Golden for prompt rendering and token counting, recorded at the commit
//! before `template::render` started writing into one buffer and
//! `count_tokens` grew its ASCII byte loop, and passing unedited on it: the
//! rendered prompt (length + FNV-1a) and its token count for every
//! `TaskDescriptor` kind. A prompt is what a request's fingerprint, its
//! price and its cache identity are computed from — a failure here means a
//! byte of some prompt or a token of some count moved; fix the renderer or
//! the counter, do not re-record the rows.
//!
//! The second half pins the counter's two loops to each other: every ASCII
//! code point in every in-word / out-of-word position, and random strings
//! mixing ASCII with multi-byte text, must count the same as the one
//! `chars()` loop the counter started from (kept below as the reference).

use crowdprompt::core::template::{render, RenderOptions};
use crowdprompt::core::Corpus;
use crowdprompt::oracle::hash::fnv1a;
use crowdprompt::oracle::task::{CountMode, SortCriterion, TaskDescriptor};
use crowdprompt::oracle::{count_tokens, ItemId};
use proptest::prelude::*;

/// Item texts, by `ItemId`: record-style, citation-style, one multi-byte,
/// one with control whitespace, one single character.
const TEXTS: [&str; 11] = [
    "name: Chez Panisse; address: 1517 Shattuck Ave; phone: 510-548-5525; type: californian",
    "name: Fringale; address: 570 4th St.; phone: 415/543-0573; type: french bistro",
    "name: caf\u{e9} cr\u{e8}me br\u{fb}l\u{e9}e \u{2014} 12\u{20ac}; address: 9 rue de l\u{2019}Od\u{e9}on",
    "lemon sorbet",
    "chocolate fudge brownie (double)",
    "M. Stonebraker, \"The Design of POSTGRES\", SIGMOD 1986",
    "Stonebraker M & Rowe L. The design of Postgres. In Proc. SIGMOD, 1986.",
    "name: Zuni Cafe; address: 1658 Market St.; phone: 415-552-2522",
    "a",
    "tab\tseparated\tfields and a trailing space ",
    "name: Hayes Street Grill; address: 320 Hayes St.; type: seafood",
];

/// `(row, prompt bytes, FNV-1a of the prompt, count_tokens of the prompt)`.
const EXPECTED: &[(&str, usize, u64, u32)] = &[
    ("sort_list/latent", 254, 0x20b8dd554e6aab68, 61),
    ("sort_list/lexicographic", 173, 0xe6d941a35da254c8, 44),
    ("compare_batch", 409, 0x872c609664f6a800, 100),
    ("compare", 183, 0x261da253948dc85b, 46),
    ("rate", 167, 0x9458120ef7653f58, 42),
    ("same_entity", 281, 0x726d5103cc202f13, 71),
    ("group_entities", 540, 0xa3cedea90606fcf6, 138),
    ("impute/0_examples", 132, 0xe4081533448233a9, 36),
    ("impute/3_examples", 440, 0xc5458f9257939edf, 114),
    ("count_predicate", 523, 0x2997409c02c250b9, 137),
    ("check_predicate", 187, 0xea3fc65e576d790c, 47),
    ("check_predicate/multibyte", 168, 0x4c4a3d3483172013, 40),
    ("check_predicate/control_ws", 143, 0xce350b36d9a93957, 36),
    ("classify", 215, 0x7db592a2c968fdd1, 54),
    ("verify/same_entity", 414, 0x7d35e0433153cd65, 104),
    ("verify/impute_3_examples", 584, 0x9e259aa0ad5bd8cf, 147),
    ("verify/packed_check_2", 491, 0x7bae173206e9d5ca, 136),
    ("packed/check/1", 267, 0x55bbd3d584f0befc, 71),
    ("packed/classify/1", 278, 0x37e79667f40cb000, 70),
    ("packed/impute/1", 250, 0xa7d2f2adf150bfc0, 65),
    ("packed/check/2", 349, 0x1b5133b97f9e7ed8, 96),
    ("packed/classify/2", 360, 0x1b9dcd4cd379500c, 93),
    ("packed/impute/2", 696, 0x92ab0bce000d3f79, 182),
    ("packed/check/8", 651, 0x6c219655f6ebef77, 175),
    ("packed/classify/8", 662, 0x381e505b4fea1753, 172),
    ("packed/impute/8", 2114, 0xa8cb93faea487ffc, 543),
];

fn corpus() -> Corpus {
    let mut corpus = Corpus::new();
    for (i, text) in TEXTS.iter().enumerate() {
        corpus.insert(ItemId(i as u64), *text);
    }
    corpus
}

fn check(item: u64) -> TaskDescriptor {
    TaskDescriptor::CheckPredicate {
        item: ItemId(item),
        predicate: "is a sit-down restaurant".into(),
    }
}

fn classify(item: u64) -> TaskDescriptor {
    TaskDescriptor::Classify {
        item: ItemId(item),
        labels: vec!["casual".into(), "fine dining".into(), "caf\u{e9}".into()],
    }
}

fn impute(item: u64, examples: &[(u64, &str)]) -> TaskDescriptor {
    TaskDescriptor::Impute {
        item: ItemId(item),
        attribute: "city".into(),
        examples: examples
            .iter()
            .map(|&(id, value)| (ItemId(id), value.to_owned()))
            .collect(),
    }
}

const THREE_EXAMPLES: [(u64, &str); 3] = [(0, "berkeley"), (1, "san francisco"), (2, "paris")];

/// Every row of the golden, in table order.
fn rows() -> Vec<(String, TaskDescriptor)> {
    let ids = |raw: &[u64]| raw.iter().map(|&i| ItemId(i)).collect::<Vec<_>>();
    let same_entity = TaskDescriptor::SameEntity {
        left: ItemId(5),
        right: ItemId(6),
    };
    let mut rows: Vec<(String, TaskDescriptor)> = vec![
        (
            "sort_list/latent".into(),
            TaskDescriptor::SortList {
                items: ids(&[3, 4, 8, 2]),
                criterion: SortCriterion::LatentScore,
            },
        ),
        (
            "sort_list/lexicographic".into(),
            TaskDescriptor::SortList {
                items: ids(&[4, 3]),
                criterion: SortCriterion::Lexicographic,
            },
        ),
        (
            "compare_batch".into(),
            TaskDescriptor::CompareBatch {
                pairs: vec![
                    (ItemId(3), ItemId(4)),
                    (ItemId(2), ItemId(8)),
                    (ItemId(4), ItemId(3)),
                ],
                criterion: SortCriterion::LatentScore,
            },
        ),
        (
            "compare".into(),
            TaskDescriptor::Compare {
                left: ItemId(3),
                right: ItemId(4),
                criterion: SortCriterion::LatentScore,
            },
        ),
        (
            "rate".into(),
            TaskDescriptor::Rate {
                item: ItemId(4),
                scale_min: 1,
                scale_max: 7,
                criterion: SortCriterion::LatentScore,
            },
        ),
        ("same_entity".into(), same_entity.clone()),
        (
            "group_entities".into(),
            TaskDescriptor::GroupEntities {
                items: ids(&[5, 6, 0, 7, 2]),
            },
        ),
        ("impute/0_examples".into(), impute(7, &[])),
        ("impute/3_examples".into(), impute(7, &THREE_EXAMPLES)),
        (
            "count_predicate".into(),
            TaskDescriptor::CountPredicate {
                items: ids(&[0, 1, 2, 7, 9, 10]),
                predicate: "serves dessert".into(),
                mode: CountMode::Eyeball,
            },
        ),
        ("check_predicate".into(), check(0)),
        ("check_predicate/multibyte".into(), check(2)),
        ("check_predicate/control_ws".into(), check(9)),
        ("classify".into(), classify(1)),
        (
            "verify/same_entity".into(),
            TaskDescriptor::Verify {
                original: Box::new(same_entity),
                proposed_answer: "Yes".into(),
            },
        ),
        (
            "verify/impute_3_examples".into(),
            TaskDescriptor::Verify {
                original: Box::new(impute(10, &THREE_EXAMPLES)),
                proposed_answer: "san francisco".into(),
            },
        ),
        (
            "verify/packed_check_2".into(),
            TaskDescriptor::Verify {
                original: Box::new(TaskDescriptor::Packed {
                    tasks: vec![check(0), check(1)],
                }),
                proposed_answer: "1. Yes\n2. No".into(),
            },
        ),
    ];
    // Items 0, 1, 2, 7, 9, 10, 3, 4: the multi-byte record sits inside the
    // 8-packs, so they take the counter's `chars()` path, as every classify
    // row does (one label is multi-byte); check and impute at widths 1 and
    // 2 are pure ASCII.
    let order = [0u64, 1, 7, 10, 2, 9, 3, 4];
    for width in [1usize, 2, 8] {
        let items = &order[..width];
        rows.push((
            format!("packed/check/{width}"),
            TaskDescriptor::Packed {
                tasks: items.iter().map(|&i| check(i)).collect(),
            },
        ));
        rows.push((
            format!("packed/classify/{width}"),
            TaskDescriptor::Packed {
                tasks: items.iter().map(|&i| classify(i)).collect(),
            },
        ));
        rows.push((
            format!("packed/impute/{width}"),
            TaskDescriptor::Packed {
                // Examples are per record: alternate none and three.
                tasks: items
                    .iter()
                    .enumerate()
                    .map(|(n, &i)| impute(i, if n % 2 == 0 { &[] } else { &THREE_EXAMPLES }))
                    .collect(),
            },
        ));
    }
    rows
}

#[test]
fn every_task_kind_renders_and_counts_as_recorded() {
    let corpus = corpus();
    let opts = RenderOptions::with_criterion("by how chocolatey they are");
    let got: Vec<(String, usize, u64, u32)> = rows()
        .into_iter()
        .map(|(name, task)| {
            let prompt = render(&task, &corpus, &opts).expect("every golden row renders");
            (
                name,
                prompt.len(),
                fnv1a(prompt.as_bytes()),
                count_tokens(&prompt),
            )
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(name, len, hash, tokens)| {
            format!("    ({name:?}, {len}, {hash:#018x}, {tokens}),\n")
        })
        .collect();
    assert_eq!(got.len(), EXPECTED.len(), "this tree's rows:\n{table}");
    for (got, want) in got.iter().zip(EXPECTED) {
        assert_eq!(
            (got.0.as_str(), got.1, got.2, got.3),
            *want,
            "this tree's rows:\n{table}"
        );
    }
}

/// The counter as it was before the byte loop: one `chars()` pass.
fn count_by_chars(text: &str) -> u32 {
    if text.is_empty() {
        return 0;
    }
    let (mut words, mut punct, mut chars) = (0u32, 0u32, 0u32);
    let mut in_word = false;
    for c in text.chars() {
        chars += 1;
        if c.is_alphanumeric() {
            if !in_word {
                words += 1;
                in_word = true;
            }
        } else {
            in_word = false;
            if !c.is_whitespace() {
                punct += 1;
            }
        }
    }
    (words + punct).max(chars.div_ceil(4)).max(1)
}

#[test]
fn ascii_path_matches_the_chars_path_on_every_code_point_and_position() {
    let ascii: Vec<char> = (0u8..128).map(char::from).collect();
    for &c in &ascii {
        let alone = c.to_string();
        assert_eq!(count_tokens(&alone), count_by_chars(&alone), "{alone:?}");
        // Enough repeats that the punctuation count clears the char floor,
        // so a code point classed wrongly cannot hide under it.
        let run = alone.repeat(9);
        assert_eq!(count_tokens(&run), count_by_chars(&run), "{run:?}");
        for &d in &ascii {
            // `d` after `c`: in a word when `c` is alphanumeric, out of one
            // otherwise — and once more behind a word and behind a space.
            for text in [
                format!("{c}{d}"),
                format!("a{c}{d}a"),
                format!(" {c}{d} {c}"),
            ] {
                assert!(text.is_ascii());
                assert_eq!(count_tokens(&text), count_by_chars(&text), "{text:?}");
            }
        }
    }
    // The two classes a `u8::is_ascii_whitespace` shortcut would get wrong.
    assert_eq!(count_tokens(&"\x0b".repeat(8)), 2, "VT is whitespace");
    assert_eq!(count_tokens(&"\x0c".repeat(8)), 2, "FF is whitespace");
    for separator in ['\x1c', '\x1d', '\x1e', '\x1f'] {
        let run = separator.to_string().repeat(8);
        assert_eq!(count_tokens(&run), 8, "{separator:?} is not whitespace");
    }
}

/// ASCII of every class next to multi-byte letters, digits, whitespace and
/// punctuation.
const ALPHABET: [char; 24] = [
    'a',
    'Z',
    '7',
    ' ',
    '\t',
    '\n',
    '\x0b',
    '\x1f',
    '.',
    ';',
    '-',
    '"',
    '\u{e9}',
    '\u{fc}',
    '\u{4e2d}',
    '\u{663}',
    '\u{a0}',
    '\u{2028}',
    '\u{2014}',
    '\u{20ac}',
    '\u{1f370}',
    '\u{85}',
    '\u{df}',
    '\u{7f}',
];

proptest! {
    #[test]
    fn mixed_ascii_and_multibyte_strings_count_as_the_chars_loop_does(
        picks in prop::collection::vec(0usize..ALPHABET.len() * 3, 0..96),
    ) {
        // Two draws in three are ASCII, so both all-ASCII strings (the byte
        // loop) and mixed ones (the `chars()` loop) come up.
        let text: String = picks
            .iter()
            .map(|&p| if p < ALPHABET.len() { ALPHABET[p] } else { ALPHABET[p % 12] })
            .collect();
        prop_assert_eq!(count_tokens(&text), count_by_chars(&text));
        let ascii: String = text.chars().filter(char::is_ascii).collect();
        prop_assert_eq!(count_tokens(&ascii), count_by_chars(&ascii));
    }
}
