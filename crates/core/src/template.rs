//! Prompt templates: rendering unit tasks into natural-language prompts.
//!
//! Per the paper, we take workable prompt wordings as given (the entity
//! resolution template is quoted verbatim from §3.3) and focus on the data
//! processing operation. Templates are deterministic functions of
//! `(task, corpus, criterion label)`, so token accounting is reproducible.

use std::sync::OnceLock;

use crowdprompt_oracle::hash::{combine, prompt_hash};
use crowdprompt_oracle::task::{CountMode, SortCriterion, TaskDescriptor};
use crowdprompt_oracle::world::ItemId;

use crate::corpus::Corpus;
use crate::error::EngineError;

/// Rendering options shared by an operation's tasks.
#[derive(Debug, Clone)]
// lint: allow(pub-has-caller) — exposed by `Engine::render_opts`
pub struct RenderOptions {
    /// Human phrase for the sort criterion, e.g.
    /// `"by how chocolatey they are"` or `"in alphabetical order"`.
    pub criterion_label: String,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            criterion_label: "by the given criterion".to_owned(),
        }
    }
}

impl RenderOptions {
    /// The options' part of a task key: `hash::prompt_hash` of the
    /// criterion label, the one option a prompt reads.
    pub(crate) fn key(&self) -> u64 {
        prompt_hash(self.criterion_label.as_bytes())
    }

    /// Options with the given criterion label, which a sort prompt names.
    ///
    /// ```
    /// use crowdprompt_core::template::{render, RenderOptions};
    /// use crowdprompt_core::Corpus;
    /// use crowdprompt_oracle::task::{SortCriterion, TaskDescriptor};
    /// use crowdprompt_oracle::world::WorldModel;
    ///
    /// let mut world = WorldModel::new();
    /// let items = vec![world.add_item("mint chip"), world.add_item("rocky road")];
    /// let corpus = Corpus::from_world(&world, &items);
    /// let opts = RenderOptions::with_criterion("by how chocolatey they are");
    /// let task = TaskDescriptor::SortList {
    ///     items,
    ///     criterion: SortCriterion::LatentScore,
    /// };
    /// let prompt = render(&task, &corpus, &opts).unwrap();
    /// assert!(prompt.contains("by how chocolatey they are"));
    /// ```
    pub fn with_criterion(label: impl Into<String>) -> Self {
        RenderOptions {
            criterion_label: label.into(),
        }
    }
}

fn text_of(corpus: &Corpus, id: ItemId) -> Result<&str, EngineError> {
    corpus.text(id).ok_or(EngineError::UnknownItem(id))
}

/// Render a unit task into a prompt string.
///
/// Returns [`EngineError::UnknownItem`] if the task references an item the
/// corpus does not contain.
pub fn render(
    task: &TaskDescriptor,
    corpus: &Corpus,
    opts: &RenderOptions,
) -> Result<String, EngineError> {
    // A single-item prompt fits without growing (as `format!`'s own size
    // estimate had it); list and packed prompts double from here.
    let mut out = String::with_capacity(512);
    render_into(&mut out, task, corpus, opts)?;
    Ok(out)
}

/// Append `task`'s prompt to `out`: every line is written straight into
/// the one buffer (a [`TaskDescriptor::Verify`] renders the task it wraps
/// in place), text by `push_str` and numbers by [`push_decimal`], without
/// `core::fmt`.
fn render_into(
    out: &mut String,
    task: &TaskDescriptor,
    corpus: &Corpus,
    opts: &RenderOptions,
) -> Result<(), EngineError> {
    let c = &opts.criterion_label;
    match task {
        TaskDescriptor::SortList { items, criterion } => {
            out.push_str("Sort the following ");
            push_decimal(out, items.len());
            out.push_str(" items ");
            out.push_str(criterion_phrase(c, *criterion));
            out.push_str(
                ". Return the complete sorted list, \
                 one item per line, and nothing else.\n\n",
            );
            numbered_items(out, items, corpus)?;
        }
        TaskDescriptor::CompareBatch { pairs, criterion } => {
            out.push_str(
                "For each numbered pair below, answer whether the first item \
                 should be ranked before the second ",
            );
            out.push_str(criterion_phrase(c, *criterion));
            out.push_str(
                ". Respond with one line \
                 per pair, in order: \"N. Yes\" or \"N. No\".\n\n",
            );
            for (i, (l, r)) in pairs.iter().enumerate() {
                let (l, r) = (text_of(corpus, *l)?, text_of(corpus, *r)?);
                push_decimal(out, i + 1);
                out.push_str(". First: ");
                out.push_str(l);
                out.push_str(" | Second: ");
                out.push_str(r);
                out.push('\n');
            }
        }
        TaskDescriptor::Compare {
            left,
            right,
            criterion,
        } => {
            let (left, right) = (text_of(corpus, *left)?, text_of(corpus, *right)?);
            out.push_str("Consider two items.\nItem A: ");
            out.push_str(left);
            out.push_str("\nItem B: ");
            out.push_str(right);
            out.push_str("\nShould Item A be ranked before Item B ");
            out.push_str(criterion_phrase(c, *criterion));
            out.push_str("? Start your response with Yes or No.");
        }
        TaskDescriptor::Rate {
            item,
            scale_min,
            scale_max,
            ..
        } => {
            let item = text_of(corpus, *item)?;
            let (min, max) = (usize::from(*scale_min), usize::from(*scale_max));
            out.push_str("On a scale from ");
            push_decimal(out, min);
            out.push_str(" (");
            push_decimal(out, min);
            out.push_str(" = least) to ");
            push_decimal(out, max);
            out.push_str(" (");
            push_decimal(out, max);
            out.push_str(" = most), rate the following item ");
            out.push_str(c);
            out.push_str(".\nItem: ");
            out.push_str(item);
            out.push_str("\nRespond with a single number.");
        }
        TaskDescriptor::SameEntity { left, right } => {
            let (left, right) = (text_of(corpus, *left)?, text_of(corpus, *right)?);
            // Verbatim structure from §3.3 of the paper.
            out.push_str("Are Citation A and Citation B the same? Yes or No? Citation A is ");
            out.push_str(left);
            out.push_str(". Citation B is ");
            out.push_str(right);
            out.push_str(
                ". Are Citation A and Citation B the same? \
                 Start your response with Yes or No.",
            );
        }
        TaskDescriptor::GroupEntities { items } => {
            out.push_str("The following ");
            push_decimal(out, items.len());
            out.push_str(
                " records may contain duplicates referring to the \
                 same real-world entity. Group them into duplicate sets. \
                 Output one group per line as: Group N: record | record | ...\n\n",
            );
            numbered_items(out, items, corpus)?;
        }
        TaskDescriptor::Impute {
            item,
            attribute,
            examples,
        } => {
            out.push_str("Fill in the missing \"");
            out.push_str(attribute);
            out.push_str("\" value for the final record.\n\n");
            for (ex_id, value) in examples {
                out.push_str("Record: ");
                out.push_str(text_of(corpus, *ex_id)?);
                out.push('\n');
                out.push_str(attribute);
                out.push_str(": ");
                out.push_str(value);
                out.push_str("\n\n");
            }
            out.push_str("Record: ");
            out.push_str(text_of(corpus, *item)?);
            out.push('\n');
            out.push_str(attribute);
            out.push(':');
        }
        TaskDescriptor::CountPredicate {
            items, predicate, ..
        } => {
            out.push_str("Below are ");
            push_decimal(out, items.len());
            out.push_str(" items. Estimate how many of them satisfy: ");
            out.push_str(predicate);
            out.push_str(". Respond with a single number.\n\n");
            numbered_items(out, items, corpus)?;
        }
        TaskDescriptor::CheckPredicate { item, predicate } => {
            let item = text_of(corpus, *item)?;
            out.push_str("Does the following item satisfy: ");
            out.push_str(predicate);
            out.push_str("?\nItem: ");
            out.push_str(item);
            out.push_str("\nStart your response with Yes or No.");
        }
        TaskDescriptor::Classify { item, labels } => {
            let item = text_of(corpus, *item)?;
            out.push_str("Classify the following item into exactly one of these categories: ");
            comma_separated(out, labels);
            out.push_str(".\nItem: ");
            out.push_str(item);
            out.push_str("\nRespond with the category name only.");
        }
        TaskDescriptor::Verify {
            original,
            proposed_answer,
        } => {
            out.push_str("A model was given the following task:\n---\n");
            render_into(out, original, corpus, opts)?;
            out.push_str("\n---\nThe model answered: \"");
            out.push_str(proposed_answer);
            out.push_str("\".\nIs that answer correct? Start your response with Yes or No.");
        }
        TaskDescriptor::Packed { tasks } => render_packed(out, tasks, corpus)?,
    }
    Ok(())
}

/// Append `n` in decimal, as `{n}` would format it.
fn push_decimal(out: &mut String, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// One `N. <item text>` line, numbered `i + 1`.
fn numbered_line(out: &mut String, i: usize, text: &str) {
    push_decimal(out, i + 1);
    out.push_str(". ");
    out.push_str(text);
    out.push('\n');
}

/// One `N. <item text>` line per item, numbered from 1.
fn numbered_items(out: &mut String, items: &[ItemId], corpus: &Corpus) -> Result<(), EngineError> {
    for (i, id) in items.iter().enumerate() {
        numbered_line(out, i, text_of(corpus, *id)?);
    }
    Ok(())
}

/// The labels, `", "` between them.
fn comma_separated(out: &mut String, labels: &[String]) {
    for (i, label) in labels.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(label);
    }
}

/// The packed renderer's refusal of a pack with no sub-tasks.
fn empty_pack() -> EngineError {
    EngineError::InvalidInput("packed task with no sub-tasks".into())
}

/// The packed renderer's refusal of a sub-task it cannot state on one line.
fn not_packable(task: &TaskDescriptor) -> EngineError {
    EngineError::InvalidInput(format!("task kind {:?} is not packable", task.kind()))
}

/// Render a packed multi-item prompt: the shared instruction (hoisted from
/// the first sub-task) stated once, then one numbered line per item, with a
/// numbered-answer output contract. This is where packing's token saving
/// comes from — the per-item marginal cost is the item text alone.
fn render_packed(
    out: &mut String,
    tasks: &[TaskDescriptor],
    corpus: &Corpus,
) -> Result<(), EngineError> {
    let first = tasks.first().ok_or_else(empty_pack)?;
    let n = tasks.len();
    match first {
        TaskDescriptor::CheckPredicate { predicate, .. } => {
            out.push_str("For each of the ");
            push_decimal(out, n);
            out.push_str(" numbered items below, answer whether it satisfies: ");
            out.push_str(predicate);
            out.push_str(
                ". Respond with one line per item, in \
                 order: \"N. Yes\" or \"N. No\", and nothing else.\n\n",
            );
        }
        TaskDescriptor::Classify { labels, .. } => {
            out.push_str("Classify each of the ");
            push_decimal(out, n);
            out.push_str(" numbered items below into exactly one of these categories: ");
            comma_separated(out, labels);
            out.push_str(
                ". Respond with one line per item, in \
                 order: \"N. <category>\", and nothing else.\n\n",
            );
        }
        TaskDescriptor::Impute { attribute, .. } => {
            out.push_str("Fill in the missing \"");
            out.push_str(attribute);
            out.push_str("\" value for each of the ");
            push_decimal(out, n);
            out.push_str(
                " numbered records below. Respond with one line per record, in \
                 order: \"N. <value>\", and nothing else.\n\n",
            );
        }
        other => return Err(not_packable(other)),
    }
    for (i, task) in tasks.iter().enumerate() {
        match task {
            TaskDescriptor::CheckPredicate { item, .. } | TaskDescriptor::Classify { item, .. } => {
                numbered_line(out, i, text_of(corpus, *item)?);
            }
            TaskDescriptor::Impute {
                item,
                attribute,
                examples,
            } => {
                let text = text_of(corpus, *item)?;
                push_decimal(out, i + 1);
                out.push_str(". Record: ");
                out.push_str(text);
                out.push('\n');
                // Few-shot examples are per record (each record's nearest
                // labelled neighbors), so they render inline — packing
                // amortizes the instruction, not the examples.
                for (ex_id, value) in examples {
                    out.push_str("   (similar record: ");
                    out.push_str(text_of(corpus, *ex_id)?);
                    out.push_str(" has ");
                    out.push_str(attribute);
                    out.push_str(": ");
                    out.push_str(value);
                    out.push_str(")\n");
                }
            }
            other => return Err(not_packable(other)),
        }
    }
    Ok(())
}

fn criterion_phrase(label: &str, criterion: SortCriterion) -> &str {
    match criterion {
        SortCriterion::Lexicographic => "in alphabetical order",
        SortCriterion::LatentScore => label,
    }
}

/// `visit` each item whose text `task`'s prompt holds, in the order
/// [`render`] reads them, and fail exactly where [`render`] fails: at the
/// first item `visit` refuses (an engine's task key refuses an item its
/// corpus lacks, as [`render`] does), or with the packed renderer's
/// [`EngineError::InvalidInput`] at the sub-task it would refuse. The
/// order is the renderer's, not [`TaskDescriptor::items`]': an impute
/// prompt states its examples before its record.
pub(crate) fn walk_items(
    task: &TaskDescriptor,
    visit: &mut dyn FnMut(ItemId) -> Result<(), EngineError>,
) -> Result<(), EngineError> {
    match task {
        TaskDescriptor::SortList { items, .. }
        | TaskDescriptor::GroupEntities { items }
        | TaskDescriptor::CountPredicate { items, .. } => {
            items.iter().try_for_each(|&id| visit(id))
        }
        TaskDescriptor::CompareBatch { pairs, .. } => pairs.iter().try_for_each(|&(l, r)| {
            visit(l)?;
            visit(r)
        }),
        TaskDescriptor::Compare { left, right, .. }
        | TaskDescriptor::SameEntity { left, right } => {
            visit(*left)?;
            visit(*right)
        }
        TaskDescriptor::Rate { item, .. }
        | TaskDescriptor::CheckPredicate { item, .. }
        | TaskDescriptor::Classify { item, .. } => visit(*item),
        TaskDescriptor::Impute { item, examples, .. } => {
            examples.iter().try_for_each(|(id, _)| visit(*id))?;
            visit(*item)
        }
        TaskDescriptor::Verify { original, .. } => walk_items(original, visit),
        TaskDescriptor::Packed { tasks } => {
            let first = tasks.first().ok_or_else(empty_pack)?;
            if !first.packable() {
                return Err(not_packable(first));
            }
            for task in tasks {
                match task {
                    TaskDescriptor::CheckPredicate { item, .. }
                    | TaskDescriptor::Classify { item, .. } => visit(*item)?,
                    TaskDescriptor::Impute { item, examples, .. } => {
                        visit(*item)?;
                        examples.iter().try_for_each(|(id, _)| visit(*id))?;
                    }
                    other => return Err(not_packable(other)),
                }
            }
            Ok(())
        }
    }
}

/// A digest of the templates, the part of every task key no task or corpus
/// states: the prompts of [`canonical_tasks`], each hashed with
/// `hash::prompt_hash`, folded in order. Computed once per process. A
/// template edit moves one of those prompts, and so every key, and no
/// answer stored under the old wording is served; there is no version
/// constant to forget.
pub(crate) fn template_digest() -> u64 {
    static DIGEST: OnceLock<u64> = OnceLock::new();
    *DIGEST.get_or_init(|| {
        let mut corpus = Corpus::new();
        for i in 0..12 {
            corpus.insert(ItemId(i), format!("record {i}"));
        }
        let opts = RenderOptions::default();
        canonical_tasks().iter().fold(0, |digest, task| {
            // Every canonical task renders (a test pins it); one that
            // stopped rendering still moves the digest.
            let prompt = render(task, &corpus, &opts).unwrap_or_default();
            combine(digest, prompt_hash(prompt.as_bytes()))
        })
    })
}

/// One task of every kind `tests/template_golden.rs` pins, over items
/// `0..12`, in each shape the renderer writes differently: both sort
/// criteria, an impute with examples, a verification, each packed
/// instruction with a record's examples inline, and a pack numbered past
/// nine.
fn canonical_tasks() -> Vec<TaskDescriptor> {
    let ids = |n: u64| (0..n).map(ItemId).collect::<Vec<_>>();
    let check = |item: u64| TaskDescriptor::CheckPredicate {
        item: ItemId(item),
        predicate: "is sweet".into(),
    };
    let classify = |item: u64| TaskDescriptor::Classify {
        item: ItemId(item),
        labels: vec!["casual".into(), "fine dining".into()],
    };
    let impute = |item: u64, shots: u64| TaskDescriptor::Impute {
        item: ItemId(item),
        attribute: "city".into(),
        examples: (0..shots)
            .map(|i| (ItemId(i), format!("city {i}")))
            .collect(),
    };
    let compare = |criterion| TaskDescriptor::Compare {
        left: ItemId(0),
        right: ItemId(1),
        criterion,
    };
    vec![
        TaskDescriptor::SortList {
            items: ids(3),
            criterion: SortCriterion::LatentScore,
        },
        TaskDescriptor::SortList {
            items: ids(3),
            criterion: SortCriterion::Lexicographic,
        },
        TaskDescriptor::CompareBatch {
            pairs: vec![(ItemId(0), ItemId(1)), (ItemId(2), ItemId(0))],
            criterion: SortCriterion::LatentScore,
        },
        compare(SortCriterion::LatentScore),
        TaskDescriptor::Rate {
            item: ItemId(0),
            scale_min: 1,
            scale_max: 7,
            criterion: SortCriterion::LatentScore,
        },
        TaskDescriptor::SameEntity {
            left: ItemId(0),
            right: ItemId(1),
        },
        TaskDescriptor::GroupEntities { items: ids(3) },
        impute(3, 2),
        TaskDescriptor::CountPredicate {
            items: ids(3),
            predicate: "serves dessert".into(),
            mode: CountMode::Eyeball,
        },
        check(0),
        classify(0),
        TaskDescriptor::Verify {
            original: Box::new(compare(SortCriterion::Lexicographic)),
            proposed_answer: "Yes".into(),
        },
        TaskDescriptor::Packed {
            tasks: vec![check(0), check(1)],
        },
        TaskDescriptor::Packed {
            tasks: vec![classify(0), classify(1)],
        },
        TaskDescriptor::Packed {
            tasks: vec![impute(2, 0), impute(3, 2)],
        },
        TaskDescriptor::Packed {
            tasks: (0..12).map(check).collect(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> (Corpus, ItemId, ItemId) {
        let mut c = Corpus::new();
        let a = ItemId(0);
        let b = ItemId(1);
        c.insert(a, "chocolate fudge");
        c.insert(b, "lemon sorbet");
        (c, a, b)
    }

    #[test]
    fn same_entity_template_matches_paper() {
        let (c, a, b) = corpus();
        let p = render(
            &TaskDescriptor::SameEntity { left: a, right: b },
            &c,
            &RenderOptions::default(),
        )
        .unwrap();
        assert!(p.starts_with("Are Citation A and Citation B the same? Yes or No?"));
        assert!(p.contains("chocolate fudge"));
        assert!(p.ends_with("Start your response with Yes or No."));
    }

    #[test]
    fn sort_list_numbers_items() {
        let (c, a, b) = corpus();
        let p = render(
            &TaskDescriptor::SortList {
                items: vec![a, b],
                criterion: SortCriterion::LatentScore,
            },
            &c,
            &RenderOptions::with_criterion("by how chocolatey they are"),
        )
        .unwrap();
        assert!(p.contains("2 items by how chocolatey they are"));
        assert!(p.contains("1. chocolate fudge"));
        assert!(p.contains("2. lemon sorbet"));
    }

    #[test]
    fn lexicographic_criterion_overrides_label() {
        let (c, a, b) = corpus();
        let p = render(
            &TaskDescriptor::Compare {
                left: a,
                right: b,
                criterion: SortCriterion::Lexicographic,
            },
            &c,
            &RenderOptions::with_criterion("ignored"),
        )
        .unwrap();
        assert!(p.contains("in alphabetical order"));
        assert!(!p.contains("ignored"));
    }

    #[test]
    fn impute_renders_examples_before_target() {
        let (mut c, a, b) = corpus();
        let ex = ItemId(7);
        c.insert(ex, "name is X; phone is 1");
        let p = render(
            &TaskDescriptor::Impute {
                item: a,
                attribute: "city".into(),
                examples: vec![(ex, "berkeley".into())],
            },
            &c,
            &RenderOptions::default(),
        )
        .unwrap();
        let ex_pos = p.find("name is X").unwrap();
        let target_pos = p.find("chocolate fudge").unwrap();
        assert!(ex_pos < target_pos);
        assert!(p.trim_end().ends_with("city:"));
        let _ = b;
    }

    #[test]
    fn unknown_item_is_an_error() {
        let (c, a, _) = corpus();
        let err = render(
            &TaskDescriptor::Compare {
                left: a,
                right: ItemId(999),
                criterion: SortCriterion::LatentScore,
            },
            &c,
            &RenderOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::UnknownItem(ItemId(999))));
    }

    #[test]
    fn verify_embeds_inner_prompt() {
        let (c, a, b) = corpus();
        let p = render(
            &TaskDescriptor::Verify {
                original: Box::new(TaskDescriptor::SameEntity { left: a, right: b }),
                proposed_answer: "Yes".into(),
            },
            &c,
            &RenderOptions::default(),
        )
        .unwrap();
        assert!(p.contains("Are Citation A and Citation B the same?"));
        assert!(p.contains("\"Yes\""));
    }

    #[test]
    fn decimals_are_written_as_format_writes_them() {
        for n in [0, 1, 9, 10, 11, 99, 100, 255, 1_000, 65_536, usize::MAX] {
            let mut out = String::from("x");
            push_decimal(&mut out, n);
            assert_eq!(out, format!("x{n}"));
        }
    }

    #[test]
    fn lists_past_nine_items_number_every_line() {
        let mut c = Corpus::new();
        let items: Vec<ItemId> = (0..12).map(ItemId).collect();
        for &id in &items {
            c.insert(id, format!("flavor {}", id.0));
        }
        let opts = RenderOptions::default();
        let listed = render(
            &TaskDescriptor::SortList {
                items: items.clone(),
                criterion: SortCriterion::LatentScore,
            },
            &c,
            &opts,
        )
        .unwrap();
        let packed = render(
            &TaskDescriptor::Packed {
                tasks: items
                    .iter()
                    .map(|&item| TaskDescriptor::CheckPredicate {
                        item,
                        predicate: "is sweet".into(),
                    })
                    .collect(),
            },
            &c,
            &opts,
        )
        .unwrap();
        let lines: String = items
            .iter()
            .map(|id| format!("{}. flavor {}\n", id.0 + 1, id.0))
            .collect();
        assert!(listed.starts_with("Sort the following 12 items by the given criterion."));
        assert!(listed.ends_with(&lines), "{listed}");
        assert!(packed.starts_with("For each of the 12 numbered items below"));
        assert!(packed.ends_with(&lines), "{packed}");
    }

    #[test]
    fn every_canonical_task_renders_and_moves_the_digest() {
        let mut corpus = Corpus::new();
        for i in 0..12 {
            corpus.insert(ItemId(i), format!("record {i}"));
        }
        let opts = RenderOptions::default();
        let prompts: Vec<String> = canonical_tasks()
            .iter()
            .map(|task| render(task, &corpus, &opts).unwrap())
            .collect();
        let mut distinct = prompts.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            prompts.len(),
            "no two canonical prompts alike"
        );
        let digest = prompts
            .iter()
            .fold(0, |d, p| combine(d, prompt_hash(p.as_bytes())));
        assert_eq!(template_digest(), digest);
    }

    #[test]
    fn classify_lists_labels() {
        let (c, a, _) = corpus();
        let p = render(
            &TaskDescriptor::Classify {
                item: a,
                labels: vec!["dessert".into(), "entree".into()],
            },
            &c,
            &RenderOptions::default(),
        )
        .unwrap();
        assert!(p.contains("dessert, entree"));
    }
}
