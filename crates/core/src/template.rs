//! Prompt templates: rendering unit tasks into natural-language prompts.
//!
//! Per the paper, we take workable prompt wordings as given (the entity
//! resolution template is quoted verbatim from §3.3) and focus on the data
//! processing operation. Templates are deterministic functions of
//! `(task, corpus, criterion label)`, so token accounting is reproducible.

use std::fmt::Write;

use crowdprompt_oracle::task::{SortCriterion, TaskDescriptor};
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
/// in place). Writing to a `String` cannot fail, so the `fmt::Result` of
/// each `write!` is dropped.
fn render_into(
    out: &mut String,
    task: &TaskDescriptor,
    corpus: &Corpus,
    opts: &RenderOptions,
) -> Result<(), EngineError> {
    let c = &opts.criterion_label;
    match task {
        TaskDescriptor::SortList { items, criterion } => {
            let _ = write!(
                out,
                "Sort the following {} items {}. Return the complete sorted list, \
                 one item per line, and nothing else.\n\n",
                items.len(),
                criterion_phrase(c, *criterion),
            );
            numbered_items(out, items, corpus)?;
        }
        TaskDescriptor::CompareBatch { pairs, criterion } => {
            let _ = write!(
                out,
                "For each numbered pair below, answer whether the first item \
                 should be ranked before the second {}. Respond with one line \
                 per pair, in order: \"N. Yes\" or \"N. No\".\n\n",
                criterion_phrase(c, *criterion),
            );
            for (i, (l, r)) in pairs.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{}. First: {} | Second: {}",
                    i + 1,
                    text_of(corpus, *l)?,
                    text_of(corpus, *r)?,
                );
            }
        }
        TaskDescriptor::Compare {
            left,
            right,
            criterion,
        } => {
            let _ = write!(
                out,
                "Consider two items.\nItem A: {}\nItem B: {}\n\
                 Should Item A be ranked before Item B {}? \
                 Start your response with Yes or No.",
                text_of(corpus, *left)?,
                text_of(corpus, *right)?,
                criterion_phrase(c, *criterion),
            );
        }
        TaskDescriptor::Rate {
            item,
            scale_min,
            scale_max,
            ..
        } => {
            let _ = write!(
                out,
                "On a scale from {scale_min} ({scale_min} = least) to {scale_max} \
                 ({scale_max} = most), rate the following item {c}.\n\
                 Item: {}\nRespond with a single number.",
                text_of(corpus, *item)?,
            );
        }
        TaskDescriptor::SameEntity { left, right } => {
            let _ = write!(
                out,
                // Verbatim structure from §3.3 of the paper.
                "Are Citation A and Citation B the same? Yes or No? \
                 Citation A is {}. Citation B is {}. \
                 Are Citation A and Citation B the same? Start your response with Yes or No.",
                text_of(corpus, *left)?,
                text_of(corpus, *right)?,
            );
        }
        TaskDescriptor::GroupEntities { items } => {
            let _ = write!(
                out,
                "The following {} records may contain duplicates referring to the \
                 same real-world entity. Group them into duplicate sets. \
                 Output one group per line as: Group N: record | record | ...\n\n",
                items.len()
            );
            numbered_items(out, items, corpus)?;
        }
        TaskDescriptor::Impute {
            item,
            attribute,
            examples,
        } => {
            let _ = write!(
                out,
                "Fill in the missing \"{attribute}\" value for the final record.\n\n"
            );
            for (ex_id, value) in examples {
                let _ = write!(
                    out,
                    "Record: {}\n{attribute}: {value}\n\n",
                    text_of(corpus, *ex_id)?
                );
            }
            let _ = write!(out, "Record: {}\n{attribute}:", text_of(corpus, *item)?);
        }
        TaskDescriptor::CountPredicate {
            items, predicate, ..
        } => {
            let _ = write!(
                out,
                "Below are {} items. Estimate how many of them satisfy: {predicate}. \
                 Respond with a single number.\n\n",
                items.len()
            );
            numbered_items(out, items, corpus)?;
        }
        TaskDescriptor::CheckPredicate { item, predicate } => {
            let _ = write!(
                out,
                "Does the following item satisfy: {predicate}?\nItem: {}\n\
                 Start your response with Yes or No.",
                text_of(corpus, *item)?,
            );
        }
        TaskDescriptor::Classify { item, labels } => {
            out.push_str("Classify the following item into exactly one of these categories: ");
            comma_separated(out, labels);
            let _ = write!(
                out,
                ".\nItem: {}\nRespond with the category name only.",
                text_of(corpus, *item)?,
            );
        }
        TaskDescriptor::Verify {
            original,
            proposed_answer,
        } => {
            out.push_str("A model was given the following task:\n---\n");
            render_into(out, original, corpus, opts)?;
            let _ = write!(
                out,
                "\n---\nThe model answered: \"{proposed_answer}\".\n\
                 Is that answer correct? Start your response with Yes or No.",
            );
        }
        TaskDescriptor::Packed { tasks } => render_packed(out, tasks, corpus)?,
    }
    Ok(())
}

/// One `N. <item text>` line per item, numbered from 1.
fn numbered_items(out: &mut String, items: &[ItemId], corpus: &Corpus) -> Result<(), EngineError> {
    for (i, id) in items.iter().enumerate() {
        let _ = writeln!(out, "{}. {}", i + 1, text_of(corpus, *id)?);
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

/// Render a packed multi-item prompt: the shared instruction (hoisted from
/// the first sub-task) stated once, then one numbered line per item, with a
/// numbered-answer output contract. This is where packing's token saving
/// comes from — the per-item marginal cost is the item text alone.
fn render_packed(
    out: &mut String,
    tasks: &[TaskDescriptor],
    corpus: &Corpus,
) -> Result<(), EngineError> {
    let first = tasks
        .first()
        .ok_or_else(|| EngineError::InvalidInput("packed task with no sub-tasks".into()))?;
    let n = tasks.len();
    let not_packable = |task: &TaskDescriptor| {
        EngineError::InvalidInput(format!("task kind {:?} is not packable", task.kind()))
    };
    match first {
        TaskDescriptor::CheckPredicate { predicate, .. } => {
            let _ = write!(
                out,
                "For each of the {n} numbered items below, answer whether it \
                 satisfies: {predicate}. Respond with one line per item, in \
                 order: \"N. Yes\" or \"N. No\", and nothing else.\n\n",
            );
        }
        TaskDescriptor::Classify { labels, .. } => {
            let _ = write!(
                out,
                "Classify each of the {n} numbered items below into exactly one \
                 of these categories: ",
            );
            comma_separated(out, labels);
            out.push_str(
                ". Respond with one line per item, in \
                 order: \"N. <category>\", and nothing else.\n\n",
            );
        }
        TaskDescriptor::Impute { attribute, .. } => {
            let _ = write!(
                out,
                "Fill in the missing \"{attribute}\" value for each of the {n} \
                 numbered records below. Respond with one line per record, in \
                 order: \"N. <value>\", and nothing else.\n\n",
            );
        }
        other => return Err(not_packable(other)),
    }
    for (i, task) in tasks.iter().enumerate() {
        match task {
            TaskDescriptor::CheckPredicate { item, .. } | TaskDescriptor::Classify { item, .. } => {
                let _ = writeln!(out, "{}. {}", i + 1, text_of(corpus, *item)?);
            }
            TaskDescriptor::Impute {
                item,
                attribute,
                examples,
            } => {
                let _ = writeln!(out, "{}. Record: {}", i + 1, text_of(corpus, *item)?);
                // Few-shot examples are per record (each record's nearest
                // labelled neighbors), so they render inline — packing
                // amortizes the instruction, not the examples.
                for (ex_id, value) in examples {
                    let _ = writeln!(
                        out,
                        "   (similar record: {} has {attribute}: {value})",
                        text_of(corpus, *ex_id)?,
                    );
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
