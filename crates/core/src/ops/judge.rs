//! The strict judgement step: the one place a ranking or matching operator
//! dispatches, meters and parses — the strict twin of
//! [`Poll::round`](super::filter), which does the same for votes under the
//! failure policy.
//!
//! Everything here goes through [`Engine::run_many`]: the first hard error
//! fails the operator, and so does the first answer that does not parse.
//! Pair orientation and task order are the caller's: a pair is asked as
//! `(left, right)` exactly as given and pairs are issued in slice order,
//! because both are part of the request fingerprint and of a model's
//! positional bias.

use crowdprompt_oracle::task::{SortCriterion, TaskDescriptor};
use crowdprompt_oracle::world::ItemId;

use crate::consistency;
use crate::error::EngineError;
use crate::exec::Engine;
use crate::extract;
use crate::outcome::CostMeter;

/// Largest group [`rank_repaired`] repairs exactly (minimum-violation
/// order by search); larger groups get the greedy repair.
const REPAIR_EXACT_LIMIT: usize = 12;

/// Ask one task per question, meter every response, parse every response;
/// answers in question order.
fn ask<Q, T>(
    engine: &Engine,
    questions: &[Q],
    task_of: impl Fn(&Q) -> TaskDescriptor,
    parse: impl Fn(&Q, &str) -> Result<T, EngineError>,
    meter: &mut CostMeter,
) -> Result<Vec<T>, EngineError> {
    let responses = engine.run_many(questions.iter().map(task_of).collect())?;
    questions
        .iter()
        .zip(&responses)
        .map(|(question, resp)| {
            meter.add(resp.usage, engine.cost_of_response(resp));
            parse(question, &resp.text)
        })
        .collect()
}

/// Ask one yes/no task per pair.
fn ask_pairs(
    engine: &Engine,
    pairs: &[(ItemId, ItemId)],
    task_of: impl Fn(ItemId, ItemId) -> TaskDescriptor,
    meter: &mut CostMeter,
) -> Result<Vec<bool>, EngineError> {
    ask(
        engine,
        pairs,
        |&(left, right)| task_of(left, right),
        |_, text| extract::yes_no(text),
        meter,
    )
}

/// Per pair: does `left` rank before `right` under `criterion`?
pub(crate) fn compare(
    engine: &Engine,
    pairs: &[(ItemId, ItemId)],
    criterion: SortCriterion,
    meter: &mut CostMeter,
) -> Result<Vec<bool>, EngineError> {
    ask_pairs(
        engine,
        pairs,
        |left, right| TaskDescriptor::Compare {
            left,
            right,
            criterion,
        },
        meter,
    )
}

/// [`compare`] with `batch_size` pairs to a prompt (§4's batching
/// hyper-parameter): one call per batch, one answer per pair.
pub(crate) fn compare_batched(
    engine: &Engine,
    pairs: &[(ItemId, ItemId)],
    batch_size: usize,
    criterion: SortCriterion,
    meter: &mut CostMeter,
) -> Result<Vec<bool>, EngineError> {
    let batches: Vec<&[(ItemId, ItemId)]> = pairs.chunks(batch_size.max(1)).collect();
    let answers = ask(
        engine,
        &batches,
        |batch| TaskDescriptor::CompareBatch {
            pairs: batch.to_vec(),
            criterion,
        },
        |batch, text| extract::yes_no_list(text, batch.len()),
        meter,
    )?;
    Ok(answers.into_iter().flatten().collect())
}

/// Per pair: do `left` and `right` name the same entity?
pub(crate) fn same_entity(
    engine: &Engine,
    pairs: &[(ItemId, ItemId)],
    meter: &mut CostMeter,
) -> Result<Vec<bool>, EngineError> {
    ask_pairs(
        engine,
        pairs,
        |left, right| TaskDescriptor::SameEntity { left, right },
        meter,
    )
}

/// Rate every item on `scale_min..=scale_max`; `(rating, item)` in item
/// order.
pub(crate) fn rate(
    engine: &Engine,
    items: &[ItemId],
    scale_min: u8,
    scale_max: u8,
    criterion: SortCriterion,
    meter: &mut CostMeter,
) -> Result<Vec<(u8, ItemId)>, EngineError> {
    ask(
        engine,
        items,
        |&item| TaskDescriptor::Rate {
            item,
            scale_min,
            scale_max,
            criterion,
        },
        |&item, text| Ok((extract::rating(text)?, item)),
        meter,
    )
}

/// Order rated items best first under `criterion` — `LatentScore` puts
/// high ratings first (most-X), `Lexicographic` low ones (early letters) —
/// with ties broken by id.
pub(crate) fn best_first(
    mut rated: Vec<(u8, ItemId)>,
    criterion: SortCriterion,
) -> Vec<(u8, ItemId)> {
    rated.sort_by(|a, b| {
        let by_rating = match criterion {
            SortCriterion::LatentScore => b.0.cmp(&a.0),
            SortCriterion::Lexicographic => a.0.cmp(&b.0),
        };
        by_rating.then(a.1.cmp(&b.1))
    });
    rated
}

/// Every `(i, j)` with `i < j < n`, row by row.
fn index_pairs(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n).flat_map(move |i| (i + 1..n).map(move |j| (i, j)))
}

/// Every `(items[i], items[j])` with `i < j`, row by row.
pub(crate) fn all_pairs(items: &[ItemId]) -> Vec<(ItemId, ItemId)> {
    index_pairs(items.len())
        .map(|(i, j)| (items[i], items[j]))
        .collect()
}

/// Compare every pair of `items` once; `beats[i][j]` says `items[i]` was
/// judged to rank before `items[j]`.
fn round_robin(
    engine: &Engine,
    items: &[ItemId],
    criterion: SortCriterion,
    meter: &mut CostMeter,
) -> Result<Vec<Vec<bool>>, EngineError> {
    let n = items.len();
    let left_first = compare(engine, &all_pairs(items), criterion, meter)?;
    let mut beats = vec![vec![false; n]; n];
    for ((i, j), left_first) in index_pairs(n).zip(left_first) {
        if left_first {
            beats[i][j] = true;
        } else {
            beats[j][i] = true;
        }
    }
    Ok(beats)
}

/// Rank a small group by round robin and return its minimum-violation
/// order, best first (§3.3's consistency repair on §3.2's fine stage).
pub(crate) fn rank_repaired(
    engine: &Engine,
    items: &[ItemId],
    criterion: SortCriterion,
    meter: &mut CostMeter,
) -> Result<Vec<ItemId>, EngineError> {
    if items.len() < 2 {
        return Ok(items.to_vec());
    }
    let beats = round_robin(engine, items, criterion, meter)?;
    let order = consistency::repair_ranking(items.len(), &|a, b| beats[a][b], REPAIR_EXACT_LIMIT);
    Ok(order.into_iter().map(|i| items[i]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crowdprompt_oracle::error::LlmError;
    use crowdprompt_oracle::pricing::Pricing;
    use crowdprompt_oracle::types::{
        CompletionRequest, CompletionResponse, FinishReason, LanguageModel, Usage,
    };
    use crowdprompt_oracle::world::WorldModel;
    use crowdprompt_oracle::LlmClient;
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// Answers from the task alone — "Yes" iff the left id is the smaller —
    /// and logs every task it is asked, so a test can see which item each
    /// prompt listed first. Pairs naming `mumbles_on` get no verdict.
    struct Scripted {
        asked: Arc<Mutex<Vec<TaskDescriptor>>>,
        mumbles_on: Option<ItemId>,
    }

    impl Scripted {
        fn verdict(&self, left: ItemId, right: ItemId) -> String {
            if self.mumbles_on == Some(left) || self.mumbles_on == Some(right) {
                format!("Hard to say for {} and {}.", left.0, right.0)
            } else if left < right {
                "Yes".to_owned()
            } else {
                "No".to_owned()
            }
        }
    }

    impl LanguageModel for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }
        fn context_window(&self) -> u32 {
            100_000
        }
        fn pricing(&self) -> Pricing {
            Pricing::new(1.0, 1.0)
        }
        fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
            self.asked.lock().push(request.task.clone());
            let text = match &request.task {
                TaskDescriptor::Compare { left, right, .. }
                | TaskDescriptor::SameEntity { left, right } => self.verdict(*left, *right),
                TaskDescriptor::CompareBatch { pairs, .. } => pairs
                    .iter()
                    .enumerate()
                    .map(|(i, (l, r))| format!("{}. {}\n", i + 1, self.verdict(*l, *r)))
                    .collect(),
                TaskDescriptor::Rate { item, .. } => format!("Rating: {}", item.0 % 3 + 1),
                other => panic!("unscripted task {other:?}"),
            };
            Ok(CompletionResponse {
                text,
                usage: Usage {
                    prompt_tokens: 10,
                    completion_tokens: 2,
                },
                finish_reason: FinishReason::Stop,
                model: "scripted".into(),
                cached: false,
                pricing: self.pricing(),
                confidence: None,
            })
        }
    }

    /// A one-worker engine over the scripted model (so the log is in
    /// dispatch order), the items, and the log.
    fn scripted(
        n: usize,
        mumbles_on: Option<u64>,
    ) -> (Engine, Vec<ItemId>, Arc<Mutex<Vec<TaskDescriptor>>>) {
        let mut w = WorldModel::new();
        let ids: Vec<ItemId> = (0..n).map(|i| w.add_item(format!("thing {i}"))).collect();
        let asked = Arc::new(Mutex::new(Vec::new()));
        let model = Scripted {
            asked: Arc::clone(&asked),
            mumbles_on: mumbles_on.map(ItemId),
        };
        let engine = Engine::new(
            Arc::new(LlmClient::new(Arc::new(model))),
            Corpus::from_world(&w, &ids),
        )
        .with_parallelism(1);
        (engine, ids, asked)
    }

    const BY: SortCriterion = SortCriterion::LatentScore;

    #[test]
    fn pairs_are_asked_as_given_and_answered_in_order() {
        let (engine, ids, asked) = scripted(3, None);
        let (a, b, c) = (ids[0], ids[1], ids[2]);
        let mut meter = CostMeter::new();
        let pairs = [(c, a), (a, c), (b, c)];
        let answers = compare(&engine, &pairs, BY, &mut meter).unwrap();
        assert_eq!(answers, [false, true, true]);
        let same = same_entity(&engine, &pairs[..2], &mut meter).unwrap();
        assert_eq!(same, [false, true]);
        let compare_task = |(left, right)| TaskDescriptor::Compare {
            left,
            right,
            criterion: BY,
        };
        assert_eq!(
            *asked.lock(),
            [
                compare_task(pairs[0]),
                compare_task(pairs[1]),
                compare_task(pairs[2]),
                TaskDescriptor::SameEntity { left: c, right: a },
                TaskDescriptor::SameEntity { left: a, right: c },
            ]
        );
    }

    #[test]
    fn round_robin_follows_the_presented_order() {
        let (engine, ids, asked) = scripted(3, None);
        let presented = [ids[2], ids[0], ids[1]];
        assert_eq!(
            all_pairs(&presented),
            [(ids[2], ids[0]), (ids[2], ids[1]), (ids[0], ids[1])]
        );
        let mut meter = CostMeter::new();
        let beats = round_robin(&engine, &presented, BY, &mut meter).unwrap();
        // The script prefers the smaller id: presented[1] beats both
        // others, presented[2] beats presented[0].
        assert_eq!(
            beats,
            [
                [false, false, false],
                [true, false, true],
                [true, false, false]
            ]
        );
        assert_eq!(meter.calls, 3);
        assert!(matches!(
            asked.lock()[0],
            TaskDescriptor::Compare { left, right, .. } if (left, right) == (ids[2], ids[0])
        ));
        let ranked = rank_repaired(&engine, &presented, BY, &mut meter).unwrap();
        assert_eq!(ranked, [ids[0], ids[1], ids[2]]);
        // A group of one is already ranked: nothing is asked.
        let before = asked.lock().len();
        assert_eq!(
            rank_repaired(&engine, &ids[..1], BY, &mut meter).unwrap(),
            [ids[0]]
        );
        assert_eq!(asked.lock().len(), before);
    }

    #[test]
    fn every_response_is_metered_once() {
        let (engine, ids, _) = scripted(5, None);
        let pairs = all_pairs(&ids);
        let mut meter = CostMeter::new();
        compare(&engine, &pairs, BY, &mut meter).unwrap();
        assert_eq!(meter.calls, 10, "one call per pair");
        assert_eq!(meter.usage.prompt_tokens, 100);
        assert!((meter.cost_usd - 10.0 * 0.012).abs() < 1e-12);

        let mut meter = CostMeter::new();
        let answers = compare_batched(&engine, &pairs, 4, BY, &mut meter).unwrap();
        assert_eq!(meter.calls, 3, "one call per batch of four");
        assert_eq!(answers.len(), 10, "one answer per pair");
        assert!(answers.iter().all(|left_first| *left_first));

        let mut meter = CostMeter::new();
        let rated = rate(&engine, &ids, 1, 3, BY, &mut meter).unwrap();
        assert_eq!(meter.calls, 5);
        let ratings: Vec<u8> = rated.iter().map(|(rating, _)| *rating).collect();
        assert_eq!(ratings, [1, 2, 3, 1, 2], "in item order");
    }

    #[test]
    fn best_first_follows_the_criterion_and_breaks_ties_by_id() {
        let rated = vec![
            (2, ItemId(7)),
            (3, ItemId(1)),
            (2, ItemId(4)),
            (1, ItemId(9)),
        ];
        let ids = |ranked: Vec<(u8, ItemId)>| -> Vec<u64> {
            ranked.into_iter().map(|(_, id)| id.0).collect()
        };
        assert_eq!(
            ids(best_first(rated.clone(), SortCriterion::LatentScore)),
            [1, 4, 7, 9]
        );
        assert_eq!(
            ids(best_first(rated, SortCriterion::Lexicographic)),
            [9, 4, 7, 1]
        );
    }

    #[test]
    fn the_first_unparseable_answer_is_the_error() {
        let (engine, ids, _) = scripted(4, Some(2));
        let mut meter = CostMeter::new();
        // Three pairs name item 2; the error is the first in pair order.
        let err = compare(&engine, &all_pairs(&ids), BY, &mut meter).unwrap_err();
        assert!(
            matches!(
                &err,
                EngineError::Extraction { expected, response }
                    if *expected == "yes/no" && response == "Hard to say for 0 and 2."
            ),
            "{err:?}"
        );
        // Pairs not naming the mumbled item still answer.
        let clear = [(ids[0], ids[1]), (ids[3], ids[1])];
        assert_eq!(
            same_entity(&engine, &clear, &mut meter).unwrap(),
            [true, false]
        );
        assert!(compare_batched(&engine, &all_pairs(&ids), 3, BY, &mut meter).is_err());
    }
}
