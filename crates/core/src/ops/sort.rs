//! Sorting strategies (paper §3.1–3.2, Tables 1 and 2).

use std::collections::{HashMap, HashSet};

use crowdprompt_oracle::task::{SortCriterion, TaskDescriptor};
use crowdprompt_oracle::world::ItemId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::error::EngineError;
use crate::exec::Engine;
use crate::extract;
use crate::ops::bill::{pair_count, Ask, Line};
use crate::ops::judge;
use crate::outcome::{CostMeter, Outcome};

/// How to sort.
#[derive(Debug, Clone, PartialEq)]
pub enum SortStrategy {
    /// One prompt holding the full list (the paper's baseline). Omitted
    /// items are re-inserted at seeded-random positions, as in Table 2's
    /// baseline scoring; hallucinated entries are dropped.
    SinglePrompt,
    /// All `n(n-1)/2` pairwise comparisons, ranked by Copeland score
    /// (number of wins), ties broken by id.
    Pairwise,
    /// Pairwise comparisons packed `batch_size` to a prompt (§4's batching
    /// hyper-parameter): far fewer calls and prompt-overhead tokens than
    /// [`SortStrategy::Pairwise`], at a per-comparison accuracy penalty.
    PairwiseBatched {
        /// Comparisons per prompt.
        batch_size: usize,
    },
    /// One rating task per item, ranked by rating.
    Rating {
        /// Inclusive scale minimum (paper uses 1).
        scale_min: u8,
        /// Inclusive scale maximum (paper uses 7).
        scale_max: u8,
    },
    /// Table 2's hybrid: single-prompt sort, drop hallucinations, then
    /// re-insert each missing item by bidirectional pairwise comparisons
    /// against the partially sorted list, choosing the alignment-maximizing
    /// index.
    SortThenInsert,
    /// Khan-style coarse→fine hybrid (§3.2): rate every item into buckets,
    /// then refine each bucket with exact pairwise repair.
    BucketThenCompare {
        /// Number of rating buckets.
        buckets: u8,
    },
    /// Merge sort for lists that exceed one context window: sort chunks of
    /// `chunk_size` items in separate prompts, then merge the sorted runs
    /// two at a time with pairwise comparisons — the paper's §1 suggestion
    /// of "smaller groups … sequenced so that every record is compared"
    /// made concrete.
    ChunkedMerge {
        /// Items per coarse sorting prompt.
        chunk_size: usize,
    },
}

impl SortStrategy {
    /// Human-readable strategy name (used by `EXPLAIN` and the optimizer).
    pub fn name(&self) -> String {
        match self {
            SortStrategy::SinglePrompt => "single-prompt".to_owned(),
            SortStrategy::Pairwise => "pairwise".to_owned(),
            SortStrategy::Rating {
                scale_min,
                scale_max,
            } => format!("rating-{scale_min}-{scale_max}"),
            SortStrategy::SortThenInsert => "sort-then-insert".to_owned(),
            SortStrategy::PairwiseBatched { batch_size } => {
                format!("pairwise-batched-{batch_size}")
            }
            SortStrategy::ChunkedMerge { chunk_size } => {
                format!("chunked-merge-{chunk_size}")
            }
            SortStrategy::BucketThenCompare { buckets } => {
                format!("bucket-then-compare-{buckets}")
            }
        }
    }

    /// What sorting `n` items asks of the model.
    pub(crate) fn bill(&self, n: usize, criterion: SortCriterion) -> Vec<Line> {
        if n < 2 {
            return Vec::new();
        }
        let compare = Ask::Compare { criterion };
        let rate = |scale_max| Ask::Rate {
            criterion,
            scale_max,
        };
        let sort_list = |len| Ask::SortList { criterion, len };
        match self {
            SortStrategy::SinglePrompt | SortStrategy::SortThenInsert => {
                vec![Line::new(1, sort_list(n))]
            }
            SortStrategy::Pairwise => vec![Line::new(pair_count(n), compare)],
            SortStrategy::PairwiseBatched { batch_size } => {
                let (b, all) = ((*batch_size).max(1), pair_count(n));
                let ask = Ask::CompareBatch {
                    criterion,
                    pairs: b.min(all),
                };
                vec![Line::new(all.div_ceil(b), ask)]
            }
            SortStrategy::Rating { scale_max, .. } => vec![Line::new(n, rate(*scale_max))],
            SortStrategy::BucketThenCompare { buckets } => {
                // n ratings plus pairwise repair inside each (assumed
                // evenly filled) bucket.
                let b = (*buckets).max(2);
                let per_bucket = n.div_ceil(usize::from(b));
                vec![
                    Line::new(n, rate(b)),
                    Line::new(usize::from(b) * pair_count(per_bucket), compare),
                ]
            }
            SortStrategy::ChunkedMerge { chunk_size } => {
                // One prompt per chunk, then ≤ n comparisons per merge level.
                let chunk = (*chunk_size).max(2);
                let runs = n.div_ceil(chunk);
                let levels = usize::BITS - runs.next_power_of_two().leading_zeros() - 1;
                vec![
                    Line::new(runs, sort_list(chunk)),
                    Line::new(n * levels as usize, compare),
                ]
            }
        }
    }
}

/// A sort outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SortResult {
    /// The produced ordering (always a permutation of the input items).
    pub order: Vec<ItemId>,
    /// Items the model omitted (before re-insertion).
    pub missing: usize,
    /// Hallucinated entries the model produced (they are discarded).
    pub hallucinated: usize,
}

/// Sort `items` under `criterion` using `strategy`.
///
/// The ordering convention follows the criterion: `LatentScore` sorts
/// descending (most-X first), `Lexicographic` ascending.
pub(crate) fn sort(
    engine: &Engine,
    items: &[ItemId],
    criterion: SortCriterion,
    strategy: &SortStrategy,
) -> Result<Outcome<SortResult>, EngineError> {
    if items.len() < 2 {
        return Ok(Outcome::free(SortResult {
            order: items.to_vec(),
            missing: 0,
            hallucinated: 0,
        }));
    }
    match strategy {
        SortStrategy::SinglePrompt => single_prompt(engine, items, criterion),
        SortStrategy::Pairwise => pairwise(engine, items, criterion),
        SortStrategy::PairwiseBatched { batch_size } => {
            pairwise_batched(engine, items, criterion, *batch_size)
        }
        SortStrategy::Rating {
            scale_min,
            scale_max,
        } => rating(engine, items, criterion, *scale_min, *scale_max),
        SortStrategy::SortThenInsert => sort_then_insert(engine, items, criterion),
        SortStrategy::BucketThenCompare { buckets } => {
            bucket_then_compare(engine, items, criterion, *buckets)
        }
        SortStrategy::ChunkedMerge { chunk_size } => {
            chunked_merge(engine, items, criterion, *chunk_size)
        }
    }
}

// ---------------------------------------------------------------------------
// Single prompt
// ---------------------------------------------------------------------------

fn single_prompt(
    engine: &Engine,
    items: &[ItemId],
    criterion: SortCriterion,
) -> Result<Outcome<SortResult>, EngineError> {
    let mut meter = CostMeter::new();
    let (order, missing, hallucinated) = run_list_sort(engine, items, criterion, &mut meter)?;
    // Reinsert missing items at seeded-random positions (Table 2 baseline
    // scoring) so the result is a permutation of the input.
    let order = reinsert_missing(engine, items, order);
    Ok(meter.into_outcome(SortResult {
        order,
        missing,
        hallucinated,
    }))
}

/// Issue one SortList task; return (recognized order, missing, hallucinated).
fn run_list_sort(
    engine: &Engine,
    items: &[ItemId],
    criterion: SortCriterion,
    meter: &mut CostMeter,
) -> Result<(Vec<ItemId>, usize, usize), EngineError> {
    let resp = engine.run(TaskDescriptor::SortList {
        items: items.to_vec(),
        criterion,
    })?;
    meter.add(resp.usage, engine.cost_of_response(&resp));
    let requested = engine.corpus().by_text(items);
    let mut seen: HashSet<ItemId> = HashSet::with_capacity(items.len());
    let mut order: Vec<ItemId> = Vec::with_capacity(items.len());
    let mut hallucinated = 0usize;
    for line in extract::list_items(&resp.text) {
        match requested.get(line) {
            Some(&id) if seen.insert(id) => order.push(id),
            Some(_) | None => hallucinated += 1,
        }
    }
    let missing = items.len() - order.len();
    Ok((order, missing, hallucinated))
}

fn reinsert_missing(engine: &Engine, items: &[ItemId], mut order: Vec<ItemId>) -> Vec<ItemId> {
    let present: HashSet<ItemId> = order.iter().copied().collect();
    let missing: Vec<ItemId> = items
        .iter()
        .copied()
        .filter(|id| !present.contains(id))
        .collect();
    if missing.is_empty() {
        return order;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(engine.seed() ^ 0x5157_u64);
    for id in missing {
        let at = rng.random_range(0..=order.len());
        order.insert(at, id);
    }
    order
}

// ---------------------------------------------------------------------------
// Pairwise (Copeland), one comparison or `batch_size` to a prompt (§4's
// batching hyper-parameter)
// ---------------------------------------------------------------------------

fn pairwise(
    engine: &Engine,
    items: &[ItemId],
    criterion: SortCriterion,
) -> Result<Outcome<SortResult>, EngineError> {
    let mut meter = CostMeter::new();
    let pairs = judge::all_pairs(items);
    let left_first = judge::compare(engine, &pairs, criterion, &mut meter)?;
    Ok(meter.into_outcome(copeland(items, &pairs, &left_first)))
}

fn pairwise_batched(
    engine: &Engine,
    items: &[ItemId],
    criterion: SortCriterion,
    batch_size: usize,
) -> Result<Outcome<SortResult>, EngineError> {
    let mut meter = CostMeter::new();
    let pairs = judge::all_pairs(items);
    let left_first = judge::compare_batched(engine, &pairs, batch_size, criterion, &mut meter)?;
    Ok(meter.into_outcome(copeland(items, &pairs, &left_first)))
}

/// Rank by Copeland score: most wins first; ties broken arbitrarily (by
/// id), as in the paper.
fn copeland(items: &[ItemId], pairs: &[(ItemId, ItemId)], left_first: &[bool]) -> SortResult {
    let mut wins: HashMap<ItemId, u32> = items.iter().map(|id| (*id, 0)).collect();
    for (&(left, right), &left_first) in pairs.iter().zip(left_first) {
        let winner = if left_first { left } else { right };
        *wins.get_mut(&winner).expect("seeded above") += 1; // lint: allow(no-unwrap)
    }
    let mut order: Vec<ItemId> = items.to_vec();
    order.sort_by(|a, b| wins[b].cmp(&wins[a]).then(a.cmp(b)));
    SortResult {
        order,
        missing: 0,
        hallucinated: 0,
    }
}

// ---------------------------------------------------------------------------
// Rating
// ---------------------------------------------------------------------------

fn rating(
    engine: &Engine,
    items: &[ItemId],
    criterion: SortCriterion,
    scale_min: u8,
    scale_max: u8,
) -> Result<Outcome<SortResult>, EngineError> {
    let mut meter = CostMeter::new();
    let rated = judge::rate(engine, items, scale_min, scale_max, criterion, &mut meter)?;
    Ok(meter.into_outcome(SortResult {
        order: judge::best_first(rated, criterion)
            .into_iter()
            .map(|(_, id)| id)
            .collect(),
        missing: 0,
        hallucinated: 0,
    }))
}

// ---------------------------------------------------------------------------
// Sort then insert (Table 2's hybrid)
// ---------------------------------------------------------------------------

fn sort_then_insert(
    engine: &Engine,
    items: &[ItemId],
    criterion: SortCriterion,
) -> Result<Outcome<SortResult>, EngineError> {
    let mut meter = CostMeter::new();
    let (mut order, missing, hallucinated) = run_list_sort(engine, items, criterion, &mut meter)?;
    let present: HashSet<ItemId> = order.iter().copied().collect();
    let missing_items: Vec<ItemId> = items
        .iter()
        .copied()
        .filter(|id| !present.contains(id))
        .collect();

    for w in missing_items {
        if order.is_empty() {
            order.push(w);
            continue;
        }
        // Bidirectional comparisons: each missed word is compared against
        // every sorted word twice (once listed first, once second) to cancel
        // positional bias.
        let pairs: Vec<(ItemId, ItemId)> = order.iter().flat_map(|&x| [(w, x), (x, w)]).collect();
        let answers = judge::compare(engine, &pairs, criterion, &mut meter)?;
        // votes[j] in {0,1,2}: how many of the two asks said "w before
        // order[j]" — asked directly, or "x before w" denied.
        let votes: Vec<u8> = answers
            .chunks(2)
            .map(|ask| u8::from(ask[0]) + u8::from(!ask[1]))
            .collect();
        // Alignment maximization: inserting at index i is consistent with
        // "x before w" (votes 2-v) for all j < i and "w before x" (votes v)
        // for all j >= i. Pick the i with the fewest inverted comparisons,
        // i.e. the highest total alignment.
        let m = order.len();
        // alignment(i) = Σ_{j<i} (2 - votes[j]) + Σ_{j>=i} votes[j];
        // incremental update: alignment(i) - alignment(i-1) = 2 - 2*votes[i-1].
        let mut alignment: i64 = votes.iter().map(|v| i64::from(*v)).sum();
        let mut best_i = 0usize;
        let mut best_score = alignment;
        for i in 1..=m {
            alignment += 2 - 2 * i64::from(votes[i - 1]);
            if alignment > best_score {
                best_score = alignment;
                best_i = i;
            }
        }
        order.insert(best_i, w);
    }

    Ok(meter.into_outcome(SortResult {
        order,
        missing,
        hallucinated,
    }))
}

// ---------------------------------------------------------------------------
// Chunked merge sort (context-window-sized coarse runs, comparison merges)
// ---------------------------------------------------------------------------

fn chunked_merge(
    engine: &Engine,
    items: &[ItemId],
    criterion: SortCriterion,
    chunk_size: usize,
) -> Result<Outcome<SortResult>, EngineError> {
    let chunk_size = chunk_size.max(2);
    let mut meter = CostMeter::new();
    let mut missing_total = 0usize;
    let mut hallucinated_total = 0usize;
    // Coarse pass: one sort prompt per chunk. Items the model omits are
    // appended to their run's tail — the merge comparisons will place them.
    let mut runs: Vec<Vec<ItemId>> = Vec::with_capacity(items.len().div_ceil(chunk_size));
    for chunk in items.chunks(chunk_size) {
        if chunk.len() == 1 {
            runs.push(chunk.to_vec());
            continue;
        }
        let (mut run, missing, hallucinated) = run_list_sort(engine, chunk, criterion, &mut meter)?;
        missing_total += missing;
        hallucinated_total += hallucinated;
        let present: HashSet<ItemId> = run.iter().copied().collect();
        run.extend(chunk.iter().copied().filter(|id| !present.contains(id)));
        runs.push(run);
    }
    // Fine pass: merge runs two at a time.
    while runs.len() > 1 {
        let mut next: Vec<Vec<ItemId>> = Vec::with_capacity(runs.len().div_ceil(2));
        let mut iter = runs.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => next.push(merge_runs(engine, a, b, criterion, &mut meter)?),
                None => next.push(a),
            }
        }
        runs = next;
    }
    Ok(meter.into_outcome(SortResult {
        order: runs.pop().unwrap_or_default(),
        missing: missing_total,
        hallucinated: hallucinated_total,
    }))
}

/// Merge two sorted runs with head-to-head comparisons (≤ a+b-1 calls).
fn merge_runs(
    engine: &Engine,
    a: Vec<ItemId>,
    b: Vec<ItemId>,
    criterion: SortCriterion,
    meter: &mut CostMeter,
) -> Result<Vec<ItemId>, EngineError> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ai, mut bi) = (0usize, 0usize);
    while ai < a.len() && bi < b.len() {
        if judge::compare(engine, &[(a[ai], b[bi])], criterion, meter)?[0] {
            out.push(a[ai]);
            ai += 1;
        } else {
            out.push(b[bi]);
            bi += 1;
        }
    }
    out.extend(&a[ai..]);
    out.extend(&b[bi..]);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Bucket then compare (Khan-style hybrid)
// ---------------------------------------------------------------------------

fn bucket_then_compare(
    engine: &Engine,
    items: &[ItemId],
    criterion: SortCriterion,
    buckets: u8,
) -> Result<Outcome<SortResult>, EngineError> {
    let mut meter = CostMeter::new();
    // Coarse pass: rate everything.
    let rated = judge::rate(engine, items, 1, buckets.max(2), criterion, &mut meter)?;
    let mut levels: Vec<u8> = judge::best_first(rated.clone(), criterion)
        .into_iter()
        .map(|(rating, _)| rating)
        .collect();
    levels.dedup();
    // Fine pass: pairwise-repair within each bucket (§3.3 applied to §3.2's
    // fine stage); concatenate buckets best first. A bucket's members stay
    // in presented order — which item a comparison lists first is part of
    // the request.
    let mut order: Vec<ItemId> = Vec::with_capacity(items.len());
    for level in levels {
        let members: Vec<ItemId> = rated
            .iter()
            .filter(|(rating, _)| *rating == level)
            .map(|(_, id)| *id)
            .collect();
        order.extend(judge::rank_repaired(
            engine, &members, criterion, &mut meter,
        )?);
    }
    Ok(meter.into_outcome(SortResult {
        order,
        missing: 0,
        hallucinated: 0,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::corpus::Corpus;
    use crowdprompt_oracle::model::ModelProfile;
    use crowdprompt_oracle::sim::SimulatedLlm;
    use crowdprompt_oracle::world::WorldModel;
    use crowdprompt_oracle::LlmClient;
    use std::sync::Arc;

    /// Engine over a perfect oracle with n scored items.
    fn perfect_engine(n: usize) -> (Engine, Vec<ItemId>, Vec<ItemId>) {
        let mut w = WorldModel::new();
        let ids: Vec<ItemId> = (0..n)
            .map(|i| {
                let id = w.add_item(format!("item-{i:02}"));
                w.set_score(id, 1.0 - i as f64 / n as f64);
                w.set_salience(id, 1.0);
                w.set_sort_key(id, format!("item-{i:02}"));
                id
            })
            .collect();
        let gold = w.gold_ranking_by_score(&ids);
        let corpus = Corpus::from_world(&w, &ids);
        let llm = Arc::new(SimulatedLlm::new(ModelProfile::perfect(), Arc::new(w), 3));
        let client = Arc::new(LlmClient::new(llm));
        let engine = Engine::new(client, corpus).with_budget(Budget::Unlimited);
        (engine, ids, gold)
    }

    /// Items presented in reverse-gold order so sorting has work to do.
    fn presented(ids: &[ItemId]) -> Vec<ItemId> {
        let mut v = ids.to_vec();
        v.reverse();
        v
    }

    #[test]
    fn single_prompt_perfect_oracle_exact() {
        let (engine, ids, gold) = perfect_engine(12);
        let out = sort(
            &engine,
            &presented(&ids),
            SortCriterion::LatentScore,
            &SortStrategy::SinglePrompt,
        )
        .unwrap();
        assert_eq!(out.value.order, gold);
        assert_eq!(out.value.missing, 0);
        assert_eq!(out.value.hallucinated, 0);
        assert_eq!(out.calls, 1);
        assert!(out.usage.prompt_tokens > 0);
    }

    #[test]
    fn single_prompt_matches_lines_to_the_requested_items_not_their_text_twins() {
        // Item 0 sits outside the request and shares its text with a
        // requested item: the answer line names the requested one.
        let mut w = WorldModel::new();
        let twin = w.add_item("item-03");
        let ids: Vec<ItemId> = (0..6)
            .map(|i| {
                let id = w.add_item(format!("item-{i:02}"));
                w.set_score(id, 1.0 - f64::from(i) / 6.0);
                w.set_salience(id, 1.0);
                id
            })
            .collect();
        let gold = w.gold_ranking_by_score(&ids);
        let corpus = Corpus::from_world(&w, &[&[twin], &ids[..]].concat());
        let llm = Arc::new(SimulatedLlm::new(ModelProfile::perfect(), Arc::new(w), 3));
        let engine = Engine::new(Arc::new(LlmClient::new(llm)), corpus);
        let out = sort(
            &engine,
            &presented(&ids),
            SortCriterion::LatentScore,
            &SortStrategy::SinglePrompt,
        )
        .unwrap();
        assert_eq!(out.value.order, gold);
        assert_eq!((out.value.missing, out.value.hallucinated), (0, 0));
    }

    #[test]
    fn pairwise_perfect_oracle_exact() {
        let (engine, ids, gold) = perfect_engine(8);
        let out = sort(
            &engine,
            &presented(&ids),
            SortCriterion::LatentScore,
            &SortStrategy::Pairwise,
        )
        .unwrap();
        assert_eq!(out.value.order, gold);
        assert_eq!(out.calls, 8 * 7 / 2);
    }

    #[test]
    fn rating_groups_by_quantized_score() {
        let (engine, ids, gold) = perfect_engine(7);
        let out = sort(
            &engine,
            &presented(&ids),
            SortCriterion::LatentScore,
            &SortStrategy::Rating {
                scale_min: 1,
                scale_max: 7,
            },
        )
        .unwrap();
        assert_eq!(out.calls, 7);
        // Perfect oracle quantizes exactly; with 7 distinct scores over 7
        // levels the ordering should broadly agree with gold (ties allowed).
        let tau =
            crowdprompt_metrics::rank::kendall_tau_b_rankings(&out.value.order, &gold).unwrap();
        assert!(tau > 0.8, "tau {tau}");
    }

    #[test]
    fn sort_then_insert_perfect_equals_single() {
        let (engine, ids, gold) = perfect_engine(10);
        let out = sort(
            &engine,
            &presented(&ids),
            SortCriterion::LatentScore,
            &SortStrategy::SortThenInsert,
        )
        .unwrap();
        assert_eq!(out.value.order, gold);
        assert_eq!(out.value.missing, 0);
    }

    #[test]
    fn sort_then_insert_reinserts_all_missing_items() {
        // A dropping oracle: claude-like drop rates on a lexicographic task.
        let mut w = WorldModel::new();
        let words = [
            "apple", "banana", "cherry", "date", "elder", "fig", "grape", "honey", "iris",
            "jasmine", "kiwi", "lemon", "mango", "nectar", "olive", "peach", "quince", "raisin",
            "squash", "tomato",
        ];
        let ids: Vec<ItemId> = words
            .iter()
            .map(|word| {
                let id = w.add_item(*word);
                w.set_sort_key(id, *word);
                id
            })
            .collect();
        let gold = w.gold_ranking_by_key(&ids);
        let corpus = Corpus::from_world(&w, &ids);
        let mut profile = ModelProfile::claude2_like();
        // Crank the drop rate so omissions are certain in a 20-item list.
        profile.noise.sort_drop_rate = 0.2;
        profile.noise.sort_drop_ref_len = 20;
        let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(w), 11));
        let engine = Engine::new(Arc::new(LlmClient::new(llm)), corpus);
        let mut presented = ids.clone();
        presented.reverse();
        let out = sort(
            &engine,
            &presented,
            SortCriterion::Lexicographic,
            &SortStrategy::SortThenInsert,
        )
        .unwrap();
        assert!(out.value.missing > 0, "drop rate should cause omissions");
        // Every requested item is present exactly once.
        let mut sorted_ids = out.value.order.clone();
        sorted_ids.sort_unstable();
        let mut expect = ids.clone();
        expect.sort_unstable();
        assert_eq!(sorted_ids, expect);
        // And the insertion should keep quality high.
        let tau =
            crowdprompt_metrics::rank::kendall_tau_b_rankings(&out.value.order, &gold).unwrap();
        assert!(tau > 0.9, "tau {tau}");
    }

    #[test]
    fn bucket_then_compare_perfect_oracle() {
        let (engine, ids, gold) = perfect_engine(10);
        let out = sort(
            &engine,
            &presented(&ids),
            SortCriterion::LatentScore,
            &SortStrategy::BucketThenCompare { buckets: 4 },
        )
        .unwrap();
        assert_eq!(out.value.order, gold);
        // Coarse pass is n calls; fine pass adds within-bucket comparisons.
        assert!(out.calls >= 10);
    }

    #[test]
    fn pairwise_batched_matches_pairwise_under_no_noise() {
        let (engine, ids, gold) = perfect_engine(8);
        let out = sort(
            &engine,
            &presented(&ids),
            SortCriterion::LatentScore,
            &SortStrategy::PairwiseBatched { batch_size: 5 },
        )
        .unwrap();
        assert_eq!(out.value.order, gold);
        // 28 comparisons in batches of 5 -> 6 calls instead of 28.
        assert_eq!(out.calls, 6);
    }

    #[test]
    fn batching_reduces_tokens_vs_unbatched() {
        let (engine, ids, _) = perfect_engine(10);
        let unbatched = sort(
            &engine,
            &ids,
            SortCriterion::LatentScore,
            &SortStrategy::Pairwise,
        )
        .unwrap();
        let batched = sort(
            &engine,
            &ids,
            SortCriterion::LatentScore,
            &SortStrategy::PairwiseBatched { batch_size: 9 },
        )
        .unwrap();
        assert!(batched.calls < unbatched.calls / 4);
        assert!(batched.usage.prompt_tokens < unbatched.usage.prompt_tokens);
    }

    #[test]
    fn chunked_merge_perfect_oracle_exact() {
        let (engine, ids, gold) = perfect_engine(23);
        let out = sort(
            &engine,
            &presented(&ids),
            SortCriterion::LatentScore,
            &SortStrategy::ChunkedMerge { chunk_size: 6 },
        )
        .unwrap();
        assert_eq!(out.value.order, gold);
        // 4 chunk prompts + merge comparisons.
        assert!(out.calls > 4);
        assert!(out.calls < 23 * 22 / 2, "far fewer than all-pairs");
    }

    #[test]
    fn chunked_merge_handles_oversized_lists_that_one_prompt_cannot() {
        // A tiny context window: the whole list cannot fit in one prompt,
        // but chunks of 8 can.
        let mut w = WorldModel::new();
        let ids: Vec<ItemId> = (0..60)
            .map(|i| {
                let id = w.add_item(format!("record-{i:03}"));
                w.set_score(id, i as f64 / 60.0);
                w.set_salience(id, 1.0);
                id
            })
            .collect();
        let gold = w.gold_ranking_by_score(&ids);
        let corpus = Corpus::from_world(&w, &ids);
        let profile = ModelProfile::perfect().with_context_window(220);
        let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(w), 9));
        let engine = Engine::new(Arc::new(LlmClient::new(llm)), corpus);
        // One prompt: refused by the window.
        let single = sort(
            &engine,
            &ids,
            SortCriterion::LatentScore,
            &SortStrategy::SinglePrompt,
        );
        assert!(single.is_err(), "60 items cannot fit a 220-token window");
        // Chunked merge: succeeds and is exact.
        let merged = sort(
            &engine,
            &ids,
            SortCriterion::LatentScore,
            &SortStrategy::ChunkedMerge { chunk_size: 8 },
        )
        .unwrap();
        assert_eq!(merged.value.order, gold);
    }

    #[test]
    fn chunked_merge_is_complete_even_with_drops() {
        let mut w = WorldModel::new();
        let ids: Vec<ItemId> = (0..40)
            .map(|i| {
                let id = w.add_item(format!("word-{i:02}"));
                w.set_sort_key(id, format!("word-{i:02}"));
                id
            })
            .collect();
        let corpus = Corpus::from_world(&w, &ids);
        let mut profile = ModelProfile::claude2_like();
        profile.noise.sort_drop_rate = 0.3;
        profile.noise.sort_drop_ref_len = 10;
        let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(w), 5));
        let engine = Engine::new(Arc::new(LlmClient::new(llm)), corpus);
        let out = sort(
            &engine,
            &ids,
            SortCriterion::Lexicographic,
            &SortStrategy::ChunkedMerge { chunk_size: 10 },
        )
        .unwrap();
        assert!(out.value.missing > 0, "drops expected");
        let mut sorted = out.value.order.clone();
        sorted.sort_unstable();
        let mut expected = ids.clone();
        expected.sort_unstable();
        assert_eq!(sorted, expected, "every item survives the merge");
    }

    #[test]
    fn pairwise_costs_more_than_rating() {
        let (engine, ids, _) = perfect_engine(10);
        let pw = sort(
            &engine,
            &ids,
            SortCriterion::LatentScore,
            &SortStrategy::Pairwise,
        )
        .unwrap();
        let rt = sort(
            &engine,
            &ids,
            SortCriterion::LatentScore,
            &SortStrategy::Rating {
                scale_min: 1,
                scale_max: 7,
            },
        )
        .unwrap();
        assert!(pw.usage.total() > rt.usage.total());
        assert!(pw.calls > rt.calls);
    }

    #[test]
    fn degenerate_inputs() {
        let (engine, ids, _) = perfect_engine(3);
        let out = sort(
            &engine,
            &ids[..1],
            SortCriterion::LatentScore,
            &SortStrategy::Pairwise,
        )
        .unwrap();
        assert_eq!(out.value.order, &ids[..1]);
        assert_eq!(out.calls, 0);
        let empty: Vec<ItemId> = Vec::new();
        let out = sort(
            &engine,
            &empty,
            SortCriterion::LatentScore,
            &SortStrategy::SinglePrompt,
        )
        .unwrap();
        assert!(out.value.order.is_empty());
    }
}
