//! Top-k selection: a coarse rating shortlist followed by fine pairwise
//! ranking of the shortlist (§3.2's coarse→fine pattern applied to top-k).

use crowdprompt_oracle::task::SortCriterion;
use crowdprompt_oracle::world::ItemId;

use crate::error::EngineError;
use crate::exec::Engine;
use crate::ops::bill::{pair_count, Ask, Line};
use crate::ops::judge;
use crate::outcome::{CostMeter, Outcome};

/// The shortlist is rated on `1..=SHORTLIST_SCALE_MAX` (the paper's
/// seven-point scale).
const SHORTLIST_SCALE_MAX: u8 = 7;

/// How many of `n` rated items enter the fine ranking for a top-`k` with
/// the given `shortlist_factor` — the operator's and the bill's one copy.
/// Saturating: the factor is caller input.
fn shortlist_len(k: usize, shortlist_factor: usize, n: usize) -> usize {
    k.saturating_mul(shortlist_factor.max(1)).min(n)
}

/// What a top-`k` over `n` items asks of the model: nothing for an empty
/// answer, every pair when everything qualifies, else `n` ratings and every
/// pair of the shortlist.
pub(crate) fn bill(
    n: usize,
    criterion: SortCriterion,
    k: usize,
    shortlist_factor: usize,
) -> Vec<Line> {
    let compare = Ask::Compare { criterion };
    if k == 0 || n == 0 {
        Vec::new()
    } else if n <= k {
        vec![Line::new(pair_count(n), compare)]
    } else {
        let rate = Ask::Rate {
            criterion,
            scale_max: SHORTLIST_SCALE_MAX,
        };
        let shortlist = shortlist_len(k, shortlist_factor, n);
        vec![
            Line::new(n, rate),
            Line::new(pair_count(shortlist), compare),
        ]
    }
}

/// Return the top `k` items under the criterion, best first.
///
/// Ratings shortlist `shortlist_factor * k` candidates cheaply; the
/// shortlist is then ranked exactly with pairwise comparisons and
/// consistency repair. When everything qualifies (`items.len() <= k`) the
/// items are ranked without a rating pass.
pub fn top_k(
    engine: &Engine,
    items: &[ItemId],
    criterion: SortCriterion,
    k: usize,
    shortlist_factor: usize,
) -> Result<Outcome<Vec<ItemId>>, EngineError> {
    if k == 0 {
        return Ok(Outcome::free(Vec::new()));
    }
    let mut meter = CostMeter::new();
    let candidates: Vec<ItemId> = if items.len() <= k {
        items.to_vec()
    } else {
        // Coarse shortlist by rating.
        let rated = judge::rate(engine, items, 1, SHORTLIST_SCALE_MAX, criterion, &mut meter)?;
        judge::best_first(rated, criterion)
            .into_iter()
            .take(shortlist_len(k, shortlist_factor, items.len()))
            .map(|(_, id)| id)
            .collect()
    };
    // Fine ranking of the candidates.
    let mut ranked = judge::rank_repaired(engine, &candidates, criterion, &mut meter)?;
    ranked.truncate(k);
    Ok(meter.into_outcome(ranked))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crowdprompt_oracle::model::{ModelProfile, NoiseProfile};
    use crowdprompt_oracle::sim::SimulatedLlm;
    use crowdprompt_oracle::world::WorldModel;
    use crowdprompt_oracle::LlmClient;
    use std::sync::Arc;

    fn setup(n: usize) -> (Engine, Vec<ItemId>) {
        let mut w = WorldModel::new();
        let ids: Vec<ItemId> = (0..n)
            .map(|i| {
                let id = w.add_item(format!("entry {i:02}"));
                w.set_score(id, i as f64 / n as f64);
                id
            })
            .collect();
        let corpus = Corpus::from_world(&w, &ids);
        let llm = Arc::new(SimulatedLlm::new(
            ModelProfile::gpt35_like().with_noise(NoiseProfile::perfect()),
            Arc::new(w),
            41,
        ));
        (Engine::new(Arc::new(LlmClient::new(llm)), corpus), ids)
    }

    #[test]
    fn perfect_top_k_is_exact() {
        let (engine, ids) = setup(20);
        let out = top_k(&engine, &ids, SortCriterion::LatentScore, 3, 2).unwrap();
        // Highest scores are the last ids.
        assert_eq!(out.value, vec![ids[19], ids[18], ids[17]]);
    }

    #[test]
    fn k_zero_is_free() {
        let (engine, ids) = setup(5);
        let out = top_k(&engine, &ids, SortCriterion::LatentScore, 0, 3).unwrap();
        assert!(out.value.is_empty());
        assert_eq!(out.calls, 0);
    }

    #[test]
    fn k_geq_n_ranks_everything() {
        let (engine, ids) = setup(4);
        let out = top_k(&engine, &ids, SortCriterion::LatentScore, 10, 3).unwrap();
        assert_eq!(out.value.len(), 4);
        assert_eq!(out.value[0], ids[3]);
    }

    #[test]
    fn shortlist_caps_fine_stage_cost() {
        let (engine, ids) = setup(30);
        let narrow = top_k(&engine, &ids, SortCriterion::LatentScore, 2, 2).unwrap();
        let wide = top_k(&engine, &ids, SortCriterion::LatentScore, 2, 6).unwrap();
        assert!(narrow.calls < wide.calls);
        assert_eq!(narrow.value, wide.value, "both find the same top-2 here");
    }

    #[test]
    fn an_overflowing_shortlist_factor_ranks_everything() {
        assert_eq!(shortlist_len(2, usize::MAX, 9), 9);
        assert_eq!(shortlist_len(2, 0, 9), 2, "a zero factor means one");
        let (engine, ids) = setup(9);
        let out = top_k(&engine, &ids, SortCriterion::LatentScore, 2, usize::MAX).unwrap();
        assert_eq!(out.value, vec![ids[8], ids[7]]);
        // Nine ratings, then all 36 pairs of the nine-item "shortlist" (the
        // bill, on the same length, says exactly that: `plan::estimate`'s
        // ledger table).
        assert_eq!(out.calls, 9 + 36);
        assert_eq!(engine.client().ledger().calls(), out.calls);
    }
}
