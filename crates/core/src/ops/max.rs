//! Max-finding (paper §3.2, after Khan et al.'s dynamic max discovery and
//! Guo et al.'s "So who won?").

use crowdprompt_oracle::task::SortCriterion;
use crowdprompt_oracle::world::ItemId;

use crate::error::EngineError;
use crate::exec::Engine;
use crate::ops::bill::{pair_count, Ask, Line};
use crate::ops::judge;
use crate::outcome::{CostMeter, Outcome};

/// How to find the maximum item under the criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaxStrategy {
    /// Single-elimination tournament of pairwise comparisons: n-1 calls,
    /// but one bad comparison can eliminate the true max.
    Tournament,
    /// Khan-style hybrid: cheap ratings bucketize all items, then a
    /// round-robin playoff among the top-rated items (with consistency
    /// repair) picks the winner. More accurate than a tournament at similar
    /// cost when the rating stage prunes well.
    RateThenPlayoff {
        /// Rating scale granularity.
        buckets: u8,
        /// How many top items enter the playoff.
        playoff_size: usize,
    },
}

impl MaxStrategy {
    /// Human-readable strategy name (used by `EXPLAIN` and the optimizer).
    pub fn name(&self) -> String {
        match self {
            MaxStrategy::Tournament => "tournament".to_owned(),
            MaxStrategy::RateThenPlayoff {
                buckets,
                playoff_size,
            } => format!("rate-then-playoff-{buckets}-{playoff_size}"),
        }
    }

    /// What finding the max of `n` items asks of the model (a degenerate
    /// max is answered without it).
    pub(crate) fn bill(&self, n: usize, criterion: SortCriterion) -> Vec<Line> {
        if n < 2 {
            return Vec::new();
        }
        let compare = Ask::Compare { criterion };
        match *self {
            MaxStrategy::Tournament => vec![Line::new(n - 1, compare)],
            MaxStrategy::RateThenPlayoff {
                buckets,
                playoff_size,
            } => {
                let rate = Ask::Rate {
                    criterion,
                    scale_max: buckets.max(2),
                };
                vec![
                    Line::new(n, rate),
                    Line::new(pair_count(playoff_size.max(2).min(n)), compare),
                ]
            }
        }
    }
}

/// Find the item ranking first under the criterion.
pub fn find_max(
    engine: &Engine,
    items: &[ItemId],
    criterion: SortCriterion,
    strategy: MaxStrategy,
) -> Result<Outcome<ItemId>, EngineError> {
    if items.is_empty() {
        return Err(EngineError::InvalidInput("find_max over no items".into()));
    }
    if items.len() == 1 {
        return Ok(Outcome::free(items[0]));
    }
    match strategy {
        MaxStrategy::Tournament => tournament(engine, items, criterion),
        MaxStrategy::RateThenPlayoff {
            buckets,
            playoff_size,
        } => rate_then_playoff(engine, items, criterion, buckets, playoff_size),
    }
}

fn tournament(
    engine: &Engine,
    items: &[ItemId],
    criterion: SortCriterion,
) -> Result<Outcome<ItemId>, EngineError> {
    let mut meter = CostMeter::new();
    let mut round: Vec<ItemId> = items.to_vec();
    while round.len() > 1 {
        let pairs: Vec<(ItemId, ItemId)> = round.chunks_exact(2).map(|p| (p[0], p[1])).collect();
        let left_wins = judge::compare(engine, &pairs, criterion, &mut meter)?;
        let mut next: Vec<ItemId> = pairs
            .iter()
            .zip(left_wins)
            .map(|(&(left, right), left_wins)| if left_wins { left } else { right })
            .collect();
        // An odd item out gets a bye.
        next.extend(round.chunks_exact(2).remainder());
        round = next;
    }
    Ok(meter.into_outcome(round[0]))
}

fn rate_then_playoff(
    engine: &Engine,
    items: &[ItemId],
    criterion: SortCriterion,
    buckets: u8,
    playoff_size: usize,
) -> Result<Outcome<ItemId>, EngineError> {
    let mut meter = CostMeter::new();
    // Coarse: rate everything.
    let rated = judge::rate(engine, items, 1, buckets.max(2), criterion, &mut meter)?;
    let finalists: Vec<ItemId> = judge::best_first(rated, criterion)
        .into_iter()
        .take(playoff_size.max(2))
        .map(|(_, id)| id)
        .collect();
    // Fine: round-robin among finalists with consistency repair.
    let ranked = judge::rank_repaired(engine, &finalists, criterion, &mut meter)?;
    Ok(meter.into_outcome(ranked[0]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::corpus::Corpus;
    use crowdprompt_oracle::model::{ModelProfile, NoiseProfile};
    use crowdprompt_oracle::sim::SimulatedLlm;
    use crowdprompt_oracle::world::WorldModel;
    use crowdprompt_oracle::LlmClient;
    use std::sync::Arc;

    fn setup(n: usize, noise: NoiseProfile, seed: u64) -> (Engine, Vec<ItemId>, ItemId) {
        let mut w = WorldModel::new();
        let mut ids = Vec::new();
        for i in 0..n {
            let id = w.add_item(format!("candidate {i}"));
            w.set_score(id, i as f64 / n as f64);
            ids.push(id);
        }
        let best = *ids.last().unwrap();
        let corpus = Corpus::from_world(&w, &ids);
        let profile = ModelProfile::gpt35_like().with_noise(noise);
        let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(w), seed));
        let engine =
            Engine::new(Arc::new(LlmClient::new(llm)), corpus).with_budget(Budget::Unlimited);
        (engine, ids, best)
    }

    #[test]
    fn tournament_perfect_finds_max() {
        let (engine, ids, best) = setup(16, NoiseProfile::perfect(), 1);
        let out = find_max(
            &engine,
            &ids,
            SortCriterion::LatentScore,
            MaxStrategy::Tournament,
        )
        .unwrap();
        assert_eq!(out.value, best);
        assert_eq!(out.calls, 15);
    }

    #[test]
    fn tournament_handles_odd_sizes() {
        let (engine, ids, best) = setup(7, NoiseProfile::perfect(), 2);
        let out = find_max(
            &engine,
            &ids,
            SortCriterion::LatentScore,
            MaxStrategy::Tournament,
        )
        .unwrap();
        assert_eq!(out.value, best);
        assert_eq!(out.calls, 6);
    }

    #[test]
    fn playoff_perfect_finds_max() {
        let (engine, ids, best) = setup(20, NoiseProfile::perfect(), 3);
        let out = find_max(
            &engine,
            &ids,
            SortCriterion::LatentScore,
            MaxStrategy::RateThenPlayoff {
                buckets: 7,
                playoff_size: 4,
            },
        )
        .unwrap();
        assert_eq!(out.value, best);
    }

    #[test]
    fn playoff_beats_tournament_under_noise() {
        // Noisy comparator; run over many seeds and compare hit rates.
        let noise = NoiseProfile {
            compare_sigma: 0.3,
            rate_sigma: 0.08,
            position_bias: 0.0,
            ..NoiseProfile::perfect()
        };
        let mut tournament_hits = 0;
        let mut playoff_hits = 0;
        for seed in 0..30 {
            let (engine, ids, best) = setup(16, noise.clone(), seed);
            let t = find_max(
                &engine,
                &ids,
                SortCriterion::LatentScore,
                MaxStrategy::Tournament,
            )
            .unwrap();
            if t.value == best {
                tournament_hits += 1;
            }
            let p = find_max(
                &engine,
                &ids,
                SortCriterion::LatentScore,
                MaxStrategy::RateThenPlayoff {
                    buckets: 7,
                    playoff_size: 4,
                },
            )
            .unwrap();
            if p.value == best {
                playoff_hits += 1;
            }
        }
        assert!(
            playoff_hits >= tournament_hits,
            "playoff {playoff_hits}/30 vs tournament {tournament_hits}/30"
        );
    }

    #[test]
    fn degenerate_inputs() {
        let (engine, ids, _) = setup(3, NoiseProfile::perfect(), 4);
        assert!(find_max(
            &engine,
            &[],
            SortCriterion::LatentScore,
            MaxStrategy::Tournament
        )
        .is_err());
        let out = find_max(
            &engine,
            &ids[..1],
            SortCriterion::LatentScore,
            MaxStrategy::Tournament,
        )
        .unwrap();
        assert_eq!(out.value, ids[0]);
        assert_eq!(out.calls, 0);
    }
}
