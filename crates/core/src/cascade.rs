//! Multi-model routing (§3.5): "determine which LLM to ask at each step, to
//! ensure a given accuracy overall, while keeping costs low."
//!
//! [`run_cascade`] is FrugalGPT-style tiering: poll the cheapest model
//! first and escalate to pricier tiers only the items whose vote margin is
//! not confident. (The section's other strategy, CrowdScreen-style
//! sequential asking, runs on one engine and is
//! [`FilterStrategy::Sequential`](crate::ops::filter::FilterStrategy::Sequential).)
//!
//! The cascade is the one strategy that spans engines, which is why it is
//! a function over borrowed engines and not a plan node: an [`Engine`] has
//! one client, and a `Query` plans against one engine. Each tier is
//! therefore an engine the caller already owns — a session's, or a
//! tenant's handle from `Server::engine_for` — and its polls run under
//! that engine's budget, failure policy, deadline, trace and leases.
//! Escalating past a tier that is down is that policy at work, not a
//! cascade feature: under [`FailurePolicy::Degrade`](crate::FailurePolicy)
//! the tier's lost votes leave their items without a margin, so they
//! escalate; under `FailFast` the tier's error is the cascade's.

use crowdprompt_oracle::task::TaskDescriptor;

use crate::error::EngineError;
use crate::exec::Engine;
use crate::ops::filter::{Ballot, Draw, Poll};
use crate::outcome::{CostMeter, Outcome};

/// One tier of a cascade: the engine to poll and how to poll it.
#[derive(Clone, Copy)]
pub struct CascadeTier<'e> {
    /// The tier's engine (its client is the tier's model).
    pub engine: &'e Engine,
    /// Votes to collect from this tier before judging confidence.
    pub votes: u32,
    /// Sampling temperature for decorrelating those votes, in hundredths.
    pub temperature_pct: u8,
}

/// Per-item result of a cascade run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascadeVerdict {
    /// The final answer ("no" for an item no tier could answer; its
    /// `votes` is then 0 and the last tier's engine holds the salvage note).
    pub answer: bool,
    /// Index of the deepest tier consulted.
    pub deepest_tier: usize,
    /// Total votes collected across tiers.
    pub votes: u32,
}

/// Answer a batch of yes/no tasks over `tiers` (cheapest first), returning
/// verdicts in task order.
///
/// The batch escalates *tier by tier*: every vote for every unresolved task
/// goes through the tier engine's dispatcher as one fan-out. A task settles
/// at the first tier where `|yes − no| / votes asked` reaches `margin` (in
/// `[0, 1]`; `0.6` accepts a 4-to-1 vote) — a lost vote counts against the
/// margin, so a task whose every vote was lost always escalates — and at
/// the last tier regardless.
pub fn run_cascade(
    tiers: &[CascadeTier<'_>],
    tasks: Vec<TaskDescriptor>,
    margin: f64,
) -> Result<Outcome<Vec<CascadeVerdict>>, EngineError> {
    let Some(last) = tiers.len().checked_sub(1) else {
        return Err(EngineError::InvalidInput(
            "a cascade needs at least one tier".into(),
        ));
    };
    let margin = margin.clamp(0.0, 1.0);
    let mut meter = CostMeter::new();
    let mut verdicts = vec![
        CascadeVerdict {
            answer: false,
            deepest_tier: 0,
            votes: 0,
        };
        tasks.len()
    ];
    let mut open: Vec<usize> = (0..tasks.len()).collect();
    for (t, tier) in tiers.iter().enumerate() {
        if open.is_empty() {
            break;
        }
        let votes = tier.votes.max(1);
        let draw = Draw::Sampled {
            votes,
            temperature_pct: tier.temperature_pct,
            offset: 0,
        };
        let mut poll = Poll::new(tier.engine, "cascade", 1, meter);
        let mut ballot = Ballot::new(tasks.len());
        poll.round(&mut ballot, &open, |index| tasks[index].clone(), draw)?;
        let asked = open.len();
        open.retain(|&index| {
            let (yes, counted) = ballot.votes(index);
            let verdict = &mut verdicts[index];
            verdict.deepest_tier = t;
            verdict.votes += counted;
            let confident = f64::from(yes.abs_diff(counted - yes)) / f64::from(votes) >= margin;
            // Deciding also clears the tier's loss note for an item that
            // kept at least one vote.
            let decided = poll.decide(&ballot, index);
            if confident || t == last {
                verdict.answer = decided == Some(true);
            }
            !confident
        });
        meter = poll.finish(asked);
    }
    Ok(meter.into_outcome(verdicts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::ops::filter::{filter, FilterStrategy};
    use crowdprompt_oracle::model::{ModelProfile, NoiseProfile};
    use crowdprompt_oracle::sim::SimulatedLlm;
    use crowdprompt_oracle::world::{ItemId, WorldModel};
    use crowdprompt_oracle::LlmClient;
    use std::sync::Arc;

    fn world_with_flags(n: usize) -> (WorldModel, Vec<ItemId>) {
        let mut w = WorldModel::new();
        let ids = (0..n)
            .map(|i| {
                let id = w.add_item(format!("claim {i}"));
                w.set_flag(id, "valid", i % 2 == 0);
                id
            })
            .collect();
        (w, ids)
    }

    fn engine_with_accuracy(
        world: &WorldModel,
        ids: &[ItemId],
        accuracy: f64,
        price_mult: f64,
        seed: u64,
    ) -> Engine {
        let mut profile = ModelProfile::gpt35_like().with_noise(NoiseProfile {
            check_accuracy: accuracy,
            malformed_rate: 0.0,
            ..NoiseProfile::perfect()
        });
        profile.pricing =
            crowdprompt_oracle::Pricing::new(0.0002 * price_mult, 0.0004 * price_mult);
        profile.name = format!("tier-{price_mult}");
        let llm = SimulatedLlm::new(profile, Arc::new(world.clone()), seed);
        Engine::new(
            Arc::new(LlmClient::new(Arc::new(llm)).without_cache()),
            Corpus::from_world(world, ids),
        )
    }

    fn checks(ids: &[ItemId]) -> Vec<TaskDescriptor> {
        ids.iter()
            .map(|id| TaskDescriptor::CheckPredicate {
                item: *id,
                predicate: "valid".into(),
            })
            .collect()
    }

    fn tier(engine: &Engine, votes: u32) -> CascadeTier<'_> {
        CascadeTier {
            engine,
            votes,
            temperature_pct: 100,
        }
    }

    #[test]
    fn confident_cheap_tier_never_escalates() {
        let (w, ids) = world_with_flags(10);
        let cheap = engine_with_accuracy(&w, &ids, 1.0, 1.0, 1);
        let pricey = engine_with_accuracy(&w, &ids, 1.0, 100.0, 2);
        let out = run_cascade(&[tier(&cheap, 3), tier(&pricey, 3)], checks(&ids), 0.6).unwrap();
        for (v, (i, _)) in out.value.iter().zip(ids.iter().enumerate()) {
            assert_eq!(v.deepest_tier, 0, "perfect cheap tier suffices");
            assert_eq!(v.answer, i % 2 == 0);
        }
        assert_eq!(out.calls, 30, "three cheap votes per item and nothing else");
    }

    #[test]
    fn unreliable_cheap_tier_escalates_and_recovers_accuracy() {
        let (w, ids) = world_with_flags(40);
        // A coin-flip cheap tier and an excellent expensive tier.
        let cheap = engine_with_accuracy(&w, &ids, 0.55, 1.0, 3);
        let pricey = engine_with_accuracy(&w, &ids, 0.98, 50.0, 4);
        let out = run_cascade(&[tier(&cheap, 5), tier(&pricey, 3)], checks(&ids), 0.8).unwrap();
        let escalated = out.value.iter().filter(|v| v.deepest_tier == 1).count();
        assert!(
            escalated > 10,
            "coin-flip tier should often escalate: {escalated}"
        );
        let correct = out
            .value
            .iter()
            .enumerate()
            .filter(|(i, v)| v.answer == (i % 2 == 0))
            .count();
        assert!(
            correct >= 34,
            "cascade accuracy should approach the strong tier: {correct}/40"
        );
    }

    #[test]
    fn cascade_cheaper_than_always_asking_expensive_tier() {
        let (w, ids) = world_with_flags(30);
        let cheap = engine_with_accuracy(&w, &ids, 0.9, 1.0, 5);
        let pricey = engine_with_accuracy(&w, &ids, 0.98, 50.0, 6);
        let cascade_out =
            run_cascade(&[tier(&cheap, 3), tier(&pricey, 3)], checks(&ids), 0.6).unwrap();
        // All-expensive comparison: the same three votes, every item.
        let all_pricey = FilterStrategy::MajorityVote {
            votes: 3,
            temperature_pct: 100,
        };
        let expensive_cost = filter(&pricey, &ids, "valid", all_pricey).unwrap().cost_usd;
        assert!(
            cascade_out.cost_usd < expensive_cost * 0.6,
            "cascade ${:.4} should undercut all-expensive ${:.4}",
            cascade_out.cost_usd,
            expensive_cost
        );
    }

    #[test]
    fn empty_cascade_is_invalid_input() {
        let (_, ids) = world_with_flags(1);
        assert!(matches!(
            run_cascade(&[], checks(&ids), 0.6),
            Err(EngineError::InvalidInput(_))
        ));
    }
}
