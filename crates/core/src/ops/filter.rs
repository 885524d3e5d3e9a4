//! Filtering: keep the items satisfying a predicate.
//!
//! §3.5's quality-control ideas apply directly here: a single per-item check
//! is cheap but noisy; majority voting over repeated samples trades cost for
//! accuracy (CrowdScreen-style); sequential asking, proxy gating (§3.4) and
//! self-verification spend the extra calls only where they matter.
//!
//! Every strategy is a consumer of one crate-private step — `Poll::round`:
//! ask these unresolved items once more, settle each answer under the
//! engine's [`FailurePolicy`](crate::exec::FailurePolicy), count it on a
//! `Ballot`. Yes/no votes are dispatched and tallied nowhere else in the
//! crate.

use crowdprompt_oracle::task::TaskDescriptor;
use crowdprompt_oracle::world::ItemId;

use crate::error::EngineError;
use crate::exec::{Engine, RunSpec, Settle};
use crate::extract;
use crate::ops::bill::{Ask, Line};
use crate::outcome::{CostMeter, Outcome};
use crate::proxy::ProxyModel;

/// How to filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterStrategy {
    /// One check per item.
    Single,
    /// An odd number of independent samples per item at the given
    /// temperature, majority wins.
    MajorityVote {
        /// Number of samples (should be odd).
        votes: u32,
        /// Sampling temperature for decorrelation (in hundredths, e.g. 70
        /// for 0.7 — kept integral so the strategy stays `Copy + Eq`).
        temperature_pct: u8,
    },
    /// One check per item, escalating to a majority vote only when the
    /// model's answer confidence (its logprob analogue) falls below the
    /// threshold — §3.5's "less confidence from each LLM" signal, spent
    /// only where it matters.
    ConfidenceGated {
        /// Minimum confidence (percent, e.g. 70 for 0.70) to accept the
        /// single answer.
        min_confidence_pct: u8,
        /// Votes for the escalation pass (should be odd).
        votes: u32,
    },
    /// CrowdScreen-style sequential asking: one more vote per unresolved
    /// item per round, stopping an item as soon as one answer leads by
    /// `lead` votes — "data items for which there is more disagreement …
    /// are more valuable to spend money on". Under one symmetric per-call
    /// accuracy `a`, the log-odds stopping rule `|k·ln(a/(1−a))| ≥ T` *is*
    /// a vote lead `k ≥ ⌈T / ln(a/(1−a))⌉`. An item still short of the lead
    /// after `max_votes` is decided by plain majority (a tie is "no").
    Sequential {
        /// Vote lead that settles an item (at least 1).
        lead: u32,
        /// Votes per item before giving up on a lead (at least `lead`).
        max_votes: u32,
        /// Sampling temperature, in hundredths.
        temperature_pct: u8,
    },
    /// §3.4's LLM-trained proxy: the LLM labels the first `train` items
    /// (those labels are their verdicts), a free nearest-centroid
    /// [`ProxyModel`] is fitted to them and decides every remaining item it
    /// is confident about, and the LLM is asked only about the uncertain
    /// rest. A one-sided training sample fits no proxy, and the whole rest
    /// goes to the LLM.
    ProxyGated {
        /// Leading items the LLM labels as the training sample (at least 2).
        train: usize,
        /// Minimum proxy confidence (percent of the centroid similarity
        /// margin) to accept its decision without the LLM.
        min_confidence_pct: u8,
    },
    /// Ask → verify → re-sample (§3.5's "have the LLM verify its own
    /// response as a followup", made into a repair loop): each round the
    /// verifier is shown every open item's answer; a rejected answer is
    /// withdrawn and re-sampled at temperature 1. The last answer stands
    /// when `max_rounds` pass without approval.
    Verified {
        /// Ask/verify rounds per item (at least 1).
        max_rounds: u32,
    },
}

/// Share of items assumed to need a strategy's expensive leg (the
/// confidence gate's escalation vote, sequential asking past its lead, the
/// proxy's uncertain remainder, a rejected verification) — the planner's
/// one guess where the true share is only known after the run.
const ESCALATE_SHARE: f64 = 0.3;

fn fraction(pct: u8) -> f64 {
    f64::from(pct) / 100.0
}

impl FilterStrategy {
    /// Default planner selectivity assumption: without a hint, a predicate
    /// is assumed to keep half of its input.
    pub const DEFAULT_SELECTIVITY: f64 = 0.5;

    /// Human-readable strategy name (used by `EXPLAIN` and the optimizer).
    pub fn name(&self) -> String {
        match self {
            FilterStrategy::Single => "single".to_owned(),
            FilterStrategy::MajorityVote { votes, .. } => format!("majority-vote-{votes}"),
            FilterStrategy::ConfidenceGated {
                min_confidence_pct,
                votes,
            } => format!("confidence-gated-{min_confidence_pct}-{votes}"),
            FilterStrategy::Sequential {
                lead, max_votes, ..
            } => format!("sequential-{lead}-of-{max_votes}"),
            FilterStrategy::ProxyGated {
                train,
                min_confidence_pct,
            } => format!("proxy-gated-{train}-{min_confidence_pct}"),
            FilterStrategy::Verified { max_rounds } => format!("verified-{max_rounds}"),
        }
    }

    /// Reject field values no run could honour, each with its own message.
    /// The planner calls this before anything is estimated or spent.
    pub(crate) fn validate(&self) -> Result<(), EngineError> {
        let problem = match *self {
            FilterStrategy::Sequential { lead: 0, .. } => "lead must be at least 1 vote".to_owned(),
            FilterStrategy::Sequential {
                lead, max_votes, ..
            } if max_votes < lead => {
                format!("max_votes ({max_votes}) can never reach a lead of {lead}")
            }
            FilterStrategy::ProxyGated { train, .. } if train < 2 => {
                format!("train ({train}) must be at least 2 items, one per class")
            }
            FilterStrategy::Verified { max_rounds: 0 } => {
                "max_rounds must be at least 1".to_owned()
            }
            _ => return Ok(()),
        };
        Err(EngineError::InvalidInput(format!(
            "filter strategy {}: {problem}",
            self.name()
        )))
    }

    /// Expected LLM calls per additional input item (planner cost hint),
    /// with 30 % of the items assumed to take the expensive leg. The
    /// proxy's training sample is a fixed cost and not counted here.
    pub fn calls_per_item(&self) -> f64 {
        match *self {
            FilterStrategy::Single => 1.0,
            FilterStrategy::MajorityVote { votes, .. } => f64::from(votes.max(1)),
            FilterStrategy::ConfidenceGated { votes, .. } => {
                1.0 + ESCALATE_SHARE * f64::from(votes.max(1))
            }
            FilterStrategy::Sequential {
                lead, max_votes, ..
            } => f64::from(lead) + ESCALATE_SHARE * f64::from(max_votes.saturating_sub(lead)),
            FilterStrategy::ProxyGated {
                min_confidence_pct, ..
            } => match min_confidence_pct {
                // A zero threshold refers nothing; one above the margin's
                // range refers everything.
                0 => 0.0,
                1..=100 => ESCALATE_SHARE,
                _ => 1.0,
            },
            // Each round is an ask and a verification.
            FilterStrategy::Verified { max_rounds } => {
                2.0 + ESCALATE_SHARE * 2.0 * f64::from(max_rounds.saturating_sub(1))
            }
        }
    }

    /// Whether this strategy's checks can ride packed multi-item prompts.
    /// The confidence gate cannot: it consumes the per-answer confidence
    /// signal, which a multi-answer response does not carry per item. Nor
    /// can verification: its second leg quotes one item's answer.
    pub fn packable(&self) -> bool {
        !matches!(
            self,
            FilterStrategy::ConfidenceGated { .. } | FilterStrategy::Verified { .. }
        )
    }

    /// What filtering `n` items at pack width `pack` asks of the model:
    /// packable strategies pay ⌈m/pack⌉ checks per pass over `m` items, the
    /// rest [`FilterStrategy::calls_per_item`] per item.
    pub(crate) fn bill(&self, n: usize, predicate: &str, pack: usize) -> Vec<Line> {
        let pack = if self.packable() { pack.max(1) } else { 1 };
        let pass = |m: usize| m.div_ceil(pack);
        let pass_over = |share: f64, m: usize| pass((m as f64 * share).ceil() as usize);
        let calls = match *self {
            FilterStrategy::Single => pass(n),
            FilterStrategy::MajorityVote { votes, .. } => pass(n) * votes.max(1) as usize,
            FilterStrategy::Sequential {
                lead, max_votes, ..
            } => {
                pass(n) * lead as usize
                    + pass_over(ESCALATE_SHARE, n) * max_votes.saturating_sub(lead) as usize
            }
            FilterStrategy::ProxyGated { train, .. } => {
                let train = train.min(n);
                pass(train) + pass_over(self.calls_per_item(), n - train)
            }
            FilterStrategy::ConfidenceGated { .. } | FilterStrategy::Verified { .. } => {
                (n as f64 * self.calls_per_item()).ceil() as usize
            }
        };
        vec![Line::new(calls, Ask::check(predicate)).packed(pack, n)]
    }
}

/// Filter `items` by `predicate`, returning the ids that pass, in input
/// order. Packs checks into multi-item prompts at the engine's configured
/// [`Engine::pack_width`].
pub fn filter(
    engine: &Engine,
    items: &[ItemId],
    predicate: &str,
    strategy: FilterStrategy,
) -> Result<Outcome<Vec<ItemId>>, EngineError> {
    filter_packed(engine, items, predicate, strategy, engine.pack_width())
}

/// [`filter`] at an explicit pack width (`1` = per-item dispatch). The plan
/// executor calls this with the planner's per-node width choice.
///
/// Under a degrade policy, items whose checks stay broken are quarantined
/// (dropped from the kept set) and noted for the plan layer instead of
/// failing the batch; see [`Engine::settle`].
pub fn filter_packed(
    engine: &Engine,
    items: &[ItemId],
    predicate: &str,
    strategy: FilterStrategy,
    pack: usize,
) -> Result<Outcome<Vec<ItemId>>, EngineError> {
    strategy.validate()?;
    let pack = if strategy.packable() { pack.max(1) } else { 1 };
    let n = items.len();
    let check = |index: usize| TaskDescriptor::CheckPredicate {
        item: items[index],
        predicate: predicate.to_owned(),
    };
    let mut open: Vec<usize> = (0..n).collect();
    let mut poll = Poll::new(engine, "filter", pack, CostMeter::new());
    let mut ballot = Ballot::new(n);
    // Verdicts reached off the ballot (a confident first answer, a proxy
    // decision); every other item is decided by its votes below.
    let mut verdict: Vec<Option<bool>> = vec![None; n];
    match strategy {
        FilterStrategy::Single => poll.round(&mut ballot, &open, check, Draw::Once)?,
        FilterStrategy::MajorityVote {
            votes,
            temperature_pct,
        } => {
            let draw = Draw::Sampled {
                votes: votes.max(1),
                temperature_pct,
                offset: 0,
            };
            poll.round(&mut ballot, &open, check, draw)?;
        }
        FilterStrategy::ConfidenceGated {
            min_confidence_pct,
            votes,
        } => {
            let threshold = fraction(min_confidence_pct);
            // First pass: one call per item, keeping the confident answers.
            let tasks = open.iter().map(|&index| check(index)).collect();
            let run = engine.run_outcome(RunSpec::tasks(tasks))?;
            run.meter_into(&mut poll.meter);
            let mut escalate: Vec<usize> = Vec::new();
            for (index, result) in run.item_results().enumerate() {
                let result = result.map_err(EngineError::clone);
                let Some(resp) = poll.settle.item(index, result)? else {
                    continue;
                };
                // A confident, parseable answer settles the item; anything
                // else the policy lets through (low confidence, or garbled
                // text when it degrades) escalates to the vote, which can
                // still save it.
                match poll.settle.item(index, extract::yes_no(&resp.text))? {
                    Some(answer) if resp.confidence.unwrap_or(1.0) >= threshold => {
                        verdict[index] = Some(answer);
                    }
                    _ => escalate.push(index),
                }
            }
            // Escalation pass: majority vote at temperature 1 on the rest.
            let draw = Draw::Sampled {
                votes: votes.max(1),
                temperature_pct: 100,
                offset: 0,
            };
            poll.round(&mut ballot, &escalate, check, draw)?;
        }
        FilterStrategy::Sequential {
            lead,
            max_votes,
            temperature_pct,
        } => {
            for offset in 0..max_votes {
                let draw = Draw::Sampled {
                    votes: 1,
                    temperature_pct,
                    offset,
                };
                poll.round(&mut ballot, &open, check, draw)?;
                open.retain(|&index| ballot.lead(index) < lead);
                if open.is_empty() {
                    break;
                }
            }
        }
        FilterStrategy::ProxyGated {
            train,
            min_confidence_pct,
        } => {
            let threshold = fraction(min_confidence_pct);
            let (sample, rest) = open.split_at(train.min(n));
            poll.round(&mut ballot, sample, check, Draw::Once)?;
            let text = |index: usize| engine.corpus().text(items[index]);
            let proxy = ProxyModel::fit(
                sample
                    .iter()
                    .filter_map(|&index| text(index).zip(ballot.verdict(index))),
            );
            // An item the proxy cannot speak for — no proxy, no text, low
            // confidence — is referred to the LLM (where a missing text
            // fails like any unknown item).
            let mut uncertain: Vec<usize> = Vec::new();
            for &index in rest {
                let decided = proxy
                    .as_ref()
                    .zip(text(index))
                    .map(|(proxy, text)| proxy.classify(text))
                    .filter(|(_, confidence)| *confidence >= threshold);
                match decided {
                    Some((keep, _)) => verdict[index] = Some(keep),
                    None => uncertain.push(index),
                }
            }
            poll.round(&mut ballot, &uncertain, check, Draw::Once)?;
        }
        FilterStrategy::Verified { max_rounds } => {
            let mut approval = Ballot::new(n);
            for round in 0..max_rounds {
                // A fresh sample each round (temperature 1 after the first).
                let draw = match round {
                    0 => Draw::Once,
                    offset => Draw::Sampled {
                        votes: 1,
                        temperature_pct: 100,
                        offset,
                    },
                };
                for &index in &open {
                    ballot.strike(index);
                    approval.strike(index);
                }
                poll.round(&mut ballot, &open, check, draw)?;
                let answered: Vec<usize> = open
                    .iter()
                    .copied()
                    .filter(|&index| ballot.verdict(index).is_some())
                    .collect();
                let verify = |index: usize| TaskDescriptor::Verify {
                    original: Box::new(check(index)),
                    proposed_answer: match ballot.verdict(index) {
                        Some(true) => "yes".to_owned(),
                        _ => "no".to_owned(),
                    },
                };
                poll.round(&mut approval, &answered, verify, Draw::Once)?;
                open.retain(|&index| approval.verdict(index) != Some(true));
                if open.is_empty() {
                    break;
                }
            }
        }
    }
    let kept = (0..n)
        .filter(|&index| verdict[index].or_else(|| poll.decide(&ballot, index)) == Some(true))
        .map(|index| items[index])
        .collect();
    Ok(poll.finish(n).into_outcome(kept))
}

/// How one [`Poll::round`] samples.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Draw {
    /// One ask per item at the engine's own temperature, sample 0; the
    /// round is admitted against the budget as a whole before any call.
    Once,
    /// `votes` samples per item at a temperature of `temperature_pct`
    /// hundredths, sample indices `offset..offset + votes`, each admitted
    /// as it runs.
    Sampled {
        votes: u32,
        temperature_pct: u8,
        offset: u32,
    },
}

/// One engine's yes/no polling: the dispatch, the policy-aware settling and
/// the cost metering every vote goes through.
pub(crate) struct Poll<'e> {
    engine: &'e Engine,
    pack: usize,
    settle: Settle<'e>,
    meter: CostMeter,
}

impl<'e> Poll<'e> {
    /// A poll on `engine` for operator `op` at pack width `pack`, adding
    /// its spend to `meter`.
    pub(crate) fn new(engine: &'e Engine, op: &'static str, pack: usize, meter: CostMeter) -> Self {
        Poll {
            engine,
            pack,
            settle: engine.settle(op),
            meter,
        }
    }

    /// Ask the items at indices `open` once more — `task_of(index)` is the
    /// item's yes/no task — and count every answer that survives the
    /// engine's failure policy on `ballot`. Per-item rounds go out as one
    /// pipelined dispatch; packed rounds as one dispatch per sample index,
    /// ⌈open/pack⌉ calls each.
    pub(crate) fn round(
        &mut self,
        ballot: &mut Ballot,
        open: &[usize],
        task_of: impl Fn(usize) -> TaskDescriptor,
        draw: Draw,
    ) -> Result<(), EngineError> {
        if open.is_empty() {
            return Ok(());
        }
        let tasks: Vec<TaskDescriptor> = open.iter().map(|&index| task_of(index)).collect();
        let (samples, temperature) = match draw {
            Draw::Once => return self.tally(ballot, open, RunSpec::packed(tasks, self.pack), 1),
            Draw::Sampled {
                votes,
                temperature_pct,
                offset,
            } => (offset..offset + votes, fraction(temperature_pct)),
        };
        if self.pack > 1 {
            return samples.into_iter().try_for_each(|sample| {
                let spec = RunSpec::packed_sampled(tasks.clone(), self.pack, temperature, sample);
                self.tally(ballot, open, spec, 1)
            });
        }
        let per_item = samples.len();
        let specs = tasks
            .iter()
            .flat_map(|task| samples.clone().map(move |s| (task.clone(), temperature, s)))
            .collect();
        self.tally(ballot, open, RunSpec::sampled(specs), per_item)
    }

    /// Run one dispatch whose answers come `per_item` to an open item.
    fn tally(
        &mut self,
        ballot: &mut Ballot,
        open: &[usize],
        spec: RunSpec,
        per_item: usize,
    ) -> Result<(), EngineError> {
        let run = self.engine.run_outcome(spec)?;
        run.meter_into(&mut self.meter);
        for (k, answer) in run.answers.into_iter().enumerate() {
            ballot.cast(&mut self.settle, open[k / per_item], answer)?;
        }
        Ok(())
    }

    /// The item's verdict off `ballot`; `None` leaves it lost under the
    /// last error that cost it a vote.
    pub(crate) fn decide(&mut self, ballot: &Ballot, index: usize) -> Option<bool> {
        let verdict = ballot.verdict(index);
        if verdict.is_some() {
            self.settle.recovered(index);
        }
        verdict
    }

    /// Close the poll over `total` items, leaving the degraded-run note (if
    /// any) on the engine and handing the meter back.
    pub(crate) fn finish(self, total: usize) -> CostMeter {
        self.settle.finish(total);
        self.meter
    }
}

/// Yes/no vote tallies by item index.
pub(crate) struct Ballot {
    yes: Vec<u32>,
    counted: Vec<u32>,
}

impl Ballot {
    pub(crate) fn new(items: usize) -> Self {
        Ballot {
            yes: vec![0; items],
            counted: vec![0; items],
        }
    }

    /// Count one vote for the item at `index`; a vote the policy lets fail
    /// is simply not counted, so it harms only its own item.
    fn cast(
        &mut self,
        settle: &mut Settle<'_>,
        index: usize,
        answer: Result<String, EngineError>,
    ) -> Result<(), EngineError> {
        if let Some(yes) = settle.item(index, answer.and_then(|t| extract::yes_no(&t)))? {
            self.counted[index] += 1;
            self.yes[index] += u32::from(yes);
        }
        Ok(())
    }

    /// `(yes, counted)` votes for the item.
    pub(crate) fn votes(&self, index: usize) -> (u32, u32) {
        (self.yes[index], self.counted[index])
    }

    /// The majority verdict over the votes that survived (a tie is "no"),
    /// or `None` when not a single one did.
    pub(crate) fn verdict(&self, index: usize) -> Option<bool> {
        (self.counted[index] > 0).then(|| self.yes[index] * 2 > self.counted[index])
    }

    /// By how many votes one answer leads the other.
    fn lead(&self, index: usize) -> u32 {
        self.yes[index].abs_diff(self.counted[index] - self.yes[index])
    }

    /// Withdraw the item's votes.
    fn strike(&mut self, index: usize) {
        (self.yes[index], self.counted[index]) = (0, 0);
    }
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

    /// An engine over `n` items texted by `text` whose `flag` is true where
    /// `positive` says so; returns the ids and the gold kept set.
    fn flag_engine(
        n: usize,
        text: impl Fn(usize) -> String,
        flag: &str,
        positive: impl Fn(usize) -> bool,
        noise: NoiseProfile,
        seed: u64,
    ) -> (Engine, Vec<ItemId>, Vec<ItemId>) {
        let mut w = WorldModel::new();
        let mut ids = Vec::new();
        let mut expected = Vec::new();
        for i in 0..n {
            let id = w.add_item(text(i));
            w.set_flag(id, flag, positive(i));
            if positive(i) {
                expected.push(id);
            }
            ids.push(id);
        }
        let corpus = Corpus::from_world(&w, &ids);
        let profile = ModelProfile::gpt35_like().with_noise(noise);
        let llm = Arc::new(SimulatedLlm::new(profile, Arc::new(w), seed));
        let engine =
            Engine::new(Arc::new(LlmClient::new(llm)), corpus).with_budget(Budget::Unlimited);
        (engine, ids, expected)
    }

    fn setup(n: usize, noise: NoiseProfile) -> (Engine, Vec<ItemId>, Vec<ItemId>) {
        let text = |i: usize| format!("snippet {i}");
        flag_engine(n, text, "positive", |i| i % 3 == 0, noise, 17)
    }

    fn check_noise(check_accuracy: f64) -> NoiseProfile {
        NoiseProfile {
            check_accuracy,
            malformed_rate: 0.0,
            ..NoiseProfile::perfect()
        }
    }

    /// Alternating true/false claims, as the cascade tests use.
    fn claims(n: usize, accuracy: f64, seed: u64) -> (Engine, Vec<ItemId>, Vec<ItemId>) {
        let text = |i: usize| format!("claim {i}");
        flag_engine(
            n,
            text,
            "valid",
            |i| i % 2 == 0,
            check_noise(accuracy),
            seed,
        )
    }

    /// Textually separable classes: spam-like vs report-like snippets.
    fn spam_world(n: usize) -> (Engine, Vec<ItemId>, Vec<ItemId>) {
        let text = |i: usize| {
            if i.is_multiple_of(2) {
                format!("win a free prize now, claim your exclusive reward bonus {i}")
            } else {
                format!("quarterly maintenance report for facility section {i}")
            }
        };
        flag_engine(n, text, "spam", |i| i % 2 == 0, check_noise(1.0), 23)
    }

    #[test]
    fn single_perfect_filter_is_exact() {
        let (engine, ids, expected) = setup(30, NoiseProfile::perfect());
        let out = filter(&engine, &ids, "positive", FilterStrategy::Single).unwrap();
        assert_eq!(out.value, expected);
        assert_eq!(out.calls as usize, ids.len());
    }

    #[test]
    fn majority_vote_beats_single_on_noisy_oracle() {
        let noise = NoiseProfile {
            check_accuracy: 0.75,
            ..NoiseProfile::perfect()
        };
        let (engine, ids, expected) = setup(60, noise);
        let expected_set: std::collections::HashSet<ItemId> = expected.iter().copied().collect();
        let accuracy = |kept: &[ItemId]| {
            let kept_set: std::collections::HashSet<ItemId> = kept.iter().copied().collect();
            ids.iter()
                .filter(|id| kept_set.contains(id) == expected_set.contains(id))
                .count() as f64
                / ids.len() as f64
        };
        let single = filter(&engine, &ids, "positive", FilterStrategy::Single).unwrap();
        let voted = filter(
            &engine,
            &ids,
            "positive",
            FilterStrategy::MajorityVote {
                votes: 5,
                temperature_pct: 100,
            },
        )
        .unwrap();
        let a_single = accuracy(&single.value);
        let a_voted = accuracy(&voted.value);
        assert!(
            a_voted >= a_single,
            "vote {a_voted:.3} should not lose to single {a_single:.3}"
        );
        assert!(voted.calls > single.calls, "votes cost more calls");
    }

    #[test]
    fn confidence_gating_escalates_only_uncertain_items() {
        let noise = NoiseProfile {
            check_accuracy: 0.75,
            ..NoiseProfile::perfect()
        };
        let (engine, ids, expected) = setup(60, noise);
        let expected_set: std::collections::HashSet<ItemId> = expected.iter().copied().collect();
        let accuracy = |kept: &[ItemId]| {
            let kept_set: std::collections::HashSet<ItemId> = kept.iter().copied().collect();
            ids.iter()
                .filter(|id| kept_set.contains(id) == expected_set.contains(id))
                .count() as f64
                / ids.len() as f64
        };
        let single = filter(&engine, &ids, "positive", FilterStrategy::Single).unwrap();
        let gated = filter(
            &engine,
            &ids,
            "positive",
            FilterStrategy::ConfidenceGated {
                min_confidence_pct: 65,
                votes: 5,
            },
        )
        .unwrap();
        let full_vote = filter(
            &engine,
            &ids,
            "positive",
            FilterStrategy::MajorityVote {
                votes: 5,
                temperature_pct: 100,
            },
        )
        .unwrap();
        // Gating should improve on a single pass…
        assert!(
            accuracy(&gated.value) >= accuracy(&single.value),
            "gated {:.3} vs single {:.3}",
            accuracy(&gated.value),
            accuracy(&single.value)
        );
        // …at a fraction of the all-items voting cost.
        assert!(
            gated.calls < full_vote.calls,
            "gated {} calls should undercut full voting {}",
            gated.calls,
            full_vote.calls
        );
        assert!(gated.calls > single.calls, "some items escalate");
    }

    #[test]
    fn confidence_gate_with_perfect_model_never_escalates() {
        let (engine, ids, expected) = setup(20, NoiseProfile::perfect());
        // A perfect model's confidence is 1.0 plus ±0.08σ jitter; a 0.65
        // gate sits >4σ below it, so no item can plausibly escalate (a 0.90
        // gate would trip on ~10% of items purely from jitter).
        let out = filter(
            &engine,
            &ids,
            "positive",
            FilterStrategy::ConfidenceGated {
                min_confidence_pct: 65,
                votes: 5,
            },
        )
        .unwrap();
        assert_eq!(out.value, expected);
        assert_eq!(out.calls as usize, ids.len(), "no escalation needed");
    }

    #[test]
    fn empty_input() {
        let (engine, _, _) = setup(3, NoiseProfile::perfect());
        let out = filter(&engine, &[], "positive", FilterStrategy::Single).unwrap();
        assert!(out.value.is_empty());
        assert_eq!(out.calls, 0);
    }

    #[test]
    fn a_tied_ballot_says_no() {
        let (engine, _, _) = setup(1, NoiseProfile::perfect());
        let mut settle = engine.settle("filter");
        let mut ballot = Ballot::new(1);
        assert_eq!(ballot.verdict(0), None, "no vote, no verdict");
        ballot.cast(&mut settle, 0, Ok("yes".into())).unwrap();
        ballot.cast(&mut settle, 0, Ok("no".into())).unwrap();
        assert_eq!(ballot.votes(0), (1, 2));
        assert_eq!(ballot.lead(0), 0);
        assert_eq!(ballot.verdict(0), Some(false), "a tie is no");
    }

    #[test]
    fn invalid_strategy_fields_are_rejected_by_name() {
        let (engine, ids, _) = setup(4, NoiseProfile::perfect());
        let sequential = |lead, max_votes| FilterStrategy::Sequential {
            lead,
            max_votes,
            temperature_pct: 100,
        };
        let proxy = |train| FilterStrategy::ProxyGated {
            train,
            min_confidence_pct: 5,
        };
        for (strategy, field) in [
            (sequential(0, 5), "lead"),
            (sequential(3, 2), "max_votes"),
            (proxy(0), "train"),
            (proxy(1), "train"),
            (FilterStrategy::Verified { max_rounds: 0 }, "max_rounds"),
        ] {
            match filter(&engine, &ids, "positive", strategy) {
                Err(EngineError::InvalidInput(msg)) => assert!(msg.contains(field), "{msg}"),
                other => panic!("{strategy:?}: expected InvalidInput, got {other:?}"),
            }
        }
        assert_eq!(
            engine.client().ledger().calls(),
            0,
            "refused before any call"
        );
    }

    #[test]
    fn sequential_stops_early_on_agreement() {
        let (engine, ids, _) = claims(2, 0.95, 7);
        // ln(19) of log-odds at an assumed accuracy of 0.9 is a lead of 2.
        let strategy = FilterStrategy::Sequential {
            lead: 2,
            max_votes: 25,
            temperature_pct: 100,
        };
        let out = filter(&engine, &ids[..1], "valid", strategy).unwrap();
        assert_eq!(out.value, ids[..1], "item 0 is valid");
        let votes = out.calls;
        assert!(votes <= 4, "agreement should stop early, used {votes}");
    }

    #[test]
    fn sequential_spends_more_on_disagreement() {
        // Coin-flip oracle: votes disagree, the lead random-walks slowly.
        let (engine, ids, _) = claims(10, 0.5, 8);
        // ln(19) of log-odds at an assumed accuracy of 0.75 is a lead of 3.
        let strategy = FilterStrategy::Sequential {
            lead: 3,
            max_votes: 15,
            temperature_pct: 100,
        };
        let total_votes = filter(&engine, &ids, "valid", strategy).unwrap().calls;
        assert!(
            total_votes > 40,
            "disagreement should consume votes: {total_votes}/150"
        );
    }

    #[test]
    fn sequential_on_a_perfect_model_keeps_exactly_the_true_items() {
        // The log-odds form of this rule, at an assumed accuracy of 0.5,
        // never moved and answered yes to all six.
        let (engine, ids, expected) = claims(6, 1.0, 9);
        let strategy = FilterStrategy::Sequential {
            lead: 2,
            max_votes: 7,
            temperature_pct: 100,
        };
        let out = filter(&engine, &ids, "valid", strategy).unwrap();
        assert_eq!(out.value, expected);
        assert_eq!(out.calls, 12, "two agreeing votes settle each item");
    }

    #[test]
    fn exhausted_sequential_item_is_decided_by_majority_and_a_tie_is_no() {
        let (engine, ids, _) = claims(40, 0.5, 8);
        let vote = |votes| FilterStrategy::MajorityVote {
            votes,
            temperature_pct: 100,
        };
        // With `max_votes == lead` nobody stops early: the same two votes
        // per item as a two-vote majority, decided by the same rule.
        let sequential = FilterStrategy::Sequential {
            lead: 2,
            max_votes: 2,
            temperature_pct: 100,
        };
        let exhausted = filter(&engine, &ids, "valid", sequential).unwrap();
        let majority = filter(&engine, &ids, "valid", vote(2)).unwrap();
        assert_eq!(exhausted.value, majority.value);
        assert_eq!(exhausted.calls, 80);
        // Some item's first vote said yes and its second no: tied, dropped.
        let first_vote = filter(&engine, &ids, "valid", vote(1)).unwrap();
        assert!(first_vote
            .value
            .iter()
            .any(|id| !exhausted.value.contains(id)));
    }

    #[test]
    fn self_consistency_improves_over_single_sample() {
        let text = |i: usize| format!("item {i}");
        let (engine, ids, _) = flag_engine(20, text, "p", |i| i % 2 == 0, check_noise(0.7), 61);
        let strategy = FilterStrategy::MajorityVote {
            votes: 9,
            temperature_pct: 100,
        };
        // Item 0's flag is true.
        let out = filter(&engine, &ids[..1], "p", strategy).unwrap();
        assert_eq!(
            out.value,
            ids[..1],
            "9-vote majority should recover the true flag"
        );
        assert_eq!(out.calls, 9);
    }

    #[test]
    fn verification_loop_repairs_wrong_answers() {
        // Weak answerer, strong verifier: the loop should converge on truth
        // far more often than a single call.
        let noise = NoiseProfile {
            verify_accuracy: 0.95,
            ..check_noise(0.6)
        };
        let text = |i: usize| format!("statement {i}");
        let (engine, ids, expected) = flag_engine(40, text, "p", |i| i % 2 == 0, noise, 71);
        let correct = |kept: &[ItemId]| {
            ids.iter()
                .filter(|id| kept.contains(id) == expected.contains(id))
                .count()
        };
        let single = filter(&engine, &ids, "p", FilterStrategy::Single).unwrap();
        let verified = filter(
            &engine,
            &ids,
            "p",
            FilterStrategy::Verified { max_rounds: 4 },
        );
        let verified = verified.unwrap();
        let (single_correct, verified_correct) = (correct(&single.value), correct(&verified.value));
        assert!(
            verified_correct > single_correct,
            "verified {verified_correct} should beat single {single_correct}"
        );
        let extra_rounds = (verified.calls - 2 * ids.len() as u64) / 2;
        assert!(extra_rounds > 0, "some answers should get retried");
    }

    #[test]
    fn verification_loop_stops_immediately_when_approved() {
        let text = |_| "x".to_owned();
        let (engine, ids, _) = flag_engine(1, text, "p", |_| true, NoiseProfile::perfect(), 3);
        let out = filter(
            &engine,
            &ids,
            "p",
            FilterStrategy::Verified { max_rounds: 5 },
        )
        .unwrap();
        assert_eq!(out.value, ids);
        assert_eq!(out.calls, 2, "one ask + one verification");
    }

    #[test]
    fn proxy_gate_trains_on_the_sample_and_decides_the_rest_for_free() {
        let (engine, ids, expected) = spam_world(60);
        let strategy = FilterStrategy::ProxyGated {
            train: 20,
            min_confidence_pct: 0,
        };
        let out = filter(&engine, &ids, "spam", strategy).unwrap();
        assert!(out.calls == 20, "training pays one call per sample item");
        assert_eq!(
            out.value, expected,
            "separable classes should classify perfectly"
        );
    }

    #[test]
    fn proxy_filter_saves_llm_calls_without_losing_accuracy() {
        let (engine, ids, expected) = spam_world(80);
        let strategy = FilterStrategy::ProxyGated {
            train: 20,
            min_confidence_pct: 5,
        };
        let out = filter(&engine, &ids, "spam", strategy).unwrap();
        // Only the training sample and the uncertain items cost calls.
        let llm_decisions = out.calls as usize - 20;
        let proxy_decisions = 60 - llm_decisions;
        assert!(
            proxy_decisions > llm_decisions,
            "most items should be decided for free: {proxy_decisions} vs {llm_decisions}"
        );
        assert_eq!(out.value, expected, "correct against gold");
    }

    #[test]
    fn impossible_threshold_degrades_to_pure_llm() {
        let (engine, ids, expected) = spam_world(30);
        let strategy = FilterStrategy::ProxyGated {
            train: 10,
            min_confidence_pct: 200,
        };
        let out = filter(&engine, &ids, "spam", strategy).unwrap();
        assert_eq!(out.calls, 30, "no proxy decisions, 20 LLM decisions");
        assert_eq!(out.value, expected);
    }

    #[test]
    fn one_sided_sample_falls_back_to_the_llm() {
        let text = |i: usize| format!("identical snippet {i}");
        let (engine, ids, _) = flag_engine(6, text, "spam", |_| true, check_noise(1.0), 23);
        let strategy = FilterStrategy::ProxyGated {
            train: 3,
            min_confidence_pct: 0,
        };
        // All-positive labels fit no proxy; the filter still answers.
        let out = filter(&engine, &ids, "spam", strategy).unwrap();
        assert_eq!(out.value, ids);
        assert_eq!(out.calls, 6, "the cost of a single check per item");
    }
}
