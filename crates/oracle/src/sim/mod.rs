//! The simulated LLM: executes [`TaskDescriptor`]s against a [`WorldModel`]
//! with calibrated noise, and renders answers through the chatter layer.

mod entity;
pub mod gold;
mod impute;
mod misc;
mod mutate;
mod randx;
pub mod similarity;
mod sorting;

use std::sync::Arc;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::chatter::{self, ChatterStyle};
use crate::error::LlmError;
use crate::hash::{self, Fingerprint};
use crate::model::ModelProfile;
use crate::task::{CountMode, TaskDescriptor};
use crate::tokenizer::{count_tokens, truncate_to_tokens};
use crate::types::{
    CompletionRequest, CompletionResponse, FinishReason, LanguageModel, ModelName, Usage,
};
use crate::world::WorldModel;

/// The seed every simulated draw on `request` derives from: FNV-1a over the
/// length-prefixed prompt, the task's [`TaskDescriptor::fingerprint`], the
/// temperature bits, the max-tokens cap and, at a positive temperature, the
/// sample index — the fields of the request's cache key, hashed byte by
/// byte. The key ([`CompletionRequest::fingerprint`]) hashes its prompt
/// faster; the seed stays this hash so that every answer, chatter style and
/// transport fault the simulator draws stays what it is.
pub(crate) fn seed_of(request: &CompletionRequest) -> u64 {
    let mut f = Fingerprint::new();
    f.write_str(&request.prompt);
    f.write_u64(request.task.fingerprint());
    f.write_f64(request.temperature);
    f.write_u64(u64::from(request.max_tokens.unwrap_or(0)));
    if request.temperature > 0.0 {
        f.write_u64(u64::from(request.sample_index));
    }
    f.finish()
}

/// A deterministic, seeded noisy-oracle language model.
///
/// Thread safe and stateless: every random decision is a pure function of
/// `(instance seed, request seed, decision tag)`, so the same request
/// at temperature 0 always yields the same response, while distinct
/// `sample_index` values at temperature > 0 decorrelate repeated samples.
#[derive(Debug, Clone)]
pub struct SimulatedLlm {
    profile: ModelProfile,
    /// `profile.name`, interned once: every response carries this handle.
    name: ModelName,
    world: Arc<WorldModel>,
    /// `world`'s attribute domains, the answer pools of wrong imputations.
    domains: impute::Domains,
    seed: u64,
}

impl SimulatedLlm {
    /// Create a simulator over the given world with the given profile.
    pub fn new(profile: ModelProfile, world: Arc<WorldModel>, seed: u64) -> Self {
        SimulatedLlm {
            name: ModelName::from(profile.name.as_str()),
            profile,
            world,
            domains: impute::Domains::default(),
            seed,
        }
    }

    /// The model profile in use.
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// The world model backing this simulator.
    pub fn world(&self) -> &Arc<WorldModel> {
        &self.world
    }

    /// RNG for one decision on a request, keyed by the request's
    /// seed ([`seed_of`], hashed once per completion) and the decision's tag.
    fn rng_for(&self, request_seed: u64, tag: &str) -> ChaCha8Rng {
        let key = hash::combine(self.seed, hash::combine(request_seed, hash::fnv1a_str(tag)));
        ChaCha8Rng::seed_from_u64(key)
    }

    /// RNG for one sub-task inside a packed prompt, keyed by the *sub-task*
    /// (plus the request's sampling coordinates) rather than the packed
    /// request: the same item asked the same question at the same
    /// temperature/sample draws the same answer no matter which pack carries
    /// it, so bisection retries of a failed pack answer consistently.
    fn packed_sub_rng(&self, request: &CompletionRequest, sub: &TaskDescriptor) -> ChaCha8Rng {
        let mut key = hash::combine(sub.fingerprint(), request.temperature.to_bits());
        if request.temperature > 0.0 {
            key = hash::combine(key, u64::from(request.sample_index));
        }
        ChaCha8Rng::seed_from_u64(hash::combine(
            self.seed,
            hash::combine(key, hash::fnv1a_str("task")),
        ))
    }

    fn chatter_style(&self, request_seed: u64, allow_malformed: bool) -> ChatterStyle {
        let mut rng = self.rng_for(request_seed, "chatter");
        let malformed = allow_malformed
            && self.profile.noise.malformed_rate > 0.0
            && rng.random_bool(self.profile.noise.malformed_rate.clamp(0.0, 1.0));
        ChatterStyle {
            level: self.profile.noise.chatter_level,
            variant: rng.random::<u64>(),
            malformed,
        }
    }

    fn validate(&self, request: &CompletionRequest) -> Result<(), LlmError> {
        match &request.task {
            TaskDescriptor::SortList { items, .. } if items.is_empty() => Err(
                LlmError::InvalidRequest("sort_list task with no items".into()),
            ),
            TaskDescriptor::GroupEntities { items } if items.is_empty() => Err(
                LlmError::InvalidRequest("group_entities task with no items".into()),
            ),
            TaskDescriptor::CompareBatch { pairs, .. } if pairs.is_empty() => Err(
                LlmError::InvalidRequest("compare_batch task with no pairs".into()),
            ),
            TaskDescriptor::Classify { labels, .. } if labels.is_empty() => Err(
                LlmError::InvalidRequest("classify task with no labels".into()),
            ),
            TaskDescriptor::Rate {
                scale_min,
                scale_max,
                ..
            } if scale_min >= scale_max => Err(LlmError::InvalidRequest(format!(
                "rating scale [{scale_min}, {scale_max}] is empty"
            ))),
            TaskDescriptor::Packed { tasks } => {
                // Re-check the packing contract: [`TaskDescriptor::packed`]
                // enforces it at construction, but requests can be built by
                // hand.
                let Some(first) = tasks.first() else {
                    return Err(LlmError::InvalidRequest(
                        "packed task with no sub-tasks".into(),
                    ));
                };
                if tasks
                    .iter()
                    .any(|t| !t.packable() || !first.pack_compatible(t))
                {
                    return Err(LlmError::InvalidRequest(
                        "packed sub-tasks must be packable and share one instruction".into(),
                    ));
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Generate the raw (pre-truncation) response text for a request whose
    /// seed is `request_seed`, plus the answer confidence for
    /// binary-answer task kinds.
    fn generate(&self, request: &CompletionRequest, request_seed: u64) -> (String, Option<f64>) {
        let noise = &self.profile.noise;
        let world = &self.world;
        let mut rng = self.rng_for(request_seed, "task");
        match &request.task {
            TaskDescriptor::SortList { items, criterion } => {
                let out = sorting::simulate_sort_list(world, noise, items, *criterion, &mut rng);
                let refs: Vec<&str> = out.iter().map(String::as_str).collect();
                (
                    chatter::wrap_list(&refs, self.chatter_style(request_seed, false)),
                    None,
                )
            }
            TaskDescriptor::Compare {
                left,
                right,
                criterion,
            } => {
                let (yes, confidence) = sorting::simulate_compare_with_confidence(
                    world, noise, *left, *right, *criterion, &mut rng,
                );
                (
                    chatter::wrap_yes_no(yes, self.chatter_style(request_seed, true)),
                    Some(confidence),
                )
            }
            TaskDescriptor::CompareBatch { pairs, criterion } => {
                let answers =
                    sorting::simulate_compare_batch(world, noise, pairs, *criterion, &mut rng);
                let rendered: Vec<&str> = answers
                    .iter()
                    .map(|yes| if *yes { "Yes" } else { "No" })
                    .collect();
                (
                    chatter::wrap_list(&rendered, self.chatter_style(request_seed, false)),
                    None,
                )
            }
            TaskDescriptor::Rate {
                item,
                scale_min,
                scale_max,
                criterion,
            } => {
                let r = sorting::simulate_rate(
                    world, noise, *item, *scale_min, *scale_max, *criterion, &mut rng,
                );
                (
                    chatter::wrap_rating(r, *scale_max, self.chatter_style(request_seed, false)),
                    None,
                )
            }
            TaskDescriptor::SameEntity { left, right } => {
                let (yes, confidence) = entity::simulate_same_entity_with_confidence(
                    world, noise, *left, *right, &mut rng,
                );
                (
                    chatter::wrap_yes_no(yes, self.chatter_style(request_seed, true)),
                    Some(confidence),
                )
            }
            TaskDescriptor::GroupEntities { items } => {
                let groups = entity::simulate_group_entities(world, noise, items, &mut rng);
                let named: Vec<Vec<&str>> = groups
                    .iter()
                    .map(|g| {
                        g.iter()
                            .map(|id| world.text(*id).unwrap_or("<unknown>"))
                            .collect()
                    })
                    .collect();
                (
                    chatter::wrap_groups(&named, self.chatter_style(request_seed, false)),
                    None,
                )
            }
            TaskDescriptor::Impute {
                item,
                attribute,
                examples,
            } => {
                let v = impute::simulate_impute(
                    world,
                    &self.domains,
                    noise,
                    *item,
                    attribute,
                    examples.len(),
                    &mut rng,
                );
                (
                    chatter::wrap_value(&v, self.chatter_style(request_seed, false)),
                    None,
                )
            }
            TaskDescriptor::CountPredicate {
                items,
                predicate,
                mode,
            } => {
                // PerItem mode should arrive as CheckPredicate tasks; if a
                // caller sends it here anyway, eyeball it (coarse fallback).
                let _ = matches!(mode, CountMode::Eyeball);
                let c = misc::simulate_count_eyeball(world, noise, items, predicate, &mut rng);
                (
                    chatter::wrap_count(c, items.len(), self.chatter_style(request_seed, false)),
                    None,
                )
            }
            TaskDescriptor::CheckPredicate { item, predicate } => {
                let (yes, confidence) =
                    misc::simulate_check_with_confidence(world, noise, *item, predicate, &mut rng);
                (
                    chatter::wrap_yes_no(yes, self.chatter_style(request_seed, true)),
                    Some(confidence),
                )
            }
            TaskDescriptor::Classify { item, labels } => {
                let label = misc::simulate_classify(world, noise, *item, labels, &mut rng);
                (
                    chatter::wrap_value(&label, self.chatter_style(request_seed, false)),
                    None,
                )
            }
            TaskDescriptor::Verify {
                original,
                proposed_answer,
            } => match misc::simulate_verify(world, noise, original, proposed_answer, &mut rng) {
                Some(ok) => (
                    chatter::wrap_yes_no(ok, self.chatter_style(request_seed, true)),
                    Some(noise.verify_accuracy.clamp(0.5, 1.0)),
                ),
                None => (
                    "I cannot verify this answer from the information given.".to_owned(),
                    None,
                ),
            },
            TaskDescriptor::Packed { tasks } => {
                let mut answers: Vec<String> = Vec::with_capacity(tasks.len());
                for sub in tasks {
                    let mut srng = self.packed_sub_rng(request, sub);
                    let line = match sub {
                        TaskDescriptor::CheckPredicate { item, predicate } => {
                            let (yes, _) = misc::simulate_check_with_confidence(
                                world, noise, *item, predicate, &mut srng,
                            );
                            if yes { "Yes" } else { "No" }.to_owned()
                        }
                        TaskDescriptor::Classify { item, labels } => {
                            misc::simulate_classify(world, noise, *item, labels, &mut srng)
                        }
                        TaskDescriptor::Impute {
                            item,
                            attribute,
                            examples,
                        } => impute::simulate_impute(
                            world,
                            &self.domains,
                            noise,
                            *item,
                            attribute,
                            examples.len(),
                            &mut srng,
                        ),
                        // `validate` rejects anything else before generation.
                        other => format!("<unpackable {}>", other.kind()),
                    };
                    answers.push(line);
                }
                // Numbered-list dropout: long packed outputs occasionally
                // lose or duplicate a line, leaving the list unparseable
                // against the expected item count — the failure mode the
                // dispatcher's bisection handles.
                if answers.len() > 1 && noise.packed_dropout_rate > 0.0 {
                    let mut frng = self.rng_for(request_seed, "packed-dropout");
                    if frng.random_bool(noise.packed_dropout_rate.clamp(0.0, 1.0)) {
                        let victim = frng.random_range(0..answers.len());
                        if frng.random_bool(0.5) {
                            answers.remove(victim);
                        } else {
                            let dup = answers[victim].clone();
                            answers.insert(victim, dup);
                        }
                    }
                }
                let refs: Vec<&str> = answers.iter().map(String::as_str).collect();
                (
                    chatter::wrap_list(&refs, self.chatter_style(request_seed, false)),
                    None,
                )
            }
        }
    }
}

impl LanguageModel for SimulatedLlm {
    fn name(&self) -> &str {
        &self.profile.name
    }

    fn context_window(&self) -> u32 {
        self.profile.context_window
    }

    fn pricing(&self) -> crate::pricing::Pricing {
        self.profile.pricing
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
        self.validate(request)?;

        let prompt_tokens = count_tokens(&request.prompt);
        if prompt_tokens > self.profile.context_window {
            return Err(LlmError::ContextOverflow {
                prompt_tokens,
                context_window: self.profile.context_window,
            });
        }

        // Every seed below derives from this one hash of the prompt.
        let request_seed = seed_of(request);

        // Transport failure injection (retryable errors). Keyed separately
        // from the task RNG so retries of flaky transport do not change the
        // eventual answer: the request's seed (and with it the answer draw)
        // never sees `attempt`, which the router bumps per retry and which
        // is folded in here, beside the sample index, explicitly.
        let noise = &self.profile.noise;
        if noise.rate_limit_prob > 0.0 || noise.unavailable_prob > 0.0 || noise.timeout_prob > 0.0 {
            let key = hash::combine(
                self.seed,
                hash::combine(
                    request_seed,
                    hash::combine(hash::fnv1a_str("transport"), request.transport_draw()),
                ),
            );
            let mut trng = ChaCha8Rng::seed_from_u64(key);
            if trng.random_bool(noise.rate_limit_prob.clamp(0.0, 1.0)) {
                return Err(LlmError::RateLimited { retry_after_ms: 50 });
            }
            if trng.random_bool(noise.unavailable_prob.clamp(0.0, 1.0)) {
                return Err(LlmError::ServiceUnavailable);
            }
            if trng.random_bool(noise.timeout_prob.clamp(0.0, 1.0)) {
                return Err(LlmError::Timeout { elapsed_ms: 50 });
            }
        }

        let (raw, confidence) = self.generate(request, request_seed);
        let cap = request
            .max_tokens
            .unwrap_or(self.profile.default_max_tokens);
        let (text, truncated) = truncate_to_tokens(&raw, cap);
        let completion_tokens = count_tokens(text);
        Ok(CompletionResponse {
            text: text.to_owned(),
            usage: Usage {
                prompt_tokens,
                completion_tokens,
            },
            finish_reason: if truncated {
                FinishReason::Length
            } else {
                FinishReason::Stop
            },
            model: self.name,
            cached: false,
            pricing: self.profile.pricing,
            confidence,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NoiseProfile;
    use crate::task::SortCriterion;
    use crate::world::ItemId;

    fn setup() -> (SimulatedLlm, Vec<ItemId>) {
        let mut w = WorldModel::new();
        let ids: Vec<ItemId> = (0..10)
            .map(|i| {
                let id = w.add_item(format!("flavor {i}"));
                w.set_score(id, 1.0 - i as f64 / 10.0);
                w.set_salience(id, 1.0);
                id
            })
            .collect();
        let llm = SimulatedLlm::new(ModelProfile::perfect(), Arc::new(w), 7);
        (llm, ids)
    }

    #[test]
    fn deterministic_at_temperature_zero() {
        let (llm, ids) = setup();
        let req = CompletionRequest::new(
            "Sort these items.",
            TaskDescriptor::SortList {
                items: ids.clone(),
                criterion: SortCriterion::LatentScore,
            },
        );
        let a = llm.complete(&req).unwrap();
        let b = llm.complete(&req).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_can_differ() {
        let mut w = WorldModel::new();
        let a = w.add_item("a");
        let b = w.add_item("b");
        w.set_score(a, 0.52);
        w.set_score(b, 0.48);
        let world = Arc::new(w);
        let noisy = ModelProfile::gpt35_like();
        let req = CompletionRequest::new(
            "compare",
            TaskDescriptor::Compare {
                left: a,
                right: b,
                criterion: SortCriterion::LatentScore,
            },
        );
        let answers: std::collections::HashSet<String> = (0..64)
            .map(|seed| {
                SimulatedLlm::new(noisy.clone(), Arc::clone(&world), seed)
                    .complete(&req)
                    .unwrap()
                    .text
            })
            .collect();
        assert!(answers.len() > 1, "a near-tie should produce both answers");
    }

    #[test]
    fn context_overflow_detected() {
        let (llm, ids) = setup();
        let huge_prompt = "word ".repeat(2_000_000);
        let req = CompletionRequest::new(
            huge_prompt,
            TaskDescriptor::CheckPredicate {
                item: ids[0],
                predicate: "p".into(),
            },
        );
        match llm.complete(&req) {
            Err(LlmError::ContextOverflow { .. }) => {}
            other => panic!("expected overflow, got {other:?}"),
        }
    }

    #[test]
    fn max_tokens_truncates_with_length_finish() {
        let (llm, ids) = setup();
        let req = CompletionRequest::new(
            "Sort these items.",
            TaskDescriptor::SortList {
                items: ids,
                criterion: SortCriterion::LatentScore,
            },
        )
        .with_max_tokens(5);
        let resp = llm.complete(&req).unwrap();
        assert_eq!(resp.finish_reason, FinishReason::Length);
        assert!(resp.usage.completion_tokens <= 5);
    }

    #[test]
    fn invalid_requests_rejected() {
        let (llm, ids) = setup();
        let empty_sort = CompletionRequest::new(
            "sort",
            TaskDescriptor::SortList {
                items: vec![],
                criterion: SortCriterion::LatentScore,
            },
        );
        assert!(matches!(
            llm.complete(&empty_sort),
            Err(LlmError::InvalidRequest(_))
        ));
        let bad_scale = CompletionRequest::new(
            "rate",
            TaskDescriptor::Rate {
                item: ids[0],
                scale_min: 5,
                scale_max: 5,
                criterion: SortCriterion::LatentScore,
            },
        );
        assert!(matches!(
            llm.complete(&bad_scale),
            Err(LlmError::InvalidRequest(_))
        ));
    }

    #[test]
    fn transport_failures_injected() {
        let mut w = WorldModel::new();
        let id = w.add_item("x");
        w.set_flag(id, "p", true);
        let profile = ModelProfile::perfect().with_noise(NoiseProfile {
            rate_limit_prob: 1.0,
            ..NoiseProfile::perfect()
        });
        let llm = SimulatedLlm::new(profile, Arc::new(w), 1);
        let req = CompletionRequest::new(
            "check",
            TaskDescriptor::CheckPredicate {
                item: id,
                predicate: "p".into(),
            },
        );
        assert!(matches!(
            llm.complete(&req),
            Err(LlmError::RateLimited { .. })
        ));
    }

    #[test]
    fn usage_accounts_prompt_and_completion() {
        let (llm, ids) = setup();
        let prompt = "Is item ranked before the other? Answer Yes or No.";
        let req = CompletionRequest::new(
            prompt,
            TaskDescriptor::Compare {
                left: ids[0],
                right: ids[1],
                criterion: SortCriterion::LatentScore,
            },
        );
        let resp = llm.complete(&req).unwrap();
        assert_eq!(resp.usage.prompt_tokens, count_tokens(prompt));
        assert!(resp.usage.completion_tokens >= 1);
        assert_eq!(resp.model, "sim-perfect");
    }

    #[test]
    fn packed_check_matches_world_truth() {
        let mut w = WorldModel::new();
        let ids: Vec<ItemId> = (0..6)
            .map(|i| {
                let id = w.add_item(format!("packed item {i}"));
                w.set_flag(id, "p", i % 2 == 0);
                id
            })
            .collect();
        let llm = SimulatedLlm::new(ModelProfile::perfect(), Arc::new(w), 3);
        let tasks: Vec<TaskDescriptor> = ids
            .iter()
            .map(|id| TaskDescriptor::CheckPredicate {
                item: *id,
                predicate: "p".into(),
            })
            .collect();
        let packed = TaskDescriptor::packed(tasks).unwrap();
        let resp = llm
            .complete(&CompletionRequest::new("packed", packed))
            .unwrap();
        let lines: Vec<&str> = resp.text.lines().collect();
        assert_eq!(lines.len(), 6);
        for (i, line) in lines.iter().enumerate() {
            let expected = if i % 2 == 0 { "Yes" } else { "No" };
            assert!(line.contains(expected), "line {i}: {line}");
        }
    }

    #[test]
    fn packed_answers_are_chunking_invariant() {
        // The same sub-task answers identically whichever pack carries it,
        // so bisection retries of a failed pack stay consistent.
        let mut w = WorldModel::new();
        let ids: Vec<ItemId> = (0..4)
            .map(|i| {
                let id = w.add_item(format!("inv item {i}"));
                w.set_flag(id, "p", true);
                id
            })
            .collect();
        // Noisy checks: answers are RNG draws, so invariance is non-trivial.
        let profile = ModelProfile::gpt35_like().with_noise(NoiseProfile {
            check_accuracy: 0.5,
            chatter_level: 0.0,
            malformed_rate: 0.0,
            packed_dropout_rate: 0.0,
            ..NoiseProfile::default()
        });
        let llm = SimulatedLlm::new(profile, Arc::new(w), 11);
        let check = |id: ItemId| TaskDescriptor::CheckPredicate {
            item: id,
            predicate: "p".into(),
        };
        let whole = llm
            .complete(&CompletionRequest::new(
                "whole",
                TaskDescriptor::packed(ids.iter().copied().map(check).collect()).unwrap(),
            ))
            .unwrap();
        let halves: Vec<String> = ids
            .chunks(2)
            .map(|half| {
                llm.complete(&CompletionRequest::new(
                    "half",
                    TaskDescriptor::packed(half.iter().copied().map(check).collect()).unwrap(),
                ))
                .unwrap()
                .text
            })
            .collect();
        let whole_lines: Vec<&str> = whole.text.lines().collect();
        let half_lines: Vec<&str> = halves.iter().flat_map(|t| t.lines()).collect();
        // Strip the "N. " numbering before comparing payloads.
        let payload = |l: &str| l.split_once(". ").map(|(_, p)| p.to_owned()).unwrap();
        assert_eq!(
            whole_lines.iter().map(|l| payload(l)).collect::<Vec<_>>(),
            half_lines.iter().map(|l| payload(l)).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn packed_dropout_breaks_the_line_count() {
        let mut w = WorldModel::new();
        let ids: Vec<ItemId> = (0..8)
            .map(|i| {
                let id = w.add_item(format!("drop item {i}"));
                w.set_flag(id, "p", true);
                id
            })
            .collect();
        let profile = ModelProfile::perfect().with_noise(NoiseProfile {
            packed_dropout_rate: 1.0,
            ..NoiseProfile::perfect()
        });
        let llm = SimulatedLlm::new(profile, Arc::new(w), 5);
        let packed = TaskDescriptor::packed(
            ids.iter()
                .map(|id| TaskDescriptor::CheckPredicate {
                    item: *id,
                    predicate: "p".into(),
                })
                .collect(),
        )
        .unwrap();
        let resp = llm
            .complete(&CompletionRequest::new("packed", packed))
            .unwrap();
        assert_ne!(resp.text.lines().count(), 8, "dropout must break the list");
    }

    #[test]
    fn hand_built_invalid_packs_rejected() {
        let (llm, ids) = setup();
        let mixed = TaskDescriptor::Packed {
            tasks: vec![
                TaskDescriptor::CheckPredicate {
                    item: ids[0],
                    predicate: "p".into(),
                },
                TaskDescriptor::Classify {
                    item: ids[1],
                    labels: vec!["a".into()],
                },
            ],
        };
        assert!(matches!(
            llm.complete(&CompletionRequest::new("bad", mixed)),
            Err(LlmError::InvalidRequest(_))
        ));
        let empty = TaskDescriptor::Packed { tasks: vec![] };
        assert!(matches!(
            llm.complete(&CompletionRequest::new("bad", empty)),
            Err(LlmError::InvalidRequest(_))
        ));
    }

    #[test]
    fn perfect_compare_answers_yes_for_higher_score() {
        let (llm, ids) = setup();
        let req = CompletionRequest::new(
            "compare",
            TaskDescriptor::Compare {
                left: ids[0],
                right: ids[5],
                criterion: SortCriterion::LatentScore,
            },
        );
        let resp = llm.complete(&req).unwrap();
        assert!(resp.text.to_lowercase().contains("yes"));
    }
}
