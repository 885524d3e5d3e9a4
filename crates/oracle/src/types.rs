//! Request/response types and the [`LanguageModel`] trait.

use std::collections::BTreeMap;
use std::fmt;

use parking_lot::Mutex;

use crate::error::LlmError;
use crate::hash;
use crate::pricing::Pricing;
use crate::task::TaskDescriptor;

/// Token usage for a single completion call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    /// Tokens in the rendered prompt.
    pub prompt_tokens: u32,
    /// Tokens in the generated completion.
    pub completion_tokens: u32,
}

impl Usage {
    /// Total tokens (prompt + completion).
    pub fn total(&self) -> u32 {
        self.prompt_tokens + self.completion_tokens
    }
}

impl std::ops::Add for Usage {
    type Output = Usage;
    fn add(self, rhs: Usage) -> Usage {
        Usage {
            prompt_tokens: self.prompt_tokens + rhs.prompt_tokens,
            completion_tokens: self.completion_tokens + rhs.completion_tokens,
        }
    }
}

impl std::ops::AddAssign for Usage {
    fn add_assign(&mut self, rhs: Usage) {
        *self = *self + rhs;
    }
}

/// Why generation stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishReason {
    /// The model emitted a natural stop.
    Stop,
    /// Output was cut off by the `max_tokens` limit.
    Length,
}

/// A single completion request.
///
/// `prompt` is the rendered natural-language text (used for token accounting
/// and context-window checks, exactly as a real API would). `task` is the
/// structured payload the prompt renders; the simulator executes it against
/// the world model. A real network-backed implementation of
/// [`LanguageModel`] would ignore `task` and send `prompt` over the wire.
#[derive(Debug, Clone)]
pub struct CompletionRequest {
    /// Rendered prompt text.
    pub prompt: String,
    /// Structured description of the unit task the prompt encodes.
    pub task: TaskDescriptor,
    /// Sampling temperature; `0.0` means deterministic.
    pub temperature: f64,
    /// Maximum completion tokens (`None` = model default).
    pub max_tokens: Option<u32>,
    /// Monotone sequence number used to decorrelate repeated sampling of the
    /// same prompt at temperature > 0 (e.g. self-consistency voting).
    pub sample_index: u32,
    /// Which transport attempt of this request a dispatcher is making (`0`
    /// = the first). Excluded from [`CompletionRequest::fingerprint`]: only
    /// a backend's *transport* draws (latency, injected 429 / 5xx /
    /// timeout) read it, so a retry meets a different server moment and
    /// the same answer.
    pub attempt: u32,
    /// The content half of the request's key when its producer computed it
    /// from the task rather than the prompt: the engine's *task key*
    /// (`crowdprompt_core`'s `Engine::task_key`), which folds the task's
    /// fingerprint with a fingerprint of every item text its prompt names,
    /// the render options and a digest of the templates — everything the
    /// prompt is rendered from — so a probe can be asked before the prompt
    /// exists. `None` (what [`CompletionRequest::new`] builds): the content
    /// half is the prompt's hash with the task's fingerprint. Set it only
    /// to a key that fixes the prompt; [`CompletionRequest::fingerprint`]
    /// trusts it.
    pub task_key: Option<u64>,
}

impl CompletionRequest {
    /// Build a request with default sampling parameters (temperature 0).
    pub fn new(prompt: impl Into<String>, task: TaskDescriptor) -> Self {
        CompletionRequest {
            prompt: prompt.into(),
            task,
            temperature: 0.0,
            max_tokens: None,
            sample_index: 0,
            attempt: 0,
            task_key: None,
        }
    }

    /// Set the max-tokens cap: an answer cut at the cap finishes with
    /// [`FinishReason::Length`].
    ///
    /// ```
    /// use std::sync::Arc;
    /// use crowdprompt_oracle::{
    ///     CompletionRequest, FinishReason, LanguageModel, ModelProfile, SimulatedLlm,
    ///     SortCriterion, TaskDescriptor, WorldModel,
    /// };
    ///
    /// let mut world = WorldModel::new();
    /// let items: Vec<_> = (0..6).map(|i| world.add_item(format!("item {i}"))).collect();
    /// let llm = SimulatedLlm::new(ModelProfile::perfect(), Arc::new(world), 1);
    /// let task = TaskDescriptor::SortList {
    ///     items,
    ///     criterion: SortCriterion::LatentScore,
    /// };
    /// let request = CompletionRequest::new("Sort these items.", task).with_max_tokens(5);
    /// let response = llm.complete(&request).unwrap();
    /// assert_eq!(response.finish_reason, FinishReason::Length);
    /// assert!(response.usage.completion_tokens <= 5);
    /// ```
    #[must_use]
    pub fn with_max_tokens(mut self, m: u32) -> Self {
        self.max_tokens = Some(m);
        self
    }

    /// The coordinate a backend folds into its transport draws beside the
    /// request's seed: the sample index (which a temperature-0 seed leaves
    /// out) advanced by the attempt, so every attempt re-rolls.
    pub(crate) fn transport_draw(&self) -> u64 {
        u64::from(self.sample_index.wrapping_add(self.attempt))
    }

    /// Stable fingerprint of the request: the key every cache, store and
    /// journal holds its answer under, the one key function they share.
    ///
    /// Its content half has two producers. A request built by
    /// [`CompletionRequest::new`] is keyed by its prompt
    /// (`hash::prompt_hash`, 16 bytes a step) with the task's
    /// [`TaskDescriptor::fingerprint`]; one the engine built carries its
    /// [`CompletionRequest::task_key`] instead, so its key is known before
    /// its prompt is rendered and a cache hit never renders one. Either
    /// way the content is folded with the temperature, the max-tokens cap,
    /// and the sample index only when temperature is positive, so that
    /// deterministic (temperature-0) requests are cached across samples.
    /// The two producers' keys never meet: an answer stored under one is a
    /// miss under the other, paid for again, never served wrong. The
    /// simulator seeds its draws from its own hash of the prompt and task,
    /// whichever key the request carries.
    pub fn fingerprint(&self) -> u64 {
        let mut key = self.task_key.unwrap_or_else(|| {
            hash::combine(
                hash::prompt_hash(self.prompt.as_bytes()),
                self.task.fingerprint(),
            )
        });
        key = hash::combine(key, self.temperature.to_bits());
        key = hash::combine(key, u64::from(self.max_tokens.unwrap_or(0)));
        if self.temperature > 0.0 {
            key = hash::combine(key, u64::from(self.sample_index));
        }
        key
    }
}

/// The name of the model that produced a [`CompletionResponse`]: a 4-byte
/// handle into a process-wide table of interned names.
///
/// A resident cached answer carries one of these instead of its own copy of
/// the name. Names are interned where a model or a record is built — the
/// simulator at construction, a store or journal record at decode — never
/// per call or per hit, and a hit never reads it. The table only grows: an
/// interned name lives until the process exits, and any number of them fits
/// short of the `u32` handle space (a store file may carry any number of
/// names).
///
/// `Debug` and `Display` render exactly as the name's `String` would, so a
/// response formats as it did when this field was a `String`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
// lint: allow(pub-has-caller) — exposed by `CompletionResponse::model`
pub struct ModelName(u32);

/// The interned names: a handle indexes `names`, `index` maps a name back
/// to its handle.
struct NameTable {
    names: Vec<&'static str>,
    index: BTreeMap<&'static str, u32>,
}

static NAMES: Mutex<NameTable> = Mutex::new(NameTable {
    names: Vec::new(),
    index: BTreeMap::new(),
});

impl ModelName {
    /// The handle of `name`, interning it on first sight.
    fn intern(name: &str) -> ModelName {
        let mut table = NAMES.lock();
        if let Some(&handle) = table.index.get(name) {
            return ModelName(handle);
        }
        let handle = u32::try_from(table.names.len())
            .ok()
            .filter(|&h| h < u32::MAX)
            // lint: allow(no-unwrap) — invariant: 2^32 - 1 leaked names exceed any address space
            .expect("fewer than 2^32 - 1 model names");
        let name: &'static str = Box::leak(name.into());
        table.names.push(name);
        table.index.insert(name, handle);
        ModelName(handle)
    }

    /// The name, copied out of the table under its lock.
    pub(crate) fn as_str(self) -> &'static str {
        NAMES.lock().names[self.0 as usize]
    }
}

impl From<&str> for ModelName {
    fn from(name: &str) -> ModelName {
        ModelName::intern(name)
    }
}

impl From<String> for ModelName {
    fn from(name: String) -> ModelName {
        ModelName::intern(&name)
    }
}

impl std::ops::Deref for ModelName {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Debug for ModelName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for ModelName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl PartialEq<str> for ModelName {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for ModelName {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// A completion response.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletionResponse {
    /// The generated text (may include chatter around the answer).
    pub text: String,
    /// Token usage for this call.
    pub usage: Usage,
    /// Why generation stopped.
    pub finish_reason: FinishReason,
    /// Model that produced the response.
    pub model: ModelName,
    /// Whether this response was served from a client-side cache (cached
    /// responses incur no spend; budget guards skip them).
    pub cached: bool,
    /// The billing schedule this response is charged under — the serving
    /// backend's pricing, not necessarily the tier's reference pricing.
    /// With multi-backend routing, backends carry price multipliers, so
    /// the ledger, budget tracker, and operator cost meters all price a
    /// response from this field to stay mutually consistent.
    pub pricing: Pricing,
    /// The model's confidence in its answer, in `(0.5, 1.0]`, when the task
    /// has a binary answer — the simulator's analogue of answer-token log
    /// probabilities (§2 of the paper notes real APIs expose these).
    /// `None` for task kinds without a single binary answer.
    pub confidence: Option<f64>,
}

// The store and the journal keep every answer they hold as one `Arc` of
// this body: with its two counts, 72 bytes fill a 96-byte allocator block
// (a `String` name made the body 96 bytes, a 128-byte block, plus a block
// for the name). The client's shards keep a 32-byte record instead.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<CompletionResponse>() == 72);
const _: () = assert!(std::mem::size_of::<ModelName>() == 4);

/// A language model backend: the simulator here, or a network client in a
/// production deployment. Object safe; engines hold `Arc<dyn LanguageModel>`.
pub trait LanguageModel: Send + Sync {
    /// Stable model identifier (e.g. `"sim-gpt35"`).
    fn name(&self) -> &str;
    /// Maximum prompt size in tokens.
    fn context_window(&self) -> u32;
    /// Billing schedule.
    fn pricing(&self) -> Pricing;
    /// Execute one completion request.
    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, LlmError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskDescriptor;
    use crate::world::ItemId;

    fn dummy_task() -> TaskDescriptor {
        TaskDescriptor::CheckPredicate {
            item: ItemId(1),
            predicate: "is_positive".into(),
        }
    }

    #[test]
    fn a_name_interns_to_one_handle() {
        let a = ModelName::from("interned-twice");
        let b = ModelName::from(String::from("interned-twice"));
        assert_eq!(a, b);
        assert_ne!(a, ModelName::from("interned-once"));
        assert_eq!(a, "interned-twice");
        assert_eq!(&*a, "interned-twice");
    }

    #[test]
    fn a_name_formats_as_its_string() {
        for name in ["sim-gpt-3.5-turbo", "", "quote \" tab \t é 🦀"] {
            let handle = ModelName::from(name);
            let string = name.to_string();
            assert_eq!(format!("{handle:?}"), format!("{string:?}"));
            assert_eq!(format!("{handle}"), format!("{string}"));
            assert_eq!(format!("[{handle:>24}]"), format!("[{string:>24}]"));
        }
    }

    #[test]
    fn names_interned_from_many_threads_read_back() {
        // 500 names, interned from four threads at once: every handle reads
        // back its own name, and a name has one handle.
        let handles: Vec<Vec<(String, ModelName)>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|t| {
                    s.spawn(move || {
                        (0..300)
                            .map(|i| {
                                let name = format!("segment-model-{}", (i * 7 + t) % 500);
                                let handle = ModelName::from(name.as_str());
                                (name, handle)
                            })
                            .collect()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (name, handle) in handles.iter().flatten() {
            assert_eq!(handle.as_str(), name);
            assert_eq!(*handle, ModelName::from(name.as_str()));
        }
    }

    #[test]
    fn usage_arithmetic() {
        let a = Usage {
            prompt_tokens: 10,
            completion_tokens: 5,
        };
        let b = Usage {
            prompt_tokens: 1,
            completion_tokens: 2,
        };
        assert_eq!((a + b).total(), 18);
        let mut c = a;
        c += b;
        assert_eq!(c.prompt_tokens, 11);
    }

    /// `base` sampled at `temperature` as sample `sample_index`.
    fn sampled(base: &CompletionRequest, temperature: f64, sample_index: u32) -> CompletionRequest {
        CompletionRequest {
            temperature,
            sample_index,
            ..base.clone()
        }
    }

    #[test]
    fn temperature_and_sample_index_each_change_the_fingerprint() {
        let cold = CompletionRequest::new("Is item 0 in stock?", dummy_task());
        // A sampled request is its own cache entry.
        let warm = sampled(&cold, 0.7, 0);
        assert_ne!(warm.fingerprint(), cold.fingerprint());
        // The sample index keys only a sampled request.
        assert_eq!(sampled(&cold, 0.0, 5).fingerprint(), cold.fingerprint());
        assert_ne!(sampled(&cold, 0.7, 1).fingerprint(), warm.fingerprint());
    }

    #[test]
    fn fingerprint_ignores_attempt_which_only_moves_the_transport_draw() {
        let first = sampled(&CompletionRequest::new("p", dummy_task()), 0.7, 3);
        let mut retry = first.clone();
        retry.attempt = 2;
        assert_eq!(first.fingerprint(), retry.fingerprint());
        assert_eq!((first.transport_draw(), retry.transport_draw()), (3, 5));
    }

    #[test]
    fn fingerprint_sensitive_to_prompt_and_task() {
        let base = CompletionRequest::new("p", dummy_task());
        let other_prompt = CompletionRequest::new("q", dummy_task());
        assert_ne!(base.fingerprint(), other_prompt.fingerprint());

        let other_task = CompletionRequest::new(
            "p",
            TaskDescriptor::CheckPredicate {
                item: ItemId(2),
                predicate: "is_positive".into(),
            },
        );
        assert_ne!(base.fingerprint(), other_task.fingerprint());
    }
}
