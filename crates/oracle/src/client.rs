//! Client-side wrapper over a [`LanguageModel`]: a sharded response cache
//! with in-flight request coalescing, cost accounting, and one transport
//! path — every client dispatches through a [`Router`], which owns retries,
//! failover and hedging.
//!
//! This is the layer a production deployment would point at a network
//! backend; the declarative engine only ever talks to an [`LlmClient`].
//!
//! # One tier hierarchy
//!
//! Everything that can answer a request without the backend hangs off this
//! client, in one order (drawn in ARCHITECTURE.md, "Persistent cache"):
//! shards → store → flight claim → journal → backend. The first three are
//! free and come back `cached: true`. The store ([`LlmClient::attach_store`]) and the journal
//! ([`LlmClient::attach_journal`]) are both [`ResponseStore`]s; the slot
//! decides the charge. A journal hit *replays* the paid call a previous
//! process made: it charges the ledger what that call charged and comes
//! back `cached: false`, so the caller's budget and trace account for it
//! like any paid call. Because the journal sits behind the flight claim,
//! only a flight leader replays; concurrent duplicates join it for free,
//! as they did in the original run.
//!
//! # Concurrency design
//!
//! The paper's engine treats LLMs as noisy crowd workers, so every operator
//! funnels through this client from many threads at once. Two mechanisms
//! keep that hot path scalable:
//!
//! * **Sharded cache** — the temperature-0 response cache is split across
//!   16 shards, each behind its own mutex, so lookups of different keys
//!   contend on different locks instead of serializing on one global mutex.
//!   The hit path is deliberately lean: one lock acquisition performs both
//!   the lookup and the hit accounting (a plain in-lock counter — a shared
//!   atomic hit counter measurably dragged the hot-cache path), and the
//!   whole miss/coalescing machinery is outlined behind a cold call.
//! * **In-flight coalescing** — when two workers issue the *same*
//!   temperature-0 request concurrently, the second does not hit the
//!   backend: it registers as a joiner on the first request's "flight" and
//!   waits for the leader's result. Coalesced joins are free — they are
//!   never charged to the [`CostLedger`] and their responses are marked
//!   [`CompletionResponse::cached`], so budget guards skip them too.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::backend::BackendRegistry;
use crate::error::LlmError;
use crate::hash;
use crate::pricing::{CostLedger, Pricing};
use crate::route::{BreakerConfig, RoutePolicy, Router};
use crate::store::ResponseStore;
use crate::types::{
    CompletionRequest, CompletionResponse, FinishReason, LanguageModel, ModelName, Usage,
};

/// Number of cache shards (a power of two: the key's low bits pick one).
const CACHE_SHARDS: usize = 16;
const _: () = assert!(CACHE_SHARDS.is_power_of_two());

/// The policy behind [`LlmClient::new`]: what a client over one bare model
/// has always done — three attempts, no hedging. The breaker never opens:
/// a lone backend has nowhere to fail over to, so an open circuit could
/// only turn a retryable failure into `CircuitOpen`.
const SINGLE_MODEL_POLICY: RoutePolicy = RoutePolicy {
    max_retries: 2,
    hedge: None,
    breaker: BreakerConfig {
        failure_threshold: u32::MAX,
        cooldown: Duration::ZERO,
    },
};

/// Counters describing client behaviour, for traces and tests.
///
/// Cache hits are counted *inside* the shard lock the lookup already holds
/// (a plain `u64` bump on an L1-hot line) rather than on a shared atomic —
/// a dedicated atomic increment per hit measurably dragged the hot-cache
/// path below the seed's stats-free global-mutex client (a since-deleted
/// hot-cache bench; CHANGES.md has its numbers). [`LlmClient::stats`] folds the
/// shard counters into `cache_hits` before returning, so reads through a
/// freshly obtained reference are exact.
#[derive(Debug, Default)]
// lint: allow(pub-has-caller) — exposed by `LlmClient::stats`
pub struct ClientStats {
    calls: AtomicU64,
    cache_hits: AtomicU64,
    coalesced: AtomicU64,
    retries: AtomicU64,
    failures: AtomicU64,
    store_hits: AtomicU64,
}

impl ClientStats {
    /// Completed (non-cached) backend calls.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
    /// Requests served from the response cache (synced from the shard
    /// counters by [`LlmClient::stats`]).
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }
    /// Requests that joined another thread's identical in-flight request
    /// instead of hitting the backend.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }
    /// Retry attempts the router performed (beyond first attempts); synced
    /// from the router's counter by [`LlmClient::stats`].
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }
    /// Calls that ultimately failed.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }
    /// Requests served from the persistent store (a
    /// [`crate::store::ResponseStore`] attached via
    /// [`LlmClient::attach_store`]). Like cache hits, these charge nothing.
    pub fn store_hits(&self) -> u64 {
        self.store_hits.load(Ordering::Relaxed)
    }
}

/// One in-flight temperature-0 request: the leader executes the backend
/// call, joiners block on [`Flight::wait`] until the result is published.
struct Flight {
    state: Mutex<Option<Result<Arc<CompletionResponse>, LlmError>>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            state: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn publish(&self, result: Result<Arc<CompletionResponse>, LlmError>) {
        let mut state = self.state.lock();
        *state = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<Arc<CompletionResponse>, LlmError> {
        let mut state = self.state.lock();
        loop {
            if let Some(result) = state.as_ref() {
                return result.clone();
            }
            self.cv.wait(&mut state);
        }
    }
}

/// A shard's lock-protected state: its resident answers, packed, plus a
/// plain (non-atomic) hit counter — bumping it under the already-held lock
/// makes hit accounting cost one L1-hot increment instead of a contended
/// atomic RMW.
///
/// A resident answer is a fingerprint's slot in `index` and a 32-byte
/// [`Record`]; its text sits in the shard's text blocks and its pricing
/// is an index into the shard's short list of schedules. A hit builds the
/// caller's own [`CompletionResponse`] from the record under the lock: a
/// record copy and one text allocation, what cloning a shared body costs.
/// The shard holds no reference to the `Arc`'d body the store and the
/// journal keep: a serving process is bound by its resident bytes, and a
/// body block per answer would cost more than the record. A key's first
/// answer stays, as in the store: a temperature-0 answer does not change.
///
/// Answers repeat — a yes/no with its chatter, a label — so a text is
/// copied in only when `recent`, a table of the shard's texts by hash,
/// does not already point at the same bytes; records then share them.
///
/// Records and text live in blocks that are allocated once at their final
/// size and never moved: each block doubles its predecessor's size up to
/// [`RECORD_BLOCK`] records or [`TEXT_BLOCK`] bytes, so a growing shard
/// leaves no freed half-size buffers behind, and a small one allocates
/// small. An answer a record cannot locate — a text past the last text
/// block a record can name (4 GiB of text a shard) or longer than
/// `u32::MAX` bytes, a pricing past the shard's 256th — is kept whole in
/// `spilled`, never truncated.
#[derive(Default)]
struct ShardState {
    /// Fingerprint → record id (`block << RECORD_BITS | place`).
    index: HashMap<u64, u32>,
    records: Vec<Vec<Record>>,
    texts: Vec<String>,
    /// [`RECENT`] slots of `(text_at, len)`, picked by the text's hash;
    /// `len` 0 is a free slot.
    recent: Vec<(u32, u32)>,
    pricings: Vec<Pricing>,
    spilled: Vec<CompletionResponse>,
    hits: u64,
}

/// Records in a shard's first record block.
const FIRST_RECORDS: usize = 8;
/// A record id's bits for the record's place in its block.
const RECORD_BITS: u32 = 9;
/// Records in a full record block: 16 KiB.
const RECORD_BLOCK: usize = 1 << RECORD_BITS;
/// Bytes in a shard's first text block.
const FIRST_TEXT: usize = 256;
/// A `text_at`'s bits for the text's place in its block (`text_at` is
/// `block << TEXT_BITS | place`).
const TEXT_BITS: u32 = 14;
/// Bytes in a full text block; a longer text gets a block of its own.
const TEXT_BLOCK: usize = 1 << TEXT_BITS;
/// Slots in a shard's table of recent texts.
const RECENT: usize = 256;

/// [`Record::flags`]: the answer stopped at `max_tokens`.
const LENGTH: u8 = 1;
/// [`Record::flags`]: the answer carries a confidence.
const CONFIDENT: u8 = 2;
/// [`Record::flags`]: the answer is whole in [`ShardState::spilled`], at
/// `text_at`.
const SPILLED: u8 = 4;

/// One resident answer: every field of its [`CompletionResponse`] but the
/// text and the pricing inline, those two as places in its shard.
#[derive(Clone, Copy)]
struct Record {
    /// The confidence's bits, so `-0.0` and a NaN's payload come back.
    confidence: u64,
    /// Where the text starts (`block << TEXT_BITS | place`), or a spilled
    /// answer's index.
    text_at: u32,
    text_len: u32,
    usage: Usage,
    model: ModelName,
    /// Index into [`ShardState::pricings`].
    pricing: u8,
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<Record>() == 32);

/// The size of a shard's next block when it holds `blocks`: the first
/// size, doubled per block held, up to the full size.
fn block_size(blocks: usize, first: usize, full: usize) -> usize {
    (first << blocks.min(16)).min(full)
}

/// A pricing's bits, compared so that `-0.0` and `0.0` stay two schedules.
fn pricing_bits(pricing: &Pricing) -> (u64, u64) {
    (
        pricing.usd_per_1k_input.to_bits(),
        pricing.usd_per_1k_output.to_bits(),
    )
}

impl ShardState {
    /// The answer under `key`, counted as a hit: a caller's own copy marked
    /// [`CompletionResponse::cached`].
    #[inline]
    fn hit(&mut self, key: u64) -> Option<CompletionResponse> {
        let &id = self.index.get(&key)?;
        self.hits += 1;
        let record = self.records[(id >> RECORD_BITS) as usize][id as usize & (RECORD_BLOCK - 1)];
        if record.flags & SPILLED != 0 {
            return Some(served_free(&self.spilled[record.text_at as usize]));
        }
        Some(CompletionResponse {
            text: self.text(record.text_at, record.text_len).to_owned(),
            usage: record.usage,
            finish_reason: if record.flags & LENGTH == 0 {
                FinishReason::Stop
            } else {
                FinishReason::Length
            },
            model: record.model,
            cached: true,
            pricing: self.pricings[usize::from(record.pricing)],
            confidence: (record.flags & CONFIDENT != 0).then(|| f64::from_bits(record.confidence)),
        })
    }

    /// The `len` bytes of text at `text_at`.
    fn text(&self, text_at: u32, len: u32) -> &str {
        let place = (text_at & ((1 << TEXT_BITS) - 1)) as usize;
        &self.texts[(text_at >> TEXT_BITS) as usize][place..place + len as usize]
    }

    /// Keep `body` under `key` unless the key holds an answer already. An
    /// answer past the records a shard can number (2^32) is not kept.
    fn insert(&mut self, key: u64, body: &CompletionResponse) {
        if self.index.contains_key(&key) {
            return;
        }
        if let Some(id) = self
            .pack(body)
            .or_else(|| self.spill(body))
            .and_then(|record| self.push_record(record))
        {
            self.index.insert(key, id);
        }
    }

    /// `body` as a record; `None` when its text or pricing does not fit
    /// the record's fields.
    fn pack(&mut self, body: &CompletionResponse) -> Option<Record> {
        let text_len = u32::try_from(body.text.len()).ok()?;
        let pricing = self.pricing_index(&body.pricing)?;
        let text_at = self.keep_text(&body.text, text_len)?;
        let mut flags = 0;
        if body.finish_reason == FinishReason::Length {
            flags |= LENGTH;
        }
        if body.confidence.is_some() {
            flags |= CONFIDENT;
        }
        Some(Record {
            confidence: body.confidence.map_or(0, f64::to_bits),
            text_at,
            text_len,
            usage: body.usage,
            model: body.model,
            pricing,
            flags,
        })
    }

    /// `body` kept whole, and a record pointing at it.
    fn spill(&mut self, body: &CompletionResponse) -> Option<Record> {
        let text_at = u32::try_from(self.spilled.len()).ok()?;
        self.spilled.push(body.clone());
        Some(Record {
            confidence: 0,
            text_at,
            text_len: 0,
            usage: body.usage,
            model: body.model,
            pricing: 0,
            flags: SPILLED,
        })
    }

    /// The index of `pricing` in the shard's list, added if new.
    fn pricing_index(&mut self, pricing: &Pricing) -> Option<u8> {
        let bits = pricing_bits(pricing);
        match self.pricings.iter().position(|p| pricing_bits(p) == bits) {
            Some(at) => u8::try_from(at).ok(),
            None => {
                let at = u8::try_from(self.pricings.len()).ok()?;
                self.pricings.push(*pricing);
                Some(at)
            }
        }
    }

    /// Where `text` (`len` bytes) sits: the bytes its [`ShardState::recent`]
    /// slot points at when they are the same text, else a copy appended to
    /// the text blocks, which takes the slot.
    fn keep_text(&mut self, text: &str, len: u32) -> Option<u32> {
        if self.recent.is_empty() {
            self.recent = vec![(0, 0); RECENT];
        }
        let slot = hash::prompt_hash(text.as_bytes()) as usize & (RECENT - 1);
        let (at, held) = self.recent[slot];
        if held == len && len > 0 && self.text(at, len) == text {
            return Some(at);
        }
        let at = self.push_text(text)?;
        self.recent[slot] = (at, len);
        Some(at)
    }

    /// Copy `text` into the last text block, or into a new one when it does
    /// not fit there: its `text_at`.
    fn push_text(&mut self, text: &str) -> Option<u32> {
        let fits = self.texts.last().is_some_and(|block| {
            block.len() < TEXT_BLOCK && block.capacity() - block.len() >= text.len()
        });
        if !fits {
            if self.texts.len() >= 1 << (32 - TEXT_BITS) {
                return None;
            }
            let size = block_size(self.texts.len(), FIRST_TEXT, TEXT_BLOCK).max(text.len());
            self.texts.push(String::with_capacity(size));
        }
        let block = self.texts.len() - 1;
        let texts = &mut self.texts[block];
        let place = texts.len();
        texts.push_str(text);
        Some(((block as u32) << TEXT_BITS) | place as u32)
    }

    /// Append `record` to the last record block, or to a new one when it is
    /// full: its id.
    fn push_record(&mut self, record: Record) -> Option<u32> {
        if self
            .records
            .last()
            .is_none_or(|block| block.len() == block.capacity())
        {
            if self.records.len() >= 1 << (32 - RECORD_BITS) {
                return None;
            }
            let size = block_size(self.records.len(), FIRST_RECORDS, RECORD_BLOCK);
            self.records.push(Vec::with_capacity(size));
        }
        let block = self.records.len() - 1;
        let records = &mut self.records[block];
        records.push(record);
        Some(((block as u32) << RECORD_BITS) | (records.len() - 1) as u32)
    }
}

/// One cache shard: its resident answers plus the in-flight table for keys
/// that hash into this shard.
struct Shard {
    responses: Mutex<ShardState>,
    flights: Mutex<HashMap<u64, Arc<Flight>>>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            responses: Mutex::new(ShardState::default()),
            flights: Mutex::new(HashMap::new()),
        }
    }
}

/// What a thread should do after consulting the coalescing table.
enum Claim {
    /// Result was already cached (second-chance hit under the flight lock).
    Cached(CompletionResponse),
    /// Another thread is executing this request; wait on its flight.
    Join(Arc<Flight>),
    /// This thread is the leader and must execute the backend call.
    Lead(Arc<Flight>),
}

/// A sharded temperature-0 response cache with per-key in-flight request
/// coalescing.
struct ShardedCache {
    shards: [Shard; CACHE_SHARDS],
}

impl ShardedCache {
    fn new() -> Self {
        ShardedCache {
            shards: std::array::from_fn(|_| Shard::new()),
        }
    }

    #[inline]
    fn shard(&self, key: u64) -> &Shard {
        // The key is already a fingerprint hash; its low bits pick the shard.
        &self.shards[(key as usize) & (CACHE_SHARDS - 1)]
    }

    /// Fast path: one lock acquisition does lookup *and* hit accounting,
    /// and builds the caller's copy.
    #[inline]
    fn get(&self, key: u64) -> Option<CompletionResponse> {
        self.shard(key).responses.lock().hit(key)
    }

    /// Keep `body` under `key` in its shard.
    fn insert(&self, key: u64, body: &CompletionResponse) {
        self.shard(key).responses.lock().insert(key, body);
    }

    /// Total cache hits across shards (cold path; sums under each lock).
    fn total_hits(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| shard.responses.lock().hits)
            .sum()
    }

    /// Claim the right to execute `key`, or discover someone else has.
    ///
    /// Holding the shard's flight lock, the cache is checked once more (the
    /// leader may have finished between our cache miss and this claim), then
    /// either an existing flight is joined or a new one is installed with
    /// the caller as leader.
    fn claim(&self, key: u64) -> Claim {
        let shard = self.shard(key);
        let mut flights = shard.flights.lock();
        if let Some(hit) = shard.responses.lock().hit(key) {
            return Claim::Cached(hit);
        }
        if let Some(flight) = flights.get(&key) {
            return Claim::Join(Arc::clone(flight));
        }
        let flight = Arc::new(Flight::new());
        flights.insert(key, Arc::clone(&flight));
        Claim::Lead(flight)
    }

    /// Leader path: store a successful result, retire the flight, and wake
    /// all joiners. The shard keeps its own record of the body; the flight
    /// hands joiners the leader's `Arc`.
    ///
    /// The cache insert happens before the flight is removed so that no
    /// window exists in which a new thread misses both the cache and the
    /// flight table and re-executes the backend call.
    fn publish(
        &self,
        key: u64,
        flight: &Arc<Flight>,
        result: Result<Arc<CompletionResponse>, LlmError>,
    ) {
        let shard = self.shard(key);
        if let Ok(body) = &result {
            shard.responses.lock().insert(key, body);
        }
        shard.flights.lock().remove(&key);
        flight.publish(result);
    }
}

/// A caller's own copy of a shared body, marked
/// [`CompletionResponse::cached`].
fn served_free(body: &CompletionResponse) -> CompletionResponse {
    let mut hit = body.clone();
    hit.cached = true;
    hit
}

/// What [`LlmClient::probe`] found for a request.
#[derive(Debug, Clone, PartialEq)]
pub enum Probe {
    /// The shards or the store hold the answer; it comes back marked
    /// [`CompletionResponse::cached`] and is already counted.
    Hit(CompletionResponse),
    /// Neither holds it. The fingerprint the request missed under —
    /// hand it to [`LlmClient::complete_keyed`] — or `None` for a request
    /// the cache does not apply to, which was not hashed.
    Miss(Option<u64>),
}

/// A caching, coalescing client over any [`LanguageModel`], dispatching
/// through a [`Router`].
pub struct LlmClient {
    /// The router again, as the [`LanguageModel`] [`LlmClient::model`] hands out.
    model: Arc<dyn LanguageModel>,
    router: Arc<Router>,
    cache: ShardedCache,
    ledger: CostLedger,
    stats: ClientStats,
    cache_enabled: bool,
    /// Persistent tier below the shards; attach-once
    /// ([`LlmClient::attach_store`]).
    store: OnceLock<Arc<ResponseStore>>,
    /// Replay tier in front of the backend; attach-once
    /// ([`LlmClient::attach_journal`]).
    journal: OnceLock<Arc<ResponseStore>>,
}

impl LlmClient {
    /// Wrap one model, caching enabled: exactly
    /// [`LlmClient::routed`] over [`BackendRegistry::single`] with a fixed
    /// policy — three attempts, no hedging, and a breaker that never opens
    /// (a lone backend has nowhere to fail over to). Responses
    /// and pricing are bit-identical to calling `model` directly.
    pub fn new(model: Arc<dyn LanguageModel>) -> Self {
        LlmClient::routed(BackendRegistry::single(model), SINGLE_MODEL_POLICY)
    }

    /// A client dispatching through a [`Router`] over `registry`.
    ///
    /// The router sits *below* this client's cache and coalescing: a
    /// request that is retried across backends or hedged onto two backends
    /// still surfaces exactly one response here, so the ledger charges
    /// exactly one call — priced at the serving backend's schedule via
    /// [`CompletionResponse::pricing`]. The router owns the retry policy;
    /// its behaviour counters are reachable through [`LlmClient::router`].
    pub fn routed(registry: BackendRegistry, policy: RoutePolicy) -> Self {
        let router = Arc::new(Router::new(registry, policy));
        LlmClient {
            model: Arc::clone(&router) as Arc<dyn LanguageModel>,
            router,
            cache: ShardedCache::new(),
            ledger: CostLedger::new(),
            stats: ClientStats::default(),
            cache_enabled: true,
            store: OnceLock::new(),
            journal: OnceLock::new(),
        }
    }

    /// The router behind this client. Always `Some`: every client routes
    /// ([`LlmClient::new`] over a one-backend roster). The `Option` is the
    /// one leftover of the unrouted client, kept because the frozen
    /// `benchmark/` harness matches on it; flip it to `&Arc<Router>` when
    /// that directory next opens.
    pub fn router(&self) -> Option<&Arc<Router>> {
        Some(&self.router)
    }

    /// Disable the temperature-0 response cache (builder style). This also
    /// disables coalescing, which is keyed on cacheability.
    #[must_use]
    pub fn without_cache(mut self) -> Self {
        self.cache_enabled = false;
        self
    }

    /// Attach a persistent [`ResponseStore`] below the in-memory shards.
    ///
    /// Attach-once: returns `false` (and changes nothing) if a store is
    /// already attached. Once attached, cacheable (temperature-0) misses
    /// look their fingerprint up in the store before dispatching to the
    /// backend; hits seed the shard cache, are marked
    /// [`CompletionResponse::cached`], charge nothing to the ledger (exactly
    /// like in-memory cache hits, so meter == ledger == budget accounting is
    /// unchanged), and are counted in [`ClientStats::store_hits`].
    /// Freshly paid temperature-0 backend responses are admitted to the
    /// store.
    pub fn attach_store(&self, store: Arc<ResponseStore>) -> bool {
        self.store.set(store).is_ok()
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<&Arc<ResponseStore>> {
        self.store.get()
    }

    /// Attach a run journal: a [`ResponseStore`] in the replay slot, in
    /// front of the backend.
    ///
    /// Attach-once like [`LlmClient::attach_store`]. Every paid backend
    /// response — sampled (`temperature > 0`) ones included — is recorded
    /// under its request fingerprint, and a request whose fingerprint is
    /// already recorded is *replayed* instead of dispatched: no backend
    /// call (not counted in [`ClientStats::calls`]), but the ledger is
    /// charged what the original call charged and the response comes back
    /// `cached: false`. A process that reattaches the journal of a crashed
    /// run therefore re-runs only the gap, with results and accounting
    /// bit-identical to an uninterrupted run. The journal and its writer
    /// lock stay with the client until it drops; sessions sharing the
    /// client share it.
    pub fn attach_journal(&self, journal: Arc<ResponseStore>) -> bool {
        self.journal.set(journal).is_ok()
    }

    /// The attached run journal, if any.
    pub fn journal(&self) -> Option<&Arc<ResponseStore>> {
        self.journal.get()
    }

    /// The model this client serves: the router's view of its tier (the
    /// tier name, the smallest context window, the reference pricing).
    pub fn model(&self) -> &Arc<dyn LanguageModel> {
        &self.model
    }

    /// Accumulated usage and spend across all calls on this client.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Behaviour counters. Folds the shard-local hit counters into
    /// [`ClientStats::cache_hits`] and the router's retry count into
    /// [`ClientStats::retries`] before returning; read counters through a
    /// fresh `stats()` call rather than a long-held reference.
    pub fn stats(&self) -> &ClientStats {
        self.stats
            .cache_hits
            .store(self.cache.total_hits(), Ordering::Relaxed);
        self.stats
            .retries
            .store(self.router.retries(), Ordering::Relaxed);
        &self.stats
    }

    /// The one place a request in flight is hashed: look it up in the free
    /// tiers — the in-memory shards, then the attached store — and come
    /// back with the hit or with the key it missed under.
    ///
    /// A [`Probe::Hit`] is a real hit, counted in
    /// [`ClientStats::cache_hits`] (or [`ClientStats::store_hits`]) and
    /// marked [`CompletionResponse::cached`]. A [`Probe::Miss`] carries the
    /// request's fingerprint into [`LlmClient::complete_keyed`] (and
    /// [`LlmClient::probe_key`]), so the probe and the call are one hashing;
    /// it carries `None` for a request the cache does not apply to
    /// (temperature above zero, or caching disabled), which is not hashed.
    /// Dispatchers probe first to skip concurrency gates for requests that
    /// need no backend call.
    #[inline]
    pub fn probe(&self, request: &CompletionRequest) -> Probe {
        if !(self.cache_enabled && request.temperature == 0.0) {
            return Probe::Miss(None);
        }
        let key = request.fingerprint();
        match self.probe_key(key) {
            Some(hit) => Probe::Hit(hit),
            None => self.probe_store(key),
        }
    }

    /// The shards' answer for `key`, without hashing anything: the re-check
    /// of a key an earlier [`LlmClient::probe`] missed under, for a caller
    /// that held it a while (queued behind other work) and wants to know
    /// whether someone else's call has answered it since. Whoever did also
    /// filled the shard — a paid response is published there, and so is a
    /// store hit — which is why the store is not asked again.
    /// A hit counts and is marked exactly as [`LlmClient::probe`]'s.
    #[inline]
    pub fn probe_key(&self, key: u64) -> Option<CompletionResponse> {
        self.cache.get(key)
    }

    /// The store half of [`LlmClient::probe`], outlined so the shard hit
    /// stays a handful of instructions: on a store hit the body is seeded
    /// into the owning shard (so repeats stay in memory) and a copy marked
    /// [`CompletionResponse::cached`] is returned.
    #[cold]
    fn probe_store(&self, key: u64) -> Probe {
        let Some(arc) = self.store.get().and_then(|store| store.lookup(key)) else {
            return Probe::Miss(Some(key));
        };
        self.cache.insert(key, &arc);
        self.stats.store_hits.fetch_add(1, Ordering::Relaxed);
        Probe::Hit(served_free(&arc))
    }

    /// Seed the temperature-0 response cache with an externally produced
    /// response, so identical requests are served without dispatch.
    ///
    /// No ledger or stats effect here; a later lookup returns a copy marked
    /// [`CompletionResponse::cached`] like any other hit. No-op when the
    /// request is uncacheable (cache disabled, or temperature > 0) or its
    /// answer is already resident.
    pub fn seed_cache(&self, request: &CompletionRequest, response: &CompletionResponse) {
        if !(self.cache_enabled && request.temperature == 0.0) {
            return;
        }
        // lint: allow(one-fingerprint) — seeding is not a request in flight
        self.cache.insert(request.fingerprint(), response);
    }

    /// Execute one request with caching and coalescing:
    /// [`LlmClient::probe`], then [`LlmClient::complete_keyed`] on a miss.
    ///
    /// Only temperature-0 requests are cached (they are deterministic), and
    /// only they are coalesced: if an identical temperature-0 request is
    /// already executing on another thread, this call waits for that result
    /// instead of dispatching a duplicate backend call. Coalesced responses
    /// are marked [`CompletionResponse::cached`] and incur no ledger spend.
    ///
    /// Retryable errors are retried by the [`Router`] under its
    /// [`RoutePolicy`]; what surfaces here is its final answer.
    pub fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
        match self.probe(request) {
            Probe::Hit(hit) => Ok(hit),
            Probe::Miss(key) => self.complete_keyed(request, key),
        }
    }

    /// Complete a request [`LlmClient::probe`] missed, under the `key` that
    /// probe returned (`None`: the cache does not apply, go straight to the
    /// paid path). Nothing is hashed again and the tiers the probe
    /// already asked are not asked again; a key someone else filled in the
    /// meantime is still served free, by the flight claim's second look at
    /// the shard. On a cache-hot client this function is never entered.
    #[cold]
    pub fn complete_keyed(
        &self,
        request: &CompletionRequest,
        key: Option<u64>,
    ) -> Result<CompletionResponse, LlmError> {
        let Some(key) = key else {
            return self
                .call_backend(request, None)
                .map(|(response, _)| response);
        };
        // lint: allow(one-fingerprint) — debug builds check the key is the request's
        debug_assert_eq!(key, request.fingerprint());
        match self.cache.claim(key) {
            Claim::Cached(hit) => Ok(hit),
            Claim::Join(flight) => {
                // Registered as a joiner: counted before waiting so tests
                // (and metrics scrapes) can observe pending joins.
                self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                flight.wait().map(|body| served_free(&body))
            }
            Claim::Lead(flight) => {
                // If the backend panics, the drop guard publishes an error
                // and retires the flight so joiners (and all future
                // requests for this key) are not wedged forever.
                struct AbortGuard<'a> {
                    cache: &'a ShardedCache,
                    key: u64,
                    flight: &'a Arc<Flight>,
                    armed: bool,
                }
                impl Drop for AbortGuard<'_> {
                    fn drop(&mut self) {
                        if self.armed {
                            self.cache.publish(
                                self.key,
                                self.flight,
                                Err(LlmError::ServiceUnavailable),
                            );
                        }
                    }
                }
                let mut guard = AbortGuard {
                    cache: &self.cache,
                    key,
                    flight: &flight,
                    armed: true,
                };
                let result = self.call_backend(request, Some(key));
                guard.armed = false;
                match result {
                    Ok((response, journaled)) => {
                        // One body for every tier that keeps this response:
                        // the journal's, else a copy made here.
                        let body = journaled.unwrap_or_else(|| Arc::new(response.clone()));
                        if let Some(store) = self.store.get() {
                            store.admit_keyed(request, key, &body);
                        }
                        self.cache.publish(key, &flight, Ok(body));
                        Ok(response)
                    }
                    Err(e) => {
                        self.cache.publish(key, &flight, Err(e.clone()));
                        Err(e)
                    }
                }
            }
        }
    }

    /// The paid path: journal replay, else one dispatch through the router
    /// (which retries); stats and ledger accounting either way. `key` is
    /// the request's fingerprint when the caller has already computed it
    /// (the cacheable miss path); an uncacheable request is never probed, so
    /// it is hashed here, once, and only when a journal wants the key.
    /// Returns the caller's response and, when a journal is attached, the
    /// shared body recorded in (or replayed from) it.
    fn call_backend(
        &self,
        request: &CompletionRequest,
        key: Option<u64>,
    ) -> Result<(CompletionResponse, Option<Arc<CompletionResponse>>), LlmError> {
        let journal = self
            .journal
            .get()
            // lint: allow(one-fingerprint) — an unprobed request's one hash
            .map(|j| (j, key.unwrap_or_else(|| request.fingerprint())));
        if let Some(replayed) = journal.and_then(|(j, key)| j.lookup(key)) {
            // Stands in for the call a previous process paid for: charged
            // the same, dispatched nowhere.
            self.ledger.record(replayed.usage, replayed.pricing);
            return Ok(((*replayed).clone(), Some(replayed)));
        }
        // Backend latency must never be spent under a shim lock (the
        // lock_diagnostics build enforces this marker).
        parking_lot::blocking_region("backend dispatch");
        match self.router.complete(request) {
            Ok(resp) => {
                self.stats.calls.fetch_add(1, Ordering::Relaxed);
                // Priced at the serving backend's schedule (the response
                // carries it), not the tier's reference pricing — these
                // can differ per call.
                self.ledger.record(resp.usage, resp.pricing);
                let journaled = journal.map(|(journal, key)| {
                    let body = Arc::new(resp.clone());
                    journal.record(key, &body);
                    body
                });
                Ok((resp, journaled))
            }
            Err(e) => {
                self.stats.failures.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelProfile, NoiseProfile};
    use crate::pricing::Pricing;
    use crate::sim::SimulatedLlm;
    use crate::task::TaskDescriptor;
    use crate::world::WorldModel;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    fn world_and_ids(n: usize) -> (Arc<WorldModel>, Vec<crate::world::ItemId>) {
        let mut w = WorldModel::new();
        let ids = (0..n)
            .map(|i| {
                let id = w.add_item(format!("item {i}"));
                w.set_flag(id, "p", i % 2 == 0);
                id
            })
            .collect();
        (Arc::new(w), ids)
    }

    fn check_req(id: crate::world::ItemId) -> CompletionRequest {
        CompletionRequest::new(
            format!("Does item {} satisfy p?", id.0),
            TaskDescriptor::CheckPredicate {
                item: id,
                predicate: "p".into(),
            },
        )
    }

    #[test]
    fn cache_hits_deterministic_requests() {
        let (world, ids) = world_and_ids(1);
        let llm = Arc::new(SimulatedLlm::new(ModelProfile::perfect(), world, 1));
        let client = LlmClient::new(llm);
        let req = check_req(ids[0]);
        let a = client.complete(&req).unwrap();
        let b = client.complete(&req).unwrap();
        assert_eq!(a.text, b.text);
        assert_eq!(a.usage, b.usage);
        assert!(!a.cached);
        assert!(b.cached);
        assert_eq!(client.stats().calls(), 1);
        assert_eq!(client.stats().cache_hits(), 1);
        // Ledger only charged once.
        assert_eq!(client.ledger().calls(), 1);
    }

    #[test]
    fn no_cache_for_positive_temperature() {
        let (world, ids) = world_and_ids(1);
        let llm = Arc::new(SimulatedLlm::new(ModelProfile::perfect(), world, 1));
        let client = LlmClient::new(llm);
        let req = CompletionRequest {
            temperature: 0.7,
            ..check_req(ids[0])
        };
        client.complete(&req).unwrap();
        client.complete(&req).unwrap();
        assert_eq!(client.stats().calls(), 2);
        assert_eq!(client.stats().cache_hits(), 0);
    }

    #[test]
    fn retries_transient_failures_then_succeeds() {
        let (world, ids) = world_and_ids(1);
        // ~50% rate-limit probability: with 5 attempts success is near-certain.
        let profile = ModelProfile::perfect().with_noise(NoiseProfile {
            rate_limit_prob: 0.5,
            ..NoiseProfile::perfect()
        });
        let llm = Arc::new(SimulatedLlm::new(profile, world, 42));
        let client = LlmClient::routed(
            BackendRegistry::single(llm),
            RoutePolicy {
                max_retries: 9,
                ..SINGLE_MODEL_POLICY
            },
        );
        let mut succeeded = 0;
        for i in 0..20 {
            let req = CompletionRequest {
                sample_index: i * 100,
                ..check_req(ids[0])
            };
            if client.complete(&req).is_ok() {
                succeeded += 1;
            }
        }
        assert!(succeeded >= 19, "succeeded {succeeded}/20");
        assert!(client.stats().retries() > 0);
    }

    #[test]
    fn non_retryable_errors_fail_fast() {
        let (world, _) = world_and_ids(1);
        let llm = Arc::new(SimulatedLlm::new(
            ModelProfile::perfect().with_context_window(4),
            world,
            1,
        ));
        let client = LlmClient::new(llm);
        let req = CompletionRequest::new(
            "a prompt that is definitely longer than four tokens in total",
            TaskDescriptor::CheckPredicate {
                item: crate::world::ItemId(0),
                predicate: "p".into(),
            },
        );
        assert!(matches!(
            client.complete(&req),
            Err(LlmError::ContextOverflow { .. })
        ));
        assert_eq!(client.stats().retries(), 0);
        assert_eq!(client.stats().failures(), 1);
    }

    #[test]
    fn retries_exhausted_reports_last_error() {
        let (world, ids) = world_and_ids(1);
        let profile = ModelProfile::perfect().with_noise(NoiseProfile {
            rate_limit_prob: 1.0,
            ..NoiseProfile::perfect()
        });
        let llm = Arc::new(SimulatedLlm::new(profile, world, 1));
        let client = LlmClient::routed(
            BackendRegistry::single(llm),
            RoutePolicy {
                max_retries: 2,
                ..SINGLE_MODEL_POLICY
            },
        );
        match client.complete(&check_req(ids[0])) {
            Err(LlmError::RetriesExhausted { attempts, last }) => {
                assert_eq!(attempts, 3);
                assert!(matches!(*last, LlmError::RateLimited { .. }));
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn new_is_the_one_backend_roster_and_its_breaker_never_opens() {
        let (world, ids) = world_and_ids(64);
        // A dead model: every call exhausts its three attempts, and no
        // amount of consecutive failure turns that into `CircuitOpen`.
        let dead = ModelProfile::perfect().with_noise(NoiseProfile {
            rate_limit_prob: 1.0,
            ..NoiseProfile::perfect()
        });
        let client = LlmClient::new(Arc::new(SimulatedLlm::new(dead, Arc::clone(&world), 1)));
        for id in &ids {
            match client.complete(&check_req(*id)) {
                Err(LlmError::RetriesExhausted { attempts, last }) => {
                    assert_eq!(attempts, 3);
                    assert!(matches!(*last, LlmError::RateLimited { .. }));
                }
                other => panic!("expected exhaustion, got {other:?}"),
            }
        }
        assert_eq!(client.stats().failures(), ids.len() as u64);
        assert_eq!(client.stats().retries(), 2 * ids.len() as u64);

        // A healthy model: `new` and the explicit spelling agree on every
        // response, the ledger, and the tier they present.
        let llm: Arc<dyn LanguageModel> =
            Arc::new(SimulatedLlm::new(ModelProfile::gpt35_like(), world, 5));
        let plain = LlmClient::new(Arc::clone(&llm));
        let spelled = LlmClient::routed(
            BackendRegistry::single(Arc::clone(&llm)),
            RoutePolicy::default(),
        );
        for id in &ids {
            let req = check_req(*id);
            assert_eq!(plain.complete(&req), spelled.complete(&req));
        }
        assert_eq!(plain.ledger().calls(), spelled.ledger().calls());
        assert_eq!(plain.ledger().usage(), spelled.ledger().usage());
        assert_eq!(
            plain.ledger().spend_usd().to_bits(),
            spelled.ledger().spend_usd().to_bits()
        );
        for client in [&plain, &spelled] {
            assert_eq!(client.model().name(), llm.name());
            assert_eq!(client.model().pricing(), llm.pricing());
            assert_eq!(client.model().context_window(), llm.context_window());
        }
    }

    /// A backend whose `complete` blocks until released, so tests can hold a
    /// request in flight while other threads pile onto it.
    struct GatedModel {
        inner: SimulatedLlm,
        release: AtomicBool,
        entered: AtomicU64,
    }

    impl LanguageModel for GatedModel {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn context_window(&self) -> u32 {
            self.inner.context_window()
        }
        fn pricing(&self) -> Pricing {
            self.inner.pricing()
        }
        fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
            self.entered.fetch_add(1, Ordering::SeqCst);
            while !self.release.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            self.inner.complete(request)
        }
    }

    #[test]
    fn concurrent_identical_requests_coalesce_to_one_backend_call() {
        const THREADS: usize = 16;
        let (world, ids) = world_and_ids(1);
        let gated = Arc::new(GatedModel {
            inner: SimulatedLlm::new(ModelProfile::gpt35_like(), world, 9),
            release: AtomicBool::new(false),
            entered: AtomicU64::new(0),
        });
        let client = LlmClient::new(Arc::clone(&gated) as Arc<dyn LanguageModel>);
        let req = check_req(ids[0]);
        let barrier = Barrier::new(THREADS + 1);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..THREADS {
                handles.push(scope.spawn(|| {
                    barrier.wait();
                    client.complete(&req).unwrap()
                }));
            }
            barrier.wait();
            // Deterministic rendezvous: joiners register their coalesced
            // join *before* blocking, so once N-1 joins are visible every
            // non-leader thread is parked on the flight. Only then is the
            // leader's backend call released.
            while client.stats().coalesced() < (THREADS as u64) - 1 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            gated.release.store(true, Ordering::SeqCst);
            let texts: Vec<String> = handles
                .into_iter()
                .map(|h| h.join().unwrap().text)
                .collect();
            assert!(
                texts.windows(2).all(|w| w[0] == w[1]),
                "all joiners share one result"
            );
        });
        assert_eq!(client.stats().calls(), 1, "exactly one backend call");
        assert_eq!(gated.entered.load(Ordering::SeqCst), 1);
        assert_eq!(client.stats().coalesced(), (THREADS as u64) - 1);
        assert_eq!(client.stats().cache_hits(), 0);
        assert_eq!(client.ledger().calls(), 1, "joiners are free in the ledger");
    }

    #[test]
    fn leader_panic_releases_joiners_with_error() {
        const THREADS: usize = 4;

        /// Panics on the first (released) call, succeeds afterwards.
        struct PanicOnceModel {
            inner: SimulatedLlm,
            release: AtomicBool,
            panicked: AtomicBool,
        }
        impl LanguageModel for PanicOnceModel {
            fn name(&self) -> &str {
                self.inner.name()
            }
            fn context_window(&self) -> u32 {
                self.inner.context_window()
            }
            fn pricing(&self) -> Pricing {
                self.inner.pricing()
            }
            fn complete(
                &self,
                request: &CompletionRequest,
            ) -> Result<CompletionResponse, LlmError> {
                while !self.release.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                if !self.panicked.swap(true, Ordering::SeqCst) {
                    panic!("backend exploded mid-flight");
                }
                self.inner.complete(request)
            }
        }

        let (world, ids) = world_and_ids(1);
        let model = Arc::new(PanicOnceModel {
            inner: SimulatedLlm::new(ModelProfile::perfect(), world, 3),
            release: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
        });
        let client = LlmClient::new(Arc::clone(&model) as Arc<dyn LanguageModel>);
        let req = check_req(ids[0]);
        let mut joiner_results = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..THREADS {
                handles.push(scope.spawn(|| client.complete(&req)));
            }
            // All non-leaders are parked on the flight before the leader's
            // backend call is released (and panics).
            while client.stats().coalesced() < (THREADS as u64) - 1 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            model.release.store(true, Ordering::SeqCst);
            for h in handles {
                // The leader's panic propagates to its own thread; only
                // joiners land a result here.
                if let Ok(result) = h.join() {
                    joiner_results.push(result);
                }
            }
        });
        assert_eq!(
            joiner_results.len(),
            THREADS - 1,
            "leader panicked, joiners returned"
        );
        for r in &joiner_results {
            assert!(
                matches!(r, Err(LlmError::ServiceUnavailable)),
                "joiners get the abort error, got {r:?}"
            );
        }
        // The flight was retired: a fresh request executes and succeeds.
        let retry = client.complete(&req);
        assert!(retry.is_ok(), "flight retired after panic, got {retry:?}");
    }

    #[test]
    fn sharded_cache_stress_executes_each_key_once() {
        const THREADS: usize = 8;
        const OPS_PER_THREAD: usize = 2_000;
        const KEYS: usize = 64;
        let (world, ids) = world_and_ids(KEYS);
        let llm = Arc::new(SimulatedLlm::new(ModelProfile::gpt35_like(), world, 3));
        let client = LlmClient::new(llm);
        let reqs: Vec<CompletionRequest> = ids.iter().map(|id| check_req(*id)).collect();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let reqs = &reqs;
                let client = &client;
                scope.spawn(move || {
                    for i in 0..OPS_PER_THREAD {
                        let req = &reqs[(i * 31 + t * 7) % KEYS];
                        let resp = client.complete(req).unwrap();
                        assert!(!resp.text.is_empty());
                    }
                });
            }
        });
        let total = (THREADS * OPS_PER_THREAD) as u64;
        let stats = client.stats();
        assert_eq!(
            stats.calls() + stats.cache_hits() + stats.coalesced(),
            total,
            "every request is accounted exactly once"
        );
        assert_eq!(
            stats.calls(),
            KEYS as u64,
            "each distinct key executes once"
        );
        assert_eq!(client.ledger().calls(), KEYS as u64);
    }

    #[test]
    fn seeded_cache_serves_without_backend_calls() {
        let (world, ids) = world_and_ids(1);
        let llm = Arc::new(SimulatedLlm::new(ModelProfile::perfect(), world, 1));
        let client = LlmClient::new(llm);
        let req = check_req(ids[0]);
        assert_eq!(client.probe(&req), Probe::Miss(Some(req.fingerprint())));
        let canned = CompletionResponse {
            text: "yes.".into(),
            usage: crate::types::Usage {
                prompt_tokens: 7,
                completion_tokens: 2,
            },
            finish_reason: crate::types::FinishReason::Stop,
            model: "sim-gpt-3.5-turbo".into(),
            cached: false,
            pricing: Pricing::free(),
            confidence: None,
        };
        client.seed_cache(&req, &canned);
        let hit = client.complete(&req).unwrap();
        assert_eq!(hit.text, "yes.");
        assert!(hit.cached, "seeded entries serve as cache hits");
        assert_eq!(client.stats().calls(), 0, "no backend dispatch");
        assert_eq!(client.ledger().calls(), 0, "seeding charges nothing");
        // Uncacheable requests are ignored.
        let hot = CompletionRequest {
            temperature: 0.9,
            ..check_req(ids[0])
        };
        client.seed_cache(&hot, &canned);
        assert_eq!(client.probe(&hot), Probe::Miss(None), "not even hashed");
    }

    #[test]
    fn a_probed_miss_completes_under_its_key_and_a_fill_in_between_is_served_free() {
        let (world, ids) = world_and_ids(2);
        let llm = Arc::new(SimulatedLlm::new(ModelProfile::perfect(), world, 1));
        let client = LlmClient::new(llm);
        let (filled, paid) = (check_req(ids[0]), check_req(ids[1]));
        let Probe::Miss(key) = client.probe(&filled) else {
            panic!("nothing is cached yet");
        };
        // Someone else's call answers the key between the probe and the call.
        let theirs = client.complete(&filled).unwrap();
        let served = client.complete_keyed(&filled, key).unwrap();
        assert!(served.cached, "the flight claim's second look serves it");
        assert_eq!(served.text, theirs.text);
        assert_eq!(client.stats().calls(), 1, "their call, not a second one");

        let Probe::Miss(key) = client.probe(&paid) else {
            panic!("never asked");
        };
        let response = client.complete_keyed(&paid, key).unwrap();
        assert!(!response.cached);
        assert_eq!(client.stats().calls(), 2);
        let again = client
            .probe_key(key.unwrap())
            .expect("published to its shard");
        assert!(again.cached);
        assert_eq!(again.text, response.text);
    }

    fn store_temp_path(tag: &str) -> std::path::PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "crowdprompt-client-store-test-{}-{tag}-{n}.log",
            std::process::id()
        ))
    }

    fn store_cleanup(path: &std::path::Path) {
        std::fs::remove_file(path).ok();
        let mut lock = path.as_os_str().to_os_string();
        lock.push(".lock");
        std::fs::remove_file(std::path::PathBuf::from(lock)).ok();
    }

    #[test]
    fn store_warm_start_serves_without_backend_and_bit_identical() {
        use crate::store::{ResponseStore, StoreConfig};
        let path = store_temp_path("warm");
        let (world, ids) = world_and_ids(8);
        let requests: Vec<CompletionRequest> = ids.iter().map(|&id| check_req(id)).collect();

        // Process 1: cold run populates the store through the miss path.
        let cold_responses: Vec<CompletionResponse> = {
            let llm = Arc::new(SimulatedLlm::new(
                ModelProfile::perfect(),
                Arc::clone(&world),
                1,
            ));
            let client = LlmClient::new(llm);
            client.attach_store(Arc::new(
                ResponseStore::open(&path, StoreConfig::default()).unwrap(),
            ));
            let out: Vec<CompletionResponse> = requests
                .iter()
                .map(|r| client.complete(r).unwrap())
                .collect();
            assert_eq!(client.stats().calls(), requests.len() as u64);
            assert_eq!(client.store().unwrap().len(), requests.len());
            out
        };

        // Process 2 (simulated): fresh client, fresh in-memory cache, same
        // store file — every request is a store hit, zero backend calls,
        // zero ledger spend, results bit-identical apart from the cached
        // marking.
        let llm = Arc::new(SimulatedLlm::new(ModelProfile::perfect(), world, 1));
        let client = LlmClient::new(llm);
        client.attach_store(Arc::new(
            ResponseStore::open(&path, StoreConfig::default()).unwrap(),
        ));
        for (req, cold) in requests.iter().zip(&cold_responses) {
            let warm = client.complete(req).unwrap();
            assert!(warm.cached, "store hits are marked cached");
            assert_eq!(warm.text, cold.text);
            assert_eq!(warm.usage, cold.usage);
            assert_eq!(warm.model, cold.model);
            assert_eq!(warm.confidence, cold.confidence);
        }
        assert_eq!(client.stats().calls(), 0, "warm start: no backend calls");
        assert_eq!(client.stats().store_hits(), requests.len() as u64);
        assert_eq!(client.ledger().calls(), 0, "store hits charge nothing");
        assert!(client.ledger().spend_usd() < f64::EPSILON);
        // Second pass is served by the re-seeded in-memory shards.
        for req in &requests {
            assert!(client.complete(req).unwrap().cached);
        }
        assert_eq!(client.stats().store_hits(), requests.len() as u64);
        assert!(client.stats().cache_hits() >= requests.len() as u64);
        store_cleanup(&path);
    }

    #[test]
    fn probe_consults_store_exact_tier() {
        use crate::store::{ResponseStore, StoreConfig};
        let path = store_temp_path("peek");
        let (world, ids) = world_and_ids(1);
        let req = check_req(ids[0]);
        {
            let llm = Arc::new(SimulatedLlm::new(
                ModelProfile::perfect(),
                Arc::clone(&world),
                1,
            ));
            let client = LlmClient::new(llm);
            client.attach_store(Arc::new(
                ResponseStore::open(&path, StoreConfig::default()).unwrap(),
            ));
            client.complete(&req).unwrap();
        }
        let llm = Arc::new(SimulatedLlm::new(ModelProfile::perfect(), world, 1));
        let client = LlmClient::new(llm);
        client.attach_store(Arc::new(
            ResponseStore::open(&path, StoreConfig::default()).unwrap(),
        ));
        let Probe::Hit(probed) = client.probe(&req) else {
            panic!("exact store hit via probe");
        };
        assert!(probed.cached);
        assert_eq!(client.stats().calls(), 0);
        assert_eq!(client.stats().store_hits(), 1);
        // The store hit seeded the shard: the key alone finds it now.
        assert_eq!(client.probe_key(req.fingerprint()), Some(probed));
        assert_eq!(client.stats().cache_hits(), 1);
        store_cleanup(&path);
    }

    #[test]
    fn a_near_duplicate_prompt_is_a_paid_miss() {
        use crate::store::{ResponseStore, StoreConfig};
        let path = store_temp_path("near");
        let (world, ids) = world_and_ids(1);
        let base = check_req(ids[0]);
        {
            let llm = Arc::new(SimulatedLlm::new(
                ModelProfile::perfect(),
                Arc::clone(&world),
                1,
            ));
            let client = LlmClient::new(llm);
            client.attach_store(Arc::new(
                ResponseStore::open(&path, StoreConfig::default()).unwrap(),
            ));
            client.complete(&base).unwrap();
        }
        let llm = Arc::new(SimulatedLlm::new(ModelProfile::perfect(), world, 1));
        let client = LlmClient::new(llm);
        client.attach_store(Arc::new(
            ResponseStore::open(&path, StoreConfig::default()).unwrap(),
        ));
        // One character off the stored prompt: another fingerprint, and the
        // store answers by fingerprint only.
        let near = CompletionRequest::new(
            format!("Does item {} satisfy p??", ids[0].0),
            TaskDescriptor::CheckPredicate {
                item: ids[0],
                predicate: "p".into(),
            },
        );
        assert!(client.complete(&base).unwrap().cached);
        assert!(!client.complete(&near).unwrap().cached);
        assert_eq!(client.stats().store_hits(), 1);
        assert_eq!(client.stats().calls(), 1);
        assert_eq!(client.store().unwrap().len(), 2, "the miss is admitted");
        store_cleanup(&path);
    }

    #[test]
    fn attach_store_is_attach_once() {
        use crate::store::{ResponseStore, StoreConfig};
        let (path_a, path_b) = (store_temp_path("once-a"), store_temp_path("once-b"));
        let (world, _) = world_and_ids(1);
        let llm = Arc::new(SimulatedLlm::new(ModelProfile::perfect(), world, 1));
        let client = LlmClient::new(llm);
        assert!(client.store().is_none());
        let first = Arc::new(ResponseStore::open(&path_a, StoreConfig::default()).unwrap());
        assert!(client.attach_store(Arc::clone(&first)));
        let second = Arc::new(ResponseStore::open(&path_b, StoreConfig::default()).unwrap());
        assert!(!client.attach_store(second), "second attach refused");
        assert!(Arc::ptr_eq(client.store().unwrap(), &first));
        store_cleanup(&path_a);
        store_cleanup(&path_b);
    }

    #[test]
    fn journal_replays_charge_the_ledger_without_dispatch() {
        use crate::store::{ResponseStore, StoreConfig};
        let path = store_temp_path("journal");
        let (world, ids) = world_and_ids(1);
        // One cacheable call and one sampled call no cache tier keeps.
        let sampled = CompletionRequest {
            temperature: 0.7,
            ..check_req(ids[0])
        };
        let requests = [check_req(ids[0]), sampled];
        let run = || {
            let llm = SimulatedLlm::new(ModelProfile::perfect(), Arc::clone(&world), 1);
            let client = LlmClient::new(Arc::new(llm));
            let journal = Arc::new(ResponseStore::open(&path, StoreConfig::default()).unwrap());
            assert!(client.attach_journal(Arc::clone(&journal)));
            assert!(!client.attach_journal(journal), "attach-once");
            let out = requests.each_ref().map(|r| client.complete(r).unwrap());
            (client, out)
        };
        let (first, paid) = run();
        assert_eq!(first.stats().calls(), 2);
        assert_eq!(first.journal().unwrap().len(), 2, "sampled call recorded");
        let spend = first.ledger().spend_usd().to_bits();
        drop(first);

        // A fresh process on the same journal: same responses, same
        // charges, nothing dispatched.
        let (resumed, replayed) = run();
        assert_eq!(replayed, paid);
        assert!(replayed.iter().all(|r| !r.cached), "replays are paid calls");
        assert_eq!(resumed.stats().calls(), 0);
        assert_eq!(resumed.ledger().spend_usd().to_bits(), spend);
        // The replay seeded the shards, so a repeat is an ordinary free hit.
        assert!(resumed.complete(&requests[0]).unwrap().cached);
        assert_eq!(resumed.ledger().calls(), 2);
        drop(resumed);
        store_cleanup(&path);
    }

    #[test]
    fn a_paid_miss_is_one_body_in_the_store_and_the_journal_and_an_equal_hit_in_the_shard() {
        use crate::store::{ResponseStore, StoreConfig};
        let (store_path, journal_path) = (store_temp_path("one-body"), store_temp_path("one-j"));
        let (world, ids) = world_and_ids(1);
        let llm = Arc::new(SimulatedLlm::new(ModelProfile::perfect(), world, 1));
        let client = LlmClient::new(llm);
        client.attach_store(Arc::new(
            ResponseStore::open(&store_path, StoreConfig::default()).unwrap(),
        ));
        let journal = Arc::new(ResponseStore::open(&journal_path, StoreConfig::default()).unwrap());
        assert!(client.attach_journal(Arc::clone(&journal)));
        let req = check_req(ids[0]);
        let key = req.fingerprint();
        let paid = client.complete(&req).unwrap();
        assert_eq!(client.stats().calls(), 1);

        let stored = client.store().unwrap().lookup(key).expect("admitted");
        let journaled = journal.lookup(key).expect("recorded");
        assert!(Arc::ptr_eq(&stored, &journaled));
        assert_eq!(*stored, paid, "the caller's copy is the same response");
        let shard = client.cache.get(key).expect("published to its shard");
        assert_eq!(
            shard,
            CompletionResponse {
                cached: true,
                ..paid
            }
        );
        drop(client);
        store_cleanup(&store_path);
        store_cleanup(&journal_path);
    }

    /// A model answering each prompt with its canned response. The backend
    /// stamps its one schedule on every response, so a client over it bills
    /// at `pricing`.
    struct Canned {
        answers: HashMap<String, CompletionResponse>,
        pricing: Pricing,
    }

    impl LanguageModel for Canned {
        fn name(&self) -> &str {
            "canned"
        }
        fn context_window(&self) -> u32 {
            u32::MAX
        }
        fn pricing(&self) -> Pricing {
            self.pricing
        }
        fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
            self.answers
                .get(&request.prompt)
                .cloned()
                .ok_or(LlmError::ServiceUnavailable)
        }
    }

    fn canned_client(request: &CompletionRequest, answer: &CompletionResponse) -> LlmClient {
        LlmClient::new(Arc::new(Canned {
            answers: HashMap::from([(request.prompt.clone(), answer.clone())]),
            pricing: answer.pricing,
        }))
    }

    /// `got` is `want` field for field, the `f64`s by their bits, and
    /// marked cached.
    fn assert_resident(got: &CompletionResponse, want: &CompletionResponse, path: &str) {
        assert_eq!(got.text, want.text, "{path}");
        assert_eq!(got.usage, want.usage, "{path}");
        assert_eq!(got.finish_reason, want.finish_reason, "{path}");
        assert_eq!(got.model, want.model, "{path}");
        assert!(got.cached, "{path}");
        assert_eq!(
            pricing_bits(&got.pricing),
            pricing_bits(&want.pricing),
            "{path}"
        );
        assert_eq!(
            got.confidence.map(f64::to_bits),
            want.confidence.map(f64::to_bits),
            "{path}"
        );
    }

    /// `n` requests whose fingerprints all pick shard 0, so their answers
    /// share its blocks and its list of schedules.
    fn shard_zero_requests(n: usize) -> Vec<CompletionRequest> {
        (0..)
            .map(|i| {
                CompletionRequest::new(
                    format!("resident case {i}"),
                    TaskDescriptor::CheckPredicate {
                        item: crate::world::ItemId(i),
                        predicate: "p".into(),
                    },
                )
            })
            .filter(|request| request.fingerprint() as usize & (CACHE_SHARDS - 1) == 0)
            .take(n)
            .collect()
    }

    fn answer(
        text: &str,
        finish_reason: FinishReason,
        confidence: Option<f64>,
        pricing: Pricing,
        model: &str,
    ) -> CompletionResponse {
        CompletionResponse {
            text: text.into(),
            usage: Usage {
                prompt_tokens: 11,
                completion_tokens: text.len() as u32 / 4,
            },
            finish_reason,
            model: model.into(),
            cached: false,
            pricing,
            confidence,
        }
    }

    #[test]
    fn a_resident_answer_comes_back_field_for_field() {
        use crate::store::{ResponseStore, StoreConfig};
        let (cheap, dear) = (Pricing::new(0.0015, 0.002), Pricing::new(0.03, 0.06));
        // Two schedules equal as numbers, not as bits: the shard keeps both.
        let (free, signed) = (Pricing::free(), Pricing::new(-0.0, 0.0));
        let nan = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let long = "a ten-kilobyte answer; ".repeat(446);
        assert!(long.len() >= 10 * 1024);
        let cases = [
            answer("", FinishReason::Stop, None, free, "sim-one"),
            answer(
                "naïve: 東京の寿司 🍣, oui",
                FinishReason::Length,
                Some(0.5),
                dear,
                "sim-two",
            ),
            answer(&long, FinishReason::Stop, Some(-0.0), cheap, "sim-two"),
            answer("Yes.", FinishReason::Length, Some(nan), signed, "sim-one"),
        ];
        let requests = shard_zero_requests(cases.len());

        // Seeded: every case in one shard, sharing its blocks and schedules.
        let seeded = LlmClient::new(Arc::new(Canned {
            answers: HashMap::new(),
            pricing: cheap,
        }));
        for (request, case) in requests.iter().zip(&cases) {
            seeded.seed_cache(request, case);
        }
        for (request, case) in requests.iter().zip(&cases) {
            let Probe::Hit(hit) = seeded.probe(request) else {
                panic!("seeded answers are resident");
            };
            assert_resident(&hit, case, "seeded");
        }

        for (request, case) in requests.iter().zip(&cases) {
            // A paid miss publishes to the shard; a probed key the fill
            // answered since is served by the flight claim's second look.
            let client = canned_client(request, case);
            let Probe::Miss(key) = client.probe(request) else {
                panic!("nothing is resident yet");
            };
            let paid = client.complete(request).unwrap();
            assert!(!paid.cached);
            let paid = CompletionResponse {
                cached: true,
                ..paid
            };
            assert_resident(&paid, case, "the backend's answer");
            let filled = client.complete_keyed(request, key).unwrap();
            assert_resident(&filled, case, "complete_keyed after a fill");
            assert_resident(&client.probe_key(key.unwrap()).unwrap(), case, "paid miss");
            assert_eq!(client.stats().calls(), 1);

            // A store hit seeds the shard, which serves the repeat.
            let path = store_temp_path("resident");
            let store = || Arc::new(ResponseStore::open(&path, StoreConfig::default()).unwrap());
            let filler = canned_client(request, case);
            filler.attach_store(store());
            filler.complete(request).unwrap();
            drop(filler);
            let warm = canned_client(request, case);
            warm.attach_store(store());
            assert_resident(&warm.complete(request).unwrap(), case, "store hit");
            assert_resident(
                &warm.complete(request).unwrap(),
                case,
                "seeded by a store hit",
            );
            assert_eq!((warm.stats().store_hits(), warm.stats().calls()), (1, 0));
            drop(warm);
            store_cleanup(&path);
        }
    }

    #[test]
    fn an_answer_past_a_records_fields_is_kept_whole() {
        // Three hundred schedules in one shard: from the 257th on, a
        // record's one-byte pricing index cannot name them.
        let requests = shard_zero_requests(300);
        let answers: Vec<CompletionResponse> = (0..requests.len())
            .map(|i| {
                let pricing = Pricing::new(i as f64, 0.5);
                answer(
                    &format!("answer {i}"),
                    FinishReason::Stop,
                    None,
                    pricing,
                    "m",
                )
            })
            .collect();
        let client = LlmClient::new(Arc::new(Canned {
            answers: HashMap::new(),
            pricing: Pricing::free(),
        }));
        for (request, answer) in requests.iter().zip(&answers) {
            client.seed_cache(request, answer);
        }
        for (request, answer) in requests.iter().zip(&answers) {
            let Probe::Hit(hit) = client.probe(request) else {
                panic!("every answer is resident");
            };
            assert_resident(&hit, answer, "past the schedules");
        }
        assert_eq!(client.cache.shards[0].responses.lock().spilled.len(), 44);

        // A text past the last text block a record can name.
        let mut state = ShardState::default();
        state.texts.resize(1 << (32 - TEXT_BITS), String::new());
        state.insert(7, &answers[1]);
        assert_eq!(state.spilled.len(), 1);
        assert_resident(&state.hit(7).unwrap(), &answers[1], "past the text blocks");
    }

    #[test]
    fn a_keys_first_answer_stays() {
        let mut state = ShardState::default();
        let first = answer("Yes.", FinishReason::Stop, Some(0.9), Pricing::free(), "m");
        state.insert(3, &first);
        let second = answer("No.", FinishReason::Length, None, Pricing::free(), "m");
        state.insert(3, &second);
        assert_resident(&state.hit(3).unwrap(), &first, "first write");
        assert_eq!(state.texts[0].len(), first.text.len(), "nothing appended");
    }

    #[test]
    fn answers_with_one_text_share_its_bytes() {
        let mut state = ShardState::default();
        let yes = answer("Yes.", FinishReason::Stop, Some(0.9), Pricing::free(), "m");
        let no = answer("No.", FinishReason::Length, None, Pricing::free(), "m");
        let pick = |key: u64| if key.is_multiple_of(3) { &no } else { &yes };
        for key in 0..100 {
            state.insert(key, pick(key));
        }
        let kept: usize = state.texts.iter().map(String::len).sum();
        assert_eq!(kept, yes.text.len() + no.text.len());
        for key in 0..100 {
            assert_resident(&state.hit(key).unwrap(), pick(key), "shared text");
        }
    }
}
