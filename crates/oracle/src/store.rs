//! A crash-safe, content-addressed, disk-backed response store.
//!
//! Every cache before this one ([`crate::client::LlmClient`]'s sharded
//! in-memory tier, its in-flight coalescing) dies with the process, so a
//! service absorbing heavy repeat traffic pays full cold-start cost on every
//! restart. [`ResponseStore`] is the persistent tier layered *under* the
//! in-memory shards: an append-only checksummed record log (the shared
//! [`crate::recordlog`] discipline — fingerprint-keyed records, f64-as-bits,
//! flushed single-line appends, FNV-1a prefix verification with torn-tail
//! truncation on open) plus an in-memory fingerprint index rebuilt on open.
//!
//! # Tiers
//!
//! * **Exact** — [`ResponseStore::lookup`] by request fingerprint. A hit is
//!   bit-identical to the response the original process paid for, and is
//!   served by the client marked `cached: true`: zero backend spend, exactly
//!   like an in-memory cache hit, so meter == ledger == budget accounting
//!   holds unchanged.
//! * **Semantic** (opt-in, [`StoreConfig::semantic`]) — temperature-0
//!   prompts are embedded through `crowdprompt_embed` and near-duplicate
//!   prompts within a distance threshold are answered from the nearest
//!   stored neighbor ([`ResponseStore::lookup_semantic`]). Approximate by
//!   construction; hits are counted separately
//!   ([`crate::ClientStats::semantic_hits`]) and their accuracy cost is
//!   measured in-bench through the outcome meter.
//!
//! # Eviction and admission
//!
//! Eviction is *generation*-based, not wall-clock: callers advance a
//! monotone generation counter ([`ResponseStore::advance_generation`], e.g.
//! once per deploy or per corpus refresh) and entries older than
//! [`StoreConfig::ttl_generations`] stop being served and are dropped at the
//! next [`ResponseStore::compact`]. Admission is *cost-aware*: each entry
//! carries the recompute cost observed at admission
//! (`pricing.cost_usd(usage)` — the same number the ledger charged), and at
//! capacity a candidate cheaper than [`StoreConfig::admission_floor`] × the
//! mean live cost-per-entry is refused while eviction drops cheapest-first,
//! so cheap responses never displace expensive ones.
//!
//! # Process discipline
//!
//! Single-writer, multi-reader: [`ResponseStore::open`] takes an advisory
//! lock on a sidecar `<path>.lock` file and fails if another writer holds
//! it; the kernel releases it when the handle drops or the process dies,
//! so a killed writer never blocks the next open (the sidecar file stays).
//! [`ResponseStore::open_read_only`] takes no lock, never truncates, and
//! simply ignores a torn tail.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::{File, OpenOptions, TryLockError};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crowdprompt_embed::{
    dot_unrolled, Embedder, KnnIndex, Metric, NgramEmbedder, Queries, VectorStore,
};

use crate::recordlog::{
    decode_response_fields, encode_response_fields, escape, unescape, LogFile, RESPONSE_FIELDS,
};
use crate::types::{CompletionRequest, CompletionResponse};

/// The store's header line (also its format version gate).
const HEADER: &str = "crowdprompt-store v1";

/// Semantic-tier configuration: embed temperature-0 prompts and answer
/// near-duplicates within `threshold` of a stored neighbor.
#[derive(Debug, Clone)]
pub struct SemanticConfig {
    /// Maximum embedding distance (L2 over unit-normalized hashed n-gram
    /// vectors, so `0.0 ..= 2.0`) at which a stored neighbor may answer.
    pub threshold: f32,
    /// Embedding dimensionality (default 256, matching `NgramEmbedder`).
    pub dimensions: usize,
    /// Character n-gram width (default 3).
    pub ngram: usize,
}

impl SemanticConfig {
    /// Semantic tier with the default embedder shape and the given
    /// distance threshold.
    pub fn new(threshold: f32) -> Self {
        SemanticConfig {
            threshold,
            dimensions: 256,
            ngram: 3,
        }
    }
}

/// Tuning knobs for a [`ResponseStore`]. The default is an unbounded,
/// never-expiring, exact-only store — the safe configuration for a cache
/// whose entries are deterministic temperature-0 completions.
#[derive(Debug, Clone, Default)]
pub struct StoreConfig {
    /// Maximum live entries; `None` = unbounded. At capacity, admission
    /// becomes cost-aware and eviction drops cheapest-first.
    pub capacity: Option<usize>,
    /// Entries admitted at generation `g` stop being served once
    /// `generation() - g >= ttl` and are dropped at the next compaction;
    /// `None` = entries never expire.
    pub ttl_generations: Option<u64>,
    /// At capacity, refuse candidates cheaper than this fraction of the
    /// mean live cost-per-entry (`0.0` admits everything).
    pub admission_floor: f64,
    /// Opt-in semantic tier; `None` = exact-only.
    pub semantic: Option<SemanticConfig>,
}

/// A semantic-tier hit: the neighbor that answered, how far away it was,
/// and its stored response.
#[derive(Debug, Clone)]
pub struct SemanticHit {
    /// Fingerprint of the stored neighbor whose response is being reused.
    pub fingerprint: u64,
    /// Embedding distance between the query prompt and the neighbor's.
    pub distance: f32,
    /// The neighbor's stored response.
    pub response: Arc<CompletionResponse>,
}

/// One live store entry: the response, its admission generation (for TTL),
/// its observed recompute cost (for admission/eviction), and the prompt
/// that produced it (for semantic indexing and compaction rewrites).
struct StoredEntry {
    response: Arc<CompletionResponse>,
    generation: u64,
    cost_usd: f64,
    prompt: Box<str>,
}

/// The embedding-keyed approximate tier: a sealed `KnnIndex` over the
/// vectors known at the last (re)build plus a brute-scanned unsealed tail,
/// so inserts stay cheap and queries stay exact over the full set. Each
/// vector is held once — in the sealed index's store or in the tail — and
/// both are ranked by the one fused distance formula, so a row's distance
/// to a query does not change when a reseal moves it.
struct SemanticTier {
    threshold: f32,
    embedder: NgramEmbedder,
    /// Rows `0..sealed.len()`.
    sealed: KnnIndex,
    /// The rows inserted since the last (re)build, row-major at the
    /// embedder's dimensionality: row `sealed.len() + i` is the `i`-th.
    tail: Vec<f32>,
    /// Fingerprint of the entry each row answers for, sealed rows then tail
    /// rows. Rows whose entry has been evicted or replaced are filtered at
    /// query time and dropped at the next reseal.
    fingerprints: Vec<u64>,
    /// Row index of each member fingerprint (duplicate-push guard).
    members: HashMap<u64, usize>,
}

impl SemanticTier {
    fn new(config: &SemanticConfig) -> SemanticTier {
        let empty = VectorStore::from_flat(Vec::new(), config.dimensions);
        SemanticTier {
            threshold: config.threshold,
            embedder: NgramEmbedder::new(config.dimensions, config.ngram),
            sealed: KnnIndex::build(empty, Metric::L2, None),
            tail: Vec::new(),
            fingerprints: Vec::new(),
            members: HashMap::new(),
        }
    }

    /// Index `prompt` as answering for `fingerprint` (no-op if already a
    /// member — identical fingerprints imply identical prompts).
    fn insert(&mut self, fingerprint: u64, prompt: &str) {
        if self.members.contains_key(&fingerprint) {
            return;
        }
        self.members.insert(fingerprint, self.fingerprints.len());
        self.fingerprints.push(fingerprint);
        let start = self.tail.len();
        self.tail.resize(start + self.embedder.dimensions(), 0.0);
        self.embedder.embed_into(prompt, &mut self.tail[start..]);
    }

    /// Rebuild the sealed index when the brute-scanned tail has outgrown
    /// it, dropping rows whose entries are no longer live.
    fn maybe_reseal(&mut self, entries: &HashMap<u64, StoredEntry>) {
        let sealed = self.sealed.len();
        if self.fingerprints.len() - sealed > (sealed / 2).max(64) {
            self.reseal(|fp| entries.contains_key(&fp));
        }
    }

    /// Move every row whose fingerprint passes `keep` into a fresh sealed
    /// index, in row order; the tail empties.
    fn reseal(&mut self, keep: impl Fn(u64) -> bool) {
        let dims = self.embedder.dimensions();
        let sealed = self.sealed.store();
        let rows = sealed
            .as_flat()
            .chunks_exact(dims)
            .chain(self.tail.chunks_exact(dims));
        let mut flat = Vec::with_capacity(self.fingerprints.len() * dims);
        let mut fingerprints = Vec::with_capacity(self.fingerprints.len());
        for (row, &fp) in rows.zip(&self.fingerprints) {
            if keep(fp) {
                flat.extend_from_slice(row);
                fingerprints.push(fp);
            }
        }
        self.members = fingerprints
            .iter()
            .enumerate()
            .map(|(row, &fp)| (fp, row))
            .collect();
        self.fingerprints = fingerprints;
        self.sealed = KnnIndex::build(VectorStore::from_flat(flat, dims), Metric::L2, None);
        self.tail.clear();
    }

    /// Nearest live, unexpired neighbor within the threshold, if any.
    /// Exact over the full set: best of the sealed index and a brute scan
    /// of the unsealed tail, both by the index's fused distance.
    fn query(&self, vector: &[f32], is_live: impl Fn(u64) -> bool) -> Option<(u64, f32)> {
        let mut best: Option<(u64, f32)> = None;
        let mut consider = |fp: u64, d: f32| {
            if d <= self.threshold && is_live(fp) && best.is_none_or(|(_, bd)| d < bd) {
                best = Some((fp, d));
            }
        };
        // A few extra candidates so a dead nearest row doesn't mask a
        // live one just behind it.
        for n in self
            .sealed
            .search(Queries::Flat(vector), 8)
            .iter()
            .flatten()
        {
            consider(self.fingerprints[n.index], n.distance);
        }
        let metric = self.sealed.metric();
        let norm_sq = dot_unrolled(vector, vector);
        let tail = self.tail.chunks_exact(self.embedder.dimensions());
        for (v, &fp) in tail.zip(&self.fingerprints[self.sealed.len()..]) {
            let key = metric.rank_key(dot_unrolled(vector, v), norm_sq, dot_unrolled(v, v));
            consider(fp, metric.key_to_distance(key));
        }
        best
    }
}

/// The single-writer lock: a kernel advisory lock on the `<path>.lock`
/// sidecar, released when the store drops *or its process dies*. The
/// sidecar stays behind (unlinking it would let a racing `acquire` lock a
/// different inode); it holds the writer's pid for the refusal message.
struct WriterLock {
    _file: File,
}

/// The writer-lock path for a store file: `<path>.lock`.
fn lock_path(store_path: &Path) -> PathBuf {
    let mut name = store_path.as_os_str().to_os_string();
    name.push(".lock");
    PathBuf::from(name)
}

impl WriterLock {
    fn acquire(store_path: &Path) -> std::io::Result<WriterLock> {
        let path = lock_path(store_path);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        match file.try_lock() {
            Ok(()) => {
                let _ = file.set_len(0);
                let _ = writeln!(file, "{}", std::process::id());
                Ok(WriterLock { _file: file })
            }
            Err(TryLockError::WouldBlock) => Err(std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                format!(
                    "response store '{}' already has a writer (lock '{}' held by pid {}); \
                     open read-only, or wait for that handle to drop",
                    store_path.display(),
                    path.display(),
                    std::fs::read_to_string(&path).unwrap_or_default().trim(),
                ),
            )),
            Err(TryLockError::Error(e)) => Err(e),
        }
    }
}

/// Lock-protected store internals.
struct StoreInner {
    log: Option<LogFile>,
    entries: HashMap<u64, StoredEntry>,
    generation: u64,
    /// Records on disk superseded by replacement or eviction; compaction
    /// trigger.
    dead_records: usize,
    semantic: Option<SemanticTier>,
}

impl StoreInner {
    /// Whether an entry admitted at `generation` is expired under `ttl`.
    fn expired(&self, entry_generation: u64, ttl: Option<u64>) -> bool {
        match ttl {
            Some(t) => self.generation.saturating_sub(entry_generation) >= t,
            None => false,
        }
    }

    /// The live, unexpired entry for `fingerprint`, if any.
    fn live(&self, fingerprint: u64, ttl: Option<u64>) -> Option<&StoredEntry> {
        self.entries
            .get(&fingerprint)
            .filter(|e| !self.expired(e.generation, ttl))
    }

    /// Apply one replayed record payload; `false` rejects (truncating the
    /// log there on a writer open).
    fn apply_record(&mut self, payload: &str) -> bool {
        let fields: Vec<&str> = payload.split('\t').collect();
        match fields.first() {
            Some(&"G") if fields.len() == 2 => {
                let Some(g) = crate::hash::parse_hex64(fields[1]) else {
                    return false;
                };
                self.generation = self.generation.max(g);
                true
            }
            Some(&"D") if fields.len() == 2 => {
                let Some(fp) = crate::hash::parse_hex64(fields[1]) else {
                    return false;
                };
                // The drop marker and the record it killed are both
                // reclaimable at the next compaction.
                self.dead_records += 1;
                if self.entries.remove(&fp).is_some() {
                    self.dead_records += 1;
                }
                true
            }
            Some(&"R") if fields.len() == 3 + RESPONSE_FIELDS => {
                let Some(generation) = crate::hash::parse_hex64(fields[1]) else {
                    return false;
                };
                let Some(prompt) = unescape(fields[2]) else {
                    return false;
                };
                let Some((fingerprint, response)) = decode_response_fields(&fields[3..]) else {
                    return false;
                };
                let cost_usd = response.pricing.cost_usd(response.usage);
                // Index first: the tier borrows the prompt the entry then
                // takes.
                if let Some(tier) = &mut self.semantic {
                    tier.insert(fingerprint, &prompt);
                }
                if self
                    .entries
                    .insert(
                        fingerprint,
                        StoredEntry {
                            response: Arc::new(response),
                            generation,
                            cost_usd,
                            prompt: prompt.into_boxed_str(),
                        },
                    )
                    .is_some()
                {
                    // Replacement (re-admission after expiry): the
                    // superseded record is still on disk.
                    self.dead_records += 1;
                }
                true
            }
            _ => false,
        }
    }

    /// Render a response record payload.
    fn encode_record(
        generation: u64,
        prompt: &str,
        fingerprint: u64,
        response: &CompletionResponse,
    ) -> String {
        format!(
            "R\t{}\t{}\t{}",
            crate::hash::hex64(generation),
            escape(prompt),
            encode_response_fields(fingerprint, response),
        )
    }
}

/// A crash-safe, content-addressed, disk-backed response cache with an
/// exact fingerprint tier and an opt-in embedding-keyed semantic tier. See
/// the [module docs](self) for format, eviction, and process discipline.
pub struct ResponseStore {
    path: PathBuf,
    config: StoreConfig,
    inner: Mutex<StoreInner>,
    /// `Some` while this handle holds the single-writer lock (declared
    /// last: the log closes before the lock is released).
    writer_lock: Option<WriterLock>,
}

impl ResponseStore {
    /// Open (creating if absent) the store at `path` as its single writer.
    ///
    /// Existing records are checksum-verified in order; the file is
    /// truncated at the first torn or corrupt line (crash recovery) and the
    /// fingerprint index — and semantic index, when configured — is rebuilt
    /// from the valid prefix. Fails if another writer holds the sidecar
    /// lock, or if the file carries a foreign header.
    pub fn open(path: impl AsRef<Path>, config: StoreConfig) -> std::io::Result<ResponseStore> {
        Self::open_with(path.as_ref(), config, true)
    }

    /// Open the store at `path` as a reader: no writer lock, no truncation
    /// (a torn tail is ignored, never repaired), and all mutating calls
    /// ([`ResponseStore::admit`], [`ResponseStore::record`],
    /// [`ResponseStore::advance_generation`], [`ResponseStore::compact`])
    /// become no-ops. Errors if the file does not exist.
    pub fn open_read_only(
        path: impl AsRef<Path>,
        config: StoreConfig,
    ) -> std::io::Result<ResponseStore> {
        Self::open_with(path.as_ref(), config, false)
    }

    /// The one constructor: a writer takes the sidecar lock and the append
    /// handle (truncating a torn tail); a reader takes neither.
    fn open_with(path: &Path, config: StoreConfig, writer: bool) -> std::io::Result<ResponseStore> {
        let writer_lock = writer.then(|| WriterLock::acquire(path)).transpose()?;
        let mut inner = StoreInner {
            log: None,
            entries: HashMap::new(),
            generation: 0,
            dead_records: 0,
            semantic: config.semantic.as_ref().map(SemanticTier::new),
        };
        let on_record = |payload: &str| inner.apply_record(payload);
        inner.log = if writer {
            Some(LogFile::open(path, HEADER, on_record)?)
        } else {
            LogFile::open_read_only(path, HEADER, on_record)?;
            None
        };
        if let Some(tier) = &mut inner.semantic {
            // Seal everything replayed from disk: warm-start queries hit
            // the index, not the brute tail.
            tier.reseal(|_| true);
        }
        Ok(ResponseStore {
            path: path.to_path_buf(),
            config,
            writer_lock,
            inner: Mutex::new(inner),
        })
    }

    /// The store's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether this handle is a reader (no writer lock; mutations no-op).
    pub fn is_read_only(&self) -> bool {
        self.writer_lock.is_none()
    }

    /// The semantic tier's distance threshold, if the tier is enabled.
    pub fn semantic_threshold(&self) -> Option<f32> {
        self.config.semantic.as_ref().map(|s| s.threshold)
    }

    /// Number of live (unexpired) entries.
    pub fn len(&self) -> usize {
        let inner = self.inner.lock();
        let ttl = self.config.ttl_generations;
        inner
            .entries
            .values()
            .filter(|e| !inner.expired(e.generation, ttl))
            .count()
    }

    /// Whether the store holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current eviction generation.
    pub fn generation(&self) -> u64 {
        self.inner.lock().generation
    }

    /// Sum of the live entries' observed recompute costs — the backend
    /// spend a full warm start avoids.
    pub fn live_cost_usd(&self) -> f64 {
        let inner = self.inner.lock();
        let ttl = self.config.ttl_generations;
        inner
            .entries
            .values()
            .filter(|e| !inner.expired(e.generation, ttl))
            .map(|e| e.cost_usd)
            .sum()
    }

    /// Advance the eviction generation (writer only; no-op for readers).
    /// Entries admitted more than [`StoreConfig::ttl_generations`]
    /// generations ago stop being served and are dropped at the next
    /// compaction. The marker is journaled (best-effort) so the generation
    /// survives restarts.
    pub fn advance_generation(&self) {
        if self.is_read_only() {
            return;
        }
        let mut inner = self.inner.lock();
        inner.generation += 1;
        let marker = format!("G\t{}", crate::hash::hex64(inner.generation));
        if let Some(log) = &mut inner.log {
            let _ = log.append(&marker);
        }
    }

    /// Whether a live, unexpired entry exists for `fingerprint`. Cheap
    /// (in-memory index only); used by the cost estimator to predict
    /// store-hit rates.
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.inner
            .lock()
            .live(fingerprint, self.config.ttl_generations)
            .is_some()
    }

    /// Exact-tier lookup: the stored response for a request fingerprint,
    /// if live and unexpired. The response is bit-identical to the one the
    /// original process paid for (`cached` is `false` on disk; the serving
    /// client marks its copy `cached: true` so the hit charges nothing).
    pub fn lookup(&self, fingerprint: u64) -> Option<Arc<CompletionResponse>> {
        self.inner
            .lock()
            .live(fingerprint, self.config.ttl_generations)
            .map(|e| Arc::clone(&e.response))
    }

    /// Semantic-tier lookup: the nearest live stored neighbor of `prompt`
    /// within the configured distance threshold, if the tier is enabled.
    /// Callers should only consult this for temperature-0 requests and
    /// after an exact miss; the hit is approximate by construction.
    pub fn lookup_semantic(&self, prompt: &str) -> Option<SemanticHit> {
        // Embed outside the lock: the embedder is immutable and hashing the
        // prompt is the expensive part.
        let embedder = {
            let inner = self.inner.lock();
            inner.semantic.as_ref()?.embedder.clone()
        };
        let vector = embedder.embed(prompt);
        let inner = self.inner.lock();
        let tier = inner.semantic.as_ref()?;
        let ttl = self.config.ttl_generations;
        let (fingerprint, distance) = tier.query(&vector, |fp| inner.live(fp, ttl).is_some())?;
        let response = Arc::clone(&inner.entries[&fingerprint].response);
        Some(SemanticHit {
            fingerprint,
            distance,
            response,
        })
    }

    /// Admit one freshly paid completion (writer only): the cache policy
    /// in front of [`ResponseStore::record`].
    ///
    /// Refused — returning `false` — for readers, for non-deterministic
    /// requests (`temperature > 0`), for responses that were themselves
    /// cache hits, for fingerprints already live in the store, and, at
    /// capacity, for candidates cheaper than
    /// [`StoreConfig::admission_floor`] × the mean live cost-per-entry.
    /// Admission at capacity evicts cheapest-first.
    pub fn admit(&self, request: &CompletionRequest, response: &CompletionResponse) -> bool {
        self.admit_keyed(request, request.fingerprint(), response)
    }

    /// [`ResponseStore::admit`] for a caller that has already computed
    /// `request.fingerprint()` (the client's miss path hashes a prompt
    /// once).
    pub(crate) fn admit_keyed(
        &self,
        request: &CompletionRequest,
        fingerprint: u64,
        response: &CompletionResponse,
    ) -> bool {
        debug_assert_eq!(fingerprint, request.fingerprint());
        if self.is_read_only() || request.temperature > 0.0 || response.cached {
            return false;
        }
        let ttl = self.config.ttl_generations;
        let mut inner = self.inner.lock();
        if inner.live(fingerprint, ttl).is_some() {
            return false; // live duplicate: first write wins
        }

        // Capacity gate: cost-aware admission, cheapest-first eviction.
        if let Some(capacity) = self.config.capacity {
            let cost_usd = response.pricing.cost_usd(response.usage);
            let live: Vec<(u64, f64)> = inner
                .entries
                .iter()
                .filter(|(_, e)| !inner.expired(e.generation, ttl))
                .map(|(&fp, e)| (fp, e.cost_usd))
                .collect();
            if live.len() >= capacity {
                let mean = live.iter().map(|(_, c)| c).sum::<f64>() / live.len() as f64;
                if cost_usd < self.config.admission_floor * mean {
                    return false; // too cheap to displace anything
                }
                let mut by_cost = live;
                by_cost.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                let mut excess = by_cost.len() + 1 - capacity;
                for (fp, _) in by_cost {
                    if excess == 0 {
                        break;
                    }
                    // Log the eviction so replay reproduces it.
                    let marker = format!("D\t{}", crate::hash::hex64(fp));
                    if let Some(log) = &mut inner.log {
                        let _ = log.append(&marker);
                    }
                    inner.entries.remove(&fp);
                    inner.dead_records += 2;
                    excess -= 1;
                }
            }
        }
        self.append_locked(&mut inner, fingerprint, &request.prompt, response)
    }

    /// Append `response` under `fingerprint` with no cacheability or
    /// capacity policy (writer only; `false` for readers and for
    /// fingerprints already live — first write wins). This is how the
    /// client's replay slot ([`crate::LlmClient::attach_journal`]) logs
    /// every paid call, sampled ones included; it passes an empty `prompt`,
    /// which only the semantic tier and compaction rewrites read. Disk
    /// errors are swallowed (the log is best-effort durability — a lost
    /// record costs a re-run); the in-memory indexes stay consistent with
    /// the log.
    pub fn record(&self, fingerprint: u64, prompt: &str, response: &CompletionResponse) -> bool {
        let mut inner = self.inner.lock();
        let fresh = inner
            .live(fingerprint, self.config.ttl_generations)
            .is_none();
        fresh && self.append_locked(&mut inner, fingerprint, prompt, response)
    }

    /// Log one record and index it; the caller has ruled out a live
    /// duplicate.
    fn append_locked(
        &self,
        inner: &mut StoreInner,
        fingerprint: u64,
        prompt: &str,
        response: &CompletionResponse,
    ) -> bool {
        let generation = inner.generation;
        let payload = StoreInner::encode_record(generation, prompt, fingerprint, response);
        // A reader holds no append handle.
        let Some(log) = &mut inner.log else {
            return false;
        };
        if log.append(&payload).is_err() {
            return false;
        }
        let mut stored = response.clone();
        stored.cached = false;
        let cost_usd = stored.pricing.cost_usd(stored.usage);
        if inner
            .entries
            .insert(
                fingerprint,
                StoredEntry {
                    response: Arc::new(stored),
                    generation,
                    cost_usd,
                    prompt: prompt.into(),
                },
            )
            .is_some()
        {
            inner.dead_records += 1; // replaced an expired record
        }
        if let Some(mut tier) = inner.semantic.take() {
            tier.insert(fingerprint, prompt);
            tier.maybe_reseal(&inner.entries);
            inner.semantic = Some(tier);
        }
        // Opportunistic compaction once dead records dominate the file.
        if inner.dead_records > inner.entries.len().max(64) {
            let _ = Self::compact_locked(&self.path, &self.config, inner);
        }
        true
    }

    /// Rewrite the log to contain exactly the live, unexpired entries
    /// (writer only; no-op for readers). Reclaims space held by evicted,
    /// replaced, and expired records; the rewrite goes to a sibling temp
    /// file and is renamed into place, so a crash mid-compaction leaves
    /// either the old or the new file, never a mix.
    pub fn compact(&self) -> std::io::Result<()> {
        if self.is_read_only() {
            return Ok(());
        }
        let mut inner = self.inner.lock();
        Self::compact_locked(&self.path, &self.config, &mut inner)
    }

    fn compact_locked(
        path: &Path,
        config: &StoreConfig,
        inner: &mut StoreInner,
    ) -> std::io::Result<()> {
        let mut tmp_name = path.as_os_str().to_os_string();
        tmp_name.push(".compact");
        let tmp = PathBuf::from(tmp_name);
        std::fs::remove_file(&tmp).ok();
        let mut log = LogFile::open(&tmp, HEADER, |_| true)?;
        log.append(&format!("G\t{}", crate::hash::hex64(inner.generation)))?;

        let ttl = config.ttl_generations;
        let mut expired: Vec<u64> = Vec::new();
        let mut live: Vec<(&u64, &StoredEntry)> = Vec::new();
        for (fp, entry) in &inner.entries {
            if inner.expired(entry.generation, ttl) {
                expired.push(*fp);
            } else {
                live.push((fp, entry));
            }
        }
        // Deterministic file order regardless of hash-map iteration.
        live.sort_by_key(|(fp, _)| **fp);
        for (fp, entry) in live {
            log.append(&StoreInner::encode_record(
                entry.generation,
                &entry.prompt,
                *fp,
                &entry.response,
            ))?;
        }
        std::fs::rename(&tmp, path)?;
        // After the rename the temp handle *is* the store file, cursor at
        // end — swap it in and drop the handle to the unlinked old inode.
        inner.log = Some(log);
        for fp in expired {
            inner.entries.remove(&fp);
        }
        inner.dead_records = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pricing::Pricing;
    use crate::task::TaskDescriptor;
    use crate::types::{FinishReason, Usage};

    fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "crowdprompt-store-test-{}-{tag}-{n}.log",
            std::process::id()
        ))
    }

    fn cleanup(path: &Path) {
        std::fs::remove_file(path).ok();
        std::fs::remove_file(lock_path(path)).ok();
    }

    fn request(prompt: &str) -> CompletionRequest {
        CompletionRequest::new(
            prompt,
            TaskDescriptor::CheckPredicate {
                item: crate::world::ItemId(0),
                predicate: prompt.into(),
            },
        )
    }

    fn response(text: &str, completion_tokens: u32) -> CompletionResponse {
        CompletionResponse {
            text: text.to_string(),
            usage: Usage {
                prompt_tokens: 10,
                completion_tokens,
            },
            finish_reason: FinishReason::Stop,
            model: "sim-gpt-3.5-turbo".into(),
            cached: false,
            pricing: Pricing::new(0.0005, 0.0015),
            confidence: None,
        }
    }

    #[test]
    fn roundtrip_survives_reopen() {
        let path = temp_path("roundtrip");
        let req = request("what is 2+2?\twith\ttabs\nand newlines");
        {
            let store = ResponseStore::open(&path, StoreConfig::default()).unwrap();
            assert!(store.admit(&req, &response("4", 3)));
            assert!(!store.admit(&req, &response("5", 3)), "first write wins");
            assert_eq!(store.len(), 1);
        }
        let store = ResponseStore::open(&path, StoreConfig::default()).unwrap();
        assert_eq!(store.len(), 1);
        let got = store.lookup(req.fingerprint()).unwrap();
        assert_eq!(got.text, "4");
        assert!(!got.cached);
        assert!(store.lookup(0x1234).is_none());
        cleanup(&path);
    }

    #[test]
    fn refuses_nondeterministic_and_cached_responses() {
        let path = temp_path("refuse");
        let store = ResponseStore::open(&path, StoreConfig::default()).unwrap();
        let sampled = request("prompt").with_temperature(0.7);
        assert!(!store.admit(&sampled, &response("x", 1)));
        let mut hit = response("y", 1);
        hit.cached = true;
        assert!(!store.admit(&request("prompt"), &hit));
        assert!(store.is_empty());
        cleanup(&path);
    }

    #[test]
    fn record_skips_the_cache_policy_and_roundtrips_every_field() {
        let path = temp_path("record");
        // What `admit` refuses, `record` logs: a sampled call's response.
        let sampled = request("prompt").with_temperature(0.7);
        let weird = CompletionResponse {
            finish_reason: FinishReason::Length,
            confidence: Some(0.875),
            ..response("line one\nline\ttwo \\ backslash\rcarriage", 3)
        };
        {
            let store = ResponseStore::open(&path, StoreConfig::default()).unwrap();
            assert!(!store.admit(&sampled, &weird));
            assert!(store.record(sampled.fingerprint(), "", &weird));
            assert!(store.record(42, "", &response("plain", 1)));
            assert!(!store.record(42, "", &response("second", 1)), "first wins");
        }
        let reader = ResponseStore::open_read_only(&path, StoreConfig::default()).unwrap();
        assert_eq!(reader.len(), 2);
        assert_eq!(*reader.lookup(sampled.fingerprint()).unwrap(), weird);
        assert_eq!(*reader.lookup(42).unwrap(), response("plain", 1));
        assert!(!reader.record(7, "", &weird), "readers record nothing");
        cleanup(&path);
    }

    #[test]
    fn generation_ttl_expires_and_compaction_drops() {
        let path = temp_path("ttl");
        let config = StoreConfig {
            ttl_generations: Some(2),
            ..StoreConfig::default()
        };
        let req = request("short-lived");
        {
            let store = ResponseStore::open(&path, config.clone()).unwrap();
            assert!(store.admit(&req, &response("v", 2)));
            store.advance_generation();
            assert!(store.contains(req.fingerprint()), "age 1 < ttl 2: live");
            store.advance_generation();
            assert!(
                !store.contains(req.fingerprint()),
                "age 2 >= ttl 2: expired"
            );
            assert!(store.lookup(req.fingerprint()).is_none());
            // Expired slot can be re-admitted.
            assert!(store.admit(&req, &response("v2", 2)));
            assert_eq!(store.lookup(req.fingerprint()).unwrap().text, "v2");
            store.advance_generation();
            store.advance_generation();
            store.compact().unwrap();
            assert_eq!(store.len(), 0);
        }
        // Generation counter and emptiness survive the compaction + reopen.
        let store = ResponseStore::open(&path, config).unwrap();
        assert_eq!(store.generation(), 4);
        assert_eq!(store.len(), 0);
        cleanup(&path);
    }

    #[test]
    fn cost_aware_admission_protects_expensive_entries() {
        let path = temp_path("cost");
        let config = StoreConfig {
            capacity: Some(2),
            admission_floor: 0.5,
            ..StoreConfig::default()
        };
        let store = ResponseStore::open(&path, config).unwrap();
        let (exp_a, exp_b) = (request("expensive a"), request("expensive b"));
        assert!(store.admit(&exp_a, &response("a", 1000)));
        assert!(store.admit(&exp_b, &response("b", 800)));
        // A cheap candidate at capacity is refused outright…
        let cheap = request("cheap");
        assert!(!store.admit(&cheap, &response("c", 1)));
        assert_eq!(store.len(), 2);
        // …while a comparable one is admitted by evicting the cheapest.
        let rich = request("also expensive");
        assert!(store.admit(&rich, &response("r", 900)));
        assert_eq!(store.len(), 2);
        assert!(store.contains(exp_a.fingerprint()), "most expensive kept");
        assert!(!store.contains(exp_b.fingerprint()), "cheapest evicted");
        assert!(store.contains(rich.fingerprint()));
        cleanup(&path);
    }

    #[test]
    fn semantic_tier_answers_near_duplicates_within_threshold() {
        let path = temp_path("semantic");
        let config = StoreConfig {
            semantic: Some(SemanticConfig::new(0.4)),
            ..StoreConfig::default()
        };
        let req = request("Is the item 'wireless keyboard model K380' electronics?");
        {
            let store = ResponseStore::open(&path, config.clone()).unwrap();
            assert!(store.admit(&req, &response("yes", 2)));
            let hit = store
                .lookup_semantic("Is the item 'wireless keyboard model K381' electronics?")
                .expect("near-duplicate within threshold");
            assert_eq!(hit.response.text, "yes");
            assert_eq!(hit.fingerprint, req.fingerprint());
            assert!(hit.distance > 0.0 && hit.distance <= 0.4);
            assert!(
                store
                    .lookup_semantic("completely unrelated question about the weather")
                    .is_none(),
                "far prompts miss"
            );
        }
        // The semantic index rebuilds from persisted prompts on reopen.
        let store = ResponseStore::open_read_only(&path, config).unwrap();
        let hit = store
            .lookup_semantic("Is the item 'wireless keyboard model K379' electronics?")
            .expect("semantic hit after reopen");
        assert_eq!(hit.response.text, "yes");
        cleanup(&path);
    }

    #[test]
    fn a_reseal_does_not_change_a_rows_distance() {
        // 195 entries leave rows 130.. in the brute-scanned tail (reseals at
        // 65 and 130); five more trigger the reseal that moves them into the
        // index. Prompts whose nearest rows sit on both sides of that line
        // must get the same neighbour at the same distance, to the bit,
        // before and after: the tail and the index rank by one formula.
        let path = temp_path("reseal");
        let config = StoreConfig {
            semantic: Some(SemanticConfig::new(2.0)),
            ..StoreConfig::default()
        };
        let store = ResponseStore::open(&path, config).unwrap();
        let prompt = |i: usize| format!("Is gadget model {i:03} in stock at warehouse {}?", i % 7);
        let sealed_rows = |store: &ResponseStore| {
            let inner = store.inner.lock();
            inner.semantic.as_ref().unwrap().sealed.len()
        };
        for i in 0..195 {
            assert!(store.admit(&request(&prompt(i)), &response("yes", 2)));
        }
        assert_eq!(sealed_rows(&store), 130);
        let probes: Vec<String> = [3, 100, 129, 130, 150, 194]
            .iter()
            .map(|&i| prompt(i).replace("in stock", "still in stock"))
            .collect();
        let ask = |store: &ResponseStore| -> Vec<(u64, u32)> {
            probes
                .iter()
                .map(|p| {
                    let hit = store
                        .lookup_semantic(p)
                        .expect("threshold admits everything");
                    (hit.fingerprint, hit.distance.to_bits())
                })
                .collect()
        };
        let before = ask(&store);
        for (probe, (fp, _)) in [3, 100, 129, 130, 150, 194].iter().zip(&before) {
            assert_eq!(*fp, request(&prompt(*probe)).fingerprint());
        }
        for i in 0..5 {
            let far = format!("unrelated weather question number {i}");
            assert!(store.admit(&request(&far), &response("no", 2)));
        }
        assert_eq!(sealed_rows(&store), 196);
        assert_eq!(ask(&store), before);
        drop(store);
        cleanup(&path);
    }

    #[test]
    fn single_writer_enforced_readers_allowed() {
        let path = temp_path("writer");
        let writer = ResponseStore::open(&path, StoreConfig::default()).unwrap();
        assert!(!writer.is_read_only());
        let err = match ResponseStore::open(&path, StoreConfig::default()) {
            Err(e) => e,
            Ok(_) => panic!("second writer must be refused"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        writer.admit(&request("p"), &response("v", 1));
        let reader = ResponseStore::open_read_only(&path, StoreConfig::default()).unwrap();
        assert!(reader.is_read_only());
        assert_eq!(reader.len(), 1);
        assert!(!reader.admit(&request("q"), &response("w", 1)));
        drop(writer);
        // Lock released on drop: a new writer may take over.
        let writer2 = ResponseStore::open(&path, StoreConfig::default()).unwrap();
        assert_eq!(writer2.len(), 1);
        cleanup(&path);
    }

    #[test]
    fn torn_tail_recovered_on_writer_ignored_by_reader() {
        let path = temp_path("torn");
        {
            let store = ResponseStore::open(&path, StoreConfig::default()).unwrap();
            store.admit(&request("kept"), &response("k", 1));
            store.admit(&request("torn"), &response("t", 1));
        }
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let reader = ResponseStore::open_read_only(&path, StoreConfig::default()).unwrap();
        assert_eq!(reader.len(), 1, "reader skips the torn record");
        assert_eq!(std::fs::read(&path).unwrap().len(), full.len() - 5);
        let writer = ResponseStore::open(&path, StoreConfig::default()).unwrap();
        assert_eq!(writer.len(), 1);
        assert!(writer.contains(request("kept").fingerprint()));
        drop(writer);
        assert!(
            std::fs::read(&path).unwrap().len() < full.len() - 5,
            "writer truncated the torn tail"
        );
        cleanup(&path);
    }

    #[test]
    fn compaction_reclaims_replaced_records() {
        let path = temp_path("compact");
        let config = StoreConfig {
            capacity: Some(4),
            ..StoreConfig::default()
        };
        {
            let store = ResponseStore::open(&path, config.clone()).unwrap();
            for i in 0..32 {
                store.admit(&request(&format!("prompt {i}")), &response("v", 1 + i));
            }
            assert_eq!(store.len(), 4);
            store.compact().unwrap();
            assert_eq!(store.len(), 4);
            store.admit(&request("after compact"), &response("w", 100));
            assert_eq!(store.len(), 4);
        }
        let store = ResponseStore::open(&path, config).unwrap();
        assert_eq!(store.len(), 4);
        assert!(store.contains(request("after compact").fingerprint()));
        cleanup(&path);
    }

    #[test]
    fn live_cost_tracks_admissions() {
        let path = temp_path("livecost");
        let store = ResponseStore::open(&path, StoreConfig::default()).unwrap();
        let r = response("v", 1000);
        let unit = r.pricing.cost_usd(r.usage);
        store.admit(&request("one"), &r);
        store.admit(&request("two"), &r);
        assert!((store.live_cost_usd() - 2.0 * unit).abs() < 1e-12);
        cleanup(&path);
    }
}
