//! A crash-safe, content-addressed, disk-backed response store.
//!
//! Every cache before this one ([`crate::client::LlmClient`]'s sharded
//! in-memory tier, its in-flight coalescing) dies with the process, so a
//! service absorbing heavy repeat traffic pays full cold-start cost on every
//! restart. [`ResponseStore`] is the persistent tier layered *under* the
//! in-memory shards: an append-only checksummed record log (the shared
//! `recordlog` discipline — fingerprint-keyed records, f64-as-bits,
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
//!   stored neighbor (`ResponseStore::lookup_semantic`). Approximate by
//!   construction; hits are counted separately
//!   ([`crate::ClientStats::semantic_hits`]) and their accuracy cost is
//!   measured in-bench through the outcome meter.
//!
//! # Records
//!
//! Entries never expire and the first write of a fingerprint wins, so the
//! log only appends and every record in it is live. There is one record
//! kind, `R`: a generation column (always zero, and ignored on read — it
//! keeps the bytes of every existing file valid), the escaped prompt (the
//! semantic tier re-embeds it on open; a journal writes it empty), then the
//! response fields.
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
    decode_response_fields, escape_into, push_response_fields, replay_shares, seal_line, unescape,
    LogFile, RESPONSE_FIELDS,
};
use crate::types::{CompletionRequest, CompletionResponse};

/// The store's header line (also its format version gate).
const HEADER: &str = "crowdprompt-store v1";

/// The generation column of every `R` record.
const GENERATION: &str = "0000000000000000";

/// Semantic-tier configuration: embed temperature-0 prompts as 256
/// hashed trigram features ([`NgramEmbedder::ada_like`]) and answer
/// near-duplicates within `threshold` of a stored neighbor.
#[derive(Debug, Clone)]
pub struct SemanticConfig {
    /// Maximum embedding distance (L2 over unit-normalized hashed n-gram
    /// vectors, so `0.0 ..= 2.0`) at which a stored neighbor may answer.
    pub threshold: f32,
}

impl SemanticConfig {
    /// Semantic tier with the given distance threshold.
    pub fn new(threshold: f32) -> Self {
        SemanticConfig { threshold }
    }
}

/// How to open a [`ResponseStore`]. The default is an exact-only store;
/// opening one checks the semantic threshold and names it when it is out of
/// range.
#[derive(Debug, Clone, Default)]
pub struct StoreConfig {
    /// Opt-in semantic tier; `None` = exact-only.
    pub semantic: Option<SemanticConfig>,
}

impl StoreConfig {
    /// Range check at the input boundary: a threshold that is not a
    /// positive finite distance answers nothing or everything.
    fn validate(&self) -> std::io::Result<()> {
        if let Some(semantic) = &self.semantic {
            let threshold = semantic.threshold;
            if !(threshold.is_finite() && threshold > 0.0) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!(
                        "store config: semantic.threshold must be finite and > 0, got {threshold}"
                    ),
                ));
            }
        }
        Ok(())
    }
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
    /// rows.
    fingerprints: Vec<u64>,
}

impl SemanticTier {
    fn new(config: &SemanticConfig) -> SemanticTier {
        let embedder = NgramEmbedder::ada_like();
        let empty = VectorStore::from_flat(Vec::new(), embedder.dimensions());
        SemanticTier {
            threshold: config.threshold,
            embedder,
            sealed: KnnIndex::build(empty, Metric::L2, None),
            tail: Vec::new(),
            fingerprints: Vec::new(),
        }
    }

    /// Index `prompt` as answering for `fingerprint`.
    fn insert(&mut self, fingerprint: u64, prompt: &str) {
        self.fingerprints.push(fingerprint);
        let start = self.tail.len();
        self.tail.resize(start + self.embedder.dimensions(), 0.0);
        self.embedder.embed_into(prompt, &mut self.tail[start..]);
    }

    /// Rebuild the sealed index when the brute-scanned tail has outgrown
    /// it.
    fn maybe_reseal(&mut self) {
        let sealed = self.sealed.len();
        if self.fingerprints.len() - sealed > (sealed / 2).max(64) {
            self.reseal();
        }
    }

    /// Move every row into a fresh sealed index, in row order; the tail
    /// empties.
    fn reseal(&mut self) {
        let dims = self.embedder.dimensions();
        let mut flat = Vec::with_capacity(self.fingerprints.len() * dims);
        flat.extend_from_slice(self.sealed.store().as_flat());
        flat.append(&mut self.tail);
        self.sealed = KnnIndex::build(VectorStore::from_flat(flat, dims), Metric::L2, None);
    }

    /// Nearest neighbor within the threshold, if any. Exact over the full
    /// set: best of the sealed index and a brute scan of the unsealed tail,
    /// both by the index's fused distance.
    fn query(&self, vector: &[f32]) -> Option<(u64, f32)> {
        let mut best: Option<(u64, f32)> = None;
        let mut consider = |fp: u64, d: f32| {
            if d <= self.threshold && best.is_none_or(|(_, bd)| d < bd) {
                best = Some((fp, d));
            }
        };
        for n in self
            .sealed
            .search(Queries::Flat(vector), 1)
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
    entries: HashMap<u64, Arc<CompletionResponse>>,
    semantic: Option<SemanticTier>,
}

/// One replayed `R` record: its fingerprint, its response, and — when the
/// semantic tier will index it — its decoded prompt.
type Replayed = (u64, CompletionResponse, Option<String>);

/// Decode one replayed record payload, or `None` to reject it (truncating
/// the log there on a writer open). Pure, so the log's shares run it at
/// once. Every prompt's escapes are checked; the decoded prompt is kept
/// only when `keep_prompt` (the semantic tier re-embeds it).
fn parse_record(payload: &str, keep_prompt: bool) -> Option<Replayed> {
    let fields: Vec<&str> = payload.split('\t').collect();
    if fields.len() != 3 + RESPONSE_FIELDS || fields[0] != "R" {
        return None;
    }
    let prompt = unescape(fields[2])?;
    let (fingerprint, response) = decode_response_fields(&fields[3..])?;
    Some((
        fingerprint,
        response,
        keep_prompt.then(|| prompt.into_owned()),
    ))
}

impl StoreInner {
    /// Apply one replayed record, in file order.
    fn apply_record(&mut self, (fingerprint, response, prompt): Replayed) {
        if let (Some(tier), Some(prompt)) = (&mut self.semantic, prompt) {
            tier.insert(fingerprint, &prompt);
        }
        self.entries.insert(fingerprint, Arc::new(response));
    }
}

/// One sealed `R` record line for `response` under `fingerprint`, built in
/// one buffer.
fn record_line(fingerprint: u64, prompt: &str, response: &CompletionResponse) -> String {
    // Fixed fields, tabs and checksum take under 160 bytes.
    let escaped = prompt.len() + response.text.len() + response.model.len();
    let mut line = String::with_capacity(160 + escaped + escaped / 8);
    line.push_str("R\t");
    line.push_str(GENERATION);
    line.push('\t');
    escape_into(&mut line, prompt);
    line.push('\t');
    push_response_fields(&mut line, fingerprint, response);
    seal_line(&mut line);
    line
}

/// A crash-safe, content-addressed, disk-backed response cache with an
/// exact fingerprint tier and an opt-in embedding-keyed semantic tier. See
/// the [module docs](self) for format and process discipline.
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
        Self::open_with(path.as_ref(), config, true, replay_shares())
    }

    /// Open the store at `path` as a reader: no writer lock, no truncation
    /// (a torn tail is ignored, never repaired), and the mutating calls
    /// ([`ResponseStore::admit`], [`ResponseStore::record`]) become no-ops.
    /// Errors if the file does not exist.
    pub fn open_read_only(
        path: impl AsRef<Path>,
        config: StoreConfig,
    ) -> std::io::Result<ResponseStore> {
        Self::open_with(path.as_ref(), config, false, replay_shares())
    }

    /// The one constructor: a writer takes the sidecar lock and the append
    /// handle (truncating a torn tail); a reader takes neither. The config
    /// is checked first, so a bad one touches neither the lock nor the file.
    /// The log is replayed in up to `shares` pieces at once.
    fn open_with(
        path: &Path,
        config: StoreConfig,
        writer: bool,
        shares: usize,
    ) -> std::io::Result<ResponseStore> {
        config.validate()?;
        let writer_lock = writer.then(|| WriterLock::acquire(path)).transpose()?;
        let mut inner = StoreInner {
            log: None,
            entries: HashMap::new(),
            semantic: config.semantic.as_ref().map(SemanticTier::new),
        };
        let keep_prompt = inner.semantic.is_some();
        let decode = |payload: &str| parse_record(payload, keep_prompt);
        let apply = |record| inner.apply_record(record);
        inner.log = if writer {
            Some(LogFile::open(path, HEADER, shares, decode, apply)?)
        } else {
            LogFile::open_read_only(path, HEADER, shares, decode, apply)?;
            None
        };
        if let Some(tier) = &mut inner.semantic {
            // Seal everything replayed from disk: warm-start queries hit
            // the index, not the brute tail.
            tier.reseal();
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

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether an entry exists for `fingerprint`. Cheap (in-memory index
    /// only); used by the cost estimator to predict store-hit rates.
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.inner.lock().entries.contains_key(&fingerprint)
    }

    /// Exact-tier lookup: the stored response for a request fingerprint.
    /// The response is bit-identical to the one the original process paid
    /// for (`cached` is `false` on disk; the serving client marks its copy
    /// `cached: true` so the hit charges nothing).
    pub fn lookup(&self, fingerprint: u64) -> Option<Arc<CompletionResponse>> {
        self.inner.lock().entries.get(&fingerprint).map(Arc::clone)
    }

    /// Semantic-tier lookup: the nearest stored neighbor of `prompt`
    /// within the configured distance threshold, if the tier is enabled —
    /// its fingerprint, its embedding distance from `prompt`, and its
    /// stored response. Callers should only consult this for
    /// temperature-0 requests and after an exact miss; the hit is
    /// approximate by construction.
    pub(crate) fn lookup_semantic(
        &self,
        prompt: &str,
    ) -> Option<(u64, f32, Arc<CompletionResponse>)> {
        // Embed outside the lock: the embedder is immutable and hashing the
        // prompt is the expensive part.
        let embedder = {
            let inner = self.inner.lock();
            inner.semantic.as_ref()?.embedder.clone()
        };
        let vector = embedder.embed(prompt);
        let inner = self.inner.lock();
        let (fingerprint, distance) = inner.semantic.as_ref()?.query(&vector)?;
        let response = Arc::clone(&inner.entries[&fingerprint]);
        Some((fingerprint, distance, response))
    }

    /// Admit one freshly paid completion (writer only): the cache policy
    /// in front of [`ResponseStore::record`].
    ///
    /// Refused — returning `false` — for readers, for non-deterministic
    /// requests (`temperature > 0`), for responses that were themselves
    /// cache hits, and for fingerprints already in the store.
    pub fn admit(&self, request: &CompletionRequest, response: &CompletionResponse) -> bool {
        self.cacheable(request, response)
            && self.insert(request.fingerprint(), &request.prompt, response, || {
                Arc::new(response.clone())
            })
    }

    /// [`ResponseStore::admit`] of a body the caller shares, under the
    /// `request.fingerprint()` it has already computed (the client's miss
    /// path hashes a prompt once and allocates its response once).
    pub(crate) fn admit_keyed(
        &self,
        request: &CompletionRequest,
        fingerprint: u64,
        response: &Arc<CompletionResponse>,
    ) -> bool {
        debug_assert_eq!(fingerprint, request.fingerprint());
        self.cacheable(request, response)
            && self.insert(fingerprint, &request.prompt, response, || {
                Arc::clone(response)
            })
    }

    /// Whether [`ResponseStore::admit`]'s policy would cache `response`.
    fn cacheable(&self, request: &CompletionRequest, response: &CompletionResponse) -> bool {
        !self.is_read_only() && request.temperature == 0.0 && !response.cached
    }

    /// Keep `response` under `fingerprint` with no cacheability policy
    /// (writer only; `false` for readers and for fingerprints already held
    /// — first write wins). This is how the client's replay slot
    /// ([`crate::LlmClient::attach_journal`]) logs every paid call, sampled
    /// ones included, sharing the body it returns; it passes an empty
    /// `prompt`, which only the semantic tier reads. `response` is a paid
    /// one (`cached: false`), which is what a lookup returns. Disk errors
    /// are swallowed (the log is best-effort durability — a lost record
    /// costs a re-run); the in-memory indexes stay consistent with the log.
    pub fn record(
        &self,
        fingerprint: u64,
        prompt: &str,
        response: &Arc<CompletionResponse>,
    ) -> bool {
        debug_assert!(!response.cached, "a stored body is the paid one");
        self.insert(fingerprint, prompt, response, || Arc::clone(response))
    }

    /// Log `response` as one record and index it, unless `fingerprint` is
    /// already held or this handle is a reader. The record line is built
    /// before the lock is taken; `body` (the `Arc` to index) only once the
    /// record is known to be new.
    fn insert(
        &self,
        fingerprint: u64,
        prompt: &str,
        response: &CompletionResponse,
        body: impl FnOnce() -> Arc<CompletionResponse>,
    ) -> bool {
        if self.is_read_only() {
            return false;
        }
        let line = record_line(fingerprint, prompt, response);
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let Some(log) = &mut inner.log else {
            return false;
        };
        if inner.entries.contains_key(&fingerprint) {
            return false; // first write wins
        }
        if log.append(&line).is_err() {
            return false;
        }
        inner.entries.insert(fingerprint, body());
        if let Some(tier) = &mut inner.semantic {
            tier.insert(fingerprint, prompt);
            tier.maybe_reseal();
        }
        true
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
        let shared = Arc::new(weird.clone());
        {
            let store = ResponseStore::open(&path, StoreConfig::default()).unwrap();
            assert!(!store.admit(&sampled, &weird));
            assert!(store.record(sampled.fingerprint(), "", &shared));
            assert!(Arc::ptr_eq(
                &store.lookup(sampled.fingerprint()).unwrap(),
                &shared
            ));
            assert!(store.record(42, "", &Arc::new(response("plain", 1))));
            let second = Arc::new(response("second", 1));
            assert!(!store.record(42, "", &second), "first wins");
        }
        let reader = ResponseStore::open_read_only(&path, StoreConfig::default()).unwrap();
        assert_eq!(reader.len(), 2);
        assert_eq!(*reader.lookup(sampled.fingerprint()).unwrap(), weird);
        assert_eq!(*reader.lookup(42).unwrap(), response("plain", 1));
        assert!(!reader.record(7, "", &shared), "readers record nothing");
        cleanup(&path);
    }

    #[test]
    fn semantic_tier_answers_near_duplicates_within_threshold() {
        let path = temp_path("semantic");
        let config = StoreConfig {
            semantic: Some(SemanticConfig::new(0.4)),
        };
        let req = request("Is the item 'wireless keyboard model K380' electronics?");
        {
            let store = ResponseStore::open(&path, config.clone()).unwrap();
            assert!(store.admit(&req, &response("yes", 2)));
            let (fingerprint, distance, response) = store
                .lookup_semantic("Is the item 'wireless keyboard model K381' electronics?")
                .expect("near-duplicate within threshold");
            assert_eq!(response.text, "yes");
            assert_eq!(fingerprint, req.fingerprint());
            assert!(distance > 0.0 && distance <= 0.4);
            assert!(
                store
                    .lookup_semantic("completely unrelated question about the weather")
                    .is_none(),
                "far prompts miss"
            );
        }
        // The semantic index rebuilds from persisted prompts on reopen.
        let store = ResponseStore::open_read_only(&path, config).unwrap();
        let (_, _, response) = store
            .lookup_semantic("Is the item 'wireless keyboard model K379' electronics?")
            .expect("semantic hit after reopen");
        assert_eq!(response.text, "yes");
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
                    let (fingerprint, distance, _) = store
                        .lookup_semantic(p)
                        .expect("threshold admits everything");
                    (fingerprint, distance.to_bits())
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
    fn a_malformed_prompt_escape_stops_an_exact_only_replay_there() {
        let path = temp_path("bad-escape");
        {
            let store = ResponseStore::open(&path, StoreConfig::default()).unwrap();
            assert!(store.admit(&request("kept\twith a tab"), &response("k", 1)));
        }
        // A checksum-valid record whose prompt holds `\x`, then a good one.
        let line = record_line(9, "PROMPT", &response("b", 1));
        let (payload, _) = line.rsplit_once('\t').unwrap();
        let mut bad = payload.replace("PROMPT", "bad \\x escape");
        seal_line(&mut bad);
        let good = record_line(7, "after", &response("a", 1));
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(format!("{bad}{good}").as_bytes()).unwrap();
        drop(file);
        let semantic = StoreConfig {
            semantic: Some(SemanticConfig::new(0.4)),
        };
        for config in [StoreConfig::default(), semantic] {
            let reader = ResponseStore::open_read_only(&path, config).unwrap();
            assert_eq!(reader.len(), 1, "the replay stops at the bad escape");
            assert!(reader.contains(request("kept\twith a tab").fingerprint()));
            assert!(!reader.contains(9) && !reader.contains(7));
        }
        let before = std::fs::metadata(&path).unwrap().len();
        let writer = ResponseStore::open(&path, StoreConfig::default()).unwrap();
        assert_eq!(writer.len(), 1);
        drop(writer);
        let truncated = before - (bad.len() + good.len()) as u64;
        assert_eq!(std::fs::metadata(&path).unwrap().len(), truncated);
        cleanup(&path);
    }

    /// What an open rebuilt: every entry by fingerprint, and the semantic
    /// tier's rows (fingerprints in insertion order, vector bits).
    fn rebuilt(store: &ResponseStore) -> (Vec<(u64, CompletionResponse)>, Vec<u64>, Vec<u32>) {
        let inner = store.inner.lock();
        let mut entries: Vec<_> = inner
            .entries
            .iter()
            .map(|(fp, response)| (*fp, (**response).clone()))
            .collect();
        entries.sort_by_key(|(fp, _)| *fp);
        let (rows, bits) = inner
            .semantic
            .as_ref()
            .map_or_else(Default::default, |tier| {
                let bits = tier
                    .sealed
                    .store()
                    .as_flat()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                (tier.fingerprints.clone(), bits)
            });
        (entries, rows, bits)
    }

    #[test]
    fn a_replay_in_shares_rebuilds_and_truncates_as_the_one_share_walk() {
        // 1 200 records of ≈ 450 bytes: ≈ 540 KB, room for four shares.
        let records: Vec<String> = (0..1_200u64)
            .map(|i| {
                let prompt = format!("record {i}: {}", "lorem ipsum dolor ".repeat(16));
                record_line(i * 7 + 1, &prompt, &response(&format!("answer {i}"), 2))
            })
            .collect();
        let body = records.concat();
        assert!(body.len() > 4 * crate::recordlog::MIN_SHARE_BYTES);
        let offsets: Vec<usize> = records
            .iter()
            .scan(0, |at, line| Some(std::mem::replace(at, *at + line.len())))
            .collect();
        // The index of the record each piece starts with.
        let first_records = |shares: usize| -> Vec<usize> {
            crate::recordlog::cut_at_lines(&body, shares)
                .iter()
                .scan(0, |at, piece| {
                    Some(std::mem::replace(at, *at + piece.len()))
                })
                .map(|start| offsets.binary_search(&start).unwrap())
                .collect()
        };
        let semantic = StoreConfig {
            semantic: Some(SemanticConfig::new(0.4)),
        };
        for shares in [2, 4] {
            let starts = first_records(shares);
            assert_eq!(starts.len(), shares);
            assert!(starts.windows(2).all(|w| w[0] < w[1]), "{starts:?}");
            // A checksum flip in the first share, a checksum-valid record
            // whose prompt escape does not decode exactly where the second
            // share starts (at four shares, two more follow it), and a torn
            // final line in the last share.
            let (first, boundary, last) = (starts[1] / 2, starts[1], records.len() - 1);
            for damaged in [
                vec![],
                vec![first],
                vec![boundary],
                vec![last],
                vec![first, boundary, last],
            ] {
                let mut lines = records.clone();
                for &i in &damaged {
                    let line = &mut lines[i];
                    if i == last {
                        line.truncate(line.len() - 9);
                    } else if i == boundary {
                        let mut bad = line
                            .rsplit_once('\t')
                            .unwrap()
                            .0
                            .replacen("record", "rec\\xrd", 1);
                        seal_line(&mut bad);
                        *line = bad;
                    } else {
                        *line = line.replacen("lorem", "Lorem", 1);
                    }
                }
                let file = format!("{HEADER}\n{}", lines.concat());
                for config in [StoreConfig::default(), semantic.clone()] {
                    let path = temp_path("shares");
                    let open = |writer: bool, shares: usize| {
                        std::fs::write(&path, &file).unwrap();
                        let store = ResponseStore::open_with(&path, config.clone(), writer, shares)
                            .unwrap();
                        let state = rebuilt(&store);
                        drop(store);
                        (state, std::fs::read(&path).unwrap())
                    };
                    let (walked, walked_file) = open(true, 1);
                    let (shared, shared_file) = open(true, shares);
                    let case = format!("{shares} shares, damaged {damaged:?}, {config:?}");
                    assert!(walked == shared, "writer state differs: {case}");
                    assert!(
                        walked_file == shared_file,
                        "writer truncation differs: {case}"
                    );
                    let stop = damaged.iter().min().copied().unwrap_or(records.len());
                    assert_eq!(walked.0.len(), stop, "{case}");
                    let kept = HEADER.len() + 1 + records[..stop].concat().len();
                    assert_eq!(walked_file.len(), kept, "{case}");
                    let (read, read_file) = open(false, shares);
                    assert!(read == walked, "reader state differs: {case}");
                    assert!(read_file == file.as_bytes(), "a reader wrote: {case}");
                    cleanup(&path);
                }
            }
        }
    }

    #[test]
    fn a_degenerate_semantic_config_is_an_error_not_a_panic() {
        for threshold in [0.0, f32::NAN] {
            let path = temp_path("semantic");
            let config = StoreConfig {
                semantic: Some(SemanticConfig::new(threshold)),
            };
            let err = ResponseStore::open(&path, config)
                .err()
                .unwrap_or_else(|| panic!("threshold {threshold} must not open"));
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
            assert!(err.to_string().contains("semantic.threshold"), "{err}");
            assert!(
                !path.exists() && !lock_path(&path).exists(),
                "threshold {threshold}: files touched"
            );
            cleanup(&path);
        }
    }
}
