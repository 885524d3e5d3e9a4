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
//! # Lookups
//!
//! [`ResponseStore::lookup`] by request fingerprint is the only read. A hit
//! is bit-identical to the response the original process paid for, and is
//! served by the client marked `cached: true`: zero backend spend, exactly
//! like an in-memory cache hit, so meter == ledger == budget accounting
//! holds unchanged.
//!
//! # Records
//!
//! A record is an answer keyed by its request's fingerprint: nothing about
//! the request but that fingerprint is kept. Entries never expire and the
//! first write of a fingerprint wins, so the log only appends and every
//! record in it is live. A replay keeps the first record of a fingerprint
//! too: a log holding a later record under the same fingerprint (two
//! writers' logs joined, say) serves what the live store served, and the
//! later record stays in the file. There is one record kind, `R`, followed
//! by the response fields.
//!
//! The header line names the format, `crowdprompt-store v2`. A v1 file (its
//! keys were FNV-1a request hashes, its records carried a generation and a
//! prompt column) is refused by [`ResponseStore::open`] with an error
//! naming the header it found; nothing in it is read, truncated or
//! migrated. Removing it costs one re-run of the calls it held.
//!
//! # Process discipline
//!
//! Single writer: [`ResponseStore::open`] takes an advisory lock on a
//! sidecar `<path>.lock` file and fails if another handle holds it; the
//! kernel releases it when the handle drops or the process dies, so a
//! killed writer never blocks the next open (the sidecar file stays).

use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::{File, OpenOptions, TryLockError};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::recordlog::{
    decode_response_fields, find_byte, push_response_fields, seal_line, LastModel, LogFile,
    RESPONSE_FIELDS,
};
use crate::types::{CompletionRequest, CompletionResponse};

/// The store's header line (also its format version gate).
const HEADER: &str = "crowdprompt-store v2";

/// What every record starts with: its kind.
const RECORD_PREFIX: &str = "R\t";

/// How to open a [`ResponseStore`]. A store has no settings: it maps a
/// fingerprint to an answer. The parameter stays on
/// [`ResponseStore::open`] so that callers written against it (the
/// `benchmark/` harness among them) keep compiling.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreConfig {}

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
                file.set_len(0)
                    .and_then(|()| writeln!(file, "{}", std::process::id()))
                    .map_err(|e| {
                        std::io::Error::new(
                            e.kind(),
                            format!(
                                "cannot write the writer's pid into lock '{}': {e}",
                                path.display()
                            ),
                        )
                    })?;
                Ok(WriterLock { _file: file })
            }
            Err(TryLockError::WouldBlock) => Err(std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                format!(
                    "response store '{}' already has a writer (lock '{}' held by pid {}); \
                     wait for that handle to drop",
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
    log: LogFile,
    entries: HashMap<u64, Arc<CompletionResponse>>,
    /// Appends the disk refused, and the last refusal's error text.
    failed_appends: u64,
    last_append_error: Option<String>,
}

/// Decode one replayed record payload into its fingerprint and response,
/// or `None` to reject it (truncating the log there). One byte scan finds
/// the tabs, into a fixed array of a record's `1 + RESPONSE_FIELDS` slots,
/// so a line with more fields than that is rejected here. `last_model`
/// carries the model name from one record to the next.
pub(crate) fn parse_record(
    payload: &str,
    last_model: &mut LastModel,
) -> Option<(u64, CompletionResponse)> {
    let mut fields = [""; 1 + RESPONSE_FIELDS];
    let mut len = 0;
    let mut start = 0;
    while let Some(at) = find_byte(&payload.as_bytes()[start..], b'\t') {
        // A tab is ASCII, so both ends of the field are char boundaries.
        *fields.get_mut(len)? = &payload[start..start + at];
        len += 1;
        start += at + 1;
    }
    *fields.get_mut(len)? = &payload[start..];
    match fields[..=len].split_first() {
        Some((&"R", response)) => decode_response_fields(response, last_model),
        _ => None,
    }
}

/// The bytes a record line is presized at when an open sizes its index
/// from the file's length. A short yes/no answer's record is about 120
/// bytes and a packed round's about 185: at 192 the index of a store of
/// packed answers usually starts at the size growth would end at, one of
/// shorter records starts below it and grows, and only records longer
/// than 192 bytes can start it past that size, by one doubling.
const PRESIZE_RECORD_BYTES: u64 = 192;

/// How many entries to presize the index of a `file_len`-byte store for.
fn index_capacity(file_len: u64) -> usize {
    usize::try_from(file_len / PRESIZE_RECORD_BYTES).unwrap_or(0)
}

/// One sealed `R` record line for `response` under `fingerprint`, built in
/// one buffer.
fn record_line(fingerprint: u64, response: &CompletionResponse) -> String {
    // Fixed fields, tabs and checksum take under 160 bytes.
    let escaped = response.text.len() + response.model.len();
    let mut line = String::with_capacity(160 + escaped + escaped / 8);
    line.push_str(RECORD_PREFIX);
    push_response_fields(&mut line, fingerprint, response);
    seal_line(&mut line);
    line
}

/// A crash-safe, content-addressed, disk-backed map from request
/// fingerprint to paid answer. See the [module docs](self) for format and
/// process discipline.
pub struct ResponseStore {
    path: PathBuf,
    inner: Mutex<StoreInner>,
    /// The single-writer lock (declared last: the log closes before the
    /// lock is released).
    _writer_lock: WriterLock,
}

impl ResponseStore {
    /// Open (creating if absent) the store at `path` as its single writer.
    ///
    /// Existing records are checksum-verified in order; the file is
    /// truncated at the first torn or corrupt line (crash recovery) and the
    /// fingerprint index is rebuilt from the valid prefix. Fails if another
    /// writer holds the sidecar lock, or if the file carries a foreign
    /// header.
    pub fn open(path: impl AsRef<Path>, _config: StoreConfig) -> std::io::Result<ResponseStore> {
        let path = path.as_ref();
        let writer_lock = WriterLock::acquire(path)?;
        let file_len = std::fs::metadata(path).map_or(0, |meta| meta.len());
        let mut entries = HashMap::with_capacity(index_capacity(file_len));
        let mut last_model = LastModel::default();
        let log = LogFile::open(
            path,
            HEADER,
            |payload| parse_record(payload, &mut last_model),
            |(fingerprint, response)| {
                // First write wins, on replay as in `insert`.
                entries
                    .entry(fingerprint)
                    .or_insert_with(|| Arc::new(response));
            },
        )?;
        Ok(ResponseStore {
            path: path.to_path_buf(),
            _writer_lock: writer_lock,
            inner: Mutex::new(StoreInner {
                log,
                entries,
                failed_appends: 0,
                last_append_error: None,
            }),
        })
    }

    /// The store's file path.
    pub fn path(&self) -> &Path {
        &self.path
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

    /// The stored response for a request fingerprint. The response is
    /// bit-identical to the one the original process paid for (`cached` is
    /// `false` on disk; the serving client marks its copy `cached: true` so
    /// the hit charges nothing).
    pub fn lookup(&self, fingerprint: u64) -> Option<Arc<CompletionResponse>> {
        self.inner.lock().entries.get(&fingerprint).map(Arc::clone)
    }

    /// How many of this handle's appends the disk refused, and the last
    /// refusal's error text (`None` until one happens). A refused record
    /// is not indexed either, so the index never serves what the file
    /// lacks; the loss costs a re-run of that call, not a wrong answer.
    ///
    /// ```
    /// use crowdprompt_oracle::{ResponseStore, StoreConfig};
    ///
    /// let path = std::env::temp_dir().join(format!("append-failures-{}.log", std::process::id()));
    /// let store = ResponseStore::open(&path, StoreConfig::default()).unwrap();
    /// assert_eq!(store.append_failures(), (0, None));
    /// drop(store);
    /// std::fs::remove_file(&path).unwrap();
    /// let _ = std::fs::remove_file(path.with_extension("log.lock"));
    /// ```
    pub fn append_failures(&self) -> (u64, Option<String>) {
        let inner = self.inner.lock();
        (inner.failed_appends, inner.last_append_error.clone())
    }

    /// Admit one freshly paid completion: the cache policy in front of
    /// [`ResponseStore::record`].
    ///
    /// Refused — returning `false` — for non-deterministic requests
    /// (`temperature > 0`), for responses that were themselves cache hits,
    /// and for fingerprints already in the store.
    pub fn admit(&self, request: &CompletionRequest, response: &CompletionResponse) -> bool {
        self.cacheable(request, response)
            && self.insert(request.fingerprint(), response, || {
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
            && self.insert(fingerprint, response, || Arc::clone(response))
    }

    /// Whether [`ResponseStore::admit`]'s policy would cache `response`.
    fn cacheable(&self, request: &CompletionRequest, response: &CompletionResponse) -> bool {
        request.temperature == 0.0 && !response.cached
    }

    /// Keep `response` under `fingerprint` with no cacheability policy
    /// (`false` for fingerprints already held — first write wins). This is
    /// how the client's replay slot ([`crate::LlmClient::attach_journal`])
    /// logs every paid call, sampled ones included, sharing the body it
    /// returns. `response` is a paid one (`cached: false`), which is what a
    /// lookup returns. An append the disk refuses returns `false` and is
    /// counted in [`ResponseStore::append_failures`]; the log is
    /// best-effort durability, and the index stays consistent with it: a
    /// write that fails part-way is cut back off the file before the next
    /// append.
    pub fn record(&self, fingerprint: u64, response: &Arc<CompletionResponse>) -> bool {
        debug_assert!(!response.cached, "a stored body is the paid one");
        self.insert(fingerprint, response, || Arc::clone(response))
    }

    /// Log `response` as one record and index it, unless `fingerprint` is
    /// already held or the append fails. The record line is built before
    /// the lock is taken; `body` (the `Arc` to index) only once the record
    /// is written.
    fn insert(
        &self,
        fingerprint: u64,
        response: &CompletionResponse,
        body: impl FnOnce() -> Arc<CompletionResponse>,
    ) -> bool {
        let line = record_line(fingerprint, response);
        let mut inner = self.inner.lock();
        if inner.entries.contains_key(&fingerprint) {
            return false; // first write wins
        }
        if let Err(e) = inner.log.append(&line) {
            inner.failed_appends += 1;
            inner.last_append_error = Some(e.to_string());
            return false;
        }
        inner.entries.insert(fingerprint, body());
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
        let sampled = CompletionRequest {
            temperature: 0.7,
            ..request("prompt")
        };
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
        let sampled = CompletionRequest {
            temperature: 0.7,
            ..request("prompt")
        };
        let weird = CompletionResponse {
            finish_reason: FinishReason::Length,
            confidence: Some(0.875),
            ..response("line one\nline\ttwo \\ backslash\rcarriage", 3)
        };
        let shared = Arc::new(weird.clone());
        {
            let store = ResponseStore::open(&path, StoreConfig::default()).unwrap();
            assert!(!store.admit(&sampled, &weird));
            assert!(store.record(sampled.fingerprint(), &shared));
            assert!(Arc::ptr_eq(
                &store.lookup(sampled.fingerprint()).unwrap(),
                &shared
            ));
            assert!(store.record(42, &Arc::new(response("plain", 1))));
            let second = Arc::new(response("second", 1));
            assert!(!store.record(42, &second), "first wins");
        }
        let reopened = ResponseStore::open(&path, StoreConfig::default()).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(*reopened.lookup(sampled.fingerprint()).unwrap(), weird);
        assert_eq!(*reopened.lookup(42).unwrap(), response("plain", 1));
        drop(reopened);
        cleanup(&path);
    }

    #[test]
    fn a_record_keeps_the_answer_not_the_prompt() {
        // Two prompts 10 KB apart, the same answer: each admit grows the
        // file by the same number of bytes.
        let path = temp_path("answers");
        let store = ResponseStore::open(&path, StoreConfig::default()).unwrap();
        let grows = |prompt: &str| {
            let before = std::fs::metadata(&path).unwrap().len();
            assert!(store.admit(&request(prompt), &response("yes", 2)));
            std::fs::metadata(&path).unwrap().len() - before
        };
        let short = grows("Is it red?");
        let long = grows(&format!("Is it red? {}", "context ".repeat(1_280)));
        assert_eq!(short, long);
        let line = record_line(1, &response("yes", 2));
        assert_eq!(short, line.len() as u64);
        assert!(line.starts_with(RECORD_PREFIX), "{line}");
        drop(store);
        let reopened = ResponseStore::open(&path, StoreConfig::default()).unwrap();
        assert_eq!(reopened.len(), 2);
        drop(reopened);
        cleanup(&path);
    }

    #[test]
    fn a_refused_append_is_counted_kept_and_not_indexed() {
        let path = temp_path("refused");
        let store = ResponseStore::open(&path, StoreConfig::default()).unwrap();
        assert!(store.admit(&request("kept"), &response("k", 1)));
        assert_eq!(store.append_failures(), (0, None));
        // The error a write through a read-only handle gets here.
        let expected = (&File::open(&path).unwrap())
            .write_all(b"x")
            .unwrap_err()
            .to_string();
        store.inner.lock().log = LogFile::over(File::open(&path).unwrap());
        let refused = request("refused");
        assert!(!store.admit(&refused, &response("r", 1)));
        assert_eq!(store.append_failures(), (1, Some(expected.clone())));
        assert!(!store.record(42, &Arc::new(response("r", 1))));
        assert_eq!(store.append_failures(), (2, Some(expected)));
        assert!(!store.contains(refused.fingerprint()) && !store.contains(42));
        assert_eq!(store.len(), 1);
        drop(store);
        let reopened = ResponseStore::open(&path, StoreConfig::default()).unwrap();
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.append_failures(), (0, None));
        drop(reopened);
        cleanup(&path);
    }

    #[test]
    fn a_second_writer_is_refused_until_the_first_drops() {
        let path = temp_path("writer");
        let writer = ResponseStore::open(&path, StoreConfig::default()).unwrap();
        let err = match ResponseStore::open(&path, StoreConfig::default()) {
            Err(e) => e,
            Ok(_) => panic!("second writer must be refused"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        writer.admit(&request("p"), &response("v", 1));
        drop(writer);
        // Lock released on drop: a new writer may take over.
        let writer2 = ResponseStore::open(&path, StoreConfig::default()).unwrap();
        assert_eq!(writer2.len(), 1);
        cleanup(&path);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_lock_the_disk_refuses_fails_the_open_and_names_the_lock() {
        let path = temp_path("full-lock");
        let lock = lock_path(&path);
        cleanup(&path);
        // Every write to `/dev/full` fails, and so does truncating it.
        std::os::unix::fs::symlink("/dev/full", &lock).unwrap();
        let err = match ResponseStore::open(&path, StoreConfig::default()) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("a writer whose lock takes no pid must not open"),
        };
        assert!(err.contains("cannot write"), "{err}");
        assert!(err.contains(&lock.display().to_string()), "{err}");
        assert!(!path.exists(), "the store file is not created");
        cleanup(&path);
    }

    #[test]
    fn a_torn_tail_is_recovered_and_truncated_on_open() {
        let path = temp_path("torn");
        {
            let store = ResponseStore::open(&path, StoreConfig::default()).unwrap();
            store.admit(&request("kept"), &response("k", 1));
            store.admit(&request("torn"), &response("t", 1));
        }
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
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

    /// What an open rebuilt: every entry, by fingerprint.
    fn rebuilt(store: &ResponseStore) -> Vec<(u64, CompletionResponse)> {
        let inner = store.inner.lock();
        let mut entries: Vec<_> = inner
            .entries
            .iter()
            .map(|(fp, response)| (*fp, (**response).clone()))
            .collect();
        entries.sort_by_key(|(fp, _)| *fp);
        entries
    }

    #[test]
    fn a_record_with_a_field_more_or_fewer_is_rejected() {
        let line = record_line(0xfeed, &response("yes", 1));
        let payload = line.rsplit_once('\t').unwrap().0;
        let parse = |payload: &str| parse_record(payload, &mut LastModel::default());
        assert!(parse(payload).is_some());
        assert!(parse(&format!("{payload}\textra")).is_none());
        assert!(parse(payload.rsplit_once('\t').unwrap().0).is_none());
        assert!(parse("R").is_none());
        assert!(parse(&payload[1..]).is_none(), "no record kind");
    }

    #[test]
    fn a_replay_keeps_a_fingerprints_first_record_as_a_store_and_as_a_journal() {
        use crate::client::LlmClient;
        use crate::model::ModelProfile;
        use crate::sim::SimulatedLlm;
        use crate::world::WorldModel;

        let asked = request("asked twice");
        let (first, second) = (response("first", 1), response("second", 2));
        let path = temp_path("first-wins");
        let file = format!(
            "{HEADER}\n{}{}",
            record_line(asked.fingerprint(), &first),
            record_line(asked.fingerprint(), &second)
        );
        std::fs::write(&path, &file).unwrap();

        let store = ResponseStore::open(&path, StoreConfig::default()).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(*store.lookup(asked.fingerprint()).unwrap(), first);
        drop(store);
        assert!(
            std::fs::read(&path).unwrap() == file.as_bytes(),
            "store open"
        );

        // A journal replays the paid answer it holds, without a call.
        let llm = SimulatedLlm::new(ModelProfile::perfect(), Arc::new(WorldModel::new()), 1);
        let client = LlmClient::new(Arc::new(llm));
        let journal = ResponseStore::open(&path, StoreConfig::default()).unwrap();
        assert!(client.attach_journal(Arc::new(journal)));
        assert_eq!(client.complete(&asked).unwrap(), first);
        assert_eq!(client.stats().calls(), 0);
        drop(client);
        assert!(
            std::fs::read(&path).unwrap() == file.as_bytes(),
            "journal open"
        );
        cleanup(&path);
    }

    #[test]
    fn an_open_of_short_records_sizes_its_index_no_larger_than_growth_would() {
        let packed = "1. No\n2. Yes\n3. No\n4. No\n5. Yes\n6. No\n7. No\n8. Yes\n";
        for (entries, text, exact) in [
            (6, "No.", true),
            (256, packed, true),
            (900, packed, false),
            (2_000, "Yes, based on the information provided.", false),
        ] {
            let path = temp_path("presized");
            {
                let store = ResponseStore::open(&path, StoreConfig::default()).unwrap();
                for fingerprint in 0..entries {
                    assert!(store.record(fingerprint, &Arc::new(response(text, 24))));
                }
            }
            let store = ResponseStore::open(&path, StoreConfig::default()).unwrap();
            let presized = store.inner.lock().entries.capacity();
            let mut grown = HashMap::new();
            for fingerprint in 0..entries {
                grown.insert(fingerprint, ());
            }
            assert!(presized >= entries as usize);
            assert!(
                presized <= grown.capacity(),
                "{entries} entries: {presized}"
            );
            if exact {
                assert_eq!(presized, grown.capacity(), "{entries} entries");
            }
            drop(store);
            cleanup(&path);
        }
    }

    #[test]
    fn a_replay_stops_and_truncates_at_the_first_damaged_record() {
        let entry = |i: u64| {
            let text = format!("answer {i}: {}", "lorem ipsum dolor ".repeat(4));
            (i * 7 + 1, response(&text, 2))
        };
        let records: Vec<String> = (0..40)
            .map(|i| {
                let (fingerprint, response) = entry(i);
                record_line(fingerprint, &response)
            })
            .collect();
        // A checksum flip, a checksum-valid record whose answer escape does
        // not decode, and a torn final line.
        let (flipped, unescapable, torn) = (10, 25, records.len() - 1);
        for damaged in [
            vec![],
            vec![flipped],
            vec![unescapable],
            vec![torn],
            vec![flipped, unescapable, torn],
        ] {
            let mut lines = records.clone();
            for &i in &damaged {
                let line = &mut lines[i];
                if i == torn {
                    line.truncate(line.len() - 9);
                } else if i == unescapable {
                    let mut bad =
                        line.rsplit_once('\t')
                            .unwrap()
                            .0
                            .replacen("answer", "ans\\xwer", 1);
                    seal_line(&mut bad);
                    *line = bad;
                } else {
                    *line = line.replacen("lorem", "Lorem", 1);
                }
            }
            let path = temp_path("damaged");
            std::fs::write(&path, format!("{HEADER}\n{}", lines.concat())).unwrap();
            let store = ResponseStore::open(&path, StoreConfig::default()).unwrap();
            let state = rebuilt(&store);
            drop(store);
            let stop = damaged.iter().min().copied().unwrap_or(records.len());
            let kept: Vec<_> = (0..stop as u64).map(entry).collect();
            assert!(state == kept, "index, damaged {damaged:?}");
            let file = format!("{HEADER}\n{}", records[..stop].concat());
            assert!(
                std::fs::read(&path).unwrap() == file.as_bytes(),
                "file, damaged {damaged:?}"
            );
            cleanup(&path);
        }
    }
}
