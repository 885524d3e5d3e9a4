//! Golden for the two on-disk logs: the exact bytes (length + FNV-1a) a
//! fixed sequence of paid misses, a sampled call, a near-duplicate prompt
//! and direct admits writes to a store file and to a journal file, and what
//! reopens of each then serve. First recorded before the store lost its
//! generation TTLs, capacity, cost-aware eviction and compaction.
//! Re-recorded twice since: when records stopped carrying
//! prompts (the emptied prompt column moved the bytes, and the
//! near-duplicate, once answered by the deleted semantic tier, became a
//! paid miss), and when format v2 keyed records by a new request hash and
//! dropped the empty generation and prompt columns. Two v1 files are
//! checked in under `tests/fixtures/`: an open must refuse them. Two v2
//! files, the store and journal this sequence writes, are checked in beside
//! them and pinned here too.
//!
//! The on-disk format is shared with every store and journal a user already
//! has, so a failure here means a byte of a record or a reopened answer
//! moved: fix `store.rs` or the client's miss path, do not re-record.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crowdprompt::oracle::hash::fnv1a;
use crowdprompt::oracle::store::{ResponseStore, StoreConfig};
use crowdprompt::oracle::{
    CompletionRequest, CompletionResponse, FinishReason, ItemId, LlmClient, ModelProfile, Pricing,
    SimulatedLlm, TaskDescriptor, Usage, WorldModel,
};

/// `(length, FNV-1a)` of the store file after the first session.
const STORE_BYTES: (usize, u64) = (915, 0x375953e234fdb23f);
/// `(length, FNV-1a)` of the journal file after the first session.
const JOURNAL_BYTES: (usize, u64) = (929, 0xeaeebc1264e24aa4);
/// `(length, FNV-1a)` of the store file after a writer reopen admits one more.
const STORE_BYTES_REOPENED: (usize, u64) = (1083, 0x613092bfe14508ab);
/// `(entries, FNV-1a of every key's lookup)` served by each reopen: of the
/// store before and after its appended record, and of the journal.
const STORE_WRITER_SERVES: (usize, u64) = (6, 0xc74d318182b44d0d);
const STORE_REOPENED_SERVES: (usize, u64) = (7, 0xfa8bff63629162ee);
const JOURNAL_SERVES: (usize, u64) = (6, 0x9f2e30921d5c7252);

/// Item texts, with tabs, newlines and multi-byte text for the escaping a
/// prompt-bearing record needed (the fixtures' prompts were built from
/// them).
const TEXTS: [&str; 5] = [
    "name: Chez Panisse;\taddress: 1517 Shattuck Ave;\tphone: 510-548-5525",
    "chocolate fudge brownie (double)\nwith walnuts",
    "caf\u{e9} cr\u{e8}me br\u{fb}l\u{e9}e \u{2014} 12\u{20ac}",
    "M. Stonebraker, \"The Design of POSTGRES\", SIGMOD 1986 \\ reprint",
    "Hayes Street Grill, 320 Hayes St., seafood\r\n",
];

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "crowdprompt-store-golden-{}-{tag}.log",
        std::process::id()
    ))
}

fn cleanup(path: &Path) {
    std::fs::remove_file(path).ok();
    let mut lock = path.as_os_str().to_os_string();
    lock.push(".lock");
    std::fs::remove_file(PathBuf::from(lock)).ok();
}

fn world() -> Arc<WorldModel> {
    let mut w = WorldModel::new();
    for (i, text) in TEXTS.iter().enumerate() {
        let id = w.add_item(*text);
        w.set_flag(id, "p", i % 2 == 0);
    }
    Arc::new(w)
}

fn check(item: u64, question: &str) -> CompletionRequest {
    CompletionRequest::new(
        format!(
            "{question}\nItem: {}\nAnswer Yes or No.",
            TEXTS[item as usize]
        ),
        TaskDescriptor::CheckPredicate {
            item: ItemId(item),
            predicate: "p".into(),
        },
    )
}

/// The paid temperature-0 requests of the first session, in order.
fn paid() -> Vec<CompletionRequest> {
    vec![
        check(0, "Is this a restaurant in Berkeley?"),
        check(1, "Would a pastry chef list this dessert?"),
        check(2, "Does this menu line name a price in euros?"),
        check(3, "Is this a database systems paper?"),
    ]
}

/// One letter away from `paid()[3]`: another fingerprint, so a paid miss.
fn near_duplicate() -> CompletionRequest {
    check(3, "Is this a database system paper?")
}

fn sampled() -> CompletionRequest {
    CompletionRequest {
        temperature: 0.7,
        sample_index: 2,
        ..check(1, "Would a pastry chef list this dessert?")
    }
}

/// A response no backend produced, with every field off its default.
fn external() -> (CompletionRequest, CompletionResponse) {
    let request = check(4, "Is this\ta seafood place?\r\nSay\\so.");
    let response = CompletionResponse {
        text: "Yes\tit is\nline two \\ backslash\rcarriage".into(),
        usage: Usage {
            prompt_tokens: 17,
            completion_tokens: 5,
        },
        finish_reason: FinishReason::Length,
        model: "external-model".into(),
        cached: false,
        pricing: Pricing::new(0.0005, 0.0015),
        confidence: Some(0.875),
    };
    (request, response)
}

/// Every key the sequence touched, admitted or not.
fn keys() -> Vec<u64> {
    let mut keys: Vec<u64> = paid().iter().map(CompletionRequest::fingerprint).collect();
    keys.push(sampled().fingerprint());
    keys.push(near_duplicate().fingerprint());
    keys.push(external().0.fingerprint());
    keys.push(check(4, "Is this a seafood place?").fingerprint());
    keys
}

fn client(store: Option<Arc<ResponseStore>>, journal: Option<Arc<ResponseStore>>) -> LlmClient {
    let llm = SimulatedLlm::new(ModelProfile::gpt35_like(), world(), 7);
    let client = LlmClient::new(Arc::new(llm));
    if let Some(store) = store {
        assert!(client.attach_store(store));
    }
    if let Some(journal) = journal {
        assert!(client.attach_journal(journal));
    }
    client
}

fn file_digest(path: &Path) -> (usize, u64) {
    let bytes = std::fs::read(path).unwrap();
    (bytes.len(), fnv1a(&bytes))
}

/// `(len, FNV-1a over every key's lookup and containment)`.
fn serves(store: &ResponseStore) -> (usize, u64) {
    let mut text = String::new();
    for key in keys() {
        let found = store.lookup(key);
        assert_eq!(found.is_some(), store.contains(key), "{key:016x}");
        text.push_str(&format!("{key:016x} {found:?}\n"));
    }
    (store.len(), fnv1a(text.as_bytes()))
}

#[test]
fn store_and_journal_bytes_and_reopens_are_pinned() {
    let (store_path, journal_path) = (temp_path("store"), temp_path("journal"));
    cleanup(&store_path);
    cleanup(&journal_path);

    // First session: four paid misses, a repeat, a sampled call, a
    // near-duplicate, then direct admits beside the client.
    {
        let store = Arc::new(ResponseStore::open(&store_path, StoreConfig::default()).unwrap());
        let journal = Arc::new(ResponseStore::open(&journal_path, StoreConfig::default()).unwrap());
        let client = client(Some(Arc::clone(&store)), Some(Arc::clone(&journal)));
        for request in paid() {
            assert!(!client.complete(&request).unwrap().cached);
        }
        assert!(client.complete(&paid()[0]).unwrap().cached, "a shard hit");
        assert!(!client.complete(&sampled()).unwrap().cached);
        let near = client.complete(&near_duplicate()).unwrap();
        assert!(!near.cached, "another fingerprint: a paid miss");
        let stats = client.stats();
        assert_eq!((stats.calls(), stats.cache_hits()), (6, 1));

        let (request, response) = external();
        assert!(store.admit(&request, &response));
        assert!(!store.admit(&request, &response), "first write wins");
        let hit = CompletionResponse {
            cached: true,
            ..response.clone()
        };
        assert!(!store.admit(&check(4, "Is this a seafood place?"), &hit));
        let warm = CompletionRequest {
            temperature: 0.3,
            ..request.clone()
        };
        assert!(!store.admit(&warm, &response));
        assert_eq!((store.len(), journal.len()), (6, 6));
        assert_eq!(store.append_failures(), (0, None));
        assert_eq!(journal.append_failures(), (0, None));
    }
    assert_eq!(file_digest(&store_path), STORE_BYTES, "store file");
    assert_eq!(file_digest(&journal_path), JOURNAL_BYTES, "journal file");

    // A writer reopen serves what was written, answers the near-duplicate
    // the first session paid for, and appends in the same format.
    {
        let store = Arc::new(ResponseStore::open(&store_path, StoreConfig::default()).unwrap());
        assert_eq!(serves(&store), STORE_WRITER_SERVES, "store writer reopen");
        let client = client(Some(Arc::clone(&store)), None);
        assert!(client.complete(&near_duplicate()).unwrap().cached);
        assert!(
            !client
                .complete(&check(4, "Is this a seafood place?"))
                .unwrap()
                .cached
        );
        let stats = client.stats();
        assert_eq!((stats.calls(), stats.store_hits()), (1, 1));
        assert_eq!(store.len(), 7);
    }
    assert_eq!(file_digest(&store_path), STORE_BYTES_REOPENED, "appended");

    let reopened = ResponseStore::open(&store_path, StoreConfig::default()).unwrap();
    assert_eq!(serves(&reopened), STORE_REOPENED_SERVES, "store reopen");
    let (request, response) = external();
    assert_eq!(*reopened.lookup(request.fingerprint()).unwrap(), response);
    drop(reopened);
    assert_eq!(
        file_digest(&store_path),
        STORE_BYTES_REOPENED,
        "a reopen rewrote the store"
    );

    // The journal replays every paid call, the sampled one included, and
    // charges what the first session paid.
    {
        let journal = Arc::new(ResponseStore::open(&journal_path, StoreConfig::default()).unwrap());
        assert_eq!(serves(&journal), JOURNAL_SERVES, "journal writer");
        let client = client(None, Some(journal));
        for request in paid().iter().chain([&sampled()]) {
            assert!(!client.complete(request).unwrap().cached, "a replay");
        }
        assert_eq!((client.stats().calls(), client.ledger().calls()), (0, 5));
    }
    let reopened = ResponseStore::open(&journal_path, StoreConfig::default()).unwrap();
    assert_eq!(serves(&reopened), JOURNAL_SERVES, "journal reopen");
    drop(reopened);
    assert_eq!(
        file_digest(&journal_path),
        JOURNAL_BYTES,
        "replays append nothing"
    );

    cleanup(&store_path);
    cleanup(&journal_path);
}

/// A store file (semantic tier on, so every record carries its escaped
/// prompt) and a journal file written by this test's sequence in format v1,
/// before the store stopped keeping prompts, checked in byte for byte.
const STORE_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/store-with-prompts.log"
);
const JOURNAL_FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/journal.log");
/// `(length, FNV-1a)` of each fixture.
const STORE_FIXTURE_BYTES: (usize, u64) = (1710, 0xa01aa0efd9a29274);
const JOURNAL_FIXTURE_BYTES: (usize, u64) = (867, 0xc1d752d53e17ddcb);

#[test]
fn checked_in_v1_logs_are_refused_and_left_as_they_were() {
    for (fixture, bytes, tag) in [
        (STORE_FIXTURE, STORE_FIXTURE_BYTES, "fixture-store"),
        (JOURNAL_FIXTURE, JOURNAL_FIXTURE_BYTES, "fixture-journal"),
    ] {
        let fixture = Path::new(fixture);
        assert_eq!(file_digest(fixture), bytes, "{}", fixture.display());
        // An open takes a lock beside its file: open a copy.
        let copy = temp_path(tag);
        cleanup(&copy);
        std::fs::copy(fixture, &copy).unwrap();
        let err = match ResponseStore::open(&copy, StoreConfig::default()) {
            Err(e) => e,
            Ok(_) => panic!("opened v1 file {}", fixture.display()),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        let text = err.to_string();
        for part in [
            "\"crowdprompt-store v1\"",
            "\"crowdprompt-store v2\"",
            "remove the file",
        ] {
            assert!(text.contains(part), "{part} not in {text}");
        }
        assert_eq!(file_digest(&copy), bytes, "the open touched it");
        cleanup(&copy);
    }
}

/// The store and journal files the first session of
/// `store_and_journal_bytes_and_reopens_are_pinned` writes in format v2,
/// checked in byte for byte.
const STORE_V2_FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/store-v2.log");
const JOURNAL_V2_FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/journal-v2.log");

#[test]
fn checked_in_logs_open_to_the_pinned_entries() {
    for (fixture, bytes, served, tag) in [
        (
            STORE_V2_FIXTURE,
            STORE_BYTES,
            STORE_WRITER_SERVES,
            "fixture-v2-store",
        ),
        (
            JOURNAL_V2_FIXTURE,
            JOURNAL_BYTES,
            JOURNAL_SERVES,
            "fixture-v2-journal",
        ),
    ] {
        let fixture = Path::new(fixture);
        assert_eq!(file_digest(fixture), bytes, "{}", fixture.display());
        // An open takes a lock beside its file: open a copy.
        let copy = temp_path(tag);
        cleanup(&copy);
        std::fs::copy(fixture, &copy).unwrap();
        let store = ResponseStore::open(&copy, StoreConfig::default()).unwrap();
        assert_eq!(serves(&store), served, "open of {}", fixture.display());
        drop(store);
        assert_eq!(
            file_digest(&copy),
            bytes,
            "an open rewrote {}",
            fixture.display()
        );
        cleanup(&copy);
    }
}

/// Named when the checked-in store was v1 and its records bore prompts. A
/// v2 record never does, so this now pins that a writer appends its
/// answer-only record after the checked-in v2 ones, leaving them byte for
/// byte, and ends at the bytes and entries a store written from scratch has.
#[test]
fn a_writer_appends_answer_only_records_after_prompt_bearing_ones() {
    let copy = temp_path("fixture-v2-appended");
    cleanup(&copy);
    std::fs::copy(STORE_V2_FIXTURE, &copy).unwrap();
    let old = std::fs::read(STORE_V2_FIXTURE).unwrap();

    let served = {
        let store = Arc::new(ResponseStore::open(&copy, StoreConfig::default()).unwrap());
        let client = client(Some(Arc::clone(&store)), None);
        assert!(
            client.complete(&near_duplicate()).unwrap().cached,
            "a store hit"
        );
        let unseen = check(4, "Is this a seafood place?");
        assert!(!client.complete(&unseen).unwrap().cached);
        assert_eq!(client.stats().calls(), 1);
        assert_eq!(store.append_failures(), (0, None));
        serves(&store)
    };
    assert_eq!(served.0, STORE_WRITER_SERVES.0 + 1);
    // The same seven answers a store written from scratch serves.
    assert_eq!(served, STORE_REOPENED_SERVES);

    let appended_file = std::fs::read(&copy).unwrap();
    assert_eq!(
        &appended_file[..old.len()],
        &old[..],
        "the old records stay as they were"
    );
    assert_eq!(file_digest(&copy), STORE_BYTES_REOPENED);
    let appended = std::str::from_utf8(&appended_file[old.len()..]).unwrap();
    assert_eq!(appended.matches('\n').count(), 1, "{appended}");
    let key = check(4, "Is this a seafood place?").fingerprint();
    assert!(
        appended.starts_with(&format!("R\t{key:016x}\t")),
        "a v2 record, keyed and with no prompt column: {appended}"
    );

    let writer = ResponseStore::open(&copy, StoreConfig::default()).unwrap();
    assert_eq!(
        serves(&writer),
        served,
        "writer reopen of the appended file"
    );
    drop(writer);
    assert_eq!(
        std::fs::read(&copy).unwrap(),
        appended_file,
        "a reopen rewrote it"
    );
    cleanup(&copy);
}
