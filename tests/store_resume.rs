//! Crash/recovery property tests for the persistent response store (PR 9).
//!
//! The contract under test: a response store populated on disk, killed at
//! an *arbitrary byte* of the store file, and reopened by a completely
//! fresh process stack recovers **exactly the complete-record prefix** —
//! every record the tear spared is served bit-identically, every record it
//! lost is re-dispatched (and only those), and the store is whole again
//! afterwards. Unlike the run journal (which replays *charges* so resumed
//! accounting matches the uninterrupted run), store hits are free: the
//! recovered prefix costs the resumed run nothing.
//!
//! Also covered: the single-writer/multi-reader process discipline — a
//! second writer on a live store is refused with `WouldBlock` while
//! read-only handles snapshot freely, and the writer lock is released on
//! drop — and a crash that tore the header line itself: such a file opens
//! as an empty store.

use std::path::PathBuf;
use std::sync::Arc;

use crowdprompt::core::ops::filter::FilterStrategy;
use crowdprompt::oracle::model::NoiseProfile;
use crowdprompt::oracle::store::{ResponseStore, StoreConfig};
use crowdprompt::oracle::world::{ItemId, WorldModel};
use crowdprompt::prelude::*;
use proptest::prelude::*;

fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "crowdprompt-store-resume-{}-{tag}-{n}.log",
        std::process::id()
    ))
}

fn cleanup(path: &PathBuf) {
    std::fs::remove_file(path).ok();
    let mut lock = path.as_os_str().to_os_string();
    lock.push(".lock");
    std::fs::remove_file(PathBuf::from(lock)).ok();
}

fn keep_world(n: usize) -> (WorldModel, Vec<ItemId>) {
    let mut w = WorldModel::new();
    let items = (0..n)
        .map(|i| {
            let id = w.add_item(format!("record number {i}"));
            w.set_flag(id, "keep", i % 3 == 0);
            id
        })
        .collect();
    (w, items)
}

/// A fresh, fully independent session stack persisting to `store`: new
/// simulated model, new client (empty in-memory cache, zeroed ledger), new
/// budget tracker. Only the store file carries state between stacks.
fn store_session(w: &WorldModel, items: &[ItemId], seed: u64, store: &PathBuf) -> Session {
    let llm = SimulatedLlm::new(
        ModelProfile::gpt35_like().with_noise(NoiseProfile::perfect()),
        Arc::new(w.clone()),
        seed,
    );
    Session::builder()
        .client(Arc::new(LlmClient::new(Arc::new(llm))))
        .corpus(Corpus::from_world(w, items))
        .criterion("by index")
        .parallelism(1)
        .cache(CacheConfig::new().store_path(store))
        .try_build()
        .expect("store session must build")
}

fn run_filter(session: &Session, items: &[ItemId]) -> Vec<ItemId> {
    session
        .filter(items, "keep", FilterStrategy::Single)
        .expect("perfect-noise filter must succeed")
        .value
}

proptest! {
    /// Kill the store file at an arbitrary byte and reopen on a fresh
    /// stack: exactly the complete-record prefix survives, the fresh run
    /// re-dispatches only the gap, results are bit-identical, and the
    /// meter == ledger == budget invariant holds throughout.
    #[test]
    fn torn_store_recovers_exact_complete_prefix(
        (n, cut_permille) in (8usize..32, 0u64..1001),
        seed in 0u64..1_000_000,
    ) {
        let (w, items) = keep_world(n);

        // Populate a store with one record per item, then capture the
        // reference results.
        let clean_path = temp_path("clean");
        let cold = store_session(&w, &items, seed, &clean_path);
        let reference = run_filter(&cold, &items);
        prop_assert_eq!(cold.engine().client().stats().calls(), n as u64);
        drop(cold); // releases the writer lock, flushed records stay

        // Simulate a crash: chop the file at an arbitrary byte past the
        // header (a torn header has its own test below).
        let bytes = std::fs::read(&clean_path).unwrap();
        let header_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let cut = header_len + (bytes.len() - header_len) * cut_permille as usize / 1000;
        let torn_path = temp_path("torn");
        std::fs::write(&torn_path, &bytes[..cut]).unwrap();

        // The exact complete-record prefix: every record is one flushed
        // line, so the recoverable prefix is precisely the whole lines the
        // cut spared. A read-only probe (no truncation) must agree.
        let intact = bytes[header_len..cut].iter().filter(|&&b| b == b'\n').count();
        let probe = ResponseStore::open_read_only(&torn_path, StoreConfig::default()).unwrap();
        prop_assert_eq!(probe.len(), intact);
        drop(probe);

        // Resume on a completely fresh stack: same results, and only the
        // torn-off gap is re-dispatched.
        let warm = store_session(&w, &items, seed, &torn_path);
        let resumed = run_filter(&warm, &items);
        prop_assert_eq!(&resumed, &reference);
        let stats = warm.engine().client().stats();
        prop_assert_eq!(stats.calls(), (n - intact) as u64);
        prop_assert_eq!(stats.store_hits(), intact as u64);

        // Store hits are free: the budget and the ledger both saw only the
        // gap dispatches. (The ledger stores integer nanodollars while the
        // budget sums raw f64s, so they agree to rounding, not to bits.)
        let ledger = warm.engine().client().ledger();
        prop_assert!((warm.spent_usd() - ledger.spend_usd()).abs() < 1e-6);
        prop_assert_eq!(ledger.calls(), (n - intact) as u64);
        if intact == n {
            prop_assert_eq!(warm.spent_usd().to_bits(), 0f64.to_bits());
        }

        // The gap was re-admitted: the store is whole again.
        let store = warm.engine().client().store().expect("store attached");
        prop_assert_eq!(store.len(), n);

        cleanup(&clean_path);
        cleanup(&torn_path);
    }
}

#[test]
fn second_writer_refused_while_readers_snapshot_freely() {
    let (w, items) = keep_world(12);
    let path = temp_path("writers");
    let writer = store_session(&w, &items, 17, &path);
    let reference = run_filter(&writer, &items);

    // Two handles, one file: the second writer is refused while the first
    // session's store handle is alive...
    match ResponseStore::open(&path, StoreConfig::default()) {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock),
        Ok(_) => panic!("second writer must be refused while the lock is held"),
    }

    // ...but read-only handles snapshot concurrently and see every record
    // the writer has flushed so far.
    let reader = ResponseStore::open_read_only(&path, StoreConfig::default()).unwrap();
    assert_eq!(reader.len(), items.len());
    assert!(reader.is_read_only());
    drop(reader);

    // Dropping the writing session releases the lock; a fresh writer both
    // opens and serves the stored records without re-dispatching.
    drop(writer);
    let successor = store_session(&w, &items, 17, &path);
    assert_eq!(run_filter(&successor, &items), reference);
    assert_eq!(successor.engine().client().stats().calls(), 0);
    cleanup(&path);
}

#[test]
fn store_is_invisible_to_results() {
    // A store-backed run and a store-less run of the same operation agree
    // exactly: the persistent tier changes dispatch counts, never results.
    let (w, items) = keep_world(20);
    let path = temp_path("invisible");
    let stored = store_session(&w, &items, 23, &path);
    let with_store = run_filter(&stored, &items);

    let llm = SimulatedLlm::new(
        ModelProfile::gpt35_like().with_noise(NoiseProfile::perfect()),
        Arc::new(w.clone()),
        23,
    );
    let bare = Session::builder()
        .client(Arc::new(LlmClient::new(Arc::new(llm))))
        .corpus(Corpus::from_world(&w, &items))
        .criterion("by index")
        .parallelism(1)
        .build();
    let without_store = run_filter(&bare, &items);
    assert_eq!(with_store, without_store);
    cleanup(&path);
}

#[test]
fn torn_header_opens_as_an_empty_store() {
    let (w, items) = keep_world(6);
    let clean_path = temp_path("header-clean");
    let reference = run_filter(&store_session(&w, &items, 29, &clean_path), &items);
    let bytes = std::fs::read(&clean_path).unwrap();
    let header_line = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    assert_eq!(header_line, 21, "`crowdprompt-store v1` and its newline");

    for cut in [5, 20] {
        let path = temp_path("header-torn");
        std::fs::write(&path, &bytes[..cut]).unwrap();

        // A reader sees no records and leaves the file alone.
        let reader = ResponseStore::open_read_only(&path, StoreConfig::default()).unwrap();
        assert_eq!(reader.len(), 0, "cut at {cut}");
        drop(reader);
        assert_eq!(std::fs::read(&path).unwrap(), &bytes[..cut]);

        // A writer starts the log afresh: a whole header, then the records
        // of the run it serves, which a later reader sees.
        let session = store_session(&w, &items, 29, &path);
        assert_eq!(run_filter(&session, &items), reference, "cut at {cut}");
        assert_eq!(
            session.engine().client().stats().calls(),
            items.len() as u64
        );
        drop(session);
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "cut at {cut}");
        let reopened = ResponseStore::open_read_only(&path, StoreConfig::default()).unwrap();
        assert_eq!(reopened.len(), items.len(), "cut at {cut}");
        drop(reopened);
        cleanup(&path);
    }

    // A file that is not a prefix of our header is still refused and left
    // as it was: another version, a binary file (PNG's first bytes), and a
    // prefix of our header followed by bytes that are not text.
    let foreign_files: [&[u8]; 3] = [
        b"crowdprompt-store v2\n",
        b"\x89PNG\r\n\x1a\n",
        b"crow\xff\xfe",
    ];
    for contents in foreign_files {
        let foreign = temp_path("header-foreign");
        std::fs::write(&foreign, contents).unwrap();
        assert!(ResponseStore::open(&foreign, StoreConfig::default()).is_err());
        assert!(ResponseStore::open_read_only(&foreign, StoreConfig::default()).is_err());
        assert_eq!(std::fs::read(&foreign).unwrap(), contents);
        cleanup(&foreign);
    }
    cleanup(&clean_path);
}
