//! Crash/resume property tests for the run journal (PR 7).
//!
//! The contract under test: a run journaled to disk, killed at an
//! *arbitrary byte* of the journal file, and resumed by a completely fresh
//! process stack (new client, new cache, new budget) produces results and
//! accounting **bit-identical** to the run that was never interrupted —
//! and re-dispatches only the tasks the torn journal lost.
//!
//! Determinism notes baked into the setup:
//!
//! * `parallelism(1)` — the budget tracker sums `f64` spend in completion
//!   order, and f64 addition is order-dependent; one worker pins the order
//!   so spend can be compared bit-for-bit.
//! * The cost ledger stores integer nanodollars, so it is order-independent
//!   and always comparable exactly.
//! * `NoiseProfile::perfect()` at temperature 0 — the simulated model is a
//!   pure function of the request, so a re-dispatched gap task returns the
//!   same bytes the lost original did.

use std::path::PathBuf;
use std::sync::Arc;

use crowdprompt::core::ops::filter::FilterStrategy;
use crowdprompt::oracle::model::NoiseProfile;
use crowdprompt::oracle::world::{ItemId, WorldModel};
use crowdprompt::prelude::*;
use proptest::prelude::*;

fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "crowdprompt-resume-test-{}-{tag}-{n}.log",
        std::process::id()
    ))
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

/// A fresh, fully independent session stack journaling to `journal`:
/// new simulated model, new client (empty cache, zeroed ledger), new
/// budget tracker. Only the journal file carries state between stacks.
fn journaled_session(w: &WorldModel, items: &[ItemId], seed: u64, journal: &PathBuf) -> Session {
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
        .resilience(ResilienceConfig::new().journal_path(journal))
        .build()
}

/// Everything the resume contract pins, captured after a run.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    kept: Vec<ItemId>,
    budget_spend_bits: u64,
    ledger_spend_bits: u64,
    ledger_calls: u64,
    ledger_prompt_tokens: u32,
    ledger_completion_tokens: u32,
}

fn run_filter(session: &Session, items: &[ItemId]) -> Fingerprint {
    let out = session
        .filter(items, "keep", FilterStrategy::Single)
        .expect("perfect-noise filter must succeed");
    let ledger = session.engine().client().ledger();
    let usage = ledger.usage();
    Fingerprint {
        kept: out.value,
        budget_spend_bits: session.spent_usd().to_bits(),
        ledger_spend_bits: ledger.spend_usd().to_bits(),
        ledger_calls: ledger.calls(),
        ledger_prompt_tokens: usage.prompt_tokens,
        ledger_completion_tokens: usage.completion_tokens,
    }
}

proptest! {
    /// Kill the journal at an arbitrary byte and resume on a fresh stack:
    /// results and accounting are bit-identical to the uninterrupted run,
    /// and only the tasks the torn journal lost are re-dispatched.
    #[test]
    fn resume_after_torn_journal_is_bit_identical(
        (n, cut_permille) in (8usize..32, 0u64..1001),
        seed in 0u64..1_000_000,
    ) {
        let (w, items) = keep_world(n);

        // Uninterrupted reference run.
        let clean_path = temp_path("clean");
        let clean_session = journaled_session(&w, &items, seed, &clean_path);
        let reference = run_filter(&clean_session, &items);
        prop_assert_eq!(reference.ledger_calls, n as u64);

        // Simulate a crash: copy the journal and chop it at an arbitrary
        // byte past the header (the header is one flushed write at open,
        // so a real crash can only tear after it).
        let bytes = std::fs::read(&clean_path).unwrap();
        let header_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let cut = header_len + (bytes.len() - header_len) * cut_permille as usize / 1000;
        let torn_path = temp_path("torn");
        std::fs::write(&torn_path, &bytes[..cut]).unwrap();

        // How many whole records survived the tear (open() drops the torn
        // tail; count with a scratch handle, then drop it before the
        // resuming session opens the file for real).
        let intact = {
            let scratch = RunJournal::open(&torn_path).unwrap();
            scratch.len()
        };
        prop_assert!(intact <= n);

        // Resume on a completely fresh stack.
        let resumed_session = journaled_session(&w, &items, seed, &torn_path);
        let resumed = run_filter(&resumed_session, &items);

        // Bit-identical results and accounting: same kept set, same budget
        // spend bits, same ledger (calls, tokens, spend bits).
        prop_assert_eq!(&resumed, &reference);

        // Replayed records were NOT re-dispatched: the client saw exactly
        // the gap, and the journal is whole again afterwards.
        let dispatched = resumed_session.engine().client().stats().calls();
        prop_assert_eq!(dispatched, (n - intact) as u64);
        prop_assert_eq!(
            resumed_session.engine().journal().unwrap().len(),
            n,
            "resume must re-journal the gap"
        );

        std::fs::remove_file(&clean_path).ok();
        std::fs::remove_file(&torn_path).ok();
    }
}

#[test]
fn full_journal_resume_dispatches_nothing() {
    let (w, items) = keep_world(20);
    let path = temp_path("full");
    let first = journaled_session(&w, &items, 17, &path);
    let reference = run_filter(&first, &items);
    drop(first);

    // Same journal, untouched: the resumed run is pure replay.
    let resumed = journaled_session(&w, &items, 17, &path);
    let replayed = run_filter(&resumed, &items);
    assert_eq!(replayed, reference);
    assert_eq!(
        resumed.engine().client().stats().calls(),
        0,
        "a complete journal must serve the whole run without dispatching"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn journaling_does_not_change_results_or_spend() {
    // A journaled run and a journal-free run of the same operation agree
    // on results and accounting: the journal is pure durability, invisible
    // to the run it records.
    let (w, items) = keep_world(20);
    let path = temp_path("invisible");
    let journaled = journaled_session(&w, &items, 23, &path);
    let with_journal = run_filter(&journaled, &items);

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
    let without_journal = run_filter(&bare, &items);
    assert_eq!(with_journal, without_journal);
    std::fs::remove_file(&path).ok();
}
