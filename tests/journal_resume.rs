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
//! * `NoiseProfile::perfect()` — the simulated model is a pure function of
//!   the request (sample index included when the temperature is positive),
//!   so a re-dispatched gap task returns the same bytes the lost original
//!   did.
//!
//! The journal is a `ResponseStore` in the client's replay slot, so the
//! file format, torn-tail recovery and writer lock under test here are the
//! store's own.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crowdprompt::core::ops::filter::FilterStrategy;
use crowdprompt::oracle::model::NoiseProfile;
use crowdprompt::oracle::store::{ResponseStore, StoreConfig};
use crowdprompt::oracle::task::TaskDescriptor;
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

fn lock_path(path: &Path) -> PathBuf {
    let mut lock = path.as_os_str().to_os_string();
    lock.push(".lock");
    PathBuf::from(lock)
}

fn cleanup(path: &Path) {
    std::fs::remove_file(path).ok();
    std::fs::remove_file(lock_path(path)).ok();
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
    journaled_builder(w, items, seed, journal)
        .parallelism(1)
        .build()
}

fn journaled_builder(
    w: &WorldModel,
    items: &[ItemId],
    seed: u64,
    journal: &PathBuf,
) -> SessionBuilder {
    let llm = SimulatedLlm::new(
        ModelProfile::gpt35_like().with_noise(NoiseProfile::perfect()),
        Arc::new(w.clone()),
        seed,
    );
    Session::builder()
        .client(Arc::new(LlmClient::new(Arc::new(llm))))
        .corpus(Corpus::from_world(w, items))
        .criterion("by index")
        .resilience(ResilienceConfig::new().journal_path(journal))
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

fn run_filter(session: &Session, items: &[ItemId], strategy: FilterStrategy) -> Fingerprint {
    let out = session
        .filter(items, "keep", strategy)
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
    /// and only the calls the torn journal lost are re-dispatched. The
    /// sampled operator issues `temperature > 0` calls, which no cache
    /// tier keeps and only the journal records.
    #[test]
    fn resume_after_torn_journal_is_bit_identical(
        (n, cut_permille) in (8usize..32, 0u64..1001),
        seed in 0u64..1_000_000,
        sampled in any::<bool>(),
    ) {
        let (w, items) = keep_world(n);
        let (strategy, calls) = if sampled {
            let votes = 3;
            (FilterStrategy::MajorityVote { votes, temperature_pct: 70 }, n * votes as usize)
        } else {
            (FilterStrategy::Single, n)
        };

        // Uninterrupted reference run.
        let clean_path = temp_path("clean");
        let clean_session = journaled_session(&w, &items, seed, &clean_path);
        let reference = run_filter(&clean_session, &items, strategy);
        prop_assert_eq!(reference.ledger_calls, calls as u64);

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
            let scratch = ResponseStore::open(&torn_path, StoreConfig::default()).unwrap();
            scratch.len()
        };
        prop_assert!(intact <= calls);

        // Resume on a completely fresh stack.
        let resumed_session = journaled_session(&w, &items, seed, &torn_path);
        let resumed = run_filter(&resumed_session, &items, strategy);

        // Bit-identical results and accounting: same kept set, same budget
        // spend bits, same ledger (calls, tokens, spend bits).
        prop_assert_eq!(&resumed, &reference);

        // Replayed records were NOT re-dispatched: the client saw exactly
        // the gap, and the journal is whole again afterwards.
        let dispatched = resumed_session.engine().client().stats().calls();
        prop_assert_eq!(dispatched, (calls - intact) as u64);
        prop_assert_eq!(
            resumed_session.engine().client().journal().unwrap().len(),
            calls,
            "resume must re-journal the gap"
        );

        cleanup(&clean_path);
        cleanup(&torn_path);
    }
}

#[test]
fn full_journal_resume_dispatches_nothing() {
    let (w, items) = keep_world(20);
    let path = temp_path("full");
    let first = journaled_session(&w, &items, 17, &path);
    let reference = run_filter(&first, &items, FilterStrategy::Single);
    drop(first);

    // Same journal, untouched: the resumed run is pure replay.
    let resumed = journaled_session(&w, &items, 17, &path);
    let replayed = run_filter(&resumed, &items, FilterStrategy::Single);
    assert_eq!(replayed, reference);
    assert_eq!(
        resumed.engine().client().stats().calls(),
        0,
        "a complete journal must serve the whole run without dispatching"
    );
    cleanup(&path);
}

const KILLED_WRITER_ENV: &str = "CROWDPROMPT_KILLED_WRITER_JOURNAL";

/// Child half of `resume_after_a_killed_writer_needs_no_cleanup` (a no-op
/// in an ordinary run): journal a run to the path in the environment, then
/// die holding the journal, without running any `Drop`.
#[test]
fn killed_writer_child() {
    let Some(path) = std::env::var_os(KILLED_WRITER_ENV).map(PathBuf::from) else {
        return;
    };
    let (w, items) = keep_world(20);
    let session = journaled_session(&w, &items, 17, &path);
    run_filter(&session, &items, FilterStrategy::Single);
    std::process::abort();
}

#[test]
fn resume_after_a_killed_writer_needs_no_cleanup() {
    // SIGKILL, OOM, abort and power loss run no `Drop`, so the dead
    // writer's `<journal>.lock` sidecar is still on disk. The lock proper
    // is a kernel advisory lock that died with the process: the resume
    // opens the same path unattended.
    let (w, items) = keep_world(20);
    let path = temp_path("killed");
    let status = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "killed_writer_child"])
        .env(KILLED_WRITER_ENV, &path)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .unwrap();
    assert!(!status.success(), "the child must die, not exit: {status}");
    assert!(lock_path(&path).exists(), "no Drop ran; the sidecar stays");

    let reference_path = temp_path("killed-reference");
    let reference = run_filter(
        &journaled_session(&w, &items, 17, &reference_path),
        &items,
        FilterStrategy::Single,
    );
    let resumed = journaled_session(&w, &items, 17, &path);
    assert_eq!(
        run_filter(&resumed, &items, FilterStrategy::Single),
        reference
    );
    assert_eq!(resumed.engine().client().stats().calls(), 0);

    // While the resumed session lives, the lock is held for real.
    let err = journaled_builder(&w, &items, 17, &path)
        .try_build()
        .err()
        .expect("a live writer must refuse a second one");
    assert!(err.to_string().contains("already has a writer"), "{err}");
    cleanup(&path);
    cleanup(&reference_path);
}

#[test]
fn journaling_does_not_change_results_or_spend() {
    // A journaled run and a journal-free run of the same operation agree
    // on results and accounting: the journal is pure durability, invisible
    // to the run it records.
    let (w, items) = keep_world(20);
    let path = temp_path("invisible");
    let journaled = journaled_session(&w, &items, 23, &path);
    let journaled_run = run_filter(&journaled, &items, FilterStrategy::Single);

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
    let bare_run = run_filter(&bare, &items, FilterStrategy::Single);
    assert_eq!(journaled_run, bare_run);
    cleanup(&path);
}

/// What a duplicate-heavy parallel run charged: ledger calls, ledger spend
/// bits, budget spend.
fn run_duplicates(session: &Session, tasks: &[TaskDescriptor]) -> (u64, u64, f64) {
    let responses = session.engine().run_many(tasks.to_vec()).unwrap();
    assert_eq!(responses.len(), tasks.len());
    let ledger = session.engine().client().ledger();
    (
        ledger.calls(),
        ledger.spend_usd().to_bits(),
        session.spent_usd(),
    )
}

#[test]
fn duplicate_replays_charge_once_under_parallel_resume() {
    // Many workers asking for the same journaled fingerprint at once: one
    // of them replays (and is charged what the original call was), the
    // rest join its flight or hit the cache for free — exactly what
    // happened in the original run. Replaying above the flight claim let
    // two workers each re-charge the same record.
    const KEYS: usize = 48;
    const COPIES: usize = 64;
    const RESUMES: usize = 12;
    let (w, items) = keep_world(KEYS);
    // Runs of one fingerprint as long as two maximal worker claims, so two
    // workers start on each new fingerprint together.
    let tasks: Vec<TaskDescriptor> = items
        .iter()
        .flat_map(|&item| {
            std::iter::repeat_n(
                TaskDescriptor::CheckPredicate {
                    item,
                    predicate: "keep".into(),
                },
                COPIES,
            )
        })
        .collect();
    let path = temp_path("duplicates");
    let original = {
        let session = journaled_builder(&w, &items, 31, &path)
            .parallelism(8)
            .build();
        let charged = run_duplicates(&session, &tasks);
        assert_eq!(session.engine().client().stats().calls(), KEYS as u64);
        charged
    };
    assert_eq!(original.0, KEYS as u64, "one paid call per fingerprint");
    for resume in 0..RESUMES {
        let session = journaled_builder(&w, &items, 31, &path)
            .parallelism(8)
            .build();
        let replayed = run_duplicates(&session, &tasks);
        assert_eq!(
            session.engine().client().stats().calls(),
            0,
            "resume {resume} dispatched"
        );
        assert_eq!(
            (replayed.0, replayed.1),
            (original.0, original.1),
            "resume {resume} re-charged a replay on the ledger"
        );
        // Eight workers record budget spend in completion order, so the
        // f64 sum is compared to well under one call's price, not by bits.
        assert!(
            (replayed.2 - original.2).abs() < 1e-9,
            "resume {resume} re-charged a replay on the budget: {} vs {}",
            replayed.2,
            original.2
        );
    }
    cleanup(&path);
}

#[test]
fn degraded_resume_admits_replays_against_the_budget_and_deadline() {
    // A replay stands for a paid call, so under `Degrade` it is admitted
    // like one: a resume on half the money replays until the cap and
    // quarantines the rest, and a resume past its deadline quarantines
    // everything, where a free cache hit would be served anyway.
    let (w, items) = keep_world(20);
    let path = temp_path("capped");
    let tasks: Vec<TaskDescriptor> = items
        .iter()
        .map(|&item| TaskDescriptor::CheckPredicate {
            item,
            predicate: "keep".into(),
        })
        .collect();
    let degrade = |budget, resilience: ResilienceConfig| {
        journaled_builder(&w, &items, 5, &path)
            .parallelism(1)
            .budget(budget)
            .resilience(
                resilience
                    .journal_path(&path)
                    .failure_policy(FailurePolicy::degrade()),
            )
            .build()
    };
    let full = {
        let session = degrade(Budget::Unlimited, ResilienceConfig::new());
        let outcome = session
            .engine()
            .run_outcome(RunSpec::tasks(tasks.clone()))
            .unwrap();
        assert!(outcome.is_complete());
        session.spent_usd()
    };

    {
        let capped = degrade(Budget::usd(full / 2.0), ResilienceConfig::new());
        let outcome = capped
            .engine()
            .run_outcome(RunSpec::tasks(tasks.clone()))
            .unwrap();
        let client = capped.engine().client();
        assert_eq!(client.stats().calls(), 0, "nothing is dispatched");
        assert!(outcome.ok_count() > 0 && !outcome.quarantined.is_empty());
        assert!(outcome
            .quarantined
            .iter()
            .all(|q| matches!(q.errors.last(), Some(EngineError::BudgetExceeded { .. }))));
        assert!(capped.spent_usd() <= full / 2.0);
        assert_eq!(client.ledger().calls(), outcome.ok_count() as u64);
        assert!((client.ledger().spend_usd() - capped.spent_usd()).abs() < 1e-12);
    }

    let late = degrade(Budget::Unlimited, ResilienceConfig::new().deadline_ms(0));
    let outcome = late.engine().run_outcome(RunSpec::tasks(tasks)).unwrap();
    assert_eq!(outcome.ok_count(), 0);
    assert!(outcome
        .quarantined
        .iter()
        .all(|q| matches!(q.errors.last(), Some(EngineError::DeadlineExceeded))));
    assert_eq!(late.engine().client().ledger().calls(), 0);
    assert_eq!(late.spent_usd().to_bits(), 0f64.to_bits());
    cleanup(&path);
}

#[test]
fn journal_and_store_cannot_share_a_file() {
    // One log cannot be both free to hit and charged to replay; the
    // store's single-writer lock refuses the second open.
    let (w, items) = keep_world(2);
    let path = temp_path("shared");
    let err = journaled_builder(&w, &items, 1, &path)
        .cache(CacheConfig::new().store_path(&path))
        .try_build()
        .err()
        .expect("one file in both slots must be refused");
    assert!(
        err.to_string().starts_with("invalid input: resilience:"),
        "{err}"
    );
    cleanup(&path);
}
