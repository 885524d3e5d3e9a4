//! The journaled session stack shared by `journal_resume.rs` and
//! `killed_writer.rs`: temp paths, a keep/drop world, a fresh session
//! journaling to a path, and what a filter run charged.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crowdprompt::core::ops::filter::FilterStrategy;
use crowdprompt::oracle::model::NoiseProfile;
use crowdprompt::oracle::world::{ItemId, WorldModel};
use crowdprompt::prelude::*;

pub fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "crowdprompt-resume-test-{}-{tag}-{n}.log",
        std::process::id()
    ))
}

pub fn lock_path(path: &Path) -> PathBuf {
    let mut lock = path.as_os_str().to_os_string();
    lock.push(".lock");
    PathBuf::from(lock)
}

pub fn cleanup(path: &Path) {
    std::fs::remove_file(path).ok();
    std::fs::remove_file(lock_path(path)).ok();
}

pub fn keep_world(n: usize) -> (WorldModel, Vec<ItemId>) {
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
pub fn journaled_session(
    w: &WorldModel,
    items: &[ItemId],
    seed: u64,
    journal: &PathBuf,
) -> Session {
    journaled_builder(w, items, seed, journal)
        .parallelism(1)
        .build()
}

pub fn journaled_builder(
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
pub struct Fingerprint {
    kept: Vec<ItemId>,
    budget_spend_bits: u64,
    ledger_spend_bits: u64,
    pub ledger_calls: u64,
    ledger_prompt_tokens: u32,
    ledger_completion_tokens: u32,
}

pub fn run_filter(session: &Session, items: &[ItemId], strategy: FilterStrategy) -> Fingerprint {
    let query = session.query(items).filter_with("keep", strategy);
    let run = session.plan(query).and_then(|plan| plan.execute(session));
    let kept = run.expect("perfect-noise filter must succeed").output;
    let ledger = session.engine().client().ledger();
    let usage = ledger.usage();
    Fingerprint {
        kept: kept.into_items().expect("a filter keeps items"),
        budget_spend_bits: session.spent_usd().to_bits(),
        ledger_spend_bits: ledger.spend_usd().to_bits(),
        ledger_calls: ledger.calls(),
        ledger_prompt_tokens: usage.prompt_tokens,
        ledger_completion_tokens: usage.completion_tokens,
    }
}
