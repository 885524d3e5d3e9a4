//! What one cached answer costs to keep: the resident bytes a client's
//! shard cache holds per distinct temperature-0 answer.
//!
//! A serving process keeps every answer it has paid for until it exits, so
//! this per-entry figure is the serving stack's capacity. Resident memory is
//! per process, so this is the only test in its binary: nothing else here
//! allocates while it measures.
#![cfg(target_os = "linux")]

use std::sync::Arc;

use crowdprompt::oracle::{
    CompletionResponse, FinishReason, ItemId, Pricing, Probe, TaskDescriptor, Usage, WorldModel,
};
use crowdprompt::prelude::*;

/// Distinct answers seeded: 16 k a shard, inside one size of every shard's
/// table, so the count does not sit on a table doubling.
const ANSWERS: usize = 256 * 1024;

/// Bytes a resident answer may cost. An entry holds its hash-table slot
/// (a fingerprint and a record id, 17 B a slot with its control byte,
/// ≈ 34 B at this half-full table) and its 32-byte record, 66 B; a shard
/// keeps each text it has seen once, so an answer whose text repeats adds
/// nothing more, and one with a text of its own adds that text (32 B on
/// average in the distinct run), 99 B. glibc on x86-64, debug and release
/// alike. An `Arc`'d 72-byte body per answer, a 96-byte block beside the
/// text's own block, read 174 B.
const MAX_BYTES_PER_ANSWER: usize = 112;

fn resident_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: usize = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmRSS: line");
    kb * 1024
}

/// The `i`-th serve-like exchange: a yes/no check or a label, answered
/// with the simulator's chatter shapes (4 to 52 bytes of text), or, when
/// `distinct`, with that text and the record's number after it.
fn exchange(i: usize, distinct: bool) -> (CompletionRequest, CompletionResponse) {
    let request = CompletionRequest::new(
        format!("Record {i}: is it a seafood place? Answer Yes or No."),
        TaskDescriptor::CheckPredicate {
            item: ItemId(i as u64),
            predicate: "seafood".into(),
        },
    );
    let label = ["seafood", "italian", "thai", "diner"][i % 4];
    let mut text = match i % 5 {
        0 => "Yes.".to_string(),
        1 => "No.".to_string(),
        2 => format!("Answer: {label}"),
        3 => "After comparing the two, my answer is Yes. (Not No.)".to_string(),
        _ => format!("Based on the record, I believe it is {label}."),
    };
    if distinct {
        text += &format!(" [{i}]");
    }
    let response = CompletionResponse {
        text,
        usage: Usage {
            prompt_tokens: 14,
            completion_tokens: 3,
        },
        finish_reason: FinishReason::Stop,
        model: "sim-gpt-3.5-turbo".into(),
        cached: false,
        pricing: Pricing::new(0.0015, 0.002),
        confidence: Some(0.9),
    };
    (request, response)
}

/// Resident bytes an answer costs a fresh client over [`ANSWERS`] seeded
/// exchanges; the client comes back too, so the caller's next measurement
/// does not reuse its memory.
fn bytes_per_answer(distinct: bool) -> (usize, LlmClient) {
    let model: Arc<dyn LanguageModel> = Arc::new(SimulatedLlm::new(
        ModelProfile::gpt35_like(),
        Arc::new(WorldModel::new()),
        1,
    ));
    let client = LlmClient::new(model);
    // Settle the allocator on the loop's own transient blocks first.
    for i in 0..1_024 {
        let (request, response) = exchange(i, distinct);
        client.seed_cache(&request, &response);
    }

    let before = resident_bytes();
    for i in 1_024..1_024 + ANSWERS {
        let (request, response) = exchange(i, distinct);
        client.seed_cache(&request, &response);
    }
    let per_answer = resident_bytes().saturating_sub(before) / ANSWERS;

    for i in [0, 1_024, 77_777, ANSWERS + 1_023] {
        let (request, response) = exchange(i, distinct);
        match client.probe(&request) {
            Probe::Hit(hit) => assert_eq!(hit.text, response.text),
            miss => panic!("answer {i} is not resident: {miss:?}"),
        }
    }
    (per_answer, client)
}

#[test]
fn a_cached_answer_keeps_under_its_byte_bound() {
    let (repeated, _kept) = bytes_per_answer(false);
    let (distinct, _) = bytes_per_answer(true);
    for (texts, per_answer) in [("repeated", repeated), ("distinct", distinct)] {
        assert!(
            per_answer < MAX_BYTES_PER_ANSWER,
            "a resident answer with {texts} texts costs {per_answer} B, over the \
             {MAX_BYTES_PER_ANSWER} B bound"
        );
        eprintln!("resident bytes per cached answer, {texts} texts: {per_answer}");
    }
}
