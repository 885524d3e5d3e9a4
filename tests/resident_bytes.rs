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

/// Bytes a resident answer may cost. An entry holds the hash-table slot
/// (≈ 34 B at this fill), the answer's text block and one `Arc` block for
/// the body: 174 B with a 4-byte model handle (a 96-byte `Arc` block for a
/// 72-byte body), 238 B when every entry carried its own copy of the
/// model's name (a 128-byte block for a 96-byte body, plus a 32-byte block
/// for the name). glibc on x86-64, debug and release alike.
const MAX_BYTES_PER_ANSWER: usize = 200;

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
/// with the simulator's chatter shapes (4 to 52 bytes of text).
fn exchange(i: usize) -> (CompletionRequest, CompletionResponse) {
    let request = CompletionRequest::new(
        format!("Record {i}: is it a seafood place? Answer Yes or No."),
        TaskDescriptor::CheckPredicate {
            item: ItemId(i as u64),
            predicate: "seafood".into(),
        },
    );
    let label = ["seafood", "italian", "thai", "diner"][i % 4];
    let text = match i % 5 {
        0 => "Yes.".to_string(),
        1 => "No.".to_string(),
        2 => format!("Answer: {label}"),
        3 => "After comparing the two, my answer is Yes. (Not No.)".to_string(),
        _ => format!("Based on the record, I believe it is {label}."),
    };
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

#[test]
fn a_cached_answer_keeps_under_its_byte_bound() {
    let model: Arc<dyn LanguageModel> = Arc::new(SimulatedLlm::new(
        ModelProfile::gpt35_like(),
        Arc::new(WorldModel::new()),
        1,
    ));
    let client = LlmClient::new(model);
    // Settle the allocator on the loop's own transient blocks first.
    for i in 0..1_024 {
        let (request, response) = exchange(i);
        client.seed_cache(&request, &response);
    }

    let before = resident_bytes();
    for i in 1_024..1_024 + ANSWERS {
        let (request, response) = exchange(i);
        client.seed_cache(&request, &response);
    }
    let per_answer = resident_bytes().saturating_sub(before) / ANSWERS;

    for i in [0, 1_024, 77_777, ANSWERS + 1_023] {
        let (request, response) = exchange(i);
        match client.probe(&request) {
            Probe::Hit(hit) => assert_eq!(hit.text, response.text),
            miss => panic!("answer {i} is not resident: {miss:?}"),
        }
    }
    assert!(
        per_answer < MAX_BYTES_PER_ANSWER,
        "a resident answer costs {per_answer} B, over the {MAX_BYTES_PER_ANSWER} B bound"
    );
    eprintln!("resident bytes per cached answer: {per_answer}");
}
