//! `oracle::client`: `LlmClient::complete` on a client whose cache was
//! seeded with every captured response (the hit path), and on a cold client
//! over a replay model (the miss path: flight claim, dispatch, ledger,
//! publish — with a model that costs a map lookup).

use std::time::Instant;

use crowdprompt_oracle::LlmClient;

use super::{ns_per_item, ProbeInput, Replay};

/// `(hit_ns, miss_ns)`.
pub fn probe(input: &ProbeInput<'_>) -> (f64, f64) {
    let replay = Replay::new("replay", input.captures);

    let warm = LlmClient::new(replay.clone());
    for (request, response) in input.captures {
        warm.seed_cache(request, response);
    }
    let hit_ns = ns_per_item(input.captures, |(request, _)| {
        std::hint::black_box(warm.complete(request).expect("seeded request hits"));
    });

    // Every request misses exactly once, so the miss path gets one pass.
    let cold = LlmClient::new(replay);
    let started = Instant::now();
    for (request, _) in input.captures {
        std::hint::black_box(cold.complete(request).expect("replayed request completes"));
    }
    let miss_ns = started.elapsed().as_nanos() as f64 / input.captures.len() as f64;
    (hit_ns, miss_ns)
}
