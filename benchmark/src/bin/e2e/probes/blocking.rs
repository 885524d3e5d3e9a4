//! `core::blocking` and `embed`: build the blocking index over the items
//! the workload blocks on, then ask for every item's neighbours — the same
//! two calls the resolve operator makes.

use std::time::Instant;

use crowdprompt_core::BlockingIndex;

use super::ProbeInput;

/// `(build_s, neighbors_s)`; zeros for a workload that blocks on nothing.
pub fn probe(input: &ProbeInput<'_>) -> (f64, f64) {
    let items = input.ctx.blocking_items;
    if items.is_empty() {
        return (0.0, 0.0);
    }
    let engine = input.ctx.engine;
    let started = Instant::now();
    let index = BlockingIndex::build(engine, items).expect("blocking index builds");
    let build_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    std::hint::black_box(index.neighbors_many(engine, items, input.ctx.blocking_k));
    (build_s, started.elapsed().as_secs_f64())
}
