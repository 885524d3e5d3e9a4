//! `core::exec`: `Engine::run_outcome` over tasks whose answers are already
//! cached on the workload's engine, so what is timed per task is the
//! engine's own dispatch: render, estimate, admit, cache hit, account.

use std::time::Instant;

use crowdprompt_core::RunSpec;

use super::ProbeInput;

pub fn probe(input: &ProbeInput<'_>) -> f64 {
    let engine = input.ctx.engine;
    let tasks = &input.ctx.warm_tasks;
    if tasks.is_empty() {
        return 0.0;
    }
    // First pass untimed: it makes sure every answer is cached.
    let warm = engine.run_outcome(RunSpec::tasks(tasks.clone()));
    assert!(warm.expect("warm tasks run").is_complete());
    let spec = RunSpec::tasks(tasks.clone());
    let started = Instant::now();
    let outcome = engine.run_outcome(spec).expect("warm tasks run");
    let ns = started.elapsed().as_nanos() as f64;
    assert!(outcome.is_complete());
    ns / tasks.len() as f64
}
