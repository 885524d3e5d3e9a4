//! `core::template`: render each captured task into its prompt again.

use crowdprompt_core::template::render;

use super::{ns_per_item, ProbeInput};

pub fn probe(input: &ProbeInput<'_>) -> f64 {
    let engine = input.ctx.engine;
    ns_per_item(input.captures, |(request, _)| {
        let prompt = render(&request.task, engine.corpus(), engine.render_opts());
        std::hint::black_box(prompt.expect("captured tasks render"));
    })
}
