//! `oracle::tokenizer`: count the tokens of each captured prompt, as
//! admission does to estimate a call's cost.

use crowdprompt_oracle::tokenizer::count_tokens;

use super::{ns_per_item, ProbeInput};

pub fn probe(input: &ProbeInput<'_>) -> f64 {
    ns_per_item(input.captures, |(request, _)| {
        std::hint::black_box(count_tokens(&request.prompt));
    })
}
