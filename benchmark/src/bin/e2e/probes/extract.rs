//! `core::extract`: parse each captured response the way the operator that
//! asked for it does.

use crowdprompt_core::extract;
use crowdprompt_oracle::task::TaskDescriptor;

use super::{ns_per_item, ProbeInput};

pub fn probe(input: &ProbeInput<'_>) -> f64 {
    ns_per_item(input.captures, |(request, response)| {
        let text = response.text.as_str();
        // A wrong or unparseable answer costs the same to parse; only the
        // time is of interest here.
        match &request.task {
            TaskDescriptor::Packed { tasks } => {
                let _ = std::hint::black_box(extract::packed_answers(text, tasks.len()));
            }
            TaskDescriptor::Classify { labels, .. } => {
                let _ = std::hint::black_box(extract::choice(text, labels));
            }
            TaskDescriptor::Impute { .. } => {
                let _ = std::hint::black_box(extract::value(text));
            }
            TaskDescriptor::Rate { .. } => {
                let _ = std::hint::black_box(extract::rating(text));
            }
            _ => {
                let _ = std::hint::black_box(extract::yes_no(text));
            }
        }
    })
}
