//! `oracle::hash`: fingerprint each captured request.

use super::{ns_per_item, ProbeInput};

pub fn probe(input: &ProbeInput<'_>) -> f64 {
    ns_per_item(input.captures, |(request, _)| {
        std::hint::black_box(request.fingerprint());
    })
}
