//! `core::budget`: admit each captured call against a finite budget, then
//! record its actual cost.

use crowdprompt_core::{Budget, BudgetTracker};

use super::{ns_per_item, ProbeInput};

pub fn probe(input: &ProbeInput<'_>) -> f64 {
    let tracker = BudgetTracker::new(Budget::usd(1e12));
    ns_per_item(input.captures, |(_, response)| {
        let usd = response.pricing.cost_usd(response.usage);
        let tokens = u64::from(response.usage.total());
        std::hint::black_box(tracker.admit(usd, tokens));
        tracker.record(usd, tokens);
    })
}
