//! `core::exec::FairFeed`: one push and one claim at 64 registered tenants,
//! the serve door's per-task queueing cost.

use crowdprompt_core::FairFeed;

use super::ns_per_item;

const TENANTS: usize = 64;
/// Items pushed before any is claimed, as a submit of sixteen tasks does.
const BURST: usize = 16;

pub fn probe() -> f64 {
    let feed: FairFeed<usize> = FairFeed::new();
    let tenants: Vec<String> = (0..TENANTS).map(|t| format!("tenant-{t:02}")).collect();
    for tenant in &tenants {
        assert!(feed.register(tenant, 1.0));
    }
    let per_burst = ns_per_item(&tenants, |tenant| {
        for item in 0..BURST {
            assert!(feed.push(tenant, item));
        }
        for _ in 0..BURST {
            std::hint::black_box(feed.claim().expect("pushed items are claimable"));
        }
    });
    per_burst / BURST as f64
}
