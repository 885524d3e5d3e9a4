//! `oracle::route::LeaseTable`: one reserve → confirm → release cycle on a
//! sixteen-slot table, what the serve door pays per dispatched task.

use crowdprompt_oracle::route::LeaseTable;

use super::ns_per_item;

const SLOTS: usize = 16;
const TTL: u64 = 8;

pub fn probe() -> f64 {
    let table = LeaseTable::new(SLOTS);
    let cycles: Vec<u64> = (0..4_096).collect();
    ns_per_item(&cycles, |_| {
        let lease = table.reserve(0, TTL).expect("a free slot");
        assert!(table.confirm(&lease, 0, TTL));
        table.release(&lease);
    })
}
