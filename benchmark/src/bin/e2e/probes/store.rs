//! `oracle::store` and `oracle::recordlog`: admit every captured response
//! to a fresh store file, look each up, then close and reopen the file (the
//! open replays the log and rebuilds the index).

use std::time::Instant;

use crowdprompt_oracle::store::{ResponseStore, StoreConfig};

use super::{ns_per_item, ProbeInput};
use crate::workloads::{file_bytes, remove_log};

#[derive(Debug, Default)]
pub struct StoreCosts {
    pub open_s: f64,
    pub lookup_ns: f64,
    pub admit_ns: f64,
    /// The probe's own file, for workloads that attach no store.
    pub entries: f64,
    pub file_bytes: f64,
}

pub fn probe(input: &ProbeInput<'_>) -> StoreCosts {
    let path = input.scratch.join("probe-store.log");
    remove_log(&path);
    let store = ResponseStore::open(&path, StoreConfig::default()).expect("probe store opens");

    // Each fingerprint is admitted once (a repeat is refused early), so the
    // admit path gets one pass.
    let started = Instant::now();
    for (request, response) in input.captures {
        std::hint::black_box(store.admit(request, response));
    }
    let admit_ns = started.elapsed().as_nanos() as f64 / input.captures.len() as f64;

    let fingerprints: Vec<u64> = input
        .captures
        .iter()
        .map(|(r, _)| r.fingerprint())
        .collect();
    let lookup_ns = ns_per_item(&fingerprints, |fingerprint| {
        std::hint::black_box(store.lookup(*fingerprint));
    });
    let entries = store.len() as f64;
    drop(store); // flushes, and releases the writer lock

    let started = Instant::now();
    let reopened = ResponseStore::open(&path, StoreConfig::default()).expect("probe store reopens");
    let open_s = started.elapsed().as_secs_f64();
    assert_eq!(
        reopened.len() as f64,
        entries,
        "reopen recovers every entry"
    );
    drop(reopened);

    let costs = StoreCosts {
        open_s,
        lookup_ns,
        admit_ns,
        entries,
        file_bytes: file_bytes(&path),
    };
    remove_log(&path);
    costs
}
