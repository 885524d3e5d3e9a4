//! Golden: what three weighted tenants' submits return, cost and count, and
//! — when every task needs a slot — the order in which their requests reach
//! the backend.
//!
//! Two scripts over tenants `a`, `b`, `c` at weights 1 : 2 : 4, recorded
//! before a submit learned to answer its hits where it stands:
//!
//! * **All misses, turn by turn.** Each tenant submits twelve never-seen
//!   tasks from its own thread. The backend parks every call and the test
//!   lets exactly one go at a time, so at any moment one submitter is
//!   running and the others sit in the backend: the order of arrivals *is*
//!   the feed's deficit-round-robin order over the work that needs a slot,
//!   and it is recorded with the ledgers, [`TenantStats`] and `ClientStats`.
//!   (One slot per tenant, not one slot: under a single lease the submitters
//!   that are not in the backend each spin for it holding a claimed job, and
//!   which of them wins is the scheduler's choice, not the program's.)
//! * **A warm hot set mixed in.** One tenant warms eight hot keys, then all
//!   three submit at once, half of every batch hot. Answers, `cached` flags,
//!   billing and `cache_hits` are recorded; the order is not, since hits
//!   never needed a slot and fair share is over the misses.
//!
//! A failure means a count, a bill, an answer or the fair order moved: fix
//! `core::exec` / `core::serve`, do not re-record the rows.
//!
//! [`TenantStats`]: crowdprompt::core::TenantStats

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use crowdprompt::core::{Corpus, Server, Session, TenantRun, TenantSpec};
use crowdprompt::oracle::error::LlmError;
use crowdprompt::oracle::pricing::Pricing;
use crowdprompt::oracle::task::TaskDescriptor;
use crowdprompt::oracle::types::{CompletionRequest, CompletionResponse, LanguageModel};
use crowdprompt::oracle::world::{ItemId, WorldModel};
use crowdprompt::oracle::{LlmClient, ModelProfile, SimulatedLlm};

const TENANTS: [(&str, f64); 3] = [("a", 1.0), ("b", 2.0), ("c", 4.0)];
/// Tasks per submit.
const BATCH: usize = 12;
/// Items every tenant asks about in the warm script.
const HOT: usize = 8;
/// How long the schedule may stand still before the test gives up.
const STALL: Duration = Duration::from_secs(30);

enum Event {
    /// A call reached the backend for `item` and waits for `release`.
    Arrived { item: u64, release: Sender<()> },
    /// Tenant `tenant`'s submit came back.
    Returned { tenant: usize, run: TenantRun },
}

/// The simulator behind a turnstile: while `parking`, every call reports
/// its arrival and waits to be let through.
struct Turnstile {
    inner: SimulatedLlm,
    parking: AtomicBool,
    events: Mutex<Sender<Event>>,
}

impl LanguageModel for Turnstile {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn context_window(&self) -> u32 {
        self.inner.context_window()
    }
    fn pricing(&self) -> Pricing {
        self.inner.pricing()
    }
    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
        if self.parking.load(Ordering::SeqCst) {
            let TaskDescriptor::CheckPredicate { item, .. } = &request.task else {
                panic!("the scripts only check predicates");
            };
            let (release, released) = channel();
            let arrived = Event::Arrived {
                item: item.0,
                release,
            };
            self.events.lock().unwrap().send(arrived).unwrap();
            released.recv().unwrap();
            // A claim that averaged under 200 µs a job doubles the next one;
            // a claim of two would put a job behind its submitter's parked
            // one. Not for ordering: every call is slow, so every claim is 1.
            std::thread::sleep(Duration::from_micros(300));
        }
        self.inner.complete(request)
    }
}

/// Item `k` of tenant `t`'s own never-seen range; the first `HOT` items are
/// the shared hot set.
fn own(t: usize, k: usize) -> ItemId {
    ItemId((HOT + t * 2 * BATCH + k) as u64)
}

fn check(item: ItemId) -> TaskDescriptor {
    TaskDescriptor::CheckPredicate {
        item,
        predicate: "hot".to_owned(),
    }
}

/// `b7` for tenant b's own item 7, `h3` for hot item 3.
fn label(item: u64) -> String {
    let item = item as usize;
    if item < HOT {
        return format!("h{item}");
    }
    let (t, k) = ((item - HOT) / (2 * BATCH), (item - HOT) % (2 * BATCH));
    format!("{}{k}", TENANTS[t].0)
}

fn serving_stack() -> (Server, Arc<Turnstile>, Receiver<Event>, Sender<Event>) {
    let mut world = WorldModel::new();
    let items: Vec<ItemId> = (0..HOT + TENANTS.len() * 2 * BATCH)
        .map(|i| {
            let id = world.add_item(format!("golden served record {i}"));
            world.set_flag(id, "hot", i % 3 != 1);
            id
        })
        .collect();
    let corpus = Corpus::from_world(&world, &items);
    let (events, inbox) = channel();
    let turnstile = Arc::new(Turnstile {
        inner: SimulatedLlm::new(ModelProfile::gpt35_like(), Arc::new(world), 29),
        parking: AtomicBool::new(false),
        events: Mutex::new(events.clone()),
    });
    let client = LlmClient::new(Arc::clone(&turnstile) as Arc<dyn LanguageModel>);
    let mut builder = Session::builder()
        .client(Arc::new(client))
        .corpus(corpus)
        .build()
        .serve()
        .slots(TENANTS.len())
        .max_backlog(TENANTS.len() * BATCH);
    for (id, weight) in TENANTS {
        builder = builder.tenant(TenantSpec::new(id).with_weight(weight));
    }
    let server = builder.try_build().expect("serving stack builds");
    (server, turnstile, inbox, events)
}

/// FNV-1a over the answers, so a row stays one line.
fn digest(texts: impl Iterator<Item = String>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for text in texts {
        for byte in text.bytes().chain([0xff]) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One row per tenant — `p`aid or `c`ached per slot, the answers' digest,
/// ledger, counters — and one for the client.
fn rows(server: &Server, runs: &[TenantRun]) -> Vec<String> {
    let mut rows: Vec<String> = server
        .stats()
        .iter()
        .zip(runs)
        .map(|(stats, run)| {
            let responses: Vec<&CompletionResponse> = run
                .results
                .iter()
                .map(|r| r.as_ref().expect("every task completes"))
                .collect();
            let flags: String = responses
                .iter()
                .map(|r| if r.cached { 'c' } else { 'p' })
                .collect();
            format!(
                "{} w{}: {flags} answers {:016x} spent ${:.9} / {} tokens, completed {} shed {}",
                stats.id,
                stats.weight,
                digest(responses.iter().map(|r| r.text.clone())),
                stats.ledger.spent_usd,
                stats.ledger.spent_tokens,
                stats.completed,
                stats.shed,
            )
        })
        .collect();
    let client = server.engine().client();
    let stats = client.stats();
    rows.push(format!(
        "client: calls {} cache_hits {} coalesced {} retries {} failures {} store_hits {}, \
         ledger {} calls ${:.9}, leases held {}",
        stats.calls(),
        stats.cache_hits(),
        stats.coalesced(),
        stats.retries(),
        stats.failures(),
        stats.store_hits(),
        client.ledger().calls(),
        client.ledger().spend_usd(),
        server.leases_in_use(),
    ));
    rows
}

fn next(inbox: &Receiver<Event>) -> Event {
    inbox.recv_timeout(STALL).expect("the schedule stalled")
}

#[test]
fn all_miss_submits_reach_the_backend_in_weighted_fair_order() {
    let (server, turnstile, inbox, events) = serving_stack();
    turnstile.parking.store(true, Ordering::SeqCst);
    let server = &server;
    let total = TENANTS.len() * BATCH;
    let mut order: Vec<String> = Vec::new();
    let mut runs: Vec<Option<TenantRun>> = TENANTS.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut parked: VecDeque<Sender<()>> = VecDeque::new();
        // Start the submitters one at a time: each queues its batch, claims
        // one job and parks in the backend with it before the next starts.
        for (t, (tenant, _)) in TENANTS.iter().enumerate() {
            let events = events.clone();
            scope.spawn(move || {
                let tasks = (0..BATCH).map(|k| check(own(t, k))).collect();
                let run = server.submit(tenant, tasks).expect("admitted");
                events.send(Event::Returned { tenant: t, run }).unwrap();
            });
            match next(&inbox) {
                Event::Arrived { item, release } => {
                    order.push(label(item));
                    parked.push_back(release);
                }
                Event::Returned { .. } => panic!("a submit of misses returned without a call"),
            }
        }
        // Let the longest-parked call through; its submitter finishes the
        // job and either arrives with the next one in fair order or, its own
        // batch done, returns. Nobody else is running meanwhile.
        while order.len() < total {
            let oldest = parked.pop_front().expect("a call is parked");
            oldest.send(()).unwrap();
            match next(&inbox) {
                Event::Arrived { item, release } => {
                    order.push(label(item));
                    parked.push_back(release);
                }
                Event::Returned { tenant, run } => runs[tenant] = Some(run),
            }
        }
        // Every request has arrived: nothing is left to order.
        for release in parked {
            release.send(()).unwrap();
        }
        while runs.iter().any(Option::is_none) {
            match next(&inbox) {
                Event::Returned { tenant, run } => runs[tenant] = Some(run),
                Event::Arrived { item, .. } => panic!("{} arrived twice", label(item)),
            }
        }
    });
    let runs: Vec<TenantRun> = runs.into_iter().map(Option::unwrap).collect();
    let mut got = vec![order.join(" ")];
    got.extend(rows(server, &runs));
    assert!(
        got == ALL_MISS,
        "the all-miss script moved; this tree's rows:\n{got:#?}"
    );
}

#[test]
fn a_warm_hot_set_is_served_free_and_the_misses_are_billed_as_recorded() {
    let (server, _turnstile, _inbox, _events) = serving_stack();
    let server = &server;
    // Tenant a warms the hot set alone, and pays for it.
    let warm = server
        .submit(
            TENANTS[0].0,
            (0..HOT).map(|h| check(ItemId(h as u64))).collect(),
        )
        .expect("admitted");
    assert!(warm.results.iter().all(|r| !r.as_ref().unwrap().cached));
    // Then all three at once: even slots hot, odd slots never seen.
    let start = Barrier::new(TENANTS.len());
    let runs: Vec<TenantRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..TENANTS.len())
            .map(|t| {
                let start = &start;
                scope.spawn(move || {
                    let tasks = (0..BATCH)
                        .map(|k| match k % 2 {
                            0 => check(ItemId(((t + k / 2) % HOT) as u64)),
                            _ => check(own(t, k)),
                        })
                        .collect();
                    start.wait();
                    server.submit(TENANTS[t].0, tasks).expect("admitted")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let got = rows(server, &runs);
    assert!(
        got == WARM_MIX,
        "the warm-mix script moved; this tree's rows:\n{got:#?}"
    );
}

/// Arrival order, then one row per tenant and the client's, recorded at the
/// commit before hits stopped entering the feed.
const ALL_MISS: [&str; 5] = [
    "a0 b0 b1 c0 c1 c2 c3 a1 b2 b3 c4 c5 c6 c7 a2 b4 b5 c8 c9 c10 c11 a3 b6 b7 a4 b8 b9 a5 b10 b11 a6 a7 a8 a9 a10 a11",
    "a w1: pppppppppppp answers 13401e4899d34406 spent $0.000756000 / 456 tokens, completed 12 shed 0",
    "b w2: pppppppppppp answers 3335c10253f7ec7a spent $0.000696000 / 426 tokens, completed 12 shed 0",
    "c w4: pppppppppppp answers b1f1b7c682604895 spent $0.000698000 / 427 tokens, completed 12 shed 0",
    "client: calls 36 cache_hits 0 coalesced 0 retries 0 failures 0 store_hits 0, ledger 36 calls $0.002150000, leases held 0",
];

/// The same rows (no order) for the warm-mix script, recorded at that commit.
const WARM_MIX: [&str; 4] = [
    "a w1: cpcpcpcpcpcp answers d2e33a8b3da83dfc spent $0.000898000 / 540 tokens, completed 20 shed 0",
    "b w2: cpcpcpcpcpcp answers d5d7d80abd9fc20b spent $0.000322000 / 200 tokens, completed 12 shed 0",
    "c w4: cpcpcpcpcpcp answers ff69485d83e5f0b8 spent $0.000332000 / 205 tokens, completed 12 shed 0",
    "client: calls 26 cache_hits 18 coalesced 0 retries 0 failures 0 store_hits 0, ledger 26 calls $0.001552000, leases held 0",
];
