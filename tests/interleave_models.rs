//! Deterministic interleaving models of the repo's six hottest concurrency
//! protocols, driven by the `interleave` explorer (see its crate docs).
//!
//! Each model is a *closed* re-statement of the protocol as implemented in
//! the real code — same lock/condvar discipline, same state machine — small
//! enough for schedule exploration. The explorer runs each through thousands
//! of distinct schedules (seeded-random preemption; override the budget with
//! `INTERLEAVE_SCHEDULES`), failing on any deadlock, lost wakeup, or
//! protocol-invariant violation, and printing the decision trace of a
//! failing schedule for `interleave::replay`.
//!
//! | model | mirrors |
//! |-------|---------|
//! | flight handoff        | `oracle::client` coalescing leader/joiner publish |
//! | breaker half-open     | `oracle::route` probe claim vs concurrent callers |
//! | journal torn tail     | `oracle::recordlog` append crash + truncate-at-open |
//! | hedged hand-off       | `oracle::route` caller / helper / twin over one slot |
//! | lease quota           | `oracle::route` reserve/confirm/release + expiry |
//! | batch hand-off        | `core::exec` pre-recorded hits, feed claims, `Batch` record/wait |

use std::sync::Arc;

use interleave::{choice, spawn, Condvar, Config, Mutex};

/// Per-model schedule budget; CI pins `INTERLEAVE_SCHEDULES` to bound wall
/// time, local runs default high enough to clear the 1,000-distinct bar.
fn iterations() -> usize {
    interleave::budget(3000)
}

/// The distinct-schedule coverage floor scales down with a pinned budget so
/// a quick `INTERLEAVE_SCHEDULES=50` smoke run still passes.
fn required_distinct(iterations: usize) -> usize {
    (iterations / 3).clamp(1, 1000)
}

/// Model 1 — coalescing flight handoff (`client.rs`): N threads race for
/// the same cache key; the first claims the flight and dispatches the
/// backend exactly once, publishing through `Mutex<Option<_>> + Condvar`;
/// the rest join the flight and wait for the published result.
///
/// Invariants: exactly one backend call, every joiner observes the leader's
/// result, no joiner waits forever (notify_all after publish).
#[test]
fn flight_handoff_coalesces_to_one_backend_call() {
    struct Flight {
        state: Mutex<FlightState>,
        cv: Condvar,
    }
    #[derive(Default)]
    struct FlightState {
        claimed: bool,
        result: Option<u32>,
        backend_calls: u32,
    }

    let n = iterations();
    let report = interleave::explore(Config::random(0x1eaf, n), || {
        let flight = Arc::new(Flight {
            state: Mutex::new(FlightState::default()),
            cv: Condvar::new(),
        });
        let mut handles = Vec::new();
        for _ in 0..3 {
            let flight = Arc::clone(&flight);
            handles.push(spawn(move || {
                let mut s = flight.state.lock();
                if !s.claimed {
                    // Leader: claim under the lock, dispatch outside it.
                    s.claimed = true;
                    drop(s);
                    interleave::yield_now(); // the backend call
                    let mut s = flight.state.lock();
                    s.backend_calls += 1;
                    s.result = Some(42);
                    drop(s);
                    flight.cv.notify_all();
                } else {
                    // Joiner: wait out the flight.
                    while s.result.is_none() {
                        s = flight.cv.wait(s);
                    }
                    assert_eq!(s.result, Some(42), "joiner saw a foreign result");
                }
            }));
        }
        for h in handles {
            h.join();
        }
        let s = flight.state.lock();
        assert_eq!(s.backend_calls, 1, "flight dispatched more than once");
        assert_eq!(s.result, Some(42));
    });
    assert!(
        report.distinct >= required_distinct(n),
        "coverage too low: {report:?}"
    );
}

/// Model 2 — circuit-breaker half-open probe (`route.rs`): the breaker is
/// open and cooled down; three callers race. Exactly one may claim the
/// half-open probe slot (`probing = true` under the breaker lock); its
/// dispatch outcome (explored via `choice`) either closes the breaker or
/// re-opens the cooldown — and the slot is released on *both* paths.
///
/// Invariants: at most one probe in flight at any instant, the probe slot is
/// never stranded (`probing == false` once all callers settle), success
/// closes the breaker, failure re-arms the cooldown.
#[test]
fn breaker_half_open_admits_exactly_one_probe() {
    #[derive(Default)]
    struct Breaker {
        open: bool,
        cooled: bool,
        probing: bool,
        probes_claimed: u32,
        probes_in_flight: u32,
        succeeded: bool,
    }

    let n = iterations();
    let report = interleave::explore(Config::random(0xb4ea, n), || {
        let breaker = Arc::new(Mutex::new(Breaker {
            open: true,
            cooled: true,
            ..Breaker::default()
        }));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let breaker = Arc::clone(&breaker);
            handles.push(spawn(move || {
                let mut b = breaker.lock();
                if !b.open {
                    return; // breaker closed by a successful probe: normal dispatch
                }
                if !b.cooled || b.probing {
                    return; // open and uncooled, or probe already claimed: fail fast
                }
                // Claim the half-open slot — only the dispatching caller
                // may, and only under the lock.
                b.probing = true;
                b.probes_claimed += 1;
                b.probes_in_flight += 1;
                assert_eq!(b.probes_in_flight, 1, "two probes in flight");
                drop(b);
                interleave::yield_now(); // the probe dispatch
                let success = choice(2) == 0;
                let mut b = breaker.lock();
                b.probes_in_flight -= 1;
                b.probing = false; // released on BOTH outcome paths
                if success {
                    b.open = false;
                    b.succeeded = true;
                } else {
                    b.cooled = false; // fresh cooldown
                }
            }));
        }
        for h in handles {
            h.join();
        }
        let b = breaker.lock();
        assert!(!b.probing, "probe slot stranded: breaker starved forever");
        assert_eq!(b.probes_in_flight, 0);
        assert!(
            b.probes_claimed <= 1,
            "cooldown admitted {} probes",
            b.probes_claimed
        );
        if b.succeeded {
            assert!(!b.open, "successful probe must close the breaker");
        }
    });
    assert!(
        report.distinct >= required_distinct(n),
        "coverage too low: {report:?}"
    );
}

/// Model 3 — record-log append vs torn-tail truncate (`oracle::recordlog`,
/// under the `ResponseStore` lock for store and journal alike): appenders
/// serialize whole-record writes (header + body) under the log's lock; a
/// crash (explored via `choice`) can stop the *process* between the two
/// halves, leaving a torn tail. Recovery scans the buffer and truncates at
/// the last complete record boundary.
///
/// Invariants: append is atomic w.r.t. other appenders (no interleaved
/// halves), recovery never leaves a torn record, and every record completed
/// before the crash survives recovery.
#[test]
fn journal_recovery_truncates_exactly_the_torn_tail() {
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Token {
        Header(u32),
        Body(u32),
    }
    #[derive(Default)]
    struct Journal {
        buf: Vec<Token>,
        crashed: bool,
        completed: u32,
    }

    let n = iterations();
    let report = interleave::explore(Config::random(0x70a4, n), || {
        let journal = Arc::new(Mutex::new(Journal::default()));
        let mut handles = Vec::new();
        for id in 0..2u32 {
            let journal = Arc::clone(&journal);
            handles.push(spawn(move || {
                let mut j = journal.lock();
                if j.crashed {
                    return; // process died before this append
                }
                j.buf.push(Token::Header(id));
                // The lock is HELD across the yield: other appenders must
                // not interleave their halves into this record. The yield
                // models the buffered-write window a crash can hit.
                interleave::yield_now();
                if choice(2) == 1 {
                    j.crashed = true; // torn tail: header with no body
                    return;
                }
                j.buf.push(Token::Body(id));
                j.completed += 1;
            }));
        }
        for h in handles {
            h.join();
        }
        // Recovery at reopen: truncate after the last complete record.
        let mut j = journal.lock();
        let mut valid = 0;
        while valid + 1 < j.buf.len() || (valid < j.buf.len() && valid % 2 == 1) {
            match (j.buf.get(valid), j.buf.get(valid + 1)) {
                (Some(Token::Header(a)), Some(Token::Body(b))) if a == b => valid += 2,
                _ => break,
            }
        }
        let completed = j.completed;
        j.buf.truncate(valid);
        // No torn record survives...
        assert!(
            j.buf.len() % 2 == 0,
            "torn record after recovery: {:?}",
            j.buf
        );
        for pair in j.buf.chunks(2) {
            match (pair[0], pair[1]) {
                (Token::Header(a), Token::Body(b)) => {
                    assert_eq!(a, b, "interleaved halves: {:?}", j.buf)
                }
                other => panic!("corrupt pair after recovery: {other:?}"),
            }
        }
        // ...and every record completed before the crash does.
        assert_eq!(
            j.buf.len() as u32 / 2,
            completed,
            "recovery dropped a completed record (or kept a torn one)"
        );
    });
    assert!(
        report.distinct >= required_distinct(n),
        "coverage too low: {report:?}"
    );
}

/// Model 4 — hedged dispatch over the shared slot (`route.rs`): the caller
/// runs the primary inline; the router's helper, if the hedge deadline
/// passes before the primary reports, launches a twin onto a secondary
/// (when selection admits one: `choice`); the twin publishes its outcome
/// (`choice`: success, error, or a panic caught and published as an error)
/// into the slot, cancelling the primary if it succeeded first. The caller
/// takes its own success, or waits for a twin that is out — never for one
/// that was not launched — and surfaces exactly one outcome.
///
/// Invariants: no schedule hangs (a failed primary waits only while a twin
/// is really running, and every launched twin publishes, panicking or not);
/// no twin is launched once the primary has reported; the surfaced outcome
/// is a success exactly when an attempt succeeded uncancelled, and names an
/// attempt that did; whoever wins, its running twin is cancelled.
#[test]
fn hedged_dispatch_surfaces_exactly_one_result() {
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Twin {
        NotLaunched,
        Running,
        Done { ok: bool },
    }
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Surfaced {
        Primary,
        Twin,
        Error,
    }
    struct Slot {
        primary_reported: bool,
        twin: Twin,
        cancel_primary: bool,
        cancel_twin: bool,
        /// Bookkeeping for the invariants, not protocol state.
        twin_handle: Option<interleave::JoinHandle>,
        launched_after_report: bool,
        twin_succeeded: bool,
    }
    struct Call {
        slot: Mutex<Slot>,
        published: Condvar,
    }

    let n = iterations();
    let report = interleave::explore(Config::random(0x4ed6, n), || {
        let call = Arc::new(Call {
            slot: Mutex::new(Slot {
                primary_reported: false,
                twin: Twin::NotLaunched,
                cancel_primary: false,
                cancel_twin: false,
                twin_handle: None,
                launched_after_report: false,
                twin_succeeded: false,
            }),
            published: Condvar::new(),
        });

        // The helper: wakes at the deadline, hedges only a primary still out.
        let helper = {
            let call = Arc::clone(&call);
            spawn(move || {
                interleave::yield_now(); // the hedge delay
                let mut slot = call.slot.lock();
                if slot.primary_reported {
                    return;
                }
                if choice(2) == 1 {
                    return; // no secondary admitted: the caller keeps waiting
                }
                // The twin is started under the slot lock and marked running
                // only once it exists; it cannot publish before the unlock.
                let twin = {
                    let call = Arc::clone(&call);
                    spawn(move || {
                        interleave::yield_now(); // the backend call
                        let outcome = choice(3); // ok / error / caught panic
                        let mut slot = call.slot.lock();
                        let ok = outcome == 0 && !slot.cancel_twin;
                        slot.twin_succeeded = ok;
                        if ok && !slot.primary_reported {
                            slot.cancel_primary = true;
                        }
                        slot.twin = Twin::Done { ok };
                        drop(slot);
                        call.published.notify_all();
                    })
                };
                slot.launched_after_report = slot.primary_reported;
                slot.twin = Twin::Running;
                slot.twin_handle = Some(twin);
            })
        };

        // The caller: the primary runs inline, then the slot decides.
        interleave::yield_now(); // the backend call
        let answered = choice(2) == 0;
        let mut slot = call.slot.lock();
        // A primary whose token fired comes back `Cancelled`.
        let primary_ok = answered && !slot.cancel_primary;
        slot.primary_reported = true;
        if !primary_ok {
            while slot.twin == Twin::Running {
                slot = call.published.wait(slot);
            }
        }
        let twin_at_decision = slot.twin;
        let surfaced = match (primary_ok, slot.twin) {
            (_, Twin::Done { ok: true }) => Surfaced::Twin,
            (true, twin) => {
                if twin == Twin::Running {
                    slot.cancel_twin = true;
                }
                Surfaced::Primary
            }
            (false, _) => Surfaced::Error,
        };
        slot.twin = Twin::NotLaunched;
        drop(slot);

        helper.join();
        let twin_handle = call.slot.lock().twin_handle.take();
        if let Some(twin) = twin_handle {
            twin.join();
        }
        let slot = call.slot.lock();
        assert!(
            !slot.launched_after_report,
            "a twin was launched after the primary reported"
        );
        match surfaced {
            Surfaced::Primary => {
                assert!(primary_ok, "surfaced a primary that did not succeed");
                if twin_at_decision == Twin::Running {
                    assert!(slot.cancel_twin, "primary won but its twin runs on");
                }
            }
            Surfaced::Twin => {
                assert!(slot.twin_succeeded, "surfaced a twin that did not succeed");
                assert!(
                    slot.cancel_primary || !primary_ok,
                    "twin won first but the primary was never cancelled"
                );
            }
            Surfaced::Error => {
                assert!(!primary_ok, "a successful primary was dropped");
                assert!(
                    twin_at_decision != Twin::Running,
                    "gave up on a twin that was still out"
                );
                assert!(
                    twin_at_decision != Twin::Done { ok: true },
                    "a published success was dropped"
                );
            }
        }
    });
    assert!(
        report.distinct >= required_distinct(n),
        "coverage too low: {report:?}"
    );
}

/// Model 5 — backend-slot quota lease (`route.rs` [`LeaseTable`], driven by
/// `core::serve`): workers race a 2-slot table through the full
/// reserve → confirm → dispatch → release protocol while a clock thread
/// advances the generation counter; `choice` lets any worker crash between
/// reserve and confirm, abandoning its reservation with no release.
///
/// Invariants, mirroring the real table's guarantees:
/// * a slot is only re-granted after its current lease's expiry generation
///   has passed (the reserve-time sweep) — so two dispatchers can overlap
///   on one slot *only* across an expiry, never within a live lease;
/// * release is token-checked: a holder whose lease was swept and
///   re-granted mid-dispatch must not free the new holder's slot;
/// * nothing is stranded: once the clock passes every expiry, every slot
///   is reclaimable even though crashed workers never released.
#[test]
fn lease_quota_regrants_only_across_expiry_and_strands_nothing() {
    const CAPACITY: usize = 2;
    const TTL: u64 = 2;

    #[derive(Clone, Copy)]
    enum Slot {
        Free,
        Held { token: u64, expires: u64 },
    }
    struct Table {
        slots: Vec<Slot>,
        next_token: u64,
        gen: u64,
        /// Dispatchers currently inside the leased region, per slot.
        occupancy: Vec<u32>,
        /// The previous confirmed holder's expiry, per slot.
        prev_expires: Vec<u64>,
    }

    let n = iterations();
    let report = interleave::explore(Config::random(0x1ea5e, n), || {
        let table = Arc::new(Mutex::new(Table {
            slots: vec![Slot::Free; CAPACITY],
            next_token: 1,
            gen: 0,
            occupancy: vec![0; CAPACITY],
            prev_expires: vec![0; CAPACITY],
        }));
        let mut handles = Vec::new();
        // The clock: generations advance concurrently with the protocol,
        // exactly as `Server::advance_generation` races in-flight batches.
        {
            let table = Arc::clone(&table);
            handles.push(spawn(move || {
                for _ in 0..2 {
                    interleave::yield_now();
                    table.lock().gen += 1;
                }
            }));
        }
        for _ in 0..3 {
            let table = Arc::clone(&table);
            handles.push(spawn(move || {
                // Reserve: sweep expired leases, else take a free slot.
                let mut t = table.lock();
                let now = t.gen;
                let Some(slot) = t.slots.iter().position(|s| match s {
                    Slot::Free => true,
                    Slot::Held { expires, .. } => *expires <= now,
                }) else {
                    return; // saturated: shed, never wait under the lock
                };
                let token = t.next_token;
                t.next_token += 1;
                t.slots[slot] = Slot::Held {
                    token,
                    expires: now + TTL,
                };
                drop(t);

                interleave::yield_now(); // admission work before dispatch
                if choice(2) == 1 {
                    return; // crash: reservation abandoned, no release
                }

                // Confirm: revalidate token + liveness, renew the expiry.
                let mut t = table.lock();
                let now = t.gen;
                match &mut t.slots[slot] {
                    Slot::Held {
                        token: held,
                        expires,
                    } if *held == token && *expires > now => {
                        *expires = now + TTL;
                    }
                    _ => return, // reclaimed while we dawdled: shed
                }
                if t.occupancy[slot] > 0 {
                    // The only legal overlap: our reserve swept a lease
                    // whose expiry had already passed.
                    assert!(
                        t.prev_expires[slot] <= now,
                        "slot re-granted inside a live lease"
                    );
                }
                t.occupancy[slot] += 1;
                t.prev_expires[slot] = now + TTL;
                drop(t);

                interleave::yield_now(); // the dispatch itself

                // Release: token-checked, harmless when stale.
                let mut t = table.lock();
                t.occupancy[slot] -= 1;
                match t.slots[slot] {
                    Slot::Held { token: held, .. } if held == token => {
                        t.slots[slot] = Slot::Free;
                    }
                    Slot::Held { .. } => {
                        // Swept and re-granted mid-dispatch: the new
                        // holder's lease must survive our cleanup.
                    }
                    Slot::Free => panic!("release found a foreign free: double-free"),
                }
            }));
        }
        for h in handles {
            h.join();
        }

        let mut t = table.lock();
        assert!(
            t.occupancy.iter().all(|&o| o == 0),
            "dispatcher left inside the leased region"
        );
        // Crashed workers never released — but nothing may be stranded:
        // past every expiry, each slot is free or sweepable.
        t.gen += TTL + 1;
        let now = t.gen;
        for (index, slot) in t.slots.iter().enumerate() {
            match slot {
                Slot::Free => {}
                Slot::Held { expires, .. } => assert!(
                    *expires <= now,
                    "slot {index} stranded beyond every holder's TTL"
                ),
            }
        }
    });
    assert!(
        report.distinct >= required_distinct(n),
        "coverage too low: {report:?}"
    );
}

/// Model 6 — the pump's feed/batch hand-off with hits recorded at enqueue
/// (`exec.rs` `enqueue`/`work`/`Batch::record`/`wait_done`). The owner's
/// batch has four slots: two hits it records itself before the batch is
/// shared, and zero, one or two misses (`choice`) that are the only thing
/// it queues and counts as outstanding. A second submitter queues a miss of
/// its own and works the shared feed until *its* batch is done, running the
/// owner's jobs on the way; its helper — a foreign worker to the owner —
/// does the same and may die (`choice`) holding a job, in which case the
/// job's drop guard fails that slot.
///
/// Invariants: no schedule hangs (whoever records a batch's last
/// outstanding slot notifies, so an owner whose last miss is in flight on a
/// foreign worker wakes); a batch with nothing outstanding touches neither
/// the feed nor the condvar; a batch is notified exactly once, by its last
/// record, and never when it queued nothing; no slot is recorded twice and
/// the pre-recorded hits are never overwritten; a dying worker fails the
/// one slot it held and nothing else.
#[test]
fn prerecorded_batch_handoff_wakes_its_owner_once_and_records_each_slot_once() {
    use std::collections::VecDeque;

    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Outcome {
        Hit,
        Served,
        Failed,
    }
    struct Slots {
        results: Vec<Option<Outcome>>,
        outstanding: usize,
        /// Bookkeeping for the invariants, not protocol state.
        notifies: u32,
    }
    struct Batch {
        slots: Mutex<Slots>,
        done: Condvar,
    }
    struct Stack {
        /// `(batch, slot)` handles: the only way a worker reaches a batch.
        feed: Mutex<VecDeque<(usize, usize)>>,
        batches: [Batch; 2],
    }
    const OWNER: usize = 0;
    const SECOND: usize = 1;

    impl Batch {
        /// `results` as recorded at enqueue; every `None` is a queued miss.
        fn new(results: Vec<Option<Outcome>>) -> Batch {
            let outstanding = results.iter().filter(|r| r.is_none()).count();
            Batch {
                slots: Mutex::new(Slots {
                    results,
                    outstanding,
                    notifies: 0,
                }),
                done: Condvar::new(),
            }
        }

        fn record(&self, slot: usize, outcome: Outcome) {
            let mut s = self.slots.lock();
            assert!(s.results[slot].is_none(), "slot {slot} recorded twice");
            s.results[slot] = Some(outcome);
            s.outstanding -= 1;
            if s.outstanding == 0 {
                s.notifies += 1;
                self.done.notify_all();
            }
        }

        fn is_done(&self) -> bool {
            self.slots.lock().outstanding == 0
        }

        fn wait_done(&self) {
            let mut s = self.slots.lock();
            while s.outstanding > 0 {
                s = self.done.wait(s);
            }
        }
    }

    /// One worker of batch `own`'s pump call; `true` if it died.
    fn work(stack: &Stack, own: usize, may_die: bool) -> bool {
        while !stack.batches[own].is_done() {
            let Some((batch, slot)) = stack.feed.lock().pop_front() else {
                return false;
            };
            interleave::yield_now(); // the backend call
            if may_die && choice(2) == 1 {
                // Unwinding drops the job it held, which fails its slot.
                stack.batches[batch].record(slot, Outcome::Failed);
                return true;
            }
            stack.batches[batch].record(slot, Outcome::Served);
        }
        false
    }

    /// Queue `batch`'s misses and work the feed until it is done.
    fn pump(stack: &Stack, batch: usize) {
        let misses: Vec<usize> = {
            let s = stack.batches[batch].slots.lock();
            (0..s.results.len())
                .filter(|&slot| s.results[slot].is_none())
                .collect()
        };
        if misses.is_empty() {
            return; // answered at enqueue: no feed, no condvar
        }
        stack
            .feed
            .lock()
            .extend(misses.into_iter().map(|slot| (batch, slot)));
        work(stack, batch, false);
        stack.batches[batch].wait_done();
    }

    let n = iterations();
    let report = interleave::explore(Config::random(0xba7c4, n), || {
        // Slots 0 and 2 are hits; 1 and 3 are hits too unless they miss.
        let owner_misses = choice(3) as usize;
        let is_hit = |slot: usize| slot.is_multiple_of(2) || slot / 2 >= owner_misses;
        let owner_results = (0..4)
            .map(|slot| is_hit(slot).then_some(Outcome::Hit))
            .collect();
        let stack = Arc::new(Stack {
            feed: Mutex::new(VecDeque::new()),
            batches: [Batch::new(owner_results), Batch::new(vec![None])],
        });

        let second = {
            let stack = Arc::clone(&stack);
            spawn(move || pump(&stack, SECOND))
        };
        let died = Arc::new(Mutex::new(false));
        let foreign = {
            let (stack, died) = (Arc::clone(&stack), Arc::clone(&died));
            spawn(move || *died.lock() = work(&stack, SECOND, true))
        };
        pump(&stack, OWNER);
        // The owner is back: every one of its slots is recorded.
        {
            let s = stack.batches[OWNER].slots.lock();
            assert_eq!(s.outstanding, 0);
            assert!(
                s.results.iter().all(Option::is_some),
                "the owner returned with a slot unrecorded: {:?}",
                s.results
            );
        }
        second.join();
        foreign.join();

        let died = *died.lock();
        let mut failed = 0;
        for (index, batch) in stack.batches.iter().enumerate() {
            let s = batch.slots.lock();
            let queued = if index == OWNER { owner_misses } else { 1 };
            assert_eq!(
                s.notifies,
                u32::from(queued > 0),
                "batch {index} queued {queued} and was notified {} times",
                s.notifies
            );
            failed += s
                .results
                .iter()
                .filter(|r| **r == Some(Outcome::Failed))
                .count();
        }
        let owner = stack.batches[OWNER].slots.lock();
        for slot in 0..4 {
            assert_eq!(
                owner.results[slot] == Some(Outcome::Hit),
                is_hit(slot),
                "slot {slot}: {:?}",
                owner.results
            );
        }
        assert_eq!(
            failed,
            usize::from(died),
            "a dead worker fails its one slot"
        );
        assert!(stack.feed.lock().is_empty(), "work left behind");
    });
    assert!(
        report.distinct >= required_distinct(n),
        "coverage too low: {report:?}"
    );
}
