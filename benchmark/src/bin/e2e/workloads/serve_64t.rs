//! `serve_64t`: the serve door under a 64-tenant closed loop.
//!
//! One server over the zero-latency roster (unhedged: a hedging router spends
//! more on a thread per miss than the serve door spends on a whole submit,
//! and this workload exists to time the door), 64 equal-weight tenants with
//! finite budgets (large enough never to run out, so ledger admission runs)
//! and rate limits set out of reach. Client threads — as many as the
//! machine has cores, at most two — each submit, wait for the reply, and
//! submit again: a closed loop, because `Server::submit` blocks its caller.
//! Every submit carries sixteen unit tasks from the paper's workloads; nine
//! in ten are drawn from a hot set all tenants share, one in ten has never
//! been seen. An op is one iteration of [`SUBMITS`] submits.
//!
//! Admission (render and estimate), the fair feed, slot leases, tenant
//! ledgers and the client's hit path dominate; no other workload runs them.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crowdprompt_core::{extract, Budget, Corpus, RunSpec, Server, Session, TenantSpec};
use crowdprompt_oracle::sim::gold::gold_answer;
use crowdprompt_oracle::task::{SortCriterion, TaskDescriptor};
use crowdprompt_oracle::world::{ItemId, WorldModel};

use super::{client_counts, Counts, OpOut, ProbeCtx, SubmitLatency, Workload};
use crate::harness::{money_eq, percentile_sorted, Digest, RunArgs, SplitMix};
use crate::layers::Lookup;
use crate::roster::{self, Hedging, Latency};
use crate::trace;

const TENANTS: usize = 64;
/// Submits per iteration: 800 of them lie beyond the reported p95.
///
/// Why p95 and not p99. A client waits for its reply, so a stall of the
/// machine (a preempted vCPU, a scheduler tick) lengthens the one submit in
/// flight on each thread and no other. The p99 of an iteration moves once
/// 160 submits were hit, 200 stalls a second, which a busy host delivers:
/// with one competing thread in the guest the median p99 of a run went from
/// 188 µs to 566 µs while p95 stayed at 148 µs (151 µs without), and over
/// nine sets of runs of the same code p99 spread up to 41 % (past the
/// largest admissible bound in three of them). The p95 moves at 1 000
/// stalls a second, above the tick rate of both CPUs together. p99 is still
/// reported per layer, as `serve.submit_p99_us`.
const SUBMITS: usize = 16_000;
/// Tasks per submit, by kind: 8 predicate checks, 4 classifications, 4
/// comparisons — the unit tasks of filter, categorize and sort.
const CHECKS: usize = 8;
const CLASSIFIES: usize = 4;
const COMPARES: usize = 4;
const TASKS: usize = CHECKS + CLASSIFIES + COMPARES;
/// Hot keys per kind — 4 096 in all, shared by every tenant: 1 024 items
/// × 2 predicates, 1 024 items to classify, 1 024 pairs `(i, i + 1024)`.
const HOT_KEYS: [usize; 3] = [2_048, 1_024, 1_024];
/// Items the hot keys touch.
const HOT_ITEMS: usize = 2_048;
/// Items only never-seen keys touch. Sized so that the cursors cannot run
/// out within the `harness::MAX_OPS` iterations a run is capped at.
const COLD_ITEMS: usize = 270_000;
/// One task in ten is a key no tenant has asked before.
const COLD_ONE_IN: usize = 10;
/// One submit in sixteen is kept and verified after the timer stops.
const VERIFY_ONE_IN: usize = 16;
const PREDICATES: [&str; 2] = ["urgent", "billing"];
const LABELS: [&str; 4] = ["bug", "feature", "question", "spam"];

pub struct Serve64t;

pub struct State {
    seed: u64,
    submits: usize,
    clients: usize,
    world: Arc<WorldModel>,
    server: Server,
    tenant_ids: Vec<String>,
    labels: Vec<String>,
    /// Next never-seen key of each kind.
    cold: [usize; 3],
    /// Ledger and counter readings after the previous op.
    prev: Prev,
}

#[derive(Default, Clone)]
struct Prev {
    ledger_calls: u64,
    ledger_usd: f64,
    counts: Counts,
    completed: u64,
    shed: u64,
}

#[derive(Clone)]
pub struct Submit {
    tenant: usize,
    tasks: Vec<TaskDescriptor>,
}

pub struct Input {
    /// Client `c` owns submits `c, c + clients, …`, each with its number.
    lanes: Vec<Vec<(usize, Submit)>>,
    /// Copies of the submits that will be verified, with a bit per task
    /// saying whether it came from the hot set.
    verify: Vec<(usize, Vec<TaskDescriptor>, u32)>,
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientOut {
    /// `(tenant, nanoseconds)` per submit.
    latencies: Vec<(u8, u32)>,
    /// Replies of the submits picked for verification, by submit number.
    kept: Vec<(usize, crowdprompt_core::TenantRun)>,
    refused: u64,
    incomplete: u64,
}

pub struct Output {
    clients: Vec<ClientOut>,
    verify: Vec<(usize, Vec<TaskDescriptor>, u32)>,
}

fn build_world(seed: u64, items: usize) -> (WorldModel, Vec<ItemId>) {
    let mut rng = SplitMix(seed ^ 0x0073_6572_7665);
    let mut world = WorldModel::new();
    let ids = (0..items)
        .map(|i| {
            let id = world.add_item(format!(
                "ticket {i}: customer reports issue {} in module {}",
                rng.below(10_000),
                rng.below(97)
            ));
            for predicate in PREDICATES {
                world.set_flag(id, predicate, rng.below(3) == 0);
            }
            world.set_attr(id, "label", LABELS[rng.below(LABELS.len())]);
            world.set_score(id, rng.below(1_000_000) as f64 / 1e6);
            id
        })
        .collect();
    (world, ids)
}

impl State {
    fn check_task(&self, key: usize) -> TaskDescriptor {
        TaskDescriptor::CheckPredicate {
            item: ItemId((key / PREDICATES.len()) as u64),
            predicate: PREDICATES[key % PREDICATES.len()].to_owned(),
        }
    }

    fn classify_task(&self, item: usize) -> TaskDescriptor {
        TaskDescriptor::Classify {
            item: ItemId(item as u64),
            labels: self.labels.clone(),
        }
    }

    /// Task `slot` of a submit: hot with probability 9/10, else the next
    /// never-seen key of its kind. Draws the same numbers either way, so the
    /// hot tasks of an iteration do not depend on where the cursors stand.
    fn task(
        &mut self,
        slot: usize,
        rng: &mut SplitMix,
        cold_items: usize,
    ) -> (TaskDescriptor, bool) {
        let kind = if slot < CHECKS {
            0
        } else if slot < CHECKS + CLASSIFIES {
            1
        } else {
            2
        };
        let hot = rng.below(COLD_ONE_IN) != 0;
        let pick = rng.below(HOT_KEYS[kind]);
        let key = if hot {
            pick
        } else {
            self.cold[kind] += 1;
            self.cold[kind] - 1
        };
        let task = match (kind, hot) {
            (0, true) => self.check_task(key),
            (0, false) => {
                assert!(
                    key < cold_items * PREDICATES.len(),
                    "never-seen check keys ran out"
                );
                self.check_task(HOT_ITEMS * PREDICATES.len() + key)
            }
            (1, true) => self.classify_task(key),
            (1, false) => {
                assert!(key < cold_items, "never-seen classify keys ran out");
                self.classify_task(HOT_ITEMS + key)
            }
            (_, true) => TaskDescriptor::Compare {
                left: ItemId(key as u64),
                right: ItemId((key + HOT_KEYS[2]) as u64),
                criterion: SortCriterion::LatentScore,
            },
            (_, false) => {
                // Pair `key` of the cold items: a left item, and an offset
                // that grows each time the left items wrap.
                let left = key % cold_items;
                let offset = 1 + key / cold_items;
                assert!(offset < cold_items, "never-seen compare keys ran out");
                TaskDescriptor::Compare {
                    left: ItemId((HOT_ITEMS + left) as u64),
                    right: ItemId((HOT_ITEMS + (left + offset) % cold_items) as u64),
                    criterion: SortCriterion::LatentScore,
                }
            }
        };
        (task, hot)
    }
}

impl Workload for Serve64t {
    // CPU-bound, but the time goes into two clients handing work to each
    // other through locks and condition variables, which the single-threaded
    // yardstick does not follow. Measured over six sets of six to ten runs:
    // run medians as measured spread 3-9 %, in reference seconds 4-12 %.
    const REFERENCE_SCALED: bool = false;
    type State = State;
    type Input = Input;
    type Output = Output;

    fn setup(args: &RunArgs, _scratch: &Path) -> State {
        let cold_items = args.size(COLD_ITEMS, 4_000);
        let (world, ids) = build_world(args.seed, HOT_ITEMS + cold_items);
        let corpus = Corpus::from_world(&world, &ids);
        let world = Arc::new(world);
        let model = roster::model(Arc::clone(&world), args.seed, args.trace);
        let session = Session::builder()
            .routing(roster::routing(
                &model,
                Latency::Zero,
                Hedging::Off,
                args.seed,
                args.trace,
            ))
            .corpus(corpus)
            .parallelism(2)
            .seed(args.seed)
            .criterion("by priority")
            .try_build()
            .expect("serving session builds");
        let tenant_ids: Vec<String> = (0..TENANTS).map(|t| format!("tenant-{t:02}")).collect();
        let mut builder = session.serve();
        for id in &tenant_ids {
            builder = builder.tenant(
                TenantSpec::new(id.clone())
                    .with_budget(Budget::usd(1e6))
                    .with_rate_limit(1e15, 1e15),
            );
        }
        let server = builder.try_build().expect("64-tenant server builds");
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        State {
            seed: args.seed,
            submits: args.size(SUBMITS, 500),
            clients: nproc.min(2),
            world,
            server,
            tenant_ids,
            labels: LABELS.iter().map(|l| (*l).to_owned()).collect(),
            cold: [0; 3],
            prev: Prev::default(),
        }
    }

    fn prepare(state: &mut State) -> Input {
        // The same generator seed every iteration: the hot tasks repeat
        // exactly (so their answers' digest must too); only the never-seen
        // keys move on.
        let mut rng = SplitMix(state.seed ^ 0x6974_6572);
        let cold_items = state.world.len() - HOT_ITEMS;
        let mut lanes: Vec<Vec<(usize, Submit)>> = vec![Vec::new(); state.clients];
        let mut verify = Vec::with_capacity(state.submits / VERIFY_ONE_IN + 1);
        for seq in 0..state.submits {
            let mut tasks = Vec::with_capacity(TASKS);
            let mut hot_mask = 0u32;
            for slot in 0..TASKS {
                let (task, hot) = state.task(slot, &mut rng, cold_items);
                hot_mask |= u32::from(hot) << slot;
                tasks.push(task);
            }
            if seq % VERIFY_ONE_IN == 0 {
                verify.push((seq, tasks.clone(), hot_mask));
            }
            lanes[seq % state.clients].push((
                seq,
                Submit {
                    tenant: seq % TENANTS,
                    tasks,
                },
            ));
        }
        Input { lanes, verify }
    }

    fn op(state: &mut State, input: Input) -> Output {
        // Each client works through its lane, round-robin over the tenants,
        // waiting for a reply before the next submit.
        let server = &state.server;
        let tenant_ids = &state.tenant_ids;
        let outs = std::thread::scope(|scope| {
            let handles: Vec<_> = input
                .lanes
                .into_iter()
                .map(|lane| {
                    scope.spawn(move || {
                        let mut out = ClientOut {
                            latencies: Vec::with_capacity(lane.len()),
                            ..ClientOut::default()
                        };
                        for (seq, submit) in lane {
                            let tenant = &tenant_ids[submit.tenant];
                            let started = Instant::now();
                            let reply = trace::submit_span(seq as u32, || {
                                server.submit(tenant, submit.tasks)
                            });
                            let ns = started.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32;
                            out.latencies.push((submit.tenant as u8, ns));
                            match reply {
                                Ok(run) => {
                                    out.incomplete += u64::from(!run.is_complete());
                                    if seq % VERIFY_ONE_IN == 0 {
                                        out.kept.push((seq, run));
                                    }
                                }
                                Err(_) => out.refused += 1,
                            }
                        }
                        trace::flush_thread();
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect::<Vec<_>>()
        });
        Output {
            clients: outs,
            verify: input.verify,
        }
    }

    fn check(state: &mut State, output: Output) -> OpOut {
        let mut out = OpOut {
            attempted: state.submits as u64,
            ..OpOut::default()
        };

        // Latency: every submit of the iteration, then per tenant.
        let mut all: Vec<u32> = Vec::with_capacity(state.submits);
        let mut per_tenant: Vec<Vec<u32>> = vec![Vec::new(); TENANTS];
        for client in &output.clients {
            out.failed += client.refused + client.incomplete;
            for (tenant, ns) in &client.latencies {
                all.push(*ns);
                per_tenant[usize::from(*tenant)].push(*ns);
            }
        }
        all.sort_unstable();
        let medians: Vec<f64> = per_tenant
            .iter_mut()
            .filter(|l| !l.is_empty())
            .map(|l| {
                l.sort_unstable();
                percentile_sorted(l, 0.5)
            })
            .collect();
        let fastest = medians.iter().copied().fold(f64::INFINITY, f64::min);
        let slowest = medians.iter().copied().fold(0.0, f64::max);
        out.submit_us = Some(SubmitLatency {
            p50: percentile_sorted(&all, 0.5) / 1e3,
            p95: percentile_sorted(&all, 0.95) / 1e3,
            p99: percentile_sorted(&all, 0.99) / 1e3,
            tenant_p50_spread: slowest / fastest.max(1.0),
        });

        // Verdict accuracy over the kept submits, and a digest of the hot
        // tasks' answers (the same tasks every iteration).
        let mut kept: Vec<(usize, crowdprompt_core::TenantRun)> =
            output.clients.into_iter().flat_map(|c| c.kept).collect();
        kept.sort_by_key(|(seq, _)| *seq);
        if kept.len() + (out.failed as usize) < output.verify.len() {
            out.failures.push(format!(
                "{} of {} verified submits came back",
                kept.len(),
                output.verify.len()
            ));
        }
        let mut digest = Digest::default();
        let (mut right, mut asked) = (0u64, 0u64);
        let mut kept = kept.into_iter().peekable();
        for (seq, tasks, hot_mask) in &output.verify {
            let Some((_, run)) = kept.next_if(|(s, _)| s == seq) else {
                continue;
            };
            for (slot, (task, result)) in tasks.iter().zip(&run.results).enumerate() {
                let Ok(response) = result else { continue };
                if hot_mask >> slot & 1 == 1 {
                    digest.str(&response.text);
                }
                asked += 1;
                let gold = gold_answer(&state.world, task).expect("world knows every task");
                let verdict = match task {
                    TaskDescriptor::Classify { labels, .. } => {
                        extract::choice(&response.text, labels).ok()
                    }
                    _ => extract::yes_no(&response.text)
                        .ok()
                        .map(|yes| if yes { "yes" } else { "no" }.to_owned()),
                };
                right += u64::from(verdict.as_deref() == Some(gold.as_str()));
            }
        }
        out.digest = digest.finish();
        out.quality = right as f64 / asked.max(1) as f64;

        // Billing and counters are cumulative on the one server: difference
        // them against the previous op's readings.
        let engine = state.server.engine();
        let ledger = engine.client().ledger();
        let mut now = Prev {
            ledger_calls: ledger.calls(),
            ledger_usd: ledger.spend_usd(),
            ..Prev::default()
        };
        client_counts(engine, &mut now.counts);
        for stats in state.server.stats() {
            now.completed += stats.completed;
            now.shed += stats.shed;
        }
        out.llm_calls = now.ledger_calls - state.prev.ledger_calls;
        out.usd = now.ledger_usd - state.prev.ledger_usd;
        let mut counts = Counts::new();
        for (name, value) in &now.counts {
            let before = state.prev.counts.get(name).copied().unwrap_or(0.0);
            counts.insert(*name, value - before);
        }
        counts.insert(
            "serve.completed",
            (now.completed - state.prev.completed) as f64,
        );
        counts.insert("serve.shed", (now.shed - state.prev.shed) as f64);
        counts.insert("items", (state.submits * TASKS) as f64);
        out.counts = counts;
        state.prev = now;
        out
    }

    fn finish(state: &mut State) -> Vec<String> {
        // Billing partitions: the tenants' private ledgers sum to the shared
        // client ledger, and nothing is left holding a slot lease.
        let mut failures = Vec::new();
        let tenants: f64 = state
            .server
            .stats()
            .iter()
            .map(|t| t.ledger.spent_usd)
            .sum();
        let client = state.server.engine().client().ledger().spend_usd();
        if !money_eq(tenants, client) {
            failures.push(format!(
                "tenant ledgers sum to ${tenants:.9}, client ledger is ${client:.9}"
            ));
        }
        if state.server.leases_in_use() != 0 {
            failures.push(format!(
                "{} slot leases still held after the last submit",
                state.server.leases_in_use()
            ));
        }
        failures
    }

    fn regime(metric: &Lookup<'_>) -> Vec<String> {
        let mut out = Vec::new();
        let hit_ratio = metric("client.hit_ratio");
        if !(0.85..=0.95).contains(&hit_ratio) {
            out.push(format!(
                "client hit ratio is {hit_ratio:.3}, the mix is nine hot in ten"
            ));
        }
        let shed = metric("serve.shed");
        if shed != 0.0 {
            out.push(format!("{shed} submits were shed; no limit should bind"));
        }
        out
    }

    fn layer_extras(state: &mut State) -> Vec<(&'static str, f64)> {
        // What the serve door adds to the engine: the same hot tasks, all
        // cached, submitted through the server and run on the engine
        // directly, on one thread.
        const BATCHES: usize = 400;
        let batches: Vec<Vec<TaskDescriptor>> = (0..BATCHES)
            .map(|b| {
                (0..TASKS)
                    .map(|t| state.check_task((b * TASKS + t) % HOT_KEYS[0]))
                    .collect()
            })
            .collect();
        let server = &state.server;
        let tenant = &state.tenant_ids[0];
        let time = |run: &dyn Fn(Vec<TaskDescriptor>)| {
            batches.iter().cloned().for_each(run); // untimed: warms every key
            let started = Instant::now();
            batches.iter().cloned().for_each(run);
            started.elapsed().as_secs_f64()
        };
        let submit_s = time(&|tasks| {
            assert!(server
                .submit(tenant, tasks)
                .expect("admitted")
                .is_complete());
        });
        let direct_s = time(&|tasks| {
            let outcome = server.engine().run_outcome(RunSpec::tasks(tasks));
            assert!(outcome.expect("hot tasks run").is_complete());
        });
        vec![("serve.overhead_ratio", submit_s / direct_s)]
    }

    fn probe_ctx(state: &State) -> ProbeCtx<'_> {
        ProbeCtx {
            engine: state.server.engine(),
            hedged: false,
            blocking_items: &[],
            blocking_k: 0,
            warm_tasks: (0..HOT_KEYS[0]).map(|key| state.check_task(key)).collect(),
        }
    }
}
