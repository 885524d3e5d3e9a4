//! The per-layer breakdown of a traced run: span arithmetic, counters read
//! from the stack's public views, probed unit costs, and the attribution
//! that multiplies the last two.
//!
//! Every value is per op: a median over the run's traced ops for what was
//! observed, a single measurement for what was probed.

use std::collections::BTreeMap;
use std::path::Path;

use crate::harness::{median, percentile, undisturbed, RunArgs};
use crate::probes::{self, ProbeInput};
use crate::trace::{self, Span, Status};
use crate::workloads::{OpRecord, ProbeCtx, SubmitLatency};

/// What the spans of one traced op add up to.
#[derive(Debug, Default)]
struct OpSpans {
    build_s: f64,
    plan_s: f64,
    execute_s: f64,
    submit_s: f64,
    backend_calls: f64,
    backend_busy_s: f64,
    backend_failed: f64,
    backend_cancelled: f64,
    sim_compute_s: f64,
    /// Front-door time no backend span covers.
    self_s: f64,
    /// Backend busy time ÷ front-door time.
    overlap: f64,
}

/// Total length of `intervals` after merging overlaps; sorts in place.
fn union_ns(intervals: &mut [(u64, u64)]) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::new();
    for &(start, end) in intervals.iter() {
        match merged.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => merged.push((start, end)),
        }
    }
    merged
}

/// Nanoseconds of `[start, end)` that `merged` (sorted, disjoint) covers.
fn covered_ns(merged: &[(u64, u64)], start: u64, end: u64) -> u64 {
    let from = merged.partition_point(|&(_, e)| e <= start);
    merged[from..]
        .iter()
        .take_while(|&&(s, _)| s < end)
        .map(|&(s, e)| e.min(end) - s.max(start))
        .sum()
}

fn summarize(op: &OpRecord, spans: &[&Span]) -> OpSpans {
    let mut out = OpSpans::default();
    let mut backend: Vec<(u64, u64)> = Vec::new();
    // The intervals during which the front door was open: `execute` spans on
    // the `Query` door; on the serve door, where several submits run at
    // once, the whole op.
    let mut door: Vec<(u64, u64)> = Vec::new();
    let (mut first, mut last) = (u64::MAX, 0);
    for span in spans {
        first = first.min(span.start_ns);
        last = last.max(span.end_ns);
        match span.name {
            "try_build" => out.build_s += span.seconds(),
            "plan" => out.plan_s += span.seconds(),
            "execute" => {
                out.execute_s += span.seconds();
                door.push((span.start_ns, span.end_ns));
            }
            "submit" => out.submit_s += span.seconds(),
            "backend" => {
                out.backend_calls += 1.0;
                out.backend_busy_s += span.seconds();
                match span.status {
                    Status::Ok => {}
                    Status::Failed => out.backend_failed += 1.0,
                    Status::Cancelled => out.backend_cancelled += 1.0,
                }
                backend.push((span.start_ns, span.end_ns));
            }
            "model" => out.sim_compute_s += span.seconds(),
            _ => {}
        }
    }
    if door.is_empty() && first < last {
        door.push((first, last));
    }
    let merged = union_ns(&mut backend);
    let door_ns: u64 = door.iter().map(|(s, e)| e - s).sum();
    let covered: u64 = door.iter().map(|&(s, e)| covered_ns(&merged, s, e)).sum();
    out.self_s = (door_ns - covered) as f64 / 1e9;
    let door_s = if door_ns > 0 {
        door_ns as f64 / 1e9
    } else {
        op.wall_s
    };
    out.overlap = out.backend_busy_s / door_s;
    out
}

/// Looks a metric up by name.
pub type Lookup<'a> = dyn Fn(&str) -> f64 + 'a;

/// Extra per-layer values only one workload can measure, and its regime
/// checks.
pub struct WorkloadHooks<'a> {
    pub extras: Vec<(&'static str, f64)>,
    /// Given a metric lookup, say what puts the run outside the regime the
    /// workload exists to measure.
    pub regime: &'a dyn Fn(&Lookup<'_>) -> Vec<String>,
}

pub fn per_layer(
    args: &RunArgs,
    records: &[OpRecord],
    ctx: ProbeCtx<'_>,
    scratch: &Path,
    hooks: WorkloadHooks<'_>,
    failures: &mut Vec<String>,
) -> Vec<(String, f64)> {
    // Ops the hypervisor disturbed are set aside while three remain on each
    // side.
    let side = |traced: bool| -> Vec<&OpRecord> {
        let ops: Vec<&OpRecord> = records.iter().filter(|r| r.traced == traced).collect();
        undisturbed(&ops, |r| r.stolen_share, 3)
            .into_iter()
            .copied()
            .collect()
    };
    let (traced, untraced) = (side(true), side(false));
    let spans = trace::spans();
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |name: &str, value: f64| {
        m.insert(name.to_owned(), value);
    };

    // --- spans ------------------------------------------------------------
    let per_op: Vec<OpSpans> = traced
        .iter()
        .map(|op| {
            let id = op.index as u64 + 1;
            let own: Vec<&Span> = spans.iter().filter(|s| s.op() == id).collect();
            summarize(op, &own)
        })
        .collect();
    let med = |f: &dyn Fn(&OpSpans) -> f64| median(&per_op.iter().map(f).collect::<Vec<_>>());
    set("door.build_s", med(&|s| s.build_s));
    set("plan.plan_s", med(&|s| s.plan_s));
    set("exec.execute_s", med(&|s| s.execute_s));
    set("serve.submit_s", med(&|s| s.submit_s));
    set("exec.overlap", med(&|s| s.overlap));
    set("exec.self_s", med(&|s| s.self_s));
    set("backend.calls", med(&|s| s.backend_calls));
    set("backend.busy_s", med(&|s| s.backend_busy_s));
    set("backend.failed", med(&|s| s.backend_failed));
    set("backend.cancelled", med(&|s| s.backend_cancelled));
    set("sim.compute_s", med(&|s| s.sim_compute_s));
    // Latency percentiles pool the backend calls of every timed traced op
    // (the fill run of a warm store, which is not an op, stays out).
    let timed_ops: Vec<u64> = traced.iter().map(|op| op.index as u64 + 1).collect();
    let backend_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "backend" && s.status == Status::Ok && timed_ops.contains(&s.op()))
        .map(|s| s.seconds() * 1e6)
        .collect();
    set("backend.p50_us", percentile(&backend_us, 0.5));
    set("backend.p99_us", percentile(&backend_us, 0.99));

    // --- counters -----------------------------------------------------------
    let count = |name: &str| {
        median(
            &traced
                .iter()
                .map(|op| op.out.counts.get(name).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    for name in [
        "client.calls",
        "client.cache_hits",
        "client.coalesced",
        "client.store_hits",
        "client.retries",
        "client.failures",
        "route.dispatches",
        "route.retries",
        "route.hedges_launched",
        "route.hedges_won",
        "route.breaker_trips",
        "journal.file_bytes",
        "serve.completed",
        "serve.shed",
    ] {
        set(name, count(name));
    }
    let calls = count("client.calls");
    let hits = count("client.cache_hits") + count("client.coalesced") + count("client.store_hits");
    let requests = calls + hits;
    set("client.hit_ratio", ratio(hits, requests));
    set(
        "route.wasted_ratio",
        ratio(
            count("route.dispatches") - count("route.wins"),
            count("route.dispatches"),
        ),
    );
    set(
        "plan.est_calls_ratio",
        ratio(count("plan.est_calls"), count("plan.calls")),
    );
    set("ops.calls_per_item", ratio(calls, count("items")));
    let wall = |ops: &[&OpRecord]| median(&ops.iter().map(|op| op.wall_s).collect::<Vec<_>>());
    set(
        "serve.tasks_per_s",
        ratio(count("serve.completed"), wall(&traced)),
    );
    let submit = |pick: &dyn Fn(SubmitLatency) -> f64| {
        median(
            &traced
                .iter()
                .map(|op| op.out.submit_us.map_or(0.0, pick))
                .collect::<Vec<_>>(),
        )
    };
    set("serve.tenant_p50_spread", submit(&|s| s.tenant_p50_spread));
    set("serve.submit_p99_us", submit(&|s| s.p99));

    // --- probes -------------------------------------------------------------
    let captures = trace::take_captures();
    if captures.is_empty() {
        failures.push("the traced backends captured no request to replay".into());
        return m.into_iter().collect();
    }
    let probed = probes::run_all(&ProbeInput {
        captures: &captures,
        ctx: &ctx,
        scratch,
    });
    set("exec.dispatch_ns", probed.dispatch_ns);
    set("template.render_ns", probed.render_ns);
    set("hash.fingerprint_ns", probed.fingerprint_ns);
    set("tokenizer.count_ns", probed.count_ns);
    set("extract.parse_ns", probed.parse_ns);
    set("budget.admit_record_ns", probed.admit_record_ns);
    set("client.hit_ns", probed.hit_ns);
    set("client.miss_ns", probed.miss_ns);
    set("store.open_s", probed.store.open_s);
    set("store.lookup_ns", probed.store.lookup_ns);
    set("store.admit_ns", probed.store.admit_ns);
    set("route.select_ns", probed.select_ns);
    set("feed.push_claim_ns", probed.push_claim_ns);
    set("lease.cycle_ns", probed.lease_cycle_ns);
    set("blocking.build_s", probed.blocking_build_s);
    set("blocking.neighbors_s", probed.blocking_neighbors_s);
    // The workload's own store file where it attaches one, else the file
    // the store probe wrote from the captured responses.
    let stored = traced
        .iter()
        .any(|op| op.out.counts.contains_key("store.entries"));
    let (entries, bytes) = if stored {
        (count("store.entries"), count("store.file_bytes"))
    } else {
        (probed.store.entries, probed.store.file_bytes)
    };
    set("store.entries", entries);
    set("store.file_bytes", bytes);
    set("store.bytes_per_entry", ratio(bytes, entries));

    // --- attribution: observed count × probed unit cost -----------------------
    let ns = 1e-9;
    let attr = [
        ("attr.template_s", requests * probed.render_ns * ns),
        ("attr.hash_s", requests * probed.fingerprint_ns * ns),
        ("attr.tokenizer_s", requests * probed.count_ns * ns),
        ("attr.extract_s", count("parsed") * probed.parse_ns * ns),
        ("attr.budget_s", requests * probed.admit_record_ns * ns),
        (
            "attr.client_s",
            (hits * probed.hit_ns + calls * probed.miss_ns) * ns,
        ),
        (
            "attr.store_s",
            if stored {
                probed.store.open_s
                    + (count("client.store_hits") * probed.store.lookup_ns
                        + calls * probed.store.admit_ns)
                        * ns
            } else {
                0.0
            },
        ),
        (
            "attr.route_s",
            count("route.dispatches") * probed.select_ns * ns,
        ),
        (
            "attr.blocking_s",
            probed.blocking_build_s + probed.blocking_neighbors_s,
        ),
        (
            "attr.serve_s",
            count("serve.completed") * (probed.push_claim_ns + probed.lease_cycle_ns) * ns,
        ),
    ];
    let mut attributed = med(&|s| s.sim_compute_s);
    for (name, value) in attr {
        attributed += value;
        set(name, value);
    }
    let cpu_s = traced.iter().map(|op| op.cpu_s).sum::<f64>() / traced.len().max(1) as f64;
    set("proc.cpu_s", cpu_s);
    set("trace.attributed_ratio", ratio(attributed, cpu_s));
    let overhead = ratio(wall(&traced), wall(&untraced));
    set("trace.overhead_ratio", overhead);

    set("serve.overhead_ratio", 0.0);
    for (name, value) in hooks.extras {
        set(name, value);
    }

    // --- regime -------------------------------------------------------------
    if !args.quick {
        // Reported, not failed: with three ops on each side the ratio moves
        // more with the machine than with the few dozen nanoseconds a span
        // costs.
        if overhead > 1.10 {
            eprintln!(
                "warning: traced ops ran {:.1} % slower than untraced ones (expected under 10 %)",
                (overhead - 1.0) * 100.0
            );
        }
        let traced_wall = wall(&traced);
        let lookup = |name: &str| match name {
            "op.cpu_s" => cpu_s,
            "op.wall_s" => traced_wall,
            // A per-layer metric, else a raw counter of the traced ops.
            _ => m.get(name).copied().unwrap_or_else(|| count(name)),
        };
        failures.extend(
            (hooks.regime)(&lookup)
                .into_iter()
                .map(|f| format!("out of regime: {f}")),
        );
    }
    m.into_iter().collect()
}
