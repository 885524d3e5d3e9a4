#!/usr/bin/env bash
# Guard the checked-in BENCH_*.json baselines against bench bit-rot.
#
# Every baseline the README cites must keep its required entries: a renamed
# criterion group, a dropped record_* line, or a bench that silently stops
# recording would otherwise hollow the baseline out while CI stays green.
# Run from the repository root (CI does); exits non-zero listing every
# missing entry.

set -euo pipefail

fail=0

require() {
  local file=$1
  shift
  if [[ ! -f "$file" ]]; then
    echo "MISSING BASELINE FILE: $file" >&2
    fail=1
    return
  fi
  local key
  for key in "$@"; do
    if ! grep -q "\"name\":\"$key\"" "$file"; then
      echo "$file is missing required entry: $key" >&2
      fail=1
    fi
  done
}

require BENCH_exec.json \
  client_hot_cache/seed_mutex/8 \
  client_hot_cache/sharded/8 \
  client_hot_cache/seed_mutex/16 \
  client_hot_cache/sharded/16 \
  client_hot_cache/seed_mutex/32 \
  client_hot_cache/sharded/32 \
  client_cold_burst_16t/seed_mutex \
  client_cold_burst_16t/sharded_coalescing \
  engine_run_many_dup_heavy/adaptive_claims

require BENCH_embed.json \
  embed_index_build_20k/flat_store \
  embed_single_query_20k/fused_heap \
  embed_batch_blocking_20kx256/fused_sequential_loop \
  embed_batch_blocking_20kx256/batched_fused \
  embed_1m_query/exact_fused \
  embed_1m_query/ivf_sq8 \
  embed_1m_build/ivf_ns \
  embed_1m_recall/at10_x1000

require BENCH_pack.json \
  filter_pack_4096/per_item \
  filter_pack_4096/packed_w8 \
  filter_pack_4096/packed_w16 \
  filter_pack_4096/backend_calls_per_item \
  filter_pack_4096/backend_calls_packed_w16

require BENCH_route.json \
  route_tail/unhedged_p50_ns \
  route_tail/unhedged_p99_ns \
  route_tail/hedged_p50_ns \
  route_tail/hedged_p99_ns \
  route_call/unhedged \
  route_call/hedged \
  route_burst/unhedged \
  route_burst/hedged

require BENCH_resilience.json \
  resilience_batch/failfast_clean \
  resilience_batch/degrade_clean \
  resilience_outage/degrade_salvage \
  resilience_outage/salvaged_of_64 \
  resilience_resume/journal_write \
  resilience_resume/journal_replay

require BENCH_serve.json \
  serve_submit/engine_direct_64 \
  serve_submit/server_submit_64 \
  serve_fairness/claim_drain_64x32 \
  serve_fairness/p99_over_median_x1000 \
  serve_fairness/claims_to_drain_light_of_2048 \
  serve_concurrent/tenants_64x4 \
  serve_concurrent/completed_of_256 \
  serve_starvation/hog_completed_of_256 \
  serve_starvation/light_completed_of_8

require BENCH_store.json \
  store_start/cold_empty \
  store_start/warm_populated \
  store_start/manual_cold_ns \
  store_start/manual_warm_ns \
  store_semantic/rephrased_hits_of_64 \
  store_semantic/rephrased_mismatch \
  store_semantic/adversarial_hits_of_64 \
  store_semantic/adversarial_mismatch \
  store_semantic/variant_burst_semantic \
  store_semantic/variant_burst_backend

# --- Ratio guards over the recorded numbers themselves -----------------------
# A baseline that merely *exists* can still record a regression. The PR-6
# acceptance numbers are pinned here: the IVF probe must stay >=10x faster
# than the exact fused scan on the 1M tier, and its measured recall@10 must
# stay >=0.95 against the exact oracle.

# Extract the first numeric field (ns_per_iter or ns) for a named entry.
value_of() {
  local file=$1 key=$2
  grep "\"name\":\"$key\"" "$file" | tail -1 \
    | sed -E 's/.*"ns(_per_iter)?"[: ]*([0-9.]+).*/\2/'
}

ratio_guard() {
  local desc=$1 num=$2 den=$3 op=$4 bound=$5
  if [[ -z "$num" || -z "$den" ]]; then
    echo "ratio guard '$desc' skipped: missing entries" >&2
    fail=1
    return
  fi
  if ! awk -v n="$num" -v d="$den" -v b="$bound" -v op="$op" \
      'BEGIN { r = n / d; ok = (op == "le") ? (r <= b) : (r >= b); exit !ok }'; then
    echo "ratio guard FAILED: $desc ($num / $den vs bound $bound)" >&2
    fail=1
  fi
}

if [[ -f BENCH_embed.json ]]; then
  ratio_guard "1M exact scan >= 10x slower than IVF probe" \
    "$(value_of BENCH_embed.json embed_1m_query/exact_fused)" \
    "$(value_of BENCH_embed.json embed_1m_query/ivf_sq8)" \
    ge 10.0
  ratio_guard "1M recall@10 >= 0.95" \
    "$(value_of BENCH_embed.json embed_1m_recall/at10_x1000)" \
    1000 ge 0.95
fi

# PR-7 acceptance numbers: degrade-mode bookkeeping must stay near-free on
# a healthy batch, a complete-journal resume must clearly beat a run that
# has to dispatch, and the scripted outage with a healthy standby must
# salvage the entire 64-task batch.
if [[ -f BENCH_resilience.json ]]; then
  ratio_guard "degrade-mode clean batch <= 1.5x fail-fast" \
    "$(value_of BENCH_resilience.json resilience_batch/degrade_clean)" \
    "$(value_of BENCH_resilience.json resilience_batch/failfast_clean)" \
    le 1.5
  ratio_guard "journal replay <= 0.85x journaled first run" \
    "$(value_of BENCH_resilience.json resilience_resume/journal_replay)" \
    "$(value_of BENCH_resilience.json resilience_resume/journal_write)" \
    le 0.85
  ratio_guard "outage salvage is total (64 of 64)" \
    "$(value_of BENCH_resilience.json resilience_outage/salvaged_of_64)" \
    64 ge 1.0
fi

# PR-9 acceptance numbers: a fresh process warm-started on a populated
# response store must finish the cold burst at >=5x the empty-store pace
# (the bench additionally asserts zero backend calls), the semantic tier
# must answer every rephrased near-duplicate without changing an answer,
# and serving a variant burst from the semantic tier must clearly beat
# re-dispatching it to the backend.
if [[ -f BENCH_store.json ]]; then
  ratio_guard "warm store start <= 0.2x cold start" \
    "$(value_of BENCH_store.json store_start/warm_populated)" \
    "$(value_of BENCH_store.json store_start/cold_empty)" \
    le 0.2
  ratio_guard "rephrased burst fully served by the semantic tier" \
    "$(value_of BENCH_store.json store_semantic/rephrased_hits_of_64)" \
    64 ge 1.0
  ratio_guard "rephrased semantic answers change nothing" \
    "$(value_of BENCH_store.json store_semantic/rephrased_mismatch)" \
    64 le 0.0
  ratio_guard "semantic variant burst <= 0.5x backend dispatch" \
    "$(value_of BENCH_store.json store_semantic/variant_burst_semantic)" \
    "$(value_of BENCH_store.json store_semantic/variant_burst_backend)" \
    le 0.5
fi

# PR-10 acceptance numbers: the serving front door (admission, fair feed,
# slot leases) must stay within 2x of bare engine dispatch on the same
# batch, the 64-tenant equal-weight p99/median claim ratio must stay <=2x,
# a light tenant next to a 2048-item hog must drain within ~3x its own
# backlog, and the concurrent and hog/light workloads must complete every
# submitted task (the bench additionally asserts per-tenant
# meter == ledger == budget and that every lease is released).
if [[ -f BENCH_serve.json ]]; then
  ratio_guard "server submit <= 2x direct engine dispatch" \
    "$(value_of BENCH_serve.json serve_submit/server_submit_64)" \
    "$(value_of BENCH_serve.json serve_submit/engine_direct_64)" \
    le 2.0
  ratio_guard "64-tenant p99/median claim ratio <= 2x" \
    "$(value_of BENCH_serve.json serve_fairness/p99_over_median_x1000)" \
    1000 le 2.0
  ratio_guard "light tenant drains within 3x its backlog beside a hog" \
    "$(value_of BENCH_serve.json serve_fairness/claims_to_drain_light_of_2048)" \
    16 le 3.0
  ratio_guard "concurrent 64-tenant workload completes (256 of 256)" \
    "$(value_of BENCH_serve.json serve_concurrent/completed_of_256)" \
    256 ge 1.0
  ratio_guard "hog cannot starve the light tenant (8 of 8 complete)" \
    "$(value_of BENCH_serve.json serve_starvation/light_completed_of_8)" \
    8 ge 1.0
fi

if [[ $fail -ne 0 ]]; then
  echo "bench baseline check FAILED" >&2
  exit 1
fi
echo "bench baselines OK"
