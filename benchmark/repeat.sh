#!/usr/bin/env bash
# Run the whole benchmark twice on the same code and print, for every
# workload and end-to-end metric, both values, how much worse the second is,
# the bound from BENCHMARK.json, and PASS or FAIL. `llm_calls` and `quality`
# must agree exactly. Takes the arguments of run.sh's every-workload form.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
seed=11
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    if [[ "${args[i]}" == "--seed" ]]; then
        seed="${args[i + 1]:?--seed needs a value}"
    fi
done
for pass in 1 2; do
    benchmark/run.sh "$@"
    mv "benchmark/results/e2e-seed$seed.json" "benchmark/results/repeat-$pass.json"
done
benchmark/run.sh --compare benchmark/results/repeat-1.json benchmark/results/repeat-2.json
