#!/usr/bin/env bash
# Build the benchmark offline and run it from the repository root.
#
#   benchmark/run.sh [--seed N] [--seconds S]       every workload, untraced then traced
#   benchmark/run.sh --quick                        sizes / 20, checks only
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                                   one run (what BENCHMARK.json's command is given)
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
# Share the root workspace's target directory unless the caller chose one.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/e2e" "$@"
