#!/usr/bin/env bash
# perf_ledger: build the benchmark, then run it.
#
#   benchmark/run.sh                      the five workloads, every end-to-end metric
#   benchmark/run.sh --traced             ... plus the traced run and the per-layer table
#   benchmark/run.sh --aa                 two sets of the same build, held to the bounds
#   benchmark/run.sh --seed N             another input seed (default 1)
#   benchmark/run.sh --list               every declared name and what it should move
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one workload, one JSON result line (the driver's call)
#
# Builds offline into $CARGO_TARGET_DIR (default benchmark/target) and
# touches nothing outside the repository. Exits non-zero if the build
# fails, a check fails, or a declared metric is missing.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
# Build output goes to stderr so stdout stays the benchmark's own.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml 1>&2
exec "$target/release/perf-ledger" "$@"
