#!/usr/bin/env bash
# Builds the benchmark and the `repro` binary (the fleet workload's shard
# worker) from this checkout, then runs one benchmark invocation with the
# given arguments.  Run from the repository root:
#
#   bash perfbench/run.sh --workload trial-repeat --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p ivc-bench --bin repro >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --repro "$CARGO_TARGET_DIR/release/repro" "$@"
