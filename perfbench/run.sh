#!/usr/bin/env bash
# Builds the simulator's `serve` binary and the benchmark from source,
# then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the benchmark's report goes to stdout and
# ends with one JSON result line. Both builds share CARGO_TARGET_DIR
# (default: target), so `serve` lands next to the benchmark binary.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --offline --release --quiet -p grp-bench --bin serve >&2
cargo build --offline --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
