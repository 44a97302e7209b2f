#!/usr/bin/env bash
# Builds the `psgl` binary and this benchmark from source, then runs one
# workload and prints its result as the last line of standard output:
#
#   bash perfbench/run.sh --workload cold-count --seed 1 --seconds 10 --trace 0
#
# Build output lands in $CARGO_TARGET_DIR (default: target/ at the root).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin psgl >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
"$CARGO_TARGET_DIR/release/perfbench" \
    --psgl "$CARGO_TARGET_DIR/release/psgl" --out perfbench/out "$@"
