#!/usr/bin/env bash
# Builds `repro` and the benchmark from source, then runs the benchmark
# from the repository root with the given arguments, e.g.
#
#   bash psbbench/run.sh --workload paper --seed 1234 --seconds 30 --trace 0
#   bash psbbench/run.sh steady --runs 10
#
# Build products, traces and the server's temporary stores go to
# $CARGO_TARGET_DIR (default .bench_build, relative to the root).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p psb-eval --bin repro
cargo build --release --offline --quiet --manifest-path psbbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/psbbench" "$@"
