#!/usr/bin/env bash
# Builds the benchmark (and with it the solver and service crates) from
# source, then runs it. Every argument is passed through, e.g.
#   bash perfbench/run.sh --workload noisy-solve --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# Recorded in the run context; a checkout without git history reports "unknown".
export PERFBENCH_GIT_REV="${PERFBENCH_GIT_REV:-$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)}"
# Cargo reports on stderr, so stdout carries only the benchmark's lines.
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/rasengan-perfbench" "$@"
