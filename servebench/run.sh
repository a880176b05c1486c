#!/usr/bin/env bash
# Build the release `fact-shardd` and the benchmark, then run one workload:
#
#   bash servebench/run.sh --workload fair-closed --seed 1 --seconds 10 --trace 0 \
#       --remote-rate 2000 --slo-us fair-closed=2000,flagged-pipelined=5000,remote-open=2000
#
# Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
# .bench_build); cargo's output goes to standard error, so the last line
# of standard output is the benchmark's JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin fact-shardd 1>&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/servebench" --shardd "$CARGO_TARGET_DIR/release/fact-shardd" "$@"
