#!/usr/bin/env bash
# Build spear-sim and the benchmark harness from source, then run the
# harness with the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload fig6-simpoint --seed 0 --seconds 15 --trace 0
#   bash benchmark/run.sh --self-test
#   bash benchmark/run.sh --compare parent.jsonl change.jsonl
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); run
# output goes to .bench_out/.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "benchmark/run.sh: run from the repository root" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p spear --bin spear-sim
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

# Not `exec`: the harness reads its children's peak memory with
# getrusage(RUSAGE_CHILDREN), and a process keeps that account across
# exec, so the cargo builds above would leak into it.
"$CARGO_TARGET_DIR/release/spear-benchmark" "$@"
