#!/usr/bin/env bash
# Build the benchmark (offline, from the committed lock file) and run it.
#
#   benchmark/run.sh                      all five workloads, untraced -> benchmark/out/result.json
#   benchmark/run.sh trace                all five workloads, traced   -> benchmark/out/result_trace.json
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>   one workload
#
# Runs from the repository root, whatever the caller's directory.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --quiet --release --offline --locked --manifest-path benchmark/Cargo.toml >&2
if [ "$#" -eq 0 ]; then
  set -- run
fi
exec "$CARGO_TARGET_DIR/release/share-benchmark" "$@"
