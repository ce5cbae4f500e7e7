#!/usr/bin/env bash
# Tier-1 verification, fully offline. This is the gate every PR must pass:
# a release build and the whole test suite, with cargo forbidden from
# touching any registry or network. The offline_guard integration test
# additionally fails if a non-path dependency sneaks into any manifest.
set -euo pipefail
cd "$(dirname "$0")/.."

# The bench tiers below record their scenarios into a scratch file, not the
# committed BENCH_share.json, and the smoke tiers dump into a scratch
# directory: a verify run leaves the working tree exactly as it found it
# (checked at the end). Exact comparison of simulated results against a
# baseline is `benchmark/run.sh compare`.
TREE_BEFORE="$(git status --porcelain 2>/dev/null || true)"
VERIFY_TMP="$(mktemp -d)"
trap 'rm -rf "$VERIFY_TMP"' EXIT
export SHARE_BENCH_JSON="$VERIFY_TMP/BENCH_share.json"

echo "== cargo build --release --offline =="
cargo build --release --offline

echo "== cargo test -q --offline =="
cargo test -q --offline

# Allocation-budget tier: the steady-state write/GC path of an aged FTL
# must stay under 0.5 KiB of heap per op (crates/core/tests/alloc_budget.rs,
# DESIGN.md "Buffer ownership"). The suite above ran it unoptimised; the
# benchmark's `alloc_kb_per_op` is measured on release code, so hold that
# build to the same budget.
echo "== allocation budget (release) =="
cargo test -q --release --offline -p share-core --test alloc_budget
# The engine half (crates/innodb/tests/alloc_budget.rs): a pool frame is
# the page image, so a fetch may ask for its three request vectors and a
# flushed page for nothing above the device.
cargo test -q --release --offline -p mini-innodb --test alloc_budget
# The mini-couch half (crates/couch/tests/alloc_budget.rs): the buffer a
# document's blocks are read into is the document, a save's only copy is the
# queued command's, a SHARE compaction reads heads through one buffer.
cargo test -q --release --offline -p mini-couch --test alloc_budget

# Crash-point smoke sweep: every NAND program boundary (stride 1) of an
# FTL-level and two engine-level workloads, times three fault modes, must
# recover cleanly. Any violation prints a reproducible
# (workload, mode, crash_index) triple and fails this script. The deep
# soak tier is the same sweep over larger workloads, gated on
# SHARE_CRASH_POINTS (see ROADMAP.md).
echo "== crash-point smoke sweep =="
./target/release/sharectl crashsweep --workload all --stride 1

# Bench smoke tier: a small multi-channel scenario (release binaries,
# seconds of wall time). bench_channels exits non-zero unless the
# 8-channel device at least doubles 1-channel batched write throughput
# and the scenario it records into BENCH_share.json re-reads as valid
# JSON with the expected shape.
echo "== bench smoke (multi-channel + BENCH_share.json sanity) =="
./target/release/bench_channels

# QD smoke tier: sweep submission-queue depth {1, 4, 16} on a 4-channel
# device and record p50/p99 submit->complete latency-under-load from the
# telemetry histograms into BENCH_share.json (qd_latency_smoke). Fails
# unless qd=16 at least doubles qd=1 write throughput, p99 grows
# monotonically with depth, and the recorded JSON re-reads cleanly.
echo "== qd smoke (queue-depth sweep + latency-under-load percentiles) =="
./target/release/bench_qd

# Aging smoke tier: age a 4-channel device with mixed data/wal/doublewrite/
# compact streams, placement off then on, and record both per-stream WA
# ledgers into BENCH_share.json (aging_placement). Fails unless GC ran in
# both runs and multi-streamed placement cuts the GC copyback blamed on
# the short-lived journal streams at least 2x.
echo "== aging smoke (multi-streamed placement on/off WA comparison) =="
./target/release/bench_aging

# Snapshot smoke tier: clone a 64 MiB aged mini-SQLite database through
# the device snapshot subsystem and record clone latency, copy-on-write
# WA and point-in-time read p50/p99 into BENCH_share.json
# (snapshot_clone). Fails unless the snapshot create programs zero NAND
# pages and the clone programs far fewer pages than it maps (zero-copy).
echo "== snapshot smoke (instant clone of an aged mini-SQLite DB) =="
./target/release/bench_snapshot

# Metrics smoke tier: run a short YCSB workload with full telemetry, dump
# both exporter formats (Prometheus text + JSON), re-parse the JSON dump,
# and assert the telemetry op counters equal the DeviceStats counters —
# the FTL's two bookkeeping paths must agree exactly.
echo "== metrics smoke (telemetry vs DeviceStats) =="
SHARE_METRICS_DIR="$VERIFY_TMP" ./target/release/metrics_smoke

# Trace smoke tier: run a short YCSB workload with span tracing off and
# on, assert the simulated results are bit-identical either way, export
# the span tree as Chrome trace_event JSON, re-parse it through
# telemetry::json, and check well-formedness (monotonic timestamps,
# balanced spans, every pid/tid announced by metadata, every parent
# resolvable, all four layers present). The tracing wall-clock overhead
# is recorded into BENCH_share.json as the trace_smoke scenario.
echo "== trace smoke (span tracer + Chrome export well-formedness) =="
SHARE_METRICS_DIR="$VERIFY_TMP" ./target/release/trace_smoke

# Health smoke tier: age a 4-channel device with the flight recorder on,
# record the wear histogram, skew, remaining life and downsampled
# free-block/GC time series into BENCH_share.json (health_aging). Fails
# unless the device actually aged, the sealed epoch deltas sum exactly to
# the cumulative device counters, wear skew stays under the pinned bound,
# and zero critical SLO alerts fired.
echo "== health smoke (wear model + flight recorder + SLO engine) =="
./target/release/bench_health

# Benchmark tier: `benchmark/` is a workspace of its own that compiles
# against this tree's public types (`BlockDevice`, `DeviceStats`,
# `Snapshot`), so neither command above builds it. Build it and run its
# own tests from its committed lock file; `benchmark/target` is
# git-ignored, so the tree check below still holds.
echo "== benchmark package (builds and tests against this tree) =="
CARGO_TARGET_DIR=benchmark/target cargo test --release --offline --locked \
  --manifest-path benchmark/Cargo.toml

# A verify run must not dirty the tree (it used to rewrite
# BENCH_share.json on every run).
echo "== working tree unchanged =="
if [ "$(git status --porcelain 2>/dev/null || true)" != "$TREE_BEFORE" ]; then
  echo "verify: FAILED — the run changed the working tree:" >&2
  git status --porcelain >&2
  exit 1
fi

echo "verify: OK"
