#!/usr/bin/env bash
# Tier-1 verification, fully offline. This is the gate every PR must pass:
# a release build and the whole test suite, with cargo forbidden from
# touching any registry or network. The offline_guard integration test
# additionally fails if a non-path dependency sneaks into any manifest.
# Every cargo call below (and `benchmark/run.sh`) runs from the repository
# root and so builds with `/.cargo/config.toml`: functions on 64-byte lines,
# which takes the build-directory lottery out of the benchmark's host rows.
set -euo pipefail
cd "$(dirname "$0")/.."

# A verify run leaves the working tree exactly as it found it (checked at
# the end).
TREE_BEFORE="$(git status --porcelain 2>/dev/null || true)"

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
# the page image and the request vectors are kept, so a warm fetch, a
# `prefetch_keys` round and a scan's read-ahead ask for nothing, and a
# flushed page or flush batch for nothing above the device; its link-list
# phase holds `get_link_list` on resident lists to no request per row (the
# rows are refilled in place).
cargo test -q --release --offline -p mini-innodb --test alloc_budget
# The mini-couch half (crates/couch/tests/alloc_budget.rs): the buffer a
# document's blocks are read into is the document, and a warm `get_many`
# reads into the buffers its last result gave back (no document-sized
# request, one request per call); a save copies nothing (the queued command
# borrows) and a warm `save_many` makes one request per call; a SHARE
# compaction reads heads through one buffer.
cargo test -q --release --offline -p mini-couch --test alloc_budget

# Crash-point smoke sweep: every NAND program boundary (stride 1) of the
# seven FTL-level workloads (one FTL harness) and of every safe engine mode
# (the engine harness's thirteen `<engine>-<mode>` workloads, ~5 s of the
# tier, `couch-share-wide` ~1.2 s of it), times
# three fault modes, must recover cleanly. Any violation prints a
# reproducible (workload, mode, crash_index) triple and fails this script.
# The deep soak tier is the same sweep over larger workloads, gated on
# SHARE_CRASH_POINTS (see ROADMAP.md).
echo "== crash-point smoke sweep =="
./target/release/sharectl crashsweep --workload all --stride 1

# Experiment tier: results/<stem>.txt is the one record of every artifact
# in crates/bench/src/artifacts/, and the simulator is deterministic, so
# every number is gated exactly; the one `diff -r` fails on a changed, a
# missing and an orphan file. After an intended change of simulated
# behaviour, re-record with `./target/release/results results [stem …]`
# and say why in CHANGES.md.
echo "== experiment tables (results/*.txt, exact) =="
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
./target/release/results "$tmp"
if ! diff -r -x README.md results "$tmp" >&2; then
  echo "verify: FAILED — results/ is out of date (see above)" >&2
  exit 1
fi

# Benchmark tier: `benchmark/` is a workspace of its own that compiles
# against this tree's public types (`BlockDevice`, `DeviceStats`,
# `Snapshot`), so neither command above builds it. Build it and run its
# own tests from its committed lock file; `benchmark/target` is
# git-ignored, so the tree check below still holds.
echo "== benchmark package (builds and tests against this tree) =="
CARGO_TARGET_DIR=benchmark/target cargo test --release --offline --locked \
  --manifest-path benchmark/Cargo.toml

echo "== working tree unchanged =="
if [ "$(git status --porcelain 2>/dev/null || true)" != "$TREE_BEFORE" ]; then
  echo "verify: FAILED — the run changed the working tree:" >&2
  git status --porcelain >&2
  exit 1
fi

echo "verify: OK"
