#!/usr/bin/env bash
# Robustness CI gate: fault tolerance under sanitizers plus an end-to-end
# fault-injection pass.
#
#   ./scripts/ci_robustness.sh [build-dir]
#
# Three stages:
#   1. ci_sanitize.sh thread — the concurrent engine suites (including the
#      fault-injection tests) under TSan; retries + skip mode must be as
#      data-race-free as the happy path.
#   2. A plain build running the fault-focused test suites: engine faults,
#      cluster node-loss recovery, metrics round-trip, lenient dataset reads.
#   3. The CLI driven with aggressive fault injection + node loss: the
#      skyline must come out byte-identical to a fault-free run.
#   4. The server under hostile clients (ISSUE 7): the chaos + fuzz suites
#      under a hard wall-clock cap (a hang is a failure, not a stall), then
#      the load bench in degradation mode — per-query deadlines, slow
#      clients, a client receive timeout — with the bitwise replay gate on.
set -euo pipefail

BUILD_DIR="${1:-build-robustness}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

"$ROOT/scripts/ci_sanitize.sh" thread "${BUILD_DIR}-tsan"

cmake -B "$BUILD_DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DMRSKY_BUILD_BENCH=ON \
  -DMRSKY_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j --target mrsky_tests mrsky ablation_fault_tolerance bench_server_load

FILTER='Fault*:SkipBadRecords*:NodeFailure*:Cluster*:LptSchedule*:TraceJob*:Speculation*'
FILTER+=':MetricsJson*:CsvIo*:RecordFile*:BlockStore*:JobEdgeCases*:MRSkyline*'
"$BUILD_DIR/tests/mrsky_tests" --gtest_filter="$FILTER"

# Server robustness: chaos harness (slowloris, oversized lines, mid-query
# disconnects, deadline storms, kill-during-drain, shed/backoff) plus the
# protocol fuzz loop and the cancellation primitives. `timeout` turns any
# hang — the exact failure mode this gate exists for — into a hard failure.
# The drain test inside the chaos suite is the timed stop() check: stop()
# must cancel in-flight queries and return within its two grace periods.
timeout 300 "$BUILD_DIR/tests/mrsky_tests" \
  --gtest_filter='SkylineServerChaos*:QueryEngineCancellation*:ProtocolFuzz*:Cancellation*:Deadline*'

# Graceful degradation end to end: tight per-query deadlines, a quarter of
# the sessions dribbling their requests, client receive timeouts armed, and
# the single-threaded bitwise replay gate on whatever survived.
timeout 300 "$BUILD_DIR/bench/bench_server_load" --cardinality 4000 --dim 4 \
  --sessions 8 --requests 40 --rate 200 --deadline-ms 250 --slow-fraction 0.25 \
  --recv-timeout-ms 5000 --check

# End-to-end: same dataset, with and without heavy fault injection; the
# skyline files must be byte-identical (fault tolerance may never change
# what is computed). The faulty run also exercises node loss + speculation
# in the simulator and the failure ledger in the metrics JSON.
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
MRSKY="$BUILD_DIR/tools/mrsky"

"$MRSKY" generate --output "$WORK/data.csv" --n 5000 --dim 6 --qws
"$MRSKY" skyline --input "$WORK/data.csv" --scheme angular --servers 8 \
  --output "$WORK/clean.csv"
"$MRSKY" skyline --input "$WORK/data.csv" --scheme angular --servers 8 \
  --output "$WORK/faulty.csv" --metrics-json "$WORK/faulty.json" \
  --failure-probability 0.3 --max-task-attempts 6 \
  --node-failures 0:5,2:40 --speculation --verbose
cmp "$WORK/clean.csv" "$WORK/faulty.csv"
grep -q '"failures":{"tasks_retried":' "$WORK/faulty.json"
grep -q '"injected":true' "$WORK/faulty.json"

"$BUILD_DIR/bench/ablation_fault_tolerance" --cardinality 2000 --dim 4

echo "== robustness gate passed"
