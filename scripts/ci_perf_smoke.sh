#!/usr/bin/env bash
# Perf-smoke CI gate for the tiled dominance kernel (DESIGN.md decision 9).
#
#   ./scripts/ci_perf_smoke.sh [results-dir]
#
# Builds one release tree, runs the kernel unit tests — among them the
# in-process identity test that runs the CLI's pipeline on the AVX2 path and
# on the forced portable loop and requires bitwise-equal skylines and equal
# counters — lands the micro-benchmark timings of both kernel paths as
# machine-readable JSON under experiment_results/, drives the mrsky CLI
# end to end, failing if bnl, sfs and dc disagree by a single byte, and
# replays every payload the TCP server served under concurrent load.
# Wall-clock numbers are recorded, not asserted: thresholds are meaningless
# on shared CI boxes; byte-identity of the results is the hard gate. The tree
# builds with -DMRSKY_WARNINGS_AS_ERRORS=ON, so a new compiler warning in the
# library, the tests, the tool or the benches it builds fails the gate too.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
RESULTS="${1:-$ROOT/experiment_results}"
BUILD="$ROOT/build-perf"
mkdir -p "$RESULTS"

cmake -B "$BUILD" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=Release \
  -DMRSKY_BUILD_TESTS=ON \
  -DMRSKY_BUILD_BENCH=ON \
  -DMRSKY_BUILD_EXAMPLES=OFF \
  -DMRSKY_WARNINGS_AS_ERRORS=ON
cmake --build "$BUILD" -j --target micro_kernels mrsky mrsky_tests bench_query_engine bench_stream bench_out_of_core bench_server_load

# Kernel correctness: AVX2-vs-portable property tests, the pipeline identity
# test (DominanceBlock.SimdToggleChangesNeitherPipelineResultsNorCounters;
# it skips on a CPU without AVX2, where only the portable loop exists) and
# the golden dominance-test counters the simulator's time model depends on.
"$BUILD/tests/mrsky_tests" \
  --gtest_filter='DominanceBlock*:DominanceBlockGolden*:TiledWindow*'

# One binary measures both kernel paths: BM_*Block is the dispatched path
# (its label says avx2 or scalar-tile), BM_*BlockPortable the portable loop.
# BM_PartitionAssign times the map side's sector lookup per scheme.
"$BUILD/bench/micro_kernels" \
  --benchmark_filter='BM_DominanceWindow|BM_DominatorProbe|BM_PrefilterAblation|BM_PartitionAssign' \
  --benchmark_min_time=0.2 \
  --benchmark_out="$RESULTS/micro_kernels.json" \
  --benchmark_out_format=json

# End-to-end agreement gate: same dataset, same pipeline, every local
# algorithm must emit a byte-identical skyline. (Sequential-vs-threaded
# identity is covered by
# DominanceBlock.PipelineSequentialAndThreadedAreByteIdentical above.)
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$BUILD/tools/mrsky" generate \
  --output "$WORK/data.csv" --n 20000 --dim 6 --qws --seed 2012

for algo in bnl sfs dc; do
  "$BUILD/tools/mrsky" skyline --input "$WORK/data.csv" \
    --scheme angular --servers 8 --algorithm "$algo" \
    --output "$WORK/sky_$algo.csv"
  if ! cmp -s "$WORK/sky_bnl.csv" "$WORK/sky_$algo.csv"; then
    echo "FAIL: $algo skyline diverged from bnl" >&2
    diff "$WORK/sky_bnl.csv" "$WORK/sky_$algo.csv" | head >&2
    exit 1
  fi
done

# QueryEngine serving-throughput gate (ISSUE 5 acceptance): on the Fig. 5
# workload a warm repeated query must be at least 5x faster than its cold
# first execution — the result cache is the engine's contract, so unlike the
# wall-clock timings above this *ratio* is asserted, not just recorded.
"$BUILD/bench/bench_query_engine" \
  --cardinality 20000 --dim 6 --seed 2012 --repeats 5 \
  --json "$RESULTS/query_engine.json" \
  --check --min-warm-speedup 5

# Streaming maintenance gate (ISSUE 9 acceptance): on a resident set large
# enough that a from-scratch recompute per tick hurts, maintained apply_batch
# must process events at >= 5x the recompute baseline's rate, with the final
# skylines bitwise identical (that identity is asserted unconditionally
# inside the bench, before the ratio gate).
"$BUILD/bench/bench_stream" \
  --cardinality 12000 --dim 4 --ticks 200 --seed 2012 \
  --json "$RESULTS/stream_sweep.json" \
  --check --min-speedup 5

# Server gate: eight concurrent sessions, two of them writing, over loopback
# TCP against the bench's default 20k x 4 QWS-like registry. --check replays
# the run single-threaded and fails unless every served payload matches its
# replay byte for byte, so the wire text and the snapshots behind it are
# gated at a size where responses span several receive chunks. Latencies land
# in the JSON, recorded, not asserted.
"$BUILD/bench/bench_server_load" --check --json "$RESULTS/server_load.json"

# Out-of-core gate (ISSUE 10 acceptance): three separate processes, because
# VmHWM is a per-process high-water mark — generation or the resident
# baseline would pollute the streamed run's reading. The .mrb file is >= 4x
# the RSS cap, the streamed run must stay under the cap (map-task count,
# partition count and thread count bound the per-task footprints; the
# shuffle spills past --spill-bytes), corner pruning must drop >= 20% of the
# payload bytes before they are read, and the skyline must be bitwise
# identical to the resident baseline.
OOC="$WORK/out_of_core"
mkdir -p "$OOC"
"$BUILD/bench/bench_out_of_core" --mode generate \
  --cardinality 4500000 --dim 4 --seed 2012 --block-rows 2048 \
  --file "$OOC/data.mrb"
"$BUILD/bench/bench_out_of_core" --mode memory \
  --file "$OOC/data.mrb" --baseline "$OOC/skyline.mrb" \
  --partitions 512 --map-tasks 512
"$BUILD/bench/bench_out_of_core" --mode block \
  --file "$OOC/data.mrb" --baseline "$OOC/skyline.mrb" \
  --partitions 512 --map-tasks 512 --threads 2 \
  --spill-bytes $((8 * 1024 * 1024)) --rss-cap-mb 38 \
  --json "$RESULTS/out_of_core.json" \
  --check

echo "== perf smoke passed: results identical; timings in $RESULTS/micro_kernels.json, $RESULTS/query_engine.json, $RESULTS/stream_sweep.json, $RESULTS/server_load.json and $RESULTS/out_of_core.json"
