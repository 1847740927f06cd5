#!/usr/bin/env bash
# Sanitizer CI gate for the concurrent engine paths.
#
#   ./scripts/ci_sanitize.sh [thread|address] [build-dir]
#
# Configures a dedicated build tree with MRSKY_SANITIZE=<kind>, builds the
# test binary, and runs the mapreduce + core + thread-pool suites — the code
# that exercises the parallel shuffle and the persistent pool. TSan is the
# default: it is the check that keeps the concurrent shuffle honest.
set -euo pipefail

KIND="${1:-thread}"
BUILD_DIR="${2:-build-${KIND}san}"

case "$KIND" in
  thread|address) ;;
  *) echo "usage: $0 [thread|address] [build-dir]" >&2; exit 2 ;;
esac

cmake -B "$BUILD_DIR" -S "$(dirname "$0")/.." \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DMRSKY_SANITIZE="$KIND" \
  -DMRSKY_BUILD_BENCH=OFF \
  -DMRSKY_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j --target mrsky_tests

# The suites touching the engine's concurrency: the generic job engine, the
# thread pool itself, and the skyline pipeline that drives them end to end.
FILTER='ThreadPool*:Job*:JobEdgeCases*:ParallelShuffle*:Counters*:Fault*:SkipBadRecords*:MapOnly*'
FILTER+=':MRSkyline*:Salting*:TreeMerge*:KernelOverride*:SampleFit*'
# The tiled dominance kernel + window buffers (pointer-striding code under the
# skyline algorithms; ASan/UBSan catch lane/padding mistakes, TSan checks the
# thread_local window reuse under the threaded pipeline).
FILTER+=':DominanceBlock*:DominanceBlockGolden*:TiledWindow*'
# The tracing subsystem (its recorder takes the one lock the parallel shuffle
# contends on) and the suites that hammer it: span invariants under both
# engine modes plus the randomized config sweep with tracing slices.
FILTER+=':Trace*:*TraceInvariants*:SimulatorTrace*:*ConfigSweep*'
# The serving layer: QueryEngine owns a persistent pool shared across queries
# (TSan: pool reuse across pipeline runs) and the validation/script/extension
# sweeps ride along for ASan/UBSan coverage of the new subsystem.
FILTER+=':QueryEngine*:QueryScript*:ConfigValidate*:*ExtensionSweep*'
# The multi-session server (ISSUE 6): MVCC snapshot reads racing insert_batch,
# admission control, session churn over real sockets, and the primitives
# underneath (semaphore, JSON parser). EngineConcurrency is the suite whose
# whole point is running under TSan.
FILTER+=':EngineConcurrency*:SkylineServer*:Session*:Protocol*:Semaphore*:SlotGuard*:JsonValue*'
# The rendered-points memo every session of a server shares (TSan: entries
# swapped and evicted under readers; its session suites match Session*).
FILTER+=':PointsMemo*'
# Deadlines + cooperative cancellation (ISSUE 7): the token/deadline
# primitives, the protocol fuzz loop, and the engine/server cancellation
# paths. SkylineServerChaos and QueryEngineCancellation already match the
# globs above; the explicit additions are the new primitive suites.
FILTER+=':Cancellation*:Deadline*:ProtocolFuzz*'
# Partition diagnostics: the report job 1's routing fills in.
FILTER+=':PartitionStats*'
# Streaming skylines: exact maintenance under deletes/TTL
# (MaintainedSkyline, and its differential suite against the pre-flat
# reference — ASan/UBSan: the intrusive list splices, the tile lanes and the
# id table's backward-shift deletes), the randomized insert/delete/TTL/window
# sweeps — their parameterised names start with the instantiation prefix
# `Cases/`, hence the leading `*` — and, the part that exists FOR TSan,
# standing subscriptions racing apply_batch publishers and server drain
# (Subscription*). The QoS selector's adds and removes run on the same
# maintained structure. Subspace reads sweep the snapshot's rows for ties with
# its skyline (ASan/UBSan: the tie pass's table and row strides).
FILTER+=':MaintainedSkyline*:*MaintainedSkylineDifferential*'
FILTER+=':*StreamSweep*:*StreamTopKSweep*:*StreamSubspaceSweep*'
FILTER+=':Subscription*:NotifyQueue*'
FILTER+=':SkylineServiceSelector*:RemoveService*'
# Out-of-core block storage (ISSUE 10): mmap'd block reads feeding the
# threaded pipeline (map tasks touch disjoint blocks concurrently; the
# verify-once checksum flags are the TSan target), the DatasetSource seam,
# and the resident-vs-streamed differential sweep with spill enabled.
# BlockStore* also matches the damaged-file loop, the crafted index files
# and the word-wise checksum (BlockStoreFuzz, BlockStoreCrafted,
# BlockStoreChecksum: ASan on every open-time bound).
FILTER+=':BlockStore*:DatasetSource*:*OutOfCoreSweep*'
# The row job the pipeline runs on, its raw-row spill and the report from
# job 1's routing: span reads on truncated and removed files (ASan/UBSan),
# concurrent bucket builds into per-bucket rows and the routing tallies under
# kThreads (TSan), the single-pass streamed reads, and the sweep against the
# record pipeline the row job replaced.
FILTER+=':RowJob*:ShuffleSpill*:RoutedRecords*:StreamedReads*:PipelineSpill*'
FILTER+=':*PartitionReportSweep*:*RowPipelineDifferential*'
# MR-Angle's tangent-space sector lookup: the per-boundary bracket scans and
# the atan2 fallback (ASan/UBSan), and the lookup's differential suite
# against the atan2 oracle, plus the partitioner contracts around it.
FILTER+=':AngularPartitioner*:AngularRadialPartitioner*:*PartitionerContract*:Hyperspherical*'
FILTER+=':AngularSectorLookup*'
# CSV ingest and Z-order: the chunked CSV scanner's in-place cell views,
# buffer refills and growth, checked against the line-at-a-time reference
# (ASan: reads past a line or chunk; UBSan with float-cast-overflow: id
# conversions, the QoS catalog's too), and the radix-sorted Z-order's key
# words and record passes, fed by the one-pass attribute bounds.
FILTER+=':CsvIo*:CsvFuzz*:*ZOrder*:CatalogCsv*:PointSet*'
# The representative filter: kThreads map tasks share its read-only probe
# tiles (TSan), the probe strides the tile lanes (ASan/UBSan), and the
# engine runs it by default.
FILTER+=':*RepresentativeFilterSweep*:RepresentativePick*:RepresentativeFilterEngine*'

if [[ "$KIND" == "thread" ]]; then
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
else
  export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1 halt_on_error=1}"
fi

# A glob that matches no test hides a suite from this gate without failing
# it, so every glob must list at least one test.
TESTS="$BUILD_DIR/tests/mrsky_tests"
dead=0
IFS=':' read -ra GLOBS <<< "$FILTER"
for glob in "${GLOBS[@]}"; do
  listed="$("$TESTS" --gtest_list_tests --gtest_filter="$glob")"
  if ! grep -q '^  ' <<< "$listed"; then
    echo "ci_sanitize: filter glob '$glob' matches no test" >&2
    dead=1
  fi
done
if [[ "$dead" -ne 0 ]]; then
  exit 1
fi
matched="$("$TESTS" --gtest_list_tests --gtest_filter="$FILTER" | grep -c '^  ')"
echo "== ${KIND} sanitizer run: ${#GLOBS[@]} globs, ${matched} tests"

"$TESTS" --gtest_filter="$FILTER"
echo "== ${KIND} sanitizer run passed"
