// mrsky — umbrella header for the SUPPORTED public API (DESIGN.md
// decision 11).
//
// Include this one header to use the library as a consumer:
//
//   #include "src/mrsky.hpp"
//
//   mrsky::data::PointSet services = ...;            // load / generate data
//   mrsky::core::MRSkylineConfig config;             // or core::plan_config
//   auto result = mrsky::core::run_mr_skyline(services, config);
//
//   mrsky::service::QueryEngine engine(std::move(services));   // serving
//   auto skyline = engine.execute(mrsky::service::SkylineQuery{});
//
// Everything exported here is TIER 1 — the stable surface: breaking changes
// land with a deprecation path. Headers under src/ that are not pulled in
// here (the MapReduce engine internals beyond what core re-exports, the
// geometry/spatial/partition implementation headers, qos) are TIER 2 —
// usable, tested, but free to change shape between versions. See DESIGN.md
// decision 11 for the full tier definition and the promotion rule.
#pragma once

// Datasets: the PointSet container, ingest/egress, generators, preparation,
// and the out-of-core layer — the unified DatasetSource abstraction over
// in-memory sets, streamed CSVs and on-disk .mrb block stores.
#include "src/dataset/block_store.hpp"
#include "src/dataset/generators.hpp"
#include "src/dataset/io.hpp"
#include "src/dataset/normalize.hpp"
#include "src/dataset/point_set.hpp"
#include "src/dataset/source.hpp"
#include "src/dataset/transforms.hpp"

// Sequential skylines and the service-selection extensions.
#include "src/skyline/algorithms.hpp"
#include "src/skyline/extensions.hpp"

// The paper's MapReduce pipeline, its static configuration advice
// (core::plan_config), and the cluster cost model (cluster.hpp comes in
// through mr_skyline.hpp: MRSkylineResult::simulate).
#include "src/core/mr_skyline.hpp"
#include "src/core/optimality.hpp"
#include "src/core/planner.hpp"

// Serving: the resident QueryEngine and its typed query surface.
#include "src/service/query.hpp"
#include "src/service/query_engine.hpp"
#include "src/service/script.hpp"

// Observability: span tracing and metrics JSON export.
#include "src/common/trace.hpp"
#include "src/mapreduce/metrics_json.hpp"
