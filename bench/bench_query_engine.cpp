// QueryEngine serving throughput — cold vs warm queries/sec.
//
// Serving scenario (paper §II): a resident registry answers repeated skyline
// queries between service insertions. This bench builds one QueryEngine over
// the Fig. 5 workload (QWS-like, normalised) and measures, per query kind,
// the cold cost (first execution: pipeline run / extension kernel, including
// the one-off partition fit; top-k's cold run ranks the skyline the first
// query left resident) against the warm cost (the same query repeated,
// served from the LRU result cache). The warm/cold ratio is the engine's
// whole reason to exist, so `--check --min-warm-speedup R` turns the ratio
// into an exit code for CI (scripts/ci_perf_smoke.sh gates on 5x).
//
//   bench_query_engine --cardinality 20000 --dim 6 --repeats 5
//       --json experiment_results/query_engine.json --check --min-warm-speedup 5
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/support.hpp"
#include "src/common/cli.hpp"
#include "src/common/error.hpp"
#include "src/common/table.hpp"
#include "src/service/query_engine.hpp"

using namespace mrsky;

namespace {

double qps(double ns) { return ns > 0.0 ? 1e9 / ns : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  const common::CliArgs args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int("cardinality", 20000));
  const auto dim = static_cast<std::size_t>(args.get_int("dim", 6));
  const auto servers = static_cast<std::size_t>(args.get_int("servers", 8));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", bench::kDefaultSeed));
  const auto repeats = std::max<std::size_t>(1, static_cast<std::size_t>(args.get_int("repeats", 5)));
  const bool check = args.get_bool("check", false);
  const double min_speedup = args.get_double("min-warm-speedup", 5.0);
  const std::string json_out = args.get_string("json", "");

  service::QueryEngineOptions options;
  options.config.servers = servers;
  service::QueryEngine engine(bench::qws_workload(n, dim, seed), options);

  std::cout << "QueryEngine throughput — cold (first execution) vs warm (result cache)\n"
            << "workload: QWS-like N=" << n << " d=" << dim << ", scheme "
            << part::to_string(options.config.scheme) << ", " << servers << " servers\n\n";

  std::vector<double> weights(dim, 1.0 / static_cast<double>(dim));
  std::vector<std::size_t> half(dim / 2 == 0 ? 1 : dim / 2);
  for (std::size_t i = 0; i < half.size(); ++i) half[i] = i;
  const std::vector<service::Query> queries = {
      service::SkylineQuery{},
      service::SubspaceQuery{half},
      service::KSkybandQuery{2},
      service::RepresentativeQuery{10},
      service::TopKWeightedQuery{weights, 10},
  };

  common::Table table({"query", "points", "cold_ms", "warm_us", "speedup", "cold_qps", "warm_qps"});
  std::string kinds_json;
  double worst_speedup = -1.0;
  for (const auto& query : queries) {
    const auto cold = engine.execute(query);
    MRSKY_REQUIRE(!cold.metrics.cache_hit, "first execution must be a cache miss");
    double warm_total_ns = 0.0;
    for (std::size_t r = 0; r < repeats; ++r) {
      const auto warm = engine.execute(query);
      MRSKY_REQUIRE(warm.metrics.cache_hit, "repeated query must be a cache hit");
      warm_total_ns += static_cast<double>(warm.metrics.wall_ns);
    }
    const auto cold_ns = static_cast<double>(cold.metrics.wall_ns);
    const double warm_ns = std::max(1.0, warm_total_ns / static_cast<double>(repeats));
    const double speedup = cold_ns / warm_ns;
    if (worst_speedup < 0.0 || speedup < worst_speedup) worst_speedup = speedup;

    table.add_row({service::query_signature(query),
                   common::Table::fmt(cold.metrics.result_points),
                   common::Table::fmt(cold_ns / 1e6, 3), common::Table::fmt(warm_ns / 1e3, 2),
                   common::Table::fmt(speedup, 1) + "x", common::Table::fmt(qps(cold_ns), 1),
                   common::Table::fmt(qps(warm_ns), 1)});
    if (!kinds_json.empty()) kinds_json += ",";
    kinds_json += "{\"query\":\"" + service::query_signature(query) +
                  "\",\"kind\":\"" + service::query_kind(query) +
                  "\",\"points\":" + std::to_string(cold.metrics.result_points) +
                  ",\"cold_ns\":" + std::to_string(cold.metrics.wall_ns) +
                  ",\"warm_ns\":" + std::to_string(static_cast<std::int64_t>(warm_ns)) +
                  ",\"speedup\":" + std::to_string(speedup) + "}";
  }
  table.print(std::cout, "cold vs warm, " + std::to_string(repeats) + " warm repeats");

  const auto& stats = engine.stats();
  std::cout << "\nqueries: " << stats.queries << "  cache hits: " << stats.cache_hits
            << "  pipeline runs: " << stats.pipeline_runs
            << "  fits computed/reused: " << stats.fits_computed << "/" << stats.fit_reuses
            << "\nworst warm speedup: " << worst_speedup << "x\n";

  if (!json_out.empty()) {
    std::ofstream file(json_out);
    MRSKY_REQUIRE(static_cast<bool>(file), "cannot open " + json_out);
    file << "{\"workload\":{\"cardinality\":" << n << ",\"dim\":" << dim
         << ",\"servers\":" << servers << ",\"seed\":" << seed << ",\"repeats\":" << repeats
         << "},\"kinds\":[" << kinds_json << "],\"worst_speedup\":" << worst_speedup
         << ",\"stats\":{\"queries\":" << stats.queries << ",\"cache_hits\":" << stats.cache_hits
         << ",\"pipeline_runs\":" << stats.pipeline_runs
         << ",\"fits_computed\":" << stats.fits_computed
         << ",\"fit_reuses\":" << stats.fit_reuses << "}}\n";
    std::cout << "json written to " << json_out << "\n";
  }

  if (check && worst_speedup < min_speedup) {
    std::cerr << "FAIL: worst warm speedup " << worst_speedup << "x below required "
              << min_speedup << "x\n";
    return 1;
  }
  if (check) std::cout << "CHECK OK: every warm speedup >= " << min_speedup << "x\n";
  return 0;
}
