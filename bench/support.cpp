#include "bench/support.hpp"

#include "src/dataset/normalize.hpp"
#include "src/dataset/qws.hpp"
#include "src/mapreduce/trace_export.hpp"

namespace mrsky::bench {

data::PointSet qws_workload(std::size_t n, std::size_t dim, std::uint64_t seed) {
  data::QwsLikeGenerator gen(dim, seed);
  return data::normalize_min_max(gen.generate_oriented(n));
}

data::PointSet synthetic_workload(data::Distribution dist, std::size_t n, std::size_t dim,
                                  std::uint64_t seed) {
  return data::generate(dist, n, dim, seed);
}

CellResult run_cell(const data::PointSet& ps, core::MRSkylineConfig config, std::size_t servers,
                    common::TraceRecorder* trace) {
  config.servers = servers;
  config.run_options.trace = trace;
  CellResult cell;
  cell.run = core::run_mr_skyline(ps, config);
  mr::ClusterModel model;
  model.servers = servers;
  cell.times = cell.run.simulate(model);
  cell.optimality = core::local_skyline_optimality(cell.run.local_skylines, cell.run.skyline);
  if (trace != nullptr) {
    std::vector<mr::JobMetrics> jobs;
    jobs.reserve(1 + cell.run.merge_rounds.size());
    jobs.push_back(cell.run.partition_job);
    jobs.insert(jobs.end(), cell.run.merge_rounds.begin(), cell.run.merge_rounds.end());
    mr::append_pipeline_trace(*trace, jobs, model);
  }
  return cell;
}

const std::vector<part::Scheme>& paper_schemes() {
  static const std::vector<part::Scheme> schemes = {
      part::Scheme::kDimensional, part::Scheme::kGrid, part::Scheme::kAngular};
  return schemes;
}

std::string display_name(part::Scheme scheme) {
  switch (scheme) {
    case part::Scheme::kDimensional: return "MR-Dim";
    case part::Scheme::kGrid: return "MR-Grid";
    case part::Scheme::kAngular: return "MR-Angle";
    case part::Scheme::kAngularEquiDepth: return "MR-Angle-ED";
    case part::Scheme::kAngularRadial: return "MR-Angle-R";
    case part::Scheme::kPivot: return "MR-Pivot";
    case part::Scheme::kRandom: return "MR-Random";
  }
  return "?";
}

}  // namespace mrsky::bench
