// Continuous QoS monitoring — the dynamic side of the paper's §I.
//
// Service quality drifts; yesterday's skyline is stale. This example streams
// fresh measurements into a QueryEngine whose count window keeps only the
// last W observations, then compresses the live skyline into an ε-Pareto
// shortlist for display. A mid-stream "incident" (every service's response
// time spikes) shows the window forgetting the good old days.
//
// Each measurement is one engine write: the engine's maintained skyline
// absorbs the newcomer and the window evicts the oldest observation, so every
// skyline read below is a cache hit, not a pipeline run.
//
//   ./build/examples/qos_monitoring [--window 200] [--steps 1200]
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <vector>

#include "src/common/cli.hpp"
#include "src/common/rng.hpp"
#include "src/dataset/normalize.hpp"
#include "src/dataset/qws.hpp"
#include "src/service/query_engine.hpp"
#include "src/skyline/extensions.hpp"

int main(int argc, char** argv) {
  using namespace mrsky;
  const common::CliArgs args(argc, argv);
  const auto window = static_cast<std::size_t>(args.get_int("window", 200));
  const auto steps = static_cast<std::size_t>(args.get_int("steps", 1200));
  const std::size_t dim = 4;

  // Measurement stream: bootstrap-resampled from a QWS-like seed (the
  // paper's own dataset-extension recipe), with an incident at 60 %.
  data::QwsLikeGenerator seed_gen(dim, 67);
  const data::PointSet seed = seed_gen.generate_oriented(2000);
  data::BootstrapResampler sampler(seed, /*jitter=*/0.08);
  common::Rng rng(99);
  const std::size_t incident_at = steps * 6 / 10;
  const auto measure = [&](std::size_t t) {
    data::PointSet one = sampler.generate(1, rng);
    std::vector<double> coords(one.point(0).begin(), one.point(0).end());
    if (t >= incident_at) {
      coords[0] = std::min(coords[0] * 4.0, 4989.0);  // response times spike 4x
    }
    data::PointSet row(dim);
    row.push_back(coords, static_cast<data::PointId>(t));
    return row;
  };

  // The engine starts from the first measurement (id 0); each later one is
  // inserted under the next id, so measurement t keeps id t.
  service::QueryEngineOptions options;
  options.window_capacity = window;
  service::QueryEngine monitor(measure(0), options);

  std::cout << "streaming " << steps << " measurements through a window of " << window
            << "\n\n   step | window skyline | eps-shortlist (eps=0.1)\n";
  for (std::size_t t = 0; t < steps; ++t) {
    if (t > 0) monitor.insert_batch(measure(t));

    if ((t + 1) % (steps / 6) == 0) {
      const data::PointSet sky = monitor.execute(service::SkylineQuery{}).points;
      const auto shortlist = skyline::epsilon_pareto_cover(sky, 0.1);
      std::cout << "  " << (t >= incident_at ? "!" : " ") << std::setw(5) << t + 1 << " | "
                << std::setw(14) << sky.size() << " | " << shortlist.size()
                << (t >= incident_at && t < incident_at + steps / 6
                        ? "   <- incident: old fast services age out of the window"
                        : "")
                << "\n";
    }
  }
  const service::QueryEngine::Stats stats = monitor.stats();
  std::cout << "\nskyline churn: " << stats.stream_entered << " entered, " << stats.stream_left
            << " left; " << stats.points_expired << " measurements aged out of the window over "
            << steps << " steps (" << stats.pipeline_runs << " pipeline runs)\n";
  return 0;
}
