#include "src/core/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/common/timer.hpp"
#include "src/dataset/generators.hpp"
#include "src/mapreduce/keyvalue.hpp"
#include "src/partition/angular.hpp"
#include "src/skyline/algorithms.hpp"
#include "src/skyline/estimate.hpp"

namespace mrsky::core {

CostConstants CostModel::constants() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return constants_;
}

void CostModel::observe_run(std::uint64_t work_units, std::uint64_t shuffle_records,
                            double wall_seconds) {
  // Below this the wall is dominated by fixed overheads, not the per-test
  // rate — folding it in would teach the model the overhead, not the rate.
  constexpr std::uint64_t kMinWorkUnits = 10000;
  if (work_units < kMinWorkUnits || wall_seconds <= 0.0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const double overhead =
      static_cast<double>(shuffle_records) * constants_.seconds_per_shuffle_record;
  const double attributable = wall_seconds - overhead;
  if (attributable <= 0.0) return;
  const double implied = attributable / static_cast<double>(work_units);
  const double clamped = std::clamp(implied, constants_.seconds_per_dominance_test / 8.0,
                                    constants_.seconds_per_dominance_test * 8.0);
  constexpr double kAlpha = 0.3;
  constants_.seconds_per_dominance_test =
      (1.0 - kAlpha) * constants_.seconds_per_dominance_test + kAlpha * clamped;
  ++observations_;
}

std::uint64_t CostModel::observations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return observations_;
}

CostModel& CostModel::process() {
  static CostModel model(calibrate_by_probe());
  return model;
}

CostConstants CostModel::calibrate_by_probe() {
  CostConstants measured;  // start from the library defaults

  // Probe workload: small enough to finish in ~a millisecond, large enough
  // that per-call overheads amortise away. Anticorrelated data maximises the
  // dominance-test count per point, which is the rate being measured.
  const data::PointSet probe =
      data::generate(data::Distribution::kAnticorrelated, 1024, 4, 0xCA11B);

  {
    skyline::SkylineStats stats;
    common::Timer timer;
    const data::PointSet sky =
        skyline::compute_skyline(probe, skyline::Algorithm::kBnl, &stats);
    const double seconds = timer.elapsed_seconds();
    if (stats.dominance_tests > 0 && seconds > 0.0 && !sky.empty()) {
      measured.seconds_per_dominance_test =
          seconds / static_cast<double>(stats.dominance_tests);
    }
  }

  {
    part::AngularPartitioner partitioner(8);
    partitioner.fit(probe);
    common::Timer timer;
    std::size_t sink = 0;
    for (std::size_t pass = 0; pass < 4; ++pass) {
      for (std::size_t i = 0; i < probe.size(); ++i) sink += partitioner.assign(probe.point(i));
    }
    const double seconds = timer.elapsed_seconds();
    const double assigns_times_dim = 4.0 * static_cast<double>(probe.size() * probe.dim());
    if (seconds > 0.0 && sink != static_cast<std::size_t>(-1)) {
      measured.seconds_per_assign_dim = seconds / assigns_times_dim;
    }
  }

  {
    // A shuffled record, timed along the pipeline's record path rather than
    // derived from the assign rate: the map copies the point into an id +
    // coordinates record (mr_skyline.cpp's PointRec) and emits it, the
    // shuffle moves it into its reduce bucket and stable-sorts the bucket by
    // key, and the reducer copies it into a row-major PointSet and frees it.
    struct Record {
      data::PointId id = 0;
      std::vector<double> coords;
    };
    constexpr std::size_t kBuckets = 8;
    constexpr std::size_t kPasses = 4;
    common::Timer timer;
    std::size_t sink = 0;
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
      mr::Emitter<std::size_t, Record> out;
      for (std::size_t i = 0; i < probe.size(); ++i) {
        const auto coords = probe.point(i);
        out.emit(i % kBuckets, Record{probe.id(i), {coords.begin(), coords.end()}});
      }
      std::vector<std::vector<mr::KV<std::size_t, Record>>> buckets(kBuckets);
      for (auto& kv : out.take()) buckets[kv.key].push_back(std::move(kv));
      for (auto& bucket : buckets) {
        std::stable_sort(bucket.begin(), bucket.end(),
                         [](const auto& a, const auto& b) { return a.key < b.key; });
      }
      data::PointSet rows(probe.dim());
      for (const auto& bucket : buckets) {
        rows.clear();
        for (const auto& kv : bucket) rows.push_back(kv.value.coords, kv.value.id);
        sink += rows.size();
      }
    }
    const double seconds = timer.elapsed_seconds();
    const double records = static_cast<double>(kPasses * probe.size());
    if (seconds > 0.0 && sink == kPasses * probe.size()) {
      measured.seconds_per_shuffle_record = seconds / records;
    }
  }

  return measured;
}

double skyline_growth_factor(std::size_t sample_n, std::size_t full_n, std::size_t dim) {
  if (sample_n < 2 || full_n < 2 || dim < 1) return 1.0;
  // The closed-form (ln n)^(d-1)/(d-1)! law: cheap (O(d)) where the exact
  // recurrence is O(n·d), and only the *ratio* matters here. Clamped so a
  // shrinking population can never inflate the estimate.
  const double grown = skyline::approx_skyline_size(full_n, dim);
  const double base = skyline::approx_skyline_size(sample_n, dim);
  if (base <= 0.0 || grown <= 0.0) return 1.0;
  return std::max(full_n >= sample_n ? 1.0 : 0.0, grown / base);
}

}  // namespace mrsky::core
