// A forwarding DatasetSource that records every block read, split into the
// reads made while drawing a sample (DatasetSource::sample, which is how the
// streamed pipeline draws its fit sample) and every other read — the ones a
// job's map stage makes. Thread-safe, so a kThreads run can read through it.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "src/dataset/source.hpp"

namespace mrsky::test {

class RecordingSource final : public data::DatasetSource {
 public:
  explicit RecordingSource(const data::DatasetSource& inner) : inner_(inner) {}

  [[nodiscard]] std::size_t dim() const override { return inner_.dim(); }
  [[nodiscard]] std::size_t size() const override { return inner_.size(); }
  [[nodiscard]] std::size_t block_count() const override { return inner_.block_count(); }
  [[nodiscard]] data::BlockStats block_stats(std::size_t b) const override {
    return inner_.block_stats(b);
  }
  void read_block(std::size_t b, data::PointSet& out) const override {
    inner_.read_block(b, out);
    const std::lock_guard<std::mutex> lock(mutex_);
    (sampling_ ? sample_reads_ : job_reads_).push_back(b);
  }
  void release_block(std::size_t b) const override { inner_.release_block(b); }
  [[nodiscard]] data::PointSet sample(std::size_t target, std::uint64_t seed) const override {
    set_sampling(true);
    data::PointSet drawn = DatasetSource::sample(target, seed);
    set_sampling(false);
    return drawn;
  }
  [[nodiscard]] std::string describe() const override { return inner_.describe(); }

  /// Blocks read while sampling, in read order.
  [[nodiscard]] std::vector<std::size_t> sample_reads() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return sample_reads_;
  }
  /// Every other block read, in read order.
  [[nodiscard]] std::vector<std::size_t> job_reads() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return job_reads_;
  }

 private:
  void set_sampling(bool on) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    sampling_ = on;
  }

  const data::DatasetSource& inner_;
  mutable std::mutex mutex_;
  mutable bool sampling_ = false;
  mutable std::vector<std::size_t> sample_reads_;
  mutable std::vector<std::size_t> job_reads_;
};

}  // namespace mrsky::test
