// A run's work directory: created on entry, removed with everything in it
// when the run ends, however it ends. Traces live beside it and are kept.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace perfbench {

class WorkDir {
 public:
  WorkDir(const std::string& base, const std::string& workload)
      : base_(base),
        workload_(workload),
        root_(std::filesystem::path(base) / (workload + "-" + std::to_string(::getpid()))) {
    std::filesystem::create_directories(root_);
  }
  ~WorkDir() {
    std::error_code ignored;
    std::filesystem::remove_all(root_, ignored);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

  [[nodiscard]] std::string root() const { return root_.string(); }
  [[nodiscard]] std::string file(const std::string& name) const { return (root_ / name).string(); }

  /// Where a traced run writes its Chrome JSON.
  [[nodiscard]] std::string trace_path(std::uint64_t seed) const {
    const auto dir = std::filesystem::path(base_) / "traces";
    std::filesystem::create_directories(dir);
    return (dir / (workload_ + "-seed" + std::to_string(seed) + ".json")).string();
  }

 private:
  std::string base_;
  std::string workload_;
  std::filesystem::path root_;
};

}  // namespace perfbench
