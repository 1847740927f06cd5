// Layer attribution over recorded trace spans.
//
// A span's self time is its duration minus the part of it that its child
// spans cover (children are the spans whose parent it is — the recorder
// parents a span to the innermost span open on the same thread). Rolling
// self times up by layer attributes every nanosecond of a root span to
// exactly one layer, so the layers sum to the root: what the benchmark's own
// root span keeps for itself is the unattributed share.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "measure.hpp"
#include "src/common/trace.hpp"

namespace perfbench {

using mrsky::common::TraceSpan;

/// Length of the union of [start, end) intervals, clipped to [lo, hi).
[[nodiscard]] std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
                                      std::int64_t lo, std::int64_t hi);

class SpanTree {
 public:
  explicit SpanTree(std::vector<TraceSpan> spans);

  [[nodiscard]] const std::vector<TraceSpan>& spans() const noexcept { return spans_; }
  [[nodiscard]] const TraceSpan& span(std::uint64_t id) const { return spans_.at(id - 1); }
  [[nodiscard]] const std::vector<std::uint64_t>& children(std::uint64_t id) const {
    return children_.at(id - 1);
  }
  [[nodiscard]] static std::int64_t duration_ns(const TraceSpan& s) {
    return s.end_ns - s.start_ns;
  }
  /// Duration minus the union of the children's intervals.
  [[nodiscard]] std::int64_t self_ns(std::uint64_t id) const;

  /// Ids of spans named `name`, in creation order.
  [[nodiscard]] std::vector<std::uint64_t> named(const std::string& name) const;

 private:
  std::vector<TraceSpan> spans_;
  std::vector<std::vector<std::uint64_t>> children_;
};

/// Prefix of the bucket a span lands in when the layer table below does not
/// know its name: time that no per-layer metric reports.
inline constexpr const char* kUnknownLayer = "unknown.";

/// Layer bucket of a span, given the bucket of its parent (empty for a
/// root). The benchmark's own spans (category "bench") map to
/// "unattributed", except its client requests and store opens.
[[nodiscard]] std::string layer_of(const TraceSpan& span, const std::string& parent_layer);

/// Self time (seconds) of the subtree under `root`, summed per layer.
/// The values sum to the root's duration.
[[nodiscard]] std::map<std::string, double> layer_seconds(const SpanTree& tree,
                                                         std::uint64_t root);

/// Self time (seconds) of every span the layer table does not know, summed
/// per bucket over the whole trace. A traced run fails a check when this is
/// not empty: a renamed or new program span would otherwise drop out of the
/// per-layer metrics without a trace.
[[nodiscard]] std::map<std::string, double> unknown_layer_seconds(const SpanTree& tree);

/// The traced run's attribution check, counted as one operation: no span
/// fell outside the layer table, and every metric in `exercised` (the
/// per-layer metrics the workload's code paths must produce) is non-zero.
/// Prints whatever was lost.
void check_attribution(const SpanTree& tree, const std::vector<const char*>& exercised,
                       RunResult& result);

/// Sets the pipeline layers' per-job times — core.self_s, core.block_prune_s,
/// partition.fit_s, skyline.local_s, skyline.merge_s, skyline.ns_per_test,
/// mr.map_s, mr.shuffle_s and mr.reduce_other_s — each the median over
/// `roots` (one root per pipeline run). Returns the median share of a root
/// that no program span covers (its "unattributed" self time).
double record_pipeline_layers(const SpanTree& tree, const std::vector<std::uint64_t>& roots,
                              RunResult& out);

}  // namespace perfbench
