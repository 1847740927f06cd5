#include "spans.hpp"

#include <algorithm>
#include <iostream>
#include <stdexcept>

namespace perfbench {

std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
                        std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;  // everything before `reach` is already counted
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += end - start;
    reach = end;
  }
  return covered;
}

SpanTree::SpanTree(std::vector<TraceSpan> spans)
    : spans_(std::move(spans)), children_(spans_.size()) {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].id != i + 1) throw std::invalid_argument("span ids must be 1..n in order");
    const std::uint64_t parent = spans_[i].parent;
    if (parent == mrsky::common::kTraceNoParent) continue;
    if (parent > spans_.size()) throw std::invalid_argument("span parent out of range");
    children_[parent - 1].push_back(spans_[i].id);
  }
}

std::int64_t SpanTree::self_ns(std::uint64_t id) const {
  const TraceSpan& s = span(id);
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (const std::uint64_t c : children(id)) intervals.emplace_back(span(c).start_ns, span(c).end_ns);
  return duration_ns(s) - covered_ns(std::move(intervals), s.start_ns, s.end_ns);
}

std::vector<std::uint64_t> SpanTree::named(const std::string& name) const {
  std::vector<std::uint64_t> ids;
  for (const TraceSpan& s : spans_) {
    if (s.name == name) ids.push_back(s.id);
  }
  return ids;
}

std::string layer_of(const TraceSpan& span, const std::string& parent_layer) {
  const std::string& n = span.name;
  if (span.category == "bench") {
    if (n == "request") return "client.request";
    if (n == "open-source") return "dataset.open";
    return "unattributed";
  }
  if (n == "read-block") return "dataset.read_block";
  // A MapReduce job span keeps its set-up and output collection between
  // tasks: orchestration, like the pipeline's own self time.
  if (n == "mr-skyline" || span.category == "job") return "core.self";
  if (n == "partition-fit" || n == "prepared-fit") return "partition.fit";
  if (n == "block-prune") return "core.block_prune";
  if (n == "map" || n == "combine") return "mr.map";
  if (n == "reduce") return "mr.reduce_other";
  if (n == "attempt") return parent_layer;
  if (n == "shuffle" || n == "shuffle-bucket" || n == "spill") return "mr.shuffle";
  if (n == "local-skyline") return "skyline.local";
  if (n == "merge-skyline") return "skyline.merge";
  if (n == "apply-batch") return "service.apply";
  if (n == "query") return "service.query";
  return std::string(kUnknownLayer) + n;
}

namespace {

void accumulate(const SpanTree& tree, std::uint64_t id, const std::string& parent_layer,
                std::map<std::string, double>& out) {
  const std::string layer = layer_of(tree.span(id), parent_layer);
  out[layer] += static_cast<double>(tree.self_ns(id)) * 1e-9;
  for (const std::uint64_t c : tree.children(id)) accumulate(tree, c, layer, out);
}

}  // namespace

std::map<std::string, double> layer_seconds(const SpanTree& tree, std::uint64_t root) {
  std::map<std::string, double> out;
  accumulate(tree, root, "", out);
  return out;
}

std::map<std::string, double> unknown_layer_seconds(const SpanTree& tree) {
  std::map<std::string, double> unknown;
  for (const TraceSpan& s : tree.spans()) {
    if (s.parent != mrsky::common::kTraceNoParent) continue;
    for (const auto& [layer, seconds] : layer_seconds(tree, s.id)) {
      if (layer.rfind(kUnknownLayer, 0) == 0 && seconds > 0.0) unknown[layer] += seconds;
    }
  }
  return unknown;
}

void check_attribution(const SpanTree& tree, const std::vector<const char*>& exercised,
                       RunResult& result) {
  bool ok = true;
  for (const auto& [layer, seconds] : unknown_layer_seconds(tree)) {
    std::cout << "attribution: span bucket " << layer << " holds " << seconds
              << " s that no per-layer metric reports\n";
    ok = false;
  }
  for (const char* name : exercised) {
    const auto it = result.values.find(name);
    if (it == result.values.end() || !(it->second > 0.0)) {
      std::cout << "attribution: " << name << " reads 0 on a workload that exercises it\n";
      ok = false;
    }
  }
  result.check(ok);
}

double record_pipeline_layers(const SpanTree& tree, const std::vector<std::uint64_t>& roots,
                              RunResult& out) {
  static const std::vector<std::pair<const char*, const char*>> kLayers = {
      {"core.self", "core.self_s"},         {"core.block_prune", "core.block_prune_s"},
      {"partition.fit", "partition.fit_s"}, {"skyline.local", "skyline.local_s"},
      {"skyline.merge", "skyline.merge_s"}, {"mr.map", "mr.map_s"},
      {"mr.shuffle", "mr.shuffle_s"},       {"mr.reduce_other", "mr.reduce_other_s"},
  };
  if (roots.empty()) return 0.0;
  std::map<std::string, std::vector<double>> per_layer;
  std::vector<double> unattributed, ns_per_test;
  for (const std::uint64_t root : roots) {
    const auto layers = layer_seconds(tree, root);
    const auto get = [&](const std::string& layer) {
      const auto it = layers.find(layer);
      return it == layers.end() ? 0.0 : it->second;
    };
    for (const auto& [layer, metric] : kLayers) per_layer[metric].push_back(get(layer));
    const double root_s = static_cast<double>(SpanTree::duration_ns(tree.span(root))) * 1e-9;
    unattributed.push_back(root_s > 0 ? get("unattributed") / root_s : 0.0);

    // The kernels report their dominance tests on their own spans.
    std::int64_t tests = 0;
    std::vector<std::uint64_t> stack{root};
    while (!stack.empty()) {
      const TraceSpan& s = tree.span(stack.back());
      stack.pop_back();
      if (s.name == "local-skyline" || s.name == "merge-skyline") {
        tests += std::max<std::int64_t>(0, s.arg_int("dominance_tests", 0));
      }
      for (const std::uint64_t c : tree.children(s.id)) stack.push_back(c);
    }
    const double kernel_s = get("skyline.local") + get("skyline.merge");
    ns_per_test.push_back(tests > 0 ? kernel_s * 1e9 / static_cast<double>(tests) : 0.0);
  }
  for (auto& [metric, values] : per_layer) out.set(metric, median(std::move(values)));
  out.set("skyline.ns_per_test", median(ns_per_test));
  return median(unattributed);
}

}  // namespace perfbench
