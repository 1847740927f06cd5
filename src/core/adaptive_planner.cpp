#include "src/core/adaptive_planner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <span>
#include <sstream>
#include <unordered_set>

#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/timer.hpp"
#include "src/core/planner.hpp"
#include "src/dataset/transforms.hpp"
#include "src/mapreduce/cluster.hpp"
#include "src/partition/factory.hpp"
#include "src/partition/stats.hpp"
#include "src/skyline/algorithms.hpp"

namespace mrsky::core {
namespace {

// Sample-scale measurements for one (scheme, Np), shared by every
// (fan-in, salting) variant priced on top of it.
struct FitAnalysis {
  part::Scheme scheme = part::Scheme::kAngular;
  std::size_t partitions = 0;  ///< requested Np (what the config will say)
  double balance_cv = 0.0;
  double prunable_fraction = 0.0;
  /// Per surviving (non-pruned, non-empty) partition.
  std::vector<std::size_t> part_sample_n;
  std::vector<data::PointSet> part_sample_sky;
};

// One reduce-key's worth of predicted merge input. Salted sub-keys of the
// same partition share the partition's sample skyline.
struct MergeNode {
  const data::PointSet* sample_sky = nullptr;
  double sample_underlying = 0.0;  ///< sample points behind this node
  double full_sky = 0.0;           ///< predicted full-scale skyline records
  double full_underlying = 0.0;    ///< predicted full-scale points
};

double growth(double sample_n, double full_n, std::size_t dim) {
  const auto s = static_cast<std::size_t>(std::llround(std::max(sample_n, 0.0)));
  const auto f = static_cast<std::size_t>(std::llround(std::max(full_n, 0.0)));
  return skyline_growth_factor(s, f, dim);
}

// Union of member sample skylines with id-dedup: salted sub-nodes of one
// partition all point at the same skyline, and double-counting it would
// inflate the merge-output estimate.
data::PointSet dedup_union(const std::vector<const MergeNode*>& members, std::size_t dim) {
  data::PointSet u(dim);
  std::unordered_set<std::uint64_t> seen;
  for (const MergeNode* node : members) {
    const data::PointSet& sky = *node->sample_sky;
    for (std::size_t i = 0; i < sky.size(); ++i) {
      if (seen.insert(sky.id(i)).second) u.push_back(sky.point(i), sky.id(i));
    }
  }
  return u;
}

std::size_t worker_lanes(const MRSkylineConfig& config) {
  if (config.run_options.mode != mr::ExecutionMode::kThreads) return 1;
  if (config.run_options.pool != nullptr) return std::max<std::size_t>(1, config.run_options.pool->size());
  if (config.run_options.num_threads > 0) return config.run_options.num_threads;
  return std::max<std::size_t>(1, common::ThreadPool::default_concurrency());
}

// Returns nullopt for a salted variant in which no partition actually
// splits (every k_p == 1): it would be an exact duplicate of the unsalted
// candidate — same plan, same prediction — and only bloat the table.
std::optional<PlanCandidate> price_candidate(const FitAnalysis& fa, std::size_t merge_fan_in, bool salted,
                              const MRSkylineConfig& base, std::size_t full_n, std::size_t dim,
                              std::size_t sample_n, std::size_t lanes,
                              const CostConstants& c) {
  PlanCandidate cand;
  cand.scheme = fa.scheme;
  cand.partitions = fa.partitions;
  cand.merge_fan_in = merge_fan_in;
  cand.salted = salted;
  cand.balance_cv = fa.balance_cv;
  cand.prunable_fraction = fa.prunable_fraction;

  const auto n = static_cast<double>(full_n);
  const double scale = sample_n > 0 ? n / static_cast<double>(sample_n) : 1.0;

  // Map + job-1 shuffle: every point is assigned (O(d)) and materialised
  // into its reduce bucket, whatever the scheme.
  cand.map_seconds = n * static_cast<double>(dim) * c.seconds_per_assign_dim;
  cand.shuffle_seconds = n * c.seconds_per_shuffle_record;

  // Local-skyline phase: one task per reduce key; salting splits oversized
  // partitions with the same k_p formula run_mr_skyline uses.
  const double salt_target =
      base.salt_target_factor * n / static_cast<double>(std::max<std::size_t>(1, fa.partitions));
  std::vector<double> local_tasks;
  std::vector<MergeNode> nodes;
  bool any_split = false;
  for (std::size_t i = 0; i < fa.part_sample_n.size(); ++i) {
    const double part_sample = static_cast<double>(fa.part_sample_n[i]);
    const double part_full = part_sample * scale;
    const double sky_sample = static_cast<double>(fa.part_sample_sky[i].size());
    std::size_t salt_count = 1;
    if (salted) {
      const auto needed =
          static_cast<std::size_t>(std::ceil(part_full / std::max(salt_target, 1.0)));
      salt_count = std::clamp<std::size_t>(needed, 1, 64);
      any_split = any_split || salt_count > 1;
    }
    const double sub_full = part_full / static_cast<double>(salt_count);
    const double sub_sky =
        std::min(sub_full, sky_sample * growth(part_sample, sub_full, dim));
    for (std::size_t s = 0; s < salt_count; ++s) {
      local_tasks.push_back(sub_full * std::max(sub_sky, 1.0) * c.seconds_per_dominance_test);
      nodes.push_back(MergeNode{&fa.part_sample_sky[i],
                                part_sample / static_cast<double>(salt_count), sub_sky,
                                sub_full});
    }
  }
  if (salted && !any_split) return std::nullopt;
  cand.local_seconds =
      mr::lpt_makespan(local_tasks, lanes) + c.seconds_per_job;

  for (const MergeNode& node : nodes) cand.predicted_merge_input += node.full_sky;

  // Merge cascade, simulated the way run_mr_skyline executes it: rounds of
  // `merge_fan_in` groups (0 = everything into one reducer), each round a
  // job with its own shuffle and fixed overhead. Bucket outputs are the
  // *actual* skylines of the unioned sample skylines, scaled to full size.
  if (!nodes.empty()) {
    std::vector<data::PointSet> round_storage;  // keeps sample skylines alive
    bool first_round = true;
    while (nodes.size() > 1 || first_round) {
      first_round = false;
      const std::size_t fan =
          merge_fan_in < 2 ? nodes.size() : std::min(merge_fan_in, nodes.size());
      std::vector<double> bucket_costs;
      std::vector<MergeNode> next;
      std::vector<data::PointSet> next_storage;
      double round_input = 0.0;
      for (std::size_t start = 0; start < nodes.size(); start += fan) {
        const std::size_t end = std::min(start + fan, nodes.size());
        std::vector<const MergeNode*> members;
        double in_full = 0.0, und_full = 0.0, und_sample = 0.0;
        for (std::size_t i = start; i < end; ++i) {
          members.push_back(&nodes[i]);
          in_full += nodes[i].full_sky;
          und_full += nodes[i].full_underlying;
          und_sample += nodes[i].sample_underlying;
        }
        data::PointSet unioned = dedup_union(members, dim);
        data::PointSet out_sample = skyline::compute_skyline(unioned, skyline::Algorithm::kBnl);
        const double out_full =
            std::min(in_full, static_cast<double>(out_sample.size()) *
                                  growth(und_sample, und_full, dim));
        bucket_costs.push_back(in_full * std::max(out_full, 1.0) *
                               c.seconds_per_dominance_test);
        round_input += in_full;
        next_storage.push_back(std::move(out_sample));
        next.push_back(MergeNode{nullptr, und_sample, out_full, und_full});
      }
      for (std::size_t i = 0; i < next.size(); ++i) next[i].sample_sky = &next_storage[i];
      cand.merge_seconds += mr::lpt_makespan(bucket_costs, lanes) + c.seconds_per_job +
                            round_input * c.seconds_per_shuffle_record;
      round_storage = std::move(next_storage);
      for (std::size_t i = 0; i < next.size(); ++i) next[i].sample_sky = &round_storage[i];
      nodes = std::move(next);
    }
  } else {
    cand.merge_seconds = c.seconds_per_job;  // the always-present merge job
  }
  return cand;
}

MRSkylineConfig resolve(const MRSkylineConfig& base, part::Scheme scheme,
                        std::size_t partitions, std::size_t merge_fan_in, bool salted) {
  MRSkylineConfig resolved = base;
  resolved.scheme = scheme;
  resolved.num_partitions = partitions;
  resolved.merge_fan_in = merge_fan_in;
  resolved.salt_oversized_partitions = salted;
  resolved.prepared_partitioner = nullptr;
  return resolved;
}

AdaptivePlan heuristic_fallback(std::size_t n, std::size_t dim, const MRSkylineConfig& base,
                                const std::string& reason) {
  PlannerInputs inputs;
  inputs.cardinality = std::max<std::size_t>(1, n);
  inputs.dim = std::max<std::size_t>(1, dim);
  inputs.servers = std::max<std::size_t>(1, base.servers);
  const PlannedConfig heur = plan_config(inputs);

  AdaptivePlan plan;
  plan.fallback = true;
  plan.config = resolve(base, heur.config.scheme, heur.config.num_partitions,
                        heur.config.merge_fan_in, heur.config.salt_oversized_partitions);
  plan.config.salt_target_factor = heur.config.salt_target_factor;
  plan.chosen.scheme = plan.config.scheme;
  plan.chosen.partitions = plan.config.effective_partitions();
  plan.chosen.merge_fan_in = plan.config.merge_fan_in;
  plan.chosen.salted = plan.config.salt_oversized_partitions;
  plan.rationale = "auto: " + reason + "; using static heuristic\n" + heur.rationale;
  return plan;
}

std::string format_ms(double seconds) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << seconds * 1e3 << " ms";
  return os.str();
}

}  // namespace

AdaptivePlanner::AdaptivePlanner(AdaptivePlannerOptions options) : options_(std::move(options)) {
  if (options_.schemes.empty()) {
    options_.schemes = {part::Scheme::kDimensional, part::Scheme::kGrid, part::Scheme::kAngular,
                        part::Scheme::kPivot};
  }
  if (options_.partitions_per_server.empty()) options_.partitions_per_server = {1, 2, 4};
  if (options_.merge_fan_ins.empty()) options_.merge_fan_ins = {0, 4};
}

AdaptivePlan AdaptivePlanner::plan(const data::PointSet& input,
                                   const MRSkylineConfig& base) const {
  common::Timer timer;
  const std::size_t n = input.size();
  const std::size_t dim = input.dim();

  if (n < options_.min_points || dim == 0) {
    AdaptivePlan plan = heuristic_fallback(
        n, dim, base,
        "dataset below planning threshold (" + std::to_string(n) + " < " +
            std::to_string(options_.min_points) + " points)");
    plan.planning_seconds = timer.elapsed_seconds();
    return plan;
  }

  // 1. Sample — deterministic, so plans memoised on (version, seed) are
  // reproducible and shareable.
  data::PointSet sample_storage(dim);
  const data::PointSet* sample = &input;
  if (options_.sample_size > 0 && options_.sample_size < n) {
    common::Rng rng(options_.sample_seed);
    sample_storage = data::sample_without_replacement(input, options_.sample_size, rng);
    sample = &sample_storage;
  }
  AdaptivePlan plan = plan_on_sample(*sample, n, dim, base);
  plan.planning_seconds = timer.elapsed_seconds();
  return plan;
}

AdaptivePlan AdaptivePlanner::plan(const data::DatasetSource& source,
                                   const MRSkylineConfig& base) const {
  if (const data::PointSet* resident = source.resident()) return plan(*resident, base);
  common::Timer timer;
  const std::size_t n = source.size();
  const std::size_t dim = source.dim();

  if (n < options_.min_points || dim == 0) {
    AdaptivePlan plan = heuristic_fallback(
        n, dim, base,
        "dataset below planning threshold (" + std::to_string(n) + " < " +
            std::to_string(options_.min_points) + " points)");
    plan.planning_seconds = timer.elapsed_seconds();
    return plan;
  }

  // 1. Sample — block-proportional systematic draw, deterministic in
  // (seed, layout); nothing is materialised.
  const std::size_t target = options_.sample_size > 0 ? std::min(options_.sample_size, n) : n;
  const data::PointSet sample = source.sample(target, options_.sample_seed);
  AdaptivePlan plan = plan_on_sample(sample, n, dim, base);

  // 4. Block-skip preview: discount the map and shuffle phases by the
  // fraction of on-disk bytes the pipeline's pre-shuffle block pruning will
  // drop (prune_blocks, the test run_mr_skyline applies). Map and shuffle
  // costs are scheme-independent, so the discount is uniform across
  // candidates and the ranking is unchanged — only the absolute predictions
  // tighten.
  if (!plan.fallback && base.block_prune) {
    const BlockPrune prune =
        prune_blocks(source, skyline::compute_skyline(sample, skyline::Algorithm::kBnl));
    const double total_bytes = static_cast<double>(prune.bytes_pruned + prune.bytes_read);
    if (total_bytes > 0 && prune.blocks_pruned > 0) {
      const double pruned_frac = static_cast<double>(prune.bytes_pruned) / total_bytes;
      const double keep = 1.0 - pruned_frac;
      for (PlanCandidate& cand : plan.candidates) {
        cand.map_seconds *= keep;
        cand.shuffle_seconds *= keep;
      }
      plan.chosen.map_seconds *= keep;
      plan.chosen.shuffle_seconds *= keep;
      std::ostringstream os;
      os << "\nblock stats: " << prune.blocks_pruned << "/" << source.block_count()
         << " blocks (" << std::fixed << std::setprecision(1) << 100.0 * pruned_frac
         << "% of bytes) prunable before read";
      plan.rationale += os.str();
    }
  }
  plan.planning_seconds = timer.elapsed_seconds();
  return plan;
}

AdaptivePlan AdaptivePlanner::plan_on_sample(const data::PointSet& sample, std::size_t full_n,
                                             std::size_t dim,
                                             const MRSkylineConfig& base) const {
  const std::size_t n = full_n;
  const std::size_t sample_n = sample.size();

  const CostConstants constants =
      options_.constants ? *options_.constants : CostModel::process().constants();
  const std::size_t lanes = worker_lanes(base);

  // 2. Analyze — fit each (scheme, Np) on the sample once and compute the
  // actual per-partition sample skylines; every fan-in/salting variant is
  // priced from the same analysis.
  std::vector<FitAnalysis> analyses;
  std::vector<std::size_t> partition_counts;
  for (const std::size_t per_server : options_.partitions_per_server) {
    const std::size_t np = std::max<std::size_t>(1, per_server * std::max<std::size_t>(1, base.servers));
    if (std::find(partition_counts.begin(), partition_counts.end(), np) ==
        partition_counts.end()) {
      partition_counts.push_back(np);
    }
  }
  for (const part::Scheme scheme : options_.schemes) {
    for (const std::size_t np : partition_counts) {
      // Reject combinations the pipeline itself would reject.
      if (!resolve(base, scheme, np, 0, false).validate().empty()) continue;
      FitAnalysis fa;
      fa.scheme = scheme;
      fa.partitions = np;
      try {
        part::PartitionerOptions popts;
        popts.num_partitions = np;
        popts.split_dim = base.split_dim;
        const part::PartitionerPtr partitioner = part::make_partitioner(scheme, popts);
        partitioner->fit(sample);
        const part::PartitionReport report = part::analyze_partitioning(*partitioner, sample);
        fa.balance_cv = report.balance_cv;
        fa.prunable_fraction =
            sample_n > 0 && base.apply_grid_pruning
                ? static_cast<double>(report.pruned_points) / static_cast<double>(sample_n)
                : 0.0;
        std::vector<data::PointSet> parts = part::split_by_partition(*partitioner, sample);
        std::unordered_set<std::size_t> pruned;
        if (base.apply_grid_pruning) {
          pruned.insert(report.prunable.begin(), report.prunable.end());
        }
        for (std::size_t p = 0; p < parts.size(); ++p) {
          if (parts[p].empty() || pruned.count(p) != 0) continue;
          fa.part_sample_n.push_back(parts[p].size());
          fa.part_sample_sky.push_back(
              skyline::compute_skyline(parts[p], skyline::Algorithm::kBnl));
        }
      } catch (const std::exception&) {
        continue;  // a scheme that cannot fit this sample is not a candidate
      }
      if (fa.part_sample_n.empty()) continue;
      analyses.push_back(std::move(fa));
    }
  }

  if (analyses.empty()) {
    AdaptivePlan plan =
        heuristic_fallback(n, dim, base, "no candidate scheme survived sample analysis");
    plan.sample_points = sample_n;
    return plan;
  }

  // 3. Optimize — price every (scheme, Np, fan-in, salting) candidate and
  // keep them all (cheapest first) for the rationale and `mrsky plan`.
  AdaptivePlan plan;
  plan.sample_points = sample_n;
  for (const FitAnalysis& fa : analyses) {
    for (const std::size_t fan : options_.merge_fan_ins) {
      for (const bool salted : {false, true}) {
        if (salted && !options_.consider_salting) continue;
        if (!resolve(base, fa.scheme, fa.partitions, fan, salted).validate().empty()) continue;
        if (auto cand = price_candidate(fa, fan, salted, base, n, dim, sample_n, lanes, constants)) {
          plan.candidates.push_back(*cand);
        }
      }
    }
  }
  if (plan.candidates.empty()) {
    AdaptivePlan fb = heuristic_fallback(n, dim, base, "no priced candidate validated");
    fb.sample_points = sample_n;
    return fb;
  }
  std::stable_sort(plan.candidates.begin(), plan.candidates.end(),
                   [](const PlanCandidate& a, const PlanCandidate& b) {
                     if (a.total_seconds() != b.total_seconds())
                       return a.total_seconds() < b.total_seconds();
                     if (a.scheme != b.scheme) return static_cast<int>(a.scheme) < static_cast<int>(b.scheme);
                     if (a.partitions != b.partitions) return a.partitions < b.partitions;
                     if (a.merge_fan_in != b.merge_fan_in) return a.merge_fan_in < b.merge_fan_in;
                     return !a.salted && b.salted;
                   });
  plan.chosen = plan.candidates.front();
  plan.config = resolve(base, plan.chosen.scheme, plan.chosen.partitions, plan.chosen.merge_fan_in,
                        plan.chosen.salted);
  plan.config.validate_or_throw();

  std::ostringstream os;
  os << "auto: scored " << plan.candidates.size() << " candidates over " << sample_n
     << " sample points (seed 0x" << std::hex << options_.sample_seed << std::dec << ")\n";
  os << "chosen: scheme=" << part::to_string(plan.chosen.scheme) << " Np=" << plan.chosen.partitions
     << " fan=" << plan.chosen.merge_fan_in << " salt=" << (plan.chosen.salted ? "on" : "off")
     << " — predicted " << format_ms(plan.chosen.total_seconds()) << " (map "
     << format_ms(plan.chosen.map_seconds) << ", shuffle " << format_ms(plan.chosen.shuffle_seconds)
     << ", local " << format_ms(plan.chosen.local_seconds) << ", merge "
     << format_ms(plan.chosen.merge_seconds) << ")\n";
  if (plan.candidates.size() > 1) {
    const PlanCandidate& runner = plan.candidates[1];
    const double delta = plan.chosen.total_seconds() > 0.0
                             ? (runner.total_seconds() / plan.chosen.total_seconds() - 1.0) * 100.0
                             : 0.0;
    os << "runner-up: scheme=" << part::to_string(runner.scheme) << " Np=" << runner.partitions
       << " fan=" << runner.merge_fan_in << " salt=" << (runner.salted ? "on" : "off") << " at +"
       << std::fixed << std::setprecision(1) << delta << "%\n";
  }
  os << "sample balance cv " << std::fixed << std::setprecision(3) << plan.chosen.balance_cv
     << ", prunable " << std::setprecision(1) << plan.chosen.prunable_fraction * 100.0
     << "% of sample, predicted merge input " << std::setprecision(0)
     << plan.chosen.predicted_merge_input << " records";
  plan.rationale = os.str();
  return plan;
}

}  // namespace mrsky::core
