// mrsky — command-line front end for the library.
//
// Subcommands:
//   generate  — write a synthetic dataset to CSV or .mrb
//   convert   — stage a CSV dataset into an on-disk .mrb block store
//   inspect   — print a .mrb file's block index (corners, checksums)
//   skyline   — compute a skyline from a dataset with the MR pipeline;
//               a .mrb input streams block by block (out-of-core)
//   report    — partition diagnostics for a dataset under a scheme
//   simulate  — simulated cluster times across server counts
//   plan      — recommend a pipeline configuration for (N, d, servers);
//               --input reads N and d from a dataset file
//   query     — serve a query script against a resident QueryEngine
//   serve     — run the concurrent multi-session skyline server (TCP)
//
// Examples (an indented line continues the command above it):
//   mrsky generate --output data.csv --n 10000 --dim 6 --qws
//   mrsky convert --input data.csv --output data.mrb --block-rows 4096 --order zorder
//   mrsky inspect --input data.mrb --verify true
//   mrsky skyline --input data.mrb --scheme angular --servers 8
//         --output skyline.csv --metrics-json metrics.json
//   mrsky report --input data.csv --scheme grid --partitions 16
//   mrsky simulate --input data.csv --scheme angular --servers-list 4,8,16,32
//   mrsky query --input data.csv --script session.mrq
//         --metrics-json query_metrics.json --trace-out trace.json
//   mrsky serve --input data.csv --port 7878 --max-sessions 8
//         --default-deadline-ms 500 --idle-timeout-ms 30000 --metrics-json serve.json
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <variant>

#include "src/common/cli.hpp"
#include "src/common/error.hpp"
#include "src/common/json.hpp"
#include "src/common/table.hpp"
#include "src/core/mr_skyline.hpp"
#include "src/core/optimality.hpp"
#include "src/core/planner.hpp"
#include "src/dataset/block_store.hpp"
#include "src/dataset/generators.hpp"
#include "src/dataset/io.hpp"
#include "src/dataset/normalize.hpp"
#include "src/dataset/qws.hpp"
#include "src/dataset/source.hpp"
#include "src/common/trace.hpp"
#include "src/mapreduce/metrics_json.hpp"
#include "src/mapreduce/trace_export.hpp"
#include "src/partition/factory.hpp"
#include "src/partition/stats.hpp"
#include "src/server/server.hpp"
#include "src/service/query_engine.hpp"
#include "src/service/script.hpp"

namespace {

using namespace mrsky;

int usage() {
  std::cerr << "usage: mrsky "
               "<generate|convert|inspect|skyline|report|simulate|plan|query|serve> [--flags]\n"
               "run `mrsky <subcommand>` with no flags to see its defaults in action;\n"
               "see tools/tool_main.cpp header for examples.\n";
  return 2;
}

bool has_suffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(),
                                                suffix) == 0;
}

/// Reads `path` whole through data::read_points. Under --lenient true the
/// read is tolerant of hand-curated files (the real QWS dataset is a web
/// crawl): malformed rows, non-finite rows and corrupted blocks are dropped
/// and summarised on stderr, not fatal.
data::PointSet read_points_with_flags(const std::string& path, const common::CliArgs& args) {
  if (!args.get_bool("lenient", false)) return data::read_points(path);
  data::ParseReport report;
  data::PointSet ps = data::read_points(path, &report);
  if (!report.clean()) std::cerr << path << ": " << report.summary();
  return ps;
}

data::PointSet load_input(const common::CliArgs& args) {
  const std::string path = args.get_string("input", "");
  MRSKY_REQUIRE(!path.empty(), "--input <file.csv|file.mrb> is required");
  data::PointSet ps = read_points_with_flags(path, args);
  // Subcommands that reach here genuinely need residency (serving,
  // diagnostics), so a .mrb is materialised whole. Its attribute values pass
  // through untouched: the file was prepared by `mrsky convert`, and
  // rescaling it here would silently disagree with what `mrsky skyline`
  // streams. Use `mrsky skyline` for out-of-core execution.
  if (!has_suffix(path, ".mrb") && args.get_bool("normalize", true)) {
    ps = data::normalize_min_max(ps);
  }
  return ps;
}

/// The streaming counterpart of load_input, for `skyline`, which runs the
/// pipeline, and `plan`, which reads N and d: a .mrb input becomes a
/// BlockStoreSource and is never materialised — map tasks read blocks and
/// block pruning skips dominated ones; anything else is loaded resident
/// (with the usual --lenient / --normalize handling) behind a
/// PointSetSource.
std::unique_ptr<data::DatasetSource> load_source(const common::CliArgs& args) {
  const std::string path = args.get_string("input", "");
  MRSKY_REQUIRE(!path.empty(), "--input <file.csv|file.mrb> is required");
  if (has_suffix(path, ".mrb")) {
    MRSKY_REQUIRE(!args.get_bool("normalize", false),
                  "--normalize is not supported for .mrb inputs (it would force a full "
                  "materialising pass); normalize before `mrsky convert`");
    return std::make_unique<data::BlockStoreSource>(path);
  }
  return std::make_unique<data::PointSetSource>(load_input(args));
}

/// Writes `ps` as a .mrb block store when `path` ends in .mrb, as CSV otherwise.
void save_points(const std::string& path, const data::PointSet& ps) {
  if (has_suffix(path, ".mrb")) {
    data::write_block_store(path, ps);
  } else {
    data::write_csv_file(path, ps);
  }
}

/// The pipeline config the flags describe, on top of `config` — Algorithm 1's
/// MRSkylineConfig{} for the batch commands, the engine's default for
/// `query` and `serve`.
core::MRSkylineConfig config_from(const common::CliArgs& args,
                                  core::MRSkylineConfig config = {}) {
  config.scheme = part::parse_scheme(args.get_string("scheme", "angular"));
  config.servers = static_cast<std::size_t>(args.get_int("servers", 8));
  config.num_partitions = static_cast<std::size_t>(args.get_int("partitions", 0));
  config.merge_fan_in = static_cast<std::size_t>(args.get_int("merge-fan-in", 0));
  config.use_combiner = args.get_bool("combiner", false);
  config.salt_oversized_partitions = args.get_bool("salt", false);
  config.local_algorithm = skyline::parse_algorithm(args.get_string("algorithm", "bnl"));

  // Fault-injection knobs (the engine re-executes failed attempts; the exact
  // skyline comes out regardless — see DESIGN.md's fault model).
  config.run_options.task_failure_probability = args.get_double("failure-probability", 0.0);
  config.run_options.failure_seed =
      static_cast<std::uint64_t>(args.get_int("failure-seed", 0xFA11));
  config.run_options.max_task_attempts =
      static_cast<std::size_t>(args.get_int("max-task-attempts", 4));
  config.run_options.skip_bad_records = args.get_bool("skip-bad-records", false);
  config.run_options.max_skipped_records =
      static_cast<std::size_t>(args.get_int("max-skipped-records", 16));

  // Out-of-core knobs (meaningful for .mrb inputs; validate_for rejects a
  // spill budget when the source is resident anyway).
  config.block_prune = args.get_bool("block-prune", config.block_prune);
  config.run_options.shuffle_spill_bytes =
      static_cast<std::uint64_t>(args.get_int("spill-bytes", 0));
  config.run_options.spill_dir = args.get_string("spill-dir", "");
  // Fail here, before any dataset is loaded, with every flag problem in one
  // message (run_mr_skyline would catch them too, but later and after I/O).
  config.validate_or_throw();
  return config;
}

/// Parses --node-failures "server:time,server:time,..." (times in seconds
/// from the start of a job's map phase) and --speculation into the model.
mr::ClusterModel cluster_model_from(const common::CliArgs& args, std::size_t servers) {
  mr::ClusterModel model;
  model.servers = servers;
  model.speculative_execution = args.get_bool("speculation", false);
  const std::string spec = args.get_string("node-failures", "");
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(pos, end - pos);
    const std::size_t colon = item.find(':');
    MRSKY_REQUIRE(colon != std::string::npos,
                  "--node-failures expects server:time pairs, got '" + item + "'");
    mr::NodeFailure failure;
    failure.server = static_cast<std::size_t>(std::stoul(item.substr(0, colon)));
    failure.time_seconds = std::stod(item.substr(colon + 1));
    model.node_failures.push_back(failure);
    pos = end + 1;
  }
  return model;
}

int cmd_generate(const common::CliArgs& args) {
  const std::string output = args.get_string("output", "");
  MRSKY_REQUIRE(!output.empty(), "--output <file.csv|file.mrb> is required");
  const auto n = static_cast<std::size_t>(args.get_int("n", 10000));
  const auto dim = static_cast<std::size_t>(args.get_int("dim", 4));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2012));

  data::PointSet ps(1);
  if (args.get_bool("qws", false)) {
    data::QwsLikeGenerator gen(dim, seed);
    ps = gen.generate_oriented(n);
  } else {
    ps = data::generate(data::parse_distribution(args.get_string("distribution", "independent")),
                        n, dim, seed);
  }
  save_points(output, ps);
  std::cout << "wrote " << ps.size() << " points x " << ps.dim() << " attributes to " << output
            << "\n";
  return 0;
}

int cmd_convert(const common::CliArgs& args) {
  const std::string input = args.get_string("input", "");
  const std::string output = args.get_string("output", "");
  MRSKY_REQUIRE(!input.empty(), "--input <file.csv> is required");
  MRSKY_REQUIRE(!output.empty(), "--output <file.mrb> is required");
  MRSKY_REQUIRE(has_suffix(output, ".mrb"), "--output must end in .mrb");
  MRSKY_REQUIRE(!has_suffix(input, ".mrb"), "--input is already a .mrb block store");
  const auto block_rows = static_cast<std::size_t>(args.get_int(
      "block-rows", static_cast<std::int64_t>(data::blockfmt::kDefaultBlockRows)));
  MRSKY_REQUIRE(block_rows > 0, "--block-rows must be positive");

  // Conversion is a container change, so rows pass through verbatim unless
  // --normalize true is given explicitly (note: opposite default from the
  // query subcommands — the .mrb should hold exactly what later runs read).
  data::PointSet ps = read_points_with_flags(input, args);
  if (args.get_bool("normalize", false)) ps = data::normalize_min_max(ps);

  const std::string order = args.get_string("order", "input");
  MRSKY_REQUIRE(order == "input" || order == "zorder",
                "--order must be 'input' or 'zorder', got '" + order + "'");
  if (order == "zorder") {
    data::write_block_store(output, ps, data::zorder_permutation(ps), block_rows);
  } else {
    data::write_block_store(output, ps, block_rows);
  }
  const data::BlockStore store(output);
  std::cout << "wrote " << store.rows() << " points x " << store.dim() << " attributes to "
            << output << ": " << store.block_count() << " blocks of <= " << store.block_rows()
            << " rows, " << store.file_bytes() << " bytes"
            << (order == "zorder" ? ", z-ordered" : "") << "\n";
  return 0;
}

std::string format_corner(std::span<const double> corner) {
  std::ostringstream os;
  os << std::setprecision(3) << "(";
  const std::size_t shown = corner.size() < 4 ? corner.size() : 4;
  for (std::size_t a = 0; a < shown; ++a) {
    if (a > 0) os << ",";
    os << corner[a];
  }
  if (corner.size() > shown) os << ",..";
  os << ")";
  return os.str();
}

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

int cmd_inspect(const common::CliArgs& args) {
  const std::string input = args.get_string("input", "");
  MRSKY_REQUIRE(!input.empty(), "--input <file.mrb> is required");
  MRSKY_REQUIRE(has_suffix(input, ".mrb"),
                "inspect reads .mrb block stores (see `mrsky convert`)");
  const data::BlockStore store(input);

  std::cout << input << ": " << store.rows() << " points x " << store.dim() << " attributes, "
            << store.block_count() << " blocks of <= " << store.block_rows() << " rows, "
            << store.file_bytes() << " bytes\n";

  // --block-skylines additionally runs the dominance kernel straight off each
  // mapped block (the layout-is-the-compute-layout demonstration); it reads
  // every payload, where the plain index table touches only the footer.
  const bool block_skylines = args.get_bool("block-skylines", false);
  std::vector<std::string> header = {"block", "rows", "bytes", "checksum", "min_corner",
                                     "max_corner"};
  if (block_skylines) header.push_back("local_sky");
  common::Table table(header);
  for (std::size_t b = 0; b < store.block_count(); ++b) {
    std::vector<std::string> row = {
        common::Table::fmt(b), common::Table::fmt(store.rows_in_block(b)),
        common::Table::fmt(static_cast<std::size_t>(store.block_payload_bytes(b))),
        hex64(store.block_checksum(b)), format_corner(store.block_min(b)),
        format_corner(store.block_max(b))};
    if (block_skylines) {
      row.push_back(common::Table::fmt(store.block_skyline_rows(b).size()));
      store.release(b);
    }
    table.add_row(row);
  }
  table.print(std::cout, "block index");

  if (args.get_bool("verify", false)) {
    for (std::size_t b = 0; b < store.block_count(); ++b) {
      store.verify_block(b);
      store.release(b);
    }
    std::cout << "verified: all " << store.block_count()
              << " payload checksums match the footer\n";
  }
  return 0;
}

int cmd_skyline(const common::CliArgs& args) {
  const auto source = load_source(args);
  auto config = config_from(args);

  // Span tracing: record the real pipeline execution (tasks, attempts,
  // shuffle, merge rounds) and append the simulated cluster schedule, then
  // export Chrome trace-event JSON for Perfetto / chrome://tracing.
  common::TraceRecorder recorder;
  const std::string trace_out = args.get_string("trace-out", "");
  if (!trace_out.empty()) config.run_options.trace = &recorder;

  const auto result = core::run_mr_skyline(*source, config);

  std::cout << "input:   " << source->describe() << "\n"
            << "scheme:  " << part::to_string(config.scheme) << " ("
            << result.local_skylines.size() << " partitions)\n"
            << "skyline: " << result.skyline.size() << " points\n";
  if (result.partition_job.bytes_read > 0 || result.partition_job.blocks_pruned > 0) {
    std::cout << "blocks:  " << result.partition_job.bytes_read << " bytes read, "
              << result.partition_job.blocks_pruned << " blocks ("
              << result.partition_job.bytes_pruned << " bytes) pruned before read\n";
  }
  const auto opt = core::local_skyline_optimality(result.local_skylines, result.skyline);
  std::cout << "local skyline optimality (Eq.5): " << opt.mean_optimality << "\n";
  if (args.get_bool("verbose", false)) std::cout << result.summary();

  if (const std::string out = args.get_string("output", ""); !out.empty()) {
    save_points(out, result.skyline);
    std::cout << "skyline written to " << out << "\n";
  }
  if (const std::string json = args.get_string("metrics-json", ""); !json.empty()) {
    std::ofstream file(json);
    MRSKY_REQUIRE(static_cast<bool>(file), "cannot open " + json);
    file << "{\"partition_job\":" << mr::to_json(result.partition_job) << ",\"merge_rounds\":[";
    for (std::size_t i = 0; i < result.merge_rounds.size(); ++i) {
      if (i > 0) file << ",";
      file << mr::to_json(result.merge_rounds[i]);
    }
    const mr::ClusterModel model = cluster_model_from(args, config.servers);
    file << "],\"simulated\":" << mr::to_json(result.simulate(model)) << "}\n";
    std::cout << "metrics written to " << json << "\n";
  }
  if (!trace_out.empty()) {
    std::vector<mr::JobMetrics> jobs;
    jobs.reserve(1 + result.merge_rounds.size());
    jobs.push_back(result.partition_job);
    jobs.insert(jobs.end(), result.merge_rounds.begin(), result.merge_rounds.end());
    mr::append_pipeline_trace(recorder, jobs, cluster_model_from(args, config.servers));
    recorder.write_chrome_json(trace_out);
    std::cout << "trace written to " << trace_out << " (" << recorder.spans().size()
              << " spans; load in Perfetto or chrome://tracing)\n";
  }
  return 0;
}

int cmd_report(const common::CliArgs& args) {
  const data::PointSet ps = load_input(args);
  part::PartitionerOptions options;
  options.num_partitions = static_cast<std::size_t>(args.get_int("partitions", 16));
  const auto scheme = part::parse_scheme(args.get_string("scheme", "angular"));
  auto partitioner = part::make_partitioner(scheme, options);
  partitioner->fit(ps);
  const auto report = part::analyze_partitioning(*partitioner, ps);

  common::Table table({"partition", "points", "prunable"});
  for (std::size_t p = 0; p < report.sizes.size(); ++p) {
    const bool prunable =
        std::find(report.prunable.begin(), report.prunable.end(), p) != report.prunable.end();
    table.add_row({common::Table::fmt(p), common::Table::fmt(report.sizes[p]),
                   prunable ? "yes" : ""});
  }
  table.print(std::cout, part::to_string(scheme) + " partition report");
  std::cout << "non-empty: " << report.non_empty << "/" << report.sizes.size()
            << "  balance CV: " << report.balance_cv
            << "  pruned points: " << report.pruned_points << "\n";
  return 0;
}

int cmd_plan(const common::CliArgs& args) {
  // N and d come from --input when it is given (a .mrb's header, without
  // reading its blocks), from --n and --dim otherwise.
  core::PlannerInputs in;
  if (!args.get_string("input", "").empty()) {
    const auto source = load_source(args);
    in.cardinality = source->size();
    in.dim = source->dim();
  } else {
    in.cardinality = static_cast<std::size_t>(args.get_int("n", 100000));
    in.dim = static_cast<std::size_t>(args.get_int("dim", 10));
  }
  in.servers = static_cast<std::size_t>(args.get_int("servers", 8));
  in.clustered = args.get_bool("clustered", false);
  const auto planned = core::plan_config(in);
  std::cout << "recommended configuration for N=" << in.cardinality << " d=" << in.dim
            << " servers=" << in.servers << ":\n"
            << "  --scheme " << part::to_string(planned.config.scheme)
            << " --servers " << planned.config.servers;
  if (planned.config.merge_fan_in > 0) {
    std::cout << " --merge-fan-in " << planned.config.merge_fan_in;
  }
  if (planned.config.salt_oversized_partitions) std::cout << " --salt true";
  std::cout << "\n\nrationale:\n" << planned.rationale;
  return 0;
}

int cmd_simulate(const common::CliArgs& args) {
  const data::PointSet ps = load_input(args);
  auto config = config_from(args);
  const auto servers_list = args.get_int_list("servers-list", {4, 8, 16, 32});

  common::Table table({"servers", "map_s", "reduce_s", "total_s"});
  for (std::int64_t servers : servers_list) {
    config.servers = static_cast<std::size_t>(servers);
    const auto result = core::run_mr_skyline(ps, config);
    const mr::ClusterModel model = cluster_model_from(args, config.servers);
    const auto times = result.simulate(model);
    table.add_row({common::Table::fmt(static_cast<int>(servers)),
                   common::Table::fmt(times.map_seconds, 2),
                   common::Table::fmt(times.reduce_seconds, 2),
                   common::Table::fmt(times.total_seconds(), 2)});
  }
  table.print(std::cout, part::to_string(config.scheme) + " simulated scaling");
  return 0;
}

/// Builds the resident engine for `query`/`serve`. Serving is resident by
/// design (DESIGN.md decision 16): a .mrb input goes through the QueryEngine
/// DatasetSource constructor, which materialises it once at startup; other
/// inputs load through load_input as before.
std::unique_ptr<service::QueryEngine> make_engine(const common::CliArgs& args,
                                                  service::QueryEngineOptions options) {
  const std::string path = args.get_string("input", "");
  if (has_suffix(path, ".mrb")) {
    return std::make_unique<service::QueryEngine>(data::BlockStoreSource(path),
                                                  std::move(options));
  }
  return std::make_unique<service::QueryEngine>(load_input(args), std::move(options));
}

int cmd_query(const common::CliArgs& args) {
  const std::string script_path = args.get_string("script", "");
  MRSKY_REQUIRE(!script_path.empty(), "--script <file> is required");
  const auto commands = service::parse_query_script_file(script_path);

  common::TraceRecorder recorder;
  const std::string trace_out = args.get_string("trace-out", "");

  service::QueryEngineOptions options;
  options.config = config_from(args, options.config);
  options.cache_capacity = static_cast<std::size_t>(args.get_int("cache-capacity", 64));
  if (!trace_out.empty()) options.trace = &recorder;

  const auto engine_ptr = make_engine(args, options);
  service::QueryEngine& engine = *engine_ptr;
  std::cout << "dataset: " << engine.dataset().size() << " points x " << engine.dataset().dim()
            << " attributes\n";

  common::Table table({"#", "command", "points", "cache", "fit", "dom_tests", "ms"});
  std::string queries_json;  // JSON array items, one per script command
  std::size_t index = 0;
  for (const auto& command : commands) {
    ++index;
    if (!queries_json.empty()) queries_json += ",";
    if (const auto* insert = std::get_if<service::InsertCommand>(&command)) {
      // Verbatim (no normalisation): insert batches must already be in the
      // resident dataset's attribute space; re-normalising per file would
      // shift every batch onto a different scale.
      const data::PointSet extra = data::read_points(insert->path);
      engine.insert_batch(extra);
      table.add_row({common::Table::fmt(index), "insert " + insert->path,
                     common::Table::fmt(extra.size()), "", "", "", ""});
      queries_json += "{\"command\":\"insert\",\"path\":\"" + common::json_escape(insert->path) +
                      "\",\"points\":" + std::to_string(extra.size()) +
                      ",\"version\":" + std::to_string(engine.version()) + "}";
      continue;
    }
    if (const auto* del = std::get_if<service::DeleteCommand>(&command)) {
      service::MutationBatch batch;
      batch.deletes = del->ids;
      const service::ApplyResult r = engine.apply_batch(batch);
      table.add_row({common::Table::fmt(index),
                     "delete (" + std::to_string(del->ids.size()) + " ids)",
                     common::Table::fmt(r.delta.deleted), "", "", "", ""});
      queries_json += "{\"command\":\"delete\",\"deleted\":" + std::to_string(r.delta.deleted) +
                      ",\"missing\":" + std::to_string(r.delta.missing_deletes) +
                      ",\"expired\":" + std::to_string(r.delta.expired) +
                      ",\"version\":" + std::to_string(r.delta.version) + "}";
      continue;
    }
    const auto& query = std::get<service::Query>(command);
    const auto result = engine.execute(query);
    const auto& m = result.metrics;
    table.add_row({common::Table::fmt(index), service::query_signature(query),
                   common::Table::fmt(m.result_points), m.cache_hit ? "hit" : "miss",
                   m.fit_reused ? "reused" : "", common::Table::fmt(m.dominance_tests),
                   common::Table::fmt(static_cast<double>(m.wall_ns) / 1e6, 3)});
    queries_json += "{\"command\":\"" + common::json_escape(service::query_signature(query)) +
                    "\",\"kind\":\"" + service::query_kind(query) +
                    "\",\"points\":" + std::to_string(m.result_points) +
                    ",\"cache_hit\":" + (m.cache_hit ? "true" : "false") +
                    ",\"fit_reused\":" + (m.fit_reused ? "true" : "false") +
                    ",\"dominance_tests\":" + std::to_string(m.dominance_tests) +
                    ",\"wall_ns\":" + std::to_string(m.wall_ns) +
                    ",\"version\":" + std::to_string(m.dataset_version) + "}";
  }
  table.print(std::cout, "query session: " + script_path);

  const auto& stats = engine.stats();
  std::cout << "queries: " << stats.queries << "  cache hits: " << stats.cache_hits
            << "  pipeline runs: " << stats.pipeline_runs
            << "  fits computed/reused: " << stats.fits_computed << "/" << stats.fit_reuses
            << "  inserts: " << stats.inserts << "\n";

  if (const std::string json = args.get_string("metrics-json", ""); !json.empty()) {
    std::ofstream file(json);
    MRSKY_REQUIRE(static_cast<bool>(file), "cannot open " + json);
    file << "{\"queries\":[" << queries_json << "],\"stats\":{\"queries\":" << stats.queries
         << ",\"cache_hits\":" << stats.cache_hits << ",\"fits_computed\":" << stats.fits_computed
         << ",\"fit_reuses\":" << stats.fit_reuses << ",\"pipeline_runs\":" << stats.pipeline_runs
         << ",\"incremental_serves\":" << stats.incremental_serves
         << ",\"inserts\":" << stats.inserts << ",\"points_inserted\":" << stats.points_inserted
         << ",\"cache_evictions\":" << stats.cache_evictions
         << ",\"dataset_version\":" << engine.version() << "}}\n";
    std::cout << "metrics written to " << json << "\n";
  }
  if (!trace_out.empty()) {
    recorder.write_chrome_json(trace_out);
    std::cout << "trace written to " << trace_out << " (" << recorder.spans().size()
              << " spans; load in Perfetto or chrome://tracing)\n";
  }
  return 0;
}

int cmd_serve(const common::CliArgs& args) {
  service::QueryEngineOptions options;
  options.config = config_from(args, options.config);
  options.cache_capacity = static_cast<std::size_t>(args.get_int("cache-capacity", 64));
  const auto engine_ptr = make_engine(args, options);
  service::QueryEngine& engine = *engine_ptr;

  server::ServerOptions server_options;
  server_options.port = static_cast<std::uint16_t>(args.get_int("port", 0));
  server_options.max_sessions = static_cast<std::size_t>(args.get_int("max-sessions", 8));
  // Relative `insert <path>` requests resolve against the input file's
  // directory by default — the same base a .mrq script next to the data
  // would use — so a server started from anywhere serves the same files.
  server_options.insert_dir = args.get_string(
      "insert-dir",
      std::filesystem::path(args.get_string("input", "")).parent_path().string());
  // Robustness knobs (ISSUE 7).
  server_options.default_deadline_ms = args.get_int("default-deadline-ms", -1);
  server_options.idle_timeout_ms = args.get_int("idle-timeout-ms", -1);
  server_options.max_line_bytes = static_cast<std::size_t>(
      args.get_int("max-line-bytes", static_cast<std::int64_t>(server_options.max_line_bytes)));
  server_options.drain_grace_ms = args.get_int("drain-grace-ms", server_options.drain_grace_ms);
  server_options.retry_after_ms = args.get_int("retry-after-ms", server_options.retry_after_ms);

  server::SkylineServer srv(engine, server_options);
  srv.start();
  std::cout << "mrsky serve: " << engine.dataset().size() << " points x "
            << engine.dataset().dim() << " attributes resident\n"
            << "listening on 127.0.0.1:" << srv.port() << " (max "
            << server_options.max_sessions << " sessions";
  if (server_options.default_deadline_ms >= 0) {
    std::cout << ", default deadline " << server_options.default_deadline_ms << " ms";
  }
  if (server_options.idle_timeout_ms >= 0) {
    std::cout << ", idle timeout " << server_options.idle_timeout_ms << " ms";
  }
  std::cout << ")\ntype 'quit' (or EOF) to stop\n" << std::flush;

  for (std::string line; std::getline(std::cin, line);) {
    if (line == "quit" || line == "exit") break;
  }
  srv.stop();

  const auto server_stats = srv.stats();
  const auto sessions = srv.completed_sessions();
  common::Table table({"session", "requests", "queries", "hits", "inserts", "errors",
                       "cancelled", "deadline_missed", "ms"});
  for (const auto& s : sessions) {
    table.add_row({common::Table::fmt(s.id), common::Table::fmt(s.requests),
                   common::Table::fmt(s.queries), common::Table::fmt(s.cache_hits),
                   common::Table::fmt(s.inserts), common::Table::fmt(s.errors),
                   common::Table::fmt(s.cancelled), common::Table::fmt(s.deadline_missed),
                   common::Table::fmt(static_cast<double>(s.wall_ns_total) / 1e6, 3)});
  }
  table.print(std::cout, "per-session metrics");

  const auto& stats = engine.stats();
  std::cout << "connections: " << server_stats.accepted << " served, " << server_stats.shed
            << " shed at capacity, " << server_stats.idle_reaped << " idle-reaped, "
            << server_stats.oversized_lines << " oversized, "
            << server_stats.drain_cancelled << " cancelled in drain\n"
            << "engine: " << stats.queries << " queries, " << stats.cache_hits
            << " cache hits, " << stats.queries_cancelled << " cancelled, "
            << stats.inserts << " inserts (" << stats.points_inserted
            << " points), final version " << engine.version() << "\n";

  if (const std::string json = args.get_string("metrics-json", ""); !json.empty()) {
    std::ofstream file(json);
    MRSKY_REQUIRE(static_cast<bool>(file), "cannot open " + json);
    std::string sessions_json;
    for (const auto& s : sessions) {
      if (!sessions_json.empty()) sessions_json += ',';
      sessions_json += s.to_json();
    }
    file << "{\"server\":{\"accepted\":" << server_stats.accepted
         << ",\"shed\":" << server_stats.shed
         << ",\"idle_reaped\":" << server_stats.idle_reaped
         << ",\"oversized_lines\":" << server_stats.oversized_lines
         << ",\"drain_cancelled\":" << server_stats.drain_cancelled
         << "},\"engine\":{\"queries\":" << stats.queries
         << ",\"cache_hits\":" << stats.cache_hits
         << ",\"queries_cancelled\":" << stats.queries_cancelled
         << ",\"inserts\":" << stats.inserts
         << ",\"points_inserted\":" << stats.points_inserted
         << ",\"dataset_version\":" << engine.version()
         << "},\"sessions\":[" << sessions_json << "]}\n";
    std::cout << "metrics written to " << json << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string subcommand = argv[1];
  try {
    const common::CliArgs args(argc - 1, argv + 1);
    if (subcommand == "generate") return cmd_generate(args);
    if (subcommand == "convert") return cmd_convert(args);
    if (subcommand == "inspect") return cmd_inspect(args);
    if (subcommand == "skyline") return cmd_skyline(args);
    if (subcommand == "report") return cmd_report(args);
    if (subcommand == "simulate") return cmd_simulate(args);
    if (subcommand == "plan") return cmd_plan(args);
    if (subcommand == "query") return cmd_query(args);
    if (subcommand == "serve") return cmd_serve(args);
    std::cerr << "unknown subcommand: " << subcommand << "\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "mrsky " << subcommand << ": " << e.what() << "\n";
    return 1;
  }
}
