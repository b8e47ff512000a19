// miniphi benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Workloads: paper-search, tight-memory, partitioned-mt (tree searches, see
// search_workloads.cpp) and service-mix (EvaluationService clients, see
// service_workload.cpp).  Human-readable lines go first; the last line of
// standard output is one JSON object with `correct`, `attempted`, `failed`
// and `metrics`: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1.  A traced run also writes its spans as
// chrome-trace JSON and a per-layer self-time table into --out-dir.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "perfbench/common.hpp"
#include "perfbench/spans.hpp"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"op_p50_ms", "ms"},       {"op_p99_ms", "ms"},
    {"ops_per_s", "1/s"},      {"evaluate_p50_ms", "ms"}, {"gradient_p50_ms", "ms"},
    {"smooth_p50_ms", "ms"},   {"peak_rss_mb", "MB"},     {"neg_lnl_per_site", "nats"},
    {"ops_ok_frac", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"io.parse_s", "s"},
    {"bio.compress_s", "s"},
    {"tree.parsimony_s", "s"},
    {"core.build_s", "s"},
    {"core.first_call_s", "s"},
    {"core.lnl.calls", "count"},
    {"core.lnl_s", "s"},
    {"core.deriv.calls", "count"},
    {"core.deriv_s", "s"},
    {"core.opt_branch.calls", "count"},
    {"core.opt_branch_s", "s"},
    {"core.gradient.calls", "count"},
    {"core.gradient_s", "s"},
    {"core.set_model.calls", "count"},
    {"core.set_model_s", "s"},
    {"core.kernel.newview.calls", "count"},
    {"core.kernel.newview.sites", "count"},
    {"core.kernel.newview.ns_per_site", "ns"},
    {"core.kernel.newview.gbps_computed", "GB/s"},
    {"core.kernel.evaluate.calls", "count"},
    {"core.kernel.evaluate.sites", "count"},
    {"core.kernel.evaluate.ns_per_site", "ns"},
    {"core.kernel.evaluate.gbps_computed", "GB/s"},
    {"core.kernel.derivsum.calls", "count"},
    {"core.kernel.derivsum.sites", "count"},
    {"core.kernel.derivsum.ns_per_site", "ns"},
    {"core.kernel.derivsum.gbps_computed", "GB/s"},
    {"core.kernel.derivcore.calls", "count"},
    {"core.kernel.derivcore.sites", "count"},
    {"core.kernel.derivcore.ns_per_site", "ns"},
    {"core.kernel.derivcore.gbps_computed", "GB/s"},
    {"plan.builds", "count"},
    {"plan.cache_hits", "count"},
    {"plan.executed_ops", "count"},
    {"plan.build_ns", "ns"},
    {"sdc.checks", "count"},
    {"sdc.verify_ns", "ns"},
    {"search.model_s", "s"},
    {"search.rounds", "count"},
    {"search.insertions", "count"},
    {"search.accepted_moves", "count"},
    {"search.self_s", "s"},
    {"mem.evictions", "count"},
    {"mem.spills", "count"},
    {"mem.reloads", "count"},
    {"mem.recomputes", "count"},
    {"mem.spill_bytes", "bytes"},
    {"mem.prefetch_hit_ratio", "ratio"},
    {"mem.newview_amplification", "ratio"},
    {"parallel.regions", "count"},
    {"parallel.compute_s", "s"},
    {"parallel.wait_s", "s"},
    {"parallel.wait_share", "ratio"},
    {"stream.regions", "count"},
    {"service.queue_build_ms.p50", "ms"},
    {"service.queue_build_ms.p99", "ms"},
    {"service.run_ms.p50", "ms"},
    {"service.run_ms.p99", "ms"},
    {"service.shed", "count"},
    {"obs.tracing_overhead", "ratio"},
};

bool parse_options(int argc, char** argv, perfbench::Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--out-dir") {
      options.out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty() && options.seconds > 0.0;
}

void write_trace(const perfbench::Options& options) {
  const auto& log = perfbench::SpanLog::instance();
  const std::string stem = options.out_dir + "/trace-" + options.workload + "-seed" +
                           std::to_string(options.seed);
  std::ofstream(stem + ".json") << log.chrome_trace_json();
  const std::string table = log.self_time_table();
  std::ofstream(stem + ".selftime.txt") << table;
  std::printf("trace: %zu spans -> %s.json\nself time by layer:\n%s", log.size(), stem.c_str(),
              table.c_str());
}

void print_result(const perfbench::RunResult& run, bool trace) {
  std::string json = "{\"correct\": ";
  json += run.correct && run.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(run.attempted);
  json += ", \"failed\": " + std::to_string(run.failed) + ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricDef& def) {
    const auto it = run.metrics.find(def.name);
    double value = it == run.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", def.name, value, def.unit);
    json += buffer;
    first = false;
    std::fprintf(stderr, "  %-36s %16.6g %s\n", def.name, value, def.unit);
  };
  if (trace) {
    for (const MetricDef& def : kPerLayer) emit(def);
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!parse_options(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out-dir <dir>]\n");
    return 2;
  }
  try {
    std::filesystem::create_directories(options.out_dir);
    options.out_dir = std::filesystem::absolute(options.out_dir).string();
    perfbench::print_host();
    perfbench::RunResult run = options.workload == "service-mix"
                                   ? perfbench::run_service_workload(options)
                                   : perfbench::run_search_workload(options);
    run.add("ops_ok_frac",
            static_cast<double>(run.attempted - run.failed) /
                static_cast<double>(std::max<std::int64_t>(run.attempted, 1)));
    if (options.trace) write_trace(options);
    std::fflush(stdout);
    print_result(run, options.trace);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
