// Shared plumbing of the miniphi benchmark: command-line options, the
// result record every workload fills in, sample statistics and the host
// description printed ahead of the result line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where traces, self-time tables and spill files go (inside the checkout).
  std::string out_dir = ".bench_build/out";
};


/// What one workload run reports: ops attempted/failed, whether every
/// correctness check passed, and the metrics of the requested kind
/// (end-to-end with --trace 0, per-layer with --trace 1).
struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> metrics;  ///< by name; units are in main.cpp

  void add(const std::string& name, double value) { metrics[name] = value; }
  /// Records a failed correctness check: the op counts as failed and the
  /// run as incorrect.
  void fail_check(const std::string& what);
};

/// Linear-interpolated quantile (q in [0, 1]) of the samples; 0 when empty.
double quantile(std::vector<double> samples, double q);
inline double median(const std::vector<double>& samples) { return quantile(samples, 0.5); }

/// |a - b| <= tol * max(|a|, |b|).
bool close_relative(double a, double b, double tol);

/// Resident bytes of one inner node's CLA per pattern in the dense engine:
/// 4 states x 4 Γ rates of doubles plus one int32 scale counter.
inline constexpr std::int64_t kClaBytesPerPattern = 16 * 8 + 4;

/// Computed (not measured) bytes of a full CLA set: one CLA per inner node.
inline std::int64_t full_cla_bytes(int taxa, std::int64_t patterns) {
  return static_cast<std::int64_t>(taxa - 2) * patterns * kClaBytesPerPattern;
}

/// The process metrics registry merged across threads: counters and gauges
/// by value, histograms by the sum of their observations.
std::map<std::string, double> registry_values();

/// Peak resident set of this process so far, in MB (getrusage).
double peak_rss_mb();

/// Prints ISA in force, core count and cache sizes.
void print_host();

/// Filesystem type of the directory holding `path` (statfs), e.g. "ext4".
std::string filesystem_of(const std::string& path);

/// The workloads' input as PHYLIP text: `taxa` sequences simulated with the
/// paper's dataset recipe (simulate::paper_dataset's GTR+Γ model and tree
/// depth) on one fixed Yule tree per taxon count, trimmed to exactly
/// `sites` columns drawn from exactly `patterns` distinct site patterns.
/// The seed drives the sequences; fixing the tree and the pattern count
/// keeps the work of an op nearly independent of it.
std::string make_phylip(int taxa, std::int64_t sites, std::int64_t patterns,
                        std::uint64_t seed);

/// Each workload's entry point; returns the filled-in result.
RunResult run_search_workload(const Options& options);
RunResult run_service_workload(const Options& options);

}  // namespace perfbench
