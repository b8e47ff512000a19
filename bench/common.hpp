// Shared machinery for the experiment-reproduction benchmarks.
//
// The paper's evaluation (Section VI) measures full ML tree searches on
// 15-taxon simulated alignments of 10 K - 4 M sites.  Running a 4 M-site
// search on this build machine is infeasible, but the kernel-invocation
// *sequence* of the search is essentially independent of the alignment
// width (verified by examl_test.TraceCallMixIsStableAcrossAlignmentWidths).
// So each benchmark:
//   1. runs the real search on a tractable width and records the trace,
//   2. rescales the per-call site counts to each Table III width,
//   3. prices the scaled traces on the simulated Table I platforms.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/examl/driver.hpp"
#include "src/platform/cost_model.hpp"

namespace miniphi::bench {

/// Table III dataset sizes (# alignment patterns).
inline const std::vector<std::int64_t> kPaperSizes = {
    10'000, 50'000, 100'000, 250'000, 500'000, 1'000'000, 2'000'000, 4'000'000};

/// Width used for real trace-generation runs on this host.
inline constexpr std::int64_t kTraceWidth = 10'000;
inline constexpr std::uint64_t kTraceSeed = 2014;

/// Paper-reported Table III values for side-by-side printing:
/// seconds[config][size] and speedups vs the 2S E5-2680 baseline.
struct PaperTable3 {
  std::array<std::array<double, 8>, 4> seconds;
  std::array<std::array<double, 8>, 4> speedup;
  std::array<std::string, 4> config_names;
};
PaperTable3 paper_table3();

/// Runs the real search once (cached across calls within one process) and
/// returns the recorded trace plus its pattern count.
struct TraceBundle {
  core::KernelTrace trace;
  std::int64_t pattern_count = 0;
  double host_wall_seconds = 0.0;
  double final_log_likelihood = 0.0;
};
const TraceBundle& shared_trace();

/// The four Table III execution configurations, in paper row order.
std::vector<platform::ExecConfig> table3_configs();

/// Simulated wall time of the full search at `size` patterns under `config`.
double simulated_seconds(const platform::ExecConfig& config, std::int64_t size);

/// Median of `samples` (0 when empty).
double median(std::vector<double> samples);

/// Wall-clock gates compare medians, never one sample: the host is shared
/// and one run swings by about ±20 %.  Runs every trial `runs` times
/// (at least 5), round-robin so slow drift hits every trial alike, and
/// returns each trial's median.  A trial returns the seconds it measured.
/// `iqrs`, when given, receives each trial's interquartile range (q3 - q1).
std::vector<double> median_seconds(int runs, const std::vector<std::function<double()>>& trials,
                                   std::vector<double>* iqrs = nullptr);

/// Pretty-printing helpers.
std::string format_seconds(double seconds);
void print_header(const std::string& title);

}  // namespace miniphi::bench
