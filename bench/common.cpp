#include "bench/common.hpp"

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "src/simulate/simulate.hpp"
#include "src/util/logging.hpp"

namespace miniphi::bench {

PaperTable3 paper_table3() {
  PaperTable3 t;
  t.config_names = {"2S Xeon E5-2630", "2S Xeon E5-2680", "1S Xeon Phi 5110P",
                    "2S Xeon Phi 5110P"};
  t.seconds = {{{5.6, 32.4, 93.5, 183, 372, 753, 1465, 2965},
                {4.1, 24.0, 66.9, 148, 312, 633, 1237, 2494},
                {12.9, 29.7, 65.6, 101, 176, 328, 619, 1228},
                {18.7, 32.0, 54.4, 72, 122, 203, 354, 667}}};
  t.speedup = {{{0.73, 0.74, 0.72, 0.81, 0.84, 0.84, 0.84, 0.84},
                {1.00, 1.00, 1.00, 1.00, 1.00, 1.00, 1.00, 1.00},
                {0.32, 0.81, 1.02, 1.47, 1.77, 1.93, 2.00, 2.03},
                {0.22, 0.75, 1.23, 2.06, 2.56, 3.12, 3.49, 3.74}}};
  return t;
}

const TraceBundle& shared_trace() {
  static TraceBundle bundle;
  static std::once_flag once;
  std::call_once(once, [] {
    set_log_level(LogLevel::kWarn);
    std::fprintf(stderr,
                 "[bench] generating kernel trace: full ML search on a 15-taxon, %lld-site "
                 "simulated alignment (this runs the real kernels on this host)...\n",
                 static_cast<long long>(kTraceWidth));
    const auto alignment = simulate::paper_dataset(kTraceWidth, kTraceSeed);
    examl::ExperimentOptions options;
    const auto run = examl::run_traced_search(alignment, options);
    bundle.trace = run.trace;
    bundle.pattern_count = run.pattern_count;
    bundle.host_wall_seconds = run.wall_seconds;
    bundle.final_log_likelihood = run.search_result.log_likelihood;
    std::fprintf(stderr,
                 "[bench] trace ready: %zu kernel calls over %lld patterns "
                 "(host wall time %.1f s, final lnL %.1f)\n",
                 bundle.trace.calls.size(), static_cast<long long>(bundle.pattern_count),
                 bundle.host_wall_seconds, bundle.final_log_likelihood);
  });
  return bundle;
}

std::vector<platform::ExecConfig> table3_configs() {
  return {platform::config_e5_2630(), platform::config_e5_2680(),
          platform::config_phi_single(), platform::config_phi_dual()};
}

double simulated_seconds(const platform::ExecConfig& config, std::int64_t size) {
  const auto& bundle = shared_trace();
  const auto scaled = bundle.trace.scaled_to(bundle.pattern_count, size);
  return platform::simulate_trace(scaled, config).total_seconds;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const auto mid = samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  if (samples.size() % 2 == 1) return *mid;
  return (*mid + *std::max_element(samples.begin(), mid)) / 2.0;
}

std::vector<double> median_seconds(int runs, const std::vector<std::function<double()>>& trials,
                                   std::vector<double>* iqrs) {
  runs = std::max(runs, 5);
  std::vector<std::vector<double>> seconds(trials.size());
  for (int run = 0; run < runs; ++run) {
    for (std::size_t t = 0; t < trials.size(); ++t) seconds[t].push_back(trials[t]());
  }
  std::vector<double> medians;
  medians.reserve(trials.size());
  if (iqrs != nullptr) iqrs->clear();
  for (auto& samples : seconds) {
    if (iqrs != nullptr) iqrs->push_back(iqr(samples));
    medians.push_back(median(std::move(samples)));
  }
  return medians;
}

double iqr(std::vector<double> samples) {
  // Lower and upper halves (the median itself excluded for odd counts).
  std::sort(samples.begin(), samples.end());
  const auto half = static_cast<std::ptrdiff_t>(samples.size() / 2);
  const std::vector<double> low(samples.begin(), samples.begin() + half);
  const std::vector<double> high(samples.end() - half, samples.end());
  return median(high) - median(low);
}

std::string format_seconds(double seconds) {
  char buffer[32];
  if (seconds < 100.0) {
    std::snprintf(buffer, sizeof(buffer), "%.1f", seconds);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.0f", seconds);
  }
  return buffer;
}

void print_header(const std::string& title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
}

}  // namespace miniphi::bench
