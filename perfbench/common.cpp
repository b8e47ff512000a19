#include "perfbench/common.hpp"

#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "src/io/phylip.hpp"
#include "src/obs/metrics.hpp"
#include "src/simd/dispatch.hpp"
#include "src/simulate/simulate.hpp"

namespace perfbench {

void RunResult::fail_check(const std::string& what) {
  correct = false;
  ++failed;
  std::fprintf(stderr, "correctness check failed: %s\n", what.c_str());
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double position = q * static_cast<double>(samples.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, samples.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return samples[lower] + fraction * (samples[upper] - samples[lower]);
}

bool close_relative(double a, double b, double tol) {
  return std::fabs(a - b) <= tol * std::max(std::fabs(a), std::fabs(b));
}

std::map<std::string, double> registry_values() {
  std::map<std::string, double> values;
  for (const auto& metric : miniphi::obs::Registry::instance().snapshot()) {
    values[metric.name] = metric.kind == miniphi::obs::MetricKind::kHistogram
                              ? static_cast<double>(metric.histogram.sum)
                              : static_cast<double>(metric.value);
  }
  return values;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void print_host() {
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::printf("host: isa %s, nproc %u, L2 %.1f MiB per core, L3 %.1f MiB\n",
              miniphi::simd::to_string(miniphi::simd::best_supported_isa()).c_str(),
              std::thread::hardware_concurrency(), static_cast<double>(l2) / 1048576.0,
              static_cast<double>(l3) / 1048576.0);
}

std::string make_phylip(int taxa, std::int64_t sites, std::int64_t patterns,
                        std::uint64_t seed) {
  using namespace miniphi;
  // simulate::paper_dataset's GTR+Γ parameters and tree depth, on one fixed
  // Yule tree per taxon count.
  model::GtrParams params;
  params.exchangeabilities = {1.2, 3.5, 0.8, 0.9, 3.1, 1.0};
  params.frequencies = {0.30, 0.21, 0.24, 0.25};
  params.alpha = 0.8;
  const model::GtrModel model(params);
  Rng tree_rng(2014 + static_cast<std::uint64_t>(taxa));
  const tree::Tree tree = simulate::yule_tree(taxa, tree_rng, 0.6);
  Rng rng(seed);
  for (std::int64_t simulated = 2 * sites;; simulated *= 2) {
    simulate::SimulationOptions simulation;
    simulation.sites = simulated;
    const io::SequenceSet records =
        simulate::simulate_alignment(tree, model, simulation, rng).alignment.to_records();
    const auto width = static_cast<std::size_t>(simulated);
    // Number the distinct columns in order of first appearance.
    std::unordered_map<std::string, std::int64_t> index;
    std::vector<std::int64_t> pattern_of(width);
    std::string column(static_cast<std::size_t>(taxa), ' ');
    for (std::size_t site = 0; site < width; ++site) {
      for (std::size_t t = 0; t < records.size(); ++t) column[t] = records[t].sequence[site];
      pattern_of[site] =
          index.emplace(column, static_cast<std::int64_t>(index.size())).first->second;
    }
    if (static_cast<std::int64_t>(index.size()) < patterns) continue;  // simulate wider
    // Keep the first column of each of the first `patterns` patterns, then
    // their earliest repeats until `sites` columns are kept.
    std::vector<bool> keep(width, false);
    std::vector<bool> seen(static_cast<std::size_t>(patterns), false);
    std::int64_t kept = 0;
    for (std::size_t site = 0; site < width; ++site) {
      const std::int64_t p = pattern_of[site];
      if (p < patterns && !seen[static_cast<std::size_t>(p)]) {
        seen[static_cast<std::size_t>(p)] = true;
        keep[site] = true;
        ++kept;
      }
    }
    for (std::size_t site = 0; site < width && kept < sites; ++site) {
      if (pattern_of[site] < patterns && !keep[site]) {
        keep[site] = true;
        ++kept;
      }
    }
    if (kept < sites) continue;  // simulate wider
    io::SequenceSet trimmed = records;
    for (std::size_t t = 0; t < records.size(); ++t) {
      std::string& sequence = trimmed[t].sequence;
      sequence.clear();
      for (std::size_t site = 0; site < width; ++site) {
        if (keep[site]) sequence.push_back(records[t].sequence[site]);
      }
    }
    std::ostringstream text;
    io::write_phylip(text, trimmed);
    return text.str();
  }
}

std::string filesystem_of(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "0x%lx", static_cast<unsigned long>(info.f_type));
      return buffer;
    }
  }
}

}  // namespace perfbench
