// All-branch gradient smoothing benchmark: one branch-smoothing round via
// the classic per-branch Newton protocol (prepare_derivatives per edge:
// O(N) kernel launches per edge, O(N²) kernel work per round) versus the
// postorder + preorder two-pass gradient (gradient_all_branches: O(N)
// kernel work per round, one simultaneous Newton update).  Prints per-round
// wall time — medians of interleaved runs with their IQR — and per-round
// kernel-call counts over a taxa sweep, the crossover point where the
// gradient round becomes cheaper, and a paper-width row (15 taxa, about
// 15 K patterns) with the descent's ns/site per kernel.
//
// Exit status: nonzero when one gradient call does not launch exactly one
// call per kernel per preorder op plus the root edge's derivative protocol
// (the descent runs each op slab by slab but accounts it as one call per
// kernel).  With MINIPHI_BENCH_REQUIRE_SPEEDUP set, also nonzero when the
// kernel-work reduction at 64 taxa falls below the 3x acceptance bar.  Both
// gates count kernel launches; wall time is reported but not gated — it is
// noisy on shared CI hosts.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "src/core/engine.hpp"
#include "src/obs/metrics.hpp"
#include "src/simulate/simulate.hpp"
#include "src/util/timer.hpp"

namespace {

using namespace miniphi;

constexpr std::int64_t kSites = 300;
constexpr int kRuns = 5;  // interleaved runs per wall-time median
constexpr int kGatedTaxa = 64;
constexpr double kWorkReductionBar = 3.0;
constexpr std::int64_t kPaperSites = 50000;  // the paper's 15-taxon recipe

constexpr core::Kernel kKernels[] = {core::Kernel::kNewview, core::Kernel::kEvaluate,
                                     core::Kernel::kDerivSum, core::Kernel::kDerivCore};
constexpr const char* kKernelNames[] = {"newview", "evaluate", "derivative_sum",
                                        "derivative_core"};

std::int64_t kernel_calls(const core::EvalStats& stats) {
  std::int64_t calls = 0;
  for (const core::Kernel k : kKernels) calls += stats.kernel(k).calls;
  return calls;
}

struct RoundCost {
  double newton_seconds = 0.0;  // medians of kRuns interleaved rounds
  double gradient_seconds = 0.0;
  double newton_iqr = 0.0;
  double gradient_iqr = 0.0;
  std::int64_t newton_calls = 0;  // kernel launches per round
  std::int64_t gradient_calls = 0;
  bool calls_ok = true;  // one gradient call's launches match the descent's ops
};

/// Checks one gradient call on a validated tree: per kernel, exactly one
/// call of the full width per preorder op (newview, derivativeSum,
/// derivativeCore) plus the root edge's derivativeSum and derivativeCore.
bool gradient_calls_match(core::LikelihoodEngine& engine, tree::Tree& tree, tree::Slot* root) {
  (void)engine.log_likelihood(root);  // satisfies the root edge's plan: no postorder newviews
  engine.reset_stats();
  std::vector<core::BranchGradient> gradient;
  (void)engine.gradient_all_branches(root, gradient);
  const std::int64_t ops = tree.edge_count() - 1;
  const std::int64_t width = engine.slice_size();
  const std::int64_t expected[] = {ops, 0, ops + 1, ops + 1};
  bool ok = true;
  for (std::size_t k = 0; k < std::size(kKernels); ++k) {
    const core::KernelStat& stat = engine.stats().kernel(kKernels[k]);
    if (stat.calls != expected[k] || stat.sites_represented != expected[k] * width) {
      std::printf("FAIL: %d taxa, %s: %lld calls over %lld sites, expected %lld over %lld\n",
                  tree.taxon_count(), kKernelNames[k], static_cast<long long>(stat.calls),
                  static_cast<long long>(stat.sites_represented),
                  static_cast<long long>(expected[k]),
                  static_cast<long long>(expected[k] * width));
      ok = false;
    }
  }
  return ok;
}

RoundCost measure(core::LikelihoodEngine& engine, tree::Tree& tree) {
  tree::Slot* root = tree.tip(0);
  // Warm-up: buffers, plans, and one full smoothing pass so both paths
  // measure near-converged rounds (Newton iteration counts stabilize).
  (void)engine.log_likelihood(root);
  (void)engine.optimize_all_branches(root, 1);

  RoundCost cost;
  cost.calls_ok = gradient_calls_match(engine, tree, root);
  std::int64_t newton_calls = 0;
  std::int64_t gradient_calls = 0;
  std::vector<core::BranchGradient> gradient;
  const std::vector<std::function<double()>> trials = {
      [&] {
        engine.reset_stats();
        Timer timer;
        (void)engine.optimize_all_branches(root, 1);
        const double seconds = timer.seconds();
        newton_calls += kernel_calls(engine.stats());
        return seconds;
      },
      [&] {
        engine.reset_stats();
        Timer timer;
        if (!engine.gradient_all_branches(root, gradient)) {
          std::printf("FAIL: gradient_all_branches declined (full CLA budget expected)\n");
          std::exit(1);
        }
        for (const core::BranchGradient& g : gradient) {
          tree::Tree::set_length(g.edge,
                                 core::LikelihoodEngine::newton_step(g.length, g.first, g.second));
        }
        for (const core::BranchGradient& g : gradient) {
          engine.invalidate_branch(g.edge->node_id);
          engine.invalidate_branch(g.edge->back->node_id);
        }
        (void)engine.log_likelihood(root);
        const double seconds = timer.seconds();
        gradient_calls += kernel_calls(engine.stats());
        return seconds;
      }};
  std::vector<double> iqrs;
  const std::vector<double> medians = bench::median_seconds(kRuns, trials, &iqrs);
  cost.newton_seconds = medians[0];
  cost.gradient_seconds = medians[1];
  cost.newton_iqr = iqrs[0];
  cost.gradient_iqr = iqrs[1];
  cost.newton_calls = newton_calls / kRuns;
  cost.gradient_calls = gradient_calls / kRuns;
  return cost;
}

void print_row(const char* label, const RoundCost& cost) {
  const double time_speedup =
      cost.gradient_seconds > 0.0 ? cost.newton_seconds / cost.gradient_seconds : 0.0;
  const double work_reduction =
      cost.gradient_calls > 0
          ? static_cast<double>(cost.newton_calls) / static_cast<double>(cost.gradient_calls)
          : 0.0;
  std::printf("%8s %12.1f %9.1f %12.1f %9.1f %7.2fx %13lld %11lld %7.2fx\n", label,
              cost.newton_seconds * 1e6, cost.newton_iqr * 1e6, cost.gradient_seconds * 1e6,
              cost.gradient_iqr * 1e6, time_speedup, static_cast<long long>(cost.newton_calls),
              static_cast<long long>(cost.gradient_calls), work_reduction);
}

}  // namespace

int main() {
  const int taxa_sweep[] = {16, 32, 64, 96};
  std::printf("all-branch gradient smoothing: %lld sites, median of %d interleaved rounds\n\n",
              static_cast<long long>(kSites), kRuns);
  std::printf("%8s %12s %9s %12s %9s %8s %13s %11s %8s\n", "taxa", "newton[us]", "iqr[us]",
              "gradient[us]", "iqr[us]", "time-x", "newton-calls", "grad-calls", "work-x");

  bool ok = true;
  int crossover = -1;
  for (const int ntaxa : taxa_sweep) {
    Rng rng(4400 + static_cast<std::uint64_t>(ntaxa));
    tree::Tree tree = simulate::yule_tree(ntaxa, rng, 0.6);
    simulate::SimulationOptions sim;
    sim.sites = kSites;
    const model::GtrModel model(model::GtrParams::jc69(0.8));
    const auto data = simulate::simulate_alignment(tree, model, sim, rng);
    const auto patterns = bio::compress_patterns(data.alignment);
    core::LikelihoodEngine engine(patterns, model, tree);
    const RoundCost cost = measure(engine, tree);
    print_row(std::to_string(ntaxa).c_str(), cost);
    ok = ok && cost.calls_ok;
    if (crossover < 0 && cost.gradient_seconds < cost.newton_seconds) crossover = ntaxa;
    const double work_reduction = static_cast<double>(cost.newton_calls) /
                                  static_cast<double>(std::max<std::int64_t>(1, cost.gradient_calls));
    if (ntaxa == kGatedTaxa && std::getenv("MINIPHI_BENCH_REQUIRE_SPEEDUP") != nullptr &&
        work_reduction < kWorkReductionBar) {
      std::printf("FAIL: kernel-work reduction %.2fx at %d taxa below the %.1fx bar\n",
                  work_reduction, kGatedTaxa, kWorkReductionBar);
      ok = false;
    }
  }
  if (crossover >= 0) {
    std::printf("\ngradient round faster from %d taxa onward (this sweep)\n", crossover);
  } else {
    std::printf("\ngradient round never beat the Newton round on this sweep\n");
  }

  // Paper width: the paper's 15-taxon recipe at 50,000 sites, where one CLA
  // is about 1.9 MB and leaves L2 before its consumer reads it — the case
  // the slab-by-slab descent is for.  Metrics on, so the descent's kernels
  // (published under plf.<isa>.preorder.*) give their own ns/site.
  const auto alignment = simulate::paper_dataset(kPaperSites, 4415);
  const auto patterns = bio::compress_patterns(alignment);
  Rng rng(4415);
  tree::Tree tree = tree::Tree::random(static_cast<int>(patterns.taxon_count()), rng);
  const model::GtrModel model(model::GtrParams::jc69(0.8));
  core::LikelihoodEngine::Config config;
  config.metrics = obs::MetricsMode::kOn;
  core::LikelihoodEngine engine(patterns, model, tree, config);
  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  const RoundCost cost = measure(engine, tree);
  std::printf("\npaper width: %d taxa, %zu patterns\n", tree.taxon_count(),
              patterns.pattern_count());
  print_row("15", cost);
  ok = ok && cost.calls_ok;
  std::printf("descent kernels (%s):", simd::to_string(engine.isa()).c_str());
  for (const core::Kernel k : {core::Kernel::kNewview, core::Kernel::kDerivSum,
                               core::Kernel::kDerivCore}) {
    const std::string prefix = core::kernel_metric_prefix(engine.isa(), "preorder", k);
    const std::int64_t sites = registry.value(registry.counter(prefix + ".sites"));
    const std::int64_t ns = registry.histogram_snapshot(registry.histogram(prefix + ".ns")).sum;
    std::printf("  %s %.2f ns/site", kKernelNames[static_cast<int>(k)],
                sites > 0 ? static_cast<double>(ns) / static_cast<double>(sites) : 0.0);
  }
  std::printf("\n");
  return ok ? 0 : 1;
}
