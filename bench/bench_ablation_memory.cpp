// Ablation (paper Section V-A): the CLA-recomputation memory-saving
// technique of Izquierdo-Carrasco et al., through memory::ClaStore
// (DESIGN.md §14).  Real host measurements: ML searches with shrinking CLA
// byte budgets (cla_budget_bytes, the one budget unit).  Every eviction
// drops the CLA and the engine re-runs newview when it is next read.
//
// Site-repeats buffers hold only their class count of blocks, so a byte
// budget keeps far more CLAs resident than the same bytes of full-width
// buffers.  Each row reports the budget, the bytes held at the end, extra
// newview (recomputation) work, evictions, wall time, and the peak bytes of
// the preorder stack one all-branch gradient after the timed optimization
// holds (the depth-first descent's partials, outside the cap).
// The paper notes the 4 M-site dataset already exhausts the Phi's 8 GB —
// this is the technique that would lift that limit.
//
// MINIPHI_BENCH_REQUIRE_MEMORY=1 (CI) gates two acceptance criteria: lnL at
// every budget is bit-identical to the full-budget run, and the gate-budget
// run — half the bytes a quarter-budget run holds, which still evicts —
// finishes within 2x the full-budget run, both as medians of kGateRuns
// interleaved runs.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "src/miniphi.hpp"

#include "src/core/engine.hpp"  // white-box: CLA-budget internals ablation

int main() {
  using namespace miniphi;
  set_log_level(LogLevel::kWarn);

  const int ntaxa = 64;
  const std::int64_t sites = 20'000;
  constexpr int kGateRuns = 5;
  const bool require = []() {
    const char* env = std::getenv("MINIPHI_BENCH_REQUIRE_MEMORY");
    return env != nullptr && env[0] == '1';
  }();
  std::printf("Ablation — CLA recomputation (memory vs time), real measurements\n");
  std::printf("workload: full branch-length optimization, %d taxa x %lld sites\n\n", ntaxa,
              static_cast<long long>(sites));

  const auto alignment = simulate::paper_dataset(sites, 77, ntaxa);
  const auto patterns = bio::compress_patterns(alignment);
  Rng rng(5);
  tree::Tree base_tree = tree::parsimony_starting_tree(patterns, rng);
  const model::GtrModel model(model::GtrParams::jc69(0.8));

  const std::int64_t full_width_bytes = core::full_width_cla_bytes(
      static_cast<std::int64_t>(patterns.pattern_count()), core::kSiteBlock);
  const std::int64_t floor_bytes =
      core::min_cla_buffers(base_tree.inner_count()) * full_width_bytes;
  const std::int64_t quarter_bytes = base_tree.inner_count() * full_width_bytes / 4;

  struct Row {
    std::string budget;
    double budget_mb = 0.0;
    double held_mb = 0.0;
    std::int64_t calls = 0;
    std::int64_t evictions = 0;
    double stack_mb = 0.0;
    double seconds = 0.0;
    double iqr = 0.0;  ///< wall-time IQR of the median rows; 0 for single runs
    double lnl = 0.0;
  };
  const auto run = [&](const std::string& label, std::int64_t bytes) {
    tree::Tree tree(base_tree);
    core::LikelihoodEngine::Config config;
    config.cla_budget_bytes = bytes;
    core::LikelihoodEngine engine(patterns, model, tree, config);
    Timer timer;
    Row row;
    row.lnl = engine.optimize_all_branches(tree.tip(0), 3);
    row.seconds = timer.seconds();
    row.budget = label;
    row.calls = engine.stats(core::Kernel::kNewview).calls;
    const memory::ClaStore& store = engine.cla_store();
    row.budget_mb = static_cast<double>(store.budget_bytes()) / 1e6;
    row.held_mb = static_cast<double>(store.held_bytes()) / 1e6;
    row.evictions = store.counters().evictions;
    // One untimed gradient fills the preorder stack to its plan's peak.
    std::vector<core::BranchGradient> gradient;
    (void)engine.gradient_all_branches(tree.tip(0), gradient);
    row.stack_mb = static_cast<double>(engine.preorder_stack_bytes()) / 1e6;
    return row;
  };

  // The gate budget: half of what a quarter-bytes run holds, floored at the
  // minimum working set.  Under a cap buffers shrink to their class counts,
  // so a quarter of the full-width bytes (or of the bytes an uncapped run
  // holds, its buffers grown to their widest orientation) may never evict;
  // half of the capped working set must, so the gate keeps measuring the
  // recomputation.
  const Row quarter = run("1/4 bytes", quarter_bytes);
  const std::int64_t gate_bytes =
      std::max(floor_bytes, static_cast<std::int64_t>(quarter.held_mb * 1e6) / 2);

  // The gate pair runs first, interleaved, so both medians see the same
  // machine state; the other rows are single runs.
  Row full;
  Row gate;
  std::vector<double> iqrs;
  const std::vector<double> medians = bench::median_seconds(
      kGateRuns,
      {[&] {
         full = run("all", 0);
         return full.seconds;
       },
       [&] {
         gate = run("gate", gate_bytes);
         return gate.seconds;
       }},
      &iqrs);
  full.seconds = medians[0];
  full.iqr = iqrs[0];
  gate.seconds = medians[1];
  gate.iqr = iqrs[1];

  const std::vector<Row> rows{full, quarter, gate, run("8 x full", 8 * full_width_bytes)};

  bool lnl_identical = true;
  std::printf("%10s %9s %8s  %14s %9s %8s %8s %8s  %14s\n", "budget", "budget MB", "held MB",
              "newview calls", "evictions", "stack MB", "wall[s]", "IQR[s]", "lnL");
  for (const Row& row : rows) {
    if (row.lnl != full.lnl) lnl_identical = false;
    std::printf("%10s %9.1f %8.1f  %8lld (%.2fx) %9lld %8.1f %8.2f %8.2f  %14.2f\n",
                row.budget.c_str(), row.budget_mb, row.held_mb, static_cast<long long>(row.calls),
                static_cast<double>(row.calls) / static_cast<double>(full.calls),
                static_cast<long long>(row.evictions), row.stack_mb, row.seconds, row.iqr,
                row.lnl);
  }
  const double amplification =
      static_cast<double>(gate.calls) / static_cast<double>(full.calls);
  std::printf("\nwall[s] of the full row and the gate row (%.1f MB): median of %d interleaved\n"
              "runs, with their IQR; the other rows are single runs.\n",
              static_cast<double>(gate_bytes) / 1e6, kGateRuns);
  std::printf("gate-budget newview amplification: %.2fx the full budget's newviews.\n",
              amplification);
  std::printf("lnL is identical across budgets (identical math; only the work differs).\n");
  std::printf("An eviction drops the CLA and the engine re-derives it from its subtree,\n");
  std::printf("paying only the subtree's distinct site-repeat classes.  A byte budget\n");
  std::printf("counts the class-sized buffers site repeats actually hold, so a quarter\n");
  std::printf("of the full-width bytes may not evict at all.  stack MB is the gradient's\n");
  std::printf("depth-first preorder stack, the same at every budget.\n");

  if (require) {
    if (!lnl_identical) {
      std::printf("\nFAIL: lnL diverged from the full-budget run\n");
      return 1;
    }
    if (gate.evictions == 0) {
      std::printf("\nFAIL: the gate budget (%.1f MB) never evicted\n",
                  static_cast<double>(gate_bytes) / 1e6);
      return 1;
    }
    if (gate.seconds > 2.0 * full.seconds) {
      std::printf("\nFAIL: median gate-budget wall time %.2fs exceeds 2x the median full "
                  "budget %.2fs\n",
                  gate.seconds, full.seconds);
      return 1;
    }
    std::printf("\nPASS: bit-identical lnL; median gate-budget run %.2fs (%lld evictions, "
                "%.2fx newviews) <= 2x median full %.2fs\n",
                gate.seconds, static_cast<long long>(gate.evictions), amplification,
                full.seconds);
  }
  return 0;
}
